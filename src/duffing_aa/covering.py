"""The double covering of the phase plane by complex squaring.

The map

    x1 = x^2 - y^2,    y1 = 2*x*y

is (x + iy) -> (x + iy)^2.  It is two-to-one away from the origin: s and -s
land on the same covered point, which is exactly the reflection symmetry of
the Duffing field.  Slitting the covered plane along the negative x1-axis
("the cut") turns it into two full copies glued crosswise:

  * Upper sheet  = image of the right half-plane (x > 0),
  * Lower sheet  = image of the left half-plane  (x < 0),
  * cut ownership: a point with x1 < 0, y1 = 0 (preimage x = 0, y != 0)
    carries Upper when y > 0 and Lower when y < 0,
  * the branch point (0, 0) carries Upper purely so the API stays total;
    inverse_cover ignores the tag there.

With these conventions cover_map/inverse_cover are exact set inverses, and
a continuous trajectory changes sheet precisely when it crosses the cut.

The pushed-forward vector field closes in (x1, y1).  Writing
R = sqrt(x1^2 + y1^2) (= x^2 + y^2 on images of real points):

    x1' = (x1 + R)*y1/2 + mu*(R - x1)
    y1' = -x1^2 - y1^2/2 + R*(2 - x1) - mu*y1

The mu terms come from the identities 2*mu*y^2 = mu*(R - x1) and
2*mu*x*y = mu*y1, so one closed form covers the conservative and the
dissipative flow.  The field does not depend on the sheet tag.

Every covered orbit turns clockwise around the center (1, 0), the shared
image of the two wells' centers (+-1, 0).  ``_unwrap`` follows its angle
about that center continuously along sampled original-plane points; the
angle queries and the closed-orbit guard of ``integrate._one_period`` use
it, and it refuses points within CENTER_EXCLUSION of (+-1, 0).
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from .dynamics import Params, State, _require_finite
from .exceptions import CenterSingular, UnwrapAmbiguous

BRANCH_TOL = 1e-12
CENTER_EXCLUSION = 1e-9
TWO_PI = 2.0 * math.pi
_TINY = np.finfo(np.float64).tiny


class Sheet(enum.Enum):
    """Which copy of the covered plane a point lives on."""

    UPPER = "U"
    LOWER = "L"


class CoveredState(NamedTuple):
    """A covered-plane point (x1, y1) plus its sheet tag."""

    x1: float
    y1: float
    sheet: Sheet


def square(x, y):
    """The covering map (x, y) -> (x^2 - y^2, 2xy), elementwise."""
    return x * x - y * y, 2.0 * x * y


def sheet_sign(x, y):
    """Sheet of the image of (x, y), elementwise: +1 Upper, -1 Lower.

    Upper for x > 0, and on the y-axis for y >= 0 (so the origin too).
    """
    return np.where((x > 0.0) | ((x == 0.0) & (y >= 0.0)), 1, -1)


def cover_map(s: State) -> CoveredState:
    """Forward map (x, y) -> (x^2 - y^2, 2xy) with the sheet conventions
    documented in the module docstring."""
    _require_finite(s)
    x, y = float(s[0]), float(s[1])
    sheet = Sheet.UPPER if sheet_sign(x, y) > 0 else Sheet.LOWER
    return CoveredState(*square(x, y), sheet)


def principal_root(x1, y1):
    """Principal square root (x, y) of x1 + i*y1, elementwise.

    The root with x > 0, or x = 0 and y >= 0; y is negative iff y1 < 0.
    The larger component is sqrt((r + |x1|)/2) with r = |x1 + i*y1| and
    the smaller |y1| / (2 * larger), so neither suffers the cancellation
    of sqrt((r - |x1|)/2) near the axes.  At the origin the larger root is
    0 and so is |y1|; flooring the divisor at the smallest normal float
    makes the smaller root 0 there and changes no other value, since the
    larger root exceeds 1e-162 whenever y1 != 0.
    """
    r = np.hypot(x1, y1)
    big = np.sqrt(0.5 * (r + np.abs(x1)))
    small = np.abs(y1) / (2.0 * np.maximum(big, _TINY))
    right = x1 >= 0.0
    x = np.where(right, big, small)
    y = np.where(right, small, big)
    return x, np.where(y1 < 0.0, -y, y)


def inverse_cover(c: CoveredState) -> State:
    """The unique preimage of a covered point on its tagged sheet: the
    principal square root of x1 + i*y1 (see principal_root), negated on
    the Lower sheet.  The cut side is decided by an explicit sign test."""
    _require_finite(c)
    x, y = principal_root(c.x1, c.y1)
    if c.sheet is Sheet.LOWER:
        x, y = -x, -y
    return State(float(x), float(y))


def covered_field(c: CoveredState, p: Params) -> tuple[float, float]:
    """Pushed-forward vector field at a covered point.

    Independent of the sheet tag: the two preimages +-s have opposite
    field vectors and an opposite-signed Jacobian, so both push to the
    same covered vector.
    """
    _require_finite(c)
    x1, y1 = c.x1, c.y1
    r = np.sqrt(x1 * x1 + y1 * y1)
    du = 0.5 * (x1 + r) * y1 + p.mu * (r - x1)
    dv = -x1 * x1 - 0.5 * y1 * y1 + r * (2.0 - x1) - p.mu * y1
    return du, dv


def _check_away_from_centers(x, y) -> None:
    d2_plus = (np.asarray(x) - 1.0) ** 2 + np.asarray(y) ** 2
    d2_minus = (np.asarray(x) + 1.0) ** 2 + np.asarray(y) ** 2
    if np.any(d2_plus < CENTER_EXCLUSION**2) or np.any(d2_minus < CENTER_EXCLUSION**2):
        raise CenterSingular(
            "state within 1e-9 of (+-1, 0); the angle is undefined at the "
            "covered center"
        )


def _angle(x1, y1):
    """Angle of covered points about the center (1, 0), in (-pi, pi]."""
    theta = np.arctan2(y1, x1 - 1.0)
    return np.where(theta == -math.pi, math.pi, theta)[()]  # 0-d -> scalar


def _unwrap(x, y):
    """(x1, y1, theta): the covered image of original-plane points and
    its angle, unwrapped: each principal-value jump is shifted by a
    multiple of 2pi into [-pi, pi] and added up from the first angle,
    which is kept as is.

    CenterSingular near (+-1, 0).  The integrator's step control keeps
    true increments well below pi; an adjusted increment of magnitude pi
    or more therefore means the branch is unrecoverable and raises
    UnwrapAmbiguous.
    """
    _check_away_from_centers(x, y)
    x1, y1 = square(x, y)
    raw = _angle(x1, y1)
    d = np.diff(raw)
    d -= TWO_PI * np.round(d / TWO_PI)
    if np.any(np.abs(d) >= math.pi):
        raise UnwrapAmbiguous(
            "consecutive angle samples differ by half a turn or more; "
            "sampling is too sparse to unwrap"
        )
    return x1, y1, np.concatenate((raw[:1], raw[:1] + np.cumsum(d)))
