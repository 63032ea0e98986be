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
    is Upper when y > 0 and Lower when y < 0, and the branch point (0, 0)
    is Upper (``sheet_sign``);
  * ``principal_root`` inverts ``square`` onto the Upper sheet; times
    ``sheet_sign``, it gives back the preimage on either sheet.

A continuous trajectory changes sheet precisely when it crosses the cut.

The pushed-forward vector field closes in (x1, y1).  Writing
R = sqrt(x1^2 + y1^2) (= x^2 + y^2 on images of real points):

    x1' = (x1 + R)*y1/2 + mu*(R - x1)
    y1' = -x1^2 - y1^2/2 + R*(2 - x1) - mu*y1

The mu terms come from the identities 2*mu*y^2 = mu*(R - x1) and
2*mu*x*y = mu*y1, so one closed form covers the conservative and the
dissipative flow.  The field does not depend on the sheet.

Every covered orbit turns clockwise around the center (1, 0), the shared
image of the two wells' centers (+-1, 0).  ``_unwrap`` follows its angle
about that center continuously along sampled original-plane points; the
angle queries and the closed-orbit guard of ``integrate._one_period`` use
it, and it refuses points within CENTER_EXCLUSION of (+-1, 0).
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import Params
from .exceptions import CenterSingular, UnwrapAmbiguous

CENTER_EXCLUSION = 1e-9
TWO_PI = 2.0 * math.pi
_TINY = np.finfo(np.float64).tiny


def square(x, y):
    """The covering map (x, y) -> (x^2 - y^2, 2xy), elementwise."""
    return x * x - y * y, 2.0 * x * y


def sheet_sign(x, y):
    """Sheet of the image of (x, y), elementwise: +1 Upper, -1 Lower.

    Upper for x > 0, and on the y-axis for y >= 0 (so the origin too).
    """
    return np.where((x > 0.0) | ((x == 0.0) & (y >= 0.0)), 1, -1)


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


def covered_field(x1, y1, p: Params):
    """Pushed-forward vector field at covered points, elementwise.

    The same on both sheets: the two preimages +-s have opposite field
    vectors and an opposite-signed Jacobian, so both push to the same
    covered vector.
    """
    r = np.sqrt(x1 * x1 + y1 * y1)
    du = 0.5 * (x1 + r) * y1 + p.mu * (r - x1)
    dv = -x1 * x1 - 0.5 * y1 * y1 + r * (2.0 - x1) - p.mu * y1
    return du, dv


def _check_away_from_centers(x, y) -> None:
    """CenterSingular if a point (x, y), floats or arrays, lies within
    CENTER_EXCLUSION of (+-1, 0).  Floats are squared by products, as
    numpy's ** 2 is, so both paths decide alike; on neither does a square
    that overflows (a point far from both centers) or underflows warn or
    raise, whatever the caller's numpy error state.

    Arrays (broadcast together, 0-d included) are squared only in the
    band |(|x| - 1)| < 2*CENTER_EXCLUSION, and not at all when no point
    lies in it.  That drops no near point: |x| - 1 is x -+ 1 exactly for
    the nearer center, rounding is monotone, and fl(a + b) >= a for
    b >= 0, so a point off the band has fl((x -+ 1)**2) + fl(y**2) >=
    fl((2*CENTER_EXCLUSION)**2) > CENTER_EXCLUSION**2; a NaN x is in no
    band and is near no center."""
    if isinstance(x, float) and isinstance(y, float):
        yy = y * y
        near = ((x - 1.0) * (x - 1.0) + yy < CENTER_EXCLUSION**2
                or (x + 1.0) * (x + 1.0) + yy < CENTER_EXCLUSION**2)
    else:
        band = np.abs(np.abs(x) - 1.0) < 2.0 * CENTER_EXCLUSION
        near = band.any()
        if near:  # the rule, on the points of the band alone
            x, y, band = np.broadcast_arrays(x, y, band)
            x, y = x[band], y[band]
            with np.errstate(over="ignore", under="ignore"):
                yy = y**2
                near = (np.any((x - 1.0) ** 2 + yy < CENTER_EXCLUSION**2)
                        or np.any((x + 1.0) ** 2 + yy < CENTER_EXCLUSION**2))
    if near:
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
    d = raw[1:] - raw[:-1]
    d -= TWO_PI * np.rint(d / TWO_PI)
    if (np.abs(d) >= math.pi).any():
        raise UnwrapAmbiguous(
            "consecutive angle samples differ by half a turn or more; "
            "sampling is too sparse to unwrap"
        )
    return x1, y1, np.concatenate((raw[:1], raw[:1] + np.cumsum(d)))
