"""The global angle about the covered-plane center, and action integrals.

Every orbit of the covered flow turns clockwise around the single center
(1, 0): the angle

    theta = arg((x1 - 1) + i*y1)     (range (-pi, pi], computed by _angle)

decreases strictly along every trajectory except at the origin, so its
continuous unwrapping serves as a global clock.  The angular velocity has
the closed rational form implemented by ``theta_dot_of``; it is negative
everywhere except the origin (where it vanishes) and is 0/0 at (+-1, 0),
the two preimages of the center, so angle operations reject a hard
exclusion disk of radius 1e-9 around those points rather than clamp.

Two action integrals are provided:

  * ``action_covered``: (1/2pi) * loop integral of y1 dx1 along the
    covered trajectory over one full global revolution (theta decreasing
    by exactly 2pi).
  * ``action_original``: the classical per-region (1/2pi) * loop integral
    of y dx over one original period, kept as an independent reference.

Near a well the covering map scales areas by |det J| = 4(x^2+y^2) ~= 4,
so the covered action approaches 4x the classical one there; for orbits
outside the separatrix one global revolution is half an original period.
Both integrals use one trapezoid quadrature on the adaptive samples,
``_loop_action``, with the closing segment added explicitly.
"""

from __future__ import annotations

import math

import numpy as np

from .covering import cover_map, square
from .dynamics import Params, State, _require_finite, energy_rate
from .exceptions import CenterSingular, NoReturn, OriginSingular, UnwrapAmbiguous
from .integrate import (
    DEFAULT_CONFIG,
    IntegratorConfig,
    Trajectory,
    _integrate_covered,
    _one_period,
    _require_closed_orbit,
    hermite_steps,
    locate_roots,
)

CENTER_EXCLUSION = 1e-9
ORIGIN_EXCLUSION = 1e-9
TWO_PI = 2.0 * math.pi


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


def theta_of(s: State) -> float:
    """Global angle of a state, via its covered image, in (-pi, pi];
    elementwise when the coordinates are arrays."""
    _require_finite(s)
    _check_away_from_centers(s.x, s.y)
    return _angle(*square(s.x, s.y))


def theta_dot_of(s: State) -> float:
    """Angular velocity of the conservative flow at s (closed form).

    Equal to d/dt theta_of along the mu = 0 flow.  Always <= 0;
    zero exactly at the origin.  The numerator decomposes as
    x^2 (x^2 - 1)^2 + y^2 (x^4 + y^2 + 1) and the denominator equals
    rho^2 = (x1 - 1)^2 + y1^2, which pins the 0/0 points to (+-1, 0).
    """
    _require_finite(s)
    _check_away_from_centers(s.x, s.y)
    x, y = s.x, s.y
    x2 = x * x
    y2 = y * y
    num = x2 * x2 * x2 + x2 * x2 * y2 - 2.0 * x2 * x2 + y2 * y2 + x2 + y2
    den = x2 * x2 + 2.0 * x2 * y2 + y2 * y2 - 2.0 * x2 + 2.0 * y2 + 1.0
    return -2.0 * num / den


def _wrap(d):
    """Angle differences shifted by multiples of 2pi into [-pi, pi]."""
    return d - TWO_PI * np.round(d / TWO_PI)


def _unwrap(x1, y1):
    """The angle of covered points, unwrapped, and its increments: each
    principal-value jump is shifted by a multiple of 2pi into [-pi, pi]
    and added up from the first angle, which is kept as is."""
    raw = _angle(x1, y1)
    d = _wrap(np.diff(raw))
    return np.concatenate((raw[:1], raw[:1] + np.cumsum(d))), d


def unwrap_theta(traj: Trajectory) -> np.ndarray:
    """Continuous angle along a trajectory, as an (n, 2) array [t, theta].

    The angle is unwrapped by ``_unwrap``.  The integrator's step control
    keeps true increments well below pi; an adjusted increment of
    magnitude pi or more therefore means the branch is unrecoverable and
    raises UnwrapAmbiguous.
    """
    _check_away_from_centers(traj.states[:, 0], traj.states[:, 1])
    theta, d = _unwrap(traj.covered[:, 0], traj.covered[:, 1])
    if np.any(np.abs(d) >= math.pi):
        raise UnwrapAmbiguous(
            "consecutive angle samples differ by half a turn or more; "
            "sampling is too sparse to unwrap"
        )
    return np.column_stack((np.asarray(traj.t, dtype=np.float64), theta))


def _revolution_end(theta):
    """Index of the first sample at which the unwrapped angle theta has
    fallen by 2pi, or None."""
    below = np.flatnonzero(theta <= theta[0] - TWO_PI)
    return int(below[0]) if below.size else None


def _loop_action(x, y) -> float:
    """(1/2pi) * |integral of y dx| along the points, by the trapezoid
    rule, with the closing segment back to the first point."""
    s = np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    s += 0.5 * (y[-1] + y[0]) * (x[0] - x[-1])  # close the loop
    return abs(float(s)) / TWO_PI


def action_covered(
    s0: State, p: Params, cfg: IntegratorConfig = DEFAULT_CONFIG
) -> float:
    """Action from the covered loop: (1/2pi) * integral of y1 dx1 over one
    global revolution (theta down by exactly 2pi), sign-normalized.

    The integration stops after the first kernel chunk on which
    ``_revolution_end``, read off the whole path so far, finds the
    revolution, not at t_max; the path is a prefix of the full-horizon
    one, so the action equals, bit for bit, that of ``integrate_covered``
    over [0, t_max] (see ``_revolution_action``).
    """
    s0 = State(float(s0[0]), float(s0[1]))
    _require_closed_orbit(s0, p)
    return _revolution_action(_integrate_covered(
        cover_map(s0), p, cfg,
        lambda t, x1, y1, *_: _revolution_end(_unwrap(x1, y1)[0]) is not None,
    ))


def _revolution_action(traj: Trajectory) -> float:
    """(1/2pi) * |integral of y1 dx1| along a covered trajectory over its
    first global revolution.

    The revolution endpoint is refined on the dense output by the event
    locator, ``locate_roots``; the loop runs through the samples before
    it, then the endpoint, and closes back to the start.  NoReturn if the
    angle never falls by 2pi.
    """
    theta_u = unwrap_theta(traj)[:, 1]
    target = theta_u[0] - TWO_PI
    k = _revolution_end(theta_u)
    if k is None:
        raise NoReturn(
            f"angle decreased by only {theta_u[0] - theta_u.min():.4g} rad "
            f"within t_max={traj.config.t_max:g}; increase t_max"
        )

    # theta_u - target on the step k-1 -> k, unwrapped against sample k-1
    at = hermite_steps(traj.t, traj.covered, traj.derivs, np.array([k - 1]))
    raw_prev = _angle(traj.covered[k - 1, 0], traj.covered[k - 1, 1])

    def excess(j, tq):
        return theta_u[k - 1] - target + _wrap(_angle(*at(j, tq)) - raw_prev)

    t_star = locate_roots(
        excess, traj.t[k - 1 : k], traj.t[k : k + 1],
        [theta_u[k - 1] - target], [theta_u[k] - target], 0.0,
    )
    x1_star, y1_star = at(0, t_star[0])
    return _loop_action(
        np.append(traj.covered[:k, 0], x1_star),
        np.append(traj.covered[:k, 1], y1_star),
    )


def action_original(
    s0: State, p: Params, cfg: IntegratorConfig = DEFAULT_CONFIG
) -> float:
    """Classical action: (1/2pi) * integral of y dx over one original
    period, sign-normalized, along the path that measures find_period's
    period, with no second integration (``integrate._one_period``)."""
    return _loop_action(*_one_period(s0, p, cfg)[1:])


def dH_dtheta(s: State, p: Params) -> float:
    """Energy change per unit of global angle, dH/dtheta = H'/theta'.

    Zero for mu = 0 or on the axis y = 0; strictly positive elsewhere when
    mu > 0 (both rates are negative).  Elementwise when the coordinates are
    arrays.  Raises OriginSingular at the origin where the angular velocity
    vanishes, CenterSingular near (+-1, 0).
    """
    td = theta_dot_of(s)
    if np.any(td == 0.0):
        raise OriginSingular("theta' = 0 at the origin; dH/dtheta is undefined")
    return energy_rate(s, p) / td


def energy_angle_curve(traj: Trajectory) -> np.ndarray:
    """(unwrapped angle, energy) pairs along a trajectory, shape (n, 2).

    For mu = 0 the energy column is constant (orbits are horizontal
    lines); for mu > 0 both columns decrease in time, so energy is a
    non-decreasing function of the angle.  A trajectory pinned at the
    origin (where the angle stops) is rejected with OriginSingular.
    """
    d2 = traj.states[:, 0] ** 2 + traj.states[:, 1] ** 2
    if np.any(d2 < ORIGIN_EXCLUSION**2):
        raise OriginSingular(
            "trajectory reaches the origin, where the angle is not a clock"
        )
    tw = unwrap_theta(traj)
    return np.column_stack((tw[:, 1], traj.energies()))
