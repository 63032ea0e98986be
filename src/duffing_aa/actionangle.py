"""The global angle about the covered-plane center, and action integrals.

Every orbit of the covered flow turns clockwise around the single center
(1, 0): the angle

    theta = arg((x1 - 1) + i*y1)     (range (-pi, pi], covering._angle)

decreases strictly along every trajectory except at the origin, so its
continuous unwrapping serves as a global clock.  The angular velocity has
the closed rational form implemented by ``theta_dot_of``; it is negative
everywhere except the origin (where it vanishes) and is 0/0 at (+-1, 0),
the two preimages of the center, so angle operations reject a hard
exclusion disk of radius 1e-9 around those points rather than clamp.

Two action integrals are provided, both over the points of one original
period that ``find_period`` measures (``integrate._one_period``).  That
path must resolve the orbit (StepFailure otherwise), and the last one is
kept (``functools.lru_cache``), so ``find_period`` and both actions on
one start share one integration:

  * ``action_covered``: (1/2pi) * loop integral of y1 dx1 along the
    covered image over one full global revolution (theta decreasing by
    exactly 2pi).  One period is one revolution in a well and two outside
    the separatrix, so the integral over the period is divided by those
    revolutions, which ``_one_period`` has checked the unwrapped angle
    to make.
  * ``action_original``: the classical per-region (1/2pi) * loop integral
    of y dx over the period.

Near a well the covering map scales areas by |det J| = 4(x^2+y^2) ~= 4,
so the covered action approaches 4x the classical one there.  Both
integrals use one trapezoid quadrature on the adaptive samples,
``_loop_action``, with the closing segment added explicitly.
"""

from __future__ import annotations

import numpy as np

from .covering import TWO_PI, _angle, _check_away_from_centers, _unwrap, square
from .dynamics import Params, State, _require_finite, energy_rate
from .exceptions import OriginSingular
from .integrate import (
    DEFAULT_CONFIG,
    IntegratorConfig,
    Trajectory,
    _one_period,
)

ORIGIN_EXCLUSION = 1e-9


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
    x2, y2 = s.x * s.x, s.y * s.y
    num = x2 * x2 * x2 + x2 * x2 * y2 - 2.0 * x2 * x2 + y2 * y2 + x2 + y2
    return -2.0 * num / _theta_dot_den(x2, y2)


def _theta_dot_den(x2, y2):
    """theta_dot_of's denominator from x^2 and y^2; it equals rho^2."""
    return x2 * x2 + 2.0 * x2 * y2 + y2 * y2 - 2.0 * x2 + 2.0 * y2 + 1.0


def unwrap_theta(traj: Trajectory) -> np.ndarray:
    """Continuous angle along a trajectory, as an (n, 2) array [t, theta],
    unwrapped by ``_unwrap`` from the images of its states: CenterSingular
    near (+-1, 0), UnwrapAmbiguous where samples are half a turn apart."""
    theta = _unwrap(traj.states[:, 0], traj.states[:, 1])[2]
    return np.column_stack((np.asarray(traj.t, dtype=np.float64), theta))


def _loop_action(x, y) -> float:
    """(1/2pi) * |integral of y dx| along the points, by the trapezoid
    rule, with the closing segment back to the first point."""
    s = (0.5 * (y[1:] + y[:-1]) * (x[1:] - x[:-1])).sum()
    s += 0.5 * (y[-1] + y[0]) * (x[0] - x[-1])  # close the loop
    return abs(float(s)) / TWO_PI


def action_covered(
    s0: State, p: Params, cfg: IntegratorConfig = DEFAULT_CONFIG
) -> float:
    """Action from the covered loop: (1/2pi) * integral of y1 dx1 over one
    global revolution (theta down by exactly 2pi), sign-normalized.

    The loop is the covered image of ``action_original``'s points over one
    period, as ``integrate._one_period`` keeps it from its angle check.
    One period is one revolution in a well and two outside the separatrix,
    where the image traces the loop twice; the integral over the period
    is divided by those revolutions, which ``_one_period`` has checked the
    unwrapped angle to make.  Right after ``find_period`` or
    ``action_original`` on the same start, params and config, it reads
    their path and integrates nothing.
    """
    x1, y1, turns = _one_period(s0, p, cfg)[3:]
    return _loop_action(x1, y1) / turns


def action_original(
    s0: State, p: Params, cfg: IntegratorConfig = DEFAULT_CONFIG
) -> float:
    """Classical action: (1/2pi) * integral of y dx over one original
    period, sign-normalized, along the path that measures find_period's
    period (``integrate._one_period``).  Right after ``find_period`` or
    ``action_covered`` on the same start, params and config, it reads
    their path and integrates nothing."""
    return _loop_action(*_one_period(s0, p, cfg)[1:3])


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
