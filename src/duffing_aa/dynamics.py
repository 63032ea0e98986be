"""The unforced double-well Duffing system on the (x, y) phase plane.

    x' = y
    y' = x - x^3 - mu*y

For mu = 0 the flow conserves

    H(x, y) = x^4/4 + y^2/2 - x^2/2 + C.

With the default C = 0 the separatrix through the saddle at the origin is
the level set H = 0 and the two well minima (+-1, 0) sit at H = -1/4, so
the sign of H classifies the three orbit regions.

All functions are pure; every value is immutable and safe to share across
threads.  The arithmetic is numpy-polymorphic: passing arrays for x and y
evaluates the formulas elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels


class State(NamedTuple):
    """A point of the original phase plane (position x, velocity y)."""

    x: float
    y: float


@dataclass(frozen=True)
class Params:
    """System parameters: damping mu >= 0 and energy offset c."""

    mu: float = 0.0
    c: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.mu) or self.mu < 0.0:
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")
        if not np.isfinite(self.c):
            raise ValueError(f"c must be finite, got {self.c}")


def _require_finite(s) -> None:
    """Reject a State or CoveredState whose coordinates (scalars or
    arrays) are not all finite."""
    if not (np.all(np.isfinite(s[0])) and np.all(np.isfinite(s[1]))):
        raise ValueError(f"{type(s).__name__} must be finite, got {s!r}")


def duffing_field(s: State, p: Params) -> tuple[float, float]:
    """Right-hand side (x', y') = (y, x - x^3 - mu*y): the integrator
    kernels' own field, so the value is bit-identical to the field values
    they store at every node."""
    _require_finite(s)
    return _kernels.rhs(s.x, s.y, p.mu)


def hamiltonian(s: State, p: Params) -> float:
    """Energy H = x^4/4 + y^2/2 - x^2/2 + c."""
    _require_finite(s)
    x, y = s.x, s.y
    return x**4 / 4.0 + y**2 / 2.0 - x**2 / 2.0 + p.c


def energy_rate(s: State, p: Params) -> float:
    """Instantaneous dH/dt along the flow.

    Along solutions,

        dH/dt = H_x*x' + H_y*y'
              = (x^3 - x)*y + y*(x - x^3 - mu*y)
              = -mu*y^2,

    so the closed form -mu*y^2 is returned.  It is exact (no cancellation),
    which keeps the monotonicity tests sharp; the gradient-product form
    above is retained in the test suite as an independent oracle.
    """
    _require_finite(s)
    return -p.mu * s.y**2


def state_on_level(h: float) -> State:
    """The state (x, 0) with x > 0 on the energy level H = h (for c = 0).

    Solves x^4/4 - x^2/2 = h on the outer positive branch,
    x = sqrt(1 + sqrt(1 + 4h)).  For -1/4 < h < 0 this is the rightmost
    point of the right-well orbit; for h > 0 it is the rightmost point of
    the outer orbit; h = 0 gives the separatrix apex (sqrt(2), 0).
    """
    if not np.isfinite(h) or h < -0.25:
        raise ValueError(f"no orbit exists below the well minimum -1/4, got {h}")
    return State(float(np.sqrt(1.0 + np.sqrt(1.0 + 4.0 * h))), 0.0)
