"""The unforced double-well Duffing system on the (x, y) phase plane.

    x' = y
    y' = x - x^3 - mu*y

For mu = 0 the flow conserves

    H(x, y) = x^4/4 + y^2/2 - x^2/2.

The separatrix through the saddle at the origin is the level set H = 0
and the two well minima (+-1, 0) sit at H = -1/4, so the sign of H
classifies the three orbit regions.

All functions are pure; every value is immutable and safe to share across
threads.  The arithmetic is numpy-polymorphic: passing arrays for x and y
evaluates the formulas elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import NamedTuple

import numpy as np

from . import _kernels


def _number(v, name: str, lo: float = -math.inf, *,
            above: bool = False, integer: bool = False, bound: str | None = None):
    """v, a number given from outside the program, as a Python float (an
    int if ``integer``) if it is a Real and not a bool (an Integral if
    ``integer``), finite, and >= lo (> lo if ``above``); else ValueError
    "<name> must be ...", the bound worded as ``bound`` or from lo.  The
    one rule for every such number, so a numpy float32 computes in float64."""
    ok = isinstance(v, Integral if integer else Real) and not isinstance(v, bool)
    try:
        x = float(v) if ok else math.nan
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if math.isfinite(x) and (x > lo if above else x >= lo):
        return int(v) if integer else x
    if bound is None:
        bound = f" {'>' if above else '>='} {lo:g}" if lo > -math.inf else ""
    kind = "an integer" if integer else "a finite number"
    raise ValueError(f"{name} must be {kind}{bound}, got {v!r}")


class State(NamedTuple):
    """A point of the original phase plane (position x, velocity y)."""

    x: float
    y: float


@dataclass(frozen=True)
class Params:
    """System parameters: damping mu >= 0, a finite number that is not a
    bool, kept as a Python float (ValueError naming the field otherwise)."""

    mu: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "mu", _number(self.mu, "mu", 0.0))


def _require_finite(s) -> None:
    """Reject a State whose coordinates (scalars or arrays) are not all
    finite.  Floats are checked by math.isfinite, which decides as
    np.isfinite does at a fraction of its cost."""
    x, y = s[0], s[1]
    if isinstance(x, float) and isinstance(y, float):
        finite = math.isfinite(x) and math.isfinite(y)
    else:
        finite = np.all(np.isfinite(x)) and np.all(np.isfinite(y))
    if not finite:
        raise ValueError(f"{type(s).__name__} must be finite, got {s!r}")


def duffing_field(s: State, p: Params) -> tuple[float, float]:
    """Right-hand side (x', y') = (y, x - x^3 - mu*y): the integrator
    kernels' own field, so the value is bit-identical to their stages and
    to the node slopes of the dense output."""
    _require_finite(s)
    return _kernels.rhs(s.x, s.y, p.mu)


def hamiltonian(s: State, p: Params) -> float:
    """Energy H = x^4/4 + y^2/2 - x^2/2; p, unread, keeps duffing_field's signature."""
    _require_finite(s)
    x, y = s.x, s.y
    return x**4 / 4.0 + y**2 / 2.0 - x**2 / 2.0


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
    """The state (x, 0) with x > 0 on the energy level H = h.

    Solves x^4/4 - x^2/2 = h on the outer positive branch,
    x = sqrt(1 + sqrt(1 + 4h)), spelled sqrt(1 + 2*sqrt(h + 1/4)): the
    same bits, since scaling by 4 is exact, and finite for every finite h,
    where 4h overflows above about 4.5e307.  For -1/4 < h < 0 this is the
    rightmost point of the right-well orbit; for h > 0 it is the rightmost
    point of the outer orbit; h = 0 gives the separatrix apex (sqrt(2), 0).
    """
    h = _number(h, "h", -0.25, bound=" >= -1/4: no orbit exists below the well minimum")
    return State(math.sqrt(1.0 + 2.0 * math.sqrt(h + 0.25)), 0.0)
