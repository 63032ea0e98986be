"""Time integration of the original plane, and its closed-orbit periods.

One stepper integrates every orbit: the embedded Dormand-Prince 5(4)
adaptive pair, which records the accepted nodes only.  Its cubic Hermite
dense output (``hermite_step``) takes the slopes at the two ends of a
step from the field itself, which equals the kernels' last stage there --
accurate enough to locate event times far below the step size.

A trajectory carries only its times and original-plane samples; its
covered columns are their images under the covering map, and its sheet
column is ``covering.sheet_sign`` of each sample: the covering is a chart,
not a second integration, and the sheet changes where x changes sign.
``find_period`` locates the returns to the section {y = 0} on its own
path, refined until |y| <= 1e-10.  Returns of a sign walk alternate in
direction, so return 2 is the first one in the direction of return 0: one
period after it.

A numpy sign walk (``_sign_flips``, exact zeros skipped) brackets every
sign change of y at once; then each bracket is refined on its own, in
Python floats, on the Hermite cubic of its own step (``hermite_step``) by
the Illinois variant of regula falsi (``locate_roots``; Hairer, Norsett &
Wanner, Solving ODEs I, II.6; Shampine & Thompson, "Event location for
ODEs", 2000).  A path has few brackets, so numpy's cost per call would
exceed their arithmetic.

Period and action queries need one orbit, not all of t_max: they share
``find_period``'s path, on which the adaptive kernel stops at the sample
that completes return 2, the 3 - [start on the section]-th sign flip of
y.  The path is a prefix of the full-horizon one, so the period is
bit-identical to it.  Only the returns the period uses are refined:
return 2, and return 0 for a start off the section.  The path must
resolve the orbit: the covered angle must turn once per period in a well
and twice outside, or StepFailure names the step.  The last orbit
measured is kept (``functools.lru_cache``), so ``find_period`` and both
actions on one start share one integration.

``integrate_original_orbits`` integrates many starts at once, and
``integrate_original`` is that with one start: one
``_kernels.adaptive_lanes`` call steps their paths in lockstep, bit for
bit the paths ``_kernels.adaptive_path`` takes one at a time, and each
trajectory holds its lane's arrays -- except a mirror: the field is
odd, so the path from -s is the path from s negated, and a start whose
negative (or itself) came earlier reuses that lane and owns its states.

Each integration is an independent single-threaded computation over
immutable inputs; returned trajectories are frozen (array buffers are
marked read-only) and safe to share between threads.  So is the kept
closed orbit: its arrays are read-only.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import _kernels
from .covering import TWO_PI, _check_away_from_centers, _unwrap, sheet_sign, square
from .dynamics import Params, State, _number, _require_finite, hamiltonian
from .exceptions import MaxStepsExceeded, NoReturn, OnSeparatrix, StepFailure

SECTION_REFINE_TOL = 1e-10
SEPARATRIX_TOL = 1e-9
MAX_REFINE_ITER = 200


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and bounds of the adaptive Dormand-Prince 5(4) stepper.

    ``step`` is the initial step.  ``max_steps`` bounds attempted steps
    (accepted + rejected) and therefore every loop in this module.
    ``step`` and ``t_max`` are at least the kernel's smallest step,
    ``_kernels.MIN_STEP``, the tolerances > 0: finite numbers, not bools, kept
    as floats and max_steps an int (dynamics._number; ValueError naming the field).
    """

    step: float = 0.01
    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    t_max: float = 100.0
    max_steps: int = 10_000_000

    def __post_init__(self):
        smallest = _kernels.MIN_STEP
        least, above = {"bound": f" at least the smallest step {smallest:g}"}, {"above": True}
        for name, lo, rule in (("step", smallest, least), ("t_max", smallest, least),
                               ("rel_tol", 0.0, above), ("abs_tol", 0.0, above),
                               ("max_steps", 1, {"integer": True})):
            object.__setattr__(self, name, _number(getattr(self, name), name, lo, **rule))


DEFAULT_CONFIG = IntegratorConfig()


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered samples of one orbit, on the original plane.

    ``states`` are original-plane points; ``covered`` (their covered-plane
    images) and ``sheets`` (each sample's tag, +1 Upper, -1 Lower) are
    read off them on every access.  Its dense output on step k is
    ``hermite_step(t, *states.T, params.mu, k)``.
    """

    t: np.ndarray
    states: np.ndarray
    params: Params
    config: IntegratorConfig

    def __post_init__(self):
        for arr in (self.t, self.states):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self.t.shape[0]

    @property
    def covered(self) -> np.ndarray:
        return np.column_stack(square(self.states[:, 0], self.states[:, 1]))

    @property
    def sheets(self) -> np.ndarray:
        return sheet_sign(self.states[:, 0], self.states[:, 1]).astype(np.int8)

    def energies(self) -> np.ndarray:
        """H evaluated at every sample."""
        return hamiltonian(State(self.states[:, 0], self.states[:, 1]), self.params)


def _check_status(status, t, cfg: IntegratorConfig) -> None:
    """Raise the failure a kernel status names; t holds the path's times,
    never empty: every path keeps its start sample."""
    if status == _kernels.STATUS_STEP_UNDERFLOW:
        raise StepFailure(
            f"adaptive step fell below {_kernels.MIN_STEP:g} at t={t[-1]:.6g}"
        )
    if status == _kernels.STATUS_NONFINITE:
        raise StepFailure(f"the state became non-finite after t={t[-1]:.6g}")
    if status == _kernels.STATUS_MAX_STEPS:
        raise MaxStepsExceeded(
            f"{cfg.max_steps} steps exhausted at t={t[-1]:.6g} (t_max={cfg.t_max:g})"
        )


def hermite_step(t, x, y, mu, k):
    """Dense output of the original-plane path (t, x, y) on its step
    k -> k + 1: tq -> (u, v), the cubic Hermite interpolant at a float
    time tq, in Python floats.  Its end slopes are the field
    ``_kernels.rhs`` at the step's two nodes, which is bit for bit the
    kernels' FSAL stage there."""
    (t0, t1), (u0, u1), (v0, v1) = (a[k:k + 2].tolist() for a in (t, x, y))
    h = t1 - t0
    (du0, dv0), (du1, dv1) = _kernels.rhs(u0, v0, mu), _kernels.rhs(u1, v1, mu)

    def at(tq):
        s = (tq - t0) / h
        s2 = s * s
        s3 = s2 * s
        c0, c2 = 2.0 * s3 - 3.0 * s2 + 1.0, -2.0 * s3 + 3.0 * s2
        c1, c3 = (s3 - 2.0 * s2 + s) * h, (s3 - s2) * h
        return (c0 * u0 + c1 * du0 + c2 * u1 + c3 * du1,
                c0 * v0 + c1 * dv0 + c2 * v1 + c3 * dv1)

    return at


def locate_roots(g, a, b, ga, gb, tol):
    """The root of g(tq), a function of a float, on the bracket [a, b].

    ga and gb are g at the ends, of opposite signs (or gb = 0, when b is
    the root).  The bracket is refined in Python floats by the Illinois
    variant of regula falsi: the secant point, or the midpoint where that
    is not in [a, b) (a secant step that rounds to 0 lands on b) or is
    undefined (ga = gb); the end kept twice in a row has its value
    halved, unless that makes it 0.  Sides are told by the signs of g
    as np.sign tells them: -0.0 is 0, and a NaN matches neither side.
    It stops once |g| <= tol, or once the width is down to 1e-15*(1 + |b|),
    the only stop reachable when g is too steep for tol in double
    precision, or after MAX_REFINE_ITER steps.  Returns the last point
    evaluated, b when |gb| <= tol already.
    """
    root = b
    if not abs(gb) > tol:
        return root
    kept = 0  # end kept by the last step: -1 a, 1 b
    for _ in range(MAX_REFINE_ITER):
        root = b - gb * (b - a) / (gb - ga) if gb != ga else np.nan
        if not a <= root < b:
            root = 0.5 * (a + b)
        fc = g(root)
        # sign tests, not products: opposite tiny values must not underflow
        # (gb is never NaN: it passed |g| > tol before any halving)
        if fc == fc and (fc > 0.0) - (fc < 0.0) == (gb > 0.0) - (gb < 0.0):
            ga = (ga * 0.5 or ga) if kept < 0 else ga  # Illinois: a kept twice in a row
            b, gb, kept = root, fc, -1
        else:
            gb = (gb * 0.5 or gb) if kept > 0 else gb
            a, ga, kept = root, fc, 1
        if not (abs(fc) > tol and b - a > 1e-15 * (1.0 + abs(b))):
            break
    return root


def _sign_flips(g):
    """The sign walk of g: indices k, increasing, of the nonzero entries
    that the next nonzero entry (past any exact zeros) opposes."""
    nz = g.nonzero()[0]
    pos = (g > 0.0)[nz]
    return nz[:-1][pos[1:] != pos[:-1]]  # entry i opposes entry i + 1


def _section_crossings(t: np.ndarray, y: np.ndarray, ks, dense) -> list[float]:
    """Times of the transversal returns to the section {y = 0} that the
    sign flips ks of y bracket (``_sign_flips``): a flip between nonzero
    samples k and n brackets a return on the step k -> k + 1, where
    y[k + 1] = 0 if zeros lie between.  Each is refined on ``dense``,
    the path's ``hermite_step``, until |y| <= 1e-10."""
    return [locate_roots(lambda tq, at=dense(k): at(tq)[1], *t[k:k + 2].tolist(),
                         *y[k:k + 2].tolist(), SECTION_REFINE_TOL) for k in ks]


def integrate_original(
    s0: State, p: Params, cfg: IntegratorConfig = DEFAULT_CONFIG
) -> Trajectory:
    """Advance the original-plane field from s0 over [0, t_max].

    Its covered columns and sheets are read off the samples.
    """
    return next(integrate_original_orbits([s0], p, cfg))


def _lanes(starts) -> tuple[list[State], list[tuple[int, bool]]]:
    """(each lane's start, each start's (lane, mirrored)) of float starts: a
    start equal (==) to an earlier one or to its negative shares its lane."""
    first, seen = [], {}  # seen[s]: (lane, mirrored) of s and -s
    for s0 in starts:
        if s0 not in seen:
            seen[State(-s0.x, -s0.y)] = len(first), True
            seen[s0] = len(first), False  # after its mirror: the origin is its own
            first.append(s0)
    return first, [seen[s0] for s0 in starts]


def integrate_original_orbits(
    states, p: Params, cfg: IntegratorConfig = DEFAULT_CONFIG
) -> Iterator[Trajectory]:
    """Yield integrate_original(s0, p, cfg) for every s0 of states, in order.

    The paths come from one ``_kernels.adaptive_lanes`` call that steps
    the orbits in lockstep, one lane per class of ``_lanes``.  The field
    is odd and autonomous, so the kernel's path from -s is its path from
    s negated, bit for bit after the start row: a duplicate or a mirror
    takes its lane's times and states (as ``0.0 - z`` for a mirror; -z
    would turn the +0.0 of a zero coordinate into -0.0), with its start
    row as given.  Orbit k's failure is raised when orbit k is due, after
    orbits 0..k-1 have been yielded.
    """
    starts = [State(float(s0[0]), float(s0[1])) for s0 in states]
    first, lanes = _lanes(starts)
    paths, status, _, _ = _kernels.adaptive_lanes(
        [s0.x for s0 in first], [s0.y for s0 in first], p.mu, cfg.t_max,
        cfg.rel_tol, cfg.abs_tol, cfg.step, cfg.max_steps,
    )
    for s0, (k, mirrored) in zip(starts, lanes):
        t, zk = paths[k]
        if status[k] != _kernels.STATUS_OK:
            _require_finite(s0)  # a non-finite start always fails its lane
            _check_status(status[k], t, cfg)
        if s0 is not first[k]:  # a mirror or a duplicate
            zk = 0.0 - zk if mirrored else zk.copy()
            zk[0] = s0
        yield Trajectory(t, zk, p, cfg)


def _require_closed_orbit(s0: State, p: Params) -> float:
    """The energy at s0 if a closed orbit, which periods and actions need,
    starts there: ValueError for mu != 0, StepFailure where that energy
    overflows, OnSeparatrix within SEPARATRIX_TOL of the separatrix level,
    NoReturn at a center (+-1, 0), a fixed point, and CenterSingular within
    covering.CENTER_EXCLUSION of one, where the orbit is too small to measure."""
    if p.mu != 0.0:
        raise ValueError("closed orbits need the conservative flow (mu = 0)")
    try:
        level = hamiltonian(s0, p)
    except OverflowError:  # Python floats raise where numpy would give inf
        raise StepFailure(
            f"the energy at the start ({s0.x!r}, {s0.y!r}) overflows"
        ) from None
    if abs(level) < SEPARATRIX_TOL:
        raise OnSeparatrix(
            f"|H| = {abs(level):.2e} < {SEPARATRIX_TOL:g}: state is on the "
            "separatrix (or the saddle), which has no closed orbit"
        )
    if s0.y == 0.0 and s0.x - s0.x**3 == 0.0:
        raise NoReturn("initial state is a fixed point; no section return")
    _check_away_from_centers(s0.x, s0.y)
    return level


def find_period(
    s0: State, p: Params, cfg: IntegratorConfig = DEFAULT_CONFIG
) -> float:
    """Period of the closed orbit through s0 (conservative case only).

    Measures the first return to the section {y = 0} crossed in the same
    direction: started on the section that is one full revolution; started
    off it, the time between the first two same-direction crossings.  The
    returns alternate in direction, so these are returns 0 and 2, a start
    on the section counting as return 0.  Section times are refined to
    |y| <= 1e-10 on ``_one_period``'s path, which the kernel stops at the
    first sample past return 2, not at t_max.  ``action_original`` and
    ``action_covered`` on the same start, params and config right after
    read the same path, with no second integration.

    Raises what ``_require_closed_orbit`` raises, NoReturn if t_max
    expires first, MaxStepsExceeded if max_steps runs out before that
    stop, and StepFailure where the path does not resolve the orbit (a
    step too coarse for its returns).

    Near a center the period is low: abs_tol and the section tolerance
    are absolute while the orbit shrinks.  At the default config a start
    (+-1 + eps, 0) is off the closed form by -8.6e-9 at eps = 1e-3, but
    by more than 1e-7 from eps ~ 1.5e-4 inwards: -2.2e-6 at 1e-5, -2.6e-4
    at 1e-7 and -6.5e-3 at 1e-9 (ROADMAP item 2).
    """
    return _one_period(s0, p, cfg)[0]


def _one_period(s0: State, p: Params, cfg: IntegratorConfig):
    """(period, x, y, x1, y1, turns): find_period's period, the orbit's
    points over [0, period] (the path's samples before it, then the dense
    output at it), their covered images, which ``covering._unwrap``
    squared, and the turns of the covered angle in the period: 1 in a
    well (H < 0), 2 outside the separatrix.

    A start on the section is return 0, at t = 0.  The kernel stops at
    the first sample past return 2, the 3 - [start on the section]-th
    sign flip of y; the path is a prefix of the full-horizon one, so the
    period is, bit for bit, the one the full horizon would give.  The
    flips are counted, and only returns 0 and 2 among them refined.

    The path must resolve the orbit: over [0, period] the unwrapped
    covered angle (``covering._unwrap``) falls by 2pi per turn, or
    StepFailure names the step.  The last result is kept, its arrays
    read-only, and returned again for the same start (bit for bit) and
    equal (==) params and config; a failure is never kept.  So the
    queries on one orbit in a row share one integration.
    """
    return _closed_orbit(float(s0[0]).hex(), float(s0[1]).hex(), p, cfg)


@lru_cache(maxsize=1)
def _closed_orbit(x0: str, y0: str, p: Params, cfg: IntegratorConfig):
    s0 = State(float.fromhex(x0), float.fromhex(y0))
    turns = 1 if _require_closed_orbit(s0, p) < 0.0 else 2
    on = int(s0.y == 0.0)  # a start on the section is return 0
    t, x, y, status, _, _ = _kernels.adaptive_path(
        s0.x, s0.y, p.mu, 0.0, cfg.t_max, cfg.rel_tol, cfg.abs_tol, cfg.step,
        cfg.max_steps, 3 - on,
    )
    _check_status(status, t, cfg)
    flips = _sign_flips(y)
    if on + flips.size < 3:
        what = "same-direction section return" if on + flips.size else "section crossing"
        raise NoReturn(f"no {what} before t_max={cfg.t_max:g}")
    dense = partial(hermite_step, t, x, y, p.mu)
    # returns 0 and 2 are every other flip, from flip 0 if the start is off
    # the section and from flip 1 if it is return 0
    r0, r2 = [0.0] * on + _section_crossings(t, y, flips[on::2].tolist(), dense)
    period = r2 - r0
    k = int(np.searchsorted(t, period))  # the first sample at or after it
    x_end, y_end = dense(k - 1)(period)
    x, y = np.concatenate((x[:k], (x_end,))), np.concatenate((y[:k], (y_end,)))
    x1, y1, theta = _unwrap(x, y)
    turned = (theta[0] - theta[-1]) / TWO_PI
    if not abs(turned - turns) < 0.25:
        raise StepFailure(
            f"the rk45 path with step={cfg.step!r} does not resolve "
            f"the orbit: its covered angle turns {turned:.3g} times in the "
            f"period {period:.6g}, not {turns}"
        )
    for a in (x, y, x1, y1):
        a.setflags(write=False)
    return period, x, y, x1, y1, turns
