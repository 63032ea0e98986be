"""Time integration of the original plane, with events and sheet bookkeeping.

Two steppers are provided: a fixed-step classic RK4 baseline and an
embedded Dormand-Prince 5(4) adaptive pair (the default).  Both record the
accepted nodes only.  Their cubic Hermite dense output (``hermite_steps``)
takes the slopes at the two ends of a step from the field itself, which
equals the kernels' last stage there -- accurate enough to locate event
times far below the step size.

A trajectory's covered columns are the images of its original-plane
samples under the covering map: the covering is a chart, not a second
integration.  Its events are its ``cut_crossing``s: the covered path
crossed {y1 = 0, x1 < 0}.  The sheet tag toggles there.  Crossing times
are refined on the dense output until |y1| <= 1e-12.  ``find_period``
locates the returns to the section {y = 0} on its own path, refined until
|y| <= 1e-10.  Returns of a sign walk alternate in direction, so return 2
is the first one in the direction of return 0: one period after it.

Both kinds come from one locator.  A numpy sign walk over the samples of
any number of orbits (exact zeros skipped) brackets every sign change at
once; ``hermite_steps`` evaluates the Hermite cubic of each bracket's own
step, and ``locate_roots`` refines all brackets together by the Illinois
variant of regula falsi (Hairer, Norsett & Wanner, Solving ODEs I, II.6;
Shampine & Thompson, "Event location for ODEs", 2000).

Period and action queries need one orbit, not all of t_max: they share
``find_period``'s path, which runs the adaptive kernel in chunks that
resume exactly where the last one paused, and stops after the first chunk
whose whole path so far holds the three returns of one period.  The
path is a prefix of the full-horizon one, so the period is bit-identical
to it.  The path must resolve the orbit: the covered angle must turn
once per period in a well and twice outside, or StepFailure names the
step.  The last orbit measured is kept, so ``find_period`` and both
actions on one start share one integration.

``integrate_original_orbits`` integrates many starts at once, and
``integrate_original`` is that with one start: one
``_kernels.adaptive_lanes`` call steps their rk45 paths in lockstep, bit
for bit the paths ``_kernels.adaptive_path`` takes one at a time.  One
assembly squares the whole batch and locates the cut crossings of every
orbit with one sign walk and one ``locate_roots`` call; each trajectory
holds views of the batch arrays.  An rk4 orbit is a batch of one.

The sheet column of a trajectory is *evolved*: it starts from the initial
tag and toggles at each cut crossing, rather than being recomputed per
sample.  Events are emitted in increasing time.

Each integration is an independent single-threaded computation over
immutable inputs; returned trajectories are frozen (array buffers are
marked read-only) and safe to share between threads.  So is the kept
closed orbit: its arrays are read-only, and it is replaced by one
assignment of a (key, orbit) pair, so a thread reads one whole entry or
another, never a mix.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from functools import partial
from numbers import Integral, Real

import numpy as np

from . import _kernels
from .covering import BRANCH_TOL as BRANCH_CUT_TOL
from .covering import (
    TWO_PI,
    _check_away_from_centers,
    _unwrap,
    sheet_sign,
    square,
)
from .dynamics import Params, State, _require_finite, hamiltonian
from .exceptions import (
    DegenerateCrossing,
    MaxStepsExceeded,
    NoReturn,
    OnSeparatrix,
    StepFailure,
)

CUT_CROSSING = "cut_crossing"

CUT_REFINE_TOL = 1e-12
SECTION_REFINE_TOL = 1e-10
SEPARATRIX_TOL = 1e-9
MAX_REFINE_ITER = 200


@dataclass(frozen=True)
class IntegratorConfig:
    """Stepper selection and tolerances.

    ``step`` is the fixed step for ``rk4`` and the initial step for
    ``rk45``.  ``max_steps`` bounds attempted steps (accepted + rejected)
    and therefore every loop in this module.  ``step`` and ``t_max`` are
    at least the adaptive kernel's smallest step, ``_kernels.MIN_STEP``.
    """

    method: str = "rk45"
    step: float = 0.01
    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    t_max: float = 100.0
    max_steps: int = 10_000_000

    def __post_init__(self):
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"method must be 'rk4' or 'rk45', got {self.method!r}")
        for name in ("step", "rel_tol", "abs_tol", "t_max"):
            v = getattr(self, name)
            # a comparison, not float(v): an integer may exceed the float range
            if isinstance(v, bool) or not isinstance(v, Real) or not (
                0.0 < v <= sys.float_info.max
            ):
                raise ValueError(f"{name} must be a finite number > 0, got {v!r}")
        for name in ("step", "t_max"):
            if getattr(self, name) < _kernels.MIN_STEP:
                raise ValueError(
                    f"{name} must be at least the smallest step "
                    f"{_kernels.MIN_STEP:g}, got {getattr(self, name)!r}"
                )
        v = self.max_steps
        if isinstance(v, bool) or not isinstance(v, Integral) or v < 1:
            raise ValueError(f"max_steps must be an integer >= 1, got {v!r}")


DEFAULT_CONFIG = IntegratorConfig()


@dataclass(frozen=True)
class Event:
    """Something that happened at time ``t`` along a trajectory."""

    t: float
    kind: str
    data: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered samples of one orbit in both charts.

    ``states`` are original-plane points, ``covered`` their covered-plane
    images, ``sheets`` the evolved tag per sample (+1 Upper, -1 Lower).
    Its dense output is ``hermite_steps(t, states, params.mu, ks)``.
    """

    t: np.ndarray
    states: np.ndarray
    covered: np.ndarray
    sheets: np.ndarray
    events: tuple[Event, ...]
    params: Params
    config: IntegratorConfig

    def __post_init__(self):
        for arr in (self.t, self.states, self.covered, self.sheets):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self.t.shape[0]

    def energies(self) -> np.ndarray:
        """H evaluated at every sample."""
        return hamiltonian(State(self.states[:, 0], self.states[:, 1]), self.params)


# samples per kernel call when a caller stops at an event (see _run_kernel)
_CHUNK_SAMPLES = 128


def _run_kernel(u0, v0, p: Params, cfg: IntegratorConfig, done):
    """(t, u, v) of the path from (u0, v0) over [0, t_max].

    The rk45 path is integrated in chunks of _CHUNK_SAMPLES samples and
    stops after the first chunk for which done(t, u, v), called with the
    whole path so far, is true.  The kernel resumes exactly where
    it paused, so the result is a prefix of the full-horizon path, bit for
    bit.  rk4 always covers the whole horizon.
    """
    if cfg.method == "rk4":
        *path, status = _kernels.rk4_path(
            u0, v0, p.mu, cfg.t_max, cfg.step, int(cfg.max_steps)
        )
    else:
        budget = int(cfg.max_steps)
        t0, h, path = 0.0, cfg.step, None
        while True:
            *chunk, status, h, used = _kernels.adaptive_path(
                u0, v0, p.mu, t0, cfg.t_max, cfg.rel_tol, cfg.abs_tol, h, budget,
                _CHUNK_SAMPLES,
            )
            budget -= used
            # a resumed chunk starts with the sample that ended the last one
            path = chunk if path is None else [
                np.concatenate((a, b[1:])) for a, b in zip(path, chunk)
            ]
            # Python floats: numpy scalars would slow the kernel
            t0, u0, v0 = (float(a[-1]) for a in chunk[:3])
            if status != _kernels.STATUS_OK or t0 >= cfg.t_max or done(*path):
                break
    _check_status(status, path[0], cfg)
    return path


def _check_status(status, t, cfg: IntegratorConfig) -> None:
    """Raise the failure a kernel status names; t holds the path's times."""
    if status == _kernels.STATUS_STEP_UNDERFLOW:
        raise StepFailure(
            f"adaptive step fell below {_kernels.MIN_STEP:g} at t={t[-1]:.6g}"
        )
    if status == _kernels.STATUS_NONFINITE:
        raise StepFailure(f"the state became non-finite after t={t[-1]:.6g}")
    if status == _kernels.STATUS_MAX_STEPS:
        reached = t[-1] if len(t) else 0.0
        raise MaxStepsExceeded(
            f"{cfg.max_steps} steps exhausted at t={reached:.6g} (t_max={cfg.t_max:g})"
        )


def hermite_steps(t, pts, mu, ks, squared=False):
    """Dense output of an original-plane path on its steps ks[j] -> ks[j]+1.

    Returns at(j, tq) -> (u, v): the cubic Hermite interpolant of step
    ks[j] at times tq, for indices j and times tq of one shape.  Its end
    slopes are the field ``_kernels.rhs`` at the step's two nodes, which is
    bit for bit the kernels' FSAL stage there.  Every query names its step,
    so refinement needs no search per evaluation.  With ``squared`` the
    values are the covered image (u^2 - v^2, 2uv).
    """
    t0 = t[ks]
    dt = t[ks + 1] - t0
    p0, p1 = pts[ks], pts[ks + 1]
    f0, f1 = (np.column_stack(_kernels.rhs(*q.T, mu)) for q in (p0, p1))

    def at(j, tq):
        h = dt[j][..., None]
        s = (tq - t0[j])[..., None] / h
        s2 = s * s
        s3 = s2 * s
        w = (
            (2.0 * s3 - 3.0 * s2 + 1.0) * p0[j]
            + (s3 - 2.0 * s2 + s) * h * f0[j]
            + (-2.0 * s3 + 3.0 * s2) * p1[j]
            + (s3 - s2) * h * f1[j]
        )
        u, v = w[..., 0], w[..., 1]
        return square(u, v) if squared else (u, v)

    return at


def locate_roots(g, a, b, ga, gb, tol):
    """Roots of g on every bracket [a, b] at once.

    ga and gb are g at the ends, of opposite signs (or gb = 0, when b is
    the root).  g(j, tq) evaluates brackets j at times tq (arrays).  All
    brackets are refined together by the Illinois variant of regula falsi,
    bisecting wherever the secant point leaves its bracket.  A bracket
    stops once |g| <= tol, or once its width is down to 1e-15*(1 + |b|),
    the only stop reachable when g is too steep for tol in double
    precision.  Returns the last point evaluated in each bracket.
    """
    a, b, ga, gb = (np.array(v, dtype=np.float64) for v in (a, b, ga, gb))
    root = b.copy()
    kept = np.zeros(a.shape, dtype=np.int8)  # end kept by the last step: -1 a, 1 b
    live = np.flatnonzero(np.abs(gb) > tol)
    for _ in range(MAX_REFINE_ITER):
        if live.size == 0:
            break
        al, bl, fa, fb = a[live], b[live], ga[live], gb[live]
        c = bl - fb * (bl - al) / (fb - fa)
        off = ~((c >= al) & (c <= bl))
        c[off] = 0.5 * (al[off] + bl[off])
        fc = g(live, c)
        root[live] = c
        # sign tests, not products: opposite tiny values must not underflow
        left = np.sign(fc) == np.sign(fb)
        to_b, to_a = live[left], live[~left]
        b[to_b], gb[to_b] = c[left], fc[left]
        a[to_a], ga[to_a] = c[~left], fc[~left]
        # Illinois: an end kept twice in a row has its value halved
        ga[to_b[kept[to_b] == -1]] *= 0.5
        gb[to_a[kept[to_a] == 1]] *= 0.5
        kept[to_b], kept[to_a] = -1, 1
        width = b[live] - a[live]
        live = live[(np.abs(fc) > tol) & (width > 1e-15 * (1.0 + np.abs(b[live])))]
    return root


def _sign_flips(g, bounds=None, trailing=False):
    """The sign walk of g over lanes g[bounds[k]:bounds[k + 1]] (default:
    one lane): indices k, increasing, of the nonzero entries that the next
    nonzero entry of the same lane (past any exact zeros) opposes.  With
    ``trailing``, also each lane's last nonzero entry where zeros follow."""
    nz = np.flatnonzero(g)
    pos = (g > 0.0)[nz]
    keep = np.zeros(nz.size, dtype=bool)
    keep[:-1] = pos[1:] != pos[:-1]  # entry i opposes entry i + 1
    if nz.size and (bounds is not None or trailing):
        bounds = np.asarray([0, g.size] if bounds is None else bounds)
        last = np.searchsorted(nz, bounds[1:]) - 1  # each lane's last entry
        keep[last] = False  # the entry after it lies in a later lane
        if trailing:
            ends = nz[last]
            keep[last[(ends >= bounds[:-1]) & (ends + 1 < bounds[1:])]] = True
    return nz[keep]


def _refine_sign_changes(t, g, dense, tol, bounds=None, trailing=False):
    """Sign changes of the sampled g = component 1 of ``dense``, refined.

    Walks the sign of g per lane skipping exact zeros (_sign_flips); each
    strict flip between nonzero samples k and n brackets a root on the step
    k -> k + 1, where g[k + 1] = 0 if zeros lie between, making that sample
    the root.  With ``trailing``, so is a zero after a lane's last nonzero.
    Returns the k, the refined times and component 0 of ``dense`` there.
    """
    ks = _sign_flips(g, bounds, trailing)
    at = dense(ks)
    t_star = locate_roots(
        lambda j, tq: at(j, tq)[1], t[ks], t[ks + 1], g[ks], g[ks + 1], tol
    )
    return ks, t_star, at(np.arange(ks.size), t_star)[0]


def _cut_crossings(t: np.ndarray, y1: np.ndarray, dense, bounds):
    """Locate cut crossings along sampled covered coordinates.

    Lane k is samples bounds[k]:bounds[k + 1]; ``dense(ks)`` is the
    covered-plane dense output on steps ks (see hermite_steps).  Each sign
    flip of y1 is refined until |y1| <= 1e-12 and kept when it lies on
    the cut (x1 < 0).  Exact zeros are skipped: a sample *on* the cut,
    e.g. a trajectory launched from the y-axis, carries the conventional
    tag already and must not toggle.  A lane's trailing sample landing
    exactly on the cut toggles there: the transversal flow assigns on-cut
    points to the destination sheet.  Returns all lanes' events, for each
    the sample index from which the toggled sheet applies, and by lane the
    DegenerateCrossing of each lane that met the cut at the branch point.
    """
    ks, t_star, x1_star = _refine_sign_changes(
        t, y1, dense, CUT_REFINE_TOL, bounds, trailing=True
    )
    # reversed, so that each lane keeps its first degenerate crossing
    near = np.flatnonzero(np.abs(x1_star) <= BRANCH_CUT_TOL)[::-1]
    degenerate = {lane: DegenerateCrossing(
        f"trajectory met the cut at x1={x1_star[i]:.3e}, t={t_star[i]:.6g}, "
        "within tolerance of the branch point"
    ) for i, lane in zip(near, np.searchsorted(bounds, ks[near], "right") - 1)}
    on_cut = x1_star < 0.0
    events = [
        Event(ts, CUT_CROSSING, {"x1": xs})
        for ts, xs in zip(t_star[on_cut].tolist(), x1_star[on_cut].tolist())
    ]
    return events, (ks + 1)[on_cut], degenerate


def _evolve_sheets(n: int, start_sign: int, toggle_from: list[int]) -> np.ndarray:
    sheets = np.full(n, start_sign, dtype=np.int8)
    for on, off in zip(toggle_from[::2], toggle_from[1::2] + [n]):
        sheets[on:off] = -start_sign  # every other toggle leaves the start sheet
    return sheets


def _section_crossings(t: np.ndarray, y: np.ndarray, dense) -> np.ndarray:
    """Times of the transversal returns to the section {y = 0}: the same
    sign walk on y, refined on ``dense`` (original plane) until
    |y| <= 1e-10."""
    return _refine_sign_changes(t, y, dense, SECTION_REFINE_TOL)[1]


def integrate_original(
    s0: State, p: Params, cfg: IntegratorConfig = DEFAULT_CONFIG
) -> Trajectory:
    """Advance the original-plane field from s0 over [0, t_max].

    The covered columns are the images of the samples; the sheet starts
    from the conventional tag of s0 and toggles at each cut crossing.
    """
    return next(integrate_original_orbits([s0], p, cfg))


def integrate_original_orbits(
    states, p: Params, cfg: IntegratorConfig = DEFAULT_CONFIG
) -> Iterator[Trajectory]:
    """Yield integrate_original(s0, p, cfg) for every s0 of states, in order.

    The rk45 paths come from one ``_kernels.adaptive_lanes`` call that
    steps the orbits in lockstep, and are assembled as one batch; each rk4
    orbit is a batch of one.  Either way orbit k's failure is raised when
    orbit k is due, after orbits 0..k-1 have been yielded.
    """
    starts = [State(float(s0[0]), float(s0[1])) for s0 in states]
    if cfg.method == "rk45":
        t, z, bounds, status, _, _ = _kernels.adaptive_lanes(
            [s0.x for s0 in starts], [s0.y for s0 in starts], p.mu, cfg.t_max,
            cfg.rel_tol, cfg.abs_tol, cfg.step, int(cfg.max_steps),
        )
        yield from _assemble(starts, t, z, bounds, status, p, cfg)
        return
    for s0 in starts:
        _require_finite(s0)
        t, x, y = _run_kernel(s0.x, s0.y, p, cfg, None)
        z = np.column_stack((x, y))
        yield from _assemble([s0], t, z, [0, t.size], [_kernels.STATUS_OK], p, cfg)


def _assemble(starts, t, z, bounds, status, p, cfg) -> Iterator[Trajectory]:
    """Yield each lane's trajectory in order, lane k being rows
    bounds[k]:bounds[k + 1] of the path (t, z) from starts[k], which
    stopped with status[k].  The lanes before the first failed one, n, are
    squared and searched for cut crossings at once; each trajectory holds
    views of the batch arrays.  Then lane n's failure is raised: a
    non-finite start always fails its lane, so only lane n's start needs
    the finiteness check."""
    n = next((k for k, s in enumerate(status) if s != _kernels.STATUS_OK), len(starts))
    covered = np.column_stack(square(z[: bounds[n], 0], z[: bounds[n], 1]))
    events, toggle_from, degenerate = _cut_crossings(
        t, covered[:, 1], partial(hermite_steps, t, z, p.mu, squared=True),
        bounds[: n + 1],
    )
    firsts = np.searchsorted(toggle_from, bounds[: n + 1]).tolist()
    for k, s0 in enumerate(starts[:n]):
        if k in degenerate:
            raise degenerate[k]
        rows = slice(bounds[k], bounds[k + 1])
        on, off = firsts[k], firsts[k + 1]
        toggles = (toggle_from[on:off] - rows.start).tolist()
        sheets = _evolve_sheets(len(t[rows]), int(sheet_sign(s0.x, s0.y)), toggles)
        yield Trajectory(t[rows], z[rows], covered[rows], sheets,
                         tuple(events[on:off]), p, cfg)
    if n < len(starts):
        _require_finite(starts[n])
        _check_status(status[n], t[bounds[n] : bounds[n + 1]], cfg)


def _require_closed_orbit(s0: State, p: Params) -> None:
    """Periods and actions need a closed orbit: ValueError for mu != 0,
    StepFailure where the start's energy overflows, OnSeparatrix within
    SEPARATRIX_TOL of the separatrix level, NoReturn at a center (+-1, 0),
    a fixed point, and CenterSingular within covering.CENTER_EXCLUSION of
    one, where the orbit is too small to measure."""
    if p.mu != 0.0:
        raise ValueError("closed orbits need the conservative flow (mu = 0)")
    try:
        level = hamiltonian(s0, p) - p.c
    except OverflowError:  # Python floats raise where numpy would give inf
        raise StepFailure(
            f"the energy at the start ({s0.x!r}, {s0.y!r}) overflows"
        ) from None
    if abs(level) < SEPARATRIX_TOL:
        raise OnSeparatrix(
            f"|H - c| = {abs(level):.2e} < {SEPARATRIX_TOL:g}: state is on the "
            "separatrix (or the saddle), which has no closed orbit"
        )
    if s0.y == 0.0 and s0.x - s0.x**3 == 0.0:
        raise NoReturn("initial state is a fixed point; no section return")
    _check_away_from_centers(s0.x, s0.y)


def _turns(s0: State, p: Params) -> int:
    """Turns of the covered angle in one period of the closed orbit
    through s0, a float start ``_require_closed_orbit`` accepts: 1 in a
    well (H < c), 2 outside the separatrix."""
    return 1 if hamiltonian(s0, p) < p.c else 2


def find_period(
    s0: State, p: Params, cfg: IntegratorConfig = DEFAULT_CONFIG
) -> float:
    """Period of the closed orbit through s0 (conservative case only).

    Measures the first return to the section {y = 0} crossed in the same
    direction: started on the section that is one full revolution; started
    off it, the time between the first two same-direction crossings.  The
    returns alternate in direction, so these are returns 0 and 2, a start
    on the section counting as return 0.  Section times are refined to
    |y| <= 1e-10 on ``_one_period``'s path, which ends about one period
    in, not at t_max.  ``action_original`` and ``action_covered`` on the
    same start, params and config right after read the same path, with no
    second integration.

    Raises what ``_require_closed_orbit`` raises, NoReturn if t_max
    expires first, and StepFailure where the path does not resolve the
    orbit (a step too coarse for its returns).
    """
    return _one_period(s0, p, cfg)[0]


def _exact(obj) -> tuple:
    """obj's type and its fields' types and values, floats by their bits:
    a key that tells 0.0 from -0.0, and 1 from 1.0, as a query can."""
    return (type(obj), *(
        (type(v), v.hex() if isinstance(v, float) else repr(v))
        for v in (getattr(obj, f.name) for f in fields(obj))
    ))


# (key, (period, x, y)) of the last orbit _one_period measured, replaced
# by one assignment, so that a reader sees one whole entry or the other
_last_orbit = None


def _one_period(s0: State, p: Params, cfg: IntegratorConfig):
    """(period, x, y): find_period's period, and the orbit's points over
    [0, period]: the path's samples before it, then the dense output at it.

    A start on the section is return 0, at t = 0.  The integration stops
    after the first kernel chunk (_CHUNK_SAMPLES samples) whose whole path
    so far holds return 2, i.e. 3 - [start on the section] sign flips of
    y; the path is a prefix of the full-horizon one, so the period is, bit
    for bit, the one the full horizon would give.

    The path must resolve the orbit: over [0, period] the unwrapped
    covered angle (``covering._unwrap``) falls by 2pi per turn
    (``_turns``), or StepFailure names the step.  The last result is
    kept, its arrays read-only, and returned again for the same start
    (bit for bit), params and config; a failure is never kept.  So the
    queries on one orbit in a row share one integration.
    """
    global _last_orbit
    s0 = State(float(s0[0]), float(s0[1]))
    key = (s0.x.hex(), s0.y.hex(), _exact(p), _exact(cfg))
    last = _last_orbit
    if last is not None and last[0] == key:
        return last[1]
    _require_closed_orbit(s0, p)
    start = [0.0] if s0.y == 0.0 else []
    t, x, y = _run_kernel(
        s0.x, s0.y, p, cfg,
        lambda t, x, y: len(start) + _sign_flips(y).size >= 3,
    )
    dense = partial(hermite_steps, t, np.column_stack((x, y)), p.mu)
    returns = start + _section_crossings(t, y, dense).tolist()
    if len(returns) < 3:
        what = "same-direction section return" if returns else "section crossing"
        raise NoReturn(f"no {what} before t_max={cfg.t_max:g}")
    period = returns[2] - returns[0]
    k = int(np.searchsorted(t, period))  # the first sample at or after it
    x_end, y_end = dense(np.array([k - 1]))(0, period)
    x, y = np.append(x[:k], x_end), np.append(y[:k], y_end)
    theta = _unwrap(x, y)[2]
    turns, want = (theta[0] - theta[-1]) / TWO_PI, _turns(s0, p)
    if not abs(turns - want) < 0.25:
        raise StepFailure(
            f"the {cfg.method} path with step={cfg.step!r} does not resolve "
            f"the orbit: its covered angle turns {turns:.3g} times in the "
            f"period {period:.6g}, not {want}"
        )
    x.setflags(write=False)
    y.setflags(write=False)
    orbit = period, x, y
    _last_orbit = key, orbit
    return orbit
