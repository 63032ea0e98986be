"""Time integration of both planes, with events and sheet bookkeeping.

Two steppers are provided: a fixed-step classic RK4 baseline and an
embedded Dormand-Prince 5(4) adaptive pair (the default).  Both record the
field value at every accepted node, so trajectories support cubic Hermite
dense output -- accurate enough to locate event times far below the step
size.

A trajectory's events are its ``cut_crossing``s: the covered-plane path
crossed {y1 = 0, x1 < 0}.  The sheet tag toggles there.  Crossing times
are refined on the dense output until |y1| <= 1e-12.  ``find_period``
locates the returns to the section {y = 0} on its own path, refined until
|y| <= 1e-10.

Both kinds come from one locator.  A numpy sign walk over the samples
(exact zeros skipped) brackets every sign change of one trajectory at
once; ``hermite_steps`` evaluates the Hermite cubic of each bracket's own
step, and ``locate_roots`` refines all brackets together by the Illinois
variant of regula falsi (Hairer, Norsett & Wanner, Solving ODEs I, II.6;
Shampine & Thompson, "Event location for ODEs", 2000).

Period and action queries need one orbit, not all of t_max: they share
``find_period``'s path, which runs the adaptive kernel in chunks that
resume exactly where the last one paused, and stops after the first chunk
on which the period rule finds the period on the whole path so far.  The
path is a prefix of the full-horizon one, so the period is bit-identical
to it.

The sheet column of a trajectory is *evolved*: it starts from the initial
tag and toggles at each cut crossing, rather than being recomputed per
sample.  Events are emitted in increasing time.

Each integration is an independent single-threaded computation over
immutable inputs; returned trajectories are frozen (array buffers are
marked read-only) and safe to share between threads.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import partial
from numbers import Integral, Real

import numpy as np

from . import _kernels
from .covering import BRANCH_TOL as BRANCH_CUT_TOL
from .covering import CoveredState, Sheet, principal_root, sheet_sign, square
from .dynamics import Params, State, _require_finite, hamiltonian
from .exceptions import (
    BranchPointApproach,
    CenterSingular,
    DegenerateCrossing,
    MaxStepsExceeded,
    NoReturn,
    OnSeparatrix,
    StepFailure,
)

CUT_CROSSING = "cut_crossing"

CUT_REFINE_TOL = 1e-12
SECTION_REFINE_TOL = 1e-10
BRANCH_RADIUS = 1e-10
SEPARATRIX_TOL = 1e-9
CENTER_EXCLUSION = 1e-9
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
    ``derivs`` holds the field value at each node *in the integrated
    plane* (``plane`` says which), feeding the Hermite dense output.
    """

    t: np.ndarray
    states: np.ndarray
    covered: np.ndarray
    sheets: np.ndarray
    derivs: np.ndarray
    events: tuple[Event, ...]
    params: Params
    config: IntegratorConfig
    plane: str

    def __post_init__(self):
        for arr in (self.t, self.states, self.covered, self.sheets, self.derivs):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self.t.shape[0]

    def energies(self) -> np.ndarray:
        """H evaluated at every sample."""
        return hamiltonian(State(self.states[:, 0], self.states[:, 1]), self.params)

    def dense_point(self, tq: float) -> tuple[float, float]:
        """Cubic Hermite interpolant in the integrated plane at time tq."""
        if self.plane == "original":
            pts = self.states
        else:
            pts = self.covered
        t = self.t
        if tq <= t[0]:
            return float(pts[0, 0]), float(pts[0, 1])
        if tq >= t[-1]:
            return float(pts[-1, 0]), float(pts[-1, 1])
        i = int(np.searchsorted(t, tq, side="right")) - 1
        u, v = hermite_steps(t, pts, self.derivs, np.array([i]))(0, tq)
        return float(u), float(v)


# samples per kernel call when a caller stops at an event (see _run_kernel)
_CHUNK_SAMPLES = 128


def _run_kernel(field_id, u0, v0, p: Params, cfg: IntegratorConfig, done=None):
    """(t, u, v, du, dv) of the path from (u0, v0) over [0, t_max].

    With ``done`` the rk45 path is integrated in chunks of _CHUNK_SAMPLES
    samples and stops after the first chunk for which done(t, u, v, du, dv),
    called with the whole path so far, is true.  The kernel resumes exactly
    where it paused, so the result is a prefix of the full-horizon path,
    bit for bit.  rk4 always covers the whole horizon.
    """
    if cfg.method == "rk4":
        *path, status = _kernels.rk4_path(
            field_id, u0, v0, p.mu, cfg.t_max, cfg.step, int(cfg.max_steps)
        )
    else:
        budget = int(cfg.max_steps)
        # a path never holds more samples than attempted steps + 1
        cap = _CHUNK_SAMPLES if done is not None else budget + 1
        t0, h, path = 0.0, cfg.step, None
        while True:
            *chunk, status, h, used = _kernels.adaptive_path(
                field_id, u0, v0, p.mu, t0, cfg.t_max, cfg.rel_tol, cfg.abs_tol,
                h, budget, cap,
            )
            budget -= used
            # a resumed chunk starts with the sample that ended the last one
            path = chunk if path is None else [
                np.concatenate((a, b[1:])) for a, b in zip(path, chunk)
            ]
            # Python floats: numpy scalars would slow the uncompiled kernel
            t0, u0, v0 = (float(a[-1]) for a in chunk[:3])
            if status != _kernels.STATUS_OK or t0 >= cfg.t_max or (
                done is not None and done(*path)
            ):
                break
    t = path[0]
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
    return path


def hermite_steps(t, pts, derivs, ks, squared=False):
    """Dense output of a path on its steps ks[j] -> ks[j] + 1.

    Returns at(j, tq) -> (u, v): the cubic Hermite interpolant of step
    ks[j] at times tq, for indices j and times tq of one shape.  Every
    query names its step, so refinement needs no search per evaluation.
    With ``squared`` the values are the covered image (u^2 - v^2, 2uv) of
    an original-plane path.
    """
    t0 = t[ks]
    dt = t[ks + 1] - t0
    p0, p1 = pts[ks], pts[ks + 1]
    f0, f1 = derivs[ks], derivs[ks + 1]

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


def _sign_flips(sg):
    """The sign walk: indices k of the nonzero entries of the signs sg
    that the next nonzero entry (past any exact zeros) opposes, and the
    indices of all nonzero entries."""
    nz = np.flatnonzero(sg)
    return nz[:-1][sg[nz[1:]] != sg[nz[:-1]]], nz


def _refine_sign_changes(t, g, dense, tol, trailing=False):
    """Sign changes of the sampled g = component 1 of ``dense``, refined.

    Walks the sign of g skipping exact zeros; each strict flip between
    nonzero samples k and n brackets a root on the step k -> k + 1, where
    g[k + 1] = 0 if zeros lie between, making that sample the root.  With
    ``trailing``, a zero sample after the last nonzero one is a root too.
    Returns the k, the refined times and component 0 of ``dense`` there.
    """
    ks, nz = _sign_flips(np.sign(g))
    if trailing and nz.size and nz[-1] + 1 < g.size:
        ks = np.append(ks, nz[-1])
    at = dense(ks)
    t_star = locate_roots(
        lambda j, tq: at(j, tq)[1], t[ks], t[ks + 1], g[ks], g[ks + 1], tol
    )
    return ks, t_star, at(np.arange(ks.size), t_star)[0]


def _cut_crossings(
    t: np.ndarray, y1: np.ndarray, dense
) -> tuple[list[Event], list[int]]:
    """Locate cut crossings along sampled covered coordinates.

    ``dense(ks)`` is the covered-plane dense output on steps ks (see
    hermite_steps).  Each sign flip of y1 is refined until |y1| <= 1e-12
    and kept when it lies on the cut (x1 < 0).  Exact zeros are skipped:
    a sample *on* the cut, e.g. a trajectory launched from the y-axis,
    carries the conventional tag already and must not toggle.  A trailing
    sample landing exactly on the cut toggles there: the transversal flow
    assigns on-cut points to the destination sheet.  Returns the events
    plus, for each, the sample index from which the toggled sheet applies.
    """
    ks, t_star, x1_star = _refine_sign_changes(
        t, y1, dense, CUT_REFINE_TOL, trailing=True
    )
    near = np.flatnonzero(np.abs(x1_star) <= BRANCH_CUT_TOL)
    if near.size:
        i = near[0]
        raise DegenerateCrossing(
            f"trajectory met the cut at x1={x1_star[i]:.3e}, t={t_star[i]:.6g}, "
            "within tolerance of the branch point"
        )
    on_cut = x1_star < 0.0
    events = [
        Event(ts, CUT_CROSSING, {"x1": xs})
        for ts, xs in zip(t_star[on_cut].tolist(), x1_star[on_cut].tolist())
    ]
    return events, (ks + 1)[on_cut].tolist()


def _evolve_sheets(n: int, start_sign: int, toggle_from: list[int]) -> np.ndarray:
    sheets = np.full(n, start_sign, dtype=np.int8)
    for on, off in zip(toggle_from[::2], toggle_from[1::2] + [n]):
        sheets[on:off] = -start_sign  # every other toggle leaves the start sheet
    return sheets


def _directions(y) -> list[int]:
    """Directions of the returns to the section {y = 0} that the sign walk
    of the sampled y finds: the sign of y after each return."""
    sg = np.sign(y)
    return (-sg[_sign_flips(sg)[0]]).astype(int).tolist()


def _section_crossings(t: np.ndarray, y: np.ndarray, dense) -> list[Event]:
    """Locate transversal returns to the section {y = 0} by the same sign
    walk on y, refined on ``dense`` (original plane) until |y| <= 1e-10;
    ``direction`` is the sign of y after the return."""
    _, t_star, x_star = _refine_sign_changes(t, y, dense, SECTION_REFINE_TOL)
    return [
        Event(ts, "section_return", {"x": xs, "direction": d})
        for ts, xs, d in zip(t_star.tolist(), x_star.tolist(), _directions(y))
    ]


def integrate_original(
    s0: State, p: Params, cfg: IntegratorConfig = DEFAULT_CONFIG
) -> Trajectory:
    """Advance the original-plane field from s0 over [0, t_max].

    The covered columns are the images of the samples; the sheet starts
    from the conventional tag of s0 and toggles at each cut crossing.
    """
    s0 = State(float(s0[0]), float(s0[1]))
    _require_finite(s0)
    t, x, y, dx, dy = _run_kernel(_kernels.FIELD_ORIGINAL, s0.x, s0.y, p, cfg)
    states = np.column_stack((x, y))
    covered = np.column_stack(square(x, y))
    derivs = np.column_stack((dx, dy))

    events, toggle_from = _cut_crossings(
        t, covered[:, 1], partial(hermite_steps, t, states, derivs, squared=True)
    )
    sheets = _evolve_sheets(len(t), int(sheet_sign(s0.x, s0.y)), toggle_from)
    return Trajectory(t, states, covered, sheets, derivs, tuple(events), p, cfg,
                      "original")


def integrate_covered(
    c0: CoveredState, p: Params, cfg: IntegratorConfig = DEFAULT_CONFIG
) -> Trajectory:
    """Advance the covered-plane field from c0 over [0, t_max].

    Original-plane samples are reconstructed through the inverse covering
    with the *tracked* sheet, so the reconstruction stays continuous
    across cut transits.  Any sample within BRANCH_RADIUS of the branch
    point aborts with BranchPointApproach (the inverse loses accuracy
    there); integrate the original plane instead for saddle studies.
    """
    _require_finite(c0)
    t, x1, y1, dx1, dy1 = _run_kernel(
        _kernels.FIELD_COVERED, float(c0[0]), float(c0[1]), p, cfg
    )
    radius = np.hypot(x1, y1)
    if np.any(radius < BRANCH_RADIUS):
        i = int(np.argmin(radius))
        raise BranchPointApproach(
            f"covered trajectory within {BRANCH_RADIUS:g} of the branch point "
            f"at t={t[i]:.6g} (|x1,y1|={radius[i]:.3e})"
        )
    covered = np.column_stack((x1, y1))
    derivs = np.column_stack((dx1, dy1))

    events, toggle_from = _cut_crossings(
        t, y1, partial(hermite_steps, t, covered, derivs)
    )
    sheets = _evolve_sheets(len(t), 1 if c0.sheet is Sheet.UPPER else -1, toggle_from)
    x, y = principal_root(x1, y1)
    states = np.column_stack((x * sheets, y * sheets))

    return Trajectory(t, states, covered, sheets, derivs, tuple(events), p, cfg,
                      "covered")


def _check_away_from_centers(x, y) -> None:
    d2_plus = (np.asarray(x) - 1.0) ** 2 + np.asarray(y) ** 2
    d2_minus = (np.asarray(x) + 1.0) ** 2 + np.asarray(y) ** 2
    if np.any(d2_plus < CENTER_EXCLUSION**2) or np.any(d2_minus < CENTER_EXCLUSION**2):
        raise CenterSingular(
            "state within 1e-9 of (+-1, 0); the angle is undefined at the "
            "covered center"
        )


def _require_closed_orbit(s0: State, p: Params) -> None:
    """Periods and actions need a closed orbit: ValueError for mu != 0,
    OnSeparatrix within SEPARATRIX_TOL of the separatrix level, NoReturn
    at a center (+-1, 0), a fixed point, and CenterSingular within
    CENTER_EXCLUSION of one, where the orbit is too small to measure."""
    if p.mu != 0.0:
        raise ValueError("closed orbits need the conservative flow (mu = 0)")
    level = hamiltonian(s0, p) - p.c
    if abs(level) < SEPARATRIX_TOL:
        raise OnSeparatrix(
            f"|H - c| = {abs(level):.2e} < {SEPARATRIX_TOL:g}: state is on the "
            "separatrix (or the saddle), which has no closed orbit"
        )
    if s0.y == 0.0 and s0.x - s0.x**3 == 0.0:
        raise NoReturn("initial state is a fixed point; no section return")
    _check_away_from_centers(s0.x, s0.y)


def _period_end(directions):
    """Index of the first later return in the direction of return 0, where
    one period ends, or None; ``directions`` are the returns' in order."""
    later = [j for j, d in enumerate(directions) if j and d == directions[0]]
    return later[0] if later else None


def find_period(
    s0: State, p: Params, cfg: IntegratorConfig = DEFAULT_CONFIG
) -> float:
    """Period of the closed orbit through s0 (conservative case only).

    Measures the first return to the section {y = 0} crossed in the same
    direction: started on the section that is one full revolution; started
    off it, the time between the first two same-direction crossings.
    Section times are refined to |y| <= 1e-10 on ``_one_period``'s path,
    which ends about one period in, not at t_max.

    Raises what ``_require_closed_orbit`` raises, and NoReturn if t_max
    expires first.
    """
    return _one_period(s0, p, cfg)[0]


def _one_period(s0: State, p: Params, cfg: IntegratorConfig):
    """(period, x, y): find_period's period, and the orbit's points over
    [0, period]: the path's samples before it, then the dense output at it.

    A start on the section is return 0, at t = 0 heading sign(x - x^3).
    The integration stops after the first kernel chunk (_CHUNK_SAMPLES
    samples) on whose whole path so far ``_period_end`` finds the period;
    the path is a prefix of the full-horizon one, so the period is, bit
    for bit, the one the full horizon would give.
    """
    s0 = State(float(s0[0]), float(s0[1]))
    _require_closed_orbit(s0, p)
    start = []
    if s0.y == 0.0:
        d0 = int(np.sign(s0.x - s0.x**3))
        start = [Event(0.0, "section_return", {"x": s0.x, "direction": d0})]
    head = [e.data["direction"] for e in start]
    t, x, y, dx, dy = _run_kernel(
        _kernels.FIELD_ORIGINAL, s0.x, s0.y, p, cfg,
        lambda t, x, y, *_: _period_end(head + _directions(y)) is not None,
    )
    dense = partial(
        hermite_steps, t, np.column_stack((x, y)), np.column_stack((dx, dy))
    )
    returns = start + _section_crossings(t, y, dense)
    j = _period_end([e.data["direction"] for e in returns])
    if j is None:
        what = "same-direction section return" if returns else "section crossing"
        raise NoReturn(f"no {what} before t_max={cfg.t_max:g}")
    period = returns[j].t - returns[0].t
    k = int(np.searchsorted(t, period))  # the first sample at or after it
    x_end, y_end = dense(np.array([k - 1]))(0, period)
    return period, np.append(x[:k], x_end), np.append(y[:k], y_end)
