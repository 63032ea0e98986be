"""The steps of a period or action query that follow the kernel, bit for bit
as their earlier numpy spellings computed them.

The angle check (``covering._unwrap`` and its center guard), the loop sums
(``actionangle._loop_action``), the sign walk (``integrate._sign_flips``)
and the closing sample of ``integrate._one_period`` are spelled in fewer
numpy calls: np.rint for np.round, slices for np.diff, ndarray methods,
one concatenate, and a guard that squares only the points near a center.
The references below keep the earlier spellings; results must have the
same bits (int64 views) and failures the same type and message.
"""

import math
from functools import partial

import numpy as np
import pytest

from duffing_aa import (
    DEFAULT_CONFIG,
    CenterSingular,
    IntegratorConfig,
    NoReturn,
    Params,
    State,
    StepFailure,
    UnwrapAmbiguous,
    hamiltonian,
    integrate_original,
    square,
    state_on_level,
)
from duffing_aa import _kernels, actionangle, covering, integrate

TWO_PI = covering.TWO_PI
E = covering.CENTER_EXCLUSION


def unwrap_reference(x, y):
    """covering._unwrap with every point squared by its center guard, and
    np.diff, np.round and np.any."""
    xa, ya = np.asarray(x), np.asarray(y)
    with np.errstate(over="ignore"):
        yy = ya**2
        if (np.any((xa - 1.0) ** 2 + yy < E**2)
                or np.any((xa + 1.0) ** 2 + yy < E**2)):
            raise CenterSingular(
                "state within 1e-9 of (+-1, 0); the angle is undefined at the "
                "covered center"
            )
    x1, y1 = square(x, y)
    raw = covering._angle(x1, y1)
    d = np.diff(raw)
    d -= TWO_PI * np.round(d / TWO_PI)
    if np.any(np.abs(d) >= math.pi):
        raise UnwrapAmbiguous(
            "consecutive angle samples differ by half a turn or more; "
            "sampling is too sparse to unwrap"
        )
    return x1, y1, np.concatenate((raw[:1], raw[:1] + np.cumsum(d)))


def loop_action_reference(x, y) -> float:
    """actionangle._loop_action with np.sum and np.diff."""
    s = np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    s += 0.5 * (y[-1] + y[0]) * (x[0] - x[-1])
    return abs(float(s)) / TWO_PI


def sign_flips_reference(g):
    """integrate._sign_flips with np.flatnonzero and a mask of every entry."""
    nz = np.flatnonzero(g)
    pos = (g > 0.0)[nz]
    keep = np.zeros(nz.size, dtype=bool)
    keep[:-1] = pos[1:] != pos[:-1]
    return nz[keep]


def one_period_reference(s0, p, cfg):
    """integrate._one_period without its memo, with np.append and the
    references above."""
    integrate._require_closed_orbit(s0, p)
    on = int(s0.y == 0.0)
    t, x, y, status, _, _ = _kernels.adaptive_path(
        s0.x, s0.y, p.mu, 0.0, cfg.t_max, cfg.rel_tol, cfg.abs_tol, cfg.step,
        int(cfg.max_steps), 3 - on,
    )
    integrate._check_status(status, t, cfg)
    flips = sign_flips_reference(y)
    if on + flips.size < 3:
        what = "same-direction section return" if on + flips.size else "section crossing"
        raise NoReturn(f"no {what} before t_max={cfg.t_max:g}")
    dense = partial(integrate.hermite_step, t, x, y, p.mu)
    r0, r2 = [0.0] * on + integrate._section_crossings(
        t, y, flips[on::2].tolist(), dense)
    period = r2 - r0
    k = int(np.searchsorted(t, period))
    x_end, y_end = dense(k - 1)(period)
    x, y = np.append(x[:k], x_end), np.append(y[:k], y_end)
    x1, y1, theta = unwrap_reference(x, y)
    turns, want = (theta[0] - theta[-1]) / TWO_PI, integrate._turns(s0, p)
    if not abs(turns - want) < 0.25:
        raise StepFailure(
            f"the rk45 path with step={cfg.step!r} does not resolve "
            f"the orbit: its covered angle turns {turns:.3g} times in the "
            f"period {period:.6g}, not {want}"
        )
    return period, x, y, x1, y1


def bits(a):
    """The int64 view of a float array, as a list."""
    return np.asarray(a, dtype=np.float64).view(np.int64).tolist()


def outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as e:  # compared, not handled
        return type(e), str(e)


def _seeded_starts():
    """Closed-orbit starts on both sides of the separatrix: on the section
    at seeded levels, and seeded points off it."""
    rng = np.random.default_rng(27)
    p = Params()
    starts = [state_on_level(h) for h in np.concatenate(
        (rng.uniform(-0.24, -0.01, 4), rng.uniform(0.01, 1.0, 4))).tolist()]
    while len(starts) < 16:
        s0 = State(*rng.uniform([-2.0, -1.5], [2.0, 1.5]).tolist())
        if abs(hamiltonian(s0, p)) > 0.01 and min(
                math.hypot(s0.x - 1.0, s0.y), math.hypot(s0.x + 1.0, s0.y)) > 0.05:
            starts.append(s0)
    assert {hamiltonian(s0, p) < 0.0 for s0 in starts} == {True, False}
    return starts


SEEDED_STARTS = _seeded_starts()


@pytest.fixture(scope="module")
def paths():
    """(x, y) of seeded closed orbits over one period, and of full
    trajectories to t = 100, conservative and damped."""
    out = [integrate._one_period(s0, Params(), DEFAULT_CONFIG)[1:3]
           for s0 in SEEDED_STARTS]
    for mu in (0.0, 0.1):
        for s0 in SEEDED_STARTS[::4]:
            out.append(tuple(integrate_original(s0, Params(mu=mu)).states.T))
    return out


@pytest.mark.parametrize("cfg", [
    DEFAULT_CONFIG,
    IntegratorConfig(rel_tol=1e-6, abs_tol=1e-6, step=0.2),
    IntegratorConfig(rel_tol=1e-4, abs_tol=1e-6, step=1.0),
    IntegratorConfig(rel_tol=1e-10, abs_tol=0.1, step=5.0, t_max=60.0),
    IntegratorConfig(t_max=3.0),
], ids=["default", "1e-6", "1e-4", "too-coarse", "short"])
def test_one_period_is_its_earlier_spelling(monkeypatch, cfg):
    # (period, x, y, x1, y1) bit for bit, or the same failure and message
    seen = set()
    for s0 in SEEDED_STARTS + [state_on_level(-0.2499)]:
        monkeypatch.setattr(integrate, "_last_orbit", None)
        got = outcome(integrate._one_period, s0, Params(), cfg)
        want = outcome(one_period_reference, s0, Params(), cfg)
        if isinstance(want[0], type):
            assert got == want, s0
            seen.add(want[0])
            continue
        assert got[0].hex() == want[0].hex(), s0
        assert [bits(a) for a in got[1:]] == [bits(a) for a in want[1:]], s0
        seen.add(float)
    if cfg.abs_tol == 0.1:  # a step too coarse for the orbit, on some start
        assert StepFailure in seen
    if cfg.t_max == 3.0:
        assert NoReturn in seen


def test_unwrap_is_its_earlier_spelling(paths):
    for x, y in paths:
        got, want = covering._unwrap(x, y), unwrap_reference(x, y)
        for a, b in zip(got, want):
            assert bits(a) == bits(b)
        # and the angle queries that read it
        theta = actionangle.unwrap_theta(integrate.Trajectory(
            np.arange(x.size, dtype=np.float64), np.column_stack((x, y)),
            Params(), DEFAULT_CONFIG))[:, 1]
        assert bits(theta) == bits(want[2])


def test_rint_rounds_as_round():
    # halves go to even on both; signed zeros, infinities and NaN pass
    rng = np.random.default_rng(2027)
    v = np.concatenate((
        np.arange(-2000, 2001) + 0.5, np.arange(-2000, 2001) + 0.0,
        np.nextafter(np.arange(-200, 201) + 0.5, math.inf),
        np.nextafter(np.arange(-200, 201) + 0.5, -math.inf),
        rng.normal(0.0, 3.0, 10_000), rng.normal(0.0, 1e18, 1000),
        [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -5e-324, 2.0**52 + 1],
    ))
    assert bits(np.rint(v)) == bits(np.round(v))


def test_unwrap_refuses_what_its_earlier_spelling_refused(paths):
    # sparse samples, and two samples half a turn apart (or nearly) put
    # into the path: UnwrapAmbiguous or not; a sample at and about 1e-9
    # from a center: CenterSingular or not
    kinds = set()

    def compare(x, y):
        got, want = outcome(covering._unwrap, x, y), outcome(unwrap_reference, x, y)
        if isinstance(want[0], type):
            assert got == want
            kinds.add(want[0])
        else:
            assert all(bits(a) == bits(b) for a, b in zip(got, want))

    pairs = [[(1.5, 0.0), (0.5, 0.0)], [(math.sqrt(2.0), 0.0), (0.0, 1.0)],
             [(-1.2, -0.0), (0.3, 0.0)], [(1.5, 0.0), (0.5, 1e-3)]]
    for x, y in paths[:6]:
        for step in (1, 7, 25, x.size // 4, x.size // 3):
            compare(x[::step], y[::step])
        for pair in pairs:
            for at in (0, x.size // 2, x.size):
                xy = np.insert(np.column_stack((x, y)), at, pair, axis=0)
                compare(*xy.T)
        for cx in (1.0, -1.0):
            for d in (0.0, 0.5 * E, E, 2.0 * E, 3.0 * E):
                xs, ys = x.copy(), y.copy()
                xs[x.size // 2], ys[x.size // 2] = cx + d, 0.0
                compare(xs, ys)
    assert kinds == {UnwrapAmbiguous, CenterSingular}


def test_loop_action_is_its_earlier_spelling(paths):
    for x, y in paths:
        for loop in ((x, y), square(x, y), (x[:2], y[:2]), (x[:1], y[:1])):
            got = actionangle._loop_action(*loop)
            assert got.hex() == loop_action_reference(*loop).hex()


def test_sign_flips_is_its_earlier_spelling(paths):
    rng = np.random.default_rng(7)
    walks = [g for x, y in paths for g in (x, y)]
    values = np.array([-1.0, -0.0, 0.0, 1.0, 2.0, -3e-300, math.nan, 5e-324])
    walks += [rng.choice(values, n) for n in (0, 1, 2, 3, 10, 100, 1000)]
    walks += [np.zeros(5), np.array([1.0, 0.0, 0.0]), np.array([0.0, -1.0, 0.0, 1.0]),
              np.array([2.0, -0.0]), np.array([1.0, -1.0, 0.0]), np.array([-1.0, 1.0])]
    for g in walks:
        got = integrate._sign_flips(g)
        assert got.dtype == np.intp
        assert got.tolist() == sign_flips_reference(g).tolist()
