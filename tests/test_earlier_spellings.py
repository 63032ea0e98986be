"""The steps of a period or action query that follow the kernel, and the
kernel's undamped stages, bit for bit as their earlier spellings computed
them.

At mu = 0 the stepping loops evaluate the v-slope x - x*x*x without the
term - mu*k, which is then +-0.0 and leaves the slope as it is.

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
    want = 1 if integrate._require_closed_orbit(s0, p) < 0.0 else 2
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
    turns = (theta[0] - theta[-1]) / TWO_PI
    if not abs(turns - want) < 0.25:
        raise StepFailure(
            f"the rk45 path with step={cfg.step!r} does not resolve "
            f"the orbit: its covered angle turns {turns:.3g} times in the "
            f"period {period:.6g}, not {want}"
        )
    return period, x, y, x1, y1, want


def adaptive_path_reference(u0, v0, mu, t0, t_end, rel_tol, abs_tol, h0,
                            max_steps, flips=0):
    """_kernels.adaptive_path with - mu * k at every stage, mu = 0 too, and
    |u| and |v| of the node taken anew at every step."""
    (a21, a31, a32, a41, a42, a43, a51, a52, a53, a54, a61, a62, a63, a64, a65,
     b1, b3, b4, b5, b6, e1, e3, e4, e5, e6, e7) = _kernels.TABLEAU
    safety, err_exp, fac_min, fac_max = _kernels.STEP_CONTROL
    ts, us, vs = [t0], [u0], [v0]
    t, u, v = t0, u0, v0
    k1v = u - u * u * u - mu * v
    h = min(h0, t_end)
    status = _kernels.STATUS_OK
    steps = 0
    side = v0
    while t < t_end:
        if steps >= max_steps:
            status = _kernels.STATUS_MAX_STEPS
            break
        if h < _kernels.MIN_STEP:
            status = _kernels.STATUS_STEP_UNDERFLOW
            break
        last = False
        if t + h >= t_end:
            h = t_end - t
            last = True
        ha = h * a21
        w = u + ha * v
        k2u = v + ha * k1v
        k2v = w - w * w * w - mu * k2u
        w = u + h * (a31 * v + a32 * k2u)
        k3u = v + h * (a31 * k1v + a32 * k2v)
        k3v = w - w * w * w - mu * k3u
        w = u + h * (a41 * v + a42 * k2u + a43 * k3u)
        k4u = v + h * (a41 * k1v + a42 * k2v + a43 * k3v)
        k4v = w - w * w * w - mu * k4u
        w = u + h * (a51 * v + a52 * k2u + a53 * k3u + a54 * k4u)
        k5u = v + h * (a51 * k1v + a52 * k2v + a53 * k3v + a54 * k4v)
        k5v = w - w * w * w - mu * k5u
        w = u + h * (a61 * v + a62 * k2u + a63 * k3u + a64 * k4u + a65 * k5u)
        k6u = v + h * (a61 * k1v + a62 * k2v + a63 * k3v + a64 * k4v + a65 * k5v)
        k6v = w - w * w * w - mu * k6u
        un = u + h * (b1 * v + b3 * k3u + b4 * k4u + b5 * k5u + b6 * k6u)
        vn = v + h * (b1 * k1v + b3 * k3v + b4 * k4v + b5 * k5v + b6 * k6v)
        k7v = un - un * un * un - mu * vn
        eu = h * (e1 * v + e3 * k3u + e4 * k4u + e5 * k5u + e6 * k6u + e7 * vn)
        ev = h * (e1 * k1v + e3 * k3v + e4 * k4v + e5 * k5v + e6 * k6v + e7 * k7v)
        p, q = abs(u), abs(un)
        su = abs_tol + rel_tol * (q if q > p else p)
        p, q = abs(v), abs(vn)
        sv = abs_tol + rel_tol * (q if q > p else p)
        ru = eu / su
        rv = ev / sv
        err = math.sqrt(0.5 * (ru * ru + rv * rv))
        steps += 1
        if err <= 1.0:
            t = t_end if last else t + h
            u, v, k1v = un, vn, k7v
            ts.append(t)
            us.append(u)
            vs.append(v)
            if err == 0.0:
                fac = fac_max
            else:
                fac = min(max(safety * err ** err_exp, fac_min), fac_max)
            h = h * fac
            if flips and v != 0.0:
                if side != 0.0 and (v > 0.0) != (side > 0.0):
                    flips -= 1
                    if flips == 0:
                        break
                side = v
        else:
            if math.isnan(err):
                status = _kernels.STATUS_NONFINITE
                break
            h = h * min(max(safety * err ** err_exp, fac_min), 1.0)
    return np.array(ts), np.array(us), np.array(vs), status, h, steps


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
def test_one_period_is_its_earlier_spelling(cfg):
    # (period, x, y, x1, y1, turns) bit for bit, or the same failure and message
    seen = set()
    for s0 in SEEDED_STARTS + [state_on_level(-0.2499)]:
        integrate._closed_orbit.cache_clear()
        got = outcome(integrate._one_period, s0, Params(), cfg)
        want = outcome(one_period_reference, s0, Params(), cfg)
        if isinstance(want[0], type):
            assert got == want, s0
            seen.add(want[0])
            continue
        assert got[0].hex() == want[0].hex(), s0
        assert [bits(a) for a in got[1:5]] == [bits(a) for a in want[1:5]], s0
        assert got[5] == want[5], s0
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


# starts that overflow a stage or the first step, non-finite and signed-zero
# starts, the equilibria and the smallest values, then ordinary starts that
# fill the lockstep past MIN_LANES
KERNEL_STARTS = [
    (1e102, 0.0), (6e102, -0.0), (-1e103, 1.0), (1e154, 1e154), (0.5, 1e154),
    (0.0, 1e200), (1e200, 0.0), (-1e200, -1e200), (1e308, 1e308), (-1.7e308, 0.5),
    (math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf),
    (math.inf, -math.inf), (0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0),
    (1.0, 0.0), (-1.0, -0.0), (1e-300, 0.0), (5e-324, -5e-324), (-0.0, 1.0),
] + [(0.25 * i - 2.0, 0.375 * (i % 5) - 0.75) for i in range(17)]


@pytest.mark.parametrize("mu", [0.0, -0.0, 0.1], ids=["0", "-0", "0.1"])
@pytest.mark.parametrize("tol", [1e-14, 1e-10, 1e-3])
@pytest.mark.parametrize("max_steps", [37, 10**7], ids=["37", "1e7"])
def test_kernels_are_their_every_stage_damping_spelling(mu, tol, max_steps):
    # (t, u, v) as int64 views, status, h and steps of every start, from
    # adaptive_path with flips 0 and 3, and from adaptive_lanes, whose
    # starts are many enough to step in lockstep
    t_end = 4.0
    want = [adaptive_path_reference(u, v, mu, 0.0, t_end, tol, tol, 0.01, max_steps)
            for u, v in KERNEL_STARTS]

    def same(got, ref):
        assert [bits(a) for a in got[:3]] == [bits(a) for a in ref[:3]]
        assert (got[3], float(got[4]).hex(), got[5]) == (ref[3], ref[4].hex(), ref[5])

    for (u, v), ref in zip(KERNEL_STARTS, want):
        same(_kernels.adaptive_path(u, v, mu, 0.0, t_end, tol, tol, 0.01, max_steps),
             ref)
        same(_kernels.adaptive_path(u, v, mu, 0.0, t_end, tol, tol, 0.01, max_steps, 3),
             adaptive_path_reference(u, v, mu, 0.0, t_end, tol, tol, 0.01,
                                     max_steps, 3))
    u0, v0 = np.array(KERNEL_STARTS).T
    paths, status, h, steps = _kernels.adaptive_lanes(
        u0, v0, mu, t_end, tol, tol, 0.01, max_steps)
    for k, ((t, z), ref) in enumerate(zip(paths, want)):
        same((t, z[:, 0], z[:, 1], int(status[k]), float(h[k]), int(steps[k])), ref)
    assert {ref[3] for ref in want} >= {_kernels.STATUS_OK, _kernels.STATUS_NONFINITE}
