import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from duffing_aa import Params, State, duffing_field
from duffing_aa import _kernels
from duffing_aa.cli import load_scenario
from duffing_aa.integrate import _sign_flips


def _whole(u0, v0, mu, t_end, rel_tol, abs_tol, h0, max_steps):
    """One adaptive_path call over [0, t_end] that never stops early."""
    return _kernels.adaptive_path(
        u0, v0, mu, 0.0, t_end, rel_tol, abs_tol, h0, max_steps
    )


def test_rhs_matches_public_fields(rng):
    for _ in range(300):
        x, y = rng.uniform(-3.0, 3.0, size=2)
        mu = rng.uniform(0.0, 0.5)
        assert _kernels.rhs(x, y, mu) == duffing_field(State(x, y), Params(mu=mu))


def test_adaptive_path_reaches_t_end():
    t, u, v, status, _, _ = _whole(
        0.0, 1.0, 0.0, 5.0, 1e-10, 1e-10, 0.01, 10**7
    )
    assert status == _kernels.STATUS_OK
    assert t[0] == 0.0 and t[-1] == 5.0
    assert np.all(np.diff(t) > 0.0)
    assert u.shape == v.shape == t.shape


def test_adaptive_path_status_codes():
    *_, status, _, steps = _whole(0.0, 1.0, 0.0, 5.0, 1e-300, 1e-300, 0.01, 10**7)
    assert status == _kernels.STATUS_STEP_UNDERFLOW
    *_, status, _, steps = _whole(0.0, 1.0, 0.0, 5.0, 1e-10, 1e-10, 0.01, 5)
    assert status == _kernels.STATUS_MAX_STEPS and steps == 5


def _grow(arr, cap):
    out = np.empty(cap, dtype=np.float64)
    out[: arr.shape[0]] = arr
    return out


def _reference_path(u0, v0, mu, t0, t_end, rel_tol, abs_tol, h0, max_steps,
                    flips=0):
    """adaptive_path as written before its field was inlined: one
    _kernels.rhs call per stage, max() in the error scales and numpy
    buffers grown by doubling."""
    (a21, a31, a32, a41, a42, a43, a51, a52, a53, a54, a61, a62, a63, a64, a65,
     b1, b3, b4, b5, b6, e1, e3, e4, e5, e6, e7) = _kernels.TABLEAU
    safety, err_exp, fac_min, fac_max = _kernels.STEP_CONTROL
    cap = 4096
    ts = np.empty(cap, dtype=np.float64)
    us = np.empty(cap, dtype=np.float64)
    vs = np.empty(cap, dtype=np.float64)

    t = t0
    u = u0
    v = v0
    k1u, k1v = _kernels.rhs(u, v, mu)
    ts[0] = t
    us[0] = u
    vs[0] = v
    n = 1

    h = h0
    if h > t_end:
        h = t_end
    status = _kernels.STATUS_OK
    steps = 0
    side = v0  # the last nonzero v; zero before the first one

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

        k2u, k2v = _kernels.rhs(u + h * a21 * k1u, v + h * a21 * k1v, mu)
        k3u, k3v = _kernels.rhs(
            u + h * (a31 * k1u + a32 * k2u), v + h * (a31 * k1v + a32 * k2v), mu
        )
        k4u, k4v = _kernels.rhs(
            u + h * (a41 * k1u + a42 * k2u + a43 * k3u),
            v + h * (a41 * k1v + a42 * k2v + a43 * k3v),
            mu,
        )
        k5u, k5v = _kernels.rhs(
            u + h * (a51 * k1u + a52 * k2u + a53 * k3u + a54 * k4u),
            v + h * (a51 * k1v + a52 * k2v + a53 * k3v + a54 * k4v),
            mu,
        )
        k6u, k6v = _kernels.rhs(
            u + h * (a61 * k1u + a62 * k2u + a63 * k3u + a64 * k4u + a65 * k5u),
            v + h * (a61 * k1v + a62 * k2v + a63 * k3v + a64 * k4v + a65 * k5v),
            mu,
        )
        un = u + h * (b1 * k1u + b3 * k3u + b4 * k4u + b5 * k5u + b6 * k6u)
        vn = v + h * (b1 * k1v + b3 * k3v + b4 * k4v + b5 * k5v + b6 * k6v)
        k7u, k7v = _kernels.rhs(un, vn, mu)

        eu = h * (e1 * k1u + e3 * k3u + e4 * k4u + e5 * k5u + e6 * k6u + e7 * k7u)
        ev = h * (e1 * k1v + e3 * k3v + e4 * k4v + e5 * k5v + e6 * k6v + e7 * k7v)
        su = abs_tol + rel_tol * max(abs(u), abs(un))
        sv = abs_tol + rel_tol * max(abs(v), abs(vn))
        # squared via *, not **, so absurd tolerances overflow to inf rather
        # than raise OverflowError
        ru = eu / su
        rv = ev / sv
        err = math.sqrt(0.5 * (ru * ru + rv * rv))

        steps += 1
        if err <= 1.0:
            t = t_end if last else t + h
            u = un
            v = vn
            k1u = k7u  # FSAL: last stage is the next step's first
            k1v = k7v
            if n == cap:
                cap *= 2
                ts = _grow(ts, cap)
                us = _grow(us, cap)
                vs = _grow(vs, cap)
            ts[n] = t
            us[n] = u
            vs[n] = v
            n += 1
            if err == 0.0:
                fac = fac_max
            else:
                fac = safety * err ** err_exp
                if fac > fac_max:
                    fac = fac_max
                elif fac < fac_min:
                    fac = fac_min
            h = h * fac
            if flips and v != 0.0:
                if side != 0.0 and (v > 0.0) != (side > 0.0):
                    flips -= 1
                    if flips == 0:
                        break
                side = v
        else:
            # a NaN error norm (overflowed stages) would shrink h to NaN and
            # spin through the whole step budget; inf still shrinks h
            if math.isnan(err):
                status = _kernels.STATUS_NONFINITE
                break
            fac = safety * err ** err_exp
            if fac < fac_min:
                fac = fac_min
            elif fac > 1.0:
                fac = 1.0
            h = h * fac

    return ts[:n], us[:n], vs[:n], status, h, steps


_start = st.floats(-3.0, 3.0)


@settings(max_examples=150, deadline=None)
@given(
    u0=_start, v0=_start, mu=st.floats(0.0, 0.5),
    tol=st.sampled_from([1e-10, 1e-6, 1e-3]), flips=st.sampled_from([0, 1, 3]),
    max_steps=st.one_of(st.integers(0, 200), st.just(10**7)),
    t_end=st.floats(0.5, 15.0),
)
@example(u0=1e200, v0=0.0, mu=0.0, tol=1e-10, flips=0, max_steps=10**7, t_end=5.0)
@example(u0=1.2, v0=0.0, mu=0.1, tol=1e-10, flips=3, max_steps=10**7, t_end=15.0)
def test_adaptive_path_is_bitwise_the_reference(u0, v0, mu, tol, flips, max_steps,
                                                 t_end):
    # the inlined field, hoisted h * a21 and call-free max take every bit
    # of the rhs-calling loop, the flips stop and the failure exits too
    args = (u0, v0, mu, 0.0, t_end, tol, tol, 0.01, max_steps, flips)
    got, want = _kernels.adaptive_path(*args), _reference_path(*args)
    for a, b in zip(got[:3], want[:3]):  # t, u, v
        assert a.dtype == np.float64 and a.tobytes() == b.tobytes()
    assert got[3:] == want[3:]  # status, h, attempted steps
    if u0 == 1e200:
        assert got[3] == _kernels.STATUS_NONFINITE


def _chunked(u0, v0, mu, t_end, max_steps, flips):
    """adaptive_path stopped at every `flips`-th sign flip of v and resumed
    from its last sample with the h and step budget it returned, the
    chunks concatenated (each resumed chunk repeats the sample that ended
    the last one); also the status, the steps used and the calls made."""
    t0, h, budget, parts = 0.0, 0.01, max_steps, []
    while True:
        *chunk, status, h, used = _kernels.adaptive_path(
            u0, v0, mu, t0, t_end, 1e-10, 1e-10, h, budget, flips
        )
        assert used <= budget
        budget -= used
        parts.append([a[1:] for a in chunk] if parts else chunk)
        t0, u0, v0 = chunk[0][-1], chunk[1][-1], chunk[2][-1]
        if status != _kernels.STATUS_OK or t0 >= t_end:
            break
        # a stop is the first sample past its chunk's flips-th flip
        v = chunk[2]
        assert _sign_flips(v).size == flips and _sign_flips(v[:-1]).size == flips - 1
    path = [np.concatenate(a) for a in zip(*parts)]
    return path, status, max_steps - budget, len(parts)


@pytest.mark.parametrize("fig", ["fig1", "fig3"])
@pytest.mark.parametrize("flips", [1, 2, 7, 128])
def test_chunked_path_is_bitwise_the_whole_path(fig, flips):
    scn = load_scenario(fig)
    for x, y in scn.initial_states:
        *whole, status, _, steps = _whole(
            x, y, scn.mu, scn.integrator.t_max, 1e-10, 1e-10, 0.01, 10**7
        )
        parts, status_c, steps_c, calls = _chunked(
            x, y, scn.mu, scn.integrator.t_max, 10**7, flips
        )
        assert status_c == status == _kernels.STATUS_OK and steps_c == steps
        # a stop on the last sample ends the path without another call
        assert calls >= _sign_flips(whole[2]).size // flips
        for a, b in zip(parts, whole):
            assert a.tobytes() == b.tobytes()


def test_step_budget_spans_resumptions():
    # the budget left after each stop bounds the next call, so the chunked
    # run fails where the whole run does, after as many attempted steps
    *whole, status, _, steps = _whole(0.0, 1.0, 0.0, 50.0, 1e-10, 1e-10, 0.01, 300)
    parts, status_c, steps_c, calls = _chunked(0.0, 1.0, 0.0, 50.0, 300, 1)
    assert status == status_c == _kernels.STATUS_MAX_STEPS
    assert steps == steps_c == 300 and calls > 1
    for a, b in zip(parts, whole):
        assert a.tobytes() == b.tobytes()


def _scalar_paths(u0, v0, mu, t_end, rel_tol, abs_tol, max_steps):
    """adaptive_path from every start over [0, t_end], one call each."""
    return [
        _whole(u, v, mu, t_end, rel_tol, abs_tol, 0.01, max_steps)
        for u, v in zip(u0, v0)
    ]


def _lanes(monkeypatch, min_lanes, u0, v0, mu, t_end, rel_tol, abs_tol, max_steps):
    """adaptive_lanes with MIN_LANES = min_lanes, split into per-lane
    (t, u, v, status, h, steps), plus the start times of the
    adaptive_path calls that finished lanes.  Floating-point errors
    raise, so any that escape the kernel fail the test."""
    monkeypatch.setattr(_kernels, "MIN_LANES", min_lanes)
    handed_off = []
    scalar = _kernels.adaptive_path

    def recorded(*args):
        handed_off.append(args[3])
        return scalar(*args)

    monkeypatch.setattr(_kernels, "adaptive_path", recorded)
    with np.errstate(all="raise"):
        t, z, bounds, status, h, steps = _kernels.adaptive_lanes(
            u0, v0, mu, t_end, rel_tol, abs_tol, 0.01, max_steps
        )
    monkeypatch.setattr(_kernels, "adaptive_path", scalar)
    paths = []
    for k in range(len(u0)):
        rows = slice(bounds[k], bounds[k + 1])
        paths.append((t[rows], z[rows, 0], z[rows, 1], status[k], h[k], steps[k]))
    return paths, handed_off


def _assert_same_paths(lanes, scalar):
    assert len(lanes) == len(scalar)
    for got, want in zip(lanes, scalar):
        for a, b in zip(got[:3], want[:3]):  # t, u, v
            assert a.tobytes() == b.tobytes()
        assert got[3:] == want[3:]  # status, h, attempted steps


def _fig_starts(name):
    scn = load_scenario(name)
    return ([s.x for s in scn.initial_states], [s.y for s in scn.initial_states],
            scn.mu, scn.integrator.t_max)


def _grid_starts(rng, n=50):
    return (rng.uniform(-2.0, 2.0, n).tolist(), rng.uniform(-1.5, 1.5, n).tolist(),
            0.0, 20.0)


@pytest.mark.parametrize("handoff", [False, True], ids=["lockstep", "handoff"])
@pytest.mark.parametrize("case", ["fig1", "fig3", "grid"])
def test_lanes_are_bitwise_the_scalar_paths(monkeypatch, rng, case, handoff):
    # fig3 is damped (mu = 0.1); the grid starts mix wells, the separatrix
    # band and outer orbits, so lanes retire at different iterations
    u0, v0, mu, t_end = _grid_starts(rng) if case == "grid" else _fig_starts(case)
    scalar = _scalar_paths(u0, v0, mu, t_end, 1e-10, 1e-10, 10**7)
    min_lanes = len(u0) // 2 if handoff else 1
    lanes, handed_off = _lanes(
        monkeypatch, min_lanes, u0, v0, mu, t_end, 1e-10, 1e-10, 10**7
    )
    _assert_same_paths(lanes, scalar)
    if handoff:  # the scalar kernel took over lanes part-way
        assert len(handed_off) == min_lanes - 1 and min(handed_off) > 0.0
    else:
        assert handed_off == []


def test_lanes_below_min_lanes_run_the_scalar_kernel(monkeypatch):
    u0, v0, mu, t_end = _fig_starts("fig1")
    lanes, handed_off = _lanes(
        monkeypatch, len(u0) + 1, u0, v0, mu, t_end, 1e-10, 1e-10, 10**7
    )
    assert handed_off == [0.0] * len(u0)
    _assert_same_paths(lanes, _scalar_paths(u0, v0, mu, t_end, 1e-10, 1e-10, 10**7))


@pytest.mark.parametrize("handoff", [False, True], ids=["lockstep", "handoff"])
@pytest.mark.parametrize(
    "failure, rel_tol, max_steps",
    [("overflow", 1e-10, 10**7), ("max_steps", 1e-10, 150),
     ("underflow", 1e-300, 10**7)],
    ids=["overflow", "max_steps", "underflow"],
)
def test_failing_lanes_stop_where_the_scalar_kernel_does(
    monkeypatch, rng, failure, rel_tol, max_steps, handoff
):
    u0, v0, _, _ = _grid_starts(rng, 40)
    if failure == "overflow":
        u0[3], v0[3] = 1e200, 0.0
        u0[20], v0[20] = 0.0, -1e300
    scalar = _scalar_paths(u0, v0, 0.0, 5.0, rel_tol, rel_tol, max_steps)
    want = {"overflow": _kernels.STATUS_NONFINITE,
            "max_steps": _kernels.STATUS_MAX_STEPS,
            "underflow": _kernels.STATUS_STEP_UNDERFLOW}[failure]
    failed = [k for k, path in enumerate(scalar) if path[3] == want]
    # the step budget lets some orbits finish and stops the others
    assert failed and (failure == "underflow" or len(failed) < len(u0))
    lanes, _ = _lanes(monkeypatch, 20 if handoff else 1, u0, v0, 0.0, 5.0,
                      rel_tol, rel_tol, max_steps)
    _assert_same_paths(lanes, scalar)
