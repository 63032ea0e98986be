import itertools
import math
import sys
import tracemalloc

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
            x, y, scn.params.mu, scn.integrator.t_max, 1e-10, 1e-10, 0.01, 10**7
        )
        parts, status_c, steps_c, calls = _chunked(
            x, y, scn.params.mu, scn.integrator.t_max, 10**7, flips
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


def _scalar_paths(u0, v0, mu, t_end, rel_tol, abs_tol, max_steps, h0=0.01):
    """adaptive_path from every start over [0, t_end], one call each."""
    return [
        _whole(u, v, mu, t_end, rel_tol, abs_tol, h0, max_steps)
        for u, v in zip(u0, v0)
    ]


def _lanes(monkeypatch, min_lanes, u0, v0, mu, t_end, rel_tol, abs_tol, max_steps,
           h0=0.01):
    """adaptive_lanes with MIN_LANES = min_lanes, split into per-lane
    (t, u, v, status, h, steps), plus the start times of the
    adaptive_path calls that finished lanes.  Floating-point errors
    raise, so any that escape the kernel fail the test."""
    monkeypatch.setattr(_kernels, "MIN_LANES", min_lanes)
    scalar = _kernels.adaptive_path
    handed_off = []

    def recorded(*args):
        handed_off.append(args[3])
        return scalar(*args)

    monkeypatch.setattr(_kernels, "adaptive_path", recorded)
    with np.errstate(all="raise"):
        paths, status, h, steps = _kernels.adaptive_lanes(
            u0, v0, mu, t_end, rel_tol, abs_tol, h0, max_steps
        )
    monkeypatch.setattr(_kernels, "adaptive_path", scalar)
    assert (h.dtype, steps.dtype) == (np.float64, np.int64)
    assert len(paths) == len(u0)
    for t, z in paths:
        assert (t.dtype, z.dtype, z.shape) == (np.float64, np.float64, (len(t), 2))
    return [(t, z[:, 0], z[:, 1], status[k], h[k], steps[k])
            for k, (t, z) in enumerate(paths)], handed_off


def _assert_same_paths(lanes, scalar):
    assert len(lanes) == len(scalar)
    for got, want in zip(lanes, scalar):
        for a, b in zip(got[:3], want[:3]):  # t, u, v
            assert a.tobytes() == b.tobytes()
        assert got[3:] == want[3:]  # status, h, attempted steps


def _fig_starts(name):
    scn = load_scenario(name)
    return ([s.x for s in scn.initial_states], [s.y for s in scn.initial_states],
            scn.params.mu, scn.integrator.t_max)


def _grid_starts(rng, n=50):
    return (rng.uniform(-2.0, 2.0, n).tolist(), rng.uniform(-1.5, 1.5, n).tolist(),
            0.0, 20.0)


def _scalar_step_factor(err):
    """adaptive_path's step factor after a step with error norm err."""
    safety, err_exp, fac_min, fac_max = _kernels.STEP_CONTROL
    if err == 0.0:
        return fac_max
    ceiling = fac_max if err <= 1.0 else 1.0
    return min(max(safety * err ** err_exp, fac_min), ceiling)


def test_numpy_libm_build_keeps_lanes_scalar_parity_of_step_factors():
    # adaptive_lanes takes its step factors from np.float_power, whose
    # float64 loop must call the same C library pow as CPython's float **
    # in adaptive_path; a numpy or libm build where they differ breaks the
    # lanes' bit-for-bit parity with the scalar kernel.  Nine values in
    # every binade from 5e-324 to the largest double, its ends included,
    # and the 4,001 doubles nearest to 1
    err_exp = _kernels.STEP_CONTROL[1]
    rng = np.random.default_rng(7)
    mantissas = np.concatenate(
        ([1.0], rng.uniform(1.0, 2.0, 7), [np.nextafter(2.0, 1.0)])
    )
    binades = np.ldexp(mantissas, np.arange(-1074, 1024)[:, None]).ravel()
    assert binades.min() == 5e-324 and binades.max() == sys.float_info.max
    near_one = np.concatenate((1.0 - np.arange(1, 2001) * 2.0**-53,
                               1.0 + np.arange(0, 2001) * 2.0**-52))
    err = np.concatenate((binades, near_one, [math.inf]))
    got = np.float_power(err, err_exp)
    want = np.array([e ** err_exp for e in err.tolist()])
    differ = err[got != want]
    assert differ.size == 0, (
        f"np.float_power(x, {err_exp}) differs from x ** {err_exp} at "
        f"{differ.size} of {err.size} values, e.g. {differ[:3].tolist()}: this "
        "numpy or C library build breaks the lanes' parity with adaptive_path"
    )
    # clamped as adaptive_path clamps, and a zero error (inf from
    # float_power, which warns of the division) takes fac_max
    err = np.append(err, 0.0)
    with np.errstate(divide="ignore"):
        fac = _kernels._step_factors(err)
    assert fac[-1] == _kernels.STEP_CONTROL[3]
    want = np.array([_scalar_step_factor(e) for e in err.tolist()])
    assert fac.tobytes() == want.tobytes()


@pytest.mark.parametrize("handoff", [False, True], ids=["lockstep", "handoff"])
@pytest.mark.parametrize(
    "case", ["fig1", "fig3", "grid", "grid-1e-6", "grid-damped-1e-6"]
)
def test_lanes_are_bitwise_the_scalar_paths(monkeypatch, rng, case, handoff):
    # fig3 is damped (mu = 0.1); the grid starts mix wells, the separatrix
    # band and outer orbits, so lanes retire at different iterations.  At
    # a tolerance of 1e-10 few steps are rejected; at 1e-6 about one in
    # seven is, so lockstep iterations mix accepted and rejected lanes
    if case.startswith("grid"):
        u0, v0, _, t_end = _grid_starts(rng)
        mu = 0.1 if "damped" in case else 0.0
    else:
        u0, v0, mu, t_end = _fig_starts(case)
    tol = 1e-6 if case.endswith("1e-6") else 1e-10
    scalar = _scalar_paths(u0, v0, mu, t_end, tol, tol, 10**7)
    if tol == 1e-6:
        assert sum(path[5] - (len(path[0]) - 1) for path in scalar) > 0
    min_lanes = len(u0) // 2 if handoff else 1
    lanes, handed_off = _lanes(
        monkeypatch, min_lanes, u0, v0, mu, t_end, tol, tol, 10**7
    )
    _assert_same_paths(lanes, scalar)
    if handoff:  # the scalar kernel took over lanes part-way: the lanes
        # live at the first iteration with fewer than min_lanes, a lane
        # being live for as many iterations as it attempts steps (several
        # can retire at once, so there can be fewer than min_lanes - 1)
        steps = [path[5] for path in scalar]
        live = next(c for c in (sum(s > i for s in steps) for i in itertools.count())
                    if c < min_lanes)
        assert 0 < len(handed_off) == live and min(handed_off) > 0.0
    else:
        assert handed_off == []
    # one start alone: in lockstep, or in the scalar kernel from its start
    lanes, handed_off = _lanes(
        monkeypatch, min_lanes, u0[:1], v0[:1], mu, t_end, tol, tol, 10**7
    )
    _assert_same_paths(lanes, scalar[:1])
    assert handed_off == ([0.0] if handoff else [])


def test_lanes_below_min_lanes_run_the_scalar_kernel(monkeypatch):
    u0, v0, mu, t_end = _fig_starts("fig1")
    scalar = _scalar_paths(u0, v0, mu, t_end, 1e-10, 1e-10, 10**7)
    for n in (len(u0), 1):
        lanes, handed_off = _lanes(
            monkeypatch, n + 1, u0[:n], v0[:n], mu, t_end, 1e-10, 1e-10, 10**7
        )
        assert handed_off == [0.0] * n
        _assert_same_paths(lanes, scalar[:n])


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
    # all starts, then a failing one alone
    for ks in (range(len(u0)), failed[:1]):
        lanes, _ = _lanes(monkeypatch, 20 if handoff else 1, [u0[k] for k in ks],
                          [v0[k] for k in ks], 0.0, 5.0, rel_tol, rel_tol, max_steps)
        _assert_same_paths(lanes, [scalar[k] for k in ks])


@pytest.mark.parametrize(
    "max_steps, shrunk",
    [(1, _kernels.STATUS_MAX_STEPS), (2, _kernels.STATUS_STEP_UNDERFLOW)],
    ids=["budget-spent", "budget-left"],
)
def test_one_retire_mixes_statuses_as_the_scalar_kernel_does(
    monkeypatch, rng, max_steps, shrunk
):
    # every lane stops after the first iteration, which steps 4e-14 to
    # t_end = 4e-14: an equilibrium's error norm is 0, so it reaches t_end;
    # an overflowing start's is NaN; at a tolerance of 1e-300 the others'
    # is huge, so their step shrinks below MIN_STEP.  With a budget of one
    # step the scalar loop tests the budget before the step, so those stop
    # with STATUS_MAX_STEPS, while t_end and a NaN outrank the budget
    u0, v0, _, _ = _grid_starts(rng, 40)
    u0 += [0.0, 1.0, -1.0, 1e200, 0.0]
    v0 += [0.0, 0.0, 0.0, 0.0, -1e300]
    scalar = _scalar_paths(u0, v0, 0.0, 4e-14, 1e-300, 1e-300, max_steps, 4e-14)
    assert {path[5] for path in scalar} == {1}
    status = [path[3] for path in scalar]  # a few grid lanes' norm is 0 too
    assert set(status[:40]) == {shrunk, _kernels.STATUS_OK}
    assert status[40:] == [_kernels.STATUS_OK] * 3 + [_kernels.STATUS_NONFINITE] * 2
    lanes, handed_off = _lanes(monkeypatch, 1, u0, v0, 0.0, 4e-14, 1e-300, 1e-300,
                               max_steps, 4e-14)
    assert handed_off == []
    _assert_same_paths(lanes, scalar)


def _arrays(run):
    """Every array adaptive_lanes returned, each path's t and z in turn."""
    paths, *rest = run
    return [a for path in paths for a in path] + rest


def test_lanes_place_rows_beyond_any_int32_budget(monkeypatch):
    # a path holds up to max_steps + 1 rows, and a slot up to the rows the
    # budget left can add: budgets of 2**31 - 1 and 2**31, past any int32
    # count, give the bits of 2**31 - 2, with lockstep and scalar rows and
    # a move of every lane's slot
    monkeypatch.setattr(_kernels, "MIN_LANES", 5)
    u0, v0, mu, t_end = _fig_starts("fig1")
    runs = [_kernels.adaptive_lanes(u0, v0, mu, t_end, 1e-10, 1e-10, 0.01, m)
            for m in (2**31 - 2, 2**31 - 1, 2**31)]
    assert min(len(t) for t, _ in runs[0][0]) > _kernels.FIRST_SLOT
    for run in runs[1:]:
        for a, b in zip(_arrays(runs[0]), _arrays(run), strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _slots(monkeypatch, first_slot, margin):
    """Give the lockstep first slots of first_slot rows and the margin;
    returns a list that receives, at each move, the rows each lane has
    and the size of the slot it moves to."""
    monkeypatch.setattr(_kernels, "FIRST_SLOT", first_slot)
    monkeypatch.setattr(_kernels, "SLOT_MARGIN", margin)
    moves = []
    move = _kernels._move

    def recorded(tp, zp, lo, hi, size):
        moves.append(((hi - lo).tolist(), size.tolist()))
        return move(tp, zp, lo, hi, size)

    monkeypatch.setattr(_kernels, "_move", recorded)
    return moves


@pytest.mark.parametrize("handoff", [False, True], ids=["lockstep", "handoff"])
@pytest.mark.parametrize("case", ["grid", "grid-damped-1e-6"])
def test_lanes_that_spill_are_bitwise_the_scalar_paths(monkeypatch, rng, case,
                                                       handoff):
    # 2-row first slots move at the first iteration, and a margin of 1e-4
    # sizes each new slot at one row more than its lane has: from then on
    # every slot fills and spills its rows every other iteration or so,
    # and each path is its spilled rows, its pool rows and, with a
    # handoff, its adaptive_path tail, concatenated
    u0, v0, _, t_end = _grid_starts(rng)
    mu, tol = (0.1, 1e-6) if "damped" in case else (0.0, 1e-10)
    scalar = _scalar_paths(u0, v0, mu, t_end, tol, tol, 10**7)
    moves = _slots(monkeypatch, 2, 1e-4)
    lanes, _ = _lanes(monkeypatch, len(u0) // 2 if handoff else 1, u0, v0, mu,
                      t_end, tol, tol, 10**7)
    _assert_same_paths(lanes, scalar)
    (rows, size), = moves
    assert [s - r for r, s in zip(rows, size)] == [1] * len(u0)
    assert all(path[0].base is None for path in lanes)  # every lane spilled


def test_a_lane_that_retires_as_the_slots_move(monkeypatch, rng):
    # the centre (1, 0) has an error norm of 0, so its step grows five-fold
    # each time and it reaches t_end after s steps; with first slots of s + 1
    # rows the lanes that accepted every step fill them in that iteration,
    # after it retired: it moves with exactly its rows, the others into
    # larger slots
    u0, v0, mu, t_end = _grid_starts(rng)
    u0, v0 = [1.0] + u0, [0.0] + v0
    scalar = _scalar_paths(u0, v0, mu, t_end, 1e-10, 1e-10, 10**7)
    s = scalar[0][5]
    assert scalar[0][3] == _kernels.STATUS_OK and s < 10
    assert any(len(_whole(u, v, mu, t_end, 1e-10, 1e-10, 0.01, s)[0]) == s + 1
               for u, v in zip(u0[1:], v0[1:]))
    moves = _slots(monkeypatch, s + 1, _kernels.SLOT_MARGIN)
    lanes, _ = _lanes(monkeypatch, 1, u0, v0, mu, t_end, 1e-10, 1e-10, 10**7)
    _assert_same_paths(lanes, scalar)
    (rows, size), = moves
    assert rows[0] == size[0] == s + 1
    assert all(b > a for a, b in zip(rows[1:], size[1:]))


@pytest.mark.parametrize("mu", [0.0, 0.1])
def test_lanes_still_at_t_0_when_the_slots_move(monkeypatch, rng, mu):
    # a first step of 5 fails on every grid lane, but the centre (1, 0)
    # takes it (its error norm is 0) and fills a 2-row first slot: the
    # lanes still at t = 0 move to slots of twice their rows' room
    u0, v0, _, t_end = _grid_starts(rng)
    u0, v0 = [1.0] + u0, [0.0] + v0
    assert [len(_whole(u, v, mu, t_end, 1e-10, 1e-10, 5.0, 1)[0])
            for u, v in zip(u0, v0)] == [2] + [1] * len(u0[1:])
    scalar = _scalar_paths(u0, v0, mu, t_end, 1e-10, 1e-10, 10**7, 5.0)
    moves = _slots(monkeypatch, 2, _kernels.SLOT_MARGIN)
    lanes, _ = _lanes(monkeypatch, 1, u0, v0, mu, t_end, 1e-10, 1e-10, 10**7, 5.0)
    _assert_same_paths(lanes, scalar)
    (rows, size), = moves
    assert rows == [2] + [1] * len(u0[1:])
    assert size[1:] == [4] * len(u0[1:]) and size[0] > 2


def test_the_step_budget_caps_a_moved_slot(monkeypatch, rng):
    # with first slots of 8 rows the lanes that accepted their first 7
    # steps fill them after step 7, when a budget of 20 has 13 steps left:
    # no slot gets more than 13 rows beyond those it holds, though the
    # rate of any lane asks for more, and every lane stops where the
    # scalar kernel does
    u0, v0, mu, t_end = _grid_starts(rng)
    scalar = _scalar_paths(u0, v0, mu, t_end, 1e-10, 1e-10, 20)
    assert {path[3] for path in scalar} == {_kernels.STATUS_MAX_STEPS}
    assert any(len(_whole(u, v, mu, t_end, 1e-10, 1e-10, 0.01, 7)[0]) == 8
               for u, v in zip(u0, v0))
    moves = _slots(monkeypatch, 8, _kernels.SLOT_MARGIN)
    lanes, _ = _lanes(monkeypatch, 1, u0, v0, mu, t_end, 1e-10, 1e-10, 20)
    _assert_same_paths(lanes, scalar)
    (rows, size), = moves
    assert [s - r for r, s in zip(rows, size)] == [13] * len(u0)


@pytest.mark.parametrize("mu", [0.0, 0.1])
@pytest.mark.parametrize("h0", [5.0, 1.0])
def test_lanes_with_iterations_that_accept_no_lane(monkeypatch, rng, mu, h0):
    # a first step this long fails on every lane, so the first lockstep
    # iterations record an empty part; the paths are still the scalar ones
    u0, v0, _, t_end = _grid_starts(rng)
    assert all(len(_whole(u, v, mu, t_end, 1e-10, 1e-10, h0, 1)[0]) == 1
               for u, v in zip(u0, v0))
    scalar = _scalar_paths(u0, v0, mu, t_end, 1e-10, 1e-10, 10**7, h0)
    lanes, handed_off = _lanes(monkeypatch, 16, u0, v0, mu, t_end, 1e-10, 1e-10,
                               10**7, h0)
    _assert_same_paths(lanes, scalar)
    assert handed_off and min(handed_off) > 0.0


def test_lanes_peak_memory_stays_near_their_output(rng):
    # a 12 x 12 jittered grid of starts over [-2, 2] x [-1.5, 1.5]; the
    # traced peak over the bytes returned was 3.32 with one buffer grown by
    # doubling, a stable argsort and two gathers, 2.55 with each row kept
    # in the arrays of the iteration that accepted it and scattered once
    # into the output (32 bytes a recorded row and 24 an output row), and
    # is 1.43 with each row written once into its lane's slot of one pool:
    # 24 bytes a row, the slots' slack and the first pool, freed when the
    # slots move (numpy 2.4, 2-vCPU Xeon).  The bound is the earlier
    # one: a second copy of every row would cross it
    cell = np.arange(144)
    u0 = (-2.0 + 4.0 * (cell // 12 + rng.uniform(size=144)) / 12).tolist()
    v0 = (-1.5 + 3.0 * (cell % 12 + rng.uniform(size=144)) / 12).tolist()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = _kernels.adaptive_lanes(u0, v0, 0.0, 20.0, 1e-10, 1e-10, 0.01, 10**7)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak / sum(a.nbytes for a in _arrays(out)) < 2.7


# both centres and the origin, with every sign of zero, starts on the axes
# with a signed zero, and duplicates
_ODD_SPECIAL = [
    (1.0, 0.0), (1.0, -0.0), (-1.0, 0.0), (-1.0, -0.0),
    (0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0),
    (0.0, 1.0), (-0.0, 1.0), (0.0, -1.0), (1.3, -0.0), (-0.0, -0.6),
    (0.5, 0.3), (0.5, 0.3), (-0.5, -0.3), (1.0, 0.0),
]


def _odd_corpus(mu, n=24):
    """The special starts and n seeded ones in [-2, 2]^2 at damping mu."""
    rng = np.random.default_rng(int(mu * 10) + 26)
    return _ODD_SPECIAL + [tuple(s) for s in rng.uniform(-2.0, 2.0, (n, 2)).tolist()]


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _assert_mirrored(path, mirror, start):
    """mirror is 0.0 - path after the start row, with the same times and
    (status, h, steps); its start row is start as given."""
    t, u, v, *rest = path
    tm, um, vm, *rest_m = mirror
    assert _bits(tm).tobytes() == _bits(t).tobytes()
    assert (_bits(um[0]), _bits(vm[0])) == (_bits(start[0]), _bits(start[1]))
    for a, b in ((u, um), (v, vm)):
        assert np.array_equal(_bits(0.0 - a[1:]), _bits(b[1:]))
    assert rest_m == rest


@pytest.mark.parametrize("mu", [0.0, 0.1, 0.5])
def test_adaptive_path_is_odd(mu):
    # the field is odd and every kernel operation rounds symmetrically, so
    # the path from -s is the path from s negated, bit for bit: the deck
    # transformation s -> -s of the covering, on which integrate reuses a
    # mirror's lane
    for u0, v0 in _odd_corpus(mu):
        path = _whole(u0, v0, mu, 20.0, 1e-10, 1e-10, 0.01, 10**7)
        mirror = _whole(-u0, -v0, mu, 20.0, 1e-10, 1e-10, 0.01, 10**7)
        _assert_mirrored(path, mirror, (-u0, -v0))


@pytest.mark.parametrize("mu", [0.0, 0.1, 0.5])
def test_adaptive_lanes_are_odd(monkeypatch, mu):
    starts = _odd_corpus(mu)
    assert len(starts) > _kernels.MIN_LANES
    u0, v0 = (list(c) for c in zip(*starts))
    lanes, _ = _lanes(monkeypatch, _kernels.MIN_LANES, u0, v0, mu, 20.0,
                      1e-10, 1e-10, 10**7)
    mirrors, _ = _lanes(monkeypatch, _kernels.MIN_LANES, [-u for u in u0],
                        [-v for v in v0], mu, 20.0, 1e-10, 1e-10, 10**7)
    for path, mirror, (u, v) in zip(lanes, mirrors, starts):
        _assert_mirrored(path, mirror, (-u, -v))


def test_plain_negation_breaks_the_zeros_of_a_mirror():
    # from the centre (1, 0) y stays +0.0; -y is -0.0, but the path from
    # (-1, 0) keeps +0.0, which 0.0 - y gives
    _, _, v, *_ = _whole(1.0, 0.0, 0.0, 5.0, 1e-10, 1e-10, 0.01, 10**7)
    _, _, vm, *_ = _whole(-1.0, 0.0, 0.0, 5.0, 1e-10, 1e-10, 0.01, 10**7)
    assert len(v) > 1 and not np.any(v)
    assert not np.array_equal(_bits(-v[1:]), _bits(vm[1:]))
    assert np.array_equal(_bits(0.0 - v[1:]), _bits(vm[1:]))
