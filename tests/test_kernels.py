import numpy as np
import pytest

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
