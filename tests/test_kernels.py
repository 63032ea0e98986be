import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from duffing_aa import CoveredState, Params, Sheet, State, covered_field, duffing_field
from duffing_aa import _kernels
from duffing_aa.cli import load_scenario


def _whole(field, u0, v0, mu, t_end, rel_tol, abs_tol, h0, max_steps):
    """One adaptive_path call over [0, t_end] with no sample cap."""
    return _kernels.adaptive_path(
        field, u0, v0, mu, 0.0, t_end, rel_tol, abs_tol, h0, max_steps,
        max_steps + 1,
    )


def test_rhs_matches_public_fields(rng):
    for _ in range(300):
        x, y = rng.uniform(-3.0, 3.0, size=2)
        mu = rng.uniform(0.0, 0.5)
        p = Params(mu=mu)
        assert _kernels.rhs(_kernels.FIELD_ORIGINAL, x, y, mu) == duffing_field(
            State(x, y), p
        )
        ku, kv = _kernels.rhs(_kernels.FIELD_COVERED, x, y, mu)
        fu, fv = covered_field(CoveredState(x, y, Sheet.UPPER), p)
        assert abs(ku - fu) <= 1e-15 * max(1.0, abs(fu))
        assert abs(kv - fv) <= 1e-15 * max(1.0, abs(fv))


def test_adaptive_path_reaches_t_end():
    t, u, v, du, dv, status, _, _ = _whole(
        _kernels.FIELD_ORIGINAL, 0.0, 1.0, 0.0, 5.0, 1e-10, 1e-10, 0.01, 10**7
    )
    assert status == _kernels.STATUS_OK
    assert t[0] == 0.0 and t[-1] == 5.0
    assert np.all(np.diff(t) > 0.0)
    assert u.shape == v.shape == du.shape == dv.shape == t.shape


def test_adaptive_path_status_codes():
    *_, status, _, steps = _whole(
        _kernels.FIELD_ORIGINAL, 0.0, 1.0, 0.0, 5.0, 1e-300, 1e-300, 0.01, 10**7
    )
    assert status == _kernels.STATUS_STEP_UNDERFLOW
    *_, status, _, steps = _whole(
        _kernels.FIELD_ORIGINAL, 0.0, 1.0, 0.0, 5.0, 1e-10, 1e-10, 0.01, 5
    )
    assert status == _kernels.STATUS_MAX_STEPS and steps == 5


def _chunked(field, u0, v0, mu, t_end, max_steps, cap):
    """adaptive_path resumed every `cap` samples, the chunks concatenated
    (each resumed chunk repeats the sample that ended the last one)."""
    t0, h, budget, parts = 0.0, 0.01, max_steps, []
    while True:
        *chunk, status, h, used = _kernels.adaptive_path(
            field, u0, v0, mu, t0, t_end, 1e-10, 1e-10, h, budget, cap
        )
        assert used <= budget and len(chunk[0]) <= cap
        budget -= used
        parts.append([a[1:] for a in chunk] if parts else chunk)
        t0, u0, v0 = chunk[0][-1], chunk[1][-1], chunk[2][-1]
        if status != _kernels.STATUS_OK or t0 >= t_end:
            break
    return [np.concatenate(a) for a in zip(*parts)], status, max_steps - budget


@pytest.mark.parametrize("fig", ["fig1", "fig3"])
@pytest.mark.parametrize("cap", [2, 7, 128])
def test_chunked_path_is_bitwise_the_whole_path(fig, cap):
    scn = load_scenario(fig)
    for field in (_kernels.FIELD_ORIGINAL, _kernels.FIELD_COVERED):
        for x, y in scn.initial_states:
            if field == _kernels.FIELD_COVERED:
                x, y = x * x - y * y, 2.0 * x * y
            *whole, status, _, steps = _whole(
                field, x, y, scn.mu, scn.integrator.t_max, 1e-10, 1e-10,
                0.01, 10**7,
            )
            parts, status_c, steps_c = _chunked(
                field, x, y, scn.mu, scn.integrator.t_max, 10**7, cap
            )
            assert status_c == status == _kernels.STATUS_OK and steps_c == steps
            for a, b in zip(parts, whole):
                assert a.tobytes() == b.tobytes()


def test_step_budget_spans_resumptions():
    # the budget left after each pause bounds the next call, so the chunked
    # run fails where the whole run does, after as many attempted steps
    *whole, status, _, steps = _whole(
        _kernels.FIELD_ORIGINAL, 0.0, 1.0, 0.0, 50.0, 1e-10, 1e-10, 0.01, 300
    )
    parts, status_c, steps_c = _chunked(
        _kernels.FIELD_ORIGINAL, 0.0, 1.0, 0.0, 50.0, 300, 16
    )
    assert status == status_c == _kernels.STATUS_MAX_STEPS
    assert steps == steps_c == 300
    assert parts[0].tobytes() == whole[0].tobytes()


def test_numpy_fallback_selected_by_env_flag():
    # the same kernels must run uncompiled when the flag disables numba
    code = textwrap.dedent(
        """
        import numpy as np
        from duffing_aa import _kernels
        assert not _kernels.USING_NUMBA
        t, u, v, du, dv, status, h, steps = _kernels.adaptive_path(
            _kernels.FIELD_ORIGINAL, 0.0, 0.1, 0.0, 0.0, 20.0, 1e-8, 1e-8, 0.01,
            10**6, 10**6 + 1,
        )
        assert status == _kernels.STATUS_OK
        h = u**4 / 4 + v**2 / 2 - u**2 / 2
        print(float(np.max(np.abs(h - h[0]))))
        """
    )
    # the child imports the same duffing_aa, installed or not
    src = os.path.dirname(os.path.dirname(_kernels.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, DUFFING_AA_NUMBA="0", PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert float(out.stdout.strip()) <= 1e-6


def test_backend_flag_parser(monkeypatch):
    for value, expect in (
        ("0", False), ("false", False), ("OFF", False), ("no", False),
        ("1", True), ("on", True), ("", True),
    ):
        monkeypatch.setenv("DUFFING_AA_NUMBA", value)
        assert _kernels._numba_requested() is expect
    monkeypatch.delenv("DUFFING_AA_NUMBA")
    assert _kernels._numba_requested() is True


def _scalar_paths(u0, v0, mu, t_end, rel_tol, abs_tol, max_steps):
    """adaptive_path from every start over [0, t_end], one call each."""
    return [
        _whole(_kernels.FIELD_ORIGINAL, u, v, mu, t_end, rel_tol, abs_tol, 0.01,
               max_steps)
        for u, v in zip(u0, v0)
    ]


def _lanes(monkeypatch, min_lanes, u0, v0, mu, t_end, rel_tol, abs_tol, max_steps):
    """adaptive_lanes with MIN_LANES = min_lanes, split into per-lane
    (t, u, v, du, dv, status, h, steps), plus the start times of the
    adaptive_path calls that finished lanes.  Floating-point errors
    raise, so any that escape the kernel fail the test."""
    monkeypatch.setattr(_kernels, "MIN_LANES", min_lanes)
    handed_off = []
    scalar = _kernels.adaptive_path

    def recorded(*args):
        handed_off.append(args[4])
        return scalar(*args)

    monkeypatch.setattr(_kernels, "adaptive_path", recorded)
    with np.errstate(all="raise"):
        t, z, dz, bounds, status, h, steps = _kernels.adaptive_lanes(
            u0, v0, mu, t_end, rel_tol, abs_tol, 0.01, max_steps
        )
    monkeypatch.setattr(_kernels, "adaptive_path", scalar)
    paths = []
    for k in range(len(u0)):
        rows = slice(bounds[k], bounds[k + 1])
        paths.append((t[rows], z[rows, 0], z[rows, 1], dz[rows, 0], dz[rows, 1],
                      status[k], h[k], steps[k]))
    return paths, handed_off


def _assert_same_paths(lanes, scalar):
    assert len(lanes) == len(scalar)
    for got, want in zip(lanes, scalar):
        for a, b in zip(got[:5], want[:5]):  # t, u, v, du, dv
            assert a.tobytes() == b.tobytes()
        assert got[5:] == want[5:]  # status, h, attempted steps


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
    failed = [k for k, path in enumerate(scalar) if path[5] == want]
    # the step budget lets some orbits finish and stops the others
    assert failed and (failure == "underflow" or len(failed) < len(u0))
    lanes, _ = _lanes(monkeypatch, 20 if handoff else 1, u0, v0, 0.0, 5.0,
                      rel_tol, rel_tol, max_steps)
    _assert_same_paths(lanes, scalar)
