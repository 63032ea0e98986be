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
