import json
import math
import sys

import numpy as np
import pytest

from duffing_aa import OnSeparatrix, actionangle, covering, dynamics, integrate
from duffing_aa.verify import (
    CHECKS,
    FORMULA_COVERAGE,
    CheckReport,
    check_conservation,
    check_dh_dtheta,
    check_energy_rate,
    check_period,
    check_pushforward,
    check_roundtrip,
    check_theta_angle,
    check_theta_dot,
    check_winding,
    PUSHFORWARD_MUS,
    closed_form_period,
    lcg_uniform,
    run_all,
    run_check,
)


def test_pushforward_passes():
    for mu, seed in ((0.0, 42), (0.5, 7)):
        rep = check_pushforward(1000, seed, mus=(mu,))
        assert rep.passed and rep.n_samples == 1000
        assert rep.max_abs_error <= rep.tolerance == 1e-10


def test_pushforward_rejects_bad_n():
    with pytest.raises(ValueError):
        check_pushforward(0, mus=(0.0,))


def test_theta_dot_passes():
    rep = check_theta_dot(1000, seed=1)
    assert rep.passed
    # anchors are appended after the exclusion filter
    assert rep.n_samples >= 2
    assert rep.max_rel_error <= 1e-10


def test_conservation_passes_and_rejects_separatrix():
    rep = check_conservation([-0.2, 0.5], t_max=30.0)
    assert rep.passed and rep.n_samples == 2
    with pytest.raises(OnSeparatrix):
        check_conservation([0.0])


def test_conservation_vacuous():
    rep = check_conservation([])
    assert rep.passed and rep.n_samples == 0
    assert rep.max_abs_error == 0.0


def test_winding_passes_and_rejects_separatrix():
    rep = check_winding([-0.2, 0.5])
    assert rep.passed and rep.n_samples == 2
    with pytest.raises(OnSeparatrix):
        check_winding([0.0])


def test_roundtrip_energy_rate_theta_angle_dh_dtheta():
    assert check_roundtrip(2000, 3).passed
    assert check_energy_rate(2000, 3, mus=(0.3,)).passed
    assert check_theta_angle(2000, 3).passed
    assert check_dh_dtheta(2000, 3, mus=(0.1,)).passed


@pytest.mark.parametrize("check", [check_pushforward, check_energy_rate,
                                   check_dh_dtheta])
@pytest.mark.parametrize("seed", [0, 42])
def test_report_over_the_mus_merges_the_single_mu_reports(check, seed):
    # one report over every mu's samples is the merge of one report a mu:
    # the samples summed, the largest errors, passed only if all passed
    alone = [check(1000, seed, mus=(mu,)) for mu in PUSHFORWARD_MUS]
    assert check(1000, seed) == CheckReport(
        alone[0].name, sum(r.n_samples for r in alone),
        max(r.max_abs_error for r in alone), max(r.max_rel_error for r in alone),
        all(r.passed for r in alone), alone[0].tolerance)


@pytest.mark.parametrize("seed", [2, 44, 49, 53, 54, 60, 75, 84, 91])
def test_dh_dtheta_oracle_survives_cancellation(seed):
    # seeds on which a double grad(H).f, cancelling to -mu*y^2 near y = 0,
    # put the oracle itself off by up to 1.15e-9 relative
    rep = run_check("check_dh_dtheta", seed)
    assert rep.passed and rep.tolerance == 1e-10


def test_reports_are_deterministic():
    a = check_pushforward(500, seed=9, mus=(0.1,))
    b = check_pushforward(500, seed=9, mus=(0.1,))
    assert a == b
    assert run_check("check_theta_dot", seed=5) == run_check("check_theta_dot", seed=5)


def test_lcg_is_stable():
    u = lcg_uniform(42, 4)
    assert u.shape == (4,) and all(0.0 <= v < 1.0 for v in u)
    # frozen stream: any change to the generator is a breaking change
    assert u[0] == lcg_uniform(42, 1)[0]
    assert lcg_uniform(42, 4)[3] == u[3]


def test_ellipk_matches_scipy():
    from scipy.special import ellipk

    from duffing_aa.verify import _ellipk

    for m in (0.0, 1e-12, 0.1, 0.5, 0.9, 0.999999):
        assert abs(_ellipk(m) - ellipk(m)) <= 4e-16 * ellipk(m)


def test_ellipk_stops_once_the_agm_has_converged(monkeypatch):
    # a and b can settle an ulp apart, where a == b never holds: the
    # relative stop ends the AGM after a handful of rounds, not 64
    from duffing_aa.verify import _ellipk

    calls, sqrt = [], math.sqrt
    monkeypatch.setattr(math, "sqrt", lambda v: calls.append(v) or sqrt(v))
    _ellipk(1.0 / 3.0)
    assert len(calls) <= 9


def test_period_check_on_both_sides_of_the_separatrix():
    rep = check_period((-0.2, 0.005, 0.5))
    assert rep.passed and rep.n_samples == 3 and rep.tolerance <= 1e-7
    assert rep.max_rel_error <= 1e-8
    # governed by the relative error: at h = 0.005 (T ~ 16) about 2e-9
    # relative is about 4e-8 absolute
    assert check_period((0.005,), tolerance=1e-8).passed
    # the harmonic limit of a well, period 2pi/sqrt(2)
    harmonic = 2.0 * np.pi / np.sqrt(2.0)
    assert abs(closed_form_period(-0.25 + 1e-12) - harmonic) <= 1e-5
    assert not check_period((-0.2,), tolerance=1e-16).passed
    with pytest.raises(OnSeparatrix):
        check_period((0.0,))


def _scalar_lcg(seed, n):
    # the generator stepped one state at a time, in Python integers
    out = np.empty(n, dtype=np.float64)
    s = seed & ((1 << 64) - 1)
    for i in range(n):
        s = (s * 6364136223846793005 + 1442695040888963407) & ((1 << 64) - 1)
        out[i] = (s >> 11) * 2.0**-53
    return out


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, -12345])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 1000, 1025])
def test_lcg_matches_scalar_loop(seed, n):
    got = lcg_uniform(seed, n)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert got.tobytes() == _scalar_lcg(seed, n).tobytes()


def test_tolerance_override_fails():
    rep = run_check("check_roundtrip", tolerance=1e-16)
    assert not rep.passed and rep.tolerance == 1e-16


def test_run_check_unknown_name():
    with pytest.raises(ValueError, match="unknown check"):
        run_check("check_bogus")


def test_registry_covers_every_formula():
    formulas = {
        "duffing_field", "hamiltonian", "energy_rate",
        "square", "sheet_sign", "principal_root", "covered_field",
        "theta_of", "_unwrap", "theta_dot_of", "_theta_dot_den", "dH_dtheta",
        "find_period",
    }
    assert set(FORMULA_COVERAGE) == formulas
    for formula, checks in FORMULA_COVERAGE.items():
        assert checks, f"{formula} has no check"
        for name in checks:
            assert name in CHECKS, f"{formula} -> {name} is not registered"


def test_every_listed_check_calls_its_formula(monkeypatch):
    # each formula is spied at every binding in the package, so a call
    # through any module counts; a pair listed for a check that never
    # calls the formula could not catch a fault in it
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and name.startswith("duffing_aa.")]
    called = set()
    for formula in FORMULA_COVERAGE:
        fn = next(getattr(m, formula) for m in (dynamics, covering, actionangle, integrate)
                  if hasattr(m, formula))

        def spy(*args, _fn=fn, _formula=formula, **kwargs):
            called.add(_formula)
            return _fn(*args, **kwargs)

        for m in modules:
            if getattr(m, formula, None) is fn:
                monkeypatch.setattr(m, formula, spy)
    for name in CHECKS:
        called.clear()
        CHECKS[name](3)
        for formula, checks in FORMULA_COVERAGE.items():
            if name in checks:
                assert formula in called, f"{name} never calls {formula}"


def test_json_round_trip():
    rep = check_energy_rate(100, 1, mus=(0.2,))
    data = json.loads(rep.to_json())
    assert set(data) == {
        "name", "n_samples", "max_abs_error", "max_rel_error", "passed",
        "tolerance",
    }
    assert data["name"] == "check_energy_rate"
    assert CheckReport(**data) == rep


def test_numpy_numbers_run_checks_as_python_numbers():
    # a float64 tolerance made `passed` a numpy bool, which JSON refused,
    # and an int64 seed overflowed the generator's uint64 arithmetic
    rep = run_check("check_period", tolerance=np.float64(1e-7))
    assert type(rep.passed) is bool and type(rep.tolerance) is float
    assert json.loads(rep.to_json())["passed"] is True
    assert run_check("check_theta_dot", seed=np.int64(5)) == run_check(
        "check_theta_dot", seed=5)


def test_run_all_passes_and_is_ordered():
    reports = run_all()
    assert [r.name for r in reports] == list(CHECKS)
    assert all(r.passed for r in reports)
