"""End-to-end acceptance gates, one test per criterion.

Each test prints a single ``ACCEPTANCE <n> ... PASS`` line once its
assertions hold (run with ``pytest -s tests/test_acceptance.py`` to see
them).  Tolerances are fixed here, not configurable: they are the
contract this package ships under.
"""

import math
from dataclasses import replace

import numpy as np
from scipy.integrate import solve_ivp

from duffing_aa import (
    DEFAULT_CONFIG,
    Params,
    State,
    action_original,
    covered_field,
    find_period,
    hamiltonian,
    integrate_original,
    square,
    state_on_level,
    theta_dot_of,
    unwrap_theta,
)
from duffing_aa.cli import main
from duffing_aa.verify import (
    check_conservation,
    check_pushforward,
    check_theta_dot,
    check_winding,
    lcg_uniform,
)

TWO_PI = 2.0 * math.pi
P0 = Params(mu=0.0)


def _ok(n: int, label: str) -> None:
    print(f"ACCEPTANCE {n} {label}: PASS")


def test_criterion_1_pushforward_identity():
    for mu in (0.0, 0.1, 0.5):
        rep = check_pushforward(10_000, seed=42, tolerance=1e-10, mus=(mu,))
        assert rep.passed, f"mu={mu}: max_abs={rep.max_abs_error}"
    _ok(1, "pushforward identity at 1e-10 for mu in {0, 0.1, 0.5}")


def test_criterion_2_angular_velocity_identity():
    rep = check_theta_dot(10_000, seed=42, tolerance=1e-10)
    assert rep.passed, f"max_rel={rep.max_rel_error}"
    assert abs(theta_dot_of(State(0.0, 1.0)) - (-1.0)) <= 1e-12
    assert abs(theta_dot_of(State(2.0, 0.0)) - (-8.0)) <= 1e-12
    _ok(2, "angular velocity identity at 1e-10; anchors -1 and -8 at 1e-12")


def test_criterion_3_sign_claims():
    u = lcg_uniform(42, 20_000)
    x = -3.0 + 6.0 * u[0::2]
    y = -3.0 + 6.0 * u[1::2]
    keep = (
        (x**2 + y**2 >= 1e-12)
        & ((x - 1.0) ** 2 + y**2 >= 1e-12)
        & ((x + 1.0) ** 2 + y**2 >= 1e-12)
    )
    values = theta_dot_of(State(x[keep], y[keep]))
    assert values.size >= 9_000
    assert np.all(values < 0.0)
    assert theta_dot_of(State(0.0, 0.0)) == 0.0
    _ok(3, "theta' < 0 on 10^4 samples off the exclusion disks; 0 at the origin")


def test_criterion_4_conservation():
    rep = check_conservation([-0.2, 0.005, 0.5], t_max=100.0, tolerance=1e-8)
    assert rep.passed, f"max drift {rep.max_abs_error}"
    _ok(4, "|H drift| <= 1e-8 over t=100 at adaptive tolerance 1e-10")


def test_criterion_5_winding_dichotomy():
    rep = check_winding([-0.2, 0.5], tolerance=1e-6)
    assert rep.passed, f"max err {rep.max_abs_error}"
    for h, turns in ((-0.2, -TWO_PI), (0.5, -2.0 * TWO_PI)):
        s0 = state_on_level(h)
        period = find_period(s0, P0)
        tw = unwrap_theta(integrate_original(s0, P0, replace(DEFAULT_CONFIG, t_max=period)))
        assert abs((tw[-1, 1] - tw[0, 1]) - turns) <= 1e-6
    _ok(5, "winding -2pi (H=-0.2) and -4pi (H=0.5) per period within 1e-6")


def test_criterion_6_smooth_cut_transit():
    s0 = state_on_level(0.5)
    period = find_period(s0, P0)
    cfg = replace(DEFAULT_CONFIG, t_max=3.0 * period)
    orig = integrate_original(s0, P0, cfg)
    toggles = int(np.sum(orig.sheets[1:] != orig.sheets[:-1]))
    assert toggles == 6  # the cut is crossed twice per period, over three
    # oracle: the covered field integrated on its own by scipy's DOP853
    cov = solve_ivp(
        lambda _, z: covered_field(z[0], z[1], P0),
        (0.0, cfg.t_max), square(s0.x, s0.y), method="DOP853", t_eval=orig.t,
        rtol=1e-12, atol=1e-12,
    )
    assert cov.success, cov.message
    worst = float(np.max(np.abs(cov.y.T - orig.covered)))
    assert worst <= 1e-6, worst
    _ok(6, "covered integration matches direct within 1e-6 across 6 cut transits")


def test_criterion_7_small_oscillation_limits():
    s0 = State(1.001, 0.0)
    period = find_period(s0, P0)
    assert abs(period - TWO_PI / math.sqrt(2.0)) <= 1e-2

    h = hamiltonian(s0, P0)
    harmonic = (h + 0.25) / math.sqrt(2.0)
    act = action_original(s0, P0)
    assert abs(act - harmonic) <= 0.05 * harmonic

    h_ref = hamiltonian(State(1.2, 0.0), P0)
    dh = 1e-4
    d_action = (
        action_original(state_on_level(h_ref + dh), P0)
        - action_original(state_on_level(h_ref), P0)
    ) / dh
    t_over = find_period(state_on_level(h_ref), P0) / TWO_PI
    assert abs(d_action - t_over) <= 1e-2 * t_over
    _ok(7, "T -> 2pi/sqrt(2), I -> (H+1/4)/sqrt(2), dI/dH -> T/2pi")


def test_criterion_8_dissipative_monotonicity():
    traj = integrate_original(
        State(0.0, 1.5), Params(mu=0.1), replace(DEFAULT_CONFIG, t_max=50.0)
    )
    tw = unwrap_theta(traj)
    h = traj.energies()
    assert np.all(np.diff(tw[:, 1]) < 0.0)  # theta strictly decreasing
    assert np.all(np.diff(h) <= 0.0)  # H non-increasing
    rng = np.random.default_rng(1)
    i = rng.integers(0, len(h), 200_000)
    j = rng.integers(0, len(h), 200_000)
    assert np.all((h[i] - h[j]) * (tw[i, 1] - tw[j, 1]) >= 0.0)
    _ok(8, "mu=0.1 spiral: theta strictly down, H down, (dH)(dtheta) >= 0")


def test_criterion_9_reproducibility(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for fig in ("fig1", "fig2", "fig3", "fig4"):
        assert main(["run", "--quiet", fig]) == 0
        first = {p.name: p.read_bytes() for p in tmp_path.glob("*.csv")}
        assert main(["run", "--quiet", fig]) == 0
        second = {p.name: p.read_bytes() for p in tmp_path.glob("*.csv")}
        assert first == second, f"{fig}: CSV bytes changed between runs"
        for p in tmp_path.iterdir():
            p.unlink()
    assert main(["verify"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert all('"passed": true' in line for line in out)
    _ok(9, "bundled scenarios byte-identical across runs; verify exits 0")
