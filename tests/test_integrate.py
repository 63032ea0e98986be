import math
import time
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from duffing_aa import (
    CUT_CROSSING,
    DEFAULT_CONFIG,
    CoveredState,
    DegenerateCrossing,
    IntegratorConfig,
    MaxStepsExceeded,
    NoReturn,
    OnSeparatrix,
    Params,
    Sheet,
    State,
    StepFailure,
    cover_map,
    covered_field,
    find_period,
    hamiltonian,
    integrate_original,
    state_on_level,
)
from duffing_aa.covering import principal_root
from duffing_aa.integrate import integrate_original_orbits
from duffing_aa import _kernels, integrate, verify
from duffing_aa.cli import load_scenario


def dense_at(traj, tq):
    """The Hermite dense output of an original-plane trajectory at time
    tq in [t[0], t[-1]], on the step that holds it."""
    k = int(np.searchsorted(traj.t, tq, side="right")) - 1
    k = min(max(k, 0), len(traj) - 2)
    at = integrate.hermite_steps(traj.t, traj.states, traj.params.mu, np.array([k]))
    u, v = at(0, tq)
    return float(u), float(v)


def covered_reference(s0, p, t):
    """The covered-plane flow from the image of s0, sampled at times t: an
    independent integration of covering.covered_field by scipy's DOP853."""
    c0 = cover_map(s0)
    sol = solve_ivp(
        lambda _, z: covered_field(CoveredState(z[0], z[1], c0.sheet), p),
        (t[0], t[-1]), [c0.x1, c0.y1], method="DOP853", t_eval=t,
        rtol=1e-12, atol=1e-12,
    )
    assert sol.success, sol.message
    return sol.y.T


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler")
    with pytest.raises(ValueError):
        IntegratorConfig(step=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=-1e-10)
    with pytest.raises(ValueError):
        IntegratorConfig(t_max=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(max_steps=0)
    # the adaptive kernel's smallest step bounds step and t_max, either method
    for method in ("rk4", "rk45"):
        with pytest.raises(ValueError, match="step"):
            IntegratorConfig(method=method, step=1e-20)
        with pytest.raises(ValueError, match="t_max"):
            IntegratorConfig(method=method, t_max=1e-15)
        IntegratorConfig(method=method, step=_kernels.MIN_STEP, t_max=_kernels.MIN_STEP)


def test_fixed_points_stay_put(p0, p_damped):
    cfg = replace(DEFAULT_CONFIG, t_max=10.0)
    for s0, p in ((State(0.0, 0.0), p0), (State(1.0, 0.0), p_damped)):
        traj = integrate_original(s0, p, cfg)
        assert np.max(np.abs(traj.states - np.array(s0))) <= 1e-12
    traj = integrate_original(State(1.0, 0.0), p0, cfg)
    assert np.max(np.abs(traj.covered - np.array([1.0, 0.0]))) <= 1e-12


def test_conservation_near_separatrix(p0):
    traj = integrate_original(State(0.0, 0.1), p0, DEFAULT_CONFIG)
    h0 = hamiltonian(State(0.0, 0.1), p0)
    assert abs(h0 - 0.005) <= 1e-17
    assert np.max(np.abs(traj.energies() - h0)) <= 1e-8


def test_rk4_order():
    # halving the step must shrink the one-period endpoint error ~2^4
    p = Params(mu=0.0)
    s0 = State(1.2, 0.0)
    period = find_period(s0, p)
    ref = integrate_original(
        s0, p, replace(DEFAULT_CONFIG, t_max=period, rel_tol=1e-12, abs_tol=1e-12)
    ).states[-1]

    def endpoint_error(h):
        cfg = IntegratorConfig(method="rk4", step=h, t_max=period)
        end = integrate_original(s0, p, cfg).states[-1]
        return float(np.max(np.abs(end - ref)))

    h = period / 200.0
    ratio = endpoint_error(h) / endpoint_error(h / 2.0)
    assert 12.0 <= ratio <= 20.0, ratio


def test_rk4_nodes_are_uniform():
    cfg = IntegratorConfig(method="rk4", step=0.1, t_max=1.0)
    traj = integrate_original(State(0.0, 0.1), Params(), cfg)
    assert len(traj) == 11
    assert traj.t[-1] == 1.0
    np.testing.assert_allclose(np.diff(traj.t), 0.1, atol=1e-12)


def test_cross_integration_equivalence(p0):
    # the pushed-forward flow closes: integrating the covered field gives
    # the images of the original-plane samples
    for h in (-0.2, 0.005, 0.5):
        s0 = state_on_level(h)
        period = find_period(s0, p0)
        orig = integrate_original(s0, p0, replace(DEFAULT_CONFIG, t_max=period))
        worst = np.max(np.abs(covered_reference(s0, p0, orig.t) - orig.covered))
        assert worst <= 1e-6, f"h={h}: {worst}"


def test_cut_crossings_twice_per_period(p0):
    # outer orbits pass the y-axis twice per revolution; margin of a
    # quarter period keeps the count away from endpoint coincidences
    s0 = State(0.0, 2.0)
    period = find_period(s0, p0)
    traj = integrate_original(s0, p0, replace(DEFAULT_CONFIG, t_max=2.25 * period))
    cuts = [e for e in traj.events if e.kind == CUT_CROSSING]
    assert len(cuts) == 4
    for e in cuts:
        assert e.data["x1"] < 0.0


def test_no_crossings_inside_well(p0):
    traj = integrate_original(State(1.2, 0.0), p0, replace(DEFAULT_CONFIG, t_max=20.0))
    assert traj.events == ()
    assert np.all(traj.sheets == 1)


def test_sheet_toggles_match_events(p0):
    traj = integrate_original(
        State(0.0, 2.0), p0, replace(DEFAULT_CONFIG, t_max=10.0)
    )
    cuts = [e for e in traj.events if e.kind == CUT_CROSSING]
    toggles = int(np.sum(traj.sheets[1:] != traj.sheets[:-1]))
    assert toggles == len(cuts)


def test_evolved_sheet_matches_pointwise_tag(p0):
    # away from the axis, the evolved tag must agree with sign(x)
    traj = integrate_original(
        State(0.0, 2.0), p0, replace(DEFAULT_CONFIG, t_max=10.0)
    )
    x = traj.states[:, 0]
    mask = np.abs(x) > 1e-12
    assert np.array_equal(traj.sheets[mask], np.sign(x[mask]).astype(np.int8))


def test_reconstruction_is_continuous(p0):
    # the evolved sheet picks each sample's preimage of its covered image;
    # a wrong sheet would reflect a sample to its negative, an O(1) error
    traj = integrate_original(
        State(0.0, 2.0), p0, replace(DEFAULT_CONFIG, t_max=10.0)
    )
    root = np.column_stack(principal_root(traj.covered[:, 0], traj.covered[:, 1]))
    assert np.max(np.abs(traj.sheets[:, None] * root - traj.states)) <= 1e-12


def test_covered_samples_are_images(p0):
    traj = integrate_original(
        State(0.0, 1.5), p0, replace(DEFAULT_CONFIG, t_max=10.0)
    )
    x, y = traj.states[:, 0], traj.states[:, 1]
    np.testing.assert_allclose(traj.covered[:, 0], x * x - y * y, atol=1e-14)
    np.testing.assert_allclose(traj.covered[:, 1], 2.0 * x * y, atol=1e-14)


def test_dense_output_matches_nodes_and_midpoints(p0):
    traj = integrate_original(State(0.0, 0.1), p0, replace(DEFAULT_CONFIG, t_max=20.0))
    for i in (0, len(traj) // 2, len(traj) - 1):
        u, v = dense_at(traj, float(traj.t[i]))
        assert (u, v) == (traj.states[i, 0], traj.states[i, 1])
    ref = integrate_original(
        State(0.0, 0.1), p0,
        replace(DEFAULT_CONFIG, t_max=20.0, rel_tol=1e-12, abs_tol=1e-12),
    )
    for tq in np.linspace(0.37, 19.63, 40):
        u, v = dense_at(traj, float(tq))
        ru, rv = dense_at(ref, float(tq))
        assert abs(u - ru) <= 1e-6 and abs(v - rv) <= 1e-6


def test_find_period_small_oscillation(p0):
    period = find_period(State(1.001, 0.0), p0)
    assert abs(period - 2.0 * math.pi / math.sqrt(2.0)) <= 1e-2


def test_find_period_conserves_energy(p0):
    s0 = State(0.0, 0.1)
    period = find_period(s0, p0)
    assert 0.0 < period < 100.0
    traj = integrate_original(s0, p0, replace(DEFAULT_CONFIG, t_max=period))
    end = State(*traj.states[-1])
    assert abs(hamiltonian(end, p0) - hamiltonian(s0, p0)) <= 1e-8
    # and the endpoint is back at the start
    assert abs(end.x - s0.x) <= 1e-6 and abs(end.y - s0.y) <= 1e-6


def test_find_period_errors(p0):
    with pytest.raises(OnSeparatrix):
        find_period(State(math.sqrt(2.0), 0.0), p0)
    with pytest.raises(OnSeparatrix):
        find_period(State(0.0, 0.0), p0)
    with pytest.raises(ValueError):
        find_period(State(1.2, 0.0), Params(mu=0.1))
    with pytest.raises(NoReturn):
        find_period(State(1.0, 0.0), p0)  # fixed point, off the separatrix
    with pytest.raises(NoReturn):
        find_period(State(0.0, 0.1), p0, replace(DEFAULT_CONFIG, t_max=1.0))


def section_returns(traj):
    """The section return times of an original-plane trajectory, located
    on its own path as find_period locates them."""
    dense = partial(integrate.hermite_steps, traj.t, traj.states, traj.params.mu)
    return integrate._section_crossings(traj.t, traj.states[:, 1], dense).tolist()


def _full_horizon_period(s0, p, cfg=DEFAULT_CONFIG):
    """The first later section return crossed in the direction of the
    first, on a full-horizon path; a start on the section is a return at
    t = 0 heading sign(x - x^3).  Directions are read off the samples, the
    sign of y after each flip, so this checks find_period's alternation."""
    traj = integrate_original(s0, p, cfg)
    times = section_returns(traj)
    signs = np.sign(traj.states[:, 1])
    signs = signs[signs != 0.0]
    directions = signs[1:][signs[1:] != signs[:-1]].tolist()
    if s0.y == 0.0:
        times = [0.0] + times
        directions = [np.sign(s0.x - s0.x**3)] + directions
    assert len(times) == len(directions)
    return next(t - times[0] for t, d in zip(times[1:], directions[1:])
                if d == directions[0])


def test_find_period_equals_full_horizon_selection(closed_orbit_start, p0):
    s0 = closed_orbit_start
    assert find_period(s0, p0) == _full_horizon_period(s0, p0)


def test_find_period_stops_after_one_period(closed_orbit_start, p0, kernel_samples):
    s0 = closed_orbit_start
    period = find_period(s0, p0)  # the fixture starts from an empty memo
    drawn = sum(kernel_samples)
    one = len(integrate_original(s0, p0, replace(DEFAULT_CONFIG, t_max=period)))
    assert drawn < 2 * one + integrate._CHUNK_SAMPLES
    with pytest.raises(MaxStepsExceeded):
        find_period(s0, p0, replace(DEFAULT_CONFIG, max_steps=one // 2))
    with pytest.raises(NoReturn):
        find_period(s0, p0, replace(DEFAULT_CONFIG, t_max=period / 4.0))


@pytest.mark.parametrize("h", verify.PERIOD_LEVELS)
def test_one_period_is_a_prefix_of_integrate_original(p0, h):
    # the two ways into the scalar kernel, _run_kernel's chunks and the
    # lanes' hand-off, take the same steps: the samples before the period
    # (the last point is the dense output at it) lead the full path
    s0 = state_on_level(h)
    _, x, y = integrate._one_period(s0, p0, DEFAULT_CONFIG)
    full = integrate_original(s0, p0, DEFAULT_CONFIG)
    n = len(x) - 1
    assert n > 1 and len(full) > n
    assert full.states[:n, 0].tobytes() == x[:n].tobytes()
    assert full.states[:n, 1].tobytes() == y[:n].tobytes()


def test_period_stop_counts_flips_across_exact_zeros():
    # flips across exact zeros count once; find_period stops once the path
    # so far holds 3 - [start on the section] flips of y, and it reads
    # every prefix of the path, so each prefix is checked
    y = np.array([0.5, 0.0, -0.5, 0.5, 0.0, 0.0, -0.5])
    assert integrate._sign_flips(y).tolist() == [0, 2, 3]
    assert integrate._sign_flips(np.array([0.0, 0.0, 0.5, 0.0])).size == 0

    def stops(on_section, y):
        return [integrate._sign_flips(y[:n]).size >= 3 - on_section
                for n in range(1, len(y) + 1)]

    # returns 0, 1 and 2 are the three flips
    assert stops(False, y) == [False] * 6 + [True]
    # a start on the section is return 0: two more flips end the period
    assert stops(True, y[2:]) == [False] * 4 + [True]


def test_section_events_recorded(p0):
    traj = integrate_original(
        State(1.2, 0.0), p0, replace(DEFAULT_CONFIG, t_max=20.0)
    )
    returns = section_returns(traj)
    assert returns
    assert returns == sorted(returns)
    for t_star in returns:
        # refined section times sit on the section to 1e-10
        _, y_at = dense_at(traj, t_star)
        assert abs(y_at) <= 1e-10


def test_step_failure():
    cfg = replace(DEFAULT_CONFIG, rel_tol=1e-300, abs_tol=1e-300, t_max=1.0)
    with pytest.raises(StepFailure):
        integrate_original(State(0.0, 1.0), Params(), cfg)


def test_max_steps_exceeded():
    cfg = replace(DEFAULT_CONFIG, max_steps=10)
    with pytest.raises(MaxStepsExceeded):
        integrate_original(State(0.0, 1.0), Params(), cfg)
    with pytest.raises(MaxStepsExceeded):
        integrate_original(
            State(0.0, 1.0), Params(), IntegratorConfig(method="rk4", max_steps=10)
        )


def test_trajectory_is_frozen(p0):
    traj = integrate_original(State(0.0, 1.0), p0, replace(DEFAULT_CONFIG, t_max=1.0))
    with pytest.raises(ValueError):
        traj.states[0, 0] = 99.0
    with pytest.raises(ValueError):
        traj.t[0] = -1.0


def test_trajectory_keeps_no_spare_kernel_buffer():
    # the kernels grow their buffers by doubling; a trajectory's times must
    # not keep such a buffer alive for the few samples it holds
    traj = integrate_original(State(0.5, 0.2), Params(), IntegratorConfig(t_max=20.0))
    owner = traj.t
    while owner.base is not None:
        owner = owner.base
    assert owner.shape == (len(traj),)


def test_time_strictly_increasing(p0):
    traj = integrate_original(State(0.0, 1.5), p0, replace(DEFAULT_CONFIG, t_max=30.0))
    assert np.all(np.diff(traj.t) > 0.0)
    assert traj.t[0] == 0.0 and traj.t[-1] == 30.0


def test_nonfinite_state_fails_fast():
    # stages overflow to NaN at once; the default budget of 10^7 steps
    # must not be spent before the failure is reported
    t0 = time.perf_counter()
    with pytest.raises(StepFailure, match="non-finite"):
        integrate_original(State(1e200, 0.0), Params())
    assert time.perf_counter() - t0 < 1.0


def test_rk4_nonfinite_state_fails_fast():
    # the fixed-step loop must not return NaN samples without an error
    with pytest.raises(StepFailure, match="non-finite"):
        integrate_original(
            State(1e200, 0.0), Params(), IntegratorConfig(method="rk4", t_max=10.0)
        )
    t, u, v, status = _kernels.rk4_path(1e200, 0.0, 0.0, 10.0, 0.01, 10**7)
    assert status == _kernels.STATUS_NONFINITE
    assert t.tolist() == [0.0] and u.tolist() == [1e200]


def _assert_same_trajectory(a, b):
    for name in ("t", "states", "covered", "sheets"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert (a.events, a.params, a.config) == (b.events, b.params, b.config)


def _run_orbits(orbits, n):
    """The trajectories an iterator yields for n orbits, and the exception
    that stopped it (None if none did)."""
    got = []
    try:
        for _ in range(n):
            got.append(next(orbits))
    except Exception as e:  # the failure itself is what is compared
        return got, e
    return got, None


def _one_at_a_time(states, p, cfg):
    return _run_orbits((integrate_original(s0, p, cfg) for s0 in states), len(states))


@pytest.mark.parametrize("method", ["rk45", "rk4"])
def test_orbits_are_integrate_original_one_at_a_time(rng, method):
    # more orbits than MIN_LANES, so rk45 steps them in lockstep
    n = _kernels.MIN_LANES + 8
    states = [State(x, y) for x, y in zip(rng.uniform(-2.0, 2.0, n),
                                           rng.uniform(-1.5, 1.5, n))]
    p = Params(mu=0.1)
    cfg = IntegratorConfig(method=method, t_max=5.0)
    got, error = _run_orbits(integrate_original_orbits(states, p, cfg), n)
    want, _ = _one_at_a_time(states, p, cfg)
    assert error is None and len(got) == n
    for a, b in zip(got, want):
        _assert_same_trajectory(a, b)


@pytest.mark.parametrize(
    "bad, cfg, failure",
    [
        (State(1e200, 0.0), IntegratorConfig(t_max=5.0), StepFailure),
        (State(math.nan, 0.0), IntegratorConfig(t_max=5.0), ValueError),
        (None, IntegratorConfig(t_max=5.0, max_steps=150), MaxStepsExceeded),
        (None, IntegratorConfig(t_max=5.0, rel_tol=1e-300, abs_tol=1e-300),
         StepFailure),
    ],
    ids=["overflow", "nonfinite-start", "max-steps", "step-underflow"],
)
def test_orbits_fail_where_integrate_original_fails(rng, bad, cfg, failure):
    # orbit k's own exception, with its message, once orbits 0..k-1 are out;
    # a non-finite start is a bad input, not a failed integration
    n = _kernels.MIN_LANES + 8
    states = [State(x, y) for x, y in zip(rng.uniform(-2.0, 2.0, n),
                                           rng.uniform(-1.5, 1.5, n))]
    if bad is not None:
        states[17] = bad
    got, error = _run_orbits(integrate_original_orbits(states, Params(), cfg), n)
    want, want_error = _one_at_a_time(states, Params(), cfg)
    assert want_error is not None and len(got) == len(want) < n
    assert type(error) is type(want_error) is failure
    assert str(error) == str(want_error)
    for a, b in zip(got, want):
        _assert_same_trajectory(a, b)


# ---------------------------------------------------------------- locator


def hermite(t, pts, slopes, ks):
    """hermite_steps' cubic Hermite dense output of a synthetic path on its
    steps ks, with the given node slopes instead of the field."""

    def at(j, tq):
        k = ks[j]
        h = (t[k + 1] - t[k])[..., None]
        s = (tq - t[k])[..., None] / h
        s2 = s * s
        s3 = s2 * s
        w = (
            (2.0 * s3 - 3.0 * s2 + 1.0) * pts[k]
            + (s3 - 2.0 * s2 + s) * h * slopes[k]
            + (-2.0 * s3 + 3.0 * s2) * pts[k + 1]
            + (s3 - s2) * h * slopes[k + 1]
        )
        return w[..., 0], w[..., 1]

    return at


def cut_events(x1, y1, t=None):
    """(event times, event x1, toggle indices) of a synthetic covered path
    through the given samples; node slopes from np.gradient, so a
    two-sample path is the straight segment between them."""
    x1 = np.asarray(x1, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    t = np.arange(x1.size, dtype=float) if t is None else np.asarray(t, float)
    pts = np.column_stack((x1, y1))
    slopes = np.gradient(pts, t, axis=0)
    events, toggles, degenerate = integrate._cut_crossings(
        t, y1, partial(hermite, t, pts, slopes), [0, t.size]
    )
    if degenerate:
        raise degenerate[0]
    return [e.t for e in events], [e.data["x1"] for e in events], toggles.tolist()


def test_cut_locator_examples():
    assert cut_events([-1.0, -1.0], [0.5, -0.5]) == ([0.5], [-1.0], [1])
    assert cut_events([1.0, 1.0], [0.5, -0.5]) == ([], [], [])  # x1 > 0
    assert cut_events([-1.0, -1.0], [0.3, 0.1]) == ([], [], [])


def test_cut_locator_half_open():
    # a sample exactly on the cut belongs to the destination sheet: the
    # crossing is that sample, and the toggled sheet applies from it on
    assert cut_events([-1.0] * 3, [-0.5, 0.0, 0.5]) == ([1.0], [-1.0], [1])
    # a trailing sample on the cut toggles there too
    assert cut_events([-1.0] * 2, [-0.5, 0.0]) == ([1.0], [-1.0], [1])
    # a path launched on the cut keeps its launch tag
    assert cut_events([-1.0] * 2, [0.0, 0.5]) == ([], [], [])
    # touching the cut without crossing it is no transit
    assert cut_events([-1.0] * 3, [0.5, 0.0, 0.5]) == ([], [], [])
    # a zero on the positive x1-axis is not on the cut
    assert cut_events([1.0] * 3, [-0.5, 0.0, 0.5]) == ([], [], [])


def test_cut_locator_interpolates():
    (t_star,), (x1_star,), toggles = cut_events([-2.0, -1.0], [1.0, -3.0])
    assert toggles == [1]
    assert abs(t_star - 0.25) <= 1e-12 / 4.0 + 1e-15
    assert abs(x1_star + 1.75) <= 1e-12


def test_cut_locator_subnormal_values():
    # opposite signs whose product underflows still count as a crossing
    for tiny in (1e-200, 5e-324):
        times, _, toggles = cut_events([-1.0, -1.0], [tiny, -tiny])
        assert toggles == [1] and 0.0 <= times[0] <= 1.0


def test_cut_locator_degenerate():
    with pytest.raises(DegenerateCrossing):
        cut_events([-0.5, 0.5], [0.1, -0.1])
    with pytest.raises(DegenerateCrossing):
        cut_events([-1.0, 0.0], [0.5, 0.0])  # trailing sample at the branch point


def lane_cut_events(lanes):
    """cut_events of synthetic covered paths (x1, y1), located together as
    the lanes of one batch; per lane, (event times, event x1, toggle
    indices within the lane)."""
    ts, pts, slopes, bounds = [], [], [], [0]
    for x1, y1 in lanes:
        t = np.arange(len(x1), dtype=float)
        lane = np.column_stack((x1, y1)).astype(float)
        ts.append(t)
        pts.append(lane)
        slopes.append(np.gradient(lane, t, axis=0))
        bounds.append(bounds[-1] + t.size)
    t, pts, slopes = (np.concatenate(a) for a in (ts, pts, slopes))
    events, toggles, degenerate = integrate._cut_crossings(
        t, pts[:, 1], partial(hermite, t, pts, slopes), bounds
    )
    assert not degenerate
    firsts = np.searchsorted(toggles, bounds).tolist()
    return [
        ([e.t for e in events[on:off]], [e.data["x1"] for e in events[on:off]],
         (toggles[on:off] - start).tolist())
        for on, off, start in zip(firsts, firsts[1:], bounds)
    ]


def test_batched_cut_locator_brackets_within_lanes():
    # read as one path, the samples cross the cut five times, four of them
    # between a lane's last sample and the next lane's first (one of those
    # past lane 3's start on the cut); as lanes, only lane 4 crosses
    lanes = [
        ([-1.0, -1.0], [0.5, 0.5]), ([-1.0, -1.0], [-0.5, -0.5]),
        ([-1.0, -1.0], [0.5, 0.5]), ([-1.0, -1.0], [0.0, -0.5]),
        ([-1.0, -1.0], [0.5, -0.5]),
    ]
    assert lane_cut_events(lanes) == [([], [], [])] * 4 + [([0.5], [-1.0], [1])]
    assert lane_cut_events(lanes) == [cut_events(*lane) for lane in lanes]
    x1, y1 = (np.concatenate(c) for c in zip(*lanes))
    assert len(cut_events(x1, y1)[0]) == 5


def test_batched_cut_locator_trailing_sample_per_lane():
    # a trailing sample on the cut toggles in every lane that ends on it,
    # not only in the last lane of the batch
    lanes = [
        ([-1.0, -1.0], [-0.5, 0.0]), ([-1.0, -1.0], [-0.5, 0.0]),
        ([-1.0, -1.0], [0.0, 0.0]), ([-1.0] * 3, [0.5, 0.5, 0.0]),
        ([-1.0, -1.0], [0.5, 0.5]),
    ]
    assert lane_cut_events(lanes) == [
        ([1.0], [-1.0], [1]), ([1.0], [-1.0], [1]), ([], [], []),
        ([2.0], [-1.0], [2]), ([], [], []),
    ]
    assert lane_cut_events(lanes) == [cut_events(*lane) for lane in lanes]


def test_degenerate_crossing_raised_when_its_orbit_is_due(monkeypatch):
    # no orbit of a short run meets the cut within 1e-12 of the branch
    # point, so the test widens the branch tolerance to 0.05: the y1 flips
    # of the small orbits about (1, 0) lie at x1 > 0.4, those of orbit #17
    # at its turning point x1 = 0.04
    monkeypatch.setattr(integrate, "BRANCH_CUT_TOL", 0.05)
    n, k = _kernels.MIN_LANES + 8, 17
    rng = np.random.default_rng(3)
    states = [State(x, y) for x, y in zip(rng.uniform(0.8, 1.2, n),
                                           rng.uniform(-0.2, 0.2, n))]
    states[k] = State(0.2, 0.0)
    cfg = IntegratorConfig(t_max=20.0)
    got, error = _run_orbits(integrate_original_orbits(states, Params(), cfg), n)
    want, want_error = _one_at_a_time(states, Params(), cfg)
    assert len(got) == len(want) == k
    assert type(error) is type(want_error) is DegenerateCrossing
    assert str(error) == str(want_error)
    for a, b in zip(got, want):
        _assert_same_trajectory(a, b)


def test_locate_roots_tolerances():
    # brackets refined together: one already at its root, one curved, and
    # one too steep for |g| <= tol, which must stop on the width instead
    g = [lambda tq: tq - 0.3, lambda tq: np.cbrt(tq - 0.7),
         lambda tq: 1e20 * (tq - 1.0 / 3.0)]

    def f(j, tq):
        return np.array([g[i](t) for i, t in zip(j, tq)])

    a = np.zeros(3)
    b = np.array([0.3, 1.0, 1.0])
    roots = integrate.locate_roots(f, a, b, f([0, 1, 2], a), f([0, 1, 2], b), 1e-12)
    assert roots[0] == 0.3
    assert abs(g[1](roots[1])) <= 1e-12
    assert abs(roots[2] - 1.0 / 3.0) <= 4e-15


def _bisect_reference(dense, t, g, plane_to_g, tol):
    """The scalar sign walk and bisection the locator replaced, kept as the
    reference.  plane_to_g maps a dense-output point to (abscissa, g);
    returns (first sample after the flip, refined time, abscissa there)
    for every sign flip of the sampled g."""
    out = []
    prev_sign, prev_idx = 0, -1
    for i in range(t.shape[0]):
        s = int(np.sign(g[i]))
        if s == 0:
            continue
        if prev_sign != 0 and s != prev_sign:
            a, b = t[prev_idx], t[i]
            m = 0.5 * (a + b)
            xm, gm = plane_to_g(*dense(m))
            for _ in range(200):
                if abs(gm) <= tol or (b - a) <= 1e-15 * (1.0 + abs(b)):
                    break
                if np.sign(gm) == prev_sign:
                    a = m
                else:
                    b = m
                m = 0.5 * (a + b)
                xm, gm = plane_to_g(*dense(m))
            out.append((prev_idx + 1, m, xm))
        prev_sign, prev_idx = s, i
    return out


def _reference_orbits():
    orbits = []
    for name in ("fig1", "fig2", "fig3", "fig4"):
        scn = load_scenario(name)
        p = Params(mu=scn.mu, c=scn.c)
        orbits += [(s0, p, scn.integrator) for s0 in scn.initial_states]
    rng = np.random.default_rng(7)
    cfg = replace(DEFAULT_CONFIG, t_max=15.0)
    for mu in (0.0, 0.05):
        for x, y in rng.uniform(-2.0, 2.0, size=(12, 2)):
            orbits.append((State(float(x), float(y)), Params(mu=mu), cfg))
    return orbits


def test_locator_matches_scalar_bisection():
    def covered(u, v):
        return u * u - v * v, 2.0 * u * v

    for s0, p, cfg in _reference_orbits():
        traj = integrate_original(s0, p, cfg)
        dense = partial(dense_at, traj)
        toggles = list(np.flatnonzero(traj.sheets[1:] != traj.sheets[:-1]) + 1)
        ref = _bisect_reference(dense, traj.t, traj.covered[:, 1], covered, 1e-12)
        assert toggles == [k for k, _, x1 in ref if x1 < 0.0], s0
        cuts = [e for e in traj.events if e.kind == CUT_CROSSING]
        assert len(cuts) == len(toggles)
        for e, (_, t_ref, _) in zip(cuts, (r for r in ref if r[2] < 0.0)):
            x1, y1 = covered(*dense(e.t))
            assert abs(y1) <= 1e-12 and x1 < 0.0
            assert abs(e.t - t_ref) <= 1e-9
        sections = section_returns(traj)
        ref = _bisect_reference(
            dense, traj.t, traj.states[:, 1], lambda u, v: (u, v), 1e-10
        )
        assert len(sections) == len(ref)
        for t_star, (_, t_ref, _) in zip(sections, ref):
            assert abs(dense(t_star)[1]) <= 1e-10
            assert abs(t_star - t_ref) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(
    x=st.floats(-2.0, 2.0),
    y=st.floats(-2.0, 2.0),
    mu=st.sampled_from((0.0, 0.1)),
)
@example(x=0.0, y=1.0, mu=0.0)  # launched on the cut
def test_sheet_parity_equals_cut_count(x, y, mu):
    try:
        traj = integrate_original(
            State(x, y), Params(mu=mu), replace(DEFAULT_CONFIG, t_max=8.0)
        )
    except DegenerateCrossing:
        assume(False)
    c0 = cover_map(State(x, y))
    assert traj.states[0].tolist() == [x, y]
    assert traj.covered[0].tolist() == [c0.x1, c0.y1]
    assert int(traj.sheets[0]) == (1 if c0.sheet is Sheet.UPPER else -1)
    cuts = sum(e.kind == CUT_CROSSING for e in traj.events)
    assert int(traj.sheets[-1]) == int(traj.sheets[0]) * (-1) ** cuts
    assert int(np.sum(traj.sheets[1:] != traj.sheets[:-1])) == cuts
