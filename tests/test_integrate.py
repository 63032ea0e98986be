import itertools
import math
import time
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from duffing_aa import (
    DEFAULT_CONFIG,
    IntegratorConfig,
    MaxStepsExceeded,
    NoReturn,
    OnSeparatrix,
    Params,
    State,
    StepFailure,
    covered_field,
    find_period,
    hamiltonian,
    integrate_original,
    state_on_level,
)
from duffing_aa.covering import principal_root, sheet_sign, square
from duffing_aa.integrate import Trajectory, integrate_original_orbits
from duffing_aa import _kernels, covering, integrate, verify
from duffing_aa.cli import load_scenario


def dense_at(traj, tq):
    """The Hermite dense output of an original-plane trajectory at time
    tq in [t[0], t[-1]], on the step that holds it."""
    k = int(np.searchsorted(traj.t, tq, side="right")) - 1
    k = min(max(k, 0), len(traj) - 2)
    return integrate.hermite_step(traj.t, *traj.states.T, traj.params.mu, k)(tq)


def covered_reference(s0, p, t):
    """The covered-plane flow from the image of s0, sampled at times t: an
    independent integration of covering.covered_field by scipy's DOP853."""
    sol = solve_ivp(
        lambda _, z: covered_field(z[0], z[1], p),
        (t[0], t[-1]), square(s0.x, s0.y), method="DOP853", t_eval=t,
        rtol=1e-12, atol=1e-12,
    )
    assert sol.success, sol.message
    return sol.y.T


def test_config_validation():
    with pytest.raises(TypeError):  # rk45 is the only stepper
        IntegratorConfig(method="rk45")
    with pytest.raises(ValueError):
        IntegratorConfig(step=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=-1e-10)
    with pytest.raises(ValueError):
        IntegratorConfig(t_max=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(max_steps=0)
    # the adaptive kernel's smallest step bounds step and t_max
    with pytest.raises(ValueError, match="step"):
        IntegratorConfig(step=1e-20)
    with pytest.raises(ValueError, match="t_max"):
        IntegratorConfig(t_max=1e-15)
    IntegratorConfig(step=_kernels.MIN_STEP, t_max=_kernels.MIN_STEP)


def test_a_float32_config_integrates_in_float64(p0):
    # a numpy float32 step equal to 0.5 is 0.5: the kernel runs in float64
    # (it ran in float32, 2.8e-7 off, above check_period's 1e-7)
    s0 = state_on_level(0.3)
    want = find_period(s0, p0, replace(DEFAULT_CONFIG, step=0.5))
    integrate._last_orbit = None
    cfg = replace(DEFAULT_CONFIG, step=np.float32(0.5))
    assert type(cfg.step) is float
    assert find_period(s0, p0, cfg).hex() == want.hex()


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


def test_cross_integration_equivalence(p0):
    # the pushed-forward flow closes: integrating the covered field gives
    # the images of the original-plane samples
    for h in (-0.2, 0.005, 0.5):
        s0 = state_on_level(h)
        period = find_period(s0, p0)
        orig = integrate_original(s0, p0, replace(DEFAULT_CONFIG, t_max=period))
        worst = np.max(np.abs(covered_reference(s0, p0, orig.t) - orig.covered))
        assert worst <= 1e-6, f"h={h}: {worst}"


def sheet_toggles(traj):
    """The samples k whose sheet differs from that of sample k - 1."""
    return np.flatnonzero(traj.sheets[1:] != traj.sheets[:-1]) + 1


def test_cut_crossings_twice_per_period(p0):
    # outer orbits pass the y-axis twice per revolution; margin of a
    # quarter period keeps the count away from endpoint coincidences.  The
    # sheet changes across the cut {y1 = 0, x1 < 0}: both samples of each
    # toggle lie left of the branch point
    s0 = State(0.0, 2.0)
    period = find_period(s0, p0)
    traj = integrate_original(s0, p0, replace(DEFAULT_CONFIG, t_max=2.25 * period))
    toggles = sheet_toggles(traj)
    assert toggles.size == 4
    assert np.all(traj.covered[toggles - 1, 0] < 0.0)
    assert np.all(traj.covered[toggles, 0] < 0.0)


def test_no_crossings_inside_well(p0):
    traj = integrate_original(State(1.2, 0.0), p0, replace(DEFAULT_CONFIG, t_max=20.0))
    assert np.all(traj.sheets == 1)


def test_sheet_toggles_match_events(p0):
    # oracle: the crossings of x = 0 that scipy's DOP853 event finder
    # locates on the original field, integrated on its own
    s0, t_max = State(0.0, 2.0), 10.0
    traj = integrate_original(s0, p0, replace(DEFAULT_CONFIG, t_max=t_max))
    sol = solve_ivp(
        lambda _, z: (z[1], z[0] - z[0] ** 3), (0.0, t_max), s0,
        method="DOP853", events=lambda _, z: z[0], rtol=1e-12, atol=1e-12,
    )
    assert sol.success, sol.message
    crossings = sol.t_events[0][sol.t_events[0] > 0.0]  # not the start on x = 0
    k = sheet_toggles(traj)
    assert crossings.size > 3 and k.size == crossings.size
    # each toggle is the first sample after its crossing
    assert np.all(traj.t[k - 1] - 1e-8 < crossings)
    assert np.all(crossings <= traj.t[k] + 1e-8)


def test_evolved_sheet_matches_pointwise_tag(p0):
    # away from the axis, the sheet column read off the samples is sign(x)
    traj = integrate_original(
        State(0.0, 2.0), p0, replace(DEFAULT_CONFIG, t_max=10.0)
    )
    x = traj.states[:, 0]
    mask = np.abs(x) > 1e-12
    assert np.array_equal(traj.sheets[mask], np.sign(x[mask]).astype(np.int8))


def test_covered_and_sheets_are_read_off_the_samples(p0):
    # a trajectory stores no derived column, so none can disagree with it
    assert [f.name for f in fields(Trajectory)] == [
        "t", "states", "params", "config"]
    traj = integrate_original(State(0.0, 2.0), p0, replace(DEFAULT_CONFIG, t_max=5.0))
    x, y = traj.states.T
    assert traj.covered.tobytes() == np.column_stack(square(x, y)).tobytes()
    assert traj.sheets.dtype == np.int8
    assert np.array_equal(traj.sheets, sheet_sign(x, y))
    with pytest.raises(AttributeError):
        traj.sheets = -traj.sheets


def test_reconstruction_is_continuous(p0):
    # the sheet column picks each sample's preimage of its covered image;
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


NEAR_CENTER_DEFECT = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: abs_tol and SECTION_REFINE_TOL are absolute while "
    "the orbit shrinks, so find_period is low near a center (-2.2e-6 at 1e-5, "
    "-2.6e-4 at 1e-7, -6.5e-3 at 1e-9)",
)


@pytest.mark.parametrize("eps", [
    1e-3,
    pytest.param(1e-5, marks=NEAR_CENTER_DEFECT),
    pytest.param(1e-7, marks=NEAR_CENTER_DEFECT),
    pytest.param(1e-9, marks=NEAR_CENTER_DEFECT),
])
def test_find_period_near_a_center_matches_the_closed_form(p0, eps):
    # check_period's gate (relative 1e-7) against the elliptic closed form
    s0 = State(1.0 + eps, 0.0)
    want = verify.closed_form_period(hamiltonian(s0, p0))
    assert abs(find_period(s0, p0) - want) <= 1e-7 * want


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
    y = traj.states[:, 1]
    dense = partial(integrate.hermite_step, traj.t, *traj.states.T, traj.params.mu)
    return integrate._section_crossings(traj.t, y, integrate._sign_flips(y), dense)


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


def _samples_to_stop(s0, p):
    """1 + the index of the first nonzero-y sample after return 2, flip
    number 3 - [y0 == 0] of y, on the full-horizon path: the samples of
    the one kernel call behind find_period."""
    y = integrate_original(s0, p).states[:, 1]
    k = integrate._sign_flips(y)[2 - (s0.y == 0.0)]
    stop = k + 1 + np.flatnonzero(y[k + 1 :])[0]
    return int(stop) + 1


def test_find_period_stops_after_one_period(closed_orbit_start, p0, kernel_samples):
    s0 = closed_orbit_start
    period = find_period(s0, p0)  # the fixture starts from an empty memo
    drawn = list(kernel_samples)
    assert drawn == [_samples_to_stop(s0, p0)]
    one = len(integrate_original(s0, p0, replace(DEFAULT_CONFIG, t_max=period)))
    with pytest.raises(MaxStepsExceeded):
        find_period(s0, p0, replace(DEFAULT_CONFIG, max_steps=one // 2))
    with pytest.raises(NoReturn):
        find_period(s0, p0, replace(DEFAULT_CONFIG, t_max=period / 4.0))


@pytest.mark.parametrize(
    "s0", [state_on_level(h) for h in verify.PERIOD_LEVELS] + [State(1.2, -0.0)],
    ids=[f"h={h}" for h in verify.PERIOD_LEVELS] + ["y0=-0.0"],
)
def test_period_stops_at_the_first_sample_past_return_2(p0, kernel_samples, s0):
    # the starts on the section head down first (y' = x - x^3 < 0), so a
    # start without a sign whose first flip went uncounted would stop
    # half a period late with the same period
    find_period(s0, p0)
    drawn = list(kernel_samples)
    assert drawn == [_samples_to_stop(s0, p0)]


def test_step_budget_ends_at_the_stop(closed_orbit_start, p0, monkeypatch):
    # exactly the attempted steps up to the stop suffice: at
    # state_on_level(-0.2), 111 steps give the default period and 110 raise
    s0 = closed_orbit_start
    used = []
    kernel = _kernels.adaptive_path

    def recorded(*args):
        out = kernel(*args)
        used.append(out[5])
        return out

    monkeypatch.setattr(_kernels, "adaptive_path", recorded)
    monkeypatch.setattr(integrate, "_last_orbit", None)
    period = find_period(s0, p0)
    [steps] = used
    assert find_period(s0, p0, replace(DEFAULT_CONFIG, max_steps=steps)) == period
    with pytest.raises(MaxStepsExceeded):
        find_period(s0, p0, replace(DEFAULT_CONFIG, max_steps=steps - 1))


@pytest.mark.parametrize("h", verify.PERIOD_LEVELS)
def test_one_period_is_a_prefix_of_integrate_original(p0, h):
    # the two ways into the scalar kernel, the period's stopped call and
    # the lanes' hand-off, take the same steps: the samples before the
    # period (the last point is the dense output at it) lead the full path
    s0 = state_on_level(h)
    x, y = integrate._one_period(s0, p0, DEFAULT_CONFIG)[1:3]
    full = integrate_original(s0, p0, DEFAULT_CONFIG)
    n = len(x) - 1
    assert n > 1 and len(full) > n
    assert full.states[:n, 0].tobytes() == x[:n].tobytes()
    assert full.states[:n, 1].tobytes() == y[:n].tobytes()


def test_period_stop_counts_flips_across_exact_zeros():
    # flips across exact zeros count once; the kernel stops find_period's
    # path at the first sample whose prefix holds 3 - [start on the
    # section] flips of y, so each prefix is checked
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
    # every path keeps its start, so the message names the time reached
    # even when the budget ends on a rejected first step (step=5.0)
    for n, step, reached in ((1, 5.0, "0"), (1, 0.01, "0.01"), (10, 0.01, "0.414749")):
        cfg = replace(DEFAULT_CONFIG, max_steps=n, step=step)
        want = rf"^{n} steps exhausted at t={reached} \(t_max=100\)$"
        for query in (integrate_original, find_period):
            with pytest.raises(MaxStepsExceeded, match=want):
                query(State(0.0, 1.0), Params(), cfg)


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


def _assert_same_trajectory(a, b):
    for name in ("t", "states", "covered", "sheets"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert (a.params, a.config) == (b.params, b.config)


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


def test_orbits_are_integrate_original_one_at_a_time(rng):
    # more orbits than MIN_LANES, so they are stepped in lockstep
    n = _kernels.MIN_LANES + 8
    states = [State(x, y) for x, y in zip(rng.uniform(-2.0, 2.0, n),
                                           rng.uniform(-1.5, 1.5, n))]
    p = Params(mu=0.1)
    cfg = IntegratorConfig(t_max=5.0)
    got, error = _run_orbits(integrate_original_orbits(states, p, cfg), n)
    want, _ = _one_at_a_time(states, p, cfg)
    assert error is None and len(got) == n
    for a, b in zip(got, want):
        _assert_same_trajectory(a, b)


def _mirror(s0):
    return State(-s0.x, -s0.y)


@pytest.mark.parametrize("n", [8, _kernels.MIN_LANES + 8], ids=["scalar", "lockstep"])
@pytest.mark.parametrize("mu", [0.0, 0.1])
def test_mirrors_and_duplicates_are_integrate_original_one_at_a_time(
        monkeypatch, rng, n, mu):
    # a start equal to an earlier one, or to its negative, is not stepped
    # again: its trajectory is read off the earlier start's lane, and must
    # be what integrating it alone gives, signed zeros and all; with n = 8
    # there are fewer starts than MIN_LANES, with n = 40 more lanes
    special = [State(1.0, 0.0), State(-1.0, 0.0), State(-1.0, -0.0),
               State(0.0, 0.0), State(-0.0, -0.0), State(-0.0, 0.0),
               State(0.0, 1.0), State(-0.0, -1.0), State(0.0, -1.0),
               State(-0.0, 1.0), State(1.3, -0.0), State(-1.3, 0.0)]
    free = [State(x, y) for x, y in rng.uniform(-2.0, 2.0, (n, 2)).tolist()]
    states = special + free + [_mirror(s0) for s0 in free[::2]] + free[1:4]
    rng.shuffle(states)
    p, cfg = Params(mu=mu), IntegratorConfig(t_max=5.0)
    lanes = []
    kernel = _kernels.adaptive_lanes

    def recorded(u0, v0, *args):
        lanes.append(list(zip(u0, v0)))
        return kernel(u0, v0, *args)

    monkeypatch.setattr(_kernels, "adaptive_lanes", recorded)
    got, error = _run_orbits(integrate_original_orbits(states, p, cfg), len(states))
    monkeypatch.undo()
    want, _ = _one_at_a_time(states, p, cfg)
    assert error is None and len(got) == len(states)
    for a, b in zip(got, want):
        _assert_same_trajectory(a, b)
        for arr in (a.t, a.states):  # mirrors are frozen too
            with pytest.raises(ValueError):
                arr[0] = 99.0
    # one lane for each start up to s -> -s, in the order they first occur
    firsts = []
    for s0 in states:
        if s0 not in firsts and _mirror(s0) not in firsts:
            firsts.append(s0)
    assert len(lanes) == 1 and lanes[0] == firsts
    assert len(firsts) == 4 + n  # the centres, the origin, (0, 1), (1.3, 0)
    # the first start of a lane holds views of the kernel's one pool, or
    # the arrays its path was concatenated into (a lane whose rows outgrew
    # their slot): the pool is never copied for it
    pools = {id(got[states.index(s0)].states.base) for s0 in firsts}
    assert len(pools - {id(None)}) == 1


@pytest.mark.parametrize("mu", [0.0, 0.1])
def test_orbits_whose_lanes_spill_are_integrate_original_one_at_a_time(
        monkeypatch, rng, mu):
    # 2-row first slots and a margin of 1e-4 make every lockstep lane move
    # at the first iteration and spill its rows every few after: mirrors
    # and duplicates read off those lanes are still what each start gives
    # alone (computed before the slots are shrunk)
    n = _kernels.MIN_LANES + 8
    free = [State(x, y) for x, y in rng.uniform(-2.0, 2.0, (n, 2)).tolist()]
    states = free + [_mirror(s0) for s0 in free[::3]] + free[1:4] + [State(1.0, 0.0)]
    rng.shuffle(states)
    p, cfg = Params(mu=mu), IntegratorConfig(t_max=5.0)
    want, _ = _one_at_a_time(states, p, cfg)
    monkeypatch.setattr(_kernels, "FIRST_SLOT", 2)
    monkeypatch.setattr(_kernels, "SLOT_MARGIN", 1e-4)
    got, error = _run_orbits(integrate_original_orbits(states, p, cfg), len(states))
    assert error is None and len(got) == len(states)
    for a, b in zip(got, want):
        _assert_same_trajectory(a, b)
    assert sum(traj.t.base is None for traj in got) > n // 2  # spilled


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
    # a non-finite start is a bad input, not a failed integration.  Orbit
    # 17's mirror shares its lane: placed before it, the mirror fails
    # first, with its own message
    n = _kernels.MIN_LANES + 8
    states = [State(x, y) for x, y in zip(rng.uniform(-2.0, 2.0, n),
                                           rng.uniform(-1.5, 1.5, n))]
    if bad is not None:
        states[17] = bad
    for mirror in (None, 5, 30):
        batch = list(states)
        if mirror is not None:
            batch[mirror] = _mirror(states[17])
        got, error = _run_orbits(integrate_original_orbits(batch, Params(), cfg), n)
        want, want_error = _one_at_a_time(batch, Params(), cfg)
        assert want_error is not None and len(got) == len(want) < n
        assert type(error) is type(want_error) is failure
        assert str(error) == str(want_error)
        for a, b in zip(got, want):
            _assert_same_trajectory(a, b)


# ---------------------------------------------------------------- locator


@pytest.fixture
def brackets(monkeypatch):
    """The brackets each integrate.locate_roots call refines (np.size of
    its a, 1 for a float), in call order."""
    sizes = []
    locate_roots = integrate.locate_roots

    def counted(g, a, b, ga, gb, tol):
        sizes.append(np.size(a))
        return locate_roots(g, a, b, ga, gb, tol)

    monkeypatch.setattr(integrate, "locate_roots", counted)
    monkeypatch.setattr(integrate, "_last_orbit", None)
    return sizes


def test_one_period_refines_only_the_returns_it_uses(brackets, closed_orbit_start, p0):
    # return 2 alone for a start on the section, which is return 0 itself;
    # returns 0 and 2 for a start off it.  Return 1 is counted, not refined
    find_period(closed_orbit_start, p0)
    assert brackets == [1] * (1 if closed_orbit_start.y == 0.0 else 2)


def test_locate_roots_tolerances():
    # one already at its root, one curved, and one too steep for
    # |g| <= tol, which must stop on the width instead
    def locate(g, a, b):
        return integrate.locate_roots(g, a, b, g(a), g(b), 1e-12)

    def cbrt(tq):
        return float(np.cbrt(tq - 0.7))

    assert locate(lambda tq: tq - 0.3, 0.0, 0.3) == 0.3
    assert abs(cbrt(locate(cbrt, 0.0, 1.0))) <= 1e-12
    evals = []
    steep = locate(lambda tq: evals.append(tq) or 1e20 * (tq - 1.0 / 3.0), 0.0, 1.0)
    assert abs(steep - 1.0 / 3.0) <= 4e-15
    assert len(evals) - 2 < integrate.MAX_REFINE_ITER  # two were the ends


@pytest.mark.parametrize("g, ga, gb", [
    (lambda tq: math.nan, -1.0, 1.0),  # NaN inside: no side, so it stops there
    (lambda tq: tq - 0.25, math.nan, 0.75),  # NaN at a: no secant, the midpoint
    (lambda tq: tq - 0.25, 0.5, 0.5),  # ga = gb: no secant, the midpoint
    (lambda tq: math.nan, -1.0, math.nan),  # NaN at b: b is returned
    (lambda tq: tq - 0.25, -0.25, -0.0),  # gb = -0.0: b is the root
])
def test_locate_roots_where_the_secant_is_undefined(g, ga, gb):
    # Python floats raise ZeroDivisionError where numpy gave inf or NaN;
    # the locator takes the midpoint there, as the vectorised one did
    root = integrate.locate_roots(g, 0.0, 1.0, ga, gb, 1e-12)
    with np.errstate(all="ignore"):
        want = locate_roots_reference(
            lambda j, tq: np.array([g(float(v)) for v in tq]),
            [0.0], [1.0], [ga], [gb], 1e-12)
    assert root.hex() == float(want[0]).hex()


def test_locate_roots_subnormal_values():
    # ends of opposite signs whose product underflows still bracket a
    # root: the sign walk sees the flip, and the locator stays inside it
    for tiny, sign in itertools.product((1e-200, 5e-324), (1.0, -1.0)):
        def g(tq):
            return sign * tiny * (2.0 * tq - 1.0)

        ga, gb = g(0.0), g(1.0)
        assert ga == -sign * tiny and gb == sign * tiny
        assert integrate._sign_flips(np.array([ga, gb])).tolist() == [0]
        root = integrate.locate_roots(g, 0.0, 1.0, ga, gb, 0.0)
        assert 0.0 <= root <= 1.0 and g(root) == 0.0


@pytest.mark.parametrize("tiny", [1e-200, 5e-324])
def test_locate_roots_narrows_a_subnormal_step(tiny):
    # g jumps from -tiny to tiny at 0.3: only the width can stop the
    # locator, and each side must be told by the signs, not by fc * gb.
    # At 5e-324 the secant step gb * (b - a) rounds to 0 and an Illinois
    # halving to 0: the midpoint and the kept value still narrow it
    for sign in (1.0, -1.0):
        def g(tq):
            return sign * tiny if tq > 0.3 else -sign * tiny

        root = integrate.locate_roots(g, 0.0, 1.0, g(0.0), g(1.0), 0.0)
        assert abs(root - 0.3) <= 1e-14


# --------------------------------------------- the vectorised references
#
# The event layer once refined every bracket of a path at once in numpy:
# hermite_steps evaluated the Hermite cubics of many steps, and
# locate_roots_reference ran one Illinois iteration over the live
# brackets.  The per-bracket float code must give the same bits.


def hermite_steps_reference(t, pts, mu, ks):
    """Dense output on the steps ks[j] -> ks[j] + 1: at(j, tq) -> (u, v)
    for indices j and times tq of one shape."""
    t0 = t[ks]
    dt = t[ks + 1] - t0
    p0, p1 = pts[ks], pts[ks + 1]
    f0, f1 = (np.column_stack(_kernels.rhs(*q.T, mu)) for q in (p0, p1))

    def at(j, tq):
        h = dt[j][..., None]
        s = (tq - t0[j])[..., None] / h
        s2 = s * s
        s3 = s2 * s
        w = (
            (2.0 * s3 - 3.0 * s2 + 1.0) * p0[j]
            + (s3 - 2.0 * s2 + s) * h * f0[j]
            + (-2.0 * s3 + 3.0 * s2) * p1[j]
            + (s3 - s2) * h * f1[j]
        )
        return w[..., 0], w[..., 1]

    return at


def locate_roots_reference(g, a, b, ga, gb, tol):
    """Roots of g on every bracket [a, b] at once; g(j, tq) evaluates the
    brackets j at times tq."""
    a, b, ga, gb = (np.array(v, dtype=np.float64) for v in (a, b, ga, gb))
    root = b.copy()
    kept = np.zeros(a.shape, dtype=np.int8)  # end kept by the last step: -1 a, 1 b
    live = np.flatnonzero(np.abs(gb) > tol)
    for _ in range(integrate.MAX_REFINE_ITER):
        if live.size == 0:
            break
        al, bl, fa, fb = a[live], b[live], ga[live], gb[live]
        c = bl - fb * (bl - al) / (fb - fa)
        off = ~((c >= al) & (c < bl))
        c[off] = 0.5 * (al[off] + bl[off])
        fc = g(live, c)
        root[live] = c
        left = np.sign(fc) == np.sign(fb)
        to_b, to_a = live[left], live[~left]
        b[to_b], gb[to_b] = c[left], fc[left]
        a[to_a], ga[to_a] = c[~left], fc[~left]
        for end, halved in ((ga, to_b[kept[to_b] == -1]), (gb, to_a[kept[to_a] == 1])):
            end[halved] *= np.where(end[halved] * 0.5 == 0.0, 1.0, 0.5)  # never to 0
        kept[to_b], kept[to_a] = -1, 1
        width = b[live] - a[live]
        live = live[(np.abs(fc) > tol) & (width > 1e-15 * (1.0 + np.abs(b[live])))]
    return root


def one_period_reference(s0, p, cfg):
    """_one_period without its memo, every flip of y refined at once."""
    want = 1 if integrate._require_closed_orbit(s0, p) < 0.0 else 2
    start = [0.0] if s0.y == 0.0 else []
    t, x, y, status, _, _ = _kernels.adaptive_path(
        s0.x, s0.y, p.mu, 0.0, cfg.t_max, cfg.rel_tol, cfg.abs_tol, cfg.step,
        int(cfg.max_steps), 3 - len(start),
    )
    integrate._check_status(status, t, cfg)
    pts = np.column_stack((x, y))
    ks = integrate._sign_flips(y)
    at = hermite_steps_reference(t, pts, p.mu, ks)
    returns = start + locate_roots_reference(
        lambda j, tq: at(j, tq)[1], t[ks], t[ks + 1], y[ks], y[ks + 1],
        integrate.SECTION_REFINE_TOL).tolist()
    if len(returns) < 3:
        what = "same-direction section return" if returns else "section crossing"
        raise NoReturn(f"no {what} before t_max={cfg.t_max:g}")
    period = returns[2] - returns[0]
    k = int(np.searchsorted(t, period))
    x_end, y_end = hermite_steps_reference(t, pts, p.mu, np.array([k - 1]))(0, period)
    x, y = np.append(x[:k], x_end), np.append(y[:k], y_end)
    x1, y1, theta = covering._unwrap(x, y)
    turns = (theta[0] - theta[-1]) / covering.TWO_PI
    if not abs(turns - want) < 0.25:
        raise StepFailure(
            f"the rk45 path with step={cfg.step!r} does not resolve "
            f"the orbit: its covered angle turns {turns:.3g} times in the "
            f"period {period:.6g}, not {want}"
        )
    return period, x, y, x1, y1, want


def _outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        with np.errstate(all="ignore"):
            return f(*args)
    except Exception as e:  # compared, not handled
        return type(e), str(e)


def _period_bits(out):
    if isinstance(out[0], type):
        return out
    period, *arrays, turns = out
    return period.hex(), *(a.tobytes() for a in arrays), turns


@settings(max_examples=150, deadline=None)
@given(
    x=st.one_of(st.floats(-2.2, -0.05), st.floats(0.05, 2.2)),
    y=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
    rel_tol=st.sampled_from((1e-10, 1e-12, 1e-8, 1e-6, 1e-4)),
    abs_tol=st.sampled_from((1e-10, 1e-12, 1e-6)),
    step=st.sampled_from((0.01, 0.2, 1.0)),
    t_max=st.sampled_from((100.0, 8.0, 3.0)),
)
@example(x=1.4142135623730951, y=0.0, rel_tol=1e-10, abs_tol=1e-10, step=0.01,
         t_max=100.0)  # the separatrix apex
@example(x=1.2, y=0.0, rel_tol=1e-4, abs_tol=1e-6, step=1.0, t_max=100.0)
@example(x=state_on_level(-0.2499).x, y=0.0, rel_tol=1e-10, abs_tol=0.1, step=5.0,
         t_max=60.0)  # too coarse to resolve the orbit: StepFailure
@example(x=0.0, y=1.0, rel_tol=1e-10, abs_tol=1e-10, step=0.01, t_max=100.0)
def test_one_period_matches_the_vectorised_locator(x, y, rel_tol, abs_tol, step, t_max):
    # the period and the points bit for bit, or the same failure and message
    s0, p = State(x, y), Params()
    cfg = IntegratorConfig(step=step, rel_tol=rel_tol, abs_tol=abs_tol, t_max=t_max)
    integrate._last_orbit = None
    got = _outcome(integrate._one_period, s0, p, cfg)
    assert _period_bits(got) == _period_bits(_outcome(one_period_reference, s0, p, cfg))


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(-2.0, 2.0),
    y=st.floats(-2.0, 2.0),
    mu=st.sampled_from((0.0, 0.1)),
)
@example(x=0.0, y=2.0, mu=0.0)
@example(x=-0.1, y=1.5, mu=0.1)
# x crosses 0 inside the first step, just after the start: the root is
# as small as the u terms of the dense output, so its last bits follow
# the last bit of u, and summing those terms in another order moves it
@example(x=-1.4e-06, y=0.36, mu=0.1)
@example(x=-3e-06, y=1.44, mu=0.1)
@example(x=1.2e-07, y=-1.68, mu=0.1)
@example(x=-8.2e-05, y=1.9, mu=0.0)
def test_hermite_step_matches_the_vectorised_reference(x, y, mu):
    # on the first step and on every step where x changes sign: the
    # points a float locator visits refining the root of x there, and a
    # spread over the step, bit for bit
    traj = integrate_original(State(x, y), Params(mu=mu),
                              replace(DEFAULT_CONFIG, t_max=40.0))
    t, z = traj.t, traj.states
    ks = np.union1d([0], integrate._sign_flips(z[:, 0]))
    ref = hermite_steps_reference(t, z, mu, ks)
    for j, k in enumerate(ks.tolist()):
        at = integrate.hermite_step(t, *z.T, mu, k)
        t0, t1 = t[k:k + 2].tolist()
        visited = np.linspace(t0, t1, 9).tolist()
        x0, x1 = z[k:k + 2, 0].tolist()
        if x0 * x1 < 0.0:
            integrate.locate_roots(lambda tq: visited.append(tq) or at(tq)[0],
                                   t0, t1, x0, x1, 1e-12)
        tq = np.array(visited)
        got = np.array([at(q) for q in visited]).T
        want = np.stack(ref(np.full(tq.size, j), tq))
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist(), k


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
        p = scn.params
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
        ref = _bisect_reference(dense, traj.t, traj.covered[:, 1], covered, 1e-12)
        assert sheet_toggles(traj).tolist() == [k for k, _, x1 in ref if x1 < 0.0], s0
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
    traj = integrate_original(
        State(x, y), Params(mu=mu), replace(DEFAULT_CONFIG, t_max=8.0)
    )
    assert traj.states[0].tolist() == [x, y]
    assert traj.covered[0].tolist() == list(square(x, y))
    assert int(traj.sheets[0]) == sheet_sign(x, y)
    # the sheet changes where x changes sign (a path launched on the cut
    # leaves it the way its tag points, x' = y): once per sign flip of x
    assume(traj.states[-1, 0] != 0.0)
    cuts = integrate._sign_flips(traj.states[:, 0]).size
    assert int(traj.sheets[-1]) == int(traj.sheets[0]) * (-1) ** cuts
    assert sheet_toggles(traj).size == cuts
