import math
import re
import threading
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from duffing_aa import (
    DEFAULT_CONFIG,
    CenterSingular,
    MaxStepsExceeded,
    NoReturn,
    OnSeparatrix,
    OriginSingular,
    Params,
    State,
    StepFailure,
    Trajectory,
    UnwrapAmbiguous,
    action_covered,
    action_original,
    covered_field,
    dH_dtheta,
    duffing_field,
    energy_angle_curve,
    find_period,
    hamiltonian,
    integrate_original,
    square,
    state_on_level,
    theta_dot_of,
    theta_of,
    unwrap_theta,
)
from duffing_aa import actionangle, integrate, verify

TWO_PI = 2.0 * math.pi


def chain_rule_theta_dot(s: State) -> float:
    # oracle: d/dt atan2(y1, x1 - 1) along the conservative covered flow
    fx, fy = duffing_field(s, Params(mu=0.0))
    du = 2.0 * s.x * fx - 2.0 * s.y * fy
    dv = 2.0 * s.y * fx + 2.0 * s.x * fy
    x1, y1 = square(s.x, s.y)
    return ((x1 - 1.0) * dv - y1 * du) / ((x1 - 1.0) ** 2 + y1**2)


def constant_trajectory(s: State, n: int = 4) -> Trajectory:
    t = np.linspace(0.0, 1.0, n)
    states = np.tile(np.array(s, dtype=float), (n, 1))
    return Trajectory(t, states, Params(), DEFAULT_CONFIG)


def test_theta_examples():
    assert theta_of(State(0.0, 1.0)) == math.pi
    assert theta_of(State(math.sqrt(2.0), 0.0)) == 0.0
    assert abs(theta_of(State(1.0, 1.0)) - math.atan2(2.0, -1.0)) <= 1e-15
    assert abs(theta_of(State(1.0, 1.0)) - 2.0344439357957027) <= 1e-7
    assert theta_of(State(0.0, 0.0)) == math.pi


def test_theta_range(rng):
    for _ in range(2000):
        s = State(*rng.uniform(-3.0, 3.0, size=2))
        th = theta_of(s)
        assert -math.pi < th <= math.pi
    # the lower-axis image lands on the closed end of the branch
    assert theta_of(State(0.0, -1.0)) == math.pi


_point = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))


@settings(max_examples=100, deadline=None)
@given(st.lists(
    _point.filter(lambda s: min(math.hypot(s[0] - 1.0, s[1]),
                                math.hypot(s[0] + 1.0, s[1])) > 1e-9),
    min_size=1, max_size=40,
))
def test_theta_of_arrays_match_scalars(points):
    x, y = np.array(points).T
    got = theta_of(State(x, y))
    assert got.tolist() == [theta_of(State(a, b)) for a, b in points]


def test_theta_center_singular():
    for s in (State(1.0, 0.0), State(-1.0, 0.0), State(1.0, 1e-10)):
        with pytest.raises(CenterSingular):
            theta_of(s)
        with pytest.raises(CenterSingular):
            theta_dot_of(s)


def test_theta_dot_examples():
    assert theta_dot_of(State(0.0, 0.0)) == 0.0
    assert theta_dot_of(State(0.0, 1.0)) == -1.0
    assert theta_dot_of(State(2.0, 0.0)) == -8.0
    assert abs(theta_dot_of(State(2.0, 0.0)) - chain_rule_theta_dot(State(2.0, 0.0))) == 0.0


def test_theta_dot_chain_rule(rng):
    worst = 0.0
    n = 0
    while n < 10_000:
        s = State(*rng.uniform(-3.0, 3.0, size=2))
        if (s.x - 1.0) ** 2 + s.y**2 < 1e-6 or (s.x + 1.0) ** 2 + s.y**2 < 1e-6:
            continue
        n += 1
        oracle = chain_rule_theta_dot(s)
        worst = max(worst, abs(theta_dot_of(s) - oracle) / abs(oracle))
    assert worst <= 1e-10


def test_theta_dot_sign(rng):
    n = 0
    while n < 10_000:
        s = State(*rng.uniform(-3.0, 3.0, size=2))
        if s.x**2 + s.y**2 < 1e-12:
            continue
        if (s.x - 1.0) ** 2 + s.y**2 < 1e-12 or (s.x + 1.0) ** 2 + s.y**2 < 1e-12:
            continue
        n += 1
        assert theta_dot_of(s) < 0.0


def test_denominator_is_rho_squared(rng):
    # the denominator theta_dot_of divides by, not a copy of its spelling
    n = 0
    while n < 10_000:
        x, y = rng.uniform(-3.0, 3.0, size=2)
        if (x - 1.0) ** 2 + y**2 < 1e-4 or (x + 1.0) ** 2 + y**2 < 1e-4:
            continue
        n += 1
        den = actionangle._theta_dot_den(x * x, y * y)
        x1, y1 = square(x, y)
        rho2 = (x1 - 1.0) ** 2 + y1**2
        assert abs(den - rho2) <= 1e-12 * rho2


def test_unwrap_constant_trajectory():
    tw = unwrap_theta(constant_trajectory(State(0.0, 1.0)))
    np.testing.assert_array_equal(tw[:, 1], math.pi)


def test_unwrap_windings(p0):
    s0 = State(1.2, 0.0)
    tw = unwrap_theta(
        integrate_original(s0, p0, replace(DEFAULT_CONFIG, t_max=find_period(s0, p0)))
    )
    assert abs((tw[-1, 1] - tw[0, 1]) + TWO_PI) <= 1e-6

    s1 = State(0.0, 2.0)
    tw = unwrap_theta(
        integrate_original(s1, p0, replace(DEFAULT_CONFIG, t_max=find_period(s1, p0)))
    )
    assert abs((tw[-1, 1] - tw[0, 1]) + 2.0 * TWO_PI) <= 1e-6


def test_unwrap_rejects_center(p0):
    with pytest.raises(CenterSingular):
        unwrap_theta(constant_trajectory(State(1.0, 0.0)))


def test_unwrap_ambiguous():
    # two samples half a turn apart cannot be unwrapped
    t = np.array([0.0, 1.0])
    states = np.array([[math.sqrt(2.0), 0.0], [0.0, 1.0]])
    traj = Trajectory(t, states, Params(), DEFAULT_CONFIG)
    with pytest.raises(UnwrapAmbiguous):
        unwrap_theta(traj)


def test_theta_strictly_decreasing_along_flow(p_damped):
    traj = integrate_original(
        State(0.0, 1.5), p_damped, replace(DEFAULT_CONFIG, t_max=50.0)
    )
    tw = unwrap_theta(traj)
    assert np.all(np.diff(tw[:, 1]) < 0.0)


@settings(max_examples=25, deadline=None)
@given(_point)
def test_unwrapped_theta_decreases_on_conservative_orbits(point):
    s0 = State(*point)
    assume(abs(hamiltonian(s0, Params())) >= 1e-3)
    assume(min(math.hypot(s0.x - 1.0, s0.y), math.hypot(s0.x + 1.0, s0.y)) >= 1e-2)
    traj = integrate_original(s0, Params(), replace(DEFAULT_CONFIG, t_max=10.0))
    assert np.all(np.diff(unwrap_theta(traj)[:, 1]) < 0.0)


def test_action_covered_harmonic_limit(p0):
    s0 = State(1.0 + 1e-3, 0.0)
    h = hamiltonian(s0, p0)
    expected = 4.0 * (h + 0.25) / math.sqrt(2.0)
    got = action_covered(s0, p0)
    assert abs(got - expected) <= 0.05 * expected


def test_action_covered_polygon_oracle(p0):
    s0 = State(1.2, 0.0)
    got = action_covered(s0, p0)
    traj = integrate_original(s0, p0, DEFAULT_CONFIG)
    tw = unwrap_theta(traj)
    k = int(np.nonzero(tw[:, 1] <= tw[0, 1] - TWO_PI)[0][0])
    x1, y1 = traj.covered[:k, 0], traj.covered[:k, 1]
    area = 0.5 * abs(np.sum(x1 * np.roll(y1, -1) - np.roll(x1, -1) * y1))
    assert abs(got - area / TWO_PI) <= 1e-4


def test_action_covered_errors(p0):
    with pytest.raises(OnSeparatrix):
        action_covered(State(math.sqrt(2.0), 0.0), p0)
    with pytest.raises(ValueError):
        action_covered(State(1.2, 0.0), Params(mu=0.1))


def test_action_original_harmonic_limit(p0):
    s0 = State(1.0 + 1e-3, 0.0)
    h = hamiltonian(s0, p0)
    expected = (h + 0.25) / math.sqrt(2.0)
    got = action_original(s0, p0)
    assert abs(got - expected) <= 0.05 * expected


@pytest.mark.parametrize("action", [action_original, action_covered],
                         ids=lambda f: f.__name__)
def test_actions_reuse_find_period_path(closed_orbit_start, p0, kernel_samples,
                                        action):
    s0 = closed_orbit_start
    period = find_period(s0, p0)
    period_samples = list(kernel_samples)
    assert period_samples
    kernel_samples.clear()
    action(s0, p0)  # right after find_period: its path, no integration
    assert kernel_samples == []
    find_period(State(0.0, 1.5), p0)  # another orbit evicts it
    kernel_samples.clear()
    action(s0, p0)
    assert kernel_samples == period_samples
    with pytest.raises(MaxStepsExceeded):
        action(s0, p0, replace(DEFAULT_CONFIG, max_steps=sum(period_samples) // 4))
    with pytest.raises(NoReturn):
        action(s0, p0, replace(DEFAULT_CONFIG, t_max=period / 4.0))


def test_closed_orbit_queries_reject_centers(p0):
    # a start within 1e-9 of a center fails fast instead of measuring noise;
    # so does an orbit that passes that close (its x-amplitude is 0.85e-9),
    # whose covered angle the path check cannot follow
    for query in (find_period, action_original, action_covered):
        for s0 in (State(1.0 + 1e-12, 0.0), State(-1.0 - 1e-12, 0.0),
                   State(1.0, 1.2e-9)):
            with pytest.raises(CenterSingular):
                query(s0, p0)


def test_closed_orbit_queries_reject_overflowing_starts(p0):
    # the energy of these starts overflows Python floats: a StepFailure that
    # names the start, as a start that overflows in the kernel gets one
    for query in (find_period, action_original, action_covered):
        for s0 in (State(1e100, 0.0), State(0.0, 1e160)):
            with pytest.raises(StepFailure, match=re.escape(f"({s0.x!r}, {s0.y!r})")):
                query(s0, p0)


# repr of (find_period, action_original, action_covered) per start, with
# initial step 0.01: a refactor of the integrator or of the period rule
# keeps these numbers bit for bit
PINNED_CLOSED_ORBITS = {
    (1.0954451150103324, 0.0):
        "(4.476954146569423, 0.007092906892143108, 0.028370336690586907)",
    (1.2030019100150913, 0.0):
        "(4.630675303799548, 0.036050954892363145, 0.14401015435020803)",
    (1.4070522012751592, 0.0):
        "(7.408711119596693, 0.19880300591993513, 0.7419286286164654)",
    (1.4177272282904803, 0.0):
        "(16.10663388474391, 0.43875784706460014, 0.7927415110150571)",
    (1.6528916502810695, 0.0):
        "(6.784478775786485, 1.1187694309207894, 2.791221404011628)",
    (2.0, 0.0):
        "(4.685680336771507, 2.418387583918379, 11.935384846903363)",
    (1.0, 0.3):
        "(4.609710631162357, 0.03237658103194042, 0.12936689848889243)",
    (0.0, 1.0):
        "(6.784478775835245, 1.1187678537540575, 2.7912180130061115)",
}


# the config the numbers are pinned under, by the name of its stepper
PINNED_CONFIG = {"rk45": replace(DEFAULT_CONFIG, step=0.01)}


def _closed_orbit_numbers(s0, cfg):
    return repr(tuple(
        query(s0, Params(), cfg)
        for query in (find_period, action_original, action_covered)
    ))


@pytest.mark.parametrize("cfg", PINNED_CONFIG.values(), ids=PINNED_CONFIG.keys())
@pytest.mark.parametrize("h", verify.PERIOD_LEVELS)
def test_closed_orbit_numbers_are_pinned_on_levels(h, cfg):
    s0 = state_on_level(h)
    assert _closed_orbit_numbers(s0, cfg) == PINNED_CLOSED_ORBITS[tuple(s0)]


@pytest.mark.parametrize("cfg", PINNED_CONFIG.values(), ids=PINNED_CONFIG.keys())
def test_closed_orbit_numbers_are_pinned(closed_orbit_start, cfg):
    s0 = closed_orbit_start
    assert _closed_orbit_numbers(s0, cfg) == PINNED_CLOSED_ORBITS[tuple(s0)]


CLOSED_ORBIT_QUERIES = (find_period, action_original, action_covered)


def _orbit_bits(s0, p, cfg):
    """_one_period's result as bytes, and whether it came from the memo."""
    hit = integrate._last_orbit
    period, *arrays, turns = got = integrate._one_period(s0, p, cfg)
    return (period.hex(), *(a.tobytes() for a in arrays), turns), (
        hit is not None and got is hit[1]
    )


def test_memo_returns_what_fresh_calls_return(monkeypatch, p0):
    a, b = State(1.0, 0.3), state_on_level(0.5)
    fresh = {}
    for s0 in (a, b):
        monkeypatch.setattr(integrate, "_last_orbit", None)
        fresh[s0] = [repr(q(s0, p0)) for q in CLOSED_ORBIT_QUERIES]
    monkeypatch.setattr(integrate, "_last_orbit", None)
    for s0 in (a, b, a, a, b):
        assert [repr(q(s0, p0)) for q in CLOSED_ORBIT_QUERIES] == fresh[s0]


MEMO_BASE = (State(0.0, 1.0), Params(), DEFAULT_CONFIG)


MEMO_CHANGES = {
    "x=-0.0": {"s0": State(-0.0, 1.0)},
    "step": {"cfg": replace(DEFAULT_CONFIG, step=0.02)},
    "rel_tol": {"cfg": replace(DEFAULT_CONFIG, rel_tol=1e-9)},
    "abs_tol": {"cfg": replace(DEFAULT_CONFIG, abs_tol=1e-9)},
    "t_max": {"cfg": replace(DEFAULT_CONFIG, t_max=50.0)},
    "max_steps": {"cfg": replace(DEFAULT_CONFIG, max_steps=10**6)},
}


@pytest.mark.parametrize("change", MEMO_CHANGES.values(), ids=MEMO_CHANGES.keys())
def test_memo_keys_tell_every_input_apart(monkeypatch, change):
    # each input changed by itself, the start even to -0.0, gets a fresh
    # integration, which a memo hit would not be
    args = {**dict(zip(("s0", "p", "cfg"), MEMO_BASE)), **change}
    monkeypatch.setattr(integrate, "_last_orbit", None)
    want, _ = _orbit_bits(**args)
    monkeypatch.setattr(integrate, "_last_orbit", None)
    _orbit_bits(*MEMO_BASE)
    assert _orbit_bits(**args) == (want, False)
    assert _orbit_bits(**args) == (want, True)
    assert _orbit_bits(*MEMO_BASE)[1] is False


# (spelled, plain): an input spelled otherwise, and an equal one in Python floats
MEMO_SPELLINGS = {
    "mu=-0.0": ({"p": Params(mu=-0.0)}, {}),
    "mu-float32": ({"p": Params(mu=np.float32(0.0))}, {}),
    "t_max-int": ({"cfg": replace(DEFAULT_CONFIG, t_max=100)}, {}),
    "t_max-Fraction": ({"cfg": replace(DEFAULT_CONFIG, t_max=Fraction(100))}, {}),
    "step-float32": ({"cfg": replace(DEFAULT_CONFIG, step=np.float32(0.5))},
                     {"cfg": replace(DEFAULT_CONFIG, step=0.5)}),
    "max_steps-int64": ({"cfg": replace(DEFAULT_CONFIG, max_steps=np.int64(10**7))}, {}),
}


@pytest.mark.parametrize("spelled, plain", MEMO_SPELLINGS.values(),
                         ids=MEMO_SPELLINGS.keys())
def test_memo_shares_equal_inputs_spelled_differently(monkeypatch, spelled, plain):
    # params and configs keep Python floats, so an equal input computes the
    # bits of a fresh query on the plain one, and shares its entry both ways
    base = dict(zip(("s0", "p", "cfg"), MEMO_BASE))
    spelled, plain = {**base, **spelled}, {**base, **plain}
    monkeypatch.setattr(integrate, "_last_orbit", None)
    want, _ = _orbit_bits(**plain)
    for first, second in ((spelled, plain), (plain, spelled)):
        monkeypatch.setattr(integrate, "_last_orbit", None)
        assert _orbit_bits(**first) == (want, False)
        assert _orbit_bits(**second) == (want, True)


def test_memo_never_keeps_a_failure(p0):
    s0 = State(0.0, 1.0)
    kept = integrate._one_period(s0, p0, DEFAULT_CONFIG)
    short = replace(DEFAULT_CONFIG, t_max=1.0)
    for _ in range(3):
        for query in CLOSED_ORBIT_QUERIES:
            with pytest.raises(NoReturn):
                query(s0, p0, short)
    assert integrate._one_period(s0, p0, DEFAULT_CONFIG) is kept


def test_memo_arrays_are_read_only(monkeypatch, p0):
    monkeypatch.setattr(integrate, "_last_orbit", None)
    for _ in range(2):  # the fresh result, then the kept one
        _, *arrays, _ = integrate._one_period(State(1.0, 0.3), p0, DEFAULT_CONFIG)
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


def test_memo_is_thread_safe(monkeypatch, p0):
    # two threads alternate between their own two orbits, asking each twice;
    # each must always get its own orbit's bits, whatever the other thread
    # left in the memo or is storing there
    pairs = ((State(1.0, 0.3), state_on_level(0.5)),
             (State(0.0, 1.0), state_on_level(-0.2)))
    want = {}
    for s0 in (s for pair in pairs for s in pair):
        monkeypatch.setattr(integrate, "_last_orbit", None)
        want[s0] = _orbit_bits(s0, p0, DEFAULT_CONFIG)[0]
    done = [0, 0]

    def alternate(k):
        for i in range(200):
            s0 = pairs[k][i % 2]
            for _ in range(2):  # a miss, then a hit unless the other thread cut in
                assert _orbit_bits(s0, p0, DEFAULT_CONFIG)[0] == want[s0]
            done[k] += 1

    workers = [threading.Thread(target=alternate, args=(k,)) for k in (0, 1)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert done == [200, 200]


def test_unresolved_orbit_raises_step_failure(p0):
    # an absolute tolerance of 0.1 on an orbit of radius about 0.01 lets
    # the steps grow past the section returns (period about 4.44): the sign
    # walk misses some, and the covered angle turns about 0.5 times in the
    # period it measures, not once
    cfg = replace(DEFAULT_CONFIG, abs_tol=0.1, step=5.0, t_max=60.0)
    s0 = state_on_level(-0.2499)
    for start in (s0, State(-s0.x, -s0.y)):
        for query in CLOSED_ORBIT_QUERIES:
            with pytest.raises(StepFailure, match="step=5.0 does not resolve"):
                query(start, p0, cfg)


@pytest.mark.parametrize("h", verify.PERIOD_LEVELS)
def test_actions_match_enclosed_area(p0, h):
    # independent oracle: the area inside the level set, by scipy's quad,
    # split at x = 0 outside the separatrix, where the integrand bends
    s = math.sqrt(1.0 + 4.0 * h)
    if h < 0.0:
        pieces, k = [(math.sqrt(1.0 - s), math.sqrt(1.0 + s))], 4
    else:
        pieces, k = [(-math.sqrt(1.0 + s), 0.0), (0.0, math.sqrt(1.0 + s))], 2

    def action(f):  # (1/2pi) * integral of f over the level set's x-range
        return sum(quad(f, a, b)[0] for a, b in pieces) / TWO_PI

    def Y(x):
        return math.sqrt(max(0.0, 2.0 * h + x * x - 0.5 * x**4))

    # the covering scales areas by 4(x^2 + y^2); k = 4 / (covers per loop)
    classical = action(lambda x: 2.0 * Y(x))
    covered = k * action(lambda x: 2.0 * x * x * Y(x) + 2.0 / 3.0 * Y(x) ** 3)
    s0 = state_on_level(h)
    assert abs(action_original(s0, p0) - classical) <= 1e-3 * classical
    assert abs(action_covered(s0, p0) - covered) <= 1e-3 * covered


def test_action_original_matches_one_period_integration(closed_orbit_start, p0):
    # reference: a trapezoid over a second integration of exactly one period
    s0 = closed_orbit_start
    cfg = replace(DEFAULT_CONFIG, t_max=find_period(s0, p0))
    traj = integrate_original(s0, p0, cfg)
    ref = actionangle._loop_action(traj.states[:, 0], traj.states[:, 1])
    assert abs(action_original(s0, p0) - ref) <= 1e-9 * ref


def test_action_derivative_is_period(p0):
    # classical identity dI/dH = T / 2pi, by finite differences
    h = hamiltonian(State(1.2, 0.0), p0)
    dh = 1e-4
    d_action = (
        action_original(state_on_level(h + dh), p0)
        - action_original(state_on_level(h), p0)
    ) / dh
    want = find_period(state_on_level(h), p0) / TWO_PI
    assert abs(d_action - want) <= 1e-2 * want


def test_action_original_positive(p0):
    a = action_original(State(0.0, 0.1), p0)
    assert type(a) is float and a > 0.0 and np.isfinite(a)


def test_dh_dtheta_values(p0, p_damped):
    assert dH_dtheta(State(0.0, 1.0), p_damped) == 0.1
    assert dH_dtheta(State(0.7, -0.4), p0) == 0.0
    assert dH_dtheta(State(2.0, 0.0), Params(mu=0.5)) == 0.0


def test_dh_dtheta_positive(rng, p_damped):
    n = 0
    while n < 2000:
        s = State(*rng.uniform(-3.0, 3.0, size=2))
        if s.x**2 + s.y**2 < 1e-6:
            continue
        if (s.x - 1.0) ** 2 + s.y**2 < 1e-6 or (s.x + 1.0) ** 2 + s.y**2 < 1e-6:
            continue
        n += 1
        v = dH_dtheta(s, p_damped)
        assert v >= 0.0
        assert (v > 0.0) == (s.y != 0.0)


def test_dh_dtheta_singularities(p_damped):
    with pytest.raises(OriginSingular):
        dH_dtheta(State(0.0, 0.0), p_damped)
    with pytest.raises(CenterSingular):
        dH_dtheta(State(1.0, 0.0), p_damped)


def test_energy_angle_conservative_is_flat(p0):
    s0 = State(1.2, 0.0)
    traj = integrate_original(s0, p0, replace(DEFAULT_CONFIG, t_max=find_period(s0, p0)))
    curve = energy_angle_curve(traj)
    assert float(np.max(curve[:, 1]) - np.min(curve[:, 1])) <= 1e-8


def test_energy_angle_dissipative_spiral(p_damped):
    traj = integrate_original(
        State(0.0, 1.5), p_damped, replace(DEFAULT_CONFIG, t_max=50.0)
    )
    curve = energy_angle_curve(traj)
    dth = np.diff(curve[:, 0])
    dh = np.diff(curve[:, 1])
    assert np.all(dth < 0.0)
    assert np.all(dh <= 1e-12)  # slack for integrator rounding near y = 0
    # h as a function of ascending theta is non-decreasing
    order = np.argsort(curve[:, 0])
    assert np.all(np.diff(curve[order, 1]) >= -1e-12)


def test_energy_angle_rejects_origin(p0):
    with pytest.raises(OriginSingular):
        energy_angle_curve(constant_trajectory(State(0.0, 0.0)))


def test_theta_dot_matches_flow_direction(p0):
    # the covered flow must rotate the way theta_dot_of says
    s = State(0.5, 0.8)
    x1, y1 = square(s.x, s.y)
    du, dv = covered_field(x1, y1, p0)
    numeric = ((x1 - 1.0) * dv - y1 * du) / ((x1 - 1.0) ** 2 + y1**2)
    assert numeric < 0.0
    assert abs(numeric - theta_dot_of(s)) <= 1e-12 * abs(numeric)
