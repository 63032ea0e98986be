import importlib
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from duffing_aa import (
    Params,
    State,
    StepFailure,
    duffing_field,
    energy_rate,
    find_period,
    hamiltonian,
    state_on_level,
    verify,
)
from duffing_aa.dynamics import _number


def test_field_examples(p0, p_damped):
    assert duffing_field(State(0.0, 0.0), p0) == (0.0, 0.0)
    assert duffing_field(State(1.0, 0.0), p_damped) == (0.0, 0.0)
    assert duffing_field(State(-1.0, 0.0), p0) == (0.0, 0.0)
    assert duffing_field(State(0.0, 1.0), p_damped) == (1.0, -0.1)
    assert duffing_field(State(2.0, 0.0), p0) == (0.0, -6.0)


def test_hamiltonian_examples(p0):
    assert hamiltonian(State(0.0, 0.0), p0) == 0.0
    assert hamiltonian(State(1.0, 0.0), p0) == -0.25
    assert hamiltonian(State(0.0, 1.0), p0) == 0.5
    assert abs(hamiltonian(State(math.sqrt(2.0), 0.0), p0)) <= 1e-15


def test_energy_rate_examples(p0, p_damped):
    assert energy_rate(State(0.0, 1.0), p_damped) == -0.1
    assert energy_rate(State(3.0, 2.0), Params(mu=0.5)) == -2.0
    assert energy_rate(State(1.7, -2.3), p0) == 0.0


def test_energy_rate_gradient_oracle(rng):
    # independent route: dH/dt = H_x*x' + H_y*y'
    for mu in (0.0, 0.1, 0.5):
        p = Params(mu=mu)
        for _ in range(200):
            s = State(*rng.uniform(-3.0, 3.0, size=2))
            fx, fy = duffing_field(s, p)
            oracle = (s.x**3 - s.x) * fx + s.y * fy
            assert abs(energy_rate(s, p) - oracle) <= 1e-12


def test_energy_rate_conservative_exact(rng):
    p = Params(mu=0.0)
    for _ in range(1000):
        s = State(*rng.uniform(-3.0, 3.0, size=2))
        assert energy_rate(s, p) == 0.0


def test_energy_rate_dissipative_sign(rng):
    p = Params(mu=0.3)
    for _ in range(1000):
        s = State(*rng.uniform(-3.0, 3.0, size=2))
        r = energy_rate(s, p)
        assert r <= 0.0
        assert (r == 0.0) == (s.y == 0.0)
    assert energy_rate(State(2.0, 0.0), p) == 0.0


def test_reflection_symmetry(rng, p_damped):
    # H is even and the field is odd under (x, y) -> (-x, -y), exactly
    for _ in range(1000):
        s = State(*rng.uniform(-3.0, 3.0, size=2))
        neg = State(-s.x, -s.y)
        assert hamiltonian(s, p_damped) == hamiltonian(neg, p_damped)
        fx, fy = duffing_field(s, p_damped)
        gx, gy = duffing_field(neg, p_damped)
        assert (gx, gy) == (-fx, -fy)


def test_state_on_level():
    for h in (-0.2, -0.01, 0.005, 0.5, 2.0):
        s = state_on_level(h)
        assert s.y == 0.0 and s.x > 0.0
        assert abs(hamiltonian(s, Params()) - h) <= 1e-12
    assert state_on_level(-0.25) == State(1.0, 0.0)
    assert abs(state_on_level(0.0).x - math.sqrt(2.0)) <= 1e-15
    with pytest.raises(ValueError):
        state_on_level(-0.3)


def test_state_on_level_keeps_its_bits(monkeypatch):
    # sqrt(1 + 2*sqrt(h + 1/4)) is sqrt(1 + sqrt(1 + 4h)) scaled exactly by
    # 4 inside the root: the same bits on the levels the program measures
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    levels = list(verify.PERIOD_LEVELS)
    for seed in range(10):
        levels += workloads.action_levels(seed)
    for h in levels:
        want = float(np.sqrt(1.0 + np.sqrt(1.0 + 4.0 * h)))
        assert state_on_level(h) == State(want, 0.0), h


@pytest.mark.parametrize("h", [1e308, sys.float_info.max])
def test_state_on_level_stays_finite_where_4h_overflows(p0, h):
    # 4h overflows above about 4.5e307; the state does not, and its energy
    # is the one that overflows, which a period query names
    s = state_on_level(h)
    assert math.isfinite(s.x) and s.x > 1e76 and s.y == 0.0
    with pytest.raises(StepFailure, match="^the energy at the start .* overflows"):
        find_period(s, p0)


def test_rejects_non_finite(p0):
    for bad in (State(float("nan"), 0.0), State(0.0, float("inf")),
                State(np.array([0.0, np.nan]), np.zeros(2))):
        with pytest.raises(ValueError):
            duffing_field(bad, p0)
        with pytest.raises(ValueError):
            hamiltonian(bad, p0)
        with pytest.raises(ValueError):
            energy_rate(bad, p0)


def test_params_validation():
    with pytest.raises(ValueError):
        Params(mu=-0.1)
    with pytest.raises(ValueError):
        Params(mu=float("nan"))
    with pytest.raises(TypeError):  # no energy offset: the separatrix is H = 0
        Params(c=0.0)


@pytest.mark.parametrize(
    "kwargs, field",
    [({"mu": True}, "mu"), ({"mu": "0.1"}, "mu"), ({"mu": 10**400}, "mu"),
     ({"mu": None}, "mu")],
    ids=["bool-mu", "string-mu", "huge-int-mu", "none-mu"],
)
def test_params_refuse_what_is_not_a_finite_number(kwargs, field):
    # a bool is not a number here: Params(mu=True) would damp with mu = 1
    with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
        Params(**kwargs)


def test_params_accept_signed_zero_and_numpy_numbers():
    assert Params(mu=-0.0).mu == 0.0
    assert Params(mu=np.float64(0.1)).mu == 0.1
    assert Params(mu=np.float32(0.5)).mu == 0.5
    assert Params(mu=np.int64(2)).mu == 2


REALS = st.one_of(
    st.integers(), st.floats(), st.floats().map(np.float64), st.fractions(),
    st.floats(width=32).map(np.float32), st.floats(width=16).map(np.float16),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
)


@given(v=REALS, integer=st.booleans())
def test_number_gives_back_a_python_float_or_int(v, integer):
    # whatever Real it accepts is computed with in float64 from then on
    try:
        got = _number(v, "v", integer=integer)
    except ValueError:  # not finite, or not an integer under integer=True
        return
    if integer:
        assert type(got) is int and got == v
    else:
        assert type(got) is float and got.hex() == float(v).hex()


def test_a_float32_level_is_computed_in_float64(p0):
    # the level as a float64 holds it, and so does its state's energy
    h = np.float32(-0.2)
    assert hamiltonian(state_on_level(h), p0) == float(h)


@pytest.mark.parametrize("h", [True, "0", None, math.nan, math.inf, 10**400],
                         ids=["bool", "string", "none", "nan", "inf", "huge-int"])
def test_state_on_level_refuses_what_is_not_a_finite_number(h):
    with pytest.raises(ValueError, match="^h must be a finite number >= -1/4"):
        state_on_level(h)


def test_field_accepts_arrays(p_damped):
    x = np.array([0.0, 2.0])
    y = np.array([1.0, 0.0])
    fx, fy = duffing_field(State(x, y), p_damped)
    np.testing.assert_array_equal(fx, [1.0, 0.0])
    np.testing.assert_array_equal(fy, [-0.1, -6.0])
