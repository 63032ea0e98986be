import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from duffing_aa import (
    CoveredState,
    Params,
    Sheet,
    State,
    cover_map,
    covered_field,
    duffing_field,
    inverse_cover,
)
from duffing_aa.covering import principal_root, sheet_sign, square
from duffing_aa.verify import check_roundtrip


def pushforward(s: State, p: Params) -> tuple[float, float]:
    # oracle: image of the field under the Jacobian [[2x, -2y], [2y, 2x]]
    fx, fy = duffing_field(s, p)
    return 2.0 * s.x * fx - 2.0 * s.y * fy, 2.0 * s.y * fx + 2.0 * s.x * fy


def test_cover_map_examples():
    assert cover_map(State(1.0, 0.0)) == CoveredState(1.0, 0.0, Sheet.UPPER)
    assert cover_map(State(-1.0, 0.0)) == CoveredState(1.0, -0.0, Sheet.LOWER)
    assert cover_map(State(1.0, 1.0)) == CoveredState(0.0, 2.0, Sheet.UPPER)
    c = cover_map(State(0.0, 1.0))
    assert (c.x1, c.y1, c.sheet) == (-1.0, 0.0, Sheet.UPPER)
    assert cover_map(State(0.0, -1.0)).sheet is Sheet.LOWER
    assert cover_map(State(0.0, 0.0)) == CoveredState(0.0, 0.0, Sheet.UPPER)


def test_inverse_examples():
    assert inverse_cover(CoveredState(1.0, 0.0, Sheet.UPPER)) == State(1.0, 0.0)
    assert inverse_cover(CoveredState(1.0, 0.0, Sheet.LOWER)) == State(-1.0, -0.0)
    assert inverse_cover(CoveredState(0.0, 2.0, Sheet.UPPER)) == State(1.0, 1.0)
    assert inverse_cover(CoveredState(-1.0, 0.0, Sheet.UPPER)) == State(0.0, 1.0)
    # the branch point ignores the tag
    assert inverse_cover(CoveredState(0.0, 0.0, Sheet.UPPER)) == State(0.0, 0.0)
    assert inverse_cover(CoveredState(0.0, 0.0, Sheet.LOWER)) == State(-0.0, -0.0)


def test_round_trip(rng):
    worst = 0.0
    for _ in range(10_000):
        s = State(*rng.uniform(-3.0, 3.0, size=2))
        back = inverse_cover(cover_map(s))
        worst = max(worst, abs(back.x - s.x), abs(back.y - s.y))
    assert worst <= 1e-12


def test_round_trip_on_axes():
    for s in (State(0.0, 2.0), State(0.0, -2.0), State(2.0, 0.0), State(-2.0, 0.0)):
        back = inverse_cover(cover_map(s))
        assert abs(back.x - s.x) <= 1e-15 and abs(back.y - s.y) <= 1e-15


def test_radius_identity(rng):
    # |w|^2 = |z|^4: pins the radial variable of the covered field
    for _ in range(10_000):
        x, y = rng.uniform(-3.0, 3.0, size=2)
        c = cover_map(State(x, y))
        lhs = c.x1**2 + c.y1**2
        rhs = (x * x + y * y) ** 2
        assert abs(lhs - rhs) <= 1e-12 * max(rhs, 1.0)


def test_covered_field_examples(p0, p_damped):
    assert covered_field(CoveredState(1.0, 0.0, Sheet.UPPER), p0) == (0.0, 0.0)
    # expected values derived from the pushforward oracle at the preimages
    assert pushforward(State(0.0, 1.0), p0) == (0.0, 2.0)
    got = covered_field(CoveredState(-1.0, 0.0, Sheet.UPPER), p0)
    assert got == (0.0, 2.0)
    assert pushforward(State(1.0, 1.0), p0) == (2.0, 2.0)
    assert covered_field(CoveredState(0.0, 2.0, Sheet.UPPER), p0) == (2.0, 2.0)
    assert pushforward(State(0.0, 1.0), p_damped) == (0.2, 2.0)
    got = covered_field(CoveredState(-1.0, 0.0, Sheet.UPPER), p_damped)
    assert abs(got[0] - 0.2) <= 1e-15 and got[1] == 2.0


def test_pushforward_consistency(rng):
    for mu in (0.0, 0.1, 0.5):
        p = Params(mu=mu)
        worst = 0.0
        for _ in range(10_000):
            s = State(*rng.uniform(-3.0, 3.0, size=2))
            c = cover_map(s)
            got = covered_field(c, p)
            want = pushforward(s, p)
            worst = max(worst, abs(got[0] - want[0]), abs(got[1] - want[1]))
        assert worst <= 1e-10, f"mu={mu}: {worst}"


def test_jacobian_matches_finite_differences(p0):
    # sanity on the oracle itself: FD pushforward at a few points
    eps = 1e-7
    for s in (State(0.4, 1.3), State(-1.2, 0.7), State(2.0, -0.5)):
        fx, fy = duffing_field(s, p0)
        want = pushforward(s, p0)

        def w(x, y):
            return x * x - y * y, 2.0 * x * y

        du = (
            (w(s.x + eps, s.y)[0] - w(s.x - eps, s.y)[0]) / (2 * eps) * fx
            + (w(s.x, s.y + eps)[0] - w(s.x, s.y - eps)[0]) / (2 * eps) * fy
        )
        dv = (
            (w(s.x + eps, s.y)[1] - w(s.x - eps, s.y)[1]) / (2 * eps) * fx
            + (w(s.x, s.y + eps)[1] - w(s.x, s.y - eps)[1]) / (2 * eps) * fy
        )
        assert abs(du - want[0]) <= 1e-5 and abs(dv - want[1]) <= 1e-5


def test_color_independence(rng, p_damped):
    for _ in range(100):
        x1, y1 = rng.uniform(-4.0, 4.0, size=2)
        up = covered_field(CoveredState(x1, y1, Sheet.UPPER), p_damped)
        lo = covered_field(CoveredState(x1, y1, Sheet.LOWER), p_damped)
        assert up == lo


def test_equivariance(rng):
    for _ in range(1000):
        s = State(*rng.uniform(-3.0, 3.0, size=2))
        if s.x == 0.0:
            continue
        c = cover_map(s)
        d = cover_map(State(-s.x, -s.y))
        assert (c.x1, c.y1) == (d.x1, d.y1)
        assert d.sheet is not c.sheet


def test_round_trip_near_axes(rng):
    # |x| or |y| tiny: the smaller root must not come from sqrt(r - |x1|),
    # which cancels there
    worst = 0.0
    for _ in range(2_000):
        big = rng.uniform(0.1, 3.0) * rng.choice((-1.0, 1.0))
        tiny = rng.uniform(-1e-8, 1e-8)
        for s in (State(tiny, big), State(big, tiny)):
            back = inverse_cover(cover_map(s))
            worst = max(worst, abs(back.x - s.x), abs(back.y - s.y))
    assert worst <= 1e-12


def test_round_trip_seed_49_sample():
    # the worst sample of check_roundtrip at seed 49, once off by 1.9e-10
    s = State(-0.8587931318958812, -6.930102225410906e-08)
    back = inverse_cover(cover_map(s))
    assert abs(back.x - s.x) <= 1e-12 and abs(back.y - s.y) <= 1e-12
    assert check_roundtrip(seed=49).passed


def test_principal_root_on_axes_cut_and_origin():
    # the array form, as check_roundtrip uses it: a point on the cut takes
    # y >= 0 whatever the sign of its zero, and the origin maps to itself
    x1 = np.array([4.0, -4.0, -4.0, 0.0, 0.0, 0.0])
    y1 = np.array([0.0, 0.0, -0.0, 0.0, 2.0, -2.0])
    x, y = principal_root(x1, y1)
    assert x.tolist() == [2.0, 0.0, 0.0, 0.0, 1.0, 1.0]
    assert y.tolist() == [0.0, 2.0, 2.0, 0.0, 1.0, -1.0]
    assert not np.any(np.signbit(y[:5]))


# zeros of both signs put points on both axes; magnitudes stay above 1e-100
# so that no square underflows
_coord = st.one_of(
    st.sampled_from((0.0, -0.0)),
    st.builds(lambda v, sign: sign * v, st.floats(1e-100, 3.0),
              st.sampled_from((1.0, -1.0))),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_coord, _coord), min_size=1, max_size=40))
def test_signed_root_of_square_is_identity(points):
    x, y = np.array(points).T
    sign = sheet_sign(x, y)
    back_x, back_y = principal_root(*square(x, y))
    bound = 2.0 * np.finfo(np.float64).eps * np.hypot(x, y)
    assert np.all(np.abs(back_x * sign - x) <= bound)
    assert np.all(np.abs(back_y * sign - y) <= bound)


def test_covered_field_vectorized(p0):
    x1 = np.array([1.0, -1.0, 0.0])
    y1 = np.array([0.0, 0.0, 2.0])
    du, dv = covered_field(CoveredState(x1, y1, Sheet.UPPER), p0)
    np.testing.assert_allclose(du, [0.0, 0.0, 2.0], atol=1e-15)
    np.testing.assert_allclose(dv, [0.0, 2.0, 2.0], atol=1e-15)
