import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from duffing_aa import (
    Params,
    State,
    covered_field,
    duffing_field,
    principal_root,
    sheet_sign,
    square,
)
from duffing_aa.covering import CENTER_EXCLUSION, _check_away_from_centers
from duffing_aa.exceptions import CenterSingular
from duffing_aa.verify import check_roundtrip


def pushforward(s: State, p: Params) -> tuple[float, float]:
    # oracle: image of the field under the Jacobian [[2x, -2y], [2y, 2x]]
    fx, fy = duffing_field(s, p)
    return 2.0 * s.x * fx - 2.0 * s.y * fy, 2.0 * s.y * fx + 2.0 * s.x * fy


def round_trip(x, y):
    # the principal root of the square, signed by the sheet
    sign = sheet_sign(x, y)
    back_x, back_y = principal_root(*square(x, y))
    return back_x * sign, back_y * sign


def test_cover_map_examples():
    assert square(1.0, 0.0) == (1.0, 0.0) and sheet_sign(1.0, 0.0) == 1
    assert square(-1.0, 0.0) == (1.0, -0.0) and sheet_sign(-1.0, 0.0) == -1
    assert square(1.0, 1.0) == (0.0, 2.0) and sheet_sign(1.0, 1.0) == 1
    # the cut side: x = 0 is Upper for y > 0 and Lower for y < 0
    assert square(0.0, 1.0) == (-1.0, 0.0) and sheet_sign(0.0, 1.0) == 1
    assert square(0.0, -1.0) == (-1.0, -0.0) and sheet_sign(0.0, -1.0) == -1
    # the branch point is Upper, whatever the signs of its zeros
    assert square(0.0, 0.0) == (0.0, 0.0) and sheet_sign(0.0, 0.0) == 1
    assert sheet_sign(-0.0, -0.0) == 1


def test_inverse_examples():
    assert principal_root(1.0, 0.0) == (1.0, 0.0)
    assert principal_root(0.0, 2.0) == (1.0, 1.0)
    assert principal_root(-1.0, 0.0) == (0.0, 1.0)
    # the Lower preimage is the negated root
    assert round_trip(-1.0, 0.0) == (-1.0, 0.0)
    assert round_trip(0.0, -1.0) == (0.0, -1.0)
    # the branch point maps to itself
    assert principal_root(0.0, 0.0) == (0.0, 0.0)
    assert round_trip(0.0, 0.0) == (0.0, 0.0)


def test_round_trip(rng):
    x, y = rng.uniform(-3.0, 3.0, size=(2, 10_000))
    back_x, back_y = round_trip(x, y)
    assert max(np.max(np.abs(back_x - x)), np.max(np.abs(back_y - y))) <= 1e-12


def test_round_trip_on_axes():
    x = np.array([0.0, 0.0, 2.0, -2.0])
    y = np.array([2.0, -2.0, 0.0, 0.0])
    back_x, back_y = round_trip(x, y)
    assert np.all(np.abs(back_x - x) <= 1e-15) and np.all(np.abs(back_y - y) <= 1e-15)


def test_radius_identity(rng):
    # |w|^2 = |z|^4: pins the radial variable of the covered field
    x, y = rng.uniform(-3.0, 3.0, size=(2, 10_000))
    x1, y1 = square(x, y)
    lhs = x1**2 + y1**2
    rhs = (x * x + y * y) ** 2
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.maximum(rhs, 1.0))


def test_covered_field_examples(p0, p_damped):
    assert covered_field(1.0, 0.0, p0) == (0.0, 0.0)
    # expected values derived from the pushforward oracle at the preimages
    assert pushforward(State(0.0, 1.0), p0) == (0.0, 2.0)
    assert covered_field(-1.0, 0.0, p0) == (0.0, 2.0)
    assert pushforward(State(1.0, 1.0), p0) == (2.0, 2.0)
    assert covered_field(0.0, 2.0, p0) == (2.0, 2.0)
    assert pushforward(State(0.0, 1.0), p_damped) == (0.2, 2.0)
    got = covered_field(-1.0, 0.0, p_damped)
    assert abs(got[0] - 0.2) <= 1e-15 and got[1] == 2.0


def test_pushforward_consistency(rng):
    for mu in (0.0, 0.1, 0.5):
        p = Params(mu=mu)
        x, y = rng.uniform(-3.0, 3.0, size=(2, 10_000))
        got = covered_field(*square(x, y), p)
        want = pushforward(State(x, y), p)
        worst = max(np.max(np.abs(got[0] - want[0])), np.max(np.abs(got[1] - want[1])))
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


def test_equivariance(rng):
    # s and -s share their square; off the y-axis they are on opposite sheets
    x, y = rng.uniform(-3.0, 3.0, size=(2, 1000))
    x, y = x[x != 0.0], y[x != 0.0]
    assert np.array_equal(np.stack(square(x, y)), np.stack(square(-x, -y)))
    assert np.array_equal(sheet_sign(-x, -y), -sheet_sign(x, y))


def test_round_trip_near_axes(rng):
    # |x| or |y| tiny: the smaller root must not come from sqrt(r - |x1|),
    # which cancels there
    big = rng.uniform(0.1, 3.0, size=2_000) * rng.choice((-1.0, 1.0), size=2_000)
    tiny = rng.uniform(-1e-8, 1e-8, size=2_000)
    x = np.concatenate((tiny, big))
    y = np.concatenate((big, tiny))
    back_x, back_y = round_trip(x, y)
    assert max(np.max(np.abs(back_x - x)), np.max(np.abs(back_y - y))) <= 1e-12


def test_round_trip_seed_49_sample():
    # the worst sample of check_roundtrip at seed 49, once off by 1.9e-10
    x, y = -0.8587931318958812, -6.930102225410906e-08
    back_x, back_y = round_trip(x, y)
    assert abs(back_x - x) <= 1e-12 and abs(back_y - y) <= 1e-12
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
    du, dv = covered_field(x1, y1, p0)
    np.testing.assert_allclose(du, [0.0, 0.0, 2.0], atol=1e-15)
    np.testing.assert_allclose(dv, [0.0, 2.0, 2.0], atol=1e-15)


def center_guard_reference(x, y) -> bool:
    """The guard's array rule without its band prefilter: every point
    squared, as the guard squared them before it kept the band alone, and
    no square's overflow or underflow raised."""
    x, y = np.asarray(x), np.asarray(y)
    with np.errstate(over="ignore", under="ignore"):
        yy = y**2
        return bool(np.any((x - 1.0) ** 2 + yy < CENTER_EXCLUSION**2)
                    or np.any((x + 1.0) ** 2 + yy < CENTER_EXCLUSION**2))


def _refuses(x, y) -> bool:
    try:
        _check_away_from_centers(x, y)
    except CenterSingular:
        return True
    return False


def test_center_guard_decides_alike_on_floats_and_arrays():
    # floats are squared by products, arrays by numpy's ** 2 and only in
    # the band |(|x| - 1)| < 2e-9: points at and about 1e-9 from either
    # center, on the band's edges, far off, overflowing, infinite and NaN
    # are refused on every path, or on none, as the unfiltered rule says;
    # no square that overflows or underflows warns or raises, even where
    # every floating-point error raises
    e = CENTER_EXCLUSION
    points = [(0.0, 0.0), (1e200, 0.0), (0.0, -1e300), (math.nan, 0.0),
              (1.0, math.nan), (math.nan, math.nan), (1.0, 1e200), (-1.0, -1e200),
              (1.0 + 0.5 * e, 1e200), (1e200, 1e200), (1.0, 1e-200),
              (-1.0 - 0.5 * e, -1e-300), (1.0 + 3.0 * e, 1e-170), (0.3, 1e-200)]
    for inf in (math.inf, -math.inf):
        points += [(inf, 0.0), (1.0, inf), (-1.0, inf), (inf, inf), (inf, math.nan)]
    for center in (1.0, -1.0):
        for a in np.linspace(0.0, 2.0 * math.pi, 13):
            for d in e * np.array([0.0, 0.5, 1.0 - 2.0**-40, 1.0, 1.0 + 2.0**-40,
                                   2.0, 3.0]):
                points.append((center + d * math.cos(a), d * math.sin(a)))
        for edge in (center - 2.0 * e, center + 2.0 * e):  # the band's edges
            for x in np.nextafter(edge, [-math.inf, math.inf]).tolist() + [edge]:
                points += [(x, 0.0), (x, 1e-10)]
    refused = []
    with np.errstate(all="raise"):
        for x, y in points:
            want = center_guard_reference(np.array([x]), np.array([y]))
            assert _refuses(x, y) == want, (x, y)  # the float path
            assert _refuses(np.array([x]), np.array([y])) == want, (x, y)
            assert _refuses(np.array(x), np.array(y)) == want, (x, y)  # 0-d
            # an array x with a scalar y and the reverse, the other points
            # far from both centers; and a broadcast (2, 1) by (2,)
            for args in ((np.array([x, 0.0, 5.0]), y),
                         (np.array([0.0, x, 1e300]), np.array(y)),
                         (x, np.array([7.0, y, 1e300])),
                         (np.array(x), np.array([y, -3.0])),
                         (np.array([[x], [0.0]]), np.array([y, 3.0]))):
                assert center_guard_reference(*args) == want, (x, y, args)
                assert _refuses(*args) == want, (x, y, args)
            refused.append(want)
        assert 0 < sum(refused) < len(refused)
        # many points at once: refused iff one of them is
        xs, ys = (np.array(c) for c in zip(*points))
        far = ~np.array(refused)
        assert _refuses(xs, ys) and not _refuses(xs[far], ys[far])
        assert _refuses(xs[far], 0.0) == center_guard_reference(xs[far], 0.0)
