import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bridgeexit import (
    EndpointsStraddleBarrier,
    barrier_infimum_vertical,
    geodesic_arc,
    hull_white_model,
    hw_distance,
    hw_transform,
    poincare_distance,
    sample_arc,
)
from bridgeexit.errors import CoincidentPoints
from bridgeexit.hyperbolic import _arc_line, _mirror_gap

import decimalref as dref
import refvalues as ref


half_plane_pts = st.tuples(
    st.floats(-5.0, 5.0, allow_nan=False),
    st.floats(0.05, 5.0, allow_nan=False),
)


# ---- distance ---- #


def test_distance_of_identical_points_is_zero():
    assert poincare_distance((1.3, 0.7), (1.3, 0.7)) == 0.0


def test_vertical_segment_distance_is_log_ratio():
    a, b = 0.3, 2.4
    assert poincare_distance((1.0, a), (1.0, b)) == pytest.approx(
        math.log(b / a), rel=1e-14
    )
    assert poincare_distance((1.0, b), (1.0, a)) == pytest.approx(
        math.log(b / a), rel=1e-14
    )


def test_reference_pair_distance():
    d = poincare_distance(ref.A_X, ref.A_Y)
    assert d == pytest.approx(math.acosh(6.45), rel=1e-14)
    assert d == pytest.approx(2.5511631554631258, rel=1e-13)


def test_close_pair_distance():
    d = poincare_distance(ref.B_X, ref.B_Y)
    assert d == pytest.approx(ref.B_D_XY, rel=1e-13)
    assert d == pytest.approx(0.4177680249664582, rel=1e-12)


def test_nearby_points_keep_relative_accuracy():
    # Euclidean separation h at height y gives distance h/y + O(h^3); the
    # naive acosh formula would lose most digits here.
    y0 = 0.7
    for h in (1e-5, 1e-7, 1e-9):
        d = poincare_distance((0.0, y0), (h, y0))
        assert d == pytest.approx(h / y0, rel=1e-6)


def test_far_vertical_distance_stays_finite():
    # u * (u + 2) inside acosh(1 + u) used to overflow past a distance of 355
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = poincare_distance((0.0, 1.0), (0.0, 1e155))
        rows = poincare_distance(np.array([[0.0, 1.0], [0.0, 1.0]]),
                                 np.array([[0.0, 1e155], [1e-9, 1.0]]))
    assert d == pytest.approx(math.log(1e155), rel=1e-12)
    assert rows[0] == d
    assert rows[1] == poincare_distance((0.0, 1.0), (1e-9, 1.0))


def test_distance_past_710_stays_finite():
    # u = |p - q|^2 / (2 p_y q_y) itself overflows here (its denominator
    # underflows to 0): the distance is 2 log |p - q| - log p_y - log q_y
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = poincare_distance((0.0, 1e-300), (1.0, 1e-300))
        rows = poincare_distance(np.array([[0.0, 1e-300], [0.0, 1.0], [0.0, 1e-300]]),
                                 np.array([[1.0, 1e-300], [0.0, 1e155], [0.0, 1e300]]))
    assert d == pytest.approx(-2.0 * math.log(1e-300), rel=1e-15)
    assert d == pytest.approx(1381.551055796, rel=1e-12)
    assert rows[0] == d
    assert rows[1] == poincare_distance((0.0, 1.0), (0.0, 1e155))
    assert rows[2] == pytest.approx(math.log(1e300) - math.log(1e-300), rel=1e-15)


def test_distance_rejects_nonpositive_height():
    with pytest.raises(ValueError):
        poincare_distance((0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        poincare_distance((0.0, 1.0), (1.0, -0.2))


def test_distances_of_points_keep_their_bits_and_rows_match_them():
    # (p, q, poincare_distance(p, q), hw_distance(1.3, 0.4, p, q),
    # hw_distance(0.7, -0.55, q, p)) as the scalar-only implementation gave
    # them; the second pair takes the series branch of acosh
    pinned = [
        ((1.0, 0.2), (2.0, 0.5), "0x1.468c83a7bcb58p+1", "0x1.241736ad9db54p+1",
         "0x1.dca49f96d7f47p+1"),
        ((0.3, 1.7), (0.300000001, 1.7), "0x1.4362c2969696ap-31",
         "0x1.60d7c27878788p-31", "0x1.833644b4b4b4cp-31"),
        ((-2.0, 0.05), (3.0, 4.0), "0x1.54accdfe5e0a2p+2", "0x1.0a70aa4a7819ap+2",
         "0x1.065793459371dp+3"),
        ((1.0, 1.0), (1.0, 1.0), "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    ]
    for p, q, d, hw_a, hw_b in pinned:
        assert poincare_distance(p, q).hex() == d
        assert hw_distance(1.3, 0.4, p, q).hex() == hw_a
        assert hw_distance(0.7, -0.55, q, p).hex() == hw_b
    rng = np.random.default_rng(31)
    P = np.column_stack([rng.uniform(-3, 3, 500), rng.uniform(0.01, 3, 500)])
    P[:50, 1] = P[50:100, 1]
    P[:50, 0] = P[50:100, 0] + 1e-9  # series branch
    Q = np.column_stack([rng.uniform(-3, 3, 500), rng.uniform(0.01, 3, 500)])
    Q[:50] = P[50:100]
    one = P[7]
    for fn in (poincare_distance, lambda p, q: hw_distance(1.3, 0.4, p, q)):
        rows = fn(P, Q)
        assert rows.tobytes() == np.array([fn(p, q) for p, q in zip(P, Q)]).tobytes()
        assert fn(one, Q).tobytes() == np.array([fn(one, q) for q in Q]).tobytes()
        assert fn(Q, one).tobytes() == np.array([fn(q, one) for q in Q]).tobytes()
    with pytest.raises(ValueError):
        hw_distance(1.3, 0.4, P[:4], np.vstack([Q[:3], [[0.0, -1.0]]]))
    with pytest.raises(ValueError):
        poincare_distance(P[:3, None], Q[:3])


@given(p=half_plane_pts, q=half_plane_pts)
@settings(max_examples=200, deadline=None)
def test_distance_symmetry(p, q):
    assert poincare_distance(p, q) == pytest.approx(
        poincare_distance(q, p), abs=1e-10, rel=1e-10
    )


@given(p=half_plane_pts, q=half_plane_pts, r=half_plane_pts)
@settings(max_examples=200, deadline=None)
def test_triangle_inequality(p, q, r):
    assert poincare_distance(p, r) <= (
        poincare_distance(p, q) + poincare_distance(q, r) + 1e-9
    )


@given(p=half_plane_pts, q=half_plane_pts,
       lam=st.floats(0.1, 10.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_dilation_about_origin_is_an_isometry(p, q, lam):
    p, q = np.asarray(p), np.asarray(q)
    assert poincare_distance(lam * p, lam * q) == pytest.approx(
        poincare_distance(p, q), rel=1e-10, abs=1e-12
    )


@given(p=half_plane_pts, q=half_plane_pts,
       x0=st.floats(-4.0, 4.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_reflection_is_an_isometry(p, q, x0):
    pr, qr = ((2.0 * x0 - z[0], z[1]) for z in (p, q))
    assert poincare_distance(pr, qr) == pytest.approx(
        poincare_distance(p, q), abs=1e-12, rel=1e-12
    )


# ---- arcs ---- #


def test_arc_through_reference_reflection_has_expected_center():
    y_ref = np.array([2.0 * ref.A_BARRIER - ref.A_Y[0], ref.A_Y[1]])
    arc = geodesic_arc(ref.A_X, y_ref)
    assert arc.kind == "circle"
    assert arc.center_x == pytest.approx(ref.A_CENTER_X, abs=1e-12)
    # both endpoints sit on the circle
    for p in (ref.A_X, y_ref):
        assert math.hypot(p[0] - arc.center_x, p[1]) == pytest.approx(
            arc.radius, rel=1e-12
        )


def test_vertical_arc_for_stacked_points():
    arc = geodesic_arc((1.5, 0.2), (1.5, 3.0))
    assert arc.kind == "vertical"


def test_arc_requires_distinct_points():
    with pytest.raises(CoincidentPoints):
        geodesic_arc((1.0, 1.0), (1.0, 1.0))


def test_sampled_arc_is_pinned_and_constant_speed():
    n = 64
    path = sample_arc(ref.A_X, ref.A_Y, n)
    pts = path.points
    assert pts.shape == (n + 1, 2)
    np.testing.assert_array_equal(pts[0], ref.A_X)
    np.testing.assert_array_equal(pts[-1], ref.A_Y)
    # hyperbolic segment lengths should all be d/n
    seg = np.array(
        [poincare_distance(pts[i], pts[i + 1]) for i in range(n)]
    )
    d = poincare_distance(ref.A_X, ref.A_Y)
    assert np.allclose(seg, d / n, rtol=1e-3)
    assert seg.sum() == pytest.approx(d, rel=1e-4)


def test_sampled_vertical_arc_spacing_is_geometric():
    path = sample_arc((0.0, 1.0), (0.0, 4.0), 2)
    # constant hyperbolic speed on a vertical line means geometric heights
    assert path.points[1][1] == pytest.approx(2.0, rel=1e-12)


def test_sampled_arc_of_one_point_repeats_it():
    # the geodesic of a point and itself is that point, as a chord's is
    path = sample_arc(ref.A_X, ref.A_X, 4)
    np.testing.assert_array_equal(path.points, np.tile(ref.A_X, (5, 1)))


# ---- barrier infimum by reflection ---- #


def test_barrier_infimum_reference_configuration():
    z_star, path_sum = barrier_infimum_vertical(ref.A_X, ref.A_Y, ref.A_BARRIER)
    assert path_sum == pytest.approx(math.acosh(21.45), rel=1e-13)
    assert z_star[0] == ref.A_BARRIER
    assert z_star[1] == pytest.approx(ref.A_Z_STAR_Y, rel=1e-12)


def test_barrier_infimum_close_configuration():
    z_star, path_sum = barrier_infimum_vertical(ref.B_X, ref.B_Y, ref.B_BARRIER)
    assert path_sum == pytest.approx(ref.B_PATH_SUM, rel=1e-12)
    assert z_star[1] == pytest.approx(ref.B_Z_STAR_Y, rel=1e-12)


def test_barrier_infimum_beats_every_grid_point():
    z_star, path_sum = barrier_infimum_vertical(ref.A_X, ref.A_Y, ref.A_BARRIER)
    heights = np.linspace(0.05, 4.0, 50)
    sums = np.array(
        [
            poincare_distance(ref.A_X, (ref.A_BARRIER, h))
            + poincare_distance((ref.A_BARRIER, h), ref.A_Y)
            for h in heights
        ]
    )
    assert (sums >= path_sum - 1e-9).all()
    # equality is approached only near the minimizer
    close = np.abs(heights - z_star[1]) < 0.15
    assert sums[~close].min() > path_sum + 1e-4


def test_barrier_infimum_needs_same_side_endpoints():
    with pytest.raises(EndpointsStraddleBarrier):
        barrier_infimum_vertical((1.0, 0.2), (3.0, 0.5), 2.5)
    with pytest.raises(EndpointsStraddleBarrier):
        barrier_infimum_vertical((2.5, 0.2), (2.0, 0.5), 2.5)


def _same_side_pair(rng, u):
    """Two random points of the half-plane strictly on one side of u, with
    heights and offsets over several decades."""
    side = rng.choice([-1.0, 1.0])
    offsets = side * np.exp(rng.uniform(-8.0, 2.0, 2))
    heights = np.exp(rng.uniform(-6.0, 4.0, 2))
    return [np.array([u + o, h]) for o, h in zip(offsets, heights)]


def test_arc_line_crossings_match_a_decimal_reference():
    rng = np.random.default_rng(27)
    tol = Decimal("1e-12")
    with localcontext() as ctx:
        ctx.prec = 60
        for k in range(300):
            P, Q = (np.array([rng.uniform(-3.0, 3.0), math.exp(rng.uniform(-5.0, 3.0))])
                    for _ in range(2))
            theta = rng.uniform(0.0, 2.0 * math.pi)
            m = (1.0, 0.0) if k % 3 == 0 else (math.cos(theta), math.sin(theta))
            sp, sq = (m[0] * p[0] + m[1] * p[1] for p in (P, Q))
            c = float(rng.uniform(*sorted((sp, sq))))
            Zu, Zw = _arc_line(P, Q, sp - c, sq - c, m)
            ru, rw = dref.arc_line(tuple(map(dref.dec, P)), tuple(map(dref.dec, Q)),
                                   tuple(map(dref.dec, m)), dref.dec(c))
            assert abs(dref.dec(Zw) - rw) <= tol * rw
            assert abs(dref.dec(Zu) - ru) <= tol * max(abs(ru), rw)
            if m == (1.0, 0.0):
                # no centre, and a height of at least the lower endpoint's
                assert Zw >= min(P[1], Q[1])


def test_reflection_heights_and_gaps_match_a_decimal_reference():
    rng = np.random.default_rng(2027)
    tol = Decimal("1e-12")
    with localcontext() as ctx:
        ctx.prec = 60
        for _ in range(200):
            u = float(rng.uniform(-3.0, 3.0))
            x, y = _same_side_pair(rng, u)
            z_star, path_sum = barrier_infimum_vertical(x, y, u)
            X, Y = tuple(map(dref.dec, x)), tuple(map(dref.dec, y))
            Y_ref = (2 * dref.dec(u) - Y[0], Y[1])
            height = dref.arc_line(X, Y_ref, (Decimal(1), Decimal(0)), dref.dec(u))[1]
            assert z_star[0] == u
            assert abs(dref.dec(z_star[1]) - height) <= tol * height
            S = dref.half_plane_distance(X, Y_ref)
            assert abs(dref.dec(path_sum) - S) <= tol * S
            gap = S - dref.half_plane_distance(X, Y)
            assert abs(dref.dec(_mirror_gap(x, y, u)) - gap) <= tol * gap


@pytest.mark.parametrize("x, y, u", [
    # high above a line close by, the two distances agree to about 21
    # digits: their difference in floats is 0, the gap is not
    ((1.0, 2e10), (2.0, 5e10), 2.5),
    # distances near 1380, whose v overflows: the gap is 1.2e-39
    ((1.0, 1e-300), (0.5, 1e20), 2.5),
    # a mirror image 2e151 away: the gap is the difference of distances
    ((0.0, 1.0), (1.0, 1.0), 1e151),
], ids=["close", "far_apart", "far_mirror"])
def test_a_mirror_gap_keeps_its_digits(x, y, u):
    x, y = np.array(x), np.array(y)
    with localcontext() as ctx:
        ctx.prec = 100
        X, Y = tuple(map(dref.dec, x)), tuple(map(dref.dec, y))
        gap = (dref.half_plane_distance(X, (2 * dref.dec(u) - Y[0], Y[1]))
               - dref.half_plane_distance(X, Y))
        assert abs(dref.dec(_mirror_gap(x, y, u)) - gap) <= Decimal("1e-15") * gap


# ---- correlated / scaled volatility geometry ---- #


def test_transform_matrix_entries():
    sv, rho = 2.0, 0.6
    rb = math.sqrt(1.0 - rho * rho)
    A = hw_transform(sv, rho)
    expect = np.array([[1.0 / rb, -rho / (sv * rb)], [0.0, 1.0 / sv]])
    np.testing.assert_allclose(A, expect, rtol=1e-14)
    # the inverse that maps half-plane samples back to the state space
    np.testing.assert_allclose(np.array([[rb, rho], [0.0, sv]]) @ A, np.eye(2), atol=1e-14)


def test_unit_parameters_reduce_to_plain_distance():
    p, q = (0.3, 0.4), (1.1, 2.0)
    assert hw_distance(1.0, 0.0, p, q) == pytest.approx(
        poincare_distance(p, q), rel=1e-14
    )


def test_vertical_moves_scale_inversely_with_vol_of_vol():
    # along the volatility axis the metric is (sigma_vol * v)^-2 dv^2
    for sv in (0.5, 2.0, 3.7):
        d = hw_distance(sv, 0.0, (1.0, 0.5), (1.0, 2.0))
        assert d == pytest.approx(math.log(4.0) / sv, rel=1e-12)


@pytest.mark.parametrize("sv,rho", [(1.0, 0.0), (2.0, 0.0), (1.0, 0.5),
                                    (2.0, -0.7)])
def test_distance_squared_matches_quadratic_form_locally(sv, rho):
    # d(p, p+h)^2 -> h' a(p)^-1 h as h -> 0; this pins the metric the
    # closed form actually realizes, not just its value on special pairs.
    rb2 = 1.0 - rho * rho
    p = np.array([0.7, 0.9])
    v = p[1]
    ainv = np.array(
        [[sv**2, -rho * sv], [-rho * sv, 1.0]]
    ) / (sv**2 * rb2 * v**2)
    rng = np.random.default_rng(7)
    for _ in range(10):
        h = 1e-5 * rng.standard_normal(2)
        d2 = hw_distance(sv, rho, p, p + h) ** 2
        q = float(h @ ainv @ h)
        assert d2 == pytest.approx(q, rel=2e-4)


def shear_image_distance(rho: float, p, q) -> float:
    """Distance of the shear images (rb*x + rho*y, y); NOT the metric distance.

    This substitution looks plausible but fails the pullback consistency
    check whenever rho != 0, and misses the 1/sigma_vol scaling entirely.
    """
    rb = math.sqrt(1.0 - rho * rho)
    return poincare_distance((rb * p[0] + rho * p[1], p[1]),
                             (rb * q[0] + rho * q[1], q[1]))


def test_shear_image_formula_disagrees_with_the_metric():
    # The plain shear (x, y) -> (rb x + rho y, y) does not pull the
    # half-plane metric back to the correlated one.  At rho = 0 the two
    # maps coincide.
    p, q = (0.3, 0.4), (1.1, 2.0)
    assert shear_image_distance(0.0, p, q) == pytest.approx(
        poincare_distance(p, q), rel=1e-14
    )
    rho = 0.7
    good = hw_distance(1.0, rho, p, q)
    bad = shear_image_distance(rho, p, q)
    assert abs(bad - good) / good > 0.05


def test_geodesic_image_endpoints_and_implicit_equation():
    # the volatility oracle's path: its images A z lie on the half-plane
    # circle through A x and A y, (u - alpha)^2 + w^2 = radius^2
    from bridgeexit.exits import _oracle

    sv, rho = 2.0, -0.4
    model = hull_white_model(sigma_vol=sv, rho=rho)
    pts = _oracle(model, model.geometry, None, ref.A_X, ref.A_Y).path(50)
    assert pts.shape == (51, 2)
    np.testing.assert_array_equal(pts[0], ref.A_X)
    np.testing.assert_array_equal(pts[-1], ref.A_Y)
    A = hw_transform(sv, rho)
    arc = geodesic_arc(A @ ref.A_X, A @ ref.A_Y)
    assert arc.kind == "circle"
    u, w = (pts @ A.T).T
    res = (u - arc.center_x) ** 2 + w**2 - arc.radius**2
    assert np.abs(res).max() < 1e-9 * arc.radius**2


# ---- input validation of the public functions ---- #

# Each public function checks its inputs on every call, whatever path the
# check takes inside; these are the exceptions and messages it raises.
# (bad point, message after the argument's name)
BAD_POINTS = [
    ((math.nan, 0.5), "must be finite"),
    ((1.0, math.nan), "must be finite"),
    ((math.inf, 0.5), "must be finite"),
    ((1.0, -math.inf), "must be finite"),
    ((-math.inf, -1.0), "must be finite"),
    ((1.0, 0.0), "must have positive second coordinate, got 0.0"),
    ((1.0, -0.0), "must have positive second coordinate, got -0.0"),
    ((1.0, -0.3), "must have positive second coordinate, got -0.3"),
]
# function, names of its two point arguments, whether it takes rows
CHECKED = {
    "poincare_distance": (poincare_distance, ("p", "q"), True),
    "hw_distance": (lambda p, q: hw_distance(1.3, 0.4, p, q), ("p", "q"), True),
    "barrier_infimum_vertical": (lambda x, y: barrier_infimum_vertical(x, y, 2.5),
                                 ("x", "y"), False),
    "geodesic_arc": (geodesic_arc, ("p", "q"), False),
}
GOOD = ((1.0, 0.2), (2.0, 0.5))


def _form(point, form):
    """point as itself, as a one-row array or as the middle of three rows."""
    if form == "point":
        return np.array(point)
    if form == "one_row":
        return np.array([point])
    if len(point) != 2:
        return np.full((3, len(point)), 0.5)
    return np.array([(1.5, 0.4), point, (0.5, 1.0)])


def _raises(exc, message, fn, *args):
    with pytest.raises(exc) as info:
        fn(*args)
    assert type(info.value) is exc
    assert str(info.value) == message


@pytest.mark.parametrize("form", ["point", "one_row", "rows"])
@pytest.mark.parametrize("name", sorted(CHECKED))
def test_public_functions_reject_bad_points_with_their_messages(name, form):
    fn, names, rows = CHECKED[name]
    for k in (0, 1):
        # a function of single points gets the other one as a point
        args = [_form(p, form if rows or i == k else "point") for i, p in enumerate(GOOD)]
        if rows or form == "point":
            fn(*args)
        for bad, message in BAD_POINTS:
            args[k] = _form(bad, form)
            if not (rows or form == "point"):
                message = f"must be a point of the plane, got shape {args[k].shape}"
            _raises(ValueError, f"{names[k]} {message}", fn, *args)
        args[k] = _form((1.0, 0.5, 2.0), form)
        _raises(ValueError, f"{names[k]} must be a point of the plane, "
                f"got shape {args[k].shape}", fn, *args)
        if form == "point":
            args[k] = np.ones((2, 2, 2))
            _raises(ValueError, f"{names[k]} must be a point of the plane, "
                    "got shape (2, 2, 2)", fn, *args)


@pytest.mark.parametrize("form", ["point", "one_row", "rows"])
def test_volatility_parameters_are_rejected_with_their_messages(form):
    from bridgeexit import DegenerateCorrelation

    p, q = (_form(g, form) for g in GOOD)
    for sv in (0.0, -1.0, math.inf, math.nan, np.float64(-2.0)):
        for fn in (lambda: hw_distance(sv, 0.4, p, q), lambda: hw_transform(sv, 0.4)):
            _raises(ValueError, f"sigma_vol must be positive, got {sv}", fn)
    for rho in (1.0, -1.0, math.nan, math.inf, -math.inf, np.float64(1.5)):
        for fn in (lambda: hw_distance(1.3, rho, p, q), lambda: hw_transform(1.3, rho)):
            _raises(DegenerateCorrelation, f"need |rho| < 1, got {rho}", fn)
    # the parameters are checked before the points
    _raises(ValueError, "sigma_vol must be positive, got 0.0",
            lambda: hw_distance(0.0, 0.4, (math.nan, 1.0), q))
