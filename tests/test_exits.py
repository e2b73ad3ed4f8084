import math
import warnings
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bridgeexit import (
    BothZero,
    DiffusionModel,
    DiscretePath,
    Hyperplane,
    IncompleteModel,
    NotSPD,
    OutsideDomain,
    ParametricCurve,
    SolverOptions,
    VerticalBarrier,
    bridge_rate,
    compare_freezing,
    constant_model,
    exit_asymptotics,
    exit_probability_equivalent,
    frozen_exit_asymptotics,
    grid_model,
    hull_white_model,
    hw_distance,
    model_distance,
    optimal_crossing_time,
    pointwise_exit_cost,
    poincare_distance,
    sample_arc,
    solve_geodesic,
    time_profile,
)
from bridgeexit.exits import SCAN_GAP
from bridgeexit.model import domain_test_batch

import decimalref as dref
import refvalues as ref

EPS = float(np.finfo(float).eps)


def assert_consistent(res, boundary=None):
    """A solver scan's result agrees with itself: every leg is finite,
    u_bar lies in [0, 1], z_star lies on the plane of the boundary (if it
    is one) within rounding, and J is (1/2)((d_xz + d_zy)^2 - d_xy^2)."""
    from bridgeexit.exits import _as_plane

    assert all(map(math.isfinite, (res.d_xy, res.d_xz, res.d_zy)))
    assert 0.0 <= res.u_bar <= 1.0
    plane = None if boundary is None else _as_plane(boundary, len(res.z_star))
    if plane is not None:
        scale = max(1.0, abs(plane.offset), float(np.abs(res.z_star).max()))
        assert abs(float(plane.normal @ res.z_star) - plane.offset) <= 4 * EPS * scale
    S = res.d_xz + res.d_zy
    assert res.J == max(0.5 * (S * S - res.d_xy * res.d_xy), 0.0)


# ---- elementary pieces ---- #


def test_time_profile_simple_values():
    assert time_profile(0.5, 1.0, 1.0, 0.0) == pytest.approx(2.0)
    assert time_profile(1e-12, 1.0, 1.0, 0.0) > 1e10


def test_time_profile_grid_matches_pointwise_cost():
    model = hull_white_model()
    rng = np.random.default_rng(21)
    us = np.linspace(1e-6, 1.0 - 1e-6, 10_000)
    for _ in range(10):
        x = np.array([rng.uniform(-1, 1), rng.uniform(0.2, 2)])
        y = np.array([rng.uniform(-1, 1), rng.uniform(0.2, 2)])
        z = np.array([rng.uniform(-1, 1), rng.uniform(0.2, 2)])
        d_xy = poincare_distance(x, y)
        d_xz = poincare_distance(x, z)
        d_zy = poincare_distance(z, y)
        grid_min = time_profile(us, d_xz, d_zy, d_xy).min()
        cost = pointwise_exit_cost(model, x, y, z)
        assert grid_min == pytest.approx(cost, abs=1e-6, rel=1e-6)


def test_time_profile_accepts_vectorized_u():
    us = np.array([0.25, 0.5, 0.75])
    out = time_profile(us, 1.0, 1.0, 0.0)
    assert out.shape == (3,)
    assert out[1] == pytest.approx(2.0)


def test_optimal_crossing_time_values():
    assert optimal_crossing_time(1.0, 1.0) == 0.5
    assert optimal_crossing_time(0.0, 1.0) == 0.0
    assert optimal_crossing_time(3.0, 1.0) == pytest.approx(0.75)
    with pytest.raises(BothZero):
        optimal_crossing_time(0.0, 0.0)


def test_crossing_time_minimizes_the_profile():
    d_xz, d_zy, d_xy = 0.7, 0.3, 0.5
    u_bar = optimal_crossing_time(d_xz, d_zy)
    us = np.linspace(1e-4, 1 - 1e-4, 1000)
    assert (time_profile(u_bar, d_xz, d_zy, d_xy)
            <= time_profile(us, d_xz, d_zy, d_xy) + 1e-12).all()


def test_probability_equivalent():
    assert exit_probability_equivalent(0.0, 0.1) == 1.0
    assert exit_probability_equivalent(0.3, 0.1) == pytest.approx(math.exp(-3.0))
    assert exit_probability_equivalent(1.0, 1e-6) == 0.0


def test_pointwise_cost_vanishes_on_the_connecting_geodesic():
    model = hull_white_model()
    mid = sample_arc(ref.A_X, ref.A_Y, 8).points[3]
    assert pointwise_exit_cost(model, ref.A_X, ref.A_Y, mid) == pytest.approx(
        0.0, abs=1e-9
    )


def test_pointwise_cost_at_reference_crossing():
    model = hull_white_model()
    z = np.array([ref.A_BARRIER, ref.A_Z_STAR_Y])
    assert pointwise_exit_cost(model, ref.A_X, ref.A_Y, z) == pytest.approx(
        ref.A_J, rel=1e-10
    )


def test_pointwise_cost_under_the_path_optimizer_has_the_bits_of_separate_solves():
    # the legs at z are one cold stack, without options as with them
    model = diag_v_grid()
    z = np.array([ref.A_BARRIER, 0.9])
    opts = SolverOptions()
    d_xy, d_xz, d_zy = (solve_geodesic(model, p, q, opts).distance
                        for p, q in ((ref.A_X, ref.A_Y), (ref.A_X, z), (z, ref.A_Y)))
    assert pointwise_exit_cost(model, ref.A_X, ref.A_Y, z) == max(
        0.5 * ((d_xz + d_zy) ** 2 - d_xy**2), 0.0)


def test_pointwise_cost_flat_reflection_value():
    # identity metric, both endpoints at heights dx, dy above a line: the
    # optimal crossing costs 2 dx dy
    model = constant_model(np.eye(2))
    dx, dy = 0.5, 0.3
    x = np.array([0.0, dx])
    y = np.array([1.0, dy])
    # optimal point from straight reflection across height 0
    yr = np.array([1.0, -dy])
    lam = dx / (dx + dy)
    z = x + lam * (yr - x)
    z[1] = 0.0
    assert pointwise_exit_cost(model, x, y, z) == pytest.approx(
        2 * dx * dy, rel=1e-12
    )


# ---- bridge_rate ---- #


def test_bridge_rate_of_connecting_geodesic_is_zero():
    model = hull_white_model()
    path = sample_arc(ref.A_X, ref.A_Y, 200)
    assert bridge_rate(model, path, ref.A_X, ref.A_Y) == pytest.approx(
        0.0, abs=1e-6
    )


def test_bridge_rate_of_detour_is_positive():
    model = hull_white_model()
    u_bar = ref.B_D_XY  # placeholder, recomputed below
    z = np.array([ref.B_BARRIER, ref.B_Z_STAR_Y])
    d_xz = poincare_distance(ref.B_X, z)
    d_zy = poincare_distance(z, ref.B_Y)
    u_bar = d_xz / (d_xz + d_zy)
    n = 400
    n1 = int(round(u_bar * n))
    leg1 = sample_arc(ref.B_X, z, n1).points
    leg2 = sample_arc(z, ref.B_Y, n - n1).points
    path = DiscretePath(np.vstack([leg1, leg2[1:]]))
    rate = bridge_rate(model, path, ref.B_X, ref.B_Y)
    assert rate == pytest.approx(ref.B_J, abs=1e-3)


def test_bridge_rate_wrong_endpoint_is_infinite():
    model = hull_white_model()
    pts = np.linspace(ref.A_X, ref.A_Y + np.array([0.3, 0.0]), 41)
    assert bridge_rate(model, DiscretePath(pts), ref.A_X, ref.A_Y) == math.inf


def test_bridge_rate_requires_matching_start():
    model = hull_white_model()
    pts = np.linspace(ref.A_X + np.array([0.5, 0.0]), ref.A_Y, 41)
    with pytest.raises(ValueError):
        bridge_rate(model, DiscretePath(pts), ref.A_X, ref.A_Y)


# ---- boundary objects ---- #


def test_hyperplane_normalizes_its_normal():
    p = Hyperplane(np.array([2.0, 0.0]), 5.0)
    assert p.normal[0] == pytest.approx(1.0)
    assert p.offset == pytest.approx(2.5)
    with pytest.raises(ValueError):
        Hyperplane(np.array([0.0, 0.0]), 1.0)
    # np.linalg.norm of these overflowed or underflowed, and the normals
    # were refused as zero or infinite
    for scale in (1e200, 1e-200):
        q = Hyperplane(np.array([2.0, 0.0]) * scale, 5.0 * scale)
        assert q.normal.tobytes() == p.normal.tobytes()
        assert q.offset == pytest.approx(2.5, rel=1e-15)
    with pytest.raises(ValueError, match="divided by the norm leaves the float range"):
        Hyperplane(np.array([1e-300, 0.0]), 1e300)


def test_parametric_curve_validation():
    chart = lambda th: np.array([2.5, th])
    with pytest.raises(ValueError):
        ParametricCurve(chart, 1.0, 1.0)
    with pytest.raises(ValueError):
        ParametricCurve(chart, 0.0, 1.0, samples=2)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_boundaries_refuse_numbers_that_are_not_finite(bad):
    with pytest.raises(ValueError, match="vertical barrier x0 must be finite"):
        VerticalBarrier(bad)
    with pytest.raises(ValueError, match="hyperplane offset must be finite"):
        Hyperplane(np.array([1.0, 0.2]), bad)
    chart = lambda th: np.array([2.5, th])
    for lo, hi in ((bad, 1.0), (0.0, bad)):
        with pytest.raises(ValueError, match="theta_min and theta_max must be finite"):
            ParametricCurve(chart, lo, hi)


def test_a_barrier_whose_mirror_image_overflows_is_refused():
    # the half-plane reflection of y across x = 1e308 is not finite
    model = hull_white_model(sigma_vol=1.5)
    for x0 in (1e308, -1e308):
        with pytest.raises(ValueError, match="mirror image of y across the barrier"):
            exit_asymptotics(model, ref.A_X, ref.A_Y, VerticalBarrier(x0))


def test_a_curve_outside_the_domain_is_refused():
    # every sample reads +inf, so no point of the curve has a distance
    model = hull_white_model(sigma_vol=1.5, rho=0.5)
    below = ParametricCurve(lambda th: np.array([2.5, -1.0 - th]), 0.0, 1.0)
    runs = [
        lambda: exit_asymptotics(model, ref.A_X, ref.A_Y, below),
        lambda: exit_asymptotics(model, ref.A_X, ref.A_Y, below,
                                 opts=SolverOptions(n=20), force_numeric=True),
        # the frozen comparator's whitened norm is defined off the domain,
        # but its scan keeps to the domain all the same
        lambda: frozen_exit_asymptotics(model, ref.A_X, ref.A_Y, below, ref.A_Y),
    ]
    for run in runs:
        with pytest.raises(OutsideDomain, match="no sample of the boundary"):
            run()


@pytest.mark.parametrize("kind", ["volatility", "constant"])
def test_distance_wrappers_check_their_points(kind):
    if kind == "volatility":
        model = hull_white_model(sigma_vol=1.5, rho=0.5)
    else:
        model = constant_model(np.array([[1.0, 0.0], [0.3, 0.8]]))
    bad = [((math.nan, 0.5), ValueError, "must be finite"),
           ((1.0, math.inf), ValueError, "must be finite"),
           ((1.0, 0.5, 2.0), ValueError, "must be a point of dimension 2")]
    if kind == "volatility":
        bad += [((1.0, 0.0), OutsideDomain, "is outside the model domain"),
                ((1.0, -0.5), OutsideDomain, "is outside the model domain")]
    good = [ref.A_X, ref.A_Y, np.array([2.5, 1.0])]
    calls = [(lambda p, q, z: model_distance(model, p, q), "pq"),
             (lambda x, y, z: pointwise_exit_cost(model, x, y, z), "xyz")]
    for fn, names in calls:
        fn(*good)
        for k, name in enumerate(names):
            for point, exc, message in bad:
                args = list(good)
                args[k] = point
                with pytest.raises(exc) as info:
                    fn(*args)
                assert str(info.value).startswith(name + " ")
                assert message in str(info.value)


def test_vertical_barrier_needs_two_dimensions():
    model = constant_model(np.eye(3))
    x = np.zeros(3)
    y = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        exit_asymptotics(model, x, y, VerticalBarrier(2.0))


# ---- closed-form backends ---- #


def test_reference_configuration_a_full_result():
    model = hull_white_model()
    res = exit_asymptotics(model, ref.A_X, ref.A_Y, VerticalBarrier(ref.A_BARRIER))
    assert res.method == "closed_form"
    assert res.J == pytest.approx(ref.A_J, rel=1e-10)
    assert res.z_star[0] == pytest.approx(ref.A_BARRIER)
    assert res.z_star[1] == pytest.approx(ref.A_Z_STAR_Y, rel=1e-9)
    assert res.d_xy == pytest.approx(ref.A_D_XY, rel=1e-12)
    assert res.d_xz + res.d_zy == pytest.approx(ref.A_PATH_SUM, rel=1e-10)
    assert res.u_bar == pytest.approx(0.7470257500197013, rel=1e-9)
    assert not res.geodesic_exits and not res.degenerate
    assert math.isnan(res.scan_gap)  # a reflection computes no bound


def test_reference_configuration_b_full_result():
    model = hull_white_model()
    res = exit_asymptotics(model, ref.B_X, ref.B_Y, VerticalBarrier(ref.B_BARRIER))
    assert res.J == pytest.approx(ref.B_J, rel=1e-10)
    assert res.z_star[1] == pytest.approx(ref.B_Z_STAR_Y, rel=1e-9)
    assert res.u_bar == pytest.approx(0.6868482461825789, rel=1e-8)


def test_barrier_left_of_endpoints_mirrors_the_problem():
    model = hull_white_model()
    res = exit_asymptotics(model, ref.A_X, ref.A_Y, VerticalBarrier(-0.5))
    mirrored_x = np.array([-ref.A_X[0] - 1.0, ref.A_X[1]])
    mirrored_y = np.array([-ref.A_Y[0] - 1.0, ref.A_Y[1]])
    mirror = exit_asymptotics(model, mirrored_x, mirrored_y, VerticalBarrier(-0.5))
    assert res.J == pytest.approx(mirror.J, rel=1e-12)


def test_endpoint_symmetry_closed_form():
    model = hull_white_model()
    b = VerticalBarrier(ref.A_BARRIER)
    r1 = exit_asymptotics(model, ref.A_X, ref.A_Y, b)
    r2 = exit_asymptotics(model, ref.A_Y, ref.A_X, b)
    assert abs(r1.J - r2.J) <= 1e-9 * r1.J
    assert r2.u_bar == pytest.approx(1.0 - r1.u_bar, abs=1e-9)


def test_constant_metric_hyperplane_reflection():
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    model = constant_model(np.linalg.cholesky(a))
    n = np.array([0.0, 1.0])
    plane = Hyperplane(n, 0.0)
    x = np.array([0.0, 0.5])
    y = np.array([1.0, 0.3])
    res = exit_asymptotics(model, x, y, plane)
    expect = 2.0 * 0.5 * 0.3 / float(n @ a @ n)
    assert res.J == pytest.approx(expect, rel=1e-12)
    assert res.z_star[1] == pytest.approx(0.0, abs=1e-12)
    assert res.method == "closed_form"
    assert math.isnan(res.scan_gap)


def test_enlarging_the_domain_never_decreases_the_exponent():
    model = hull_white_model()
    sweep = [
        exit_asymptotics(model, ref.A_X, ref.A_Y, VerticalBarrier(x0)).J
        for x0 in np.linspace(2.2, 5.0, 12)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(sweep, sweep[1:]))


def test_geodesic_reaching_the_barrier_gives_zero_exponent():
    model = hull_white_model()
    # barrier between the endpoints
    res = exit_asymptotics(model, ref.A_X, ref.A_Y, VerticalBarrier(1.5))
    assert res.J == 0.0
    assert res.geodesic_exits
    assert ref.A_X[0] < res.z_star[0] < ref.A_Y[0]
    assert res.z_star[0] == pytest.approx(1.5, abs=1e-9)


def test_endpoint_on_the_barrier_is_degenerate():
    model = hull_white_model()
    res = exit_asymptotics(model, ref.A_X, ref.A_Y, VerticalBarrier(2.0))
    assert res.J == 0.0
    assert res.degenerate
    np.testing.assert_allclose(res.z_star, ref.A_Y, atol=1e-12)


def test_incomplete_model_is_refused():
    model = constant_model(np.eye(2), complete=False)
    with pytest.raises(IncompleteModel):
        exit_asymptotics(model, [0.0, 0.5], [1.0, 0.5], VerticalBarrier(2.0))
    with pytest.raises(IncompleteModel):
        frozen_exit_asymptotics(model, [0.0, 0.5], [1.0, 0.5],
                                VerticalBarrier(2.0), [0.5, 0.5])


def test_endpoints_must_lie_inside_the_domain():
    model = hull_white_model()
    with pytest.raises(OutsideDomain):
        exit_asymptotics(model, [1.0, -0.2], [2.0, 0.5], VerticalBarrier(2.5))


@pytest.mark.parametrize("x", [1.0, [1.0, 0.2, 0.3]], ids=["scalar", "three_vector"])
def test_a_point_of_the_wrong_shape_is_refused(x):
    model = hull_white_model()
    y = np.array([2.0, 0.5])
    barrier = VerticalBarrier(2.5)
    calls = (lambda: exit_asymptotics(model, x, y, barrier),
             lambda: frozen_exit_asymptotics(model, x, y, barrier, y),
             lambda: solve_geodesic(model, x, y))
    for call in calls:
        with pytest.raises(ValueError, match="x must be a point of dimension 2"):
            call()


# ---- numeric backends ---- #


def test_correlated_barrier_uses_the_one_dimensional_scan():
    model = hull_white_model(sigma_vol=1.5, rho=0.5)
    res = exit_asymptotics(model, ref.A_X, ref.A_Y, VerticalBarrier(ref.A_BARRIER))
    assert res.method == "numeric_1d"
    assert res.J > 0.0
    # full solver-based scan agrees
    num = exit_asymptotics(
        model, ref.A_X, ref.A_Y, VerticalBarrier(ref.A_BARRIER),
        opts=SolverOptions(n=100), force_numeric=True,
    )
    assert_consistent(num, VerticalBarrier(ref.A_BARRIER))
    assert num.J == pytest.approx(res.J, rel=2e-3)


def test_curve_boundary_agrees_with_the_plane_backend():
    model = hull_white_model()
    curve = ParametricCurve(lambda th: np.array([ref.A_BARRIER, th]), 0.05, 4.0,
                            samples=256)
    plane = exit_asymptotics(model, ref.A_X, ref.A_Y,
                             VerticalBarrier(ref.A_BARRIER))
    res = exit_asymptotics(model, ref.A_X, ref.A_Y, curve)
    assert res.J == pytest.approx(plane.J, rel=1e-6)
    assert res.z_star[1] == pytest.approx(plane.z_star[1], abs=1e-5)


def test_force_numeric_matches_closed_form_on_reference_a():
    model = hull_white_model()
    res = exit_asymptotics(
        model, ref.A_X, ref.A_Y, VerticalBarrier(ref.A_BARRIER),
        opts=SolverOptions(n=100), force_numeric=True,
    )
    assert res.method == "numeric_1d"
    assert_consistent(res, VerticalBarrier(ref.A_BARRIER))
    assert res.J == pytest.approx(ref.A_J, rel=1e-3)
    assert res.z_star[1] == pytest.approx(ref.A_Z_STAR_Y, abs=1e-2)


# ---- frozen comparator ---- #


def test_frozen_at_far_endpoint_reference_a():
    model = hull_white_model()
    res = frozen_exit_asymptotics(
        model, ref.A_X, ref.A_Y, VerticalBarrier(ref.A_BARRIER), ref.A_Y
    )
    assert res.method == "frozen"
    assert res.J == pytest.approx(ref.A_FROZEN_J, abs=1e-9)
    assert res.z_star[0] == pytest.approx(ref.A_BARRIER)
    assert res.z_star[1] == pytest.approx(ref.A_FROZEN_CROSS_Y, abs=1e-9)


def test_frozen_at_far_endpoint_reference_b():
    model = hull_white_model()
    res = frozen_exit_asymptotics(
        model, ref.B_X, ref.B_Y, VerticalBarrier(ref.B_BARRIER), ref.B_Y
    )
    assert res.J == pytest.approx(ref.B_FROZEN_J, abs=1e-9)
    assert res.z_star[1] == pytest.approx(ref.B_FROZEN_CROSS_Y, abs=1e-9)


def test_frozen_at_chord_midpoint_reference_b():
    model = hull_white_model()
    res = frozen_exit_asymptotics(
        model, ref.B_X, ref.B_Y, VerticalBarrier(ref.B_BARRIER), ref.B_MIDPOINT
    )
    assert res.J == pytest.approx(ref.B_MIDFROZEN_J, abs=1e-9)


def test_freezing_a_constant_model_changes_nothing():
    a = np.array([[1.5, -0.3], [-0.3, 0.8]])
    model = constant_model(np.linalg.cholesky(a))
    x = np.array([0.0, 0.6])
    y = np.array([1.0, 0.4])
    boundaries = (
        Hyperplane(np.array([0.0, 1.0]), 0.0),
        Hyperplane(np.array([1.0, 1.0]), 0.9),  # straddled by x and y
        ParametricCurve(lambda th: np.array([th, 0.1 * th * th - 0.2]), -2.0, 3.0,
                        samples=64),
    )
    for boundary in boundaries:
        true = exit_asymptotics(model, x, y, boundary)
        for z0 in ([0.0, 0.6], [5.0, 9.0], [-3.0, 0.1]):
            frozen = frozen_exit_asymptotics(model, x, y, boundary, z0)
            for name in ("J", "u_bar", "d_xy", "d_xz", "d_zy", "geodesic_exits",
                         "degenerate"):
                assert getattr(frozen, name) == getattr(true, name), name
            assert (frozen.z_star == true.z_star).all()
    assert true.J > 0.0
    assert exit_asymptotics(model, x, y, boundaries[1]).geodesic_exits


def test_frozen_with_straddling_endpoints_flags_exit():
    model = hull_white_model()
    res = frozen_exit_asymptotics(
        model, ref.A_X, ref.A_Y, VerticalBarrier(1.5), ref.A_Y
    )
    assert res.J == 0.0
    assert res.geodesic_exits


def test_frozen_curve_boundary_matches_plane():
    model = hull_white_model()
    curve = ParametricCurve(lambda th: np.array([ref.B_BARRIER, th]), 0.01, 1.0,
                            samples=512)
    plane_res = frozen_exit_asymptotics(
        model, ref.B_X, ref.B_Y, VerticalBarrier(ref.B_BARRIER), ref.B_Y
    )
    curve_res = frozen_exit_asymptotics(model, ref.B_X, ref.B_Y, curve, ref.B_Y)
    assert curve_res.J == pytest.approx(plane_res.J, rel=1e-5)


# ---- comparison table ---- #


def test_compare_freezing_layout_and_values():
    model = hull_white_model()
    comp = compare_freezing(
        model, ref.B_X, ref.B_Y, VerticalBarrier(ref.B_BARRIER),
        freeze_points=[ref.B_Y, ref.B_MIDPOINT],
        t_list=(0.05, 0.01),
    )
    assert comp.t_list == (0.05, 0.01)
    assert len(comp.rows) == 3
    assert comp.rows[0].label == "true"
    assert comp.rows[1].label == "frozen@(2.48 0.12)"
    assert comp.rows[2].label == "frozen@(2.475 0.1)"
    assert comp.rows[0].result.J == pytest.approx(ref.B_J, rel=1e-10)
    assert comp.rows[1].result.J == pytest.approx(ref.B_FROZEN_J, abs=1e-9)
    assert comp.rows[2].result.J == pytest.approx(ref.B_MIDFROZEN_J, abs=1e-9)
    for row in comp.rows:
        assert len(row.probabilities) == 2
        assert row.probabilities[0] == pytest.approx(
            math.exp(-row.result.J / 0.05)
        )


def test_model_distance_picks_the_closed_form():
    model = hull_white_model()
    assert model_distance(model, ref.A_X, ref.A_Y) == pytest.approx(
        ref.A_D_XY, rel=1e-12
    )
    flat = constant_model(np.eye(2))
    assert model_distance(flat, [0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)


# ---- scan windows and model callbacks ---- #

# Close endpoints, far slanted plane: the default window is too short for
# the best boundary point, which lies near (1.99886, 0.90358).
TRUNC_MODEL = dict(sigma_vol=0.92873, rho=0.15783)
TRUNC_X = np.array([1.05609, 0.17776])
TRUNC_Y = np.array([0.99883, 0.19572])
TRUNC_PLANE = Hyperplane(np.array([0.99796, -0.06383]), 1.93711)


def line_window(model, x, y, plane):
    """The engine's scan window of a plane, from the exit's oracle of the
    model's own geometry."""
    from bridgeexit.exits import _line_window, _oracle

    return _line_window(model, x, y, plane, _oracle(model, model.geometry, None, x, y).ends)


def diag_v_grid():
    # sigma = diag(v, v) on 13 x 13 nodes, as perfbench/data/make_grid.py
    # writes it: the metric of hull_white_simple, reproduced exactly.
    xs = np.linspace(0.0, 4.0, 13)
    vs = np.linspace(0.02, 3.0, 13)
    entries = np.zeros((13, 13, 2, 2))
    entries[..., 0, 0] = vs[None, :]
    entries[..., 1, 1] = vs[None, :]
    return grid_model(xs, vs, entries)


def test_slanted_reproducer_needs_no_widening():
    model = hull_white_model(**TRUNC_MODEL)
    n, c = TRUNC_PLANE.normal, TRUNC_PLANE.offset
    # the certified window holds the best point
    res = exit_asymptotics(model, TRUNC_X, TRUNC_Y, TRUNC_PLANE)
    assert res.J == pytest.approx(10.8224, abs=1e-4)
    np.testing.assert_allclose(res.z_star, [1.99886, 0.90358], atol=1e-5)
    # no boundary point far along the plane costs less
    for v in np.geomspace(1e-3, 50.0, 400):
        z = np.array([(c - n[1] * v) / n[0], v])
        assert pointwise_exit_cost(model, TRUNC_X, TRUNC_Y, z) >= res.J - 1e-9


def test_grid_window_ends_at_the_domain_edge():
    grid = diag_v_grid()
    plane = Hyperplane(np.array([1.0, 0.0]), ref.A_BARRIER)
    thetas, chart = line_window(grid, ref.A_X, ref.A_Y, plane)
    assert chart(thetas[0])[1] == pytest.approx(0.02, abs=1e-12)
    assert chart(thetas[-1])[1] == pytest.approx(3.0, abs=1e-12)
    # each end is the last point inside the box: one more step along the
    # line leaves it
    for end, out in ((thetas[0], -1e-12), (thetas[-1], 1e-12)):
        assert grid.domain_test(chart(end)) and not grid.domain_test(chart(end + out))
    # sigma = 0.5 I on a box much taller than d(x, y): the window runs to
    # both edges, where one 4 d(x, y) of arclength long ended near [-3, 5]
    tall = grid_model([0.0, 4.0], [-20.0, 20.0], np.multiply.outer(np.ones((2, 2)), 0.5 * np.eye(2)))
    thetas, chart = line_window(tall, np.array([1.0, 1.0]), np.array([2.0, 1.0]),
                                Hyperplane(np.array([1.0, 0.0]), 2.5))
    np.testing.assert_allclose(chart(thetas[[0, -1]]), [[2.5, -20.0], [2.5, 20.0]],
                               rtol=0.0, atol=1e-12)
    # the volatility metric through its callbacks alone has no bound on
    # its distance, and its domain v > 0 does not end up the line
    model = replace(hull_white_model(**TRUNC_MODEL), geometry=None)
    with pytest.raises(ValueError, match="does not leave the model domain"):
        line_window(model, TRUNC_X, TRUNC_Y, TRUNC_PLANE)
    with pytest.raises(ValueError, match="does not leave the model domain"):
        exit_asymptotics(model, TRUNC_X, TRUNC_Y, TRUNC_PLANE, opts=SolverOptions(n=20))


def _bisected_line_ends(model, anchor, tangent):
    """The window ends as scalar bisection finds them: doubling theta until
    the domain test fails, then halving the bracket to float resolution."""
    def end(direction):
        inside, out = 0.0, direction
        while model.domain_test(anchor + out * tangent):
            inside, out = out, 2.0 * out
        mid = 0.5 * (inside + out)
        while mid != inside and mid != out:
            if model.domain_test(anchor + mid * tangent):
                inside = mid
            else:
                out = mid
            mid = 0.5 * (inside + out)
        return inside

    return end(-1.0), end(1.0)


@pytest.mark.parametrize("kind", ["config_a", "slanted", "tall"])
def test_batched_window_ends_are_the_bisected_floats(kind):
    import bridgeexit.exits as exits

    grid = diag_v_grid()
    if kind == "tall":
        grid = grid_model([0.0, 4.0], [-20.0, 20.0],
                          np.multiply.outer(np.ones((2, 2)), 0.5 * np.eye(2)))
    normal = np.array([1.0, 0.3]) / math.hypot(1.0, 0.3) if kind == "slanted" \
        else np.array([1.0, 0.0])
    tangent = np.array([-normal[1], normal[0]])
    # config A's anchor: its chord midpoint projected on x = A_BARRIER
    anchor = np.array([ref.A_BARRIER, 0.5 * (ref.A_X[1] + ref.A_Y[1])])
    calls = []
    batch = grid.batch_domain_test
    model = replace(grid, batch_domain_test=lambda pts: calls.append(len(pts)) or batch(pts))
    got = exits._domain_line_ends(model, anchor, tangent)
    assert [t.hex() for t in got] == [t.hex() for t in _bisected_line_ends(grid, anchor, tangent)]
    # a few batches per end, where bisection took about 60 scalar tests
    assert len(calls) <= 2 * 9


def test_grid_exit_finds_the_far_basin():
    # sigma = 0.2 I on the slab 2.3 <= x <= 2.7, v <= 2 about the barrier,
    # and I elsewhere: the barrier is dear near the endpoints and cheap
    # above v = 2.4.  A window 4 d(x, y) of arclength long once ended near
    # v = 1.8 and returned the near basin, J = 7.453 at v = 1.005.
    xs = [0.0, 2.1, 2.3, 2.7, 2.9, 4.0]
    vs = [0.5, 2.0, 2.4, 4.0]
    scale = [[0.2 if 2.3 <= a <= 2.7 and b <= 2.0 else 1.0 for b in vs] for a in xs]
    grid = grid_model(xs, vs, np.multiply.outer(scale, np.eye(2)))
    x, y = np.array([1.0, 1.0]), np.array([2.0, 1.0])
    # capped legs keep this fast: the basins differ by 0.7 in J, far more
    # than the legs fall short by (strict legs give J = 6.7182 at v = 2.375)
    opts = SolverOptions(n=20, max_iter=50, strict=False)
    res = exit_asymptotics(grid, x, y, VerticalBarrier(2.5), opts=opts)
    assert_consistent(res, VerticalBarrier(2.5))
    near = pointwise_exit_cost(grid, x, y, np.array([2.5, 1.0]), opts)
    assert res.z_star[0] == 2.5 and 2.2 < res.z_star[1] < 2.5
    assert res.J < near - 0.5
    assert res.J == pytest.approx(6.718, abs=5e-3)
    # the result's legs start from the scan's; here two of them stall at
    # kinks of the metric, are solved again from their chords, and keep
    # the lower energy: no leg is longer than a solve from its chord
    for got, (p, q) in ((res.d_xy, (x, y)), (res.d_xz, (x, res.z_star)),
                        (res.d_zy, (res.z_star, y))):
        assert got <= solve_geodesic(grid, p, q, opts).distance


@pytest.mark.parametrize("plane", [TRUNC_PLANE, Hyperplane(np.array([0.0, 1.0]), 0.1),
                                   Hyperplane(np.array([1.0, 0.0]), 1.93711)],
                         ids=["slanted", "horizontal", "correlated_vertical"])
def test_volatility_window_is_certified(plane):
    model = hull_white_model(**TRUNC_MODEL)
    sv, rho = TRUNC_MODEL["sigma_vol"], TRUNC_MODEL["rho"]
    x, y = TRUNC_X, TRUNC_Y
    d_xy = model_distance(model, x, y)

    def legsums(z):
        return hw_distance(sv, rho, x, z) + hw_distance(sv, rho, z, y)

    thetas, chart = line_window(model, x, y, plane)
    assert np.isfinite(chart(thetas)).all()
    # the window is the overlap of the balls of radius S about x and y, S
    # the leg sum at the anchor: each end lies on the edge of one ball, and
    # every point of the line beyond it costs more than the anchor
    S = legsums(chart(0.0))
    for end, out in ((thetas[0], -1.0), (thetas[-1], 1.0)):
        z = chart(end)
        assert max(hw_distance(sv, rho, x, z), hw_distance(sv, rho, z, y)) == (
            pytest.approx(S, rel=1e-9))
        beyond = chart(end + out * np.ptp(thetas) * np.geomspace(1e-6, 1e3, 60))
        beyond = beyond[beyond[:, 1] > 0.0]
        assert len(beyond) and (legsums(beyond) > S).all()
    with np.errstate(all="raise"):
        res = exit_asymptotics(model, x, y, plane)
    assert res.J <= 0.5 * (S * S - d_xy * d_xy)


@st.composite
def certified_models(draw):
    """A volatility model, or a constant model with a random SPD sigma."""
    if draw(st.booleans()):
        return hull_white_model(sigma_vol=draw(st.floats(0.3, 2.5)),
                                rho=draw(st.floats(-0.8, 0.8)))
    l11, l22 = draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 3.0))
    return constant_model(np.array([[l11, 0.0], [draw(st.floats(-3.0, 3.0)), l22]]))


@settings(max_examples=60, deadline=None)
@given(model=certified_models(),
       x=st.tuples(st.floats(-1.0, 1.0), st.floats(0.05, 2.0)),
       y=st.tuples(st.floats(-1.0, 1.0), st.floats(0.05, 2.0)),
       angle=st.just(0.0) | st.floats(-1.2, 1.2), gap=st.floats(0.05, 1.5))
def test_volatility_window_holds_every_cheaper_point(model, x, y, angle, gap):
    x, y = np.array(x), np.array(y)
    normal = np.array([math.cos(angle), math.sin(angle)])  # angle 0: vertical
    plane = Hyperplane(normal, max(normal @ x, normal @ y) + gap)
    n, c = plane.normal, plane.offset
    mid = 0.5 * (x + y)
    assume((mid - (n @ mid - c) * n)[1] > 0.01)  # the anchor is in the domain
    thetas, chart = line_window(model, x, y, plane)
    assert np.isfinite(thetas).all()

    def legsum(z):
        return model_distance(model, x, z) + model_distance(model, z, y)

    S = legsum(chart(0.0))
    width = np.ptp(thetas)
    offsets = width * np.geomspace(1e-6, 1e3, 80)
    beyond = chart(np.concatenate([thetas[0] - offsets, thetas[-1] + offsets]))
    beyond = beyond[domain_test_batch(model, beyond)]
    assert all(legsum(z) > S for z in beyond)
    res = exit_asymptotics(model, x, y, plane)
    for v in np.geomspace(1e-3, 50.0, 200):
        z = np.array([(c - n[1] * v) / n[0], v])
        assert pointwise_exit_cost(model, x, y, z) >= res.J - 1e-9 * max(1.0, res.J)


def test_constant_window_under_force_numeric_is_certified():
    # a marched window 0.001 * d(x, y) long once gave J = 10.0709 here
    model = constant_model([[1.0, 0.0], [0.3, 0.8]])
    x, y = np.array([0.0, 0.0]), np.array([0.1, 0.05])
    plane = Hyperplane(np.array([1.0, -0.3]), 2.0)
    # the window is the overlap of the whitened balls of radius S about x
    # and y, S the leg sum at the anchor: each end is on the edge of one
    thetas, chart = line_window(model, x, y, plane)
    S = model_distance(model, x, chart(0.0)) + model_distance(model, chart(0.0), y)
    for end in thetas[[0, -1]]:
        z = chart(end)
        assert max(model_distance(model, x, z), model_distance(model, z, y)) == (
            pytest.approx(S, rel=1e-12))
    closed = exit_asymptotics(model, x, y, plane)
    res = exit_asymptotics(model, x, y, plane, opts=SolverOptions(n=20),
                           force_numeric=True)
    assert closed.J == pytest.approx(8.64853, abs=1e-5)
    assert res.method == "numeric_1d"
    assert_consistent(res, plane)
    assert res.J == pytest.approx(closed.J, rel=1e-6)


def test_volatility_window_of_far_endpoints_is_finite_or_refused(tmp_path, capsys):
    # sigma_vol * S = 346: the disc's coefficients once overflowed here and
    # gave the window [nan, 3.6e149] with invalid-value warnings
    from bridgeexit.cli import main

    model = hull_white_model(sigma_vol=2.0, rho=0.5)
    x, y = np.array([0.0, 1.0]), np.array([0.0, 1e150])
    plane = Hyperplane(np.array([1.0, 0.3]), 1.0 + 0.15 * (1.0 + 1e150))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        thetas, chart = line_window(model, x, y, plane)
        S = model_distance(model, x, chart(0.0)) + model_distance(model, chart(0.0), y)
        for end in thetas[[0, -1]]:
            z = chart(end)
            assert max(model_distance(model, x, z), model_distance(model, z, y)) == (
                pytest.approx(S, rel=1e-9))
        # the endpoints straddle the plane, which is answered before any window
        res = exit_asymptotics(model, x, y, plane)
    assert np.isfinite(thetas).all() and thetas[0] < 0.0 < thetas[-1]
    assert res.J == 0.0 and res.geodesic_exits
    # from v = 1e155 the leg sum at the anchor overflows: the window is
    # refused, never scanned as NaN samples
    far = np.array([0.0, 1e155])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="scan window overflows"):
            line_window(model, x, far, plane)
        with pytest.raises(ValueError, match="scan window overflows"):
            exit_asymptotics(model, x, far, VerticalBarrier(3.0))
        cfg = tmp_path / "far.cfg"
        cfg.write_text("model.kind = hull_white\nmodel.sigma_vol = 2\nmodel.rho = 0.5\n"
                       "x = 0, 1\ny = 0, 1e155\nbarrier.kind = vertical\nbarrier.x0 = 3\n")
        assert main(["exit", "--config", str(cfg)]) == 2
    assert "scan window overflows" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["correlated", "slanted"])
def test_refinement_needs_few_one_point_calls_per_scan(case, monkeypatch):
    import bridgeexit.exits as exits

    calls = []  # the number of points of each call, per leg-sum function
    real = exits._oracle_legsums

    def counting(*args):
        f = real(*args)
        sizes = []
        calls.append(sizes)

        def legsums(thetas):
            sizes.append(np.size(thetas))
            return f(thetas)

        legsums.unconverged = f.unconverged
        return legsums

    monkeypatch.setattr(exits, "_oracle_legsums", counting)
    if case == "correlated":
        model = hull_white_model(sigma_vol=1.5, rho=0.5)
        boundary = VerticalBarrier(ref.A_BARRIER)
    else:
        model = hull_white_model(sigma_vol=1.1, rho=0.3)
        boundary = Hyperplane(np.array([1.0, 0.2]), 2.6)
    exit_asymptotics(model, ref.A_X, ref.A_Y, boundary)
    # each scan: the whole window in one call, then one point per call
    assert calls and all(c[0] == 256 and set(c[1:]) == {1} for c in calls)
    # golden section took 48 (correlated) and 60 (slanted) calls here
    assert all(0 < len(c) - 1 <= 25 for c in calls)


def test_scan_keeps_the_coarse_sample_when_its_bracket_is_not_finite():
    from bridgeexit.exits import _scan

    # a bracket with a non-finite end, as a window past the float range gives
    calls = []

    def legsums(thetas):
        calls.append(len(thetas))
        assert len(calls) < 100, "refinement does not stop"
        return np.where(np.isfinite(thetas), thetas * thetas, np.inf)

    legsums.unconverged = 0
    theta, unconverged, gap = _scan(np.array([-1.0, 0.5, np.inf]), legsums)
    # a closed-form scan certifies no gap
    assert (theta, unconverged) == (0.5, 0) and math.isnan(gap)


def _counting_solves(monkeypatch):
    """The (x, y) of every leg the exit engine solves, alone or in a stack."""
    import bridgeexit.exits as exits
    import bridgeexit.geodesic as geodesic

    calls = []
    solve = geodesic._solve_legs

    def counting(model, X, Y, *args):
        calls.extend((tuple(p), tuple(q)) for p, q in zip(X, Y))
        return solve(model, X, Y, *args)

    monkeypatch.setattr(geodesic, "_solve_legs", counting)
    monkeypatch.setattr(exits, "_solve_legs", counting)
    return calls


def test_solver_straddle_solves_x_to_y_once(monkeypatch):
    calls = _counting_solves(monkeypatch)
    res = exit_asymptotics(hull_white_model(), ref.A_X, ref.A_Y, VerticalBarrier(1.5),
                           opts=SolverOptions(n=50), force_numeric=True)
    assert res.geodesic_exits and res.method == "numeric_1d"
    assert _bits(res) == PINNED_SOLVER_STRADDLE
    assert len(calls) == 3
    assert calls.count((tuple(ref.A_X), tuple(ref.A_Y))) == 1


@pytest.mark.parametrize("end", ["x", "y"])
def test_solver_touch_solves_x_to_y_once(end, monkeypatch):
    # z* = x or y: one leg is 0 and the other d(x, y), with no solve of its own
    calls = _counting_solves(monkeypatch)
    z = ref.A_X if end == "x" else ref.A_Y
    res = exit_asymptotics(hull_white_model(), ref.A_X, ref.A_Y, VerticalBarrier(z[0]),
                           opts=SolverOptions(n=50), force_numeric=True)
    assert calls == [(tuple(ref.A_X), tuple(ref.A_Y))]
    assert res.degenerate and res.geodesic_exits and res.J == 0.0
    assert (res.d_xz, res.d_zy) == ((0.0, res.d_xy) if end == "x" else (res.d_xy, 0.0))
    assert res.z_star.tobytes() == z.tobytes()
    assert res.d_xy == solve_geodesic(hull_white_model(), ref.A_X, ref.A_Y,
                                      SolverOptions(n=50)).distance


@pytest.mark.parametrize("sv", [10.0**-k for k in range(0, 21, 2)] + [1e-150])
def test_reflection_exponent_keeps_its_digits_as_sigma_vol_falls(sv):
    # J = (S^2 - D^2) / (2 sigma_vol^2) cancels: at 1e-8 it read 12.21 and
    # set geodesic_exits; the two distances agree to 300 digits at 1e-150
    res = exit_asymptotics(hull_white_model(sigma_vol=sv), ref.A_X, ref.A_Y,
                           VerticalBarrier(ref.A_BARRIER))
    with localcontext() as ctx:
        ctx.prec = 400
        J, height = dref.reflection(sv, ref.A_X, ref.A_Y, ref.A_BARRIER)
        assert abs(dref.dec(res.J) - J) <= Decimal("1e-12") * J
        assert abs(dref.dec(res.z_star[1]) - height) <= Decimal("1e-12") * height
    assert res.z_star[0] == ref.A_BARRIER
    assert res.method == "closed_form" and not res.geodesic_exits
    if sv <= 1e-8:
        assert f"{res.J:.12g}" == "13.0898675982"


def test_reflection_keeps_its_digits_where_the_heights_multiply_to_a_subnormal():
    # 2 p_y q_y of x and z* near 1e-160 is subnormal, and u_bar read
    # 0.380818311436 against 0.380809416503 at scale 1; the half-plane
    # distance is invariant under dilation, and so is every result
    model = hull_white_model()
    x, y = np.array([1.0, 1.0]), np.array([2.0, 1.0])
    one = exit_asymptotics(model, x, y, VerticalBarrier(0.0))
    tiny = exit_asymptotics(model, 1e-160 * x, 1e-160 * y, VerticalBarrier(0.0))
    assert tiny.u_bar == pytest.approx(one.u_bar, rel=1e-12)
    assert tiny.J == pytest.approx(one.J, rel=1e-12)
    rows = np.array([y, [3.3, 0.7], [1.7, 1.9]])  # once 5e-5 off, row by row
    assert poincare_distance(1e-160 * x, 1e-160 * rows) == pytest.approx(
        poincare_distance(x, rows), rel=1e-12)


def test_volatility_straddles_match_a_decimal_reference_and_the_sampled_crossing():
    from bridgeexit.exits import _oracle, _path_crossing

    rng = np.random.default_rng(7)
    with localcontext() as ctx:
        ctx.prec = 60
        for k in range(200):
            sv, rho = rng.uniform(0.3, 2.0), rng.uniform(-0.9, 0.9)
            x, y = (np.array([rng.uniform(0.0, 3.0), rng.uniform(0.1, 2.0)]) for _ in "xy")
            normal = np.array([1.0, 0.0 if k % 2 else rng.uniform(-1.0, 1.0)])
            plane = Hyperplane(normal, rng.uniform(*sorted((normal @ x, normal @ y))))
            model = hull_white_model(sigma_vol=sv, rho=rho)
            res = exit_asymptotics(model, x, y, plane)
            assert res.J == 0.0 and res.geodesic_exits and res.method == "closed_form"
            exact = dref.straddle(sv, rho, x, y, plane.normal, plane.offset)
            scale = max(map(abs, exact))
            for got, want in zip(res.z_star, exact):
                assert abs(dref.dec(got) - want) <= Decimal("1e-12") * scale
            assert abs(dref.dec(res.z_star[1]) - exact[1]) <= Decimal("1e-12") * exact[1]
            if k % 2:
                assert res.z_star[0] == plane.offset
            if k < 20:  # the 4097-point sample the crossing was read from
                sampled = _path_crossing(_oracle(model, model.geometry, None, x, y).path(4096),
                                         plane)
                assert np.abs(res.z_star - sampled).max() <= 1e-6


@pytest.mark.parametrize("sv, rho", [(1.0, 0.0), (1.5, 0.5)])
def test_volatility_straddle_agrees_with_the_path_optimizer(sv, rho):
    model = hull_white_model(sigma_vol=sv, rho=rho)
    res = exit_asymptotics(model, ref.A_X, ref.A_Y, VerticalBarrier(1.5))
    num = exit_asymptotics(model, ref.A_X, ref.A_Y, VerticalBarrier(1.5),
                           opts=SolverOptions(n=100), force_numeric=True)
    assert res.geodesic_exits and num.geodesic_exits
    assert num.z_star[1] == pytest.approx(res.z_star[1], abs=1e-2)
    assert num.u_bar == pytest.approx(res.u_bar, abs=1e-2)
    for name in ("d_xy", "d_xz", "d_zy"):
        assert getattr(num, name) == pytest.approx(getattr(res, name), rel=1e-3)


def test_whitened_rows_past_the_float_range_read_inf_without_a_warning():
    from bridgeexit.exits import _whitened_norm

    # under the suite's RuntimeWarning filter, an overflow in the matmul raises
    W = np.array([[1.0, 0.2], [0.2, 0.9]])
    x = np.array([0.0, 0.0])
    z = np.array([[1.0, 2.0], [1e160, 1.0], [3e153, -2e153], [-1e300, 1e300], [0.5, -0.25]])
    rows = _whitened_norm(W, x, z)
    one = np.array([_whitened_norm(W, x, p) for p in z])
    assert rows.tobytes() == one.tobytes()
    assert np.isinf(rows[[1, 3]]).all() and np.isfinite(rows[[0, 2, 4]]).all()
    near = [0, 4]
    assert rows[near].tobytes() == _whitened_norm(W, x, z[near]).tobytes()
    # a curve whose every sample lies past the float range
    curve = ParametricCurve(lambda th: np.array([th, 1e160 * (1.0 + th)]), 0.0, 1.0)
    with pytest.raises(OutsideDomain):
        exit_asymptotics(constant_model(np.eye(2)), np.array([0.0, 0.0]),
                         np.array([1.0, 0.0]), curve)


def test_grid_exit_model_callback_counts():
    counts = {"domain_test": 0, "sigma": 0}

    def counted(name, fn):
        def wrapped(z):
            counts[name] += 1
            return fn(z)
        return wrapped

    grid = diag_v_grid()
    model = replace(grid, domain_test=counted("domain_test", grid.domain_test),
                    sigma=counted("sigma", grid.sigma))
    res = exit_asymptotics(model, ref.A_X, ref.A_Y, VerticalBarrier(ref.A_BARRIER))
    assert_consistent(res, VerticalBarrier(ref.A_BARRIER))
    assert res.J == pytest.approx(ref.A_J, rel=1e-4)
    # the window march once made about 382k scalar domain tests here
    assert counts["domain_test"] < 10_000
    assert counts["sigma"] < 1_000


def test_slanted_closed_form_exit_callback_counts(monkeypatch):
    import bridgeexit.exits as exits
    from bridgeexit import hyperbolic

    counts = {"sigma": 0, "distance": 0}
    model = hull_white_model(sigma_vol=1.1, rho=0.3)
    sigma = model.sigma

    def counted_sigma(z):
        counts["sigma"] += 1
        return sigma(z)

    def counted_distance(*args):
        counts["distance"] += 1
        return hyperbolic._hw_image_distance(*args)

    # the engine measures half-plane images with hw_distance's unchecked kernel
    monkeypatch.setattr(exits, "_hw_image_distance", counted_distance)
    plane = Hyperplane(np.array([1.0, 0.2]), 2.6)
    res = exit_asymptotics(replace(model, sigma=counted_sigma), ref.A_X, ref.A_Y, plane)
    # the window march once took its rates from sigma (1,024 calls), and the
    # scan made one distance call per leg of each of its 256 samples
    assert counts["sigma"] == 0
    assert 0 < counts["distance"] <= 200
    n, c = plane.normal, plane.offset
    for v in np.geomspace(1e-2, 20.0, 300):
        z = np.array([(c - n[1] * v) / n[0], v])
        assert pointwise_exit_cost(model, ref.A_X, ref.A_Y, z) >= res.J - 1e-9


def _window_case(kind):
    """(model, oracle, endpoints, coarse samples, chart) of one scan window."""
    from bridgeexit.exits import _curve_chart, _oracle

    x, y = ref.A_X, ref.A_Y
    if kind == "constant_curve":
        model = constant_model(np.array([[1.0, 0.3], [0.0, 0.8]]))
        curve = ParametricCurve(lambda th: np.array([2.5 + 0.3 * np.sin(th), th]),
                                -2.0, 3.0)
        thetas = np.linspace(curve.theta_min, curve.theta_max, curve.samples)
        return model, _oracle(model, model.geometry, None, x, y), x, y, thetas, _curve_chart(curve)
    model = hull_white_model(sigma_vol=1.1, rho=0.3)
    if kind == "correlated_vertical":
        plane = Hyperplane(np.array([1.0, 0.0]), ref.A_BARRIER)
    else:
        plane = Hyperplane(np.array([1.0, 0.2]), 2.6)
    thetas, chart = line_window(model, x, y, plane)
    return model, _oracle(model, model.geometry, None, x, y), x, y, thetas, chart


@pytest.mark.parametrize("kind", ["correlated_vertical", "slanted_plane", "constant_curve"])
def test_batched_scan_matches_scalar_distances_bit_for_bit(kind):
    from bridgeexit.exits import _oracle_legsums

    model, oracle, x, y, thetas, chart = _window_case(kind)
    points = [chart(float(t)) for t in thetas]
    assert chart(thetas).tobytes() == np.array(points).tobytes()
    batched = _oracle_legsums(model, oracle.legs, chart)(thetas)
    scalar = np.array([sum(oracle.legs(z)) for z in points])
    assert batched.tobytes() == scalar.tobytes()
    if kind == "constant_curve":
        # the whitened norm as it was computed one point at a time
        W, _ = model.geometry.whitening
        old = np.array([float(np.linalg.norm(W @ (z - x))) + float(np.linalg.norm(W @ (y - z)))
                        for z in points])
    else:
        old = np.array([hw_distance(1.1, 0.3, x, z) + hw_distance(1.1, 0.3, z, y)
                        for z in points])
    assert batched.tobytes() == old.tobytes()


# Full-precision results of config A's endpoints through the closed-form
# scan (certified window, coarse samples, Brent refinement) under the
# volatility geometry: a correlated vertical barrier and a slanted plane.
# The engine measures with unchecked distance kernels, so these pins and
# the public hw_distance at z_star hold them to the checked bits.  The
# close endpoints of config B, an anticorrelated slanted plane and a
# curve chart were pinned before Brent's steps took one scalar leg sum
# each, and hold its bits.
CLOSED_FORM_SCAN_CASES = {
    "correlated": ((1.5, 0.5), ref.A_X, ref.A_Y, VerticalBarrier(ref.A_BARRIER)),
    "slanted": ((1.1, 0.3), ref.A_X, ref.A_Y, Hyperplane(np.array([1.0, 0.2]), 2.6)),
    "correlated_close": ((0.8, -0.4), ref.B_X, ref.B_Y, VerticalBarrier(ref.B_BARRIER)),
    "slanted_anticorrelated": ((1.3, -0.35), ref.A_X, ref.A_Y,
                               Hyperplane(np.array([1.0, -0.15]), 2.4)),
    "curve": ((1.2, 0.2), ref.A_X, ref.A_Y,
              ParametricCurve(lambda th: np.array([2.5 + 0.3 * np.sin(th), th]), 0.05, 3.0)),
    # answered without a scan: a straddle (the crossing of the half-plane
    # arc with the plane's image), an endpoint on the plane, and the
    # half-plane reflection under either sign of the normal.  The straddle,
    # the reflections and the constant reflection below were re-pinned when
    # the crossing became exact and J lost its cancellation; every moved
    # value is closer to a decimal reference than the one it replaced.
    "straddle": ((1.5, 0.5), ref.A_X, ref.A_Y, VerticalBarrier(1.5)),
    "touch": ((1.1, 0.3), ref.A_X, ref.A_Y, VerticalBarrier(ref.A_X[0])),
    "reflection": ((1.5, 0.0), ref.A_X, ref.A_Y, VerticalBarrier(ref.A_BARRIER)),
    "reflection_flipped": ((0.7, 0.0), ref.B_X, ref.B_Y,
                           Hyperplane(np.array([-1.0, 0.0]), -ref.B_BARRIER)),
}
# the cases above that no scan answers
CLOSED_FORM_EXIT_CASES = {"straddle", "touch", "reflection", "reflection_flipped"}
PINNED_CLOSED_FORM_SCANS = {
    "correlated": {
        "J": "0x1.469940651cd08p+0",
        "z_star": ("0x1.4000000000000p+1", "0x1.8e3437e220abcp+0"),
        "u_bar": "0x1.6dd2983bfa372p-1",
        "d_xy": "0x1.19c249e8791bap+1",
        "d_xz": "0x1.f178e759591e9p+0",
        "d_zy": "0x1.8d90b556a9230p-1",
    },
    "slanted": {
        "J": "0x1.01200adb42754p+1",
        "z_star": ("0x1.2f41a96c94a1ap+1", "0x1.276f61c231aefp+0"),
        "u_bar": "0x1.7d17ee2a4dd98p-1",
        "d_xy": "0x1.33694314691c1p+1",
        "d_xz": "0x1.2a083a0b4f099p+1",
        "d_zy": "0x1.997fbf0b7cd8ep-1",
    },
    "correlated_close": {
        "J": "0x1.23b9bfa24fe4ep-3",
        "z_star": ("0x1.4000000000000p+1", "0x1.9d6d75e78e7abp-4"),
        "u_bar": "0x1.67b604b45f1ccp-1",
        "d_xy": "0x1.3545246313d89p-1",
        "d_xz": "0x1.21f434f7edfbap-1",
        "d_zy": "0x1.eb0672fae28c8p-3",
    },
    "slanted_anticorrelated": {
        "J": "0x1.0982558d436ecp+2",
        "z_star": ("0x1.43b5d161585c5p+1", "0x1.b845cf7934494p-1"),
        "u_bar": "0x1.760bfef3ab7a3p-1",
        "d_xy": "0x1.3e547429ada00p+1",
        "d_xz": "0x1.63dcaee99abd9p+1",
        "d_zy": "0x1.067e223355115p+0",
    },
    "curve": {
        "J": "0x1.ef1f4327b35d8p+1",
        "z_star": ("0x1.6665a3fab845bp+1", "0x1.954e57f25c664p+0"),
        "u_bar": "0x1.5e436306977aep-1",
        "d_xy": "0x1.2a392ab6410aap+1",
        "d_xz": "0x1.3db716fcf636fp+1",
        "d_zy": "0x1.256a387074a63p+0",
    },
    "straddle": {
        "J": "0x0.0p+0",
        "z_star": ("0x1.8000000000000p+0", "0x1.9c2e14721a732p-1"),
        "u_bar": "0x1.0f754fa5279fbp-1",
        "d_xy": "0x1.19c249e8791bap+1",
        "d_xz": "0x1.2ac5c9b19a185p+0",
        "d_zy": "0x1.08beca1f581eep+0",
    },
    "touch": {
        "J": "0x0.0p+0",
        "z_star": ("0x1.0000000000000p+0", "0x1.999999999999ap-3"),
        "u_bar": "0x0.0p+0",
        "d_xy": "0x1.33694314691c1p+1",
        "d_xz": "0x0.0p+0",
        "d_zy": "0x1.33694314691c1p+1",
    },
    "reflection": {
        "J": "0x1.1eb9117a1c6c5p+1",
        "z_star": ("0x1.4000000000000p+1", "0x1.5f79d967775dcp+0"),
        "u_bar": "0x1.6d8686f0b6220p-1",
        "d_xy": "0x1.13e63c1054c4ep+1",
        "d_xz": "0x1.140eb915e76cbp+1",
        "d_zy": "0x1.ba7d8f46103d1p-1",
    },
    "reflection_flipped": {
        "J": "0x1.ed0446ef5c6f1p-4",
        "z_star": ("0x1.4000000000000p+1", "0x1.b721e924a8172p-4"),
        "u_bar": "0x1.607f2c9c1e6e5p-1",
        "d_xy": "0x1.2d037cc80ca38p-1",
        "d_xz": "0x1.0dece8876a437p-1",
        "d_zy": "0x1.e88f6abf73417p-3",
    },
}


def _bits(res):
    """The hex of a result's numbers, for the pins."""
    return {
        "J": res.J.hex(),
        "z_star": tuple(float(v).hex() for v in res.z_star),
        "u_bar": res.u_bar.hex(),
        "d_xy": res.d_xy.hex(),
        "d_xz": res.d_xz.hex(),
        "d_zy": res.d_zy.hex(),
    }


@pytest.mark.parametrize("case", sorted(PINNED_CLOSED_FORM_SCANS))
def test_closed_form_scan_results_are_pinned(case):
    (sv, rho), x, y, boundary = CLOSED_FORM_SCAN_CASES[case]
    res = exit_asymptotics(hull_white_model(sigma_vol=sv, rho=rho), x, y, boundary)
    assert _bits(res) == PINNED_CLOSED_FORM_SCANS[case]
    assert res.method == ("closed_form" if case in CLOSED_FORM_EXIT_CASES else "numeric_1d")
    assert math.isnan(res.scan_gap)  # a closed-form scan computes no bound
    assert res.d_xz == hw_distance(sv, rho, x, res.z_star)
    assert res.d_zy == hw_distance(sv, rho, res.z_star, y)
    assert res.d_xy == hw_distance(sv, rho, x, y)


# Config A's endpoints under a constant model: the whitened reflection and
# a straddle, whose crossing is on the chord.
CONSTANT_SIGMA = np.array([[1.0, 0.3], [0.0, 0.8]])
CONSTANT_EXIT_CASES = {
    "reflection": Hyperplane(np.array([1.0, 0.3]), 3.0),
    "straddle": Hyperplane(np.array([1.0, 0.3]), 1.5),
}
PINNED_CONSTANT_EXITS = {
    "reflection": {
        "J": "0x1.46d68928321b1p+1",
        "z_star": ("0x1.6120a56586188p+1", "0x1.9ba20d61040eap-1"),
        "u_bar": "0x1.6403ab95900ebp-1",
        "d_xy": "0x1.ed4c672afafadp-1",
        "d_xz": "0x1.b54d19c73d1acp+0",
        "d_zy": "0x1.7f33ba37d3e55p-1",
    },
    "straddle": {
        "J": "0x0.0p+0",
        "z_star": ("0x1.6756e62a46756p+0", "0x1.48ceadcc548cep-2"),
        "u_bar": "0x1.9d5b98a919d57p-2",
        "d_xy": "0x1.ed4c672afafadp-1",
        "d_xz": "0x1.8e4261621cd3bp-2",
        "d_zy": "0x1.262b3679ec910p-1",
    },
}


@pytest.mark.parametrize("case", sorted(PINNED_CONSTANT_EXITS))
def test_constant_exits_are_pinned(case):
    model = constant_model(CONSTANT_SIGMA)
    res = exit_asymptotics(model, ref.A_X, ref.A_Y, CONSTANT_EXIT_CASES[case])
    assert _bits(res) == PINNED_CONSTANT_EXITS[case]
    assert res.method == "closed_form"
    assert res.geodesic_exits == (case == "straddle")


@pytest.mark.parametrize("kind", ["correlated_vertical", "constant_curve"])
def test_one_point_leg_sum_matches_a_row_of_one_bit_for_bit(kind):
    from bridgeexit.exits import _oracle_legsums

    model, oracle, x, y, thetas, chart = _window_case(kind)
    if kind == "constant_curve":
        # the curve's samples below v = 0.3 leave this domain
        model = replace(model, domain_test=lambda z: z[1] > 0.3,
                        batch_domain_test=lambda pts: pts[:, 1] > 0.3)
    lo, hi = thetas[0], thetas[-1]
    # the window and as far again on each side: the vertical line leaves
    # v > 0 below the window
    probe = np.linspace(lo - (hi - lo), hi + (hi - lo), 301)
    legsums = _oracle_legsums(model, oracle.legs, chart)
    one = np.array([legsums(float(t)) for t in probe])
    rows = np.array([legsums(np.array([t]))[0] for t in probe])
    assert one.tobytes() == rows.tobytes()
    outside = ~domain_test_batch(model, chart(probe))
    assert 30 < outside.sum() < 271 and (one[outside] == np.inf).all()
    assert np.isfinite(one[~outside]).all()


@pytest.mark.parametrize("case", ["reflection", "straddle", "correlated", "slanted"])
def test_hw_transform_is_built_once_per_volatility_exit(case, monkeypatch):
    import bridgeexit.exits as exits
    from bridgeexit import hyperbolic

    built = []
    real = hyperbolic.hw_transform

    def counting(sv, rho):
        built.append((sv, rho))
        return real(sv, rho)

    monkeypatch.setattr(exits, "hw_transform", counting)
    monkeypatch.setattr(hyperbolic, "hw_transform", counting)
    (sv, rho), _, _, boundary = CLOSED_FORM_SCAN_CASES[case]
    res = exit_asymptotics(hull_white_model(sigma_vol=sv, rho=rho), ref.A_X, ref.A_Y, boundary)
    # the half-plane reflection once built it twice, a scan three times,
    # and a straddle twice, sampling its geodesic
    assert len(built) == 1
    assert res.method == ("closed_form" if case in CLOSED_FORM_EXIT_CASES else "numeric_1d")


# ---- solver scan: bisection rounds, each a lockstep stack ---- #

# Full-precision results of config A through the solver scan with its
# quartic refinement.  Each round's stack reproduces its legs solved one at
# a time, bit for bit (see below), so only a change of the rounds, of the
# warm starts, of the scan legs' tolerance, of the refinement or of the
# solver moves these bits.
PINNED_SCANS = {
    "grid": {
        "J": "0x1.e7750bd0c92dap+1",
        "z_star": ("0x1.4000000000000p+1", "0x1.f26d6b09084dfp-1"),
        "u_bar": "0x1.7e78a5f2ceb9bp-1",
        "d_xy": "0x1.468c6d3b8dca8p+1",
        "d_xz": "0x1.675caab07b9a5p+1",
        "d_zy": "0x1.e6cf520848703p-1",
    },
    "force_numeric": {
        "J": "0x1.e7620eb7383d9p+1",
        "z_star": ("0x1.4000000000000p+1", "0x1.f2627838a79c3p-1"),
        "u_bar": "0x1.7e788b66f033fp-1",
        "d_xy": "0x1.468b1c748ee56p+1",
        "d_xz": "0x1.675820be4de70p+1",
        "d_zy": "0x1.e6c9b18d9ba91p-1",
    },
}
# Config A's endpoints straddling x = 1.5 under the path optimizer: the
# crossing is interpolated on the solved x-to-y geodesic.
PINNED_SOLVER_STRADDLE = {
    "J": "0x0.0p+0",
    "z_star": ("0x1.8000000000000p+0", "0x1.41bfbf5954886p-1"),
    "u_bar": "0x1.4d258ac838044p-1",
    "d_xy": "0x1.468b1c748ee56p+1",
    "d_xz": "0x1.a8f3194951aabp+0",
    "d_zy": "0x1.c8470a8c7d015p-1",
}


@pytest.mark.parametrize("case", sorted(PINNED_SCANS))
def test_solver_scan_results_are_pinned_and_worker_independent(case):
    if case == "grid":
        model, kw = diag_v_grid(), {}
    else:
        model, kw = hull_white_model(), dict(opts=SolverOptions(n=50), force_numeric=True)
    barrier = VerticalBarrier(ref.A_BARRIER)
    res = exit_asymptotics(model, ref.A_X, ref.A_Y, barrier, workers=1, **kw)
    assert _bits(res) == PINNED_SCANS[case]
    assert res.method == "numeric_1d"
    assert_consistent(res, barrier)
    assert res.unconverged_legs == 0
    assert 0.0 <= res.scan_gap <= SCAN_GAP
    two = exit_asymptotics(model, ref.A_X, ref.A_Y, barrier, workers=2, **kw)
    for name in ("J", "u_bar", "d_xy", "d_xz", "d_zy", "unconverged_legs", "scan_gap"):
        assert getattr(two, name) == getattr(res, name)
    assert two.z_star.tobytes() == res.z_star.tobytes()



def test_grid_scan_makes_one_metric_batch_per_solver_step():
    # a line-search round and a stack's starts with its warm legs' chords
    # are one jet batch each; the metric hook alone checks the endpoints
    grid = diag_v_grid()
    calls = {"jet": 0, "inverse": 0}

    def counted(name, hook):
        def wrapped(pts):
            calls[name] += 1
            return hook(pts)
        return wrapped

    model = replace(grid, batch_metric_jet=counted("jet", grid.batch_metric_jet),
                    batch_inverse_metric=counted("inverse", grid.batch_inverse_metric))
    res = exit_asymptotics(model, ref.A_X, ref.A_Y, VerticalBarrier(ref.A_BARRIER), workers=1)
    assert _bits(res) == PINNED_SCANS["grid"]
    assert_consistent(res, VerticalBarrier(ref.A_BARRIER))
    # 7 hook calls: the window's anchor, one batch of chart lengths, the
    # lattice field's edges and its links, and the result's three
    # endpoints; 24 jet calls, each pricing the starts of one of the 8
    # stacks or one line-search round
    assert calls["inverse"] <= 7 and calls["jet"] <= 24

def _record_scan_stacks(monkeypatch):
    """A list that fills with (phase, legs, iterations, lockstep
    iterations) for each stack the scans solve: phase "rounds" until
    the refinement (_refine) starts, then "refine", then "final" for the
    stack of the result's legs."""
    import bridgeexit.exits as exits

    stacks, phase = [], ["rounds"]
    solve, refine, result = exits._solve_legs, exits._refine, exits._result_legs

    def counting(model, X, Y, opts, inits):
        out = solve(model, X, Y, opts, inits)
        stacks.append((phase[0], len(inits), int(out[3].sum()), int(out[3].max())))
        return out

    def refining(*args):
        phase[0] = "refine"
        return refine(*args)

    def final(*args):
        phase[0] = "final"
        return result(*args)

    monkeypatch.setattr(exits, "_solve_legs", counting)
    monkeypatch.setattr(exits, "_refine", refining)
    monkeypatch.setattr(exits, "_result_legs", final)
    return stacks


@pytest.mark.parametrize("case", ["grid", "force_numeric"])
def test_round_zero_starts_from_the_lattice_field(case, monkeypatch):
    import bridgeexit.exits as exits

    # round 0's legs start from the field's shortest paths: config A's
    # takes 6 lockstep iterations (grid) and 5, where its chords took 12
    # and 7; every start ends where its leg does
    starts = []
    solve = exits._solve_legs

    def recording(model, X, Y, opts, inits):
        starts.append((X, Y, inits))
        return solve(model, X, Y, opts, inits)

    monkeypatch.setattr(exits, "_solve_legs", recording)
    stacks = _record_scan_stacks(monkeypatch)
    if case == "grid":
        model, kw = diag_v_grid(), {}
    else:
        model, kw = hull_white_model(), dict(opts=SolverOptions(n=50), force_numeric=True)
    res = exit_asymptotics(model, ref.A_X, ref.A_Y, VerticalBarrier(ref.A_BARRIER), **kw)
    assert_consistent(res, VerticalBarrier(ref.A_BARRIER))
    phase, legs, _, lockstep = stacks[0]
    assert phase == "rounds" and legs == 2 * 9 + 1
    assert lockstep <= 6
    X, Y, inits = starts[0]
    assert all(p is not None for p in inits)
    for p, q, path in zip(X, Y, inits):
        assert path.shape == (51, 2)
        np.testing.assert_allclose(path[[0, -1]], [p, q], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("multi_start", [1, 3])
def test_result_stack_matches_cold_solves(multi_start, monkeypatch):
    # the scan's result solves d(x, y), d(x, z*) and d(z*, y), with their
    # perturbed starts, as one stack, warm from the scan's x-to-y leg and
    # the legs at z*; each meets the tolerance of a cold solve, and the
    # distances agree to well within it (1.6e-16 here)
    stacks = _record_scan_stacks(monkeypatch)
    model, opts = diag_v_grid(), SolverOptions(multi_start=multi_start)
    res = exit_asymptotics(model, ref.A_X, ref.A_Y, VerticalBarrier(ref.A_BARRIER), opts=opts)
    assert_consistent(res, VerticalBarrier(ref.A_BARRIER))
    for got, (p, q) in ((res.d_xy, (ref.A_X, ref.A_Y)), (res.d_xz, (ref.A_X, res.z_star)),
                        (res.d_zy, (res.z_star, ref.A_Y))):
        cold = solve_geodesic(model, p, q, opts).distance
        assert abs(got - cold) <= 1e-12 * cold
    # the warm legs took 3 lockstep iterations here, from the chords 6
    (final,) = [s for s in stacks if s[0] == "final"]
    assert final[1] == 3 * multi_start
    if multi_start == 1:
        assert final[3] <= 3


@pytest.mark.parametrize("case", ["grid", "force_numeric"])
def test_scan_continuation_takes_few_iterations(case, monkeypatch):
    stacks = _record_scan_stacks(monkeypatch)
    if case == "grid":
        model, kw = diag_v_grid(), {}
    else:
        model, kw = hull_white_model(), dict(opts=SolverOptions(n=50), force_numeric=True)
    res = exit_asymptotics(model, ref.A_X, ref.A_Y, VerticalBarrier(ref.A_BARRIER), **kw)
    assert_consistent(res, VerticalBarrier(ref.A_BARRIER))
    rounds = [s for s in stacks if s[0] == "rounds"]
    refine = [s for s in stacks if s[0] == "refine"]
    # the rounds solved 37 (grid) and 22 of the 256 samples, two legs each,
    # and the x-to-y leg in round 0, in 107 and 153 iterations; the
    # 256-sample sweep took 768 and 807
    assert rounds[0][1] == 2 * 9 + 1
    assert sum(legs for _, legs, _, _ in rounds) <= 2 * 80
    assert sum(iters for _, _, iters, _ in rounds) <= 500
    # the rounds asked all five samples of the quartic, so the refinement
    # is its vertex alone, one sample (two legs) in one stack, in 0
    # iterations both times; Brent took 5 and 9 iterations in 6 and 7
    # one-sample calls
    assert all(legs == 2 for _, legs, _, _ in refine)
    assert sum(iters for _, _, iters, _ in refine) <= 15
    assert len(refine) == 1


def test_result_counts_scan_legs_that_ran_out_of_budget(monkeypatch):
    stacks = _record_scan_stacks(monkeypatch)
    # one iteration: a warm-started Newton leg can converge in two
    opts = SolverOptions(n=50, max_iter=1, strict=False)
    res = exit_asymptotics(hull_white_model(), ref.A_X, ref.A_Y,
                           VerticalBarrier(ref.A_BARRIER), opts=opts, force_numeric=True)
    # nearly every leg of the rounds and the refinement is cut short: more
    # than the 18 cold legs of round 0 (42 here), at most two per sample
    # solved
    legs = sum(legs for phase, legs, _, _ in stacks if phase != "final")
    assert 18 < res.unconverged_legs <= legs
    assert_consistent(res, VerticalBarrier(ref.A_BARRIER))
    closed = exit_asymptotics(hull_white_model(), ref.A_X, ref.A_Y,
                              VerticalBarrier(ref.A_BARRIER))
    assert closed.unconverged_legs == 0


def test_result_counts_refinement_legs_that_ran_out_of_budget(monkeypatch):
    import bridgeexit.exits as exits

    # the sample legs each scan stack cut short, by phase; the first
    # stack's last leg is x to y, no sample's
    short, phase = {"rounds": 0, "refine": 0, "final": 0}, ["rounds"]
    solve, refine = exits._solve_legs, exits._refine

    def counting(model, X, Y, opts, inits):
        out = solve(model, X, Y, opts, inits)
        short[phase[0]] += int(out[5][:len(inits) // 2 * 2].sum())
        return out

    def refining(*args):
        phase[0] = "refine"
        theta = refine(*args)
        phase[0] = "final"
        return theta

    monkeypatch.setattr(exits, "_solve_legs", counting)
    monkeypatch.setattr(exits, "_refine", refining)
    opts = SolverOptions(n=50, max_iter=1, strict=False)
    res = exit_asymptotics(hull_white_model(), ref.A_X, ref.A_Y,
                           VerticalBarrier(ref.A_BARRIER), opts=opts, force_numeric=True)
    # the refinement's legs stop short too (4 of 4 here), and count
    assert short["refine"] > 0
    assert res.unconverged_legs == short["rounds"] + short["refine"]


def _full_sweep_case(kind):
    """(model, x, y, plane, opts) of a solver scan checked against its
    full sweep."""
    if kind == "grid13":
        return (diag_v_grid(), ref.A_X, ref.A_Y,
                Hyperplane(np.array([1.0, 0.0]), ref.A_BARRIER), SolverOptions())
    xs = [0.0, 2.1, 2.3, 2.7, 2.9, 4.0]
    vs = [0.5, 2.0, 2.4, 4.0]
    scale = [[0.2 if 2.3 <= a <= 2.7 and b <= 2.0 else 1.0 for b in vs] for a in xs]
    grid = grid_model(xs, vs, np.multiply.outer(scale, np.eye(2)))
    return (grid, np.array([1.0, 1.0]), np.array([2.0, 1.0]),
            Hyperplane(np.array([1.0, 0.0]), 2.5), SolverOptions(n=20, max_iter=50, strict=False))


@pytest.mark.parametrize("kind", ["grid13", "two_basin_capped"])
def test_adaptive_scan_bound_holds_against_the_full_sweep(kind):
    from bridgeexit.exits import _chart_lengths, _scan, _solver_legsums

    model, x, y, plane, opts = _full_sweep_case(kind)
    thetas, chart = line_window(model, x, y, plane)
    legsums = _solver_legsums(model, x, y, chart, opts)
    measured = {}  # chart parameter -> leg sum, of every call the scan made

    def recording(ts):
        out = legsums(ts)
        measured.update(zip(np.atleast_1d(ts).tolist(), np.atleast_1d(out).tolist()))
        return out

    recording.unconverged = 0
    recording.legs = legsums.legs
    theta, _, gap = _scan(thetas, recording,
                          lambda lo, hi: _chart_lengths(model, chart, lo, hi))
    solved = np.array([t in measured for t in thetas.tolist()])
    f = np.array([measured.get(t, np.inf) for t in thetas.tolist()])
    best = int(np.argmin(f))
    # every sample of the grid, each solved cold in one stack
    full = _solver_legsums(model, x, y, chart, opts)(thetas)
    assert int(np.argmin(full)) == best
    skipped = full[~solved]
    assert len(skipped) > 128
    assert (skipped >= f[best] * (1.0 - SCAN_GAP) - 1e-6 * f[best]).all()
    assert 0.0 <= gap <= SCAN_GAP
    # the refinement stays within one sample of the best
    assert thetas[best - 1] <= theta <= thetas[best + 1]


def test_chart_lengths_measure_the_metric_along_the_chart():
    from bridgeexit.exits import _chart_lengths

    # a^-1 = I / v^2 on the grid: the vertical piece from v0 to v1 is
    # log(v1 / v0) long, which 16 midpoints measure from below, here as
    # the scan sums them: 8 adjacent intervals of SCAN_PIECES = 2 pieces
    grid = diag_v_grid()

    def chart(theta):
        z = np.empty(np.shape(theta) + (2,))
        z[..., 0] = 2.5
        z[..., 1] = theta
        return z

    lo, hi = np.array([0.1, 1.0, 2.0]), np.array([0.2, 3.0, 3.5])
    t = np.linspace(lo, hi, 9, axis=1)
    got = _chart_lengths(grid, chart, t[:, :-1].ravel(), t[:, 1:].ravel()).reshape(3, 8).sum(axis=1)
    exact = np.log(hi[:2] / lo[:2])
    assert (got[:2] <= exact).all()
    np.testing.assert_allclose(got[:2], exact, rtol=1e-3)
    assert got[2] == np.inf  # its pieces above v = 3 leave the grid


def test_scan_rounds_find_a_narrow_well_between_coarse_samples():
    from bridgeexit.exits import _scan

    # 2-Lipschitz in theta, which is arclength: a broad well with its
    # bottom (9) on a coarse sample, and a deeper one (4) three samples
    # wide between the coarse samples 96 and 104, which read 10
    def leg_sum(t):
        return np.minimum(9.0 + 0.01 * np.abs(t - 40.0),
                          10.0 - 2.0 * np.maximum(0.0, 3.0 - np.abs(t - 101.0)))

    thetas = np.arange(256.0)
    measured = []

    def legsums(ts):
        measured.extend(np.atleast_1d(ts).tolist())
        f = leg_sum(ts)
        # split in halves, each 1-Lipschitz
        legsums.legs.update((t, (0.5 * v, 0.5 * v)) for t, v in zip(np.atleast_1d(ts).tolist(),
                                                                   np.atleast_1d(f).tolist()))
        return f

    legsums.unconverged = 0
    legsums.legs = {}
    theta, _, gap = _scan(thetas, legsums, lambda lo, hi: hi - lo)
    # the bound of the gap (96, 104), 10 - 8, kept it open
    assert theta == pytest.approx(101.0, abs=1e-6)
    skipped = np.setdiff1d(thetas, measured)
    assert len(skipped) > 128
    assert 0.0 <= gap <= SCAN_GAP
    assert (leg_sum(skipped) >= 4.0 * (1.0 - gap)).all()


def _quartic_scan(monkeypatch, leg_sum, scale=1.0):
    """_scan over 256 unit-spaced samples of the leg sums leg_sum(thetas),
    each split in halves, with chart lengths scale * (hi - lo); returns
    (theta, the sizes of the calls the rounds make alone, the parameters
    they ask, the sizes of every call of the scan, the args of its Brent
    calls)."""
    import bridgeexit.exits as exits

    thetas = np.arange(256.0)

    def make():
        sizes = []

        def legsums(ts):
            sizes.append(np.size(ts))
            f = leg_sum(ts)
            legsums.legs.update((t, (0.5 * v, 0.5 * v))
                                for t, v in zip(np.atleast_1d(ts).tolist(),
                                                np.atleast_1d(f).tolist()))
            return f

        legsums.unconverged, legsums.legs = 0, {}
        return legsums, sizes

    def lengths(lo, hi):
        return scale * (hi - lo)

    rounds, rounds_sizes = make()
    exits._rounds(thetas, rounds, lengths)
    legsums, sizes = make()
    brent = []
    real = exits._brent

    def recording(*args):
        brent.append(args)
        return real(*args)

    monkeypatch.setattr(exits, "_brent", recording)
    theta = exits._scan(thetas, legsums, lengths)[0]
    return theta, rounds_sizes, set(rounds.legs), sizes, brent


@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_refinement_takes_the_vertex_of_the_quartic_in_one_call(scale, monkeypatch):
    # a quartic with its one minimum between samples: the quartic through
    # the five samples about the best is f itself, and its vertex is found
    # with one call past the rounds.  Long chart lengths keep every gap
    # open, and the rounds ask all five samples; short ones leave 99 out,
    # and one more call asks it first
    def leg_sum(t):
        u = t - 101.3
        return 5.0 + u * u * (0.5 + u * (0.01 + 0.002 * u))

    theta, rounds, asked, sizes, brent = _quartic_scan(monkeypatch, leg_sum, scale)
    assert abs(theta - 101.3) <= 1e-12 * 101.3
    missing = {99.0, 100.0, 101.0, 102.0, 103.0} - asked
    assert len(missing) == (0 if scale > 1.0 else 1)
    assert sizes == rounds + [len(missing)] * bool(missing) + [1] and not brent


@pytest.mark.parametrize("best", [0.2, 1.3, 100.2, 253.8])
def test_refinement_takes_brent_where_the_quartic_has_no_stencil(best, monkeypatch):
    # a best sample at index 0 or 1, or at 254, has no five samples about
    # it; at 100 the sample two above lies outside the domain
    from bridgeexit.exits import SCAN_FLAT

    def leg_sum(t):
        f = 5.0 + (t - best) ** 2
        return np.where(t < 102.0, f, np.inf) if best == 100.2 else f

    theta, _, _, _, brent = _quartic_scan(monkeypatch, leg_sum)
    assert len(brent) == 1 and brent[0][-1] == SCAN_FLAT
    assert theta == pytest.approx(best, abs=1e-6)


@pytest.mark.parametrize("case", ["grid", "force_numeric"])
def test_quartic_refinement_matches_brent_on_the_same_legs(case, monkeypatch):
    # config A: the J of the quartic's vertex, and the J of Brent's
    # refinement (to SCAN_FLAT) of the same scan legs, both through the
    # result's legs at full resolution, agree within 1e-8 relative
    import bridgeexit.exits as exits

    seen = []
    refine = exits._refine

    def recording(thetas, f, j, legsums, lo, hi):
        theta = refine(thetas, f, j, legsums, lo, hi)
        seen.append((legsums, lo, hi, float(thetas[j]), float(f[j]), theta))
        return theta

    monkeypatch.setattr(exits, "_refine", recording)
    if case == "grid":
        model, opts = diag_v_grid(), SolverOptions()
        res = exit_asymptotics(model, ref.A_X, ref.A_Y, VerticalBarrier(ref.A_BARRIER))
    else:
        model, opts = hull_white_model(), SolverOptions(n=50)
        res = exit_asymptotics(model, ref.A_X, ref.A_Y, VerticalBarrier(ref.A_BARRIER),
                               opts=opts, force_numeric=True)
    (legsums, lo, hi, theta_j, f_j, vertex), = seen
    theta, _ = exits._brent(legsums, lo, hi, theta_j, f_j, exits.SCAN_FLAT)
    z = res.z_star.copy()
    z[1] += theta - vertex  # the barrier's chart runs along v
    d_xy, d_xz, d_zy = exits._result_legs(model, [(ref.A_X, ref.A_Y), (ref.A_X, z),
                                                  (z, ref.A_Y)], opts, legsums.warm(theta))
    J = 0.5 * ((d_xz + d_zy) ** 2 - d_xy**2)
    assert abs(res.J - J) <= 1e-8 * J
    assert_consistent(res, VerticalBarrier(ref.A_BARRIER))


def _holed_plane():
    """The metric I / v^2 of sigma = v I on the upper half-plane minus the
    open disk of radius 0.12 about (0.3, 1.2): not convex, so a warm start
    can leave the domain."""
    center = np.array([0.3, 1.2])
    eye = np.eye(2)

    def inside(pts):
        return (((pts - center) ** 2).sum(axis=-1) >= 0.12**2) & (pts[..., 1] > 0.0)

    return DiffusionModel(
        dim=2, drift=lambda z: np.zeros(2), sigma=lambda z: z[1] * eye,
        domain_test=lambda z: bool(inside(z)),
        batch_inverse_metric=lambda pts: eye / (pts[:, 1] ** 2)[:, None, None],
        batch_domain_test=inside,
    )


def _sequential_legsums(model, x, y, chart, thetas, opts, asked, solved):
    """Leg sums of the points thetas one leg at a time.  The legs at
    thetas[k] start from the legs solved at the parameters asked earlier
    (the set asked) next to it on either side (kept in solved, theta ->
    (x-to-z, z-to-y) points): taken linearly in theta between two, copied
    from one, with what they miss of the new point spread along each leg;
    they start cold where neither was solved, or where that start's energy
    is not finite.  thetas then join asked.  Returns the leg sums and the
    number of predicted points that fell back to a cold leg."""
    from bridgeexit.geodesic import _energy_of, solve_geodesic
    from bridgeexit.model import domain_test_batch

    def predicted(tail, leg, theta, z):
        (t0, *L0), (t1, *L1) = tail[0], tail[-1]
        r = (theta - t1) / (t1 - t0) if len(tail) == 2 else 0.0
        pts = L1[leg] + r * (L1[leg] - L0[leg])
        k = np.arange(len(pts)) / (len(pts) - 1.0)
        if leg == 0:
            pts += k[:, None] * (z - pts[-1])
            pts[0], pts[-1] = x, z
        else:
            pts += (1.0 - k)[:, None] * (z - pts[0])
            pts[0], pts[-1] = z, y
        return DiscretePath(pts) if np.isfinite(_energy_of(model, pts)) else None

    z = chart(thetas)
    out = np.full(len(z), np.inf)
    colds, new = 0, {}
    for i in np.flatnonzero(domain_test_batch(model, z)):
        below = max((t for t in asked if t < thetas[i]), default=None)
        above = min((t for t in asked if t >= thetas[i]), default=None)
        tail = [(t, *solved[t]) for t in (below, above) if t in solved]
        inits = [predicted(tail, leg, thetas[i], z[i]) if tail else None
                 for leg in (0, 1)]
        colds += bool(tail) and None in inits
        r_xz = solve_geodesic(model, x, z[i], opts, init=inits[0])
        r_zy = solve_geodesic(model, z[i], y, opts, init=inits[1])
        new[float(thetas[i])] = (r_xz.path.points, r_zy.path.points)
        out[i] = r_xz.distance + r_zy.distance
    asked.update(thetas.tolist())
    solved.update(new)
    return out, colds


@pytest.mark.parametrize("kind", ["holed_plane", "grid_edge", "grid_jet", "volatility"])
def test_lockstep_chains_match_sequential_legs_bit_for_bit(kind):
    # The scan's calls as it makes them: a cold round, a round that
    # bisects between solved neighbors, and refinement's single points
    # between the points asked next to them.  Each call's legs, one
    # lockstep stack for the path optimizer, match the same legs solved
    # one at a time.
    from bridgeexit.exits import _scan_options, _solver_legsums

    # the scan's own leg options, which _solver_legsums keeps as they are
    opts = _scan_options(SolverOptions())
    if kind == "holed_plane":
        # the x-to-z legs to v = 0.2 and 0.3 skirt the hole, and their
        # interpolation at v = 0.25 cuts into it, where no chord to
        # 0.2 <= v <= 1.3 goes: that leg starts cold
        model = _holed_plane()
        x0 = 2.0
        x, y = np.array([0.0, 1.0]), np.array([4.0, 1.0])
        thetas = np.array([0.2, 0.25, 0.3, 0.75, 1.2])
    elif kind == "grid_edge":
        # the x-to-z legs run along the right edge of the box, 5e-8 inside:
        # on a copy without the metric jet their finite-difference probes
        # in +x leave it, and those in -x (step 4e-6) land in a strip where
        # the metric hook raises, so the batch they share with the interior
        # z-to-y legs raises
        grid = diag_v_grid()
        raised = []

        def hook(pts):
            if ((4.0 - 1e-5 < pts[:, 0]) & (pts[:, 0] < 4.0 - 1e-6)).any():
                raised.append(len(pts))
                raise NotSPD("strip")
            return grid.batch_inverse_metric(pts)

        model = replace(grid, batch_inverse_metric=hook, batch_metric_jet=None)
        x0 = 4.0 - 5e-8
        x, y = np.array([x0, 0.3]), np.array([3.0, 0.5])
        thetas = np.linspace(0.1, 2.5, 10)
    elif kind == "grid_jet":
        # the same legs with the exact metric derivative: no probes
        model = diag_v_grid()
        x0 = 4.0 - 5e-8
        x, y = np.array([x0, 0.3]), np.array([3.0, 0.5])
        thetas = np.linspace(0.1, 2.5, 10)
    else:
        model = hull_white_model(sigma_vol=1.3, rho=0.4)
        x0 = 2.5
        x, y = ref.A_X, ref.A_Y
        thetas = np.geomspace(0.05, 3.0, 11)

    def chart(theta):
        z = np.empty(np.shape(theta) + (2,))
        z[..., 0] = x0
        z[..., 1] = theta
        return z

    # round 0 solves the even samples cold; round 1 the odd ones between
    # their two neighbors, or from the one neighbor the last sample has
    legsums = _solver_legsums(model, x, y, chart, opts)
    asked, solved, colds = set(), {}, 0

    def check(ts):
        nonlocal colds
        got = legsums(ts)
        want, c = _sequential_legsums(model, x, y, chart, ts, opts, asked, solved)
        assert got.tobytes() == want.tobytes()
        colds += c
        return got

    values = {}
    for ts in (thetas[0::2], thetas[1::2]):
        values.update(zip(ts.tolist(), check(ts).tolist()))
    if kind == "grid_edge":
        # a stacked batch raised, not just one leg's own (5 n points)
        assert max(raised) > 5 * opts.n
    if kind == "holed_plane":
        assert colds >= 1
    assert legsums.unconverged == 0
    # refinement: the best sample asked again starts from its own legs and
    # keeps its bits, and each refined point starts between the points
    # asked next to it
    i = 1 + int(np.argmin([values[t] for t in thetas[1:-1].tolist()]))
    t = float(thetas[i])
    assert check(np.array([t]))[0] == values[t]
    left = 0.5 * (t + float(thetas[i - 1]))
    check(np.array([left]))
    check(np.array([0.5 * (left + t)]))
    check(np.array([0.5 * (t + float(thetas[i + 1]))]))


@pytest.mark.parametrize("case", ["grid", "force_numeric", "holed_plane"])
def test_every_warm_start_interpolates(case, monkeypatch):
    # every solver leg that starts warm starts between the legs solved at
    # the parameters asked next to it, in the rounds and at the
    # refinement's vertex alike: an extrapolated start once looped 2.44 away from its leg
    import bridgeexit.exits as exits

    predict, starts = exits._predicted_legs, []

    def recording(tails, theta, *args):
        starts.extend(zip(theta.tolist(), [[t[0] for t in tail] for tail in tails]))
        return predict(tails, theta, *args)

    monkeypatch.setattr(exits, "_predicted_legs", recording)
    if case == "holed_plane":
        # the hole lies between the legs to the curve's ends
        curve = ParametricCurve(lambda th: np.array([2.0, th]), 0.3, 1.2)
        res = exit_asymptotics(_holed_plane(), np.array([0.0, 1.0]), np.array([4.0, 1.0]),
                               curve, opts=SolverOptions(n=20))
    elif case == "grid":
        res = exit_asymptotics(diag_v_grid(), ref.A_X, ref.A_Y, VerticalBarrier(ref.A_BARRIER))
    else:
        res = exit_asymptotics(hull_white_model(), ref.A_X, ref.A_Y,
                               VerticalBarrier(ref.A_BARRIER), opts=SolverOptions(n=50),
                               force_numeric=True)
    assert_consistent(res, None if case == "holed_plane" else VerticalBarrier(ref.A_BARRIER))
    assert len(starts) > 10
    for theta, tail in starts:
        assert len(tail) == 2 and tail[0] < theta < tail[1]
