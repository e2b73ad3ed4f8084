import math
import warnings
from dataclasses import replace

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
    geodesic_arc,
    grid_model,
    hull_white_model,
    hw_distance,
    model_distance,
    optimal_crossing_time,
    pointwise_exit_cost,
    poincare_distance,
    sample_arc,
    time_profile,
)
from bridgeexit.model import domain_test_batch

import refvalues as ref


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
    arc = geodesic_arc(ref.A_X, ref.A_Y)
    mid = sample_arc(arc, ref.A_X, ref.A_Y, 8).points[3]
    assert pointwise_exit_cost(model, ref.A_X, ref.A_Y, mid) == pytest.approx(
        0.0, abs=1e-9
    )


def test_pointwise_cost_at_reference_crossing():
    model = hull_white_model()
    z = np.array([ref.A_BARRIER, ref.A_Z_STAR_Y])
    assert pointwise_exit_cost(model, ref.A_X, ref.A_Y, z) == pytest.approx(
        ref.A_J, rel=1e-10
    )


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
    arc = geodesic_arc(ref.A_X, ref.A_Y)
    path = sample_arc(arc, ref.A_X, ref.A_Y, 200)
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
    leg1 = sample_arc(geodesic_arc(ref.B_X, z), ref.B_X, z, n1).points
    leg2 = sample_arc(geodesic_arc(z, ref.B_Y), z, ref.B_Y, n - n1).points
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


def test_parametric_curve_validation():
    chart = lambda th: np.array([2.5, th])
    with pytest.raises(ValueError):
        ParametricCurve(chart, 1.0, 1.0)
    with pytest.raises(ValueError):
        ParametricCurve(chart, 0.0, 1.0, samples=2)


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
    from bridgeexit.exits import _line_window

    grid = diag_v_grid()
    plane = Hyperplane(np.array([1.0, 0.0]), ref.A_BARRIER)
    thetas, chart = _line_window(grid, ref.A_X, ref.A_Y, plane)
    assert chart(thetas[0])[1] == pytest.approx(0.02, abs=1e-12)
    assert chart(thetas[-1])[1] == pytest.approx(3.0, abs=1e-12)
    # each end is the last point inside the box: one more step along the
    # line leaves it
    for end, out in ((thetas[0], -1e-12), (thetas[-1], 1e-12)):
        assert grid.domain_test(chart(end)) and not grid.domain_test(chart(end + out))
    # sigma = 0.5 I on a box much taller than d(x, y): the window runs to
    # both edges, where one 4 d(x, y) of arclength long ended near [-3, 5]
    tall = grid_model([0.0, 4.0], [-20.0, 20.0], np.multiply.outer(np.ones((2, 2)), 0.5 * np.eye(2)))
    thetas, chart = _line_window(tall, np.array([1.0, 1.0]), np.array([2.0, 1.0]),
                                 Hyperplane(np.array([1.0, 0.0]), 2.5))
    np.testing.assert_allclose(chart(thetas[[0, -1]]), [[2.5, -20.0], [2.5, 20.0]],
                               rtol=0.0, atol=1e-12)
    # the volatility metric through its callbacks alone has no bound on
    # its distance, and its domain v > 0 does not end up the line
    model = replace(hull_white_model(**TRUNC_MODEL), geometry=None)
    with pytest.raises(ValueError, match="does not leave the model domain"):
        _line_window(model, TRUNC_X, TRUNC_Y, TRUNC_PLANE)
    with pytest.raises(ValueError, match="does not leave the model domain"):
        exit_asymptotics(model, TRUNC_X, TRUNC_Y, TRUNC_PLANE, opts=SolverOptions(n=20))


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
    near = pointwise_exit_cost(grid, x, y, np.array([2.5, 1.0]), opts)
    assert res.z_star[0] == 2.5 and 2.2 < res.z_star[1] < 2.5
    assert res.J < near - 0.5
    assert res.J == pytest.approx(6.718, abs=5e-3)


@pytest.mark.parametrize("plane", [TRUNC_PLANE, Hyperplane(np.array([0.0, 1.0]), 0.1),
                                   Hyperplane(np.array([1.0, 0.0]), 1.93711)],
                         ids=["slanted", "horizontal", "correlated_vertical"])
def test_volatility_window_is_certified(plane):
    from bridgeexit.exits import _line_window

    model = hull_white_model(**TRUNC_MODEL)
    sv, rho = TRUNC_MODEL["sigma_vol"], TRUNC_MODEL["rho"]
    x, y = TRUNC_X, TRUNC_Y
    d_xy = model_distance(model, x, y)

    def legsums(z):
        return hw_distance(sv, rho, x, z) + hw_distance(sv, rho, z, y)

    thetas, chart = _line_window(model, x, y, plane)
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
    from bridgeexit.exits import _line_window

    x, y = np.array(x), np.array(y)
    normal = np.array([math.cos(angle), math.sin(angle)])  # angle 0: vertical
    plane = Hyperplane(normal, max(normal @ x, normal @ y) + gap)
    n, c = plane.normal, plane.offset
    mid = 0.5 * (x + y)
    assume((mid - (n @ mid - c) * n)[1] > 0.01)  # the anchor is in the domain
    thetas, chart = _line_window(model, x, y, plane)
    assert np.isfinite(thetas).all()

    def legsums(z):
        return model_distance(model, x, z) + model_distance(model, z, y)

    S = legsums(chart(0.0))
    width = np.ptp(thetas)
    offsets = width * np.geomspace(1e-6, 1e3, 80)
    beyond = chart(np.concatenate([thetas[0] - offsets, thetas[-1] + offsets]))
    beyond = beyond[domain_test_batch(model, beyond)]
    assert (legsums(beyond) > S).all()
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
    from bridgeexit.exits import _line_window

    thetas, chart = _line_window(model, x, y, plane)
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
    assert res.J == pytest.approx(closed.J, rel=1e-6)


def test_volatility_window_of_far_endpoints_is_finite_or_refused(tmp_path, capsys):
    # sigma_vol * S = 346: the disc's coefficients once overflowed here and
    # gave the window [nan, 3.6e149] with invalid-value warnings
    from bridgeexit.cli import main
    from bridgeexit.exits import _line_window

    model = hull_white_model(sigma_vol=2.0, rho=0.5)
    x, y = np.array([0.0, 1.0]), np.array([0.0, 1e150])
    plane = Hyperplane(np.array([1.0, 0.3]), 1.0 + 0.15 * (1.0 + 1e150))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        thetas, chart = _line_window(model, x, y, plane)
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
            _line_window(model, x, far, plane)
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

    counts = []  # one-point calls of each leg-sum function the scans made
    real = exits._oracle_legsums

    def counting(*args):
        make = real(*args)

        def make_counted():
            f = make()
            counts.append(0)
            k = len(counts) - 1

            def legsums(thetas):
                counts[k] += len(thetas) == 1
                return f(thetas)

            legsums.unconverged = f.unconverged
            return legsums

        return make_counted

    monkeypatch.setattr(exits, "_oracle_legsums", counting)
    if case == "correlated":
        model = hull_white_model(sigma_vol=1.5, rho=0.5)
        boundary = VerticalBarrier(ref.A_BARRIER)
    else:
        model = hull_white_model(sigma_vol=1.1, rho=0.3)
        boundary = Hyperplane(np.array([1.0, 0.2]), 2.6)
    exit_asymptotics(model, ref.A_X, ref.A_Y, boundary)
    # each scan: one function for the coarse sweep, one for the refinement
    assert len(counts) >= 2 and len(counts) % 2 == 0
    assert counts[0::2] == [0] * (len(counts) // 2)
    # golden section took 48 (correlated) and 60 (slanted) calls here
    assert all(0 < n <= 25 for n in counts[1::2])


def test_scan_keeps_the_coarse_sample_when_its_bracket_is_not_finite():
    from bridgeexit.exits import _scan

    # a bracket with a non-finite end, as a window past the float range gives
    calls = []

    def make_legsums():
        def legsums(thetas):
            calls.append(len(thetas))
            assert len(calls) < 100, "refinement does not stop"
            return np.where(np.isfinite(thetas), thetas * thetas, np.inf)

        legsums.unconverged = 0
        return legsums

    assert _scan(np.array([-1.0, 0.5, np.inf]), make_legsums) == (0.5, 0)


def test_solver_straddle_solves_x_to_y_once(monkeypatch):
    import bridgeexit.exits as exits

    calls = []
    solve = exits.solve_geodesic

    def counting(model, p, q, *args, **kw):
        calls.append((tuple(p), tuple(q)))
        return solve(model, p, q, *args, **kw)

    monkeypatch.setattr(exits, "solve_geodesic", counting)
    res = exit_asymptotics(hull_white_model(), ref.A_X, ref.A_Y, VerticalBarrier(1.5),
                           opts=SolverOptions(n=50), force_numeric=True)
    assert res.geodesic_exits and res.method == "numeric_1d"
    assert len(calls) == 3
    assert calls.count((tuple(ref.A_X), tuple(ref.A_Y))) == 1


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
        return hyperbolic.hw_distance(*args)

    monkeypatch.setattr(exits, "hw_distance", counted_distance)
    plane = Hyperplane(np.array([1.0, 0.2]), 2.6)
    res = exit_asymptotics(replace(model, sigma=counted_sigma), ref.A_X, ref.A_Y, plane)
    # the window march once took its rates from sigma (1,024 calls), and the
    # scan made one distance call per leg of each of its 256 samples
    assert counts["sigma"] == 0
    assert counts["distance"] <= 200
    n, c = plane.normal, plane.offset
    for v in np.geomspace(1e-2, 20.0, 300):
        z = np.array([(c - n[1] * v) / n[0], v])
        assert pointwise_exit_cost(model, ref.A_X, ref.A_Y, z) >= res.J - 1e-9


def _window_case(kind):
    """(model, oracle, endpoints, coarse samples, chart) of one scan window."""
    from bridgeexit.exits import _curve_chart, _line_window, _oracle

    x, y = ref.A_X, ref.A_Y
    if kind == "constant_curve":
        model = constant_model(np.array([[1.0, 0.3], [0.0, 0.8]]))
        dist = _oracle(model, model.geometry, None)
        curve = ParametricCurve(lambda th: np.array([2.5 + 0.3 * np.sin(th), th]),
                                -2.0, 3.0)
        thetas = np.linspace(curve.theta_min, curve.theta_max, curve.samples)
        return model, dist, x, y, thetas, _curve_chart(curve)
    model = hull_white_model(sigma_vol=1.1, rho=0.3)
    dist = _oracle(model, model.geometry, None)
    if kind == "correlated_vertical":
        plane = Hyperplane(np.array([1.0, 0.0]), ref.A_BARRIER)
    else:
        plane = Hyperplane(np.array([1.0, 0.2]), 2.6)
    thetas, chart = _line_window(model, x, y, plane)
    return model, dist, x, y, thetas, chart


@pytest.mark.parametrize("kind", ["correlated_vertical", "slanted_plane", "constant_curve"])
def test_batched_scan_matches_scalar_distances_bit_for_bit(kind):
    from bridgeexit.exits import _oracle_legsums

    model, dist, x, y, thetas, chart = _window_case(kind)
    points = [chart(float(t)) for t in thetas]
    assert chart(thetas).tobytes() == np.array(points).tobytes()
    batched = _oracle_legsums(model, dist, x, y, chart)()(thetas)
    scalar = np.array([dist(x, z) + dist(z, y) for z in points])
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



# ---- solver scan: chains in lockstep ---- #

# Full-precision results of config A through the solver scan with Brent
# refinement.  The coarse sweep's lockstep chains reproduce the sweep as one
# warm-started chain, one leg at a time, bit for bit (see below), so only a
# change of the refinement or of the solver moves these bits.
PINNED_SCANS = {
    "grid": {
        "J": "0x1.e7750bddbde3ep+1",
        "z_star": ("0x1.4000000000000p+1", "0x1.f26e85ed0adf8p-1"),
        "u_bar": "0x1.7e7885a5913c5p-1",
        "d_xy": "0x1.468c6d3b8dca8p+1",
        "d_xz": "0x1.675c8c597422ep+1",
        "d_zy": "0x1.e6cfcb72304d9p-1",
    },
    "force_numeric": {
        "J": "0x1.e7620e7120bb9p+1",
        "z_star": ("0x1.4000000000000p+1", "0x1.f26e85d87abf8p-1"),
        "u_bar": "0x1.7e772b0fe58dfp-1",
        "d_xy": "0x1.468b1c748ee56p+1",
        "d_xz": "0x1.6756d5a756f3fp+1",
        "d_zy": "0x1.e6cedd9edd251p-1",
    },
}


@pytest.mark.parametrize("case", sorted(PINNED_SCANS))
def test_solver_scan_results_are_pinned_and_worker_independent(case):
    if case == "grid":
        model, kw = diag_v_grid(), {}
    else:
        model, kw = hull_white_model(), dict(opts=SolverOptions(n=50), force_numeric=True)
    barrier = VerticalBarrier(ref.A_BARRIER)
    res = exit_asymptotics(model, ref.A_X, ref.A_Y, barrier, workers=1, **kw)
    got = {
        "J": res.J.hex(),
        "z_star": tuple(float(v).hex() for v in res.z_star),
        "u_bar": res.u_bar.hex(),
        "d_xy": res.d_xy.hex(),
        "d_xz": res.d_xz.hex(),
        "d_zy": res.d_zy.hex(),
    }
    assert got == PINNED_SCANS[case]
    assert res.method == "numeric_1d"
    assert res.unconverged_legs == 0
    two = exit_asymptotics(model, ref.A_X, ref.A_Y, barrier, workers=2, **kw)
    for name in ("J", "u_bar", "d_xy", "d_xz", "d_zy", "unconverged_legs"):
        assert getattr(two, name) == getattr(res, name)
    assert two.z_star.tobytes() == res.z_star.tobytes()


def test_result_counts_scan_legs_that_ran_out_of_budget():
    # one iteration: a warm-started Newton leg can converge in two
    opts = SolverOptions(n=50, max_iter=1, strict=False)
    res = exit_asymptotics(hull_white_model(), ref.A_X, ref.A_Y,
                           VerticalBarrier(ref.A_BARRIER), opts=opts, force_numeric=True)
    # 256 samples of two legs each, nearly all of them cut short
    assert 256 < res.unconverged_legs <= 512
    closed = exit_asymptotics(hull_white_model(), ref.A_X, ref.A_Y,
                              VerticalBarrier(ref.A_BARRIER))
    assert closed.unconverged_legs == 0


def _holed_plane():
    """Flat metric on the plane minus the open disk of radius 0.4 about
    (2, 1.5): not convex, so a warm start can leave the domain."""
    center = np.array([2.0, 1.5])

    def inside(pts):
        return ((pts - center) ** 2).sum(axis=-1) >= 0.16

    eye = np.eye(2)
    return DiffusionModel(
        dim=2, drift=lambda z: np.zeros(2), sigma=lambda z: eye,
        domain_test=lambda z: bool(inside(z)),
        batch_inverse_metric=lambda pts: np.broadcast_to(eye, (len(pts), 2, 2)).copy(),
        batch_domain_test=inside,
    )


def _sequential_legsums(model, x, y, chart, thetas, opts, chains):
    """Leg sums as the scan once computed them: each chain in order, one
    leg at a time, each sample warm-started from the chain's last legs."""
    from bridgeexit.geodesic import _energy_of, solve_geodesic
    from bridgeexit.model import domain_test_batch

    def warm(path, end, z):
        if path is None:
            return None
        pts = path.points.copy()
        pts[end] = z
        return DiscretePath(pts) if np.isfinite(_energy_of(model, pts)) else None

    z = chart(thetas)
    out = np.full(len(z), np.inf)
    inside = np.flatnonzero(domain_test_batch(model, z))
    colds = 0
    for chain in np.array_split(inside, min(chains, len(inside))):
        prev = [None, None]
        for i in chain:
            inits = warm(prev[0], -1, z[i]), warm(prev[1], 0, z[i])
            colds += prev[0] is not None and None in inits
            r_xz = solve_geodesic(model, x, z[i], opts, init=inits[0])
            r_zy = solve_geodesic(model, z[i], y, opts, init=inits[1])
            prev = [r_xz.path, r_zy.path]
            out[i] = r_xz.distance + r_zy.distance
    return out, colds


@pytest.mark.parametrize("kind", ["holed_plane", "grid_edge", "grid_jet", "volatility"])
def test_lockstep_chains_match_sequential_legs_bit_for_bit(kind, monkeypatch):
    import bridgeexit.exits as exits
    from bridgeexit.exits import _solver_legsums

    monkeypatch.setattr(exits, "SCAN_CHAINS", 3)
    opts = SolverOptions(n=50, grad_tol_rel=1e-6, max_iter=2000, strict=False)
    if kind == "holed_plane":
        # samples alternate above and below the hole: moving a leg's end
        # across it puts a midpoint inside, and the leg starts cold
        model = _holed_plane()
        x0 = 2.0
        x, y = np.array([0.0, 0.0]), np.array([4.0, 0.0])
        thetas = np.array([3.0, 0.2, 2.8, 0.3, 3.1, 0.25, 2.9, 0.15, 0.1])
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

        model = replace(grid, batch_inverse_metric=hook, batch_inverse_metric_jet=None)
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

    legsums = _solver_legsums(model, x, y, chart, opts)()
    got = legsums(thetas)
    if kind == "grid_edge":
        # a stacked batch raised, not just one leg's own (5 n points)
        assert max(raised) > 5 * opts.n
    want, colds = _sequential_legsums(model, x, y, chart, thetas, opts, 3)
    assert got.tobytes() == want.tobytes()
    assert legsums.unconverged == 0
    if kind == "holed_plane":
        assert colds >= 3
    # a later call continues each chain from where the last call left it,
    # as refinement does with its one chain
    first = np.array_split(np.arange(len(thetas)), 3)[0]
    more = np.append(thetas[first], 1.7)
    want = _sequential_legsums(model, x, y, chart, more, opts, 1)[0]
    assert legsums(more[-1:]).tobytes() == want[-1:].tobytes()
