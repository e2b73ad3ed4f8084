import math
from dataclasses import replace

import numpy as np
import pytest

from bridgeexit import (
    DiscretePath,
    NoConvergence,
    NotSPD,
    OutsideDomain,
    SolverOptions,
    constant_model,
    distance,
    energy_gradient,
    hull_white_model,
    hw_distance,
    path_energy,
    solve_geodesic,
)
from bridgeexit.paths import path_from_csv, path_to_csv

import refvalues as ref


def wiggly_path(rng, x, y, n=8, amp=0.05, floor=0.05):
    pts = np.linspace(x, y, n + 1)
    bump = np.sin(np.pi * np.linspace(0, 1, n + 1))[:, None]
    pts[1:-1] += amp * bump[1:-1] * rng.standard_normal((n - 1, len(x)))
    pts[:, 1] = np.maximum(pts[:, 1], floor)
    return DiscretePath(pts)


# ---- energy and gradient ---- #


def test_energy_of_chord_in_constant_metric_is_exact():
    s = np.array([[1.0, 0.0], [0.5, 2.0]])
    model = constant_model(s)
    G = np.linalg.inv(s @ s.T)
    x = np.array([0.0, 0.0])
    y = np.array([3.0, -1.0])
    for n in (2, 7, 50):
        chord = DiscretePath(np.linspace(x, y, n + 1))
        E = path_energy(model, chord)
        expect = 0.5 * float((y - x) @ G @ (y - x))
        assert E == pytest.approx(expect, rel=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    models = [hull_white_model(), hull_white_model(sigma_vol=2.0, rho=-0.6),
              constant_model(np.array([[1.0, 0.3], [0.0, 0.8]]))]
    for k in range(20):
        model = models[k % len(models)]
        x = np.array([rng.uniform(-1, 1), rng.uniform(0.3, 2.0)])
        y = np.array([rng.uniform(-1, 1) + 1.5, rng.uniform(0.3, 2.0)])
        path = wiggly_path(rng, x, y, floor=0.1)
        g = energy_gradient(model, path)
        pts = path.points
        fd = np.zeros_like(g)
        h = 1e-6
        for i in range(1, pts.shape[0] - 1):
            for c in range(pts.shape[1]):
                up = pts.copy()
                up[i, c] += h
                dn = pts.copy()
                dn[i, c] -= h
                fd[i - 1, c] = (
                    path_energy(model, DiscretePath(up))
                    - path_energy(model, DiscretePath(dn))
                ) / (2 * h)
        denom = max(np.abs(g).max(), 1e-12)
        assert np.abs(fd - g).max() / denom <= 1e-5


def test_exact_gradient_matches_energy_differences_on_a_grid():
    # the grid model's metric jet in the gradient, against central
    # differences of the energy; the path's points stay inside lattice cells
    model = _twisted_grid()
    assert model.batch_inverse_metric_jet is not None
    s = np.linspace(0.0, 1.0, 41)
    pts = np.column_stack([0.4 + 3.0 * s, 0.5 + 1.5 * s + 0.3 * np.sin(np.pi * s)])
    g = energy_gradient(model, DiscretePath(pts))
    fd = np.zeros_like(g)
    h = 1e-6
    for i in range(1, pts.shape[0] - 1):
        for c in range(2):
            up, dn = pts.copy(), pts.copy()
            up[i, c] += h
            dn[i, c] -= h
            fd[i - 1, c] = (path_energy(model, DiscretePath(up))
                            - path_energy(model, DiscretePath(dn))) / (2 * h)
    assert np.abs(fd - g).max() / np.abs(g).max() <= 1e-6


def _twisted_grid():
    # a 13 x 13 grid whose sigma has a nonzero mixed derivative d2/dx dv
    from bridgeexit.model import grid_model

    xs = np.linspace(0.0, 4.0, 13)
    vs = np.linspace(0.02, 3.0, 13)
    entries = np.zeros((13, 13, 2, 2))
    entries[..., 0, 0] = vs[None, :] * (1.0 + 0.1 * xs[:, None])
    entries[..., 0, 1] = 0.05 * vs[None, :]
    entries[..., 1, 0] = 0.1 * np.cos(xs)[:, None]
    entries[..., 1, 1] = vs[None, :] + 0.2 * np.sin(xs)[:, None] ** 2
    return grid_model(xs, vs, entries)


def test_newton_hessian_matches_gradient_differences():
    # the assembled band, the exact Hessian of the energy, against central
    # differences of energy_gradient on curved paths; the grid path's
    # midpoints and their shifted copies stay inside lattice cells
    from bridgeexit.geodesic import _gradients, _hessian

    s = np.linspace(0.0, 1.0, 41)
    curved = np.column_stack([0.4 + 3.0 * s, 0.5 + 1.5 * s + 0.3 * np.sin(np.pi * s)])
    for model in (_twisted_grid(), hull_white_model(sigma_vol=1.3, rho=0.4)):
        n = len(curved) - 1
        _, _, T = _gradients(model, curved[None])
        D, U = _hessian(T, n, True)
        m = n - 1
        H = np.zeros((m, 2, m, 2))
        for i in range(m):
            H[i, :, i, :] = np.triu(D[..., 0, i]) + np.triu(D[..., 0, i], 1).T
        for i in range(m - 1):
            H[i, :, i + 1, :] = U[..., 0, i]
            H[i + 1, :, i, :] = U[..., 0, i].T
        fd = np.zeros_like(H)
        h = 1e-6
        for i in range(m):
            for c in range(2):
                up, dn = curved.copy(), curved.copy()
                up[i + 1, c] += h
                dn[i + 1, c] -= h
                fd[:, :, i, c] = (energy_gradient(model, DiscretePath(up))
                                  - energy_gradient(model, DiscretePath(dn))) / (2 * h)
        assert np.abs(fd - H).max() <= 1e-6 * np.abs(H).max()
        # the upper triangle of each diagonal block is what the solve reads;
        # the lower one agrees with it to roundoff
        assert np.allclose(D[0, 1], D[1, 0], rtol=1e-12, atol=1e-12 * np.abs(D).max())


def test_gradient_vanishes_on_straight_line_in_flat_metric():
    model = constant_model(np.eye(2))
    chord = DiscretePath(np.linspace([0.0, 0.0], [1.0, 2.0], 11))
    assert np.abs(energy_gradient(model, chord)).max() < 1e-12


# ---- solutions in closed-form geometries ---- #


def test_flat_geodesic_is_the_chord_at_every_resolution():
    s = np.array([[2.0, 0.0], [1.0, 1.0]])
    model = constant_model(s)
    G = np.linalg.inv(s @ s.T)
    x = np.array([0.0, 1.0])
    y = np.array([4.0, -2.0])
    expect = math.sqrt(float((y - x) @ G @ (y - x)))
    for n in (2, 10, 64):
        res = solve_geodesic(model, x, y, SolverOptions(n=n))
        assert res.distance == pytest.approx(expect, rel=1e-9)
        chord = np.linspace(x, y, n + 1)
        assert np.abs(res.path.points - chord).max() < 1e-6


def test_identity_metric_distance_is_euclidean():
    model = constant_model(np.eye(2))
    assert distance(model, [0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0, rel=1e-12)


def test_two_segment_vertical_geodesic_passes_through_geometric_mean():
    # On a vertical line the discrete optimizer with midpoint metric puts the
    # single interior node of a 2-segment path exactly at the geometric mean.
    model = hull_white_model()
    res = solve_geodesic(model, [0.0, 1.0], [0.0, 4.0], SolverOptions(n=2))
    assert res.path.points[1][0] == pytest.approx(0.0, abs=1e-10)
    assert res.path.points[1][1] == pytest.approx(2.0, rel=1e-8)


def test_reference_pair_matches_closed_form():
    model = hull_white_model()
    d = distance(model, ref.A_X, ref.A_Y, SolverOptions(n=200))
    assert d == pytest.approx(ref.A_D_XY, rel=1e-3)


def test_correlated_model_matches_closed_form():
    sv, rho = 2.0, -0.7
    model = hull_white_model(sigma_vol=sv, rho=rho)
    x = np.array([0.2, 0.6])
    y = np.array([1.1, 1.4])
    d = distance(model, x, y, SolverOptions(n=200))
    assert d == pytest.approx(hw_distance(sv, rho, x, y), rel=1e-3)


def test_endpoints_are_never_moved():
    model = hull_white_model()
    res = solve_geodesic(model, ref.A_X, ref.A_Y, SolverOptions(n=50))
    assert (res.path.points[0] == ref.A_X).all()
    assert (res.path.points[-1] == ref.A_Y).all()


def test_converged_path_has_constant_speed_segments():
    model = hull_white_model()
    res = solve_geodesic(model, ref.A_X, ref.A_Y, SolverOptions(n=100))
    lengths = res.segment_lengths
    assert lengths.max() - lengths.min() <= 0.01 * lengths.mean()


def test_distance_is_symmetric():
    model = hull_white_model()
    rng = np.random.default_rng(12)
    for _ in range(5):
        x = np.array([rng.uniform(-1, 1), rng.uniform(0.2, 2.0)])
        y = np.array([rng.uniform(-1, 1), rng.uniform(0.2, 2.0)])
        opts = SolverOptions(n=60)
        d1 = distance(model, x, y, opts)
        d2 = distance(model, y, x, opts)
        assert abs(d1 - d2) <= 1e-6 * max(d1, 1e-12)


def test_drift_never_affects_the_distance():
    opts = SolverOptions(n=80)
    d1 = distance(hull_white_model(b=0.0, mu=0.0), ref.A_X, ref.A_Y, opts)
    d2 = distance(hull_white_model(b=5.0, mu=-2.0), ref.A_X, ref.A_Y, opts)
    assert d1 == d2


# ---- refinement: a converged path interpolated to a finer grid ---- #


def _refined(model, path, n):
    # solve_geodesic warm-started from a path of another resolution
    # interpolates it to n segments and minimizes from there
    pts = path.points
    return solve_geodesic(model, pts[0], pts[-1], SolverOptions(n=n), init=path)


def test_refine_does_not_increase_energy():
    model = hull_white_model()
    res = solve_geodesic(model, ref.A_X, ref.A_Y, SolverOptions(n=50))
    fine = _refined(model, res.path, 100)
    assert fine.path.n_segments == 100
    interp_E = path_energy(
        model,
        DiscretePath(
            np.column_stack(
                [
                    np.interp(
                        np.linspace(0, 1, 101),
                        np.linspace(0, 1, 51),
                        res.path.points[:, c],
                    )
                    for c in range(2)
                ]
            )
        ),
    )
    assert 0.5 * fine.distance**2 <= interp_E + 1e-12


def test_refinement_differences_shrink():
    model = hull_white_model()
    res = solve_geodesic(model, ref.A_X, ref.A_Y, SolverOptions(n=100))
    d100 = res.distance
    res200 = _refined(model, res.path, 200)
    d400 = _refined(model, res200.path, 400).distance
    assert abs(d400 - res200.distance) < abs(res200.distance - d100)


def test_refine_to_same_resolution_is_a_no_op():
    model = hull_white_model()
    res = solve_geodesic(model, ref.A_X, ref.A_Y, SolverOptions(n=50))
    again = _refined(model, res.path, 50)
    assert again.distance == pytest.approx(res.distance, rel=1e-6)
    assert np.abs(again.path.points - res.path.points).max() < 1e-4


def test_refine_of_flat_chord_is_exact_at_every_resolution():
    model = constant_model(np.eye(2))
    res = solve_geodesic(model, [0.0, 0.0], [3.0, 4.0], SolverOptions(n=4))
    for n in (8, 32):
        res = _refined(model, res.path, n)
        assert res.distance == pytest.approx(5.0, rel=1e-10)


# ---- options, failure modes, diagnostics ---- #


def test_option_validation():
    with pytest.raises(ValueError):
        SolverOptions(n=1)
    with pytest.raises(ValueError):
        SolverOptions(max_iter=0)
    with pytest.raises(ValueError):
        SolverOptions(multi_start=0)
    with pytest.raises(ValueError):
        SolverOptions(grad_tol_rel=0.0)


def test_strict_mode_raises_when_budget_is_too_small():
    model = hull_white_model()
    opts = SolverOptions(n=200, max_iter=2, coarse_init=False)
    with pytest.raises(NoConvergence):
        solve_geodesic(model, ref.A_X, ref.A_Y, opts)


def test_relaxed_mode_returns_best_effort():
    model = hull_white_model()
    opts = SolverOptions(n=200, max_iter=2, coarse_init=False, strict=False)
    res = solve_geodesic(model, ref.A_X, ref.A_Y, opts)
    assert res.iterations == 2
    assert res.distance > 0.0
    assert np.isfinite(res.energy)


def test_endpoint_outside_domain_is_rejected():
    model = hull_white_model()
    with pytest.raises(OutsideDomain):
        solve_geodesic(model, [0.0, -1.0], [1.0, 1.0])


def test_init_path_outside_domain_is_rejected():
    from bridgeexit.model import grid_model

    vs = np.linspace(0.02, 3.0, 13)
    entries = np.zeros((13, 13, 2, 2))
    entries[..., 0, 0] = entries[..., 1, 1] = vs[None, :]
    grid = grid_model(np.linspace(0.0, 4.0, 13), vs, entries)
    x, y = np.array([1.0, 0.5]), np.array([2.0, 0.5])
    for model in (hull_white_model(), grid):
        # the middle point at v = -0.5, at the target resolution and at one
        # that is resampled to it
        for m in (20, 10):
            pts = np.linspace(x, y, m + 1)
            pts[m // 2, 1] = -0.5
            with pytest.raises(OutsideDomain, match="outside the model domain"):
                solve_geodesic(model, x, y, SolverOptions(n=20), init=DiscretePath(pts))


def test_multi_start_reports_spread_and_keeps_the_best():
    model = hull_white_model()
    single = solve_geodesic(model, ref.A_X, ref.A_Y, SolverOptions(n=60))
    multi = solve_geodesic(
        model, ref.A_X, ref.A_Y, SolverOptions(n=60, multi_start=3)
    )
    assert multi.multistart_spread >= 0.0
    assert multi.distance <= single.distance * (1.0 + 1e-8)


def test_warm_start_from_supplied_path():
    model = hull_white_model()
    res = solve_geodesic(model, ref.A_X, ref.A_Y, SolverOptions(n=60))
    warm = solve_geodesic(
        model, ref.A_X, ref.A_Y, SolverOptions(n=60), init=res.path
    )
    assert warm.iterations <= 3
    assert warm.distance == pytest.approx(res.distance, rel=1e-10)


# ---- serialization ---- #


def test_path_csv_round_trip():
    rng = np.random.default_rng(13)
    path = wiggly_path(rng, np.array([0.0, 1.0]), np.array([2.0, 0.5]), n=6)
    text = path_to_csv(path)
    assert text.splitlines()[0] == "s,coord_0,coord_1"
    back = path_from_csv(text)
    assert back.n_segments == 6
    assert np.abs(back.points - path.points).max() < 1e-10


def _per_point_jet(model, pts):
    # (A, dA) one point and one probe at a time: central differences of the
    # metric, one-sided where a probe leaves the domain or its metric
    # raises, zero where both do
    from bridgeexit.model import inverse_metric_batch

    def metric(z):
        if not model.domain_test(z):
            return None
        try:
            return inverse_metric_batch(model, z[None])[0]
        except (NotSPD, ValueError):
            return None

    n, d = pts.shape
    A = np.empty((n, d, d))
    dA = np.empty((n, d, d, d))
    for i, z in enumerate(pts):
        A[i] = inverse_metric_batch(model, z[None])[0]
        h = 1e-6 * max(1.0, np.abs(z).max())
        for k in range(d):
            up, dn = z.copy(), z.copy()
            up[k] += h
            dn[k] -= h
            ap, am = metric(up), metric(dn)
            if ap is None and am is None:
                dA[i, k] = 0.0
            elif ap is None:
                dA[i, k] = (A[i] - am) / h
            elif am is None:
                dA[i, k] = (ap - A[i]) / h
            else:
                dA[i, k] = (ap - am) / (2.0 * h)
    return A, dA


def _assert_jet_is_per_point(model, P):
    """The difference jet at the midpoints of the stack P, and P's
    gradients, keep the bits of each point and each path alone."""
    from bridgeexit.geodesic import _gradients
    from bridgeexit.model import inverse_metric_jet

    d = P.shape[2]
    mids = (0.5 * (P[:, :-1] + P[:, 1:])).reshape(-1, d)
    A, dA, d2A = inverse_metric_jet(model, mids)
    A_ref, dA_ref = _per_point_jet(model, mids)
    assert A.tobytes() == A_ref.tobytes()
    assert dA.tobytes() == dA_ref.tobytes()
    assert d2A is None
    q, g, T = _gradients(model, P)
    q = q.reshape(len(P), -1)
    for k in range(len(P)):
        q_k, g_k, T_k = _gradients(model, P[k:k + 1])
        assert q[k].tobytes() == q_k.tobytes()
        assert g[k:k + 1].tobytes() == g_k.tobytes()
        assert T[..., k:k + 1, :].tobytes() == T_k.tobytes()
    return g


def test_batched_gradient_probes_match_per_probe_evaluation():
    from bridgeexit.model import grid_model

    rng = np.random.default_rng(23)
    xs = np.linspace(0.0, 4.0, 13)
    vs = np.linspace(0.02, 3.0, 13)
    entries = np.zeros((13, 13, 2, 2))
    entries[..., 0, 0] = vs[None, :] * (1.0 + 0.1 * xs[:, None])
    entries[..., 0, 1] = 0.05 * vs[None, :]
    entries[..., 1, 1] = vs[None, :] + 0.2 * np.sin(xs)[:, None] ** 2
    grid = grid_model(xs, vs, entries)
    for n in (25, 30, 50, 200):
        cases = []
        for model in (hull_white_model(), hull_white_model(sigma_vol=1.7, rho=0.4),
                      constant_model(np.array([[1.0, 0.3], [0.0, 0.8]]))):
            paths = []
            for _ in range(2):
                x = np.array([rng.uniform(-1, 1), rng.uniform(0.3, 2.0)])
                y = np.array([rng.uniform(-1, 1) + 1.5, rng.uniform(0.3, 2.0)])
                paths.append(wiggly_path(rng, x, y, n=n, floor=0.1).points)
            # midpoints 5e-7 above v = 0: for the volatility models the edge
            # of the domain, below which the metric is still finite
            paths.append(np.linspace([0.0, 5e-7], [1.5, 5e-7], n + 1))
            cases.append((model, np.stack(paths)))
        # midpoints within 1e-7 of the lower and the right edge of the box:
        # their probes leave it
        cases.append((grid, np.stack([
            wiggly_path(rng, np.array([0.5, 0.4]), np.array([3.2, 2.1]), n=n).points,
            np.linspace([0.5, 0.02 + 5e-8], [3.5, 0.02 + 5e-8], n + 1),
            np.linspace([4.0 - 5e-8, 0.3], [4.0 - 5e-8, 2.9], n + 1),
        ])))
        for model, P in cases:
            # the difference jet, as a callback model without a jet gets it
            _assert_jet_is_per_point(replace(model, batch_inverse_metric_jet=None), P)


def test_a_probe_whose_metric_raises_gets_a_one_sided_difference():
    from bridgeexit.model import DiffusionModel, inverse_metric_batch, inverse_metric_jet

    def sigma(z):
        # rank one on the strip 1 <= x <= 1 + 1e-6, a line thickened to the
        # width of one probe step
        s = np.array([[1.0 + 0.3 * z[1], 0.1], [0.0, 1.0 + 0.5 * z[0] ** 2]])
        if 1.0 <= z[0] <= 1.0 + 1e-6:
            s[1] = 0.0
        return s

    model = DiffusionModel(dim=2, drift=lambda z: np.zeros(2), sigma=sigma,
                           domain_test=lambda z: True)
    # the third midpoint lies 5e-7 before the strip, so its probe in +x
    # (step 1e-6) lands inside it and the batch of all probes raises
    near = np.array([[0.2, 0.0], [0.6, 0.2], [1.0 - 5e-7, 0.5], [1.0 - 5e-7, 0.6],
                     [0.6, 0.9], [0.2, 1.1]])
    far = near - [0.5, 0.0]
    mid = 0.5 * (near[2] + near[3])
    with pytest.raises(NotSPD):
        inverse_metric_batch(model, (mid + [1e-6, 0.0])[None])
    A, dA, _ = inverse_metric_jet(model, mid[None])
    A_dn = inverse_metric_batch(model, (mid - [1e-6, 0.0])[None])
    assert dA[0, 0].tobytes() == ((A[0] - A_dn[0]) / 1e-6).tobytes()
    g = _assert_jet_is_per_point(model, np.stack([near, far]))
    assert np.isfinite(g).all()


# ---- stacks of paths ---- #


def _stacked_and_alone(model, P, tol, max_iter):
    """_minimize_level on the stack, checked leg by leg against each leg
    minimized alone: every output keeps its bits."""
    from bridgeexit.geodesic import _minimize_level

    stacked = _minimize_level(model, P, np.asarray(tol, dtype=float), max_iter)
    for k in range(len(P)):
        alone = _minimize_level(model, P[k:k + 1], np.asarray(tol[k:k + 1], dtype=float),
                                max_iter)
        for a, b in zip(stacked, alone):
            assert a[k:k + 1].tobytes() == b.tobytes()
    return stacked


def test_a_stack_does_not_change_a_leg():
    base = hull_white_model(sigma_vol=1.2, rho=0.3)
    x, y = np.array([1.0, 0.2]), np.array([2.0, 0.5])
    # with the exact metric jet (Newton steps), and on a copy without it
    # (finite differences, Gauss-Newton steps); legs run with tolerance 0
    # stall at gradient sup-norms up to 5e-9 with the jet and 1e-9 without,
    # so the leg that must converge first has a tolerance above that floor
    tol = 1e-8
    for model in (base, replace(base, batch_inverse_metric_jet=None)):
        rng = np.random.default_rng(3)
        converged = solve_geodesic(model, x, y, SolverOptions(n=30)).path.points
        P = np.stack([converged, wiggly_path(rng, x, y, n=30, amp=0.1).points,
                      wiggly_path(rng, x, y + 0.3, n=30, amp=0.2).points])

        # a leg that stalls at its floor while the others continue
        _, _, _, iters, stalled = _stacked_and_alone(model, P, [0.0, tol, 0.0], 200)
        assert stalled[0] and not stalled[1]
        assert iters[0] < iters[1] < iters[2]

        # legs that run out of budget next to one that starts converged
        _, _, gsup, iters, stalled = _stacked_and_alone(model, P, [1.0, 0.0, 0.0], 3)
        assert list(iters) == [0, 3, 3]
        assert not stalled.any() and (gsup[1:] > 0.0).all()


def test_a_stack_whose_metric_batch_raises_falls_back_leg_by_leg():
    from bridgeexit.model import grid_model

    xs = np.linspace(0.0, 4.0, 13)
    vs = np.linspace(0.02, 3.0, 13)
    entries = np.zeros((13, 13, 2, 2))
    entries[..., 0, 0] = vs[None, :]
    entries[..., 1, 1] = vs[None, :]
    grid = grid_model(xs, vs, entries)
    raised = []

    def hook(pts):
        # not positive definite on the strip 3.9 < x < 3.95 inside the box
        if ((3.9 < pts[:, 0]) & (pts[:, 0] < 3.95)).any():
            raised.append(len(pts))
            raise NotSPD("strip")
        return grid.batch_inverse_metric(pts)

    # without the jet, the gradient probes the metric hook
    model = replace(grid, batch_inverse_metric=hook, batch_inverse_metric_jet=None)
    rng = np.random.default_rng(8)
    n = 25
    edge = 4.0 - 5e-8
    P = np.stack([
        wiggly_path(rng, np.array([0.5, 0.4]), np.array([3.2, 2.1]), n=n).points,
        # midpoints 2e-6 before the strip: their probes in +x land in it
        np.linspace([3.9 - 2e-6, 0.3], [3.9 - 2e-6, 2.9], n + 1),
        # midpoints within 1e-7 of the right and the bottom edge of the box:
        # their probes leave it
        np.linspace([edge, 0.3], [edge, 2.9], n + 1),
        np.linspace([0.5, 0.02 + 5e-8], [3.5, 0.02 + 5e-8], n + 1),
        wiggly_path(rng, np.array([1.0, 0.2]), np.array([2.5, 0.9]), n=n).points,
    ])
    _, E, _, iters, _ = _stacked_and_alone(model, P, [1e-9] * 5, 100)
    assert np.isfinite(E).all() and (iters > 0).all()
    # the batch of the whole stack raised, more points than any 4 legs hold
    # (5 n each: n midpoints, 4 n probes)
    assert max(raised) > 4 * 5 * n


def test_cold_and_warm_legs_solve_together_as_alone():
    from bridgeexit.geodesic import _solve_legs

    rng = np.random.default_rng(4)
    model = hull_white_model(sigma_vol=0.8, rho=-0.2)
    opts = SolverOptions(n=60, strict=False)
    X = np.array([[1.0, 0.2], [0.0, 1.0], [1.0, 0.2], [-1.0, 0.5]])
    Y = np.array([[2.0, 0.5], [1.5, 0.3], [2.5, 0.9], [0.5, 2.0]])
    inits = [None, wiggly_path(rng, X[1], Y[1], n=60).points, None,
             wiggly_path(rng, X[3], Y[3], n=40).points]
    stacked = _solve_legs(model, X, Y, opts, inits)
    for k in range(4):
        alone = _solve_legs(model, X[k:k + 1], Y[k:k + 1], opts, inits[k:k + 1])
        for a, b in zip(stacked, alone):
            assert a[k:k + 1].tobytes() == b.tobytes()
    # the stack at K = 1 is what solve_geodesic reports
    res = solve_geodesic(model, X[0], Y[0], opts)
    assert res.energy == stacked[1][0]
    assert res.path.points.tobytes() == stacked[0][0].tobytes()


def test_newton_gauss_newton_and_steepest_legs_share_a_round(monkeypatch):
    import bridgeexit.geodesic as geodesic

    base = hull_white_model(sigma_vol=1.2, rho=0.3)
    flip = np.array([[-1.0, 1.0], [1.0, 1.0]])

    def inv(pts):
        # past x = 5 the hook is indefinite: no Cholesky factors a Hessian
        # there, and the leg takes steepest descent
        A = base.batch_inverse_metric(pts)
        return np.where((pts[:, 0] > 5.0)[:, None, None], A * flip, A)

    def jet(pts):
        # past x = 3 the jet has no usable second order: Gauss-Newton
        _, dA, d2A = base.batch_inverse_metric_jet(pts)
        dA = np.where((pts[:, 0] > 5.0)[:, None, None, None], dA * flip, dA)
        return inv(pts), dA, np.where((pts[:, 0] > 3.0)[:, None, None, None, None], np.nan, d2A)

    model = replace(base, batch_inverse_metric=inv, batch_inverse_metric_jet=jet)
    rng = np.random.default_rng(9)
    n = 20
    x, y = np.array([1.0, 0.2]), np.array([2.0, 0.5])
    near = solve_geodesic(base, x, y, SolverOptions(n=n)).path.points
    near[1:-1] += 1e-3 * rng.standard_normal((n - 1, 2))
    P = np.stack([near,
                  wiggly_path(rng, np.array([3.5, 0.4]), np.array([4.5, 0.6]), n=n).points,
                  wiggly_path(rng, np.array([6.0, 0.4]), np.array([7.0, 0.6]), n=n).points])
    usable = []
    band_solve = geodesic._band_solve

    def spy(D, U, g):
        p, ok = band_solve(D, U, g)
        usable.append(ok.tolist())
        return p, ok

    monkeypatch.setattr(geodesic, "_band_solve", spy)
    _, E, _, iters, _ = geodesic._minimize_level(model, P, np.full(3, 1e-9), 1)
    # the first round: Newton for all three, then Gauss-Newton for the two
    # it failed, which fails the third
    assert usable[:2] == [[True, False, False], [True, False]]
    assert (iters == 1).all() and np.isfinite(E).all()
    _stacked_and_alone(model, P, [1e-9] * 3, 4)
