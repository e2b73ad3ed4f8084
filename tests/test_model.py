import numpy as np
import pytest

from bridgeexit import (
    ConstantGeometry,
    DegenerateCorrelation,
    HullWhiteGeometry,
    NotSPD,
    OutsideDomain,
    constant_model,
    diffusion_matrix,
    grid_model,
    grid_model_from_csv,
    hull_white_model,
    inverse_metric,
)
from bridgeexit.model import domain_test_batch, inverse_metric_batch

from conftest import random_half_plane_points


def random_models(seed=0):
    rng = np.random.default_rng(seed)
    out = [hull_white_model(), hull_white_model(sigma_vol=2.0, rho=-0.7),
           hull_white_model(b=0.3, mu=-0.1, sigma_vol=0.8, rho=0.4)]
    for _ in range(3):
        m = rng.standard_normal((2, 2))
        out.append(constant_model(m + 2.0 * np.eye(2)))
    return out


def test_diffusion_matrix_is_symmetric_on_random_states():
    rng = np.random.default_rng(1)
    for model in random_models():
        for z in random_half_plane_points(rng, 20):
            a = diffusion_matrix(model, z)
            assert np.abs(a - a.T).max() <= 1e-12 * np.abs(a).max()


def test_inverse_metric_inverts_the_diffusion_matrix():
    rng = np.random.default_rng(2)
    for model in random_models():
        for z in random_half_plane_points(rng, 20):
            prod = inverse_metric(model, z) @ diffusion_matrix(model, z)
            assert np.abs(prod - np.eye(model.dim)).max() <= 1e-10


def test_drift_does_not_enter_the_metric():
    quiet = hull_white_model(b=0.0, mu=0.0, sigma_vol=1.5, rho=0.3)
    loud = hull_white_model(b=7.0, mu=-4.0, sigma_vol=1.5, rho=0.3)
    rng = np.random.default_rng(3)
    for z in random_half_plane_points(rng, 50):
        a = inverse_metric(quiet, z)
        b = inverse_metric(loud, z)
        assert (a == b).all()


def test_volatility_metric_closed_form():
    # sigma_vol=2, rho=0 at v=1: a = diag(1, 4), inverse diag(1, 1/4)
    model = hull_white_model(sigma_vol=2.0, rho=0.0)
    z = np.array([0.3, 1.0])
    np.testing.assert_allclose(diffusion_matrix(model, z),
                               np.diag([1.0, 4.0]), atol=1e-14)
    np.testing.assert_allclose(inverse_metric(model, z),
                               np.diag([1.0, 0.25]), atol=1e-14)
    # the whole field is the v=1 matrix divided by v^2
    z2 = np.array([-1.0, 0.37])
    np.testing.assert_allclose(
        inverse_metric(model, z2) * 0.37**2,
        inverse_metric(model, z), rtol=1e-13,
    )


def test_correlated_inverse_metric_entries():
    sv, rho = 2.0, 0.5
    model = hull_white_model(sigma_vol=sv, rho=rho)
    v = 0.8
    got = inverse_metric(model, np.array([0.0, v]))
    expect = np.array([[sv**2, -rho * sv], [-rho * sv, 1.0]]) / (
        sv**2 * (1 - rho**2) * v**2
    )
    np.testing.assert_allclose(got, expect, rtol=1e-12)


def test_volatility_domain_is_the_open_upper_half_plane():
    model = hull_white_model()
    assert model.domain_test(np.array([5.0, 1e-9]))
    assert not model.domain_test(np.array([0.0, 0.0]))
    assert not model.domain_test(np.array([0.0, -1.0]))
    with pytest.raises(OutsideDomain):
        diffusion_matrix(model, np.array([0.0, -1.0]))


def test_volatility_parameter_validation():
    with pytest.raises(ValueError):
        hull_white_model(sigma_vol=0.0)
    with pytest.raises(ValueError):
        hull_white_model(sigma_vol=-2.0)
    with pytest.raises(DegenerateCorrelation):
        hull_white_model(rho=1.0)
    with pytest.raises(DegenerateCorrelation):
        hull_white_model(rho=-1.3)


def test_geometry_tags():
    assert isinstance(hull_white_model().geometry, HullWhiteGeometry)
    assert isinstance(constant_model(np.eye(2)).geometry, ConstantGeometry)


def test_constant_model_rejects_singular_sigma():
    with pytest.raises(NotSPD):
        constant_model(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_constant_model_matrices():
    s = np.array([[2.0, 0.0], [1.0, 1.0]])
    model = constant_model(s)
    a = s @ s.T
    z = np.array([9.0, -9.0])
    np.testing.assert_allclose(diffusion_matrix(model, z), a, rtol=1e-14)
    np.testing.assert_allclose(inverse_metric(model, z), np.linalg.inv(a),
                               rtol=1e-12)
    assert model.domain_test(z)


def test_incomplete_flag_is_carried():
    model = constant_model(np.eye(2), complete=False)
    assert model.complete is False


def test_batch_hooks_match_pointwise_evaluation():
    rng = np.random.default_rng(4)
    pts = random_half_plane_points(rng, 30)
    for model in random_models():
        batch = inverse_metric_batch(model, pts)
        # batch path may use the analytic form where pointwise factorizes,
        # so agreement is to rounding, not bitwise
        for k, z in enumerate(pts):
            np.testing.assert_allclose(batch[k], inverse_metric(model, z),
                                       rtol=1e-12, atol=0.0)
        mask = domain_test_batch(model, pts)
        assert mask.all()
    neg = pts.copy()
    neg[3, 1] = -1.0
    mask = domain_test_batch(hull_white_model(), neg)
    assert not mask[3] and mask.sum() == 29


def test_batch_fallback_without_hooks():
    base = hull_white_model()
    from dataclasses import replace

    stripped = replace(base, batch_inverse_metric=None, batch_domain_test=None)
    rng = np.random.default_rng(5)
    pts = random_half_plane_points(rng, 10)
    np.testing.assert_allclose(
        inverse_metric_batch(stripped, pts),
        inverse_metric_batch(base, pts), rtol=1e-13,
    )
    np.testing.assert_array_equal(
        domain_test_batch(stripped, pts), domain_test_batch(base, pts)
    )


# ---- gridded coefficient field ---- #


def sample_field(xs, vs):
    # smooth anisotropic field, SPD everywhere on the grid
    entries = np.zeros((len(xs), len(vs), 2, 2))
    for i, xx in enumerate(xs):
        for j, vv in enumerate(vs):
            entries[i, j] = np.array(
                [[1.0 + 0.1 * xx * xx, 0.2 * vv], [0.0, 0.5 + 0.3 * vv]]
            )
    return entries


def test_grid_model_reproduces_nodes_and_interpolates():
    xs = np.linspace(-1.0, 1.0, 5)
    vs = np.linspace(0.5, 2.0, 4)
    entries = sample_field(xs, vs)
    model = grid_model(xs, vs, entries)
    s = entries[2, 1]
    np.testing.assert_allclose(
        diffusion_matrix(model, np.array([xs[2], vs[1]])), s @ s.T, rtol=1e-12
    )
    # bilinear blend at a cell midpoint
    mid = np.array([0.5 * (xs[1] + xs[2]), 0.5 * (vs[2] + vs[3])])
    blend = 0.25 * (entries[1, 2] + entries[1, 3] + entries[2, 2] + entries[2, 3])
    np.testing.assert_allclose(
        diffusion_matrix(model, mid), blend @ blend.T, rtol=1e-12
    )
    # outside the rectangle is outside the domain
    assert not model.domain_test(np.array([5.0, 1.0]))
    assert model.geometry is None


def test_grid_model_csv_round_trip():
    xs = np.linspace(-1.0, 1.0, 3)
    vs = np.linspace(0.5, 1.5, 3)
    entries = sample_field(xs, vs)
    direct = grid_model(xs, vs, entries)
    lines = ["x,v,s11,s12,s21,s22"]
    for i, xx in enumerate(xs):
        for j, vv in enumerate(vs):
            s = entries[i, j]
            lines.append(
                f"{xx},{vv},{s[0,0]},{s[0,1]},{s[1,0]},{s[1,1]}"
            )
    parsed = grid_model_from_csv("\n".join(lines) + "\n")
    z = np.array([0.3, 0.9])
    np.testing.assert_allclose(
        diffusion_matrix(parsed, z), diffusion_matrix(direct, z), rtol=1e-12
    )


def test_grid_model_csv_rejects_ragged_grids():
    text = "x,v,s11,s12,s21,s22\n0,1,1,0,0,1\n1,2,1,0,0,1\n"
    with pytest.raises(ValueError):
        grid_model_from_csv(text)


def _lattice_probes(xs, vs, rng):
    inner = np.column_stack([rng.uniform(xs[0], xs[-1], 400),
                             rng.uniform(vs[0], vs[-1], 400)])
    X, V = np.meshgrid(xs, vs, indexing="ij")
    nodes = np.column_stack([X.ravel(), V.ravel()])
    k = 40
    edges = np.concatenate([
        np.column_stack([np.full(k, xs[0]), rng.uniform(vs[0], vs[-1], k)]),
        np.column_stack([np.full(k, xs[-1]), rng.uniform(vs[0], vs[-1], k)]),
        np.column_stack([rng.uniform(xs[0], xs[-1], k), np.full(k, vs[0])]),
        np.column_stack([rng.uniform(xs[0], xs[-1], k), np.full(k, vs[-1])]),
    ])
    return inner, nodes, edges


def test_grid_evaluator_matches_scipy_bit_for_bit():
    from scipy.interpolate import RegularGridInterpolator

    from bridgeexit.model import _bilinear

    rng = np.random.default_rng(5)
    xs = np.linspace(-1.0, 3.0, 9)
    vs = np.geomspace(0.02, 3.0, 7)
    for entries in (sample_field(xs, vs), rng.standard_normal((9, 7, 2, 2))):
        ours = _bilinear(xs, vs, entries)
        ref = RegularGridInterpolator((xs, vs), entries, method="linear",
                                      bounds_error=True)
        model = grid_model(xs, vs, entries)
        for pts in _lattice_probes(xs, vs, rng):
            # the kernel puts the point axis last
            assert np.moveaxis(ours(pts), -1, 0).tobytes() == ref(pts).tobytes()
            for z in pts[:25]:
                assert model.sigma(z).tobytes() == ref(z[None, :])[0].tobytes()
        for bad in ([xs[0] - 1e-12, 1.0], [xs[-1] + 1e-9, 1.0],
                    [0.5, vs[0] - 1e-12], [0.5, vs[-1] + 1e-9], [np.nan, 1.0]):
            for evaluate in (ours, ref, model.batch_inverse_metric):
                with pytest.raises(ValueError):
                    evaluate(np.array([bad]))


def test_grid_metric_hook_keeps_the_bits_of_the_einsum_product():
    from bridgeexit.model import _bilinear, _inv_2x2

    rng = np.random.default_rng(12)
    xs = np.linspace(-1.0, 3.0, 9)
    vs = np.geomspace(0.02, 3.0, 7)
    for entries in (sample_field(xs, vs), rng.standard_normal((9, 7, 2, 2))):
        interp = _bilinear(xs, vs, entries)
        hook = grid_model(xs, vs, entries).batch_inverse_metric
        for pts in _lattice_probes(xs, vs, rng):
            s = np.moveaxis(interp(pts), -1, 0)
            # a = s s^T as the model once formed it
            a = np.einsum("nij,nkj->nik", s, s)
            assert a[:, 0, 1].tobytes() == a[:, 1, 0].tobytes()
            want = _inv_2x2(a[:, 0, 0], a[:, 0, 1], a[:, 1, 1], "grid model")
            assert hook(pts).tobytes() == want.transpose(2, 0, 1).tobytes()


def _cell_interiors(xs, vs, rng, n=400):
    """Points at least a hundredth of a cell from every lattice line."""
    i = rng.integers(0, len(xs) - 1, n)
    j = rng.integers(0, len(vs) - 1, n)
    tx, tv = rng.uniform(0.01, 0.99, (2, n))
    return np.column_stack([xs[i] + tx * (xs[i + 1] - xs[i]),
                            vs[j] + tv * (vs[j + 1] - vs[j])])


def _diffusion(model, pts):
    """a = sigma sigma^T at each row of pts, from the model's sigma."""
    s = np.array([model.sigma(z) for z in pts])
    return s @ s.swapaxes(1, 2)


def test_grid_metric_jet_is_the_hook_and_differentiates_it():
    rng = np.random.default_rng(31)
    xs = np.linspace(-1.0, 3.0, 9)
    vs = np.geomspace(0.02, 3.0, 7)
    for entries in (sample_field(xs, vs), rng.standard_normal((9, 7, 2, 2))):
        model = grid_model(xs, vs, entries)
        for pts in _lattice_probes(xs, vs, rng):
            A, da, _ = model.batch_metric_jet(pts)
            assert A.tobytes() == model.batch_inverse_metric(pts).tobytes()
            assert da.shape == (len(pts), 2, 2, 2)
        with pytest.raises(ValueError):
            model.batch_metric_jet(np.array([[xs[-1] + 1e-9, 1.0]]))
    # central differences of a = sigma sigma^T inside cells, on
    # well-conditioned fields
    for entries in (sample_field(xs, vs),
                    2.0 * np.eye(2) + 0.3 * rng.standard_normal((9, 7, 2, 2))):
        model = grid_model(xs, vs, entries)
        pts = _cell_interiors(xs, vs, rng)
        A, da, _ = model.batch_metric_jet(pts)
        h = 1e-5 * np.array([xs[1] - xs[0], np.diff(vs).min()])
        for k in range(2):
            step = np.zeros(2)
            step[k] = h[k]
            fd = (_diffusion(model, pts + step) - _diffusion(model, pts - step)) / (2.0 * h[k])
            scale = np.abs(da[:, k]).max(axis=(1, 2))
            assert (np.abs(fd - da[:, k]).max(axis=(1, 2)) <= 1e-6 * scale).all()
            # symmetric, as a is
            assert da[:, k].tobytes() == da[:, k].swapaxes(1, 2).tobytes()


def _volatility_a0(sigma_vol, rho):
    """a / v^2 of the volatility model."""
    return np.array([[1.0, rho * sigma_vol], [rho * sigma_vol, sigma_vol * sigma_vol]])


def test_volatility_metric_jet_is_two_a_over_v():
    rng = np.random.default_rng(32)
    pts = random_half_plane_points(rng, 50)
    model = hull_white_model(sigma_vol=1.7, rho=-0.4)
    A, da, _ = model.batch_metric_jet(pts)
    assert A.tobytes() == model.batch_inverse_metric(pts).tobytes()
    assert (da[:, 0] == 0.0).all()
    v = pts[:, 1]
    assert da[:, 1].tobytes() == (_volatility_a0(1.7, -0.4) * (2.0 * v)[:, None, None]).tobytes()
    # the inverse of a = v^2 a0, to rounding
    a = v[:, None, None] ** 2 * _volatility_a0(1.7, -0.4)
    np.testing.assert_allclose(A @ a, np.broadcast_to(np.eye(2), a.shape), atol=1e-14)


def test_grid_metric_jet_second_order_differentiates_its_first():
    # d2a against central differences of the jet's own da, inside cells,
    # on the fields of the first-order test, one with a twist
    # T = d2 sigma / dx dv that is not zero
    rng = np.random.default_rng(33)
    xs = np.linspace(-1.0, 3.0, 9)
    vs = np.geomspace(0.02, 3.0, 7)
    for entries in (sample_field(xs, vs),
                    2.0 * np.eye(2) + 0.3 * rng.standard_normal((9, 7, 2, 2))):
        model = grid_model(xs, vs, entries)
        pts = _cell_interiors(xs, vs, rng)
        A, da, d2a = model.batch_metric_jet(pts)
        assert d2a.shape == (len(pts), 2, 2, 2, 2)
        h = 1e-5 * np.array([xs[1] - xs[0], np.diff(vs).min()])
        # at each point over every (k, l): a block of a field linear in v is
        # exactly 0, where the differences leave roundoff
        scale = np.abs(d2a).max(axis=(1, 2, 3, 4))
        for l in range(2):
            step = np.zeros(2)
            step[l] = h[l]
            fd = (model.batch_metric_jet(pts + step)[1]
                  - model.batch_metric_jet(pts - step)[1]) / (2.0 * h[l])
            for k in range(2):
                assert (np.abs(fd[:, k] - d2a[:, k, l]).max(axis=(1, 2)) <= 1e-6 * scale).all()
                # symmetric in the entries, as a is
                assert d2a[:, k, l].tobytes() == d2a[:, k, l].swapaxes(1, 2).tobytes()
        assert d2a[:, 0, 1].tobytes() == d2a[:, 1, 0].tobytes()


def test_volatility_metric_jet_second_order_is_two_a_over_v_squared():
    rng = np.random.default_rng(34)
    pts = random_half_plane_points(rng, 50)
    model = hull_white_model(sigma_vol=1.7, rho=-0.4)
    _, _, d2a = model.batch_metric_jet(pts)
    assert (d2a[:, 1, 1] == 2.0 * _volatility_a0(1.7, -0.4)).all()
    assert (d2a[:, 0] == 0.0).all() and (d2a[:, 1, 0] == 0.0).all()


def test_a_model_without_a_jet_has_no_second_order():
    from dataclasses import replace

    from bridgeexit.model import metric_jet

    model = replace(hull_white_model(sigma_vol=1.7, rho=-0.4), batch_metric_jet=None)
    pts = random_half_plane_points(np.random.default_rng(35), 5)
    A, da, d2a = metric_jet(model, pts)
    assert d2a is None and da.shape == (5, 2, 2, 2)
    # the differences of A, converted to the derivatives of a = v^2 a0
    assert A.tobytes() == model.batch_inverse_metric(pts).tobytes()
    want = _volatility_a0(1.7, -0.4) * (2.0 * pts[:, 1])[:, None, None]
    np.testing.assert_allclose(da[:, 1], want, rtol=1e-8, atol=1e-8 * np.abs(want).max())
    assert np.abs(da[:, 0]).max() <= 1e-8 * np.abs(want).max()
