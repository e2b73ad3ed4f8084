"""Diffusion models and the Riemannian structure their coefficients induce.

A model is its state dimension, a drift field, a diffusion field sigma, a
domain membership test, and a completeness declaration.  Everything geometric
derives from a(z) = sigma(z) sigma(z)^T alone: the drift never enters any
distance, geodesic, or exit exponent computed here (tests pin that down to
bitwise identity).  The completeness flag is a declaration by the model
author that the metric boundary lies at infinite distance; exit exponents
are only meaningful when it holds, and the exit module refuses models that
declare complete=False.  Nothing here verifies the declaration.

Built-in models expose optional vectorized hooks (batch_inverse_metric,
batch_domain_test) that the path optimizer uses to evaluate a whole path's
midpoints in one call, and the grid and volatility models the exact first
and second derivatives of the inverse metric (batch_inverse_metric_jet).
Custom callback models work without them, just slower.  inverse_metric_jet
is where the optimizer's energy gradient and Hessian get the metric's
derivatives: the model's jet, or finite differences of the metric, to the
first order only, for a model without one.
grid_model evaluates its bilinear interpolant directly on the lattice
arrays, bit for bit as scipy's linear RegularGridInterpolator would.  This
module imports numpy alone: inverses are numpy's, checked positive
definite by a numpy Cholesky factorization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Callable

import numpy as np

from .errors import DegenerateCorrelation, NotSPD, OutsideDomain

# Step of the central difference of a^{-1} for a model without a metric jet,
# relative to the point's coordinate scale.
FD_STEP_SCALE = 1e-6

__all__ = [
    "DiffusionModel",
    "HullWhiteGeometry",
    "ConstantGeometry",
    "diffusion_matrix",
    "inverse_metric",
    "inverse_metric_batch",
    "domain_test_batch",
    "constant_model",
    "hull_white_model",
    "grid_model",
    "grid_model_from_csv",
]


@dataclass(frozen=True)
class HullWhiteGeometry:
    """Tag: the model's metric is the correlated log-price/volatility geometry.

    b and mu are the model's drift parameters, carried for the path sampler;
    the metric does not depend on them.
    """

    sigma_vol: float
    rho: float
    b: float = 0.0
    mu: float = 0.0


@dataclass(frozen=True)
class ConstantGeometry:
    """Tag: the model's coefficients are state independent."""

    inv_metric: np.ndarray

    @cached_property
    def whitening(self) -> tuple[np.ndarray, np.ndarray]:
        """(W, W^{-1}), W the symmetric square root of inv_metric: distances
        are |W (q - p)|.  Computed once per geometry."""
        w, V = np.linalg.eigh(self.inv_metric)
        if np.any(w <= 0.0):
            raise NotSPD("metric is not positive definite")
        s = np.sqrt(w)
        return (V * s) @ V.T, (V / s) @ V.T


@dataclass(frozen=True)
class DiffusionModel:
    """Immutable bundle of coefficient callbacks.

    drift and sigma map a state vector to a vector / d x m matrix; both must
    be pure.  domain_test returns True iff the state is inside the open
    domain.  geometry is an optional closed-form tag used for dispatch; the
    batch_* hooks are optional vectorized versions of the pointwise fields.

    batch_inverse_metric_jet, also optional, maps points (n, d) to
    (A, dA, d2A): A is bitwise batch_inverse_metric(pts), shape (n, d, d),
    dA[:, k], shape (n, d, d), is the exact derivative dA/dz_k, and
    d2A[:, k, l], shape (n, d, d), is the exact second derivative
    d2A/dz_k dz_l, or d2A is None for a jet of the first order.
    inverse_metric_jet returns it, and takes finite differences of the
    metric hook for a model without one.  Each array, and the metric hook's
    output, may be a view in any memory layout; the built-in hooks and jets
    keep the point axis contiguous, which is the layout the energy, the
    gradient and the Hessian contract fastest.  The path
    optimizer takes Newton steps where it has d2A and Gauss-Newton steps
    where it does not.
    """

    dim: int
    drift: Callable[[np.ndarray], np.ndarray]
    sigma: Callable[[np.ndarray], np.ndarray]
    domain_test: Callable[[np.ndarray], bool]
    complete: bool = True
    geometry: HullWhiteGeometry | ConstantGeometry | None = None
    batch_inverse_metric: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False
    )
    batch_domain_test: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False
    )
    batch_inverse_metric_jet: Callable[
        [np.ndarray], tuple[np.ndarray, np.ndarray]
    ] | None = field(default=None, repr=False)


def _check_point(model: DiffusionModel, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape != (model.dim,):
        raise ValueError(f"expected a point of dimension {model.dim}, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("point must be finite")
    if not model.domain_test(z):
        raise OutsideDomain(f"point {z} is outside the model domain")
    return z


def diffusion_matrix(model: DiffusionModel, z) -> np.ndarray:
    """a(z) = sigma(z) sigma(z)^T, checked symmetric positive definite."""
    z = _check_point(model, z)
    s = np.asarray(model.sigma(z), dtype=float)
    if s.ndim != 2 or s.shape[0] != model.dim:
        raise ValueError(f"sigma(z) must be a {model.dim} x m matrix, got {s.shape}")
    a = s @ s.T
    a = 0.5 * (a + a.T)
    if not _is_spd(a):
        raise NotSPD(f"diffusion matrix at {z} is not positive definite")
    return a


def _is_spd(a: np.ndarray) -> bool:
    """Whether a, one matrix or a stack, is finite and passes a Cholesky
    factorization (numpy's lets NaN through)."""
    if not np.isfinite(a).all():
        return False
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def inverse_metric(model: DiffusionModel, z) -> np.ndarray:
    """a(z)^{-1}, symmetrized against roundoff."""
    inv = np.linalg.inv(diffusion_matrix(model, z))
    return 0.5 * (inv + inv.T)


def inverse_metric_batch(model: DiffusionModel, pts: np.ndarray) -> np.ndarray:
    """a^{-1} at each row of pts, shape (n, d, d).

    Domain membership is NOT checked here; callers gate on domain_test_batch
    first (the optimizer wants out-of-domain trial steps to read as infinite
    energy, not as an exception).
    """
    pts = np.asarray(pts, dtype=float)
    if model.batch_inverse_metric is not None:
        return model.batch_inverse_metric(pts)
    if not len(pts):
        return np.empty((0, model.dim, model.dim))
    s = np.stack([np.asarray(model.sigma(z), dtype=float) for z in pts])
    a = s @ s.swapaxes(1, 2)
    a = 0.5 * (a + a.swapaxes(1, 2))
    if not _is_spd(a):
        raise NotSPD(f"diffusion matrix is not positive definite at one of {len(pts)} points")
    inv = np.linalg.inv(a)
    return 0.5 * (inv + inv.swapaxes(1, 2))


def domain_test_batch(model: DiffusionModel, pts: np.ndarray) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    if model.batch_domain_test is not None:
        return np.asarray(model.batch_domain_test(pts), dtype=bool)
    return np.fromiter((bool(model.domain_test(z)) for z in pts), dtype=bool,
                       count=pts.shape[0])


def inverse_metric_jet(model: DiffusionModel, pts: np.ndarray):
    """(A, dA, d2A) at each row of pts: A is inverse_metric_batch(pts),
    shape (n, d, d), dA[:, k], shape (n, d, d), is dA/dz_k, and d2A[:, k, l]
    is d2A/dz_k dz_l, or None.

    A model's batch_inverse_metric_jet gives the exact derivatives, and
    d2A where it has a second order.  For a model without one, d2A is None
    and dA is the central difference of the metric hook with
    step FD_STEP_SCALE times the point's coordinate scale.  A probe outside
    the domain is left out: one probe out gives a one-sided difference, both
    out give zero.  The points and their probes go through one batch call;
    when it raises, the probes are evaluated one at a time, and a probe
    whose metric raises is left out too.  Each row gets the bits it gets
    alone.  As in inverse_metric_batch, pts itself is not gated.
    """
    pts = np.asarray(pts, dtype=float)
    if model.batch_inverse_metric_jet is not None:
        return model.batch_inverse_metric_jet(pts)
    n, d = pts.shape
    # column by column: numpy's max over a short last axis is ten times slower
    h = FD_STEP_SCALE * reduce(np.maximum, np.abs(pts).T, 1.0)
    # probes[k, 0] and probes[k, 1] are pts shifted by +h and -h along z_k
    probes = np.broadcast_to(pts, (d, 2, n, d)).copy()
    for k in range(d):
        probes[k, 0, :, k] += h
        probes[k, 1, :, k] -= h
    ok = domain_test_batch(model, probes.reshape(-1, d)).reshape(d, 2, n)
    # a probe left out is taken at its point, where the metric is A
    np.copyto(probes, pts, where=~ok[..., None])
    try:
        M = inverse_metric_batch(model, np.concatenate([pts, probes.reshape(-1, d)]))
        A, Q = M[:n], M[n:].reshape(d, 2, n, d, d)
    except (NotSPD, ValueError):
        A = inverse_metric_batch(model, pts)
        Q = np.broadcast_to(A, (d, 2, n, d, d)).copy()
        for idx in zip(*np.nonzero(ok)):
            try:
                Q[idx] = inverse_metric_batch(model, probes[idx][None])[0]
            except (NotSPD, ValueError):
                ok[idx] = False
    # the difference over the span of the probes kept: 2h, h, or h where
    # both are left out and the difference is zero
    span = h * np.maximum(ok.sum(axis=1), 1)
    dA = (Q[:, 0] - Q[:, 1]) / span[..., None, None]
    return A, dA.transpose(1, 0, 2, 3), None


def _inv_2x2(a00, a01, a11, what: str):
    """Analytic SPD inverse of symmetric 2x2 matrices given by their entry
    arrays, shape (n,).  Returns the inverses component by component,
    shape (2, 2, n), and the determinants."""
    det = a00 * a11 - a01 * a01
    ok = (a00 > 0) & (det > 0)
    if not ok.all():
        raise NotSPD(f"{what}: diffusion matrix is not positive definite at "
                     f"{np.count_nonzero(~ok)} of {len(a00)} points")
    inv = np.empty((2, 2) + a00.shape)
    np.divide(a11, det, out=inv[0, 0])
    np.divide(a00, det, out=inv[1, 1])
    # a10 has the bits of a01, so this is -0.5 (a01 + a10) / det
    np.divide(-0.5 * (a01 + a01), det, out=inv[0, 1])
    inv[1, 0] = inv[0, 1]
    return inv, det


# ---- Built-in models ---- #


def constant_model(sigma, complete: bool = True) -> DiffusionModel:
    """Model with state-independent diffusion matrix and zero drift."""
    s = np.atleast_2d(np.asarray(sigma, dtype=float))
    d = s.shape[0]
    a = s @ s.T
    a = 0.5 * (a + a.T)
    if not _is_spd(a):
        raise NotSPD("constant sigma gives a singular diffusion matrix")
    inv = np.linalg.inv(a)
    inv = 0.5 * (inv + inv.T)
    zero = np.zeros(d)
    return DiffusionModel(
        dim=d,
        drift=lambda z: zero,
        sigma=lambda z: s,
        domain_test=lambda z: True,
        complete=complete,
        geometry=ConstantGeometry(inv),
        batch_inverse_metric=lambda pts: np.broadcast_to(
            inv, (pts.shape[0], d, d)
        ).copy(),
        batch_domain_test=lambda pts: np.ones(pts.shape[0], dtype=bool),
    )


def hull_white_model(
    b: float = 0.0, mu: float = 0.0, sigma_vol: float = 1.0, rho: float = 0.0
) -> DiffusionModel:
    """Log-price with lognormal stochastic volatility on R x R_+.

    State z = (xi, v).  dxi = (b - v^2/2) dt + v rho dB1 + v rb dB2,
    dv = mu v dt + sigma_vol v dB1, rb = sqrt(1 - rho^2).  The induced
    a(z) = [[v^2, rho sigma_vol v^2], [rho sigma_vol v^2, sigma_vol^2 v^2]]
    has inverse C / v^2 with a constant matrix C; the metric boundary v = 0
    sits at infinite distance, so the model is complete.
    """
    if sigma_vol <= 0.0 or not np.isfinite(sigma_vol):
        raise ValueError(f"sigma_vol must be positive, got {sigma_vol}")
    if abs(rho) >= 1.0 or not np.isfinite(rho):
        raise DegenerateCorrelation(f"need |rho| < 1, got {rho}")
    rb = np.sqrt(1.0 - rho * rho)
    cmat = np.array([[sigma_vol**2, -rho * sigma_vol], [-rho * sigma_vol, 1.0]])
    cmat /= sigma_vol**2 * (1.0 - rho * rho)

    def drift(z):
        return np.array([b - 0.5 * z[1] ** 2, mu * z[1]])

    def sigma(z):
        v = z[1]
        return np.array([[v * rho, v * rb], [sigma_vol * v, 0.0]])

    def batch_inv(pts):
        v = pts[:, 1]
        return (cmat[:, :, None] / (v * v)).transpose(2, 0, 1)

    def batch_inv_jet(pts):
        # A = C / v^2 does not depend on xi, dA/dv = -2 A / v and
        # d2A/dv2 = 6 A / v^2; component by component, the point axis last
        v = pts[:, 1]
        v2 = v * v
        A = cmat[:, :, None] / v2
        dA = np.zeros((2,) + A.shape)
        np.divide(-2.0 * A, v, out=dA[1])
        d2A = np.zeros((2, 2) + A.shape)
        np.divide(6.0 * A, v2, out=d2A[1, 1])
        return A.transpose(2, 0, 1), dA.transpose(3, 0, 1, 2), d2A.transpose(4, 0, 1, 2, 3)

    return DiffusionModel(
        dim=2,
        drift=drift,
        sigma=sigma,
        domain_test=lambda z: z[1] > 0.0,
        complete=True,
        geometry=HullWhiteGeometry(float(sigma_vol), float(rho), float(b), float(mu)),
        batch_inverse_metric=batch_inv,
        batch_domain_test=lambda pts: pts[:, 1] > 0.0,
        batch_inverse_metric_jet=batch_inv_jet,
    )


def _bilinear(x_nodes: np.ndarray, v_nodes: np.ndarray, entries: np.ndarray):
    """Vectorized bilinear interpolation of entries over the (x, v) lattice.

    evaluate(pts) maps pts (n, 2) to the interpolant component by component,
    shape entries.shape[2:] + (n,); evaluate(pts, jet=True) also returns its
    partial derivatives d/dx and d/dv, stacked on a leading axis of 2, and
    its one second derivative d2/dx dv (d2/dx2 and d2/dv2 vanish).  The
    four corner terms are added to 0.0 in the order (1-tx)(1-tv), (1-tx)tv,
    tx(1-tv), tx tv, and a point on the last node uses the last cell with
    weight 1, so the values match scipy's linear RegularGridInterpolator bit
    for bit; the derivatives are those of the cell the point falls in.  A
    point outside the closed box raises ValueError.
    """
    x_lo, x_hi, v_lo, v_hi = x_nodes[0], x_nodes[-1], v_nodes[0], v_nodes[-1]
    nx, nv = len(x_nodes), len(v_nodes)
    shape = entries.shape[2:]
    dx, dv = np.diff(x_nodes)[:, None], np.diff(v_nodes)[None, :]
    f = entries.reshape(nx, nv, -1).transpose(2, 0, 1)
    c00, c01, c10, c11 = f[:, :-1, :-1], f[:, :-1, 1:], f[:, 1:, :-1], f[:, 1:, 1:]
    twist = c11 - c01 - c10 + c00

    def per_cell(*rows):
        # One column per cell, so that one take gathers the rows at every
        # point's cell.  Tables stay at 8 rows for a 2 x 2 field: at 3200
        # points a 16-row gather cost 5 us a row against 3 us at 4 rows.
        rows = [np.broadcast_to(r, (1, nx - 1, nv - 1)) if r.ndim == 2 else r for r in rows]
        return np.concatenate(rows).reshape(-1, (nx - 1) * (nv - 1))

    # a cell's lower node and widths, its corners (x, v), (x, v+), (x+, v),
    # (x+, v+) component by component, and for the jet the slopes of
    # d/dx = gx + gxv tv and d/dv = gv + gvx tx
    geometry = per_cell(x_nodes[:-1, None], dx, v_nodes[None, :-1], dv)
    corners = per_cell(c00, c01), per_cell(c10, c11)
    slopes = per_cell((c10 - c00) / dx, twist / dx), per_cell((c01 - c00) / dv, twist / dv)
    # Cell index from the interior nodes alone: the last node lands in the
    # last cell, the first in the first.
    inner_x, inner_v = x_nodes[1:-1], v_nodes[1:-1]

    def evaluate(pts: np.ndarray, jet: bool = False):
        n = len(pts)
        px, pv = pts[:, 0], pts[:, 1]
        # column extremes, a third of the cost of a broadcast compare; a NaN
        # propagates into them and fails the test
        if not (x_lo <= px.min(initial=x_hi) and px.max(initial=x_lo) <= x_hi
                and v_lo <= pv.min(initial=v_hi) and pv.max(initial=v_lo) <= v_hi):
            raise ValueError("point outside the interpolation lattice")
        k = inner_x.searchsorted(px, side="right") * (nv - 1)
        k += inner_v.searchsorted(pv, side="right")
        x0, hx, v0, hv = geometry.take(k, axis=1)
        tx = px - x0
        tx /= hx
        tv = pv - v0
        tv /= hv
        sx, sv = 1 - tx, 1 - tv
        # the corner terms in place: c00 and c01, then c10 and c11 in the
        # same buffer (k is always in range; mode="clip" lets take write
        # into out directly)
        c = corners[0].take(k, axis=1)
        m = len(c) // 2
        c[:m] *= sx * sv
        c[m:] *= sx * tv
        out = 0.0 + c[:m]
        out += c[m:]
        corners[1].take(k, axis=1, out=c, mode="clip")
        c[:m] *= tx * sv
        c[m:] *= tx * tv
        out += c[:m]
        out += c[m:]
        out = out.reshape(shape + (n,))
        if not jet:
            return out
        ds = np.empty((2, m, n))
        slopes[0].take(k, axis=1, out=c, mode="clip")
        np.multiply(c[m:], tv, out=ds[0])
        ds[0] += c[:m]
        # d2/dx dv = twist / (dx dv), from the slope twist / dx at hand
        dxv = c[m:] / hv
        slopes[1].take(k, axis=1, out=c, mode="clip")
        np.multiply(c[m:], tx, out=ds[1])
        ds[1] += c[:m]
        return out, ds.reshape((2,) + out.shape), dxv.reshape(out.shape)

    return evaluate


def grid_model(x_nodes, v_nodes, entries, complete: bool = True) -> DiffusionModel:
    """Two-dimensional model with sigma bilinearly interpolated on a lattice.

    entries has shape (len(x_nodes), len(v_nodes), 2, 2) and holds sigma at
    each lattice node.  The domain is the closed bounding box of the nodes.
    Completeness cannot be inferred from samples, so the caller declares it.
    sigma, the metric hook and its jet share one interpolation kernel; the
    jet differentiates the interpolant of the cell each point falls in, to
    the second order.
    """
    x_nodes = np.asarray(x_nodes, dtype=float)
    v_nodes = np.asarray(v_nodes, dtype=float)
    entries = np.asarray(entries, dtype=float)
    if x_nodes.ndim != 1 or v_nodes.ndim != 1 or len(x_nodes) < 2 or len(v_nodes) < 2:
        raise ValueError("need at least a 2 x 2 lattice of sigma samples")
    if np.any(np.diff(x_nodes) <= 0) or np.any(np.diff(v_nodes) <= 0):
        raise ValueError("lattice nodes must be strictly increasing")
    if entries.shape != (len(x_nodes), len(v_nodes), 2, 2):
        raise ValueError(f"entries shape {entries.shape} does not match the lattice")
    if not np.all(np.isfinite(entries)):
        raise ValueError("sigma samples must be finite")

    interp = _bilinear(x_nodes, v_nodes, entries)
    lo = np.array([x_nodes[0], v_nodes[0]])
    hi = np.array([x_nodes[-1], v_nodes[-1]])

    def inside(z):
        return bool(np.all(z >= lo) and np.all(z <= hi))

    def batch_inside(pts):
        # column by column: all(axis=1) over two coordinates costs ten
        # times as much
        px, pv = pts[:, 0], pts[:, 1]
        return (px >= lo[0]) & (px <= hi[0]) & (pv >= lo[1]) & (pv <= hi[1])

    def sigma(z):
        return interp(np.asarray(z, dtype=float)[None, :])[..., 0]

    def gram(s):
        # a = s s^T entry by entry (a10 has the bits of a01): the bits of
        # einsum("nij,nkj->nik") at a fraction of its cost
        (s00, s01), (s10, s11) = s
        return s00 * s00 + s01 * s01, s00 * s10 + s01 * s11, s10 * s10 + s11 * s11

    def cross(s, t):
        # the entries of s t^T + t s^T
        (s00, s01), (s10, s11) = s
        (t00, t01), (t10, t11) = t
        return (2.0 * (s00 * t00 + s01 * t01), s00 * t10 + t00 * s10 + s01 * t11 + t01 * s11,
                2.0 * (s10 * t10 + s11 * t11))

    def mixed(a, b):
        # tr(adj(a) b) of symmetric a and b, the derivative of det along b
        return a[2] * b[0] - (a[1] + a[1]) * b[1] + a[0] * b[2]

    def batch_inv(pts):
        inv, _ = _inv_2x2(*gram(interp(pts)), "grid model")
        return inv.transpose(2, 0, 1)

    def batch_inv_jet(pts):
        # component by component, the point axis last, both directions at
        # once.  With da_k = ds_k s^T + s ds_k^T and t_k = tr(adj(a) da_k),
        # dA_k = -A da_k A = (adj(da_k) - A t_k) / det, and its derivative
        # d2A_kl = (adj(d2a_kl) - dA_k t_l - dA_l t_k
        #           - A (tr(adj(da_k) da_l) + tr(adj(a) d2a_kl))) / det,
        # where d2a_kl = ds_k ds_l^T + ds_l ds_k^T, plus s T^T + T s^T for
        # k != l, T = d2s/dx dv
        s, ds, T = interp(pts, jet=True)
        a = gram(s)
        A, det = _inv_2x2(*a, "grid model")
        ds = ds.transpose(1, 2, 0, 3)
        da = cross(s, ds)
        t = mixed(a, da)
        dA = np.empty((2,) + A.shape)
        np.divide(da[2] - A[0, 0] * t, det, out=dA[:, 0, 0])
        np.divide(da[1] + A[0, 1] * t, -det, out=dA[:, 0, 1])
        dA[:, 1, 0] = dA[:, 0, 1]
        np.divide(da[0] - A[1, 1] * t, det, out=dA[:, 1, 1])
        # the pairs (k, l) on two axes, by broadcasting
        d2a = cross(ds[:, :, :, None], ds[:, :, None])
        for e, f in zip(d2a, cross(s, T)):
            e[0, 1] += f
            e[1, 0] += f
        c = mixed([e[:, None] for e in da], [e[None] for e in da]) + mixed(a, d2a)
        d2A = np.empty((2, 2) + c.shape)
        for (i, j), adj in (((0, 0), d2a[2]), ((0, 1), -d2a[1]), ((1, 1), d2a[0])):
            e = adj - A[i, j] * c
            e -= dA[:, None, i, j] * t[None]
            e -= dA[None, :, i, j] * t[:, None]
            np.divide(e, det, out=d2A[i, j])
        # symmetric in (i, j) and, bit for bit, in (k, l)
        d2A[1, 0] = d2A[0, 1]
        d2A[:, :, 1, 0] = d2A[:, :, 0, 1]
        return A.transpose(2, 0, 1), dA.transpose(3, 0, 1, 2), d2A.transpose(4, 2, 3, 0, 1)

    zero = np.zeros(2)
    return DiffusionModel(
        dim=2,
        drift=lambda z: zero,
        sigma=sigma,
        domain_test=inside,
        complete=complete,
        geometry=None,
        batch_inverse_metric=batch_inv,
        batch_domain_test=batch_inside,
        batch_inverse_metric_jet=batch_inv_jet,
    )


def grid_model_from_csv(text: str, complete: bool = True) -> DiffusionModel:
    """Build a grid model from CSV with header x,v,s11,s12,s21,s22.

    Rows must cover a full rectangular lattice (any order).
    """
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0].replace(" ", "") != "x,v,s11,s12,s21,s22":
        raise ValueError("grid CSV must start with header 'x,v,s11,s12,s21,s22'")
    rows = []
    for ln in lines[1:]:
        cells = [float(c) for c in ln.split(",")]
        if len(cells) != 6:
            raise ValueError(f"grid CSV row has {len(cells)} cells, expected 6")
        rows.append(cells)
    data = np.asarray(rows, dtype=float)
    x_nodes = np.unique(data[:, 0])
    v_nodes = np.unique(data[:, 1])
    if len(x_nodes) * len(v_nodes) != len(rows):
        raise ValueError("grid CSV rows do not form a full rectangular lattice")
    entries = np.full((len(x_nodes), len(v_nodes), 2, 2), np.nan)
    xi = np.searchsorted(x_nodes, data[:, 0])
    vi = np.searchsorted(v_nodes, data[:, 1])
    entries[xi, vi] = data[:, 2:6].reshape(-1, 2, 2)
    if np.any(np.isnan(entries)):
        raise ValueError("grid CSV has duplicate or missing lattice nodes")
    return grid_model(x_nodes, v_nodes, entries, complete=complete)
