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
midpoints in one call, and the grid and volatility models a jet
(batch_metric_jet): the inverse A = a^{-1} with the exact first and second
derivatives of the diffusion matrix a itself, which is what they are
simplest in.  Custom callback models work without them, just slower.
metric_jet is where the optimizer's energy gradient and Hessian get the
derivatives: the model's jet, or, for a model without one, finite
differences of its inverse metric converted once to derivatives of a, to
the first order only.
grid_model evaluates its bilinear interpolant directly on the lattice
arrays, bit for bit as scipy's linear RegularGridInterpolator would.  This
module imports numpy alone: inverses are numpy's, checked positive
definite by a numpy Cholesky factorization.
"""

from __future__ import annotations

import math
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
    """The model's metric is the correlated log-price/volatility geometry.

    b and mu are the model's drift parameters, carried for the path sampler;
    the metric does not depend on them.
    """

    sigma_vol: float
    rho: float
    b: float = 0.0
    mu: float = 0.0


@dataclass(frozen=True)
class ConstantGeometry:
    """The model's coefficients are state independent."""

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
    domain.  geometry, when given, is the closed form that exits._oracle
    builds distances, reflections and geodesics from; the batch_* hooks
    are optional vectorized versions of the pointwise fields.

    batch_metric_jet, also optional, maps points (n, d) to (A, da, d2a):
    A is bitwise batch_inverse_metric(pts), shape (n, d, d), da[:, k],
    shape (n, d, d), is the exact derivative da/dz_k of the diffusion
    matrix a = A^{-1}, and d2a[:, k, l], shape (n, d, d), is its exact
    second derivative d2a/dz_k dz_l, or d2a is None for a jet of the first
    order.  metric_jet returns it, and takes finite differences of the
    metric hook for a model without one.  Each array, and the metric hook's
    output, may be a view in any memory layout; the built-in hooks and jets
    keep the point axis contiguous, which is the layout the energy, the
    gradient and the Hessian contract fastest.  The path optimizer takes
    Newton steps where it has d2a and Gauss-Newton steps where it does not.
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
    batch_metric_jet: Callable[
        [np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray | None]
    ] | None = field(default=None, repr=False)


def _check_point(model: DiffusionModel, z, name: str = "point") -> np.ndarray:
    """z as a float array: a finite point of the model's dimension inside
    its domain (ValueError, or OutsideDomain, if not)."""
    z = np.asarray(z, dtype=float)
    if z.shape != (model.dim,):
        raise ValueError(f"{name} must be a point of dimension {model.dim}, got shape {z.shape}")
    # in Python floats: np.isfinite would cost more than the rest of the
    # check, which closed-form queries pay on every call
    if not all(map(math.isfinite, z.flat)):
        raise ValueError(f"{name} = {z} must be finite")
    if not model.domain_test(z):
        raise OutsideDomain(f"{name} = {z} is outside the model domain")
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


def metric_jet(model: DiffusionModel, pts: np.ndarray):
    """(A, da, d2a) at each row of pts: A is inverse_metric_batch(pts),
    shape (n, d, d), da[:, k], shape (n, d, d), is the derivative da/dz_k
    of a = A^{-1}, and d2a[:, k, l] is d2a/dz_k dz_l, or None.

    A model's batch_metric_jet gives the exact derivatives, and d2a where
    it has a second order.  For a model without one, d2a is None and da is
    -a dA_k a, dA_k the central difference of the metric hook with step
    FD_STEP_SCALE times the point's coordinate scale.  A probe outside the
    domain is left out: one probe out gives a one-sided difference, both
    out give zero.  The points and their probes go through one batch call;
    when it raises, the probes are evaluated one at a time, and a probe
    whose metric raises is left out too.  Each row gets the bits it gets
    alone.  As in inverse_metric_batch, pts itself is not gated.
    """
    pts = np.asarray(pts, dtype=float)
    if model.batch_metric_jet is not None:
        return model.batch_metric_jet(pts)
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
    a = np.linalg.inv(A)[:, None]
    return A, -(a @ dA.transpose(1, 0, 2, 3) @ a), None


def _inv_2x2(a00, a01, a11, what: str):
    """Analytic SPD inverse of symmetric 2x2 matrices given by their entry
    arrays, shape (n,): the inverses component by component, shape
    (2, 2, n)."""
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
    return inv


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
    # C's entries divide by sigma_vol^2 (1 - rho^2): in Python floats, where
    # an overflow is a silent inf, it and its reciprocal must be finite and
    # nonzero
    den = float(sigma_vol) * float(sigma_vol) * (1.0 - float(rho) * float(rho))
    if not 0.0 < den < math.inf or 1.0 / den == math.inf:
        raise ValueError(
            f"sigma_vol = {sigma_vol} is out of range: sigma_vol^2 (1 - rho^2) = {den} "
            "leaves the float range")
    rb = np.sqrt(1.0 - rho * rho)
    cmat = np.array([[sigma_vol**2, -rho * sigma_vol], [-rho * sigma_vol, 1.0]])
    cmat /= sigma_vol**2 * (1.0 - rho * rho)
    # a = v^2 C^{-1}
    amat = np.array([[1.0, rho * sigma_vol], [rho * sigma_vol, sigma_vol * sigma_vol]])

    def drift(z):
        return np.array([b - 0.5 * z[1] ** 2, mu * z[1]])

    def sigma(z):
        v = z[1]
        return np.array([[v * rho, v * rb], [sigma_vol * v, 0.0]])

    def batch_inv(pts):
        v = pts[:, 1]
        return (cmat[:, :, None] / (v * v)).transpose(2, 0, 1)

    def batch_jet(pts):
        # a = v^2 C^{-1} does not depend on xi, da/dv = 2 v C^{-1} and
        # d2a/dv2 = 2 C^{-1}; component by component, the point axis last
        v = pts[:, 1]
        A = cmat[:, :, None] / (v * v)
        da = np.zeros((2,) + A.shape)
        np.multiply(amat[:, :, None], 2.0 * v, out=da[1])
        d2a = np.zeros((2, 2) + A.shape)
        d2a[1, 1] = 2.0 * amat[:, :, None]
        return A.transpose(2, 0, 1), da.transpose(3, 0, 1, 2), d2a.transpose(4, 0, 1, 2, 3)

    return DiffusionModel(
        dim=2,
        drift=drift,
        sigma=sigma,
        domain_test=lambda z: z[1] > 0.0,
        complete=True,
        geometry=HullWhiteGeometry(float(sigma_vol), float(rho), float(b), float(mu)),
        batch_inverse_metric=batch_inv,
        batch_domain_test=lambda pts: pts[:, 1] > 0.0,
        batch_metric_jet=batch_jet,
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

    def batch_inv(pts):
        return _inv_2x2(*gram(interp(pts)), "grid model").transpose(2, 0, 1)

    def batch_jet(pts):
        # component by component, the point axis last, both directions at
        # once: da_k = ds_k s^T + s ds_k^T and d2a_kl = ds_k ds_l^T +
        # ds_l ds_k^T, plus s T^T + T s^T for k != l, T = d2s/dx dv; each
        # a product and its transpose, so symmetric bit for bit
        s, ds, T = interp(pts, jet=True)
        A = _inv_2x2(*gram(s), "grid model")
        M = np.einsum("kipn,jpn->kijn", ds, s)
        da = M + M.transpose(0, 2, 1, 3)
        N = np.einsum("kipn,ljpn->klijn", ds, ds)
        d2a = N + N.transpose(1, 0, 2, 3, 4)
        S = np.einsum("ipn,jpn->ijn", s, T)
        S = S + S.transpose(1, 0, 2)
        d2a[0, 1] += S
        d2a[1, 0] += S
        return A.transpose(2, 0, 1), da.transpose(3, 0, 1, 2), d2a.transpose(4, 0, 1, 2, 3)

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
        batch_metric_jet=batch_jet,
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
