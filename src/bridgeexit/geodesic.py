"""Geodesics by direct minimization of the discrete path energy.

A path p_0..p_N on the uniform grid s_i = i/N has energy

    E = (N/2) * sum_i <a(m_i)^{-1} (p_{i+1} - p_i), (p_{i+1} - p_i)>,

with m_i the segment midpoint.  The minimizer over interior points (endpoints
pinned) discretizes the geodesic between x and y, and the induced distance is
sqrt(2 E_min).  Minimization is a line-searched Gauss-Newton iteration: each
step solves the block-tridiagonal Hessian of the energy with the metric
frozen at the current midpoints (a banded SPD solve), backtracks under the
Armijo condition, and falls back to steepest descent when that direction is
unusable.  It runs coarse-to-fine: the straight chord is solved on a coarse
grid first and the result interpolated upward, which kills the slow
reparametrization modes cheaply.  Out-of-domain or non-SPD trial steps read
as infinite energy, so the line search doubles as a domain barrier.

The gradient is exact for the quadratic-form part; the derivative of
a(m)^{-1} enters through central finite differences of the inverse metric
with step 1e-6 times the local coordinate scale.  The midpoints and all 2d
probes are evaluated in one batch call; when a probe leaves the domain
(a box edge) the probes are evaluated one direction at a time instead, and
the failing directions use one-sided differences.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solveh_banded

from .errors import NoConvergence, NotSPD, OutsideDomain
from .model import (
    DiffusionModel,
    HullWhiteGeometry,
    domain_test_batch,
    inverse_metric_batch,
)
from .paths import DiscretePath

__all__ = [
    "SolverOptions",
    "GeodesicResult",
    "path_energy",
    "energy_gradient",
    "solve_geodesic",
    "geodesic_between",
    "distance",
    "refine",
]

# Step for the central difference of a^{-1} inside the gradient.
FD_STEP_SCALE = 1e-6
# Armijo parameters.
ARMIJO_C1 = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 80
# Coarsest level of the continuation.
COARSE_SEGMENTS = 25
# Consecutive sub-resolution energy decreases before declaring a stall.
STALL_WINDOW = 15


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the path optimizer.

    grad_tol None means grad_tol_rel times the initial chord energy at the
    target resolution.  floor, when given, clamps chord/perturbation initializations
    coordinatewise from below; for volatility-type models it defaults to
    1e-3 times the smaller endpoint volatility on the second coordinate.
    multi_start > 1 adds perturbed-chord restarts and records their spread.
    strict=False returns the best path found instead of raising NoConvergence
    when the iteration budget runs out; grad_sup in the result says how far
    the run got.
    """

    n: int = 200
    grad_tol: float | None = None
    grad_tol_rel: float = 1e-8
    max_iter: int = 5000
    floor: np.ndarray | None = None
    multi_start: int = 1
    coarse_init: bool = True
    strict: bool = True

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 segments")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.multi_start < 1:
            raise ValueError("multi_start must be >= 1")
        if not self.grad_tol_rel > 0.0:
            raise ValueError("grad_tol_rel must be positive")


@dataclass(frozen=True)
class GeodesicResult:
    path: DiscretePath
    distance: float
    energy: float
    grad_sup: float
    iterations: int
    stalled: bool
    segment_lengths: np.ndarray
    multistart_spread: float = 0.0


# ---- Energy and gradient ---- #


def _energy_of(model, pts) -> float:
    """Energy of the point array, +inf if any midpoint leaves the domain."""
    mids = 0.5 * (pts[:-1] + pts[1:])
    if not domain_test_batch(model, mids).all():
        return np.inf
    try:
        A = inverse_metric_batch(model, mids)
    except (NotSPD, ValueError):
        return np.inf
    deltas = np.diff(pts, axis=0)
    q = np.einsum("nij,ni,nj->n", A, deltas, deltas)
    if not np.all(np.isfinite(q)):
        return np.inf
    n = pts.shape[0] - 1
    return 0.5 * n * float(q.sum())


def _segment_q(model, pts) -> np.ndarray:
    A = inverse_metric_batch(model, 0.5 * (pts[:-1] + pts[1:]))
    return _q_form(A, np.diff(pts, axis=0))


def _gradient_of(model, pts) -> np.ndarray:
    return _grad_and_metric(model, pts)[0]


def _grad_and_metric(model, pts):
    """Gradient w.r.t. interior points plus the midpoint inverse metrics.

    The metrics are returned so the minimizer can reuse them for its
    Gauss-Newton model without a second batch evaluation.  Midpoints and
    all 2d central-difference probes go through one batch evaluation; only
    when a probe leaves the domain or meets a non-SPD matrix are they
    evaluated one probe set at a time, so that the failing directions fall
    back to one-sided differences.
    """
    n = pts.shape[0] - 1
    d = pts.shape[1]
    mids = 0.5 * (pts[:-1] + pts[1:])
    deltas = np.diff(pts, axis=0)
    h = FD_STEP_SCALE * np.maximum(1.0, np.abs(mids).max(axis=1))
    probes = []
    for k in range(d):
        shift = np.zeros(d)
        shift[k] = 1.0
        probes += [mids + h[:, None] * shift, mids - h[:, None] * shift]
    try:
        stack = inverse_metric_batch(model, np.concatenate([mids, *probes]))
    except (NotSPD, ValueError):
        A = inverse_metric_batch(model, mids)
        q = [_q_shifted(model, p, deltas) for p in probes]
    else:
        A = stack[:n]
        # all 2d probe forms in one einsum; per probe set it sums in the
        # same order as _q_form, bit for bit
        q = np.einsum("knij,ni,nj->kn", stack[n:].reshape(2 * d, n, d, d), deltas, deltas)
    Av = np.einsum("nij,nj->ni", A, deltas)
    g = n * (Av[:-1] - Av[1:])

    q0 = np.einsum("ni,ni->n", Av, deltas)
    dq = np.empty((n, d))
    for k in range(d):
        qp, qm = q[2 * k], q[2 * k + 1]
        if qp is None and qm is None:
            dq[:, k] = 0.0
        elif qp is None:
            dq[:, k] = (q0 - qm) / h
        elif qm is None:
            dq[:, k] = (qp - q0) / h
        else:
            dq[:, k] = (qp - qm) / (2.0 * h)
    g = g + 0.25 * n * (dq[:-1] + dq[1:])
    return g, A


def _q_form(A, deltas):
    return np.einsum("nij,ni,nj->n", A, deltas, deltas)


def _q_shifted(model, pts, deltas):
    # One-sided fallback when a tiny probe step leaves the domain (box edges).
    try:
        A = inverse_metric_batch(model, pts)
    except (NotSPD, ValueError):
        return None
    return _q_form(A, deltas)


def _check_path(model: DiffusionModel, path: DiscretePath) -> np.ndarray:
    pts = path.points
    if pts.shape[1] != model.dim:
        raise ValueError(f"path dimension {pts.shape[1]} != model dimension {model.dim}")
    mids = 0.5 * (pts[:-1] + pts[1:])
    for arr, what in ((pts, "point"), (mids, "midpoint")):
        ok = domain_test_batch(model, arr)
        if not ok.all():
            bad = arr[np.argmin(ok)]
            raise OutsideDomain(f"path {what} {bad} is outside the model domain")
    return pts


def path_energy(model: DiffusionModel, path: DiscretePath) -> float:
    """Discrete energy of a path whose points and midpoints lie in the domain."""
    pts = _check_path(model, path)
    A = inverse_metric_batch(model, 0.5 * (pts[:-1] + pts[1:]))
    deltas = np.diff(pts, axis=0)
    q = np.einsum("nij,ni,nj->n", A, deltas, deltas)
    return 0.5 * path.n_segments * float(q.sum())


def energy_gradient(model: DiffusionModel, path: DiscretePath) -> np.ndarray:
    """Energy gradient w.r.t. the interior points, shape (N-1, d)."""
    pts = _check_path(model, path)
    return _gradient_of(model, pts)


# ---- Minimization ---- #


def _alpha_cap(pts, p) -> float:
    span = float(np.ptp(pts, axis=0).max())
    sup = float(np.abs(p).max())
    if sup == 0.0:
        return np.inf
    return 0.25 * max(span, 1e-12) / sup


def _gn_direction(A, g, nseg):
    """Gauss-Newton step: solve the frozen-metric Hessian system H p = -g.

    H is the exact Hessian of the energy with the metric held fixed at the
    current midpoints: block tridiagonal, SPD, with diagonal blocks
    nseg (A[j] + A[j+1]) and couplings -nseg A[j].  The terms it drops
    (metric derivatives) are exactly the small ones near a geodesic, so the
    step behaves like Newton where it matters and the Armijo guard handles
    the rest.  Returns None when the banded solve fails.
    """
    m1, d = g.shape
    if m1 == 0:
        return None
    D = nseg * (A[:-1] + A[1:])
    u = 2 * d - 1
    m = m1 * d
    ab = np.zeros((u + 1, m))
    cols = np.arange(m1) * d
    for c in range(d):
        for cp in range(c, d):
            ab[u + c - cp, cols + cp] = D[:, c, cp]
    if m1 > 1:
        U = -nseg * A[1:m1]
        cols_off = (np.arange(m1 - 1) + 1) * d
        for c in range(d):
            for cp in range(d):
                ab[u + c - cp - d, cols_off + cp] = U[:, c, cp]
    try:
        sol = solveh_banded(ab, -g.reshape(-1), lower=False)
    except np.linalg.LinAlgError:
        return None
    except ValueError:
        return None
    if not np.all(np.isfinite(sol)):
        return None
    return sol.reshape(m1, d)


def _minimize_level(model, pts, tol, max_iter):
    """Line-searched Gauss-Newton at fixed resolution.

    Returns (pts, E, grad_sup, iters, stalled).  Falls back to steepest
    descent whenever the Gauss-Newton direction is unusable; a failed line
    search along steepest descent, or a run of accepted steps whose decrease
    is below double-precision resolution, is reported as a stall (the path
    is at its floating-point floor).
    """
    n = pts.shape[0] - 1
    if n < 2:
        return pts, _energy_of(model, pts), 0.0, 0, False
    E = _energy_of(model, pts)
    g, A = _grad_and_metric(model, pts)
    iters = 0
    stalled = False
    no_progress = 0
    while iters < max_iter:
        gsup = float(np.abs(g).max())
        if gsup <= tol or gsup == 0.0:
            break
        moved = False
        for which in ("gn", "sd"):
            if which == "gn":
                p = _gn_direction(A, g, n)
                if p is None:
                    continue
                gTp = float(np.sum(g * p))
                if gTp >= 0.0:
                    continue
                alpha = 1.0
            else:
                p = -g
                gTp = -float(np.sum(g * g))
                alpha = min(0.5 * max(E, 1e-300) / abs(gTp),
                            _alpha_cap(pts, p))
            for _ in range(MAX_BACKTRACKS):
                trial = pts.copy()
                trial[1:-1] += alpha * p
                Et = _energy_of(model, trial)
                if Et <= E + ARMIJO_C1 * alpha * gTp:
                    moved = True
                    break
                alpha *= BACKTRACK
            if moved:
                break
        if not moved:
            # Neither direction admits a float-representable decrease: the
            # energy is at its double-precision floor for this path.
            stalled = True
            break
        # Accepted steps whose decrease is below the double-precision
        # resolution of E are no real progress either; a run of them means
        # the same thing.
        if E - Et <= 1e-14 * max(abs(E), 1e-300):
            no_progress += 1
        else:
            no_progress = 0
        pts = trial
        E = Et
        iters += 1
        g, A = _grad_and_metric(model, pts)
        if no_progress >= STALL_WINDOW:
            stalled = True
            break
    gsup = float(np.abs(g).max()) if g.size else 0.0
    return pts, E, gsup, iters, stalled


def _resample(pts: np.ndarray, new_n: int) -> np.ndarray:
    old = np.linspace(0.0, 1.0, pts.shape[0])
    new = np.linspace(0.0, 1.0, new_n + 1)
    return np.column_stack([np.interp(new, old, pts[:, k]) for k in range(pts.shape[1])])


def _default_floor(model: DiffusionModel, x, y) -> np.ndarray | None:
    if isinstance(model.geometry, HullWhiteGeometry):
        f = np.full(model.dim, -np.inf)
        f[1] = 1e-3 * min(x[1], y[1])
        return f
    return None


def _chord(x, y, n, floor) -> np.ndarray:
    pts = np.linspace(x, y, n + 1)
    if floor is not None:
        pts = np.maximum(pts, floor)
        pts[0] = x
        pts[-1] = y
    return pts


def _levels(n: int, coarse: bool) -> list[int]:
    if not coarse or n <= COARSE_SEGMENTS:
        return [n]
    out = []
    for k in (8, 4, 2):
        m = max(COARSE_SEGMENTS, int(np.ceil(n / k)))
        if m < n and (not out or m > out[-1]):
            out.append(m)
    out.append(n)
    return out


def _validate_endpoint(model, z, name):
    z = np.asarray(z, dtype=float)
    if z.shape != (model.dim,):
        raise ValueError(f"{name} must have dimension {model.dim}")
    if not np.all(np.isfinite(z)):
        raise ValueError(f"{name} must be finite")
    if not model.domain_test(z):
        raise OutsideDomain(f"{name} = {z} is outside the model domain")
    return z


def _solve_single(model, x, y, opts, tol, init_pts):
    if init_pts is not None:
        pts = init_pts
        levels = [opts.n]
        if pts.shape[0] != opts.n + 1:
            pts = _resample(pts, opts.n)
    else:
        levels = _levels(opts.n, opts.coarse_init)
        floor = opts.floor if opts.floor is not None else _default_floor(model, x, y)
        pts = _chord(x, y, levels[0], floor)
        if not np.isfinite(_energy_of(model, pts)):
            raise OutsideDomain(
                "initial chord leaves the domain even after flooring; "
                "supply an explicit init path"
            )
    total_iters = 0
    stalled = False
    for li, n_l in enumerate(levels):
        if pts.shape[0] != n_l + 1:
            pts = _resample(pts, n_l)
            pts[0] = x
            pts[-1] = y
        level_tol = tol * (opts.n / n_l)
        pts, E, gsup, iters, stalled = _minimize_level(model, pts, level_tol, opts.max_iter)
        total_iters += iters
        last = li == len(levels) - 1
        if (last and opts.strict and iters >= opts.max_iter and gsup > tol
                and not stalled):
            raise NoConvergence(
                f"{total_iters} iterations, gradient sup-norm {gsup:.3e} > {tol:.3e}"
            )
    return pts, E, gsup, total_iters, stalled


def solve_geodesic(
    model: DiffusionModel, x, y, opts: SolverOptions | None = None,
    init: DiscretePath | None = None,
) -> GeodesicResult:
    """Full-diagnostics geodesic solve; geodesic_between is the thin wrapper.

    A solve that bottoms out at the double-precision energy floor before
    meeting grad_tol is reported as converged with stalled=True rather than
    raising: no representable step can improve the path further.
    """
    opts = opts or SolverOptions()
    x = _validate_endpoint(model, x, "x")
    y = _validate_endpoint(model, y, "y")

    if opts.grad_tol is not None:
        tol = opts.grad_tol
    else:
        floor = opts.floor if opts.floor is not None else _default_floor(model, x, y)
        chord_full = _chord(x, y, opts.n, floor)
        E_chord = _energy_of(model, chord_full)
        if not np.isfinite(E_chord):
            raise OutsideDomain(
                "initial chord leaves the domain even after flooring; "
                "supply an explicit init path"
            )
        tol = opts.grad_tol_rel * E_chord

    inits: list[np.ndarray | None]
    if init is not None:
        inits = [np.asarray(init.points, dtype=float).copy()]
    else:
        inits = [None]
        floor = opts.floor if opts.floor is not None else _default_floor(model, x, y)
        for j in range(1, opts.multi_start):
            rng = np.random.Generator(np.random.Philox(key=[0x9E3779B9, j]))
            pts = _chord(x, y, opts.n, floor)
            scale = 0.05 * max(float(np.abs(y - x).max()), 1e-6)
            bump = np.sin(np.pi * np.linspace(0, 1, opts.n + 1))[1:-1, None]
            pts[1:-1] += scale * bump * rng.standard_normal((opts.n - 1, pts.shape[1]))
            if floor is not None:
                pts[1:-1] = np.maximum(pts[1:-1], floor)
            if np.isfinite(_energy_of(model, pts)):
                inits.append(pts)

    best = None
    dists = []
    for init_pts in inits:
        pts, E, gsup, iters, stalled = _solve_single(model, x, y, opts, tol, init_pts)
        dist = float(np.sqrt(max(2.0 * E, 0.0)))
        dists.append(dist)
        if best is None or E < best[1]:
            best = (pts, E, gsup, iters, stalled)
    pts, E, gsup, iters, stalled = best
    dist = float(np.sqrt(max(2.0 * E, 0.0)))
    spread = 0.0
    if len(dists) > 1:
        spread = (max(dists) - min(dists)) / max(min(dists), 1e-300)
    lengths = np.sqrt(np.maximum(_segment_q(model, pts), 0.0))
    return GeodesicResult(
        path=DiscretePath(pts),
        distance=dist,
        energy=E,
        grad_sup=gsup,
        iterations=iters,
        stalled=stalled,
        segment_lengths=lengths,
        multistart_spread=spread,
    )


def geodesic_between(
    model: DiffusionModel, x, y, opts: SolverOptions | None = None,
    init: DiscretePath | None = None,
):
    """Minimizing path and induced distance between x and y.

    Returns (DiscretePath, distance) with distance = sqrt(2 E_min).
    """
    res = solve_geodesic(model, x, y, opts, init)
    return res.path, res.distance


def distance(model: DiffusionModel, x, y, opts: SolverOptions | None = None) -> float:
    return solve_geodesic(model, x, y, opts).distance


def refine(model: DiffusionModel, path: DiscretePath, new_n: int,
           opts: SolverOptions | None = None):
    """Interpolate a converged path to a finer grid and re-minimize.

    Returns (DiscretePath, distance).  The re-minimized energy never exceeds
    the energy of the interpolated path (the line search only accepts
    decreases).
    """
    if new_n < 2:
        raise ValueError("need at least 2 segments")
    pts = _resample(path.points, new_n)
    base = opts or SolverOptions()
    eff = replace(base, n=new_n, multi_start=1, coarse_init=False)
    res = solve_geodesic(model, pts[0].copy(), pts[-1].copy(), opts=eff,
                         init=DiscretePath(pts))
    return res.path, res.distance
