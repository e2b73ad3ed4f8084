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

The minimizer works on a stack of K paths of one resolution, a (K, N+1, d)
array, and solve_geodesic is the stack at K = 1 (or K = multi_start).  Each
path keeps its own tolerance, budget, line search and stall rule, and leaves
the stack when it finishes; an iteration evaluates the metric at every
running path's midpoints in one batch and solves all Gauss-Newton systems
in one banded solve of the block-diagonal band.  Every path gets the bits
it gets alone.  The boundary scan uses this to solve the legs of many
boundary samples together.

The gradient is exact for the quadratic-form part, and the derivative of
a(m)^{-1} comes from model.inverse_metric_jet: one call on the midpoints
returns the metrics and their derivatives, exact where the model has a jet
and by finite differences of the metric where it has none.  The line search
makes that call for each trial step, so an accepted step brings its energy,
its gradient and its Gauss-Newton metrics from one metric evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotSPD, OutsideDomain
from .model import (
    DiffusionModel,
    HullWhiteGeometry,
    domain_test_batch,
    inverse_metric_batch,
    inverse_metric_jet,
)
from .paths import DiscretePath

__all__ = [
    "SolverOptions",
    "GeodesicResult",
    "path_energy",
    "energy_gradient",
    "solve_geodesic",
    "distance",
]

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
        if self.grad_tol is not None and not 0.0 <= self.grad_tol < np.inf:
            raise ValueError(f"grad_tol must be finite and nonnegative; got {self.grad_tol}")
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
#
# Everything below works on a (K, N+1, d) stack of paths, and each path
# gets the bits it gets alone: batched steps are elementwise or row-wise,
# and a batch evaluation that raises is split in halves, down to single
# paths.


def _halves(fn, *args):
    """fn on each half of a stack, the results joined along the stack; the
    array arguments are the stacked ones."""
    h = next(a for a in args if isinstance(a, np.ndarray)).shape[0] // 2
    parts = [fn(*(a[s] if isinstance(a, np.ndarray) else a for a in args))
             for s in (slice(None, h), slice(h, None))]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(c) for c in zip(*parts))
    return np.concatenate(parts)


def _energies(model, P, gradients=False):
    """Energy of each path, +inf where a midpoint leaves the domain or the
    metric fails there.

    gradients=True also returns what _gradients gives for every path, from
    the same metric evaluation (NaN where the energy is infinite): the line
    search evaluates the jet once per trial, and an accepted trial brings
    its gradient along.
    """
    K, n1, d = P.shape
    n = n1 - 1
    mids = 0.5 * (P[:, :-1] + P[:, 1:])
    E = np.full(K, np.inf)
    out = E
    if gradients:
        out = E, np.full((K, n - 1, d), np.nan), np.full((K, n, d, d), np.nan)
    ok = domain_test_batch(model, mids.reshape(-1, d)).reshape(K, n).all(axis=1)
    if not ok.any():
        return out
    try:
        if gradients:
            g, A = _gradients(model, P[ok])
        else:
            A = inverse_metric_batch(model, mids[ok].reshape(-1, d))
    except (NotSPD, ValueError):
        if K == 1:
            return out
        return _halves(_energies, model, P, gradients)
    q = _q_form(A.reshape(-1, d, d), np.diff(P[ok], axis=1).reshape(-1, d)).reshape(-1, n)
    finite = np.isfinite(q).all(axis=1)
    kept = np.flatnonzero(ok)[finite]
    E[kept] = 0.5 * n * q[finite].sum(axis=1)
    if gradients:
        out[1][kept] = g[finite]
        out[2][kept] = A[finite]
    return out


def _energy_of(model, pts) -> float:
    """Energy of one point array, +inf if any midpoint leaves the domain."""
    return float(_energies(model, pts[None])[0])


def _segment_q(model, pts) -> np.ndarray:
    A = inverse_metric_batch(model, 0.5 * (pts[:-1] + pts[1:]))
    return _q_form(A, np.diff(pts, axis=0))


def _gradients(model, P):
    """Gradients w.r.t. interior points, (K, N-1, d), plus the midpoint
    inverse metrics, (K, N, d, d).

    The metrics are returned so the minimizer can reuse them for its
    Gauss-Newton model without a second batch evaluation.  Both come from
    one inverse_metric_jet call on the midpoints of every path.
    """
    K, n1, d = P.shape
    n = n1 - 1
    A, dA = inverse_metric_jet(model, (0.5 * (P[:, :-1] + P[:, 1:])).reshape(-1, d))
    # contracted point axis last, where the built-in jets keep it
    # contiguous: A delta and d(delta^T A delta)/dz = delta^T dA_k delta
    D = np.ascontiguousarray(np.diff(P, axis=1).reshape(-1, d).T)
    Av = np.einsum("ijm,jm->im", A.transpose(1, 2, 0), D).T
    dq = np.einsum("kijm,im,jm->km", dA.transpose(1, 2, 3, 0), D, D).T
    Av, dq = Av.reshape(K, n, d), dq.reshape(K, n, d)
    g = n * (Av[:, :-1] - Av[:, 1:]) + 0.25 * n * (dq[:, :-1] + dq[:, 1:])
    return g, A.reshape(K, n, d, d)


def _q_form(A, deltas):
    return np.einsum("nij,ni,nj->n", A, deltas, deltas)


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
    return 0.5 * path.n_segments * float(_segment_q(model, pts).sum())


def energy_gradient(model: DiffusionModel, path: DiscretePath) -> np.ndarray:
    """Energy gradient w.r.t. the interior points, shape (N-1, d)."""
    return _gradients(model, _check_path(model, path)[None])[0][0]


# ---- Minimization ---- #


def _alpha_cap(P, p) -> np.ndarray:
    """Steepest-descent step cap per path: a quarter of the path's span over
    the sup norm of the (nonzero) direction."""
    span = np.ptp(P, axis=1).max(axis=1)
    sup = np.abs(p).max(axis=(1, 2))
    return 0.25 * np.maximum(span, 1e-12) / sup


def _gn_direction(A, g, nseg):
    """Gauss-Newton steps: solve each frozen-metric Hessian system H p = -g.

    A is (K, N, d, d), g is (K, N-1, d).  H is the exact Hessian of the
    energy with the metric held fixed at the current midpoints: block
    tridiagonal, SPD, with diagonal blocks nseg (A[j] + A[j+1]) and couplings
    -nseg A[j].  The terms it drops (metric derivatives) are exactly the
    small ones near a geodesic, so the step behaves like Newton where it
    matters and the Armijo guard handles the rest.  All K systems are one
    banded solve of the block-diagonal band; its blocks do not couple, and
    each solves bit for bit as it does alone.  Returns the (K, N-1, d)
    directions and whether each is usable (its solve succeeded and is
    finite).
    """
    # scipy loads here, on the first Gauss-Newton step, so that commands
    # which never solve a path start without it
    from scipy.linalg import solveh_banded

    K, m1, d = g.shape
    D = nseg * (A[:, :-1] + A[:, 1:])
    U = -nseg * A[:, 1:m1]
    u = 2 * d - 1
    ab = np.zeros((u + 1, K, m1, d))
    for c in range(d):
        for cp in range(d):
            if cp >= c:
                ab[u + c - cp, :, :, cp] = D[:, :, c, cp]
            ab[u + c - cp - d, :, 1:, cp] = U[:, :, c, cp]
    sol = None
    # scipy's tridiagonal branch (d = 1) refuses a single 1 x 1 system but
    # not a stack of them: such stacks go one system at a time
    if K == 1 or m1 * d > 1:
        try:
            sol = solveh_banded(ab.reshape(u + 1, -1), -g.reshape(-1), lower=False)
        except (np.linalg.LinAlgError, ValueError):
            pass
    if sol is not None and np.all(np.isfinite(sol)):
        return sol.reshape(K, m1, d), np.ones(K, dtype=bool)
    if K == 1:
        return np.zeros_like(g), np.zeros(1, dtype=bool)
    return _halves(_gn_direction, A, g, nseg)


def _line_search(model, P, E, g, A):
    """Armijo backtracking from each path: along its Gauss-Newton direction
    when that is usable (solved, and downhill), then along steepest descent,
    MAX_BACKTRACKS halvings each.  The paths backtrack in lockstep, one
    energy batch per round.  Returns the accepted paths, their energies,
    gradients and midpoint metrics, and which paths moved at all."""
    L = P.shape[0]
    p, usable = _gn_direction(A, g, P.shape[1] - 1)
    gTp = (g * p).reshape(L, -1).sum(axis=1)
    usable &= ~(gTp >= 0.0)
    alpha = np.ones(L)

    def steepest(idx):
        if not idx.size:
            return
        p[idx] = -g[idx]
        gTp[idx] = -(g[idx] * g[idx]).reshape(len(idx), -1).sum(axis=1)
        a = 0.5 * np.maximum(E[idx], 1e-300) / np.abs(gTp[idx])
        cap = _alpha_cap(P[idx], p[idx])
        alpha[idx] = np.where(cap < a, cap, a)

    on_sd = ~usable
    steepest(np.flatnonzero(on_sd))
    tries = np.zeros(L, dtype=int)
    searching = np.ones(L, dtype=bool)
    moved = np.zeros(L, dtype=bool)
    trial = P.copy()
    Et = E.copy()
    gt, At = np.empty_like(g), np.empty_like(A)
    while searching.any():
        s = np.flatnonzero(searching)
        T = P[s]
        T[:, 1:-1] += alpha[s, None, None] * p[s]
        Es, gs, As = _energies(model, T, gradients=True)
        ok = Es <= E[s] + ARMIJO_C1 * alpha[s] * gTp[s]
        done = s[ok]
        trial[done] = T[ok]
        Et[done] = Es[ok]
        gt[done] = gs[ok]
        At[done] = As[ok]
        moved[done] = True
        searching[done] = False
        r = s[~ok]
        alpha[r] *= BACKTRACK
        tries[r] += 1
        out = r[tries[r] == MAX_BACKTRACKS]
        searching[out[on_sd[out]]] = False
        out = out[~on_sd[out]]
        on_sd[out] = True
        tries[out] = 0
        steepest(out)
    return trial, Et, gt, At, moved


def _minimize_level(model, P, tol, max_iter):
    """Line-searched Gauss-Newton at fixed resolution on a stack of paths.

    P is a (K, N+1, d) stack and tol holds each path's gradient tolerance.
    Returns (P, E, grad_sup, iters, stalled), one entry per path.  Each path
    falls back to steepest descent whenever its Gauss-Newton direction is
    unusable; a failed line search along steepest descent, or a run of
    accepted steps whose decrease is below double-precision resolution, is
    reported as a stall (the path is at its floating-point floor).  A path
    leaves the stack when it converges, stalls or spends max_iter; the line
    search brings the gradients of the accepted paths along.
    """
    K = P.shape[0]
    P = P.copy()
    E, g, A = _energies(model, P, gradients=True)
    iters = np.zeros(K, dtype=int)
    stalled = np.zeros(K, dtype=bool)
    no_progress = np.zeros(K, dtype=int)
    live = np.arange(K)
    while True:
        gsup = np.abs(g[live]).max(axis=(1, 2))
        live = live[(iters[live] < max_iter) & ~((gsup <= tol[live]) | (gsup == 0.0))]
        if not live.size:
            break
        trial, Et, gt, At, moved = _line_search(model, P[live], E[live], g[live], A[live])
        # Neither direction admits a float-representable decrease: the
        # energy is at its double-precision floor for this path.
        stalled[live[~moved]] = True
        live = live[moved]
        if not live.size:
            break
        trial, Et, gt, At = trial[moved], Et[moved], gt[moved], At[moved]
        # Accepted steps whose decrease is below the double-precision
        # resolution of E are no real progress either; a run of them means
        # the same thing.
        small = E[live] - Et <= 1e-14 * np.maximum(np.abs(E[live]), 1e-300)
        no_progress[live] = np.where(small, no_progress[live] + 1, 0)
        P[live] = trial
        E[live] = Et
        iters[live] += 1
        g[live], A[live] = gt, At
        stall = no_progress[live] >= STALL_WINDOW
        stalled[live[stall]] = True
        live = live[~stall]
    return P, E, np.abs(g).max(axis=(1, 2)), iters, stalled


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
    inverse_metric_batch(model, z[None])  # NotSPD where the metric is singular
    return z


def _solve_legs(model, X, Y, opts: SolverOptions, inits):
    """Solve the legs X[k] -> Y[k] as one stack.

    inits[k] is a point array to warm-start leg k from, or None for a cold
    start: the floored chord, minimized coarse to fine over _levels.  Cold
    legs run their coarse levels as one stack and join the warm legs at the
    target resolution.  A leg's tolerance is grad_tol, or grad_tol_rel times
    the energy of its floored chord at the target resolution.  Returns
    (P, E, grad_sup, iters, stalled, short) per leg; short marks a leg that
    spent max_iter above its tolerance without stalling, which raises
    NoConvergence when opts.strict.
    """
    n = opts.n
    K = len(inits)
    floors = [opts.floor if opts.floor is not None else _default_floor(model, x, y)
              for x, y in zip(X, Y)]

    def chords(legs, n_l):
        C = np.stack([_chord(X[k], Y[k], n_l, floors[k]) for k in legs])
        if not np.all(np.isfinite(_energies(model, C))):
            raise OutsideDomain(
                "initial chord leaves the domain even after flooring; "
                "supply an explicit init path"
            )
        return C

    def resampled(C, legs, n_l):
        C = np.stack([_resample(c, n_l) for c in C])
        C[:, 0] = X[legs]
        C[:, -1] = Y[legs]
        return C

    if opts.grad_tol is not None:
        tol = np.full(K, float(opts.grad_tol))
    else:
        tol = opts.grad_tol_rel * _energies(model, chords(range(K), n))

    P = np.empty((K, n + 1, X.shape[1]))
    total = np.zeros(K, dtype=int)
    cold = np.array([k for k in range(K) if inits[k] is None], dtype=int)
    if cold.size:
        levels = _levels(n, opts.coarse_init)
        C = chords(cold, levels[0])
        for n_l in levels[:-1]:
            if C.shape[1] != n_l + 1:
                C = resampled(C, cold, n_l)
            C, _, _, iters, _ = _minimize_level(model, C, tol[cold] * (n / n_l),
                                                opts.max_iter)
            total[cold] += iters
        P[cold] = C if C.shape[1] == n + 1 else resampled(C, cold, n)
    for k, init in enumerate(inits):
        if init is not None:
            P[k] = init if init.shape[0] == n + 1 else _resample(init, n)
    P, E, gsup, iters, stalled = _minimize_level(model, P, tol, opts.max_iter)
    short = (iters >= opts.max_iter) & (gsup > tol) & ~stalled
    if opts.strict and short.any():
        k = int(np.argmax(short))
        raise NoConvergence(
            f"{total[k] + iters[k]} iterations, gradient sup-norm {gsup[k]:.3e} > {tol[k]:.3e}"
        )
    return P, E, gsup, total + iters, stalled, short


def solve_geodesic(
    model: DiffusionModel, x, y, opts: SolverOptions | None = None,
    init: DiscretePath | None = None,
) -> GeodesicResult:
    """Geodesic between x and y with full diagnostics.

    A solve that bottoms out at the double-precision energy floor before
    meeting grad_tol is reported as converged with stalled=True rather than
    raising: no representable step can improve the path further.  With
    multi_start > 1 the chord and its perturbations are solved as one stack.
    """
    opts = opts or SolverOptions()
    x = _validate_endpoint(model, x, "x")
    y = _validate_endpoint(model, y, "y")

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

    K = len(inits)
    P, E, gsup, iters, stalled, _ = _solve_legs(
        model, np.tile(x, (K, 1)), np.tile(y, (K, 1)), opts, inits)
    dists = np.sqrt(np.maximum(2.0 * E, 0.0))
    best = int(np.argmin(E))
    spread = 0.0
    if K > 1:
        spread = float((dists.max() - dists.min()) / max(dists.min(), 1e-300))
    pts = P[best]
    lengths = np.sqrt(np.maximum(_segment_q(model, pts), 0.0))
    return GeodesicResult(
        path=DiscretePath(pts),
        distance=float(dists[best]),
        energy=float(E[best]),
        grad_sup=float(gsup[best]),
        iterations=int(iters[best]),
        stalled=bool(stalled[best]),
        segment_lengths=lengths,
        multistart_spread=spread,
    )


def distance(model: DiffusionModel, x, y, opts: SolverOptions | None = None) -> float:
    return solve_geodesic(model, x, y, opts).distance
