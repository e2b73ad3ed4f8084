"""Geodesics by direct minimization of the discrete path energy.

A path p_0..p_N on the uniform grid s_i = i/N has energy

    E = (N/2) * sum_i <a(m_i)^{-1} (p_{i+1} - p_i), (p_{i+1} - p_i)>,

with m_i the segment midpoint.  The minimizer over interior points (endpoints
pinned) discretizes the geodesic between x and y, and the induced distance is
sqrt(2 E_min).  Minimization is a line-searched Newton iteration.  The
Hessian of E is block tridiagonal, and each step solves it by a banded
Cholesky factorization.  A path steps along its Newton direction when
that Hessian is SPD and the step is downhill, else along its Gauss-Newton
direction (the Hessian with the metric frozen at the current midpoints),
under the Armijo condition.  A Newton step that fails Armijo at a few
lengths hands over to Gauss-Newton.  A path with neither direction left,
or whose step changes no point, has stalled at its floating-point floor.
A cold path starts from the straight chord at the target resolution; the
Newton steps resolve its slow reparametrization modes.  Out-of-domain or
non-SPD trial steps read as infinite energy, so the line search doubles
as a domain barrier.

The minimizer works on a stack of K paths of one resolution, a (K, N+1, d)
array, and solve_geodesic is the stack at K = 1 (or K = multi_start).  Each
path keeps its own tolerance, budget, line search and stall rule, and leaves
the stack when it finishes; an iteration evaluates the metric at every
running path's midpoints in one batch and factors all Hessians in one
banded Cholesky of the block-diagonal band.  Every path gets the bits it
gets alone.  The boundary scan uses this to solve the legs of many
boundary samples together.

The gradient is exact for the quadratic-form part, and the derivatives of
a(m)^{-1} come from model.metric_jet: one call on the midpoints returns
the inverse metrics A and the first and second derivatives of a itself,
exact where the model has a jet and by finite differences of the metric
(first order only) where it has none.  Each Newton term is contracted
along the segment's step delta from w = A delta and u_k = da_k w, so no
derivative of A is ever formed.  Without a second derivative there is no
Newton direction, and such a model steps by Gauss-Newton.  That call is
the one way a stack of paths is priced (_priced): the line search makes
it once per round, on all its trial steps together, and contracts it only
in a round that accepts a step; a stack's starts take it once with the
chords of its warm legs.  So an accepted step brings its energy, its
gradient and its Hessian terms from the one metric evaluation that priced
it.  Only path_energy and a result's segment lengths (_segment_q) read the
inverse metric alone, and they raise where the metric is singular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotSPD, OutsideDomain
from .model import (
    DiffusionModel,
    _check_point,
    domain_test_batch,
    inverse_metric_batch,
    metric_jet,
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
# Lengths a Newton step tries, from 1 down by BACKTRACK, before its path
# takes the Gauss-Newton direction.
NEWTON_TRIES = 4
# Consecutive sub-resolution energy decreases before declaring a stall.
STALL_WINDOW = 15
# Relative decrease of the energy below which a step is no progress.
RESOLUTION = 1e-14


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the path optimizer.

    grad_tol None means grad_tol_rel times the initial chord energy at the
    target resolution.  multi_start > 1 adds perturbed-chord restarts and
    records their spread.  strict=False returns the best path found instead
    of raising NoConvergence when the iteration budget runs out; grad_sup in
    the result says how far the run got.
    """

    n: int = 200
    grad_tol: float | None = None
    grad_tol_rel: float = 1e-8
    max_iter: int = 5000
    multi_start: int = 1
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


def _priced(model, P):
    """(energies, grads) of the stack P from one metric_jet batch, the
    energy +inf where a midpoint leaves the domain or the metric fails
    there.  grads(rows) contracts the gradients and segment terms of every
    path (_contract) and gives those of rows, all by default, NaN where
    the energy is infinite: a line-search round that accepts no trial
    contracts nothing."""
    K, n1, d = P.shape
    n = n1 - 1
    mids = 0.5 * (P[:, :-1] + P[:, 1:])
    E = np.full(K, np.inf)
    ok = domain_test_batch(model, mids.reshape(-1, d)).reshape(K, n).all(axis=1)
    kept = np.flatnonzero(ok)
    if kept.size:
        # the paths inside the domain: the stack itself when all are
        Q, M = (P, mids) if kept.size == K else (P[ok], mids[ok])
        try:
            A, *da = metric_jet(model, M.reshape(-1, d))
            q = _q_form(A.transpose(1, 2, 0), D := _steps(Q))
        except (NotSPD, ValueError):
            if K > 1:
                # each half of the stack on its own, down to single paths
                parts = [(e, *h()) for e, h in (_priced(model, P[:K // 2]),
                                                _priced(model, P[K // 2:]))]
                E, g, T = (np.concatenate(c, axis=a) for c, a in zip(zip(*parts), (0, 0, -2)))
                return E, lambda rows=slice(None): (g[rows], T[..., rows, :])
            kept = kept[:0]
        else:
            q = q.reshape(-1, n)
            finite = np.isfinite(q).all(axis=1)
            kept = kept[finite]
            E[kept] = 0.5 * n * q[finite].sum(axis=1)

    def grads(rows=slice(None)):
        if 0 < kept.size == K:
            g, T = _contract(D, n, A, *da)
            return g[rows], T[..., rows, :]
        G, S = np.full((K, n - 1, d), np.nan), np.full((3, d, d, K, n), np.nan)
        if kept.size:
            g, T = _contract(D, n, A, *da)
            G[kept], S[..., kept, :] = g[finite], T[..., finite, :]
        return G[rows], S[..., rows, :]

    return E, grads


def _energy_of(model, pts) -> float:
    """Energy of one point array, +inf if any midpoint leaves the domain."""
    return float(_priced(model, pts[None])[0][0])


def _segment_q(model, pts) -> np.ndarray:
    A = inverse_metric_batch(model, 0.5 * (pts[:-1] + pts[1:]))
    return _q_form(A.transpose(1, 2, 0), _steps(pts[None]))


def _steps(P):
    """The steps of a stack of paths, (d, K N), the point axis last."""
    return np.ascontiguousarray(np.diff(P, axis=1).reshape(-1, P.shape[2]).T)


def _q_form(A, D):
    """delta^T A delta of each step, from A (d, d, m) and the steps D (d, m),
    contracted with the point axis last and contiguous."""
    return np.einsum("ijm,im,jm->m", np.ascontiguousarray(A), D, D)


def _contract(D, n, A, da, d2a):
    """Gradients w.r.t. interior points (K, N-1, d), and the Hessian terms
    of each segment (3, d, d, K, N), from the steps D (_steps) of a stack
    of paths of n segments and the metric jet (A, da, d2a) at their
    midpoints.

    The terms of a segment are its midpoint inverse metric A, the matrix
    B[j, k] = 2 (dA_k delta)_j and F[k, l] = delta^T d2A_kl delta, F NaN
    where the model's jet has no second order, with the segments last.
    The jet gives the derivatives of a = A^{-1}: with w = A delta and
    u_k = da_k w, dA_k = -A da_k A gives delta^T dA_k delta = -w . u_k and
    B[:, k] = -2 A u_k, and d2A_kl = A (da_k A da_l + da_l A da_k - d2a_kl) A
    gives F[k, l] = 2 u_k . A u_l - w . d2a_kl w.  The line search keeps
    them so the next step needs no second evaluation.  Every term is
    elementwise along the points, so each path gets the bits it gets alone.
    """
    d, m = D.shape
    K = m // n
    # contracted point axis last, where the built-in jets keep it contiguous
    A = A.transpose(1, 2, 0)
    w = np.einsum("ijm,jm->im", A, D)
    u = np.einsum("kijm,jm->kim", da.transpose(1, 2, 3, 0), w)
    Au = np.einsum("ijm,kjm->kim", A, u)
    # -d(delta^T A delta)/dz_k
    wu = np.einsum("kim,im->km", u, w)
    T = np.empty((3, d, d, K * n))
    T[0] = A
    np.multiply(Au.swapaxes(0, 1), -2.0, out=T[1])
    if d2a is None:
        T[2] = np.nan
    else:
        np.einsum("kim,lim->klm", u, Au, out=T[2])
        T[2] *= 2.0
        T[2] -= np.einsum("klijm,im,jm->klm", d2a.transpose(1, 2, 3, 4, 0), w, w)
    w, wu = w.reshape(d, K, n), wu.reshape(d, K, n)
    g = n * (w[..., :-1] - w[..., 1:]) - 0.25 * n * (wu[..., :-1] + wu[..., 1:])
    return np.ascontiguousarray(g.transpose(1, 2, 0)), T.reshape(3, d, d, K, n)


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
    pts = _check_path(model, path)
    # the jet itself, not _priced: a singular metric raises NotSPD here
    A, da, d2a = metric_jet(model, 0.5 * (pts[:-1] + pts[1:]))
    return _contract(_steps(pts[None]), path.n_segments, A, da, d2a)[0][0]


# ---- Minimization ---- #


def _hessian(T, nseg, newton):
    """Diagonal blocks (d, d, K, N-1) and couplings (d, d, K, N-2) of the
    energy's Hessian in the interior points, from the segment terms T.

    Segment s adds (N/2)(2A -/+ (B + B^T)/2 + F/4) to the diagonal blocks
    of p_s and p_{s+1}, and (N/2)(-2A - B/2 + B^T/2 + F/4) to their
    coupling (rows p_s, columns p_{s+1}).  newton=False drops B and F: the
    Gauss-Newton Hessian, the metric frozen at the midpoints, which is SPD
    wherever the metric is.
    """
    A, B, F = T
    if not newton:
        return nseg * (A[..., :-1] + A[..., 1:]), -nseg * A[..., 1:-1]
    Bt = B.swapaxes(0, 1)
    G = 2.0 * A + 0.25 * F
    S = 0.5 * (B + Bt)
    h = 0.5 * nseg
    return h * ((G + S)[..., :-1] + (G - S)[..., 1:]), h * (G - 4.0 * A + 0.5 * (Bt - B))[..., 1:-1]


def _band_solve(D, U, g):
    """Solve H p = -g for each path of a stack, H block tridiagonal with
    diagonal blocks D (d, d, K, N-1), upper triangles read, and couplings
    U (d, d, K, N-2).

    All K systems are one banded Cholesky factorization of the
    block-diagonal band; its blocks do not couple, and each factors and
    solves bit for bit as it does alone.  A path whose band is not finite,
    or whose factorization fails (LAPACK's info locates it) or leaves a
    non-finite factor, is set to the identity, and the paths after it are
    factored again.  Returns the (K, N-1, d) directions and whether each is
    usable (SPD and finite; the others are zero).
    """
    # scipy loads here, on the first step, so that commands which never
    # solve a path start without it
    from scipy.linalg.lapack import dpbtrf, dpbtrs

    K, m, d = g.shape
    u = 2 * d - 1
    w = m * d
    # the upper band column by column: band[k, i, c, r] = H[j + r - u, j]
    # at column j of point i, coordinate c
    band = np.zeros((K, m, d, u + 1))

    def fill(k):
        # the band of paths k on, over zeros; the identity where it is not
        # finite
        for c in range(d):
            for cp in range(c, d):
                band[k:, :, cp, u + c - cp] = D[c, cp, k:]
            for cp in range(d):
                band[k:, 1:, cp, u + c - cp - d] = U[c, cp, k:]
        bad = ~np.isfinite(band[k:]).all(axis=(1, 2, 3))
        if bad.any():
            band[k:][bad] = np.eye(1, u + 1, u)
        return bad

    ok = ~fill(0)
    ab = band.reshape(K * w, u + 1).T
    start = 0
    while start < K:
        ab[:, start * w:], info = dpbtrf(ab[:, start * w:], overwrite_ab=1)
        stop = K if info == 0 else start + (info - 1) // w
        bad = ~np.isfinite(band[start:stop]).all(axis=(1, 2, 3))
        k = start + int(np.argmax(bad)) if bad.any() else stop
        if k == K:
            break
        ok[k] = False
        band[k] = np.eye(1, u + 1, u)
        band[k + 1:] = 0.0
        fill(k + 1)
        start = k + 1
    rhs = np.where(ok[:, None, None], -g, 0.0).reshape(-1, 1)
    p, _ = dpbtrs(ab, rhs)
    p = p.reshape(K, m, d)
    ok &= np.isfinite(p).all(axis=(1, 2))
    p[~ok] = 0.0
    return p, ok


def _line_search(model, P, E, g, T):
    """Armijo line search from each path, on its Newton or Gauss-Newton
    direction.

    A path starts on its Newton direction (the exact Hessian, from the
    segment terms T) when that Hessian is SPD and the step is downhill,
    else on its Gauss-Newton direction (the metric frozen).  A Newton step
    tries NEWTON_TRIES lengths; if all fail Armijo, the path takes its
    Gauss-Newton direction instead.  A full Newton step whose predicted
    decrease -g^T p / 2 is below the RESOLUTION of the energy and fails
    tells that the path is at its floor.  Gauss-Newton backtracks
    MAX_BACKTRACKS halvings.  A path accepts the first length of this
    sequence that passes Armijo; one with no usable direction left, at its
    floor, or whose accepted trial equals the path, does not move.  The
    paths search in lockstep, with the trials of a round in one jet batch
    (an accepted trial brings its gradient and segment terms along,
    contracted only in a round that accepts one), and each gets the bits
    it gets alone; a path that keeps failing tries its next lengths in
    blocks that double each round (1, 2, 4, ... per direction), which
    takes a long backtrack in few rounds and accepts the length the
    one-by-one search accepts.  The first round tries every path's full
    step.  Returns the accepted paths, their energies, gradients and
    segment terms, and which paths moved.
    """
    L, n1, _ = P.shape
    p = np.zeros_like(g)
    gTp = np.zeros(L)
    alpha = np.ones(L)
    newton = np.ones(L, dtype=bool)
    tries = np.zeros(L, dtype=int)
    block = np.ones(L, dtype=int)
    searching = np.ones(L, dtype=bool)

    def solve(idx, exact):
        # the Newton (exact) or Gauss-Newton direction of each path in idx;
        # returns the paths where it is unusable
        if not idx.size:
            return idx
        Ti, gi = (T, g) if idx.size == L else (T[..., idx, :], g[idx])
        p[idx], ok = _band_solve(*_hessian(Ti, n1 - 1, exact), gi)
        gTp[idx] = (gi * p[idx]).reshape(len(idx), -1).sum(axis=1)
        ok &= gTp[idx] < 0.0
        alpha[idx] = 1.0
        newton[idx] = exact
        tries[idx] = 0
        block[idx] = 1
        return idx[~ok]

    def advance(r, width):
        # the paths r failed their round's lengths: a full Newton step
        # whose predicted decrease is below the resolution of E fails by
        # roundoff alone, and the path is at its floor; the others move on
        # by width lengths and double their block.  The last Newton length
        # failed: Gauss-Newton takes over; the last Gauss-Newton length
        # failed: the search ends.
        full = r[newton[r] & (tries[r] == 0)]
        floor = -0.5 * gTp[full] <= RESOLUTION * np.maximum(np.abs(E[full]), 1e-300)
        searching[full[floor]] = False
        r = r[searching[r]]
        alpha[r] *= BACKTRACK ** width[r]
        tries[r] += width[r]
        block[r] *= 2
        searching[r[~newton[r] & (tries[r] == MAX_BACKTRACKS)]] = False
        searching[solve(r[newton[r] & (tries[r] == NEWTON_TRIES)], False)] = False

    # a path with neither direction usable has nothing to search
    searching[solve(solve(np.arange(L), True), False)] = False
    trial = P.copy()
    Et = E.copy()
    gt, Tt = np.empty_like(g), np.empty_like(T)
    moved = np.zeros(L, dtype=bool)
    while searching.any():
        s = np.flatnonzero(searching)
        # the next m lengths of each path's search, alpha BACKTRACK^j for
        # j < m, within the lengths its direction has left
        width = np.where(newton, NEWTON_TRIES, MAX_BACKTRACKS) - tries
        np.minimum(width, block, out=width)
        m = width[s]
        rows = np.repeat(s, m)
        a = alpha[rows] * BACKTRACK ** (np.arange(len(rows)) - np.repeat(np.cumsum(m) - m, m))
        X = P[rows]
        X[:, 1:-1] += a[:, None, None] * p[rows]
        Es, grads = _priced(model, X)
        ok = np.flatnonzero(Es <= E[rows] + ARMIJO_C1 * a * gTp[rows])
        if ok.size == len(rows) == s.size == L:
            # one row per path, and each passes: the round's batch is the
            # result, in path order
            return X, Es, *grads(), (X != P).any(axis=(1, 2))
        # each path's first length that passes (a round that accepts none
        # contracts nothing); a step too short to change any point leaves
        # the path where it was
        done, at = np.unique(rows[ok], return_index=True)
        at = ok[at]
        trial[done] = X[at]
        Et[done] = Es[at]
        if done.size:
            gt[done], Tt[..., done, :] = grads(at)
        moved[done] = (X[at] != P[done]).any(axis=(1, 2))
        searching[done] = False
        advance(s[searching[s]], width)
    return trial, Et, gt, Tt, moved


def _minimize_level(model, P, tol, max_iter, start):
    """Line-searched Newton at fixed resolution on a stack of paths.

    P is a (K, N+1, d) stack, start its energies, gradients and segment
    terms, _priced's (E, *grads()) (updated in place), and tol holds each
    path's gradient tolerance.  Returns (P, E, grad_sup, iters, stalled),
    one entry per path.  Each step is a Newton or a Gauss-Newton step as
    _line_search says.  A line search that leaves the path as it was (no
    usable direction, a failed Newton step below the energy's resolution,
    a Gauss-Newton search out of lengths, or an accepted step that changes
    no point), or a run of STALL_WINDOW accepted steps whose decrease is
    below that resolution, is reported as a stall (the path is at its
    floating-point floor).  A path leaves the stack when it converges,
    stalls or spends max_iter; the line search brings the gradients and
    the Hessian terms of the accepted paths along.
    """
    K = P.shape[0]
    P = P.copy()
    E, g, T = start
    iters = np.zeros(K, dtype=int)
    stalled = np.zeros(K, dtype=bool)
    no_progress = np.zeros(K, dtype=int)
    live = np.arange(K)
    while True:
        gsup = np.abs(g[live]).max(axis=(1, 2))
        live = live[(iters[live] < max_iter) & ~((gsup <= tol[live]) | (gsup == 0.0))]
        if not live.size:
            break
        # the stack itself while every path runs
        now = (P, E, g, T) if live.size == K else (P[live], E[live], g[live], T[..., live, :])
        trial, Et, gt, Tt, moved = _line_search(model, *now)
        # No step changes the path: the energy is at its double-precision
        # floor for this path.
        stalled[live[~moved]] = True
        live = live[moved]
        if not live.size:
            break
        trial, Et, gt, Tt = trial[moved], Et[moved], gt[moved], Tt[..., moved, :]
        # Accepted steps whose decrease is below the double-precision
        # resolution of E are no real progress either; a run of them means
        # the same thing.
        small = E[live] - Et <= RESOLUTION * np.maximum(np.abs(E[live]), 1e-300)
        no_progress[live] = np.where(small, no_progress[live] + 1, 0)
        P[live] = trial
        E[live] = Et
        iters[live] += 1
        g[live], T[..., live, :] = gt, Tt
        stall = no_progress[live] >= STALL_WINDOW
        stalled[live[stall]] = True
        live = live[~stall]
    return P, E, np.abs(g).max(axis=(1, 2)), iters, stalled


def _resample(pts: np.ndarray, new_n: int) -> np.ndarray:
    old = np.linspace(0.0, 1.0, pts.shape[0])
    new = np.linspace(0.0, 1.0, new_n + 1)
    return np.column_stack([np.interp(new, old, pts[:, k]) for k in range(pts.shape[1])])


def _chords(X, Y, n) -> np.ndarray:
    """The chords from X[k] to Y[k] at n segments, (K, n+1, d).

    Each chord has the bits of np.linspace(X[k], Y[k], n + 1), whose
    branch for a zero step in any coordinate is taken leg by leg here.
    """
    D = Y - X
    step = D / n
    k = np.arange(n + 1.0)[:, None]
    P = np.where((step == 0).any(axis=1)[:, None, None], k / n * D[:, None],
                 k * step[:, None]) + X[:, None]
    P[:, -1] = Y
    return P


def _validate_endpoint(model, z, name):
    z = _check_point(model, z, name)
    # NotSPD where the metric is singular, ValueError where it overflows
    with np.errstate(all="ignore"):
        G = inverse_metric_batch(model, z[None])
    if not np.isfinite(G).all():
        raise ValueError(f"the metric at {name} = {z} leaves the float range")
    return z


def _starts(model, x, y, opts: SolverOptions) -> list:
    """Starts of a solve from x to y: None for the chord, then the
    multi_start - 1 perturbed chords whose energy is finite.  A perturbed
    chord that leaves the domain is dropped, under every model."""
    inits = [None]
    for j in range(1, opts.multi_start):
        rng = np.random.Generator(np.random.Philox(key=[0x9E3779B9, j]))
        pts = _chords(x[None], y[None], opts.n)[0]
        scale = 0.05 * max(float(np.abs(y - x).max()), 1e-6)
        bump = np.sin(np.pi * np.linspace(0, 1, opts.n + 1))[1:-1, None]
        pts[1:-1] += scale * bump * rng.standard_normal((opts.n - 1, pts.shape[1]))
        if np.isfinite(_energy_of(model, pts)):
            inits.append(pts)
    return inits


def _solve_legs(model, X, Y, opts: SolverOptions, inits):
    """Solve the legs X[k] -> Y[k] as one stack at opts.n segments.

    inits[k] is a point array to warm-start leg k from, resampled to opts.n
    segments with its ends pinned to X[k] and Y[k], or None for a cold
    start from the chord.  Every start and the chord of every warm leg are
    evaluated once, with the jet, in one batch, and a warm start whose
    energy is not finite starts from its chord's row instead.  A leg's
    tolerance is grad_tol, or grad_tol_rel times the energy of its chord.
    Returns
    (P, E, grad_sup, iters, stalled, short) per leg; short marks a leg that
    spent max_iter above its tolerance without stalling, which raises
    NoConvergence when opts.strict.
    """
    n, K = opts.n, len(X)
    chords = _chords(X, Y, n)
    warm = np.array([init is not None for init in inits], dtype=bool)
    w = np.flatnonzero(warm)
    # rows K on hold the chords of the warm legs
    chord = np.arange(K)
    chord[w] = K + np.arange(w.size)
    P = np.concatenate([chords, chords[w]])
    for k in w:
        init = inits[k]
        P[k] = init if init.shape[0] == n + 1 else _resample(init, n)
    P[w, 0], P[w, -1] = X[w], Y[w]
    E, grads = _priced(model, P)
    g, T = grads()
    chord_E = E[chord]
    # a warm start whose energy is not finite starts from its chord's row
    warm &= np.isfinite(E[:K])
    if w.size:
        rows = np.where(warm, np.arange(K), chord)
        P, E, g, T = P[rows], E[rows], g[rows], T[..., rows, :]
    # the chords in use: every leg's when the tolerances come from them,
    # else the cold legs', which start there
    if opts.grad_tol is not None:
        tol = np.full(K, float(opts.grad_tol))
        chord_E = chord_E[~warm]
    else:
        tol = opts.grad_tol_rel * chord_E
    if not np.all(np.isfinite(chord_E)):
        raise OutsideDomain("initial chord leaves the domain; supply an explicit init path")
    P, E, gsup, iters, stalled = _minimize_level(model, P, tol, opts.max_iter, (E, g, T))
    short = (iters >= opts.max_iter) & (gsup > tol) & ~stalled
    if opts.strict and short.any():
        k = int(np.argmax(short))
        raise NoConvergence(
            f"{iters[k]} iterations, gradient sup-norm {gsup[k]:.3e} > {tol[k]:.3e}"
        )
    return P, E, gsup, iters, stalled, short


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
        pts = np.array(_check_path(model, init), dtype=float)
        if pts.shape[0] != opts.n + 1:
            pts = _resample(pts, opts.n)
        if not np.isfinite(_energy_of(model, pts)):
            raise OutsideDomain(f"init path at {opts.n} segments leaves the domain "
                                "or meets a singular metric")
        inits = [pts]
    else:
        inits = _starts(model, x, y, opts)

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
