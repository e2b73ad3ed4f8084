"""Monte Carlo validation of exit exponents on pinned diffusions.

Constant-covariance bridges are sampled exactly (sequential Gaussian
conditioning).  The crossing estimator needs only the signed distance to the
barrier, and under a constant covariance that distance is itself an exact
one-dimensional Brownian bridge with variance rate q along the barrier
normal, so it is simulated alone.  Between consecutive points with signed
distances u, u' that bridge crosses with probability exp(-2 u u' N / (t q)),
so the per-step correction is exact, not leading-order.  It is realized as
one Bernoulli draw per path, u < 1 - prod_i (1 - p_i), which has the law of
"some per-step Bernoulli fires" and keeps the estimator a plain mean of
indicators.

Determinism contract: every batch of paths owns a counter-based generator
keyed by (seed, stream, batch index), draws from it in a fixed order, and
batches are merged by summing counts.  An exact Gaussian batch draws its
normals step by step, one (paths, dimension) row per step including the
unused row of the last step, then one uniform per path; a volatility-model
batch draws all of its normals, then its uniforms.  Estimates are therefore
bitwise identical for any number of worker threads.

Every estimate runs on one batch driver, _map_batches, which calls
run(gen, n) once per batch and returns the results in batch order.  Each
sampler is one step generator (_bridge_steps, _hw_steps): it yields the
states of the whole batch, start point first, drawing normals as it goes.  An
estimator watches the barrier over those states and a path sampler keeps
them, so a new sampler plugs in as one more step generator.

Volatility-model bridges have no exact sampler here; they are produced by
forward simulation (exact lognormal volatility, Euler log-price) and
rejection onto an endpoint ball of radius eps, which biases results at
O(eps) and is priced accordingly: a fixed attempt budget is spent in full,
and the estimate reports how many paths were actually accepted.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateCorrelation,
    DegenerateEstimate,
    NotSPD,
    RejectionBudgetExceeded,
)
from .exits import Hyperplane, _as_plane
from .paths import DiscretePath, format_sig

__all__ = [
    "RngSpec",
    "CrossingEstimate",
    "LdFit",
    "sample_gaussian_bridge",
    "crossing_probability",
    "crossing_curve",
    "brownian_crossing_exact",
    "ld_slope",
    "sample_hw_bridge_rejection",
    "hw_crossing_probability",
    "estimates_to_csv",
]

DEFAULT_BATCH = 16384
CI_FACTOR = 1.96


@dataclass(frozen=True)
class RngSpec:
    """Root of the deterministic stream tree: (seed, stream, batch) -> Philox."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if not 0 <= int(self.stream) < 2**32:
            raise ValueError("stream must fit in 32 bits")

    def batch_generator(self, batch_index: int) -> np.random.Generator:
        if not 0 <= int(batch_index) < 2**32:
            raise ValueError("batch index must fit in 32 bits")
        key = np.array(
            [int(self.seed), (int(self.stream) << 32) | int(batch_index)],
            dtype=np.uint64,
        )
        return np.random.Generator(np.random.Philox(key=key))

    def with_stream(self, stream: int) -> "RngSpec":
        return RngSpec(self.seed, stream)


@dataclass(frozen=True)
class CrossingEstimate:
    t: float
    n_paths: int
    p_hat: float
    ci_half_width: float
    exponent: float
    seed: int


@dataclass(frozen=True)
class LdFit:
    """Linear fit of -t log p against t: intercept is the t -> 0 exponent."""

    intercept: float
    slope: float
    max_residual: float


def _finish_estimate(t, n_paths, hits, seed) -> CrossingEstimate:
    p_hat = hits / n_paths
    ci = CI_FACTOR * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n_paths)
    exponent = -t * math.log(p_hat) if p_hat > 0.0 else math.inf
    return CrossingEstimate(
        t=float(t),
        n_paths=int(n_paths),
        p_hat=float(p_hat),
        ci_half_width=float(ci),
        exponent=float(exponent),
        seed=int(seed),
    )


def _require_positive(**counts) -> None:
    for name, n in counts.items():
        if n < 1:
            raise ValueError(f"{name} must be at least 1")


def _require_horizon(t: float) -> None:
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"horizon must be finite and positive; got {t}")


def _map_batches(rng: RngSpec, n_total: int, batch_size: int, workers: int,
                 run):
    """run(gen, n) over batches of at most batch_size of n_total paths.

    Batch k draws from rng.batch_generator(k).  Results come in batch order:
    on a thread pool when workers > 1 and there is more than one batch,
    otherwise lazily, so a serial caller may stop at the first it needs.
    """
    _require_positive(batch_size=batch_size)
    starts = range(0, n_total, batch_size)

    def job(k):
        return run(rng.batch_generator(k), min(batch_size, n_total - starts[k]))

    if workers <= 1 or len(starts) <= 1:
        return map(job, range(len(starts)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(job, range(len(starts))))


def _barrier_distances(boundary, x, y):
    """The barrier as a hyperplane, and the signed distances of x and y."""
    plane = _as_plane(boundary, len(x))
    if plane is None:
        raise ValueError("Monte Carlo barriers must be hyperplanes")
    return (plane, float(plane.normal @ x - plane.offset),
            float(plane.normal @ y - plane.offset))


def _var_rate(plane: Hyperplane, cov: np.ndarray) -> float:
    """Variance rate of the diffusion along the barrier normal."""
    var_rate = float(plane.normal @ cov @ plane.normal)
    if var_rate <= 0.0:
        raise DegenerateCorrelation(
            "covariance has no variance along the barrier normal"
        )
    return var_rate


# ---- Exact Gaussian bridge ---- #


def _chol(cov: np.ndarray) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    cov = 0.5 * (cov + cov.T)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise NotSPD("covariance is not positive definite") from None


def _bridge_steps(x, y, t, L, n_steps, n, gen):
    """States of n exact bridge paths: x, then the state after each step.

    Step i draws its (n, d) normals when it is reached.  The last step lands
    on y and uses no normals, but its row is still drawn before y is
    yielded, so whatever the caller draws next follows n_steps rows.  The
    yielded states alternate between two buffers that are updated in place:
    a state is valid until the one after the next is yielded, and a caller
    that keeps states must copy them.
    """
    d = len(x)
    ds = 1.0 / n_steps
    xi = np.empty((n, d))
    z = np.broadcast_to(x, (n, d)).copy()
    nxt = np.empty((n, d))
    yield z
    for i in range(n_steps - 1):
        s_i = i * ds
        step_var = t * ds * (1.0 - (i + 1) * ds) / (1.0 - s_i)
        gen.standard_normal(out=xi)
        np.subtract(y, z, out=nxt)
        nxt *= ds / (1.0 - s_i)
        nxt += z
        if d == 1:
            # xi @ L.T with the bits of one scalar product per entry
            xi *= L[0, 0]
            xi *= math.sqrt(max(step_var, 0.0))
            nxt += xi
        else:
            nxt += math.sqrt(max(step_var, 0.0)) * (xi @ L.T)
        z, nxt = nxt, z
        yield z
    gen.standard_normal(out=xi)
    nxt[:] = y
    yield nxt


def sample_gaussian_bridge(x, y, t: float, cov, n_steps: int,
                           rng: RngSpec) -> DiscretePath:
    """One exact bridge path from x to y over horizon t with covariance cov."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _require_horizon(t)
    _require_positive(n_steps=n_steps)
    states = _bridge_steps(x, y, t, _chol(cov), n_steps, 1,
                           rng.batch_generator(0))
    return DiscretePath(np.concatenate([z.copy() for z in states]))


def crossing_probability(
    x,
    y,
    t: float,
    cov,
    boundary,
    n_paths: int,
    n_steps: int,
    rng: RngSpec,
    workers: int = 1,
    batch_size: int = DEFAULT_BATCH,
    per_step_correction: bool = True,
) -> CrossingEstimate:
    """Probability that the bridge from x to y touches the barrier before t.

    Simulates only the signed distance delta = n.z - c, an exact 1-D bridge
    with variance rate q = n'.cov.n.  With per_step_correction a path
    crosses when one uniform u < 1 - prod_i (1 - p_i), where
    p_i = exp(-2 delta_i delta_{i+1} N / (t q)) is the exact crossing law of
    step i; without it, when delta changes sign at a step.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _require_horizon(t)
    _require_positive(n_paths=n_paths, n_steps=n_steps, batch_size=batch_size)
    cov = np.asarray(cov, dtype=float)
    _chol(cov)  # NotSPD even when every path crosses
    plane, s_x, s_y = _barrier_distances(boundary, x, y)
    if s_x * s_y <= 0.0:
        # An endpoint touches or the endpoints straddle: every path crosses.
        return CrossingEstimate(float(t), int(n_paths), 1.0, 0.0, 0.0,
                                int(rng.seed))
    var_rate = _var_rate(plane, cov)
    lam = -2.0 * n_steps / (t * var_rate)
    root_q = np.array([[math.sqrt(var_rate)]])

    def run(gen, n):
        states = _bridge_steps(np.array([s_x]), np.array([s_y]), t, root_q,
                               n_steps, n, gen)
        delta_prev = next(states)[:, 0]
        arg = np.empty(n)
        if not per_step_correction:
            crossed = np.zeros(n, dtype=bool)
            for z in states:
                np.multiply(delta_prev, z[:, 0], out=arg)
                crossed |= arg <= 0.0
                delta_prev = z[:, 0]
            return int(crossed.sum())
        # survive holds prod_i expm1(.) = (-1)^n_steps prod_i (1 - p_i):
        # negation is exact, so the sign is fixed once at the end
        survive = np.ones(n)
        for z in states:
            np.multiply(delta_prev, lam, out=arg)
            arg *= z[:, 0]
            np.minimum(arg, 0.0, out=arg)
            survive *= np.expm1(arg, out=arg)
            delta_prev = z[:, 0]
        if n_steps % 2:
            survive += 1.0
        else:
            np.subtract(1.0, survive, out=survive)
        return int((gen.random(n) < survive).sum())

    hits = sum(_map_batches(rng, n_paths, batch_size, workers, run))
    return _finish_estimate(t, n_paths, hits, rng.seed)


def crossing_curve(
    x,
    y,
    t_list,
    cov,
    boundary,
    n_paths: int,
    n_steps: int,
    rng: RngSpec,
    workers: int = 1,
    batch_size: int = DEFAULT_BATCH,
    per_step_correction: bool = True,
) -> list[CrossingEstimate]:
    """One estimate per horizon; horizon k uses stream rng.stream + k."""
    return [
        crossing_probability(
            x, y, float(t), cov, boundary, n_paths, n_steps,
            rng.with_stream(rng.stream + k), workers=workers,
            batch_size=batch_size, per_step_correction=per_step_correction,
        )
        for k, t in enumerate(t_list)
    ]


def brownian_crossing_exact(x, y, t: float, cov, boundary) -> float:
    """Exact barrier-touch probability for the constant-covariance bridge."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _require_horizon(t)
    cov = np.asarray(cov, dtype=float)
    _chol(cov)  # NotSPD even when the endpoints straddle
    plane, s_x, s_y = _barrier_distances(boundary, x, y)
    if s_x * s_y <= 0.0:
        return 1.0
    var_rate = _var_rate(plane, cov)
    return float(np.exp(-2.0 * s_x * s_y / (t * var_rate)))


# ---- Slope extraction ---- #


def ld_slope(estimates) -> LdFit:
    """Fit -t log p_hat = J + slope * t over a family of shrinking horizons.

    Needs at least three distinct horizons.  Refuses empty-count estimates
    with a hint about the largest exponent resolvable at that horizon.
    """
    ests = sorted(estimates, key=lambda e: -e.t)
    if len(ests) < 3:
        raise ValueError("need at least three horizons to fit a slope")
    ts = np.array([e.t for e in ests])
    if len(np.unique(ts)) != len(ts):
        raise ValueError("horizons must be distinct")
    for e in ests:
        if e.p_hat <= 0.0 or not math.isfinite(e.exponent):
            cap = e.t * math.log(max(e.n_paths, 2))
            raise DegenerateEstimate(
                f"no crossings observed at t = {e.t:g}: with {e.n_paths} paths "
                f"the largest resolvable exponent there is about {cap:.3g}; "
                "drop that horizon or increase n_paths"
            )
    zs = np.array([e.exponent for e in ests])
    slope, intercept = np.polyfit(ts, zs, 1)
    fit = intercept + slope * ts
    return LdFit(
        intercept=float(intercept),
        slope=float(slope),
        max_residual=float(np.max(np.abs(fit - zs))),
    )


# ---- Volatility-model bridges by rejection ---- #


def _hw_steps(sigma_vol, rho, b, mu, x, t, n_steps, n, gen):
    """States (X, v, v at step start) of n forward volatility-model paths:
    x, then the state after each step.

    The volatility factor is advanced by its exact lognormal solution on each
    step, the log-price by Euler with the step-initial volatility; the same
    normal increment drives both, which preserves the instantaneous
    correlation.  All normals are drawn before the first state is yielded.
    """
    rho_bar = math.sqrt(1.0 - rho * rho)
    dt = t / n_steps
    sdt = math.sqrt(dt)
    xi = gen.standard_normal((n_steps, n, 2))
    X = np.full(n, float(x[0]))
    v = np.full(n, float(x[1]))
    yield X, v, v
    vol_drift = (mu - 0.5 * sigma_vol * sigma_vol) * dt
    for i in range(n_steps):
        dW = sdt * xi[i, :, 0]
        dZ = sdt * xi[i, :, 1]
        v0 = v
        X = X + (b - 0.5 * v0 * v0) * dt + v0 * (rho * dW + rho_bar * dZ)
        v = v0 * np.exp(sigma_vol * dW + vol_drift)
        yield X, v, v0


def sample_hw_bridge_rejection(
    sigma_vol: float,
    rho: float,
    b: float,
    mu: float,
    x,
    y,
    t: float,
    n_steps: int,
    rng: RngSpec,
    eps: float,
    max_attempts: int = 200000,
    batch_size: int = 2048,
) -> DiscretePath:
    """One approximate volatility-model bridge: forward paths, accept the
    first whose endpoint lands within eps of y.  Endpoint bias is O(eps)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    _require_horizon(t)
    _require_positive(n_steps=n_steps)

    def run(gen, n):
        states = list(_hw_steps(sigma_vol, rho, b, mu, x, t, n_steps, n, gen))
        X, v, _ = states[-1]
        hit = (X - y[0]) ** 2 + (v - y[1]) ** 2 <= eps * eps
        if not hit.any():
            return None
        j = int(np.argmax(hit))
        return DiscretePath(np.array([(Xs[j], vs[j]) for Xs, vs, _ in states]))

    for path in _map_batches(rng, max_attempts, batch_size, 1, run):
        if path is not None:
            return path
    raise RejectionBudgetExceeded(
        f"no endpoint landed within eps = {eps:g} of y after {max_attempts} "
        "attempts; widen eps or raise the budget"
    )


def hw_crossing_probability(
    sigma_vol: float,
    rho: float,
    b: float,
    mu: float,
    x,
    y,
    t: float,
    boundary,
    n_attempts: int,
    n_steps: int,
    rng: RngSpec,
    eps: float,
    min_accepted: int = 100,
    workers: int = 1,
    batch_size: int = 8192,
    per_step_correction: bool = True,
) -> CrossingEstimate:
    """Barrier-touch probability for the approximate volatility-model bridge.

    Spends the full attempt budget (deterministic for any worker count) and
    estimates over the accepted paths; n_paths in the result is the accepted
    count.  Raises when fewer than min_accepted paths land in the endpoint
    ball.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    _require_horizon(t)
    _require_positive(n_attempts=n_attempts, n_steps=n_steps,
                      min_accepted=min_accepted)
    plane, s_x, s_y = _barrier_distances(boundary, x, y)
    if abs(plane.normal[0]) != 1.0:
        raise ValueError("volatility-model barriers must be vertical")
    if s_x * s_y <= 0.0:
        return CrossingEstimate(float(t), int(n_attempts), 1.0, 0.0, 0.0,
                                int(rng.seed))
    x0 = plane.offset / plane.normal[0]
    dt = t / n_steps

    def run(gen, n):
        states = _hw_steps(sigma_vol, rho, b, mu, x, t, n_steps, n, gen)
        X = next(states)[0]
        uni = gen.random((n_steps, n)) if per_step_correction else None
        delta_prev = X - x0
        crossed = np.zeros(n, dtype=bool)
        for i, (X, v, v0) in enumerate(states):
            delta = X - x0
            if per_step_correction:
                arg = np.minimum(-2.0 * delta_prev * delta / (v0 * v0 * dt), 0.0)
                crossed |= uni[i] < np.exp(arg)
            else:
                crossed |= delta_prev * delta <= 0.0
            delta_prev = delta
        hit = (X - y[0]) ** 2 + (v - y[1]) ** 2 <= eps * eps
        return int(hit.sum()), int((hit & crossed).sum())

    batches = _map_batches(rng, n_attempts, batch_size, workers, run)
    accepted, hits = map(sum, zip(*batches))
    if accepted < min_accepted:
        raise RejectionBudgetExceeded(
            f"only {accepted} of {n_attempts} attempts landed within "
            f"eps = {eps:g} of y (need {min_accepted}); widen eps or raise "
            "the budget"
        )
    return _finish_estimate(t, accepted, hits, rng.seed)


# ---- Serialization ---- #


def estimates_to_csv(estimates, extrapolated: float | None = None,
                     analytic_J: float | None = None) -> str:
    """CSV table of estimates; fit and reference columns repeat per row."""
    lines = ["t,n_paths,p_hat,ci_half_width,exponent,seed,"
             "extrapolated_exponent,analytic_J"]
    ex = format_sig(extrapolated) if extrapolated is not None else ""
    aj = format_sig(analytic_J) if analytic_J is not None else ""
    for e in estimates:
        lines.append(
            ",".join(
                [
                    format_sig(e.t),
                    str(e.n_paths),
                    format_sig(e.p_hat),
                    format_sig(e.ci_half_width),
                    format_sig(e.exponent) if math.isfinite(e.exponent) else "inf",
                    str(e.seed),
                    ex,
                    aj,
                ]
            )
        )
    return "\n".join(lines) + "\n"
