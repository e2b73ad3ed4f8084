"""Path samplers over the Monte Carlo step generators, for the tests.

Each keeps the states that bridgeexit.montecarlo's step generators yield
(_bridge_steps, _hw_steps) as one DiscretePath, with the draws of the
estimators: the tests check the samplers' laws and pin their bits, and so
pin the draw order that the estimators share.
"""

import numpy as np

from bridgeexit import DiscretePath, RejectionBudgetExceeded, RngSpec
from bridgeexit.montecarlo import (
    _bridge_steps,
    _chol,
    _hw_steps,
    _map_batches,
    _require_horizon,
    _require_positive,
)


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
