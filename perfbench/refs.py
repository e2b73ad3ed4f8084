"""Reference values the benchmark checks the library against.

Written from the formulas, not from the library: the half-plane distance
after the (sigma_vol, rho) change of coordinates, the reflection identity
for uncorrelated vertical barriers, a dense scan plus Brent refinement for
everything else under the volatility geometry, and the whitened reflection
for frozen (constant) metrics.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize_scalar


def _half_plane(sv, rho, p):
    p = np.asarray(p, dtype=float)
    rb = math.sqrt(1.0 - rho * rho)
    return np.stack([(p[..., 0] - rho * p[..., 1] / sv) / rb, p[..., 1] / sv], axis=-1)


def _poincare(P, Q):
    u = ((P[..., 0] - Q[..., 0]) ** 2 + (P[..., 1] - Q[..., 1]) ** 2) / (
        2.0 * P[..., 1] * Q[..., 1])
    return np.log1p(u + np.sqrt(u * (u + 2.0)))


def vol_distance(sv, rho, p, q):
    """Distance of the metric a^{-1}, a = v^2 [[1, rho sv], [rho sv, sv^2]]."""
    return _poincare(_half_plane(sv, rho, p), _half_plane(sv, rho, q)) / sv


def vertical_reflection(sv, x, y, x0):
    """(J, z*) for an uncorrelated model against the line r = x0."""
    X = _half_plane(sv, 0.0, x)
    Y = _half_plane(sv, 0.0, y)
    Yr = np.array([2.0 * x0 - Y[0], Y[1]])
    S = _poincare(X, Yr) / sv
    D = _poincare(X, Y) / sv
    c = ((Yr[0] ** 2 + Yr[1] ** 2) - (X[0] ** 2 + X[1] ** 2)) / (2.0 * (Yr[0] - X[0]))
    r2 = (X[0] - c) ** 2 + X[1] ** 2
    return 0.5 * (S * S - D * D), np.array([x0, sv * math.sqrt(r2 - (x0 - c) ** 2)])


def line_scan(sv, rho, x, y, normal, offset):
    """(J, z*) against {normal . z = offset} by minimizing over log v.

    The line is parametrized by its volatility coordinate, so normal[0]
    must be nonzero.
    """
    n0, n1 = float(normal[0]), float(normal[1])
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def points(lam):
        v = np.exp(lam)
        return np.stack([(offset - n1 * v) / n0, v], axis=-1)

    def total(lam):
        z = points(lam)
        return vol_distance(sv, rho, x, z) + vol_distance(sv, rho, z, y)

    lo = math.log(min(x[1], y[1])) - 8.0
    hi = math.log(max(x[1], y[1])) + 8.0
    grid = np.linspace(lo, hi, 20001)
    j = int(np.argmin(total(grid)))
    res = minimize_scalar(lambda lam: float(total(lam)), method="bounded",
                          bounds=(grid[max(j - 1, 0)], grid[min(j + 1, len(grid) - 1)]),
                          options={"xatol": 1e-12})
    S = float(res.fun)
    D = float(vol_distance(sv, rho, x, y))
    return 0.5 * (S * S - D * D), points(res.x)


def vol_covariance(sv, rho, z):
    v2 = float(z[1]) ** 2
    return v2 * np.array([[1.0, rho * sv], [rho * sv, sv * sv]])


def frozen_reflection(cov, x, y, normal, offset):
    """(J, z*) for a constant covariance: 2 s_x s_y / (n' a n) and the
    crossing of the chord from x to the metric reflection of y."""
    n = np.asarray(normal, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s_x = float(n @ x - offset)
    s_y = float(n @ y - offset)
    q = float(n @ cov @ n)
    y_ref = y - 2.0 * s_y * (cov @ n) / q
    return 2.0 * s_x * s_y / q, x + s_x / (s_x + s_y) * (y_ref - x)
