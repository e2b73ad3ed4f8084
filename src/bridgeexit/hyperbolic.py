"""Closed-form geometry of the upper half-plane and its volatility images.

The half-plane {(x, y): y > 0} with metric (dx^2 + dy^2)/y^2 is the geometry
induced by a log-price whose local volatility equals the second coordinate
(unit vol-of-vol, zero correlation).  Geodesics are half-circles centered on
the horizontal axis, plus vertical lines.  The correlated/scaled variant with
vol-of-vol sigma_vol and correlation rho is isometric to the half-plane, up to
an overall factor, through the linear map

    A = [[1/rb, -rho/(sigma_vol*rb)],
         [0,    1/sigma_vol        ]],      rb = sqrt(1 - rho^2),

and distances pull back as  d_vol(p, q) = poincare_distance(A p, A q) / sigma_vol.
That scaling was checked two ways: pulling the half-plane metric back through A
reproduces sigma_vol^2 times the inverse diffusion matrix, and the resulting
distances match the generic path-energy minimizer (see tests).  A tempting
shear substitution (x, y) -> (rb*x + rho*y, y) does NOT have this property;
the tests pin that failure down.

A plane of the state space maps to a line of the half-plane, so where a
geodesic crosses it, and the minimizer of a reflection across a vertical
line, are one circle-line intersection (_arc_line).  It is formed from the
power of the point where the line cuts the chord, in sums and products:
no radius is squared, and its bits do not depend on libm's pow.  A
geodesic is drawn by sample_arc in the half-plane; the exit engine's
volatility oracle maps those samples back to the state space itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoincidentPoints, DegenerateCorrelation, EndpointsStraddleBarrier
from .paths import DiscretePath

__all__ = [
    "poincare_distance",
    "GeodesicArc",
    "geodesic_arc",
    "sample_arc",
    "barrier_infimum_vertical",
    "hw_transform",
    "hw_distance",
]

# Series fallback threshold for acosh(1 + u); below this the log form loses
# roughly half the significant digits to cancellation.
_ACOSH_SERIES_CUTOFF = 1e-8
# Above this, acosh(1 + u) is taken as log(u) + log1p(...): u*(u + 2)
# overflows once u passes about 1.3e154.
_ACOSH_LOG_CUTOFF = 2.0**500
# Below this (the smallest normal float), 2 p_y q_y has lost digits, and the
# acosh argument is formed from |p - q| instead.
_MIN_NORMAL = 2.0**-1022


def _check_half_plane(p, name: str, rows: bool = False) -> np.ndarray:
    """p as a float array: one point of the half-plane, or with rows=True
    also an (n, 2) array of points.

    One point, or one row, is checked in Python floats: the numpy checks
    would cost more than the distance itself.
    """
    p = np.asarray(p, dtype=float)
    if p.shape == (2,) or rows and p.shape == (1, 2):
        px, py = p.reshape(2).tolist()
        if not (math.isfinite(px) and math.isfinite(py)):
            raise ValueError(f"{name} must be finite")
        if py <= 0.0:
            raise ValueError(f"{name} must have positive second coordinate, got {py}")
        return p
    if not (rows and p.ndim == 2 and p.shape[1] == 2):
        raise ValueError(f"{name} must be a point of the plane, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError(f"{name} must be finite")
    lowest = p[1] if p.ndim == 1 else p[:, 1].min(initial=np.inf)
    if lowest <= 0.0:
        raise ValueError(f"{name} must have positive second coordinate, got {lowest}")
    return p


def _acosh1p(u):
    """acosh(1 + u), elementwise for u >= 0, without forming 1 + u - 1.

    u is a float or a numpy array.  Uses log(w + sqrt(w^2 - 1)) written as
    log1p(u + sqrt(u*(u + 2))), with a square-root series below
    _ACOSH_SERIES_CUTOFF where even the log1p form has nothing left to
    work with, and log(u) + log1p(1/u + sqrt(1 + 2/u)) above
    _ACOSH_LOG_CUTOFF, where u*(u + 2) would overflow.
    """
    small = u < _ACOSH_SERIES_CUTOFF
    large = u > _ACOSH_LOG_CUTOFF
    edge = small | large
    if not (edge if isinstance(edge, bool) else edge.any()):
        return np.log1p(u + np.sqrt(u * (u + 2.0)))
    mid = np.where(edge, 1.0, u)
    s = np.where(small, u, 0.0)
    w = np.where(large, u, 1.0)
    out = np.where(large, np.log(w) + np.log1p(1.0 / w + np.sqrt(1.0 + 2.0 / w)),
                   np.log1p(mid + np.sqrt(mid * (mid + 2.0))))
    return np.where(small, np.sqrt(2.0 * s) * (1.0 - s / 12.0 + 3.0 * s * s / 160.0),
                    out)


def _poincare(p, q):
    """The half-plane distance of two points, or row by row, unchecked;
    for points of the half-plane the acosh argument is >= 1.

    One pair, as points or as one-row arrays (a one-point scan step), is
    computed in Python floats: they give the bits of numpy scalars sooner,
    and an overflow is a silent inf.  Where u reads inf or nan, or the
    denominator 2 p_y q_y is below the normal range, u is formed again from
    hypot(h = |p - q|) as (h / p_y)(h / q_y) / 2, which holds every finite
    u; where even that u overflows (distances past about 710), the distance
    is log(2 u) = 2 log h - log p_y - log q_y, exact to double precision
    there.
    """
    if p.size == 2 and q.size == 2:
        (px, py), (qx, qy) = p.reshape(2).tolist(), q.reshape(2).tolist()
        dx = qx - px
        dy = qy - py
        den = 2.0 * py * qy
        u = (dx * dx + dy * dy) / den if den >= _MIN_NORMAL else math.inf
        if not u < math.inf and py and qy:
            h = math.hypot(dx, dy)
            u = 0.5 * (h / py) * (h / qy)
        if u < math.inf:
            d = _acosh1p(u)
        elif py and qy:
            d = 2.0 * math.log(h) - math.log(py) - math.log(qy)
        else:  # a height that underflowed to 0 lies at infinity, as the rows read it
            d = math.inf
        return d if p.ndim == q.ndim == 1 else np.array([d])
    px, py = p.T
    qx, qy = q.T
    dx = qx - px
    dy = qy - py
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        den = 2.0 * py * qy
        u = (dx * dx + dy * dy) / den
    if u.max(initial=0.0) < np.inf and den.min(initial=np.inf) >= _MIN_NORMAL:
        return _acosh1p(u)
    h = np.hypot(dx, dy)
    with np.errstate(over="ignore", divide="ignore"):
        u = np.where((u < np.inf) & (den >= _MIN_NORMAL), u, 0.5 * (h / py) * (h / qy))
        far = ~(u < np.inf)
        log_far = 2.0 * np.log(h) - np.log(py) - np.log(qy)
    return np.where(far, log_far, _acosh1p(np.where(far, 1.0, u)))


def _line_slope(A, anchor, tangent, P, Q):
    """slope(theta) = (f', f'') of the half-plane leg sum f = d(P, Z) + d(Z, Q)
    along Z = A a + theta A t, the image of the line a + theta t, in Python
    floats; not finite where a term overflows or Z leaves the half-plane.
    A leg is acosh(1 + u), u = |D|^2 / (2 P_w Z_w), D = Z - P: with
    s = sqrt(u (u + 2)), u' = (D.T - u P_w T_w) / (P_w Z_w) and
    u'' = (T.T - 2 u' P_w T_w) / (P_w Z_w), its derivatives are u' / s and
    (u'' - (u' / s)^2 (u + 1)) / s.  The volatility leg sum is f / sigma_vol,
    with the same roots and Newton steps."""
    (a00, a01), (a10, a11) = A.tolist()
    (a0, a1), (t0, t1) = anchor.tolist(), tangent.tolist()
    zu0, zw0 = a00 * a0 + a01 * a1, a10 * a0 + a11 * a1
    tu, tw = a00 * t0 + a01 * t1, a10 * t0 + a11 * t1
    tt = tu * tu + tw * tw
    ends = (P.tolist(), Q.tolist())

    def slope(theta):
        zu, zw = zu0 + theta * tu, zw0 + theta * tw
        g = h = 0.0
        for pu, pw in ends:
            du, dw = zu - pu, zw - pw
            den = pw * zw
            if not 0.0 < den < math.inf:
                return math.nan, math.nan
            u = 0.5 * (du * du + dw * dw) / den
            u1 = (du * tu + dw * tw - u * pw * tw) / den
            u2 = (tt - 2.0 * u1 * pw * tw) / den
            s = math.sqrt(u) * math.sqrt(u + 2.0)
            if not s > 0.0:
                return math.nan, math.nan
            q = u1 / s
            g += q
            h += (u2 - q * q * (u + 1.0)) / s
        return g, h

    return slope


def _value(d):
    return float(d) if np.ndim(d) == 0 else d


def poincare_distance(p, q):
    """Hyperbolic distance between two points of the upper half-plane.

    d(p, q) = acosh(1 + |p - q|^2 / (2 p_y q_y)), with |.| Euclidean.
    The argument of acosh is assembled directly from the squared Euclidean
    distance so no cancellation occurs for nearby points.  p and q may also
    be (n, 2) arrays of points, or one point against rows: the result is
    then the array of row-by-row distances, each bit for bit the distance
    of its two points.
    """
    p = _check_half_plane(p, "p", rows=True)
    q = _check_half_plane(q, "q", rows=True)
    return _value(_poincare(p, q))


@dataclass(frozen=True)
class GeodesicArc:
    """A complete geodesic, restricted to the range between two sample angles.

    kind "circle": half-circle centered at (center_x, 0) with the given
    radius; theta_a/theta_b are the endpoint angles in (0, pi) measured from
    the positive horizontal axis.  kind "vertical": the line x = center_x;
    theta_a/theta_b then hold the endpoint heights instead.
    """

    kind: str
    center_x: float
    radius: float
    theta_a: float
    theta_b: float


def geodesic_arc(p, q) -> GeodesicArc:
    """Geodesic through two distinct points of the half-plane.

    For p_x != q_x the unique half-circle centered on the axis through both
    points has center_x = (|q|^2 - |p|^2) / (2 (q_x - p_x)).  Equal abscissae
    give the vertical line.
    """
    p = _check_half_plane(p, "p")
    q = _check_half_plane(q, "q")
    if np.array_equal(p, q):
        raise CoincidentPoints("geodesic through a single point is not defined")
    if p[0] == q[0]:
        return GeodesicArc("vertical", p[0], np.inf, p[1], q[1])
    cx = (q[0] ** 2 + q[1] ** 2 - p[0] ** 2 - p[1] ** 2) / (2.0 * (q[0] - p[0]))
    r = float(np.hypot(p[0] - cx, p[1]))
    ta = float(np.arctan2(p[1], p[0] - cx))
    tb = float(np.arctan2(q[1], q[0] - cx))
    return GeodesicArc("circle", cx, r, ta, tb)


def sample_arc(p, q, n: int) -> DiscretePath:
    """n+1 points from p to q along their geodesic, equally spaced in
    hyperbolic length; n+1 copies of p where q = p.

    On a circle the arclength parameter is lam(theta) = log(tan(theta/2)); on
    a vertical line it is log(y).  Linear interpolation in lam therefore gives
    constant-speed samples exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if np.array_equal(p, q):
        return DiscretePath(np.tile(_check_half_plane(p, "p"), (n + 1, 1)))
    arc = geodesic_arc(p, q)  # checks p and q
    if arc.kind == "vertical":
        lam = np.linspace(np.log(arc.theta_a), np.log(arc.theta_b), n + 1)
        ys = np.exp(lam)
        pts = np.column_stack([np.full(n + 1, arc.center_x), ys])
    else:
        lam = np.linspace(np.log(np.tan(arc.theta_a / 2.0)),
                          np.log(np.tan(arc.theta_b / 2.0)), n + 1)
        theta = 2.0 * np.arctan(np.exp(lam))
        pts = np.column_stack(
            [arc.center_x + arc.radius * np.cos(theta), arc.radius * np.sin(theta)]
        )
    # Pin the endpoints exactly; the interior came through transcendentals.
    pts[0] = p
    pts[-1] = q
    return DiscretePath(pts)


def barrier_infimum_vertical(x, y, x0: float):
    """Minimize d(x, z) + d(z, y) over the vertical line z = (x0, .).

    Both endpoints must lie strictly on the same side.  Reflecting y across
    the line turns the broken path into a single geodesic, so the minimum is
    d(x, reflect(y)) and the minimizer is where that geodesic meets the line.

    Returns (z_star, path_sum).
    """
    x = _check_half_plane(x, "x")
    y = _check_half_plane(y, "y")
    sx = x[0] - x0
    sy = y[0] - x0
    if sx == 0.0 or sy == 0.0 or (sx > 0) != (sy > 0):
        raise EndpointsStraddleBarrier(
            f"endpoints must lie strictly on one side of x = {x0}"
        )
    # the mirror image overflows for a line near the float range
    y_ref = _check_half_plane(np.array([2.0 * x0 - y[0], y[1]]), "q")
    height = _arc_line(x, y_ref, sx, -sy, (1.0, 0.0))[1]  # the mirror's side is -sy
    return np.array([x0, height]), _value(_poincare(x, y_ref))


def _arc_line(P, Q, sp: float, sq: float, m) -> tuple[float, float]:
    """Where the geodesic through P and Q meets a line with normal m, from
    their sides sp and sq of it (of opposite signs), unchecked.  The line
    cuts the chord at M = (1 - s) P + s Q, s = sp / (sp - sq), where the
    circle's power is -g^2 = -s (1 - s) |Q - P|^2: along the line's unit
    direction T, t^2 + 2 T . (M - C) t - g^2 = 0 has a root of each sign, and
    the arc lies on the side of the chord away from the centre C."""
    (pu, pw), (qu, qw) = P.tolist(), Q.tolist()
    s, sbar = sp / (sp - sq), sq / (sq - sp)
    Mu, Mw = sbar * pu + s * qu, sbar * pw + s * qw
    du, dw = qu - pu, qw - pw
    if du == 0.0:  # the geodesic is the vertical line through P and Q
        return Mu, Mw
    norm = math.hypot(*m)
    Tu, Tw = -m[1] / norm, m[0] / norm
    b = Tw * Mw
    if Tu:  # a - M_u = (1/2 - s) du + dw (P_w + Q_w) / (2 du)
        b -= Tu * ((0.5 - s) * du + dw * ((pw + qw) / (2.0 * du)))
    g = math.sqrt(s * sbar) * math.hypot(du, dw)
    R = math.hypot(b, g)
    sign = 1.0 if (sq > 0.0) == (du > 0.0) else -1.0  # sign of T . (away from C)
    t = sign * R - b if sign * b <= 0.0 else g * (g / (b + sign * R))
    return Mu + t * Tu, Mw + t * Tw


def _mirror_gap(P, Q, u: float) -> float:
    """d(P, Q') - d(P, Q) for half-plane images P and Q strictly on one side
    of the vertical line u, Q' the mirror image of Q, unchecked.  With
    d = acosh(1 + v), the mirror's v exceeds Q's by
    delta = 2 (P_u - u)(Q_u - u) / (P_w Q_w) > 0, and the gap is a log1p of
    positive terms in delta, r = sqrt(v (v + 2)) and r'.  Past
    _ACOSH_LOG_CUTOFF, d = log(2 v) and the gap is log1p(delta / v); where
    v' passes 2^1000 it is the difference of the distances, above 300.
    Where 2 P_w Q_w is below the normal range, v is formed from h = |P - Q|
    as (h / P_w)(h / Q_w) / 2, as _poincare forms it.  Where v' underflows to
    0, P, Q and Q' coincide to within the underflow, and the gap is
    d(P, P') = 2 asinh(|P_u - u| / P_w)."""
    (pu, pw), (qu, qw) = P.tolist(), Q.tolist()
    dx, dy = qu - pu, qw - pw
    den = 2.0 * pw * qw
    if den >= _MIN_NORMAL:
        near = (dx * dx + dy * dy) / den
    else:
        h = math.hypot(dx, dy)
        near = 0.5 * (h / pw) * (h / qw)
    if not near < _ACOSH_LOG_CUTOFF:
        h = math.hypot(dx, dy)
        return math.log1p(4.0 * ((pu - u) / h) * ((qu - u) / h))
    delta = 2.0 * ((pu - u) / pw) * ((qu - u) / qw)
    far = near + delta
    if not far:
        return 2.0 * math.asinh(abs(pu - u) / pw)
    if not far < 2.0**1000:
        Q_ref = np.array([2.0 * u - qu, qw])
        return float(_poincare(P, Q_ref)) - float(_poincare(P, Q))
    r_near = math.sqrt(near) * math.sqrt(near + 2.0)
    r_far = math.sqrt(far) * math.sqrt(far + 2.0)
    return math.log1p(delta * (1.0 + (near + far + 2.0) / (r_near + r_far))
                      / (1.0 + near + r_near))


# ---- Correlated / scaled volatility plane ---- #


def hw_transform(sigma_vol: float, rho: float) -> np.ndarray:
    """Linear map taking the (sigma_vol, rho) geometry onto the half-plane."""
    if not math.isfinite(sigma_vol) or sigma_vol <= 0.0:
        raise ValueError(f"sigma_vol must be positive, got {sigma_vol}")
    if not math.isfinite(rho) or abs(rho) >= 1.0:
        raise DegenerateCorrelation(f"need |rho| < 1, got {rho}")
    rb = math.sqrt(1.0 - rho * rho)
    return np.array([[1.0 / rb, -rho / (sigma_vol * rb)], [0.0, 1.0 / sigma_vol]])


def hw_distance(sigma_vol: float, rho: float, p, q):
    """Exact distance for the correlated log-price/volatility geometry.

    Equals poincare_distance(A p, A q) / sigma_vol with A = hw_transform(...).
    The 1/sigma_vol factor is forced by the pullback: A carries the inverse
    diffusion matrix onto sigma_vol^2 times the half-plane metric.  Like
    poincare_distance, it takes rows of points as well and then returns
    the array of distances.  Each row is mapped by one stacked matmul, the
    form that reproduces A @ p bit for bit (P @ A.T and einsum do not).
    """
    A = hw_transform(sigma_vol, rho)
    p = _check_half_plane(p, "p", rows=True)
    q = _check_half_plane(q, "q", rows=True)
    return _hw_image_distance(_hw_image(A, p), _hw_image(A, q), sigma_vol)


def _hw_image(A: np.ndarray, p: np.ndarray) -> np.ndarray:
    """A p for a point, or row by row for rows of points: one stacked
    matmul, the form that reproduces A @ p bit for bit."""
    return (A @ p[..., None])[..., 0]


def _hw_image_distance(P: np.ndarray, Q: np.ndarray, sigma_vol: float):
    """hw_distance of two points, or row by row, from their half-plane
    images P = A p and Q = A q, unchecked: the engine's kernel."""
    return _value(_poincare(P, Q) / sigma_vol)
