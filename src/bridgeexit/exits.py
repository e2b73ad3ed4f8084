"""Exit exponents for pinned diffusions, and frozen-coefficient comparators.

For a diffusion conditioned to run from x to y over a short horizon t, the
probability of touching a boundary piece decays like exp(-J/t) with

    J = inf_z  (1/2) * ((d(x,z) + d(z,y))^2 - d(x,y)^2),    z on the boundary,

where d is the distance induced by the diffusion matrix.  The infimum is over
the boundary of the domain the bridge is supposed to stay in; J = 0 exactly
when the x-to-y geodesic already meets the boundary.  The crossing, when it
happens, concentrates at the minimizing point z_star and at the time fraction
u_bar = d(x,z*) / (d(x,z*) + d(z*,y)).

Both endpoints inside the domain and a complete metric are preconditions:
for an incomplete metric (boundary at finite distance) the exponent would be
meaningless, and such models are refused outright.  Whether the boundary is
reached at the open or closed exit time makes no difference at this level of
precision; the two exponents are treated as equal throughout.

Engine: one oracle per geometry times one boundary chart.  The oracle
(_oracle, the only code that tells the geometries apart) answers the
distances, the reflection formula, the x-to-y geodesic with its crossing of
a plane, a line's scan window, the scan and the legs of its result, and
the method name: through hw_distance's kernel and the half-plane for the
log-price/volatility geometry, the whitened norm for a constant geometry,
and the path optimizer otherwise (or under force_numeric); the engine
asks it, and tests no geometry.  Both closed forms give the crossing and
the reflection exactly: a chord under a constant geometry, and under the
volatility geometry one circle-line intersection in the image half-plane
(hyperbolic._arc_line).
The closed-form oracles check only that d(x, y) is finite: the entry points
check the endpoints once, the boundary is checked when it is built, and a
scan only measures points that pass the domain test.  No scan runs for an endpoint on the
plane, for endpoints on both sides (the geodesic's own crossing,
domain-tested once), or where the oracle has a reflection formula: a
vertical barrier under the uncorrelated volatility geometry (half-plane
reflection) and a hyperplane under a constant metric (whitened
reflection).  Every other case is one scan of d(x,z) + d(z,y) over a
chart -- a window along the line of a plane, or the samples of a
ParametricCurve -- by coarse samples and a refinement.  A line's
window, of any length, holds every point that could cost less than the
anchor: under the volatility and constant geometries the part of the
line within the anchor's leg sum of both endpoints, and under any other
model the part of the line inside the domain.  The closed-form oracles
measure a window's 256 samples in one call, bit for bit as one point at
a time, and each of Brent's steps at one point.  The path optimizer
measures only the samples whose Piyavskii-Shubert bound, over the split
legs, could still beat the best one, in rounds of one lockstep stack each
(_scan), with legs to SCAN_TOL; round 0's legs start from the shortest
paths of a lattice distance field (_lattice_field), the only use of
scipy.sparse, loaded there.  Its result's scan_gap is the relative
gap the bound certifies; it refines to the vertex of the quartic through
the five samples about the best (_refine), by Brent only where that
fails.  The legs and J of the result come from the oracle at z_star;
under the path optimizer the legs x-to-y, x-to-z_star and z_star-to-y
are one stack at the caller's options, started from the scan's paths of
those legs and solved to the tolerance of separate solves from the
chord; outside a scan, the legs at z_star are one cold stack, with the
bits of separate solves.  An endpoint on the plane takes d(x, y) and 0 as
its legs.  The frozen comparator is the same engine on the constant
geometry a(z0)^{-1}.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import BothZero, IncompleteModel, OutsideDomain
from .geodesic import (
    SolverOptions,
    _solve_legs,
    _starts,
    _validate_endpoint,
    path_energy,
    solve_geodesic,
)
from .hyperbolic import (
    _arc_line,
    _hw_image,
    _hw_image_distance,
    _mirror_gap,
    _poincare,
    hw_transform,
    sample_arc,
)
from .model import (
    ConstantGeometry,
    DiffusionModel,
    HullWhiteGeometry,
    _check_point,
    domain_test_batch,
    inverse_metric,
    inverse_metric_batch,
)
from .paths import DiscretePath

__all__ = [
    "Hyperplane",
    "VerticalBarrier",
    "ParametricCurve",
    "ExitAsymptotics",
    "FreezingRow",
    "FreezingComparison",
    "time_profile",
    "optimal_crossing_time",
    "exit_probability_equivalent",
    "model_distance",
    "pointwise_exit_cost",
    "bridge_rate",
    "exit_asymptotics",
    "frozen_exit_asymptotics",
    "compare_freezing",
]

# Share of the larger bracket side taken by a golden-section step.
GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0
# Absolute part of the bracket width at which refinement stops; the
# relative part is SQRT_EPS * |theta|.
GOLDEN_BRACKET = 1e-10
SQRT_EPS = math.sqrt(np.finfo(float).eps)
# J at or below this times max(1, d_xy^2) is reported as "geodesic exits".
EXIT_TOL = 1e-12
TOO_FAR = "the endpoints and the boundary are too far apart for float arithmetic"
# A solver scan first solves every SCAN_STRIDE-th sample of its window
# (and the last: 9 samples of 256, their legs started from the lattice
# field), then bisects the gaps whose Lipschitz bound comes within
# SCAN_GAP (relative) of the best sample; the bisected samples start warm
# from both neighbors, so a wide stride costs few iterations.  SCAN_PIECES
# pieces of an inscribed polygon measure each interval between adjacent
# samples, and a gap's length is the sum of its intervals'.
SCAN_STRIDE = 32
SCAN_GAP = 1e-3
SCAN_PIECES = 2
# The lattice field of a solver scan (_lattice_field): FIELD_NODES nodes a
# side, each joined to its 16 neighbours (the 8 of FIELD_STENCIL and their
# opposites).
FIELD_NODES = 17
FIELD_STENCIL = np.array([(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (2, -1)])
# A domain-bounded window narrows the bracket of each end by this factor
# per batch domain test, to adjacent floats in about seven batches.
LINE_SPLIT = 256
# A solver scan's legs meet at least SCAN_TOL times their chord energy in
# gradient: the argmin of its n = 50 legs lies 7e-5 to 1e-4 (in v) from
# that of the n = 200 legs the result reports (grid13, 3 seeds), which
# costs J 7-9e-9 relative, so tighter legs buy the result nothing.  Where
# the quartic cannot refine (_refine), Brent does, until its three best
# leg sums agree within SCAN_FLAT (relative).
SCAN_TOL = 1e-4
SCAN_FLAT = 1e-12


# ---- Boundary descriptions ---- #


@dataclass(frozen=True)
class Hyperplane:
    """Affine hyperplane {z : normal . z = offset}; normalized on construction."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        # scaled by a power of two to a largest entry in [1, 2), the squared
        # norm cannot overflow or underflow, and the quotients keep their bits
        e = 1 - math.frexp(max(map(abs, n.ravel().tolist()), default=0.0))[1]
        if e:
            n = np.ldexp(n, e)
        v = n.ravel()
        norm = math.sqrt(v.dot(v))  # np.linalg.norm's bits
        if not 0.0 < norm < math.inf:
            raise ValueError("hyperplane normal must be nonzero and finite")
        offset = float(self.offset)
        if not math.isfinite(offset):
            raise ValueError(f"hyperplane offset must be finite, got {offset}")
        if math.frexp(offset / norm)[1] + e > 1024:  # past the float range
            raise ValueError(f"hyperplane offset {offset} divided by the norm "
                             "leaves the float range")
        object.__setattr__(self, "normal", n / norm)
        object.__setattr__(self, "offset", math.ldexp(offset / norm, e))


@dataclass(frozen=True)
class VerticalBarrier:
    """The line {first coordinate = x0} in a two-dimensional state space."""

    x0: float

    def __post_init__(self):
        if not math.isfinite(self.x0):
            raise ValueError(f"vertical barrier x0 must be finite, got {self.x0}")


@dataclass(frozen=True)
class ParametricCurve:
    """One-dimensional boundary piece given by a chart theta -> point."""

    chart: Callable[[float], np.ndarray]
    theta_min: float
    theta_max: float
    samples: int = 256

    def __post_init__(self):
        if not (math.isfinite(self.theta_min) and math.isfinite(self.theta_max)):
            raise ValueError("theta_min and theta_max must be finite")
        if not self.theta_min < self.theta_max:
            raise ValueError("need theta_min < theta_max")
        if self.samples < 3:
            raise ValueError("need at least 3 boundary samples")


Boundary = Hyperplane | VerticalBarrier | ParametricCurve


@dataclass(frozen=True)
class ExitAsymptotics:
    """Exit exponent and the geometry of the minimizing crossing."""

    J: float
    z_star: np.ndarray
    u_bar: float
    d_xy: float
    d_xz: float
    d_zy: float
    method: str
    geodesic_exits: bool = False
    degenerate: bool = False
    # Solver legs of the scan's samples, in its rounds and its refinement,
    # that spent their max_iter above tolerance without stalling.
    unconverged_legs: int = 0
    # Relative gap certified by a solver scan: every sample of its window
    # that it skipped has a leg sum of at least (1 - scan_gap) times the
    # best sample's, so scan_gap <= SCAN_GAP.  The bound holds for true
    # distances; loose solver legs and the polygon quadrature of the chart
    # lengths carry their own error.  NaN for closed-form scans and
    # reflections.
    scan_gap: float = math.nan


# ---- Scalar pieces ---- #


def time_profile(u, d_xz: float, d_zy: float, d_xy: float = 0.0):
    """Cost of crossing at time fraction u: (d_xz^2/u + d_zy^2/(1-u) - d_xy^2)/2.

    u may be a scalar or an array of fractions, all strictly inside (0, 1).
    """
    u = np.asarray(u, dtype=float)
    if not ((u > 0.0) & (u < 1.0)).all():
        raise ValueError("u must lie in (0, 1)")
    out = 0.5 * (d_xz**2 / u + d_zy**2 / (1.0 - u) - d_xy**2)
    return float(out) if out.ndim == 0 else out


def optimal_crossing_time(d_xz: float, d_zy: float) -> float:
    """Minimizer of the time profile: d_xz / (d_xz + d_zy)."""
    if d_xz < 0.0 or d_zy < 0.0:
        raise ValueError("leg distances must be nonnegative")
    if d_xz == 0.0 and d_zy == 0.0:
        raise BothZero("crossing time is undefined when both legs are zero")
    return d_xz / (d_xz + d_zy)


def exit_probability_equivalent(J: float, t: float) -> float:
    """Log-scale probability equivalent exp(-J/t)."""
    if J < 0.0:
        raise ValueError("exponent must be nonnegative")
    if t <= 0.0:
        raise ValueError("horizon must be positive")
    return float(np.exp(-J / t))


# ---- Distance oracles ---- #


def _whitened_norm(W: np.ndarray, p: np.ndarray, q: np.ndarray):
    """|W (q - p)| for points or rows; the stacked matmuls reproduce
    np.linalg.norm(W @ (q - p)) bit for bit; inf for a point or a row past
    2^512, or whose difference or image overflows.  Two points whose
    entries and W's have a norm h below 2^250 (in Python floats) cannot
    overflow: |W (q - p)| <= 2 h^2.  Rows with an entry past 2^500 are
    measured one at a time."""
    if p.ndim == q.ndim == 1 and math.hypot(*p.tolist(), *q.tolist(),
                                            *W.ravel().tolist()) < 2.0**250:
        v = W @ (q - p)
        return math.sqrt(v @ v)
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or NaN from 0 * inf
        v = W @ (q - p)[..., None]
    if v.ndim == 2:
        return _column_norm(v)
    if not np.abs(v).max(initial=0.0) < 2.0**500:  # a square might overflow
        return np.array([_column_norm(c) for c in v])
    return np.sqrt((v.swapaxes(-1, -2) @ v)[:, 0, 0])


def _column_norm(v: np.ndarray) -> float:
    """|v| of one (d, 1) column, inf past 2^512 or with an entry that is
    not finite: its square would overflow, with a numpy warning."""
    if not math.hypot(*v.ravel().tolist()) < 2.0**512:
        return math.inf
    return math.sqrt((v.T @ v)[0, 0])


class _Oracle:
    """The distances and the geodesic of one exit from x to y under one
    geometry.

    legs(z) is (d(x, z), d(z, y)) for a point z, and under a closed form
    also the two arrays of distances for (n, d) rows z, each bit for bit the
    distance of its two points; xy() is d(x, y).  Both answers for a plane
    take the sides s_x and s_y of x and y.  reflection(plane, s_x, s_y) is
    (z_star, J) by a reflection formula for a plane with x and y strictly
    on one side, or None where no formula applies; the half-plane
    reflection's z_star is domain-tested, as a straddle's crossing is.
    crossing(plane, s_x, s_y) is where the x-to-y geodesic meets a plane
    between x and y: exact under both closed forms, and read off the solved
    path under the path optimizer.  path(n) is that geodesic's points (n + 1
    under a closed form).  ends(anchor, tangent) bounds a line's scan window
    (_line_window).  scan(thetas, chart) is _scan's (theta, unconverged,
    gap) over the chart with the legs (d(x, y), d(x, z), d(z, y)) of its
    result at z, and method names a result that no scan found.
    """

    def __init__(self, method, legs, xy, path, crossing, ends, scan,
                 reflection=lambda plane, *sides: None):
        self.method, self.legs, self.xy, self.path = method, legs, xy, path
        self.crossing, self.ends, self.scan = crossing, ends, scan
        self.reflection = reflection


def _oracle(model: DiffusionModel, geom, opts: SolverOptions | None, x, y) -> _Oracle:
    """The oracle of the exit from x to y under geom; geom None means the
    path optimizer on the model, which solves x to y once, when first asked.

    The closed-form oracles check nothing but d(x, y), which they refuse
    past the float range (ValueError): x, y and z are float arrays of
    points of the domain, as the engine's callers check them once at entry.
    The volatility oracle is hw_distance's kernel with hw_transform built
    once and x and y mapped once, the same bits; a point z is mapped once
    for both its legs, and one point takes the Python-float path of the
    half-plane distance.
    """
    if geom is None:
        opts = opts or SolverOptions()

        @functools.cache
        def geodesic():
            return solve_geodesic(model, x, y, opts)

        def scan(thetas, chart):
            field = _lattice_field(model, x, y, chart(thetas[[0, -1]]))
            legsums = _solver_legsums(model, x, y, chart, opts, field)
            theta, unconverged, gap = _scan(
                thetas, legsums, lambda lo, hi: _chart_lengths(model, chart, lo, hi))

            def result(z):
                return _result_legs(model, [(x, y), (x, z), (z, y)], opts,
                                    legsums.warm(theta))

            return theta, unconverged, gap, result

        if model.geometry is None:
            ends = functools.partial(_domain_line_ends, model)
        else:
            ends = _oracle(model, model.geometry, None, x, y).ends
        return _Oracle("numeric_1d",
                       lambda z: _result_legs(model, [(x, z), (z, y)], opts, [None, None]),
                       lambda: geodesic().distance, lambda n: geodesic().path.points,
                       lambda plane, *sides: _path_crossing(geodesic().path.points, plane),
                       ends, scan)
    if isinstance(geom, HullWhiteGeometry):
        sv, rho = geom.sigma_vol, geom.rho
        M = hw_transform(sv, rho)
        rb = math.sqrt(1.0 - rho * rho)
        X, Y = _hw_image(M, x), _hw_image(M, y)

        def legs(z):
            Z = _hw_image(M, z)
            return _hw_image_distance(X, Z, sv), _hw_image_distance(Z, Y, sv)

        d_xy = _hw_image_distance(X, Y, sv)

        def path(n):
            # the half-plane arc, which squares the images' coordinates, mapped back by M^-1
            if not math.hypot(*X, *Y) < 2.0**512:
                raise ValueError(f"the geodesic arc from x to y overflows: {TOO_FAR}")
            pts = sample_arc(X, Y, n).points @ np.array([[rb, rho], [0.0, sv]]).T
            pts[0], pts[-1] = x, y
            return pts

        def crossing(plane, s_x, s_y, P=X, Q=Y):
            # the image has normal M^-T n; mapped back, n . z = c gives the larger term
            (n0, n1), c = plane.normal.tolist(), plane.offset
            Zu, Zw = _arc_line(P, Q, s_x, s_y, (rb * n0, rho * n0 + sv * n1))
            z0, z1 = rb * Zu + rho * Zw, sv * Zw
            if abs(n0 * z0) >= abs(n1 * z1):
                return np.array([(c - n1 * z1) / n0, z1])
            return np.array([z0, (c - n0 * z0) / n1])

        def reflection(plane, s_x, s_y):
            # the barrier is a geodesic mirror of the half-plane only here:
            # uncorrelated, and a normal with no other entry (a normal such
            # as (1, -1e-300) normalizes to a first entry of 1.0)
            if rho != 0.0 or plane.normal[1] != 0.0:
                return None
            x0 = float(plane.offset / plane.normal[0])
            Y_ref = np.array([2.0 * x0 - float(Y[0]), Y[1]])  # in Python floats, no warning
            S, D = float(_poincare(X, Y_ref)), float(_poincare(X, Y))
            if not math.isfinite(S):  # the mirror image, or its distance from x
                raise ValueError(f"the mirror image of y across the barrier overflows: {TOO_FAR}")
            # J = (S^2 - D^2) / (2 sv^2), with no cancellation in S - D
            J = 0.5 * (_mirror_gap(X, Y, x0) / sv) * ((S + D) / sv)
            return _crossing_inside(model, crossing(plane, s_x, -s_y, Q=Y_ref)), J

        def disc(S):
            try:
                sh = math.sinh(0.5 * sv * S)
            except OverflowError:  # read as inf, and the window refused
                sh = math.inf
            return 2.0 * sh * sh, 0.0  # sh * sh overflows to inf; sh ** 2 raises
    else:
        M, Winv = geom.whitening

        def legs(z):
            return _whitened_norm(M, x, z), _whitened_norm(M, z, y)

        d_xy = _whitened_norm(M, x, y)

        def path(n):
            u = np.linspace(0.0, 1.0, n + 1)[:, None]
            return (1.0 - u) * x + u * y

        def crossing(plane, s_x, s_y):
            return x + s_x / (s_x - s_y) * (y - x)

        def reflection(plane, s_x, s_y):
            # a mirror reflection in whitened coordinates, across the plane
            # with unit normal mhat, at the side distances delta; z* is
            # formed in model coordinates, where the plane's offset is kept
            m = Winv @ plane.normal
            scale = float(np.linalg.norm(m))
            mhat = m / scale
            delta_x, delta_y = s_x / scale, s_y / scale
            tstar = delta_x / (delta_x + delta_y or 1.0)  # 0 + 0: x on the plane
            # |x - y_ref|^2 - |x - y|^2 = 4 delta_x delta_y
            z = x + tstar * ((y - x) - 2.0 * delta_y * (Winv @ mhat))
            return z, 2.0 * delta_x * delta_y

        def disc(S):
            return 0.0, S

    if not math.isfinite(d_xy):
        raise ValueError(f"d(x, y) = {d_xy} is not finite: {TOO_FAR}")

    def scan(thetas, chart):
        # every sample in one call, then Brent's steps at one point each
        return (*_scan(thetas, _oracle_legsums(model, legs, chart)),
                lambda z: (d_xy, *legs(z)))

    return _Oracle("closed_form", legs, lambda: d_xy, path, crossing,
                   functools.partial(_certified_line_ends, legs, M, disc, x, y), scan,
                   reflection)


def _path_crossing(pts, plane: Hyperplane):
    """Where the sampled path pts, from one side of the plane to the other,
    first meets it: the linear interpolation between the two samples that
    bracket it (sides compared by sign, which cannot overflow)."""
    s = pts @ plane.normal - plane.offset
    i = int(np.flatnonzero(np.sign(s[:-1]) * np.sign(s[1:]) <= 0.0)[0])
    w = s[i] / (s[i] - s[i + 1]) if s[i] else 0.0
    return pts[i] + w * (pts[i + 1] - pts[i])


def model_distance(model: DiffusionModel, p, q,
                   opts: SolverOptions | None = None) -> float:
    """Distance induced by the model's diffusion matrix.

    Closed form for the volatility and constant geometries, path optimizer
    otherwise.  A closed-form distance past the float range raises
    ValueError.
    """
    p, q = (_check_point(model, z, name) for name, z in (("p", p), ("q", q)))
    return _oracle(model, model.geometry, opts, p, q).xy()


def pointwise_exit_cost(model: DiffusionModel, x, y, z,
                        opts: SolverOptions | None = None) -> float:
    """Cost of forcing the bridge through z: ((d_xz + d_zy)^2 - d_xy^2)/2."""
    x, y, z = (_check_point(model, p, name) for name, p in (("x", x), ("y", y), ("z", z)))
    oracle = _oracle(model, model.geometry, opts, x, y)
    d_xz, d_zy = oracle.legs(z)
    d_xy = oracle.xy()
    return max(0.5 * ((d_xz + d_zy) ** 2 - d_xy**2), 0.0)


def bridge_rate(model: DiffusionModel, path: DiscretePath, x, y,
                opts: SolverOptions | None = None) -> float:
    """Bridge rate of a path pinned at x: path energy minus the geodesic energy.

    +inf when the path does not end at y.  The geodesic energy is computed at
    the path's own resolution so that discretization bias cancels: a converged
    geodesic scores zero up to solver tolerance, not up to O(1/N^2).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scale = 1.0 + float(np.abs(y).max()) + float(np.abs(x).max())
    if float(np.abs(path.points[0] - x).max()) > 1e-9 * scale:
        raise ValueError("path must start at x")
    energy = path_energy(model, path)
    if float(np.abs(path.points[-1] - y).max()) > 1e-9 * scale:
        return np.inf
    base = opts or SolverOptions()
    eff = replace(base, n=path.n_segments)
    d = solve_geodesic(model, x, y, eff).distance
    return energy - 0.5 * d * d


# ---- Boundary normalization ---- #


def _as_plane(boundary: Boundary, dim: int) -> Hyperplane | None:
    if isinstance(boundary, VerticalBarrier):
        if dim != 2:
            raise ValueError("a vertical barrier needs a two-dimensional state")
        n = np.zeros(dim)
        n[0] = 1.0
        return Hyperplane(n, boundary.x0)
    if isinstance(boundary, Hyperplane):
        if boundary.normal.shape != (dim,):
            raise ValueError(
                f"hyperplane normal has dimension {boundary.normal.shape[0]}, "
                f"model has {dim}"
            )
        return boundary
    return None


def _side_checks(plane: Hyperplane, x, y):
    """Returns (s_x, s_y); raises if a side is past the float range."""
    with np.errstate(over="ignore"):  # a dot past the float range reads inf
        d_x, d_y = float(plane.normal @ x), float(plane.normal @ y)
    s_x, s_y = d_x - plane.offset, d_y - plane.offset  # Python floats: a silent inf
    if not (math.isfinite(s_x) and math.isfinite(s_y)):
        raise ValueError(f"the distance of x or y from the plane is not finite: {TOO_FAR}")
    return s_x, s_y


# ---- Boundary charts: (sample parameters, theta -> point) ---- #
#
# A chart maps one parameter to a point, and an array of n parameters to
# the (n, d) array of their points, row by row the same bits.


def _curve_chart(curve: ParametricCurve):
    """The curve's own chart, mapped over arrays of parameters."""
    def chart(theta):
        if np.ndim(theta) == 0:
            return np.asarray(curve.chart(float(theta)), dtype=float)
        return np.array([curve.chart(float(t)) for t in theta], dtype=float)

    return chart


def _line_window(model, x, y, plane: Hyperplane, ends):
    """(coarse sample parameters, chart) for a plane boundary (d = 2 only).

    The plane is the line anchor + theta * tangent through the projection
    of the chord midpoint, and the window is every point of that line that
    could cost less than the anchor, from ends(anchor, tangent), the
    oracle's bound.  Under the volatility and constant geometries (with or
    without force_numeric) those points lie in two balls, and
    _certified_line_ends gives their overlap from the exit's closed-form
    oracle of that geometry.  Any other model has no bound on its distance,
    so its window is the part of the line about the anchor that lies inside
    the domain (_domain_line_ends).
    """
    if model.dim != 2:
        raise ValueError("the numeric boundary scan supports two-dimensional states only")
    n, c = plane.normal, plane.offset
    tangent = np.array([-n[1], n[0]])
    mid = 0.5 * (np.asarray(x, dtype=float) + np.asarray(y, dtype=float))
    anchor = mid - (float(n @ mid) - c) * n
    if not model.domain_test(anchor):
        raise OutsideDomain(
            "the chord midpoint projects outside the domain; supply a parametric "
            "boundary chart instead"
        )
    lo, hi = ends(anchor, tangent)

    def chart(theta) -> np.ndarray:
        return anchor + np.multiply.outer(theta, tangent)

    return np.linspace(lo, hi, 256), chart


def _certified_line_ends(legs, M, disc, x, y, anchor, tangent):
    """(lo, hi): the part of the line anchor + theta * tangent that holds
    every point with a lower leg sum than the anchor's, under the legs of
    the exit's closed-form oracle of the volatility or constant geometry.

    Such a point z has d(x, z) < S and d(z, y) < S, S = d(x, a) + d(a, y)
    the leg sum at the anchor a.  The geometry's linear map M turns each
    ball of radius S into a Euclidean disc: |Z - X|^2 <= 2 X_w Z_w k + r^2
    for the images Z of z and X of its centre, (k, r) = disc(S).  A
    constant geometry maps by its whitening W, with k = 0 and r = S.  The
    volatility geometry maps by hw_transform, under which d is the
    half-plane distance over sigma_vol, so the disc has centre
    (X_u, X_w cosh s) and radius X_w sinh s, s = sigma_vol * S:
    k = cosh s - 1 = 2 sinh^2(s / 2) and r = 0.  Along Z = P + theta * T
    (P = M a, T = M t) the disc is a quadratic in theta, negative at
    theta = 0; its roots, taken in the form that does not cancel, bound
    each ball, and the window is the overlap of the two.

    M is scaled by a power of two that brings the coordinates of a, x
    and y to order one: the disc is homogeneous in the images, so the
    roots keep their bits, and far-off endpoints do not overflow the
    coefficients.  A window that overflows all the same (cosh(sigma_vol * S)
    past the float range) raises ValueError rather than reach the scan as
    NaN samples.
    """
    d_xa, d_ay = legs(anchor)
    k, r = disc(d_xa + d_ay)
    e = -math.frexp(max(map(abs, (*anchor, *x, *y))))[1]
    M = np.ldexp(M, e)
    r2 = math.ldexp(r, e) ** 2
    P, T = M @ anchor, M @ tangent
    a = float(T @ T)
    roots = []
    with np.errstate(all="ignore"):  # overflow shows as a root that is not finite
        for X in (M @ x, M @ y):
            D = P - X
            b = float(T @ D) - X[1] * T[1] * k  # half the linear coefficient
            # the anchor is in the ball
            c = min(float(D @ D) - 2.0 * X[1] * P[1] * k - r2, 0.0)
            q = -(b + math.copysign(math.hypot(b, math.sqrt(-a * c)), b))
            roots.append(sorted((q / a, c / q)))
        (lo0, hi0), (lo1, hi1) = roots
        lo, hi = max(lo0, lo1), min(hi0, hi1)
        if not all(map(math.isfinite, (lo0, hi0, lo1, hi1, hi - lo))):
            raise ValueError(
                "the scan window overflows: the leg sum at the boundary anchor is "
                "too large; supply a parametric boundary chart instead"
            )
    return lo, hi


def _domain_line_ends(model, anchor, tangent):
    """(lo, hi): the part of the line anchor + theta * tangent about the
    anchor that lies inside the domain.

    Each end is found by doubling theta from the anchor until the domain
    test fails, and then by narrowing the bracket [inside, out] to two
    adjacent floats: each narrowing tests LINE_SPLIT - 1 parameters spread
    evenly over the floats of the bracket in one domain_test_batch call,
    and keeps the bracket about the first that fails.  The end is the last
    parameter found inside: for a domain whose cut by the line is one
    interval, the last float inside, as bisection finds it.  A line that
    does not leave the domain before theta overflows raises ValueError:
    such a model needs a bounded domain or a ParametricCurve.  The metric
    is evaluated once at the anchor, so a diffusion matrix that is
    singular there raises NotSPD.
    """
    inverse_metric_batch(model, anchor[None])

    def end(direction: float) -> float:
        inside, out = 0.0, direction
        while model.domain_test(anchor + out * tangent):
            inside, out = out, 2.0 * out
            if not math.isfinite(out):
                raise ValueError(
                    "the boundary line does not leave the model domain; bound the "
                    "domain or supply a parametric boundary chart instead"
                )
        # |theta| in [0, inf) is ordered as its bits are, as int64
        lo, hi = np.array([abs(inside), abs(out)]).view(np.int64).tolist()
        while hi - lo > 1:
            span = hi - lo
            if span > LINE_SPLIT:
                bits = lo + np.arange(1, LINE_SPLIT) * (span // LINE_SPLIT)
            else:
                bits = np.arange(lo + 1, hi)
            ok = domain_test_batch(
                model, anchor + np.multiply.outer(direction * bits.view(float), tangent))
            k = int(np.argmin(ok)) if not ok.all() else len(ok)
            lo = int(bits[k - 1]) if k else lo
            hi = int(bits[k]) if k < len(ok) else hi
        return direction * np.array(lo).view(float).item() if lo else 0.0

    return end(-1.0), end(1.0)


# ---- The scan: coarse samples, then Brent refinement ---- #


def _brent(f, a: float, b: float, x: float, fx: float, flat=None):
    """(theta, f(theta)): minimum of f on [a, b] by Brent's method, started
    from the inner point x with fx = f(x) (Brent 1973, Algorithms for
    Minimization without Derivatives, ch. 5).

    Each step is the vertex of the parabola through the three best points
    so far, or a golden-section step into the larger side when that vertex
    falls outside the bracket or the step would not shrink fast enough.
    It stops once x is within 2 * (SQRT_EPS * |x| + GOLDEN_BRACKET / 3) of
    both bracket ends, or, given flat, once the three best points are
    distinct and their values agree within flat relative.  Infinite values
    (points outside the domain) only ever take golden steps: the parabola
    through them is not finite.
    """
    v = w = x
    fv = fw = fx
    d = e = 0.0
    while True:
        mid = 0.5 * (a + b)
        tol1 = SQRT_EPS * abs(x) + GOLDEN_BRACKET / 3.0
        tol2 = 2.0 * tol1
        if not abs(x - mid) > tol2 - 0.5 * (b - a):
            return x, fx
        if flat is not None and x != w != v != x and fv - fx <= flat * abs(fx):
            return x, fx
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                d = p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = tol1 if x <= mid else -tol1
                parabolic = True
        if not parabolic:
            e = (a - x) if x >= mid else (b - x)
            d = GOLDEN_STEP * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = f(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _scan(thetas: np.ndarray, legsums, lengths=None):
    """(chart parameter of the smallest leg sum d(x, z) + d(z, y), solver
    legs of the sampling rounds and the refinement that stopped short of
    tolerance, relative gap certified over the skipped samples).

    legsums(thetas) maps an array of chart parameters to the array of
    their leg sums (+inf outside the domain), each call one batch (one
    lockstep stack of solver legs); its attribute unconverged counts the
    solver legs that stopped short.  legsums(theta) of one parameter, a
    float, is its leg sum.  A solver's legsums picks each point's warm
    start itself (_solver_legsums).

    Without lengths (a closed-form oracle) every sample is measured in one
    call and the gap is NaN.  With lengths(lo, hi), the Riemannian lengths
    of the chart over the intervals [lo[k], hi[k]], asked once for every
    pair of adjacent samples, the scan runs in rounds, and legsums.legs
    maps each parameter measured inside the domain to its legs (a, b) =
    (d(x, z), d(z, y)).  Round 0 measures every SCAN_STRIDE-th sample and
    the last (9 of 256), and each later round bisects every open gap
    between measured neighbors.  l_ij, the length of the gap between
    samples i and j, sums its intervals, and is infinite where one of them
    is.  As each leg is
    1-Lipschitz in distance, on the gap between samples i and j
    a >= a_i - l(i, z) and b >= b_j - l(z, j), so the leg sum is at least
    max(a_i + b_j, a_j + b_i) - l_ij (Piyavskii 1972; Shubert 1972, with
    the legs split; never below (f_i + f_j) / 2 - l_ij), and a gap is
    open while that bound lies below the best sample's f* (1 - SCAN_GAP),
    while it borders the best sample, or while an end lies outside the
    domain, and it is wider than one sample.  The gap returned is
    (f* - the lowest bound over the gaps left) / f*, at least 0.

    The argmin takes the first index on ties, and the result stays within
    one sample of it and no higher: with lengths, the quartic's vertex
    (_refine); without, Brent's method, one parameter per call, from that
    sample's value.  A scan without a finite leg sum raises OutsideDomain:
    the distance oracles are only asked about points of the domain, and
    the chart gave none.
    """
    if lengths is None:
        f = legsums(thetas)
        j = int(np.argmin(f))
        gap = math.nan
    else:
        f, j, gap = _rounds(thetas, legsums, lengths)
    if not math.isfinite(f[j]):
        raise OutsideDomain("no sample of the boundary lies inside the model domain")
    lo = float(thetas[max(j - 1, 0)])
    hi = float(thetas[min(j + 1, len(thetas) - 1)])
    if not (lo < hi and math.isfinite(hi - lo)):
        theta = float(thetas[j])
    elif lengths is not None:
        theta = _refine(thetas, f, j, legsums, lo, hi)
    else:
        theta = _brent(legsums, lo, hi, float(thetas[j]), f[j])[0]
    # read after the refinement, whose legs can stop short too
    return theta, legsums.unconverged, gap


def _refine(thetas, f, j, legsums, lo, hi):
    """A solver scan's result near its best sample j: the minimum of the
    quartic through samples j-2..j+2 (those not asked yet in one call), by
    Newton's method from theta_j on its central differences d1..d4 (s in
    samples), kept if its own leg sum is no higher than f[j].  A stencil
    past the window or outside the domain, or a step out of (lo, hi) or
    at a curvature that is not positive, takes Brent's steps instead."""
    k = np.arange(j - 2, j + 3)
    if 2 <= j < len(thetas) - 2 and len(new := k[np.isnan(f[k])]):
        f[new] = legsums(thetas[new])
    if 2 <= j < len(thetas) - 2 and np.isfinite(f[k]).all():
        fa, fb, fc, fd, fe = f[k].tolist()
        d1, d3 = (fa - fe + 8.0 * (fd - fb)) / 12.0, 0.5 * (fe - fa) - (fd - fb)
        d2 = (16.0 * (fb + fd) - fa - fe - 30.0 * fc) / 12.0
        d4 = fa + fe - 4.0 * (fb + fd) + 6.0 * fc
        s = 0.0
        for _ in range(50):
            if not (abs(s) < 1.0 and (curv := d2 + s * (d3 + 0.5 * s * d4)) > 0.0):
                break
            step = (d1 + s * (d2 + s * (0.5 * d3 + s * d4 / 6.0))) / curv
            s -= step
            if abs(step) <= 1e-12 and abs(s) < 1.0:
                theta = float(thetas[j]) + s * 0.5 * (hi - lo)
                return theta if legsums(theta) <= f[j] else float(thetas[j])
    return _brent(legsums, lo, hi, float(thetas[j]), f[j], SCAN_FLAT)[0]


def _rounds(thetas, legsums, lengths):
    """(leg sums, NaN where skipped; index of the best; relative gap) of
    _scan's bisection rounds."""
    n = len(thetas)
    f = np.full(n, np.nan)
    new = np.unique(np.append(np.arange(0, n, SCAN_STRIDE), n - 1))
    # every interval between adjacent samples, measured once; a gap's
    # length is a difference of running sums, infinite across an interval
    # outside the domain
    step = lengths(thetas[:-1], thetas[1:])
    run = np.concatenate([[0.0], np.cumsum(np.where(np.isfinite(step), step, 0.0))])
    out = np.concatenate([[0], np.cumsum(~np.isfinite(step))])
    legs = legsums.legs

    def bound(i, j):
        (a_i, b_i), (a_j, b_j) = legs[thetas[i]], legs[thetas[j]]
        return max(a_i + b_j, a_j + b_i) - (run[j] - run[i] if out[i] == out[j] else math.inf)

    while len(new):
        f[new] = legsums(thetas[new])
        done = np.flatnonzero(~np.isnan(f))
        j = int(done[np.argmin(f[done])])
        gaps = [(a, b) for a, b in zip(done[:-1].tolist(), done[1:].tolist()) if b - a > 1]
        forced = {g for g in gaps if j in g or not np.isfinite(f[list(g)]).all()}
        bounds = {g: bound(*g) for g in gaps if g not in forced}
        # a NaN bound stays open
        gaps = [g for g in gaps if g in forced or not bounds[g] >= f[j] * (1.0 - SCAN_GAP)]
        new = np.array([(a + b) // 2 for a, b in gaps], dtype=int)
    low = min(bounds.values(), default=f[j])
    return f, j, max(0.0, (f[j] - low) / f[j]) if 0.0 < f[j] < math.inf else 0.0


def _chart_lengths(model, chart, lo, hi):
    """Riemannian length of the chart over each [lo[k], hi[k]]: the length
    of its inscribed polygon of SCAN_PIECES pieces (_polygon_lengths)."""
    t = np.linspace(lo, hi, SCAN_PIECES + 1, axis=1)
    return _polygon_lengths(model, chart(t.ravel()).reshape(len(lo), SCAN_PIECES + 1, -1))


def _polygon_lengths(model, p):
    """Riemannian length of each polygon p[k] (p of shape (m, pieces + 1,
    d)), each piece measured under the metric at its midpoint, +inf for a
    polygon with a piece whose midpoint lies outside the domain.  All
    polygons take one domain test and one metric batch."""
    step = np.diff(p, axis=1).reshape(-1, p.shape[-1])
    mid = (0.5 * (p[:, 1:] + p[:, :-1])).reshape(-1, p.shape[-1])
    out = np.full(len(mid), np.inf)
    inside = domain_test_batch(model, mid)
    if inside.any():
        s = step[inside]
        G = inverse_metric_batch(model, mid[inside])
        out[inside] = np.sqrt(np.einsum("ki,kij,kj->k", s, G, s))
    return out.reshape(len(p), -1).sum(axis=1)


@functools.cache
def _lattice_pairs():
    """(ij, a, b): the (row, column) of each node of the lattice of
    FIELD_NODES a side, and the nodes a[k] and b[k] of each of its edges,
    each once."""
    ij = np.indices((FIELD_NODES, FIELD_NODES)).reshape(2, -1).T
    to = ij[:, None] + FIELD_STENCIL
    a, k = np.nonzero(((to >= 0) & (to < FIELD_NODES)).all(axis=-1))
    return ij, a, to[a, k] @ [FIELD_NODES, 1]


def _lattice_field(model, x, y, ends):
    """Start paths for the cold legs of a solver scan from x to y whose
    window ends at the points ends: the shortest paths of a lattice
    (Dijkstra 1959, Numer. Math. 1, with the 16-neighbour stencil of
    Tsitsiklis 1995, IEEE TAC 40), or None where x and y are not joined.

    The lattice has FIELD_NODES nodes a side on the box of x, y and ends,
    padded by a quarter of its extent on every side (of the larger extent
    on an axis without one), less the nodes outside the domain.  x and y
    are two more nodes, linked to every node within two cells of them.  An
    edge is its straight segment, weighted by the metric at its midpoint
    (_polygon_lengths, one piece) and left out where that is infinite.
    One dijkstra call gives the shortest-path trees from x and from y.

    paths(Z, n) is (x-to-Z, Z-to-y), the start legs to the rows of Z at
    n + 1 points of equal field length.  Each Z[k] is linked to the tree
    as x and y are, through the node that brings it nearest the root; the
    field's distances are the running lengths along each path, and binary
    lifting over the predecessors finds every point of every leg at once.
    A Z[k] without a finite link on both trees gets its chords.  The
    field's lengths carry the lattice's metrication bias, so it starts
    legs and never reports a distance.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    box = np.array([x, y, *ends])
    roots = box[:2]
    ext = box.max(axis=0) - box.min(axis=0)
    ext = np.where(ext > 0.0, ext, ext.max())
    origin, cell = box.min(axis=0) - 0.25 * ext, 1.5 * ext / (FIELD_NODES - 1)
    if not (np.isfinite(origin).all() and np.isfinite(cell).all() and (cell > 0.0).all()):
        return None
    ij, a, b = _lattice_pairs()
    inside = domain_test_batch(model, origin + ij * cell)
    index = np.cumsum(inside) - 1  # node number of each lattice point inside
    a, b = index[a[inside[a] & inside[b]]], index[b[inside[a] & inside[b]]]
    cells = np.concatenate([ij[inside], (roots - origin) / cell])
    nodes = np.concatenate([origin + ij[inside] * cell, roots])
    N = len(nodes) - 2

    def links(Z):
        """(k, i): each node i within two cells of Z[k]."""
        return np.nonzero((np.abs(((Z - origin) / cell)[:, None] - cells) <= 2.0).all(axis=-1))

    k, i = links(roots)
    keep = i < N + k  # no root to itself, and x to y once
    a, b = np.concatenate([a, N + k[keep]]), np.concatenate([b, i[keep]])
    w = _polygon_lengths(model, np.stack([nodes[a], nodes[b]], axis=1))
    keep = np.isfinite(w) & (w > 0.0)
    a, b, w = a[keep], b[keep], w[keep]
    graph = csr_matrix((np.concatenate([w, w]), (np.concatenate([a, b]), np.concatenate([b, a]))),
                       shape=(N + 2, N + 2))
    dist, pred = dijkstra(graph, indices=[N, N + 1], return_predecessors=True)
    if not math.isfinite(dist[0, N + 1]):
        return None
    parent = np.where(pred < 0, np.arange(N + 2), pred)

    def paths(Z, n):
        m, u = len(Z), np.arange(n + 1) / n
        k, i = links(Z)
        # Z[k] hangs off the linked node i that brings it nearest each root
        tot = np.full((2, m, N + 2), np.inf)
        tot[:, k, i] = dist[:, i] + _polygon_lengths(model, np.stack([nodes[i], Z[k]], axis=1))
        t = tot.argmin(axis=2)
        D = np.take_along_axis(tot, t[..., None], axis=2)[..., 0]
        ok = np.isfinite(D).all(axis=0)
        # both trees with Z on them, as one forest of 2M nodes, and jumps[j]
        # the 2^j-th ancestor of each (a root is its own parent)
        M = N + 2 + m
        d = np.concatenate([dist, np.where(ok, D, 0.0)], axis=1).ravel()
        jumps = [(np.concatenate([parent, t], axis=1) + [[0], [M]]).ravel()]
        while not np.array_equal(up := jumps[-1][jumps[-1]], jumps[-1]):
            jumps.append(up)
        # each point's length s along its leg, the node at or past it, and
        # that node's parent, short of it
        end = np.concatenate([N + 2 + np.arange(m), M + N + 2 + np.arange(m)])
        s = d[end, None] * u
        cur = np.repeat(end[:, None], n + 1, axis=1)
        for up in reversed(jumps):
            cur = np.where(d[up[cur]] > s, up[cur], cur)
        par = jumps[0][cur]
        lo, hi = d[par], d[cur]
        w = np.divide(s - lo, hi - lo, out=np.ones_like(s), where=hi > lo)[..., None]
        pts = np.concatenate([nodes, Z, nodes, Z])
        P = (pts[par] + w * (pts[cur] - pts[par])).reshape(2, m, n + 1, -1)
        if not ok.all():
            P[:, ~ok] = roots[:, None, None] + u[:, None] * (Z[~ok, None] - roots[:, None, None])
        return P[0], P[1][:, ::-1]

    return paths


def _oracle_legsums(model, legs, chart):
    """Leg sums of a closed-form oracle's legs.  An array of parameters
    takes one batch domain test and one row-batched call per leg; one
    parameter (a step of Brent's method) takes the model's own domain test
    and the legs of one point, the same bits."""
    def legsums(thetas):
        z = chart(thetas)
        if np.ndim(thetas) == 0:
            if not model.domain_test(z):
                return math.inf
            d_xz, d_zy = legs(z)
            return d_xz + d_zy
        out = np.full(len(z), np.inf)
        inside = domain_test_batch(model, z)
        d_xz, d_zy = legs(z[inside])
        out[inside] = d_xz + d_zy
        return out

    legsums.unconverged = 0
    return legsums


def _predicted_legs(tails, theta, z, x, y):
    """Warm starts (W, 2, N+1, d) of the x-to-z and z-to-y legs at the
    chart parameters theta[w], points z[w], from one or two solved samples
    tails[w], as (theta, x-to-z, z-to-y).

    Two samples' legs L0 and L1 at theta0 < theta <= theta1 give
    L1 + r (L1 - L0) with r = (theta - theta1) / (theta1 - theta0) in
    (-1, 0], their linear interpolation; one sample gives its legs.  What
    the prediction misses of z is spread along each leg linearly, with
    weight k/N at point k of the x-to-z leg and 1 - k/N on the z-to-y leg,
    and the ends are pinned to x, z and y.  All of it is elementwise per
    leg, so each leg gets the bits it gets alone.
    """
    L1 = np.array([t[-1][1:] for t in tails])
    L0 = np.array([t[0][1:] for t in tails])
    r = np.array([(th - t[-1][0]) / (t[-1][0] - t[0][0]) if len(t) == 2 else 0.0
                  for th, t in zip(theta, tails)])
    P = L1 + r[:, None, None, None] * (L1 - L0)
    w = np.arange(P.shape[2]) / (P.shape[2] - 1.0)
    P[:, 0] += w[:, None] * (z - P[:, 0, -1])[:, None]
    P[:, 1] += (1.0 - w)[:, None] * (z - P[:, 1, 0])[:, None]
    P[:, 0, 0] = x
    P[:, 0, -1] = P[:, 1, 0] = z
    P[:, 1, -1] = y
    return P


def _scan_options(opts: SolverOptions) -> SolverOptions:
    """A solver scan's leg options (_solver_legsums)."""
    return replace(opts, n=min(opts.n, 50), max_iter=min(opts.max_iter, 2000),
                   grad_tol_rel=max(opts.grad_tol_rel, SCAN_TOL) if opts.grad_tol is None
                   else opts.grad_tol_rel, multi_start=1, strict=False)


def _solver_legsums(model, x, y, chart, opts: SolverOptions, field=None):
    """Leg sums of the path optimizer.

    Ranking boundary points needs far less accuracy than the reported
    exponent, so the legs are solved at n <= 50 segments to a gradient
    tolerance of at least SCAN_TOL (an absolute grad_tol passes through),
    strict=False (_scan_options).  The legs of every point of a call inside
    the domain are one stack for the path optimizer, in one thread, and
    each leg gets the bits it would get alone.  Every parameter asked,
    inside the domain or not, joins the sorted list asked, and the legs of
    a new point start from those solved at the parameters asked next to it
    on either side: interpolated between two by _predicted_legs, copied
    from one, and, where neither was solved, from the paths of field
    (_lattice_field; their chords without one).  In the bisection rounds
    those neighbors are the ends of the gap bisected, and in the
    refinement the samples that bracket its point; round 0's legs all
    start from the field.  _solve_legs replaces a start by the chord where
    its energy is not finite.  The first stack also solves the x-to-y leg,
    from the field's path, and legsums.warm(theta) gives the paths of the
    legs x-to-y, x-to-z and z-to-y solved at theta (None where there is
    none), from which the result's legs start.
    """
    opts = _scan_options(opts)
    asked = []  # every chart parameter asked, sorted
    solved = {}  # chart parameter -> (theta, x-to-z legs, z-to-y legs)
    legs = {}  # chart parameter -> (d(x, z), d(z, y))
    xy = []  # the x-to-y leg's path, once solved

    def legsums(thetas):
        if np.ndim(thetas) == 0:  # one parameter: a stack of one sample
            return legsums(np.array([thetas]))[0]
        z = chart(thetas)
        out = np.full(len(z), np.inf)
        inside = np.flatnonzero(domain_test_batch(model, z))
        # the solved legs at the parameters asked next to each point, in order
        tails = [[solved[t] for t in asked[max(k - 1, 0):k + 1] if t in solved]
                 for k in np.searchsorted(asked, thetas[inside]).tolist()]
        asked[:] = sorted(asked + thetas.tolist())
        if not len(inside):
            return out
        X = [p for i in inside for p in (x, z[i])]
        Y = [p for i in inside for p in (z[i], y)]
        if not xy:  # the x-to-y leg, once, in the first stack
            X.append(x)
            Y.append(y)
        X, Y = np.array(X), np.array(Y)
        inits = [None] * len(X)
        warm = [k for k, tail in enumerate(tails) if tail]
        if warm:
            idx = inside[warm]
            pred = _predicted_legs([tails[k] for k in warm], thetas[idx], z[idx], x, y)
            for k, pts in zip(warm, pred):
                inits[2 * k], inits[2 * k + 1] = pts
        cold = [k for k, tail in enumerate(tails) if not tail]
        if field is not None and (cold or not xy):
            ends = z[inside[cold]] if xy else np.concatenate([z[inside[cold]], [y]])
            to_end, from_end = field(ends, opts.n)
            for k, p, q in zip(cold, to_end, from_end):
                inits[2 * k], inits[2 * k + 1] = p, q
            if not xy:
                inits[-1] = to_end[-1]
        P, E, _, _, _, unconverged = _solve_legs(model, X, Y, opts, inits)
        d = np.sqrt(np.maximum(2.0 * E, 0.0))
        for k, i in enumerate(inside):
            solved[float(thetas[i])] = (thetas[i], P[2 * k], P[2 * k + 1])
            legs[float(thetas[i])] = d[2 * k], d[2 * k + 1]
            out[i] = d[2 * k] + d[2 * k + 1]
        legsums.unconverged += int(unconverged[:2 * len(inside)].sum())
        if not xy:
            xy.append(P[-1])
        return out

    def warm(theta):
        _, *paths = solved.get(float(theta), (None, None, None))
        return [xy[0] if xy else None, *paths]

    legsums.unconverged = 0
    legsums.legs = legs
    legsums.warm = warm
    return legsums


# ---- The engine ---- #


def _result_legs(model, pairs, opts: SolverOptions, warm):
    """The distances of the path optimizer's legs pairs[k] = (p, q), each
    from its multi_start perturbed chords and from warm[k], the scan's path
    of that leg at a coarser resolution (its chord where warm[k] is None),
    as one stack at opts.  Each leg meets the tolerance of a solve_geodesic
    from the chord, and so agrees with that solve to well within it; a cold
    stack has the bits of separate solves, whose endpoint checks it makes.
    A warm leg that stalls short of its tolerance (a kink of a piecewise
    metric can hold it where the chord's solve goes on) is solved again
    from its chord, and keeps the lower energy."""
    # each distinct endpoint once, named as its first pair names it
    ends = {}
    for p, q in pairs:
        ends.setdefault(p.tobytes(), (p, "x"))
        ends.setdefault(q.tobytes(), (q, "y"))
    for z, name in ends.values():
        _validate_endpoint(model, z, name)
    starts = [[w, *_starts(model, p, q, opts)[1:]] for w, (p, q) in zip(warm, pairs)]
    X = np.array([p for (p, _), s in zip(pairs, starts) for _ in s])
    Y = np.array([q for (_, q), s in zip(pairs, starts) for _ in s])
    inits = [i for s in starts for i in s]
    first = np.cumsum([0] + [len(s) for s in starts])
    _, E, _, _, stalled, _ = _solve_legs(model, X, Y, opts, inits)
    again = [k for k in first[:-1] if inits[k] is not None and stalled[k]]
    if again:
        cold = _solve_legs(model, X[again], Y[again], opts, [None] * len(again))[1]
        E[again] = np.minimum(E[again], cold)
    # each pair's best start, as solve_geodesic picks it
    return tuple(math.sqrt(max(2.0 * float(e.min()), 0.0)) for e in np.split(E, first[1:-1]))


def _assemble(legs, z_star, method: str, J=None, geodesic_exits=False,
              degenerate=False, unconverged_legs=0, scan_gap=math.nan) -> ExitAsymptotics:
    """Result at z_star with its legs (d_xy, d_xz, d_zy) = legs(z_star);
    J from those legs, and then geodesic_exits where it is within EXIT_TOL,
    unless a reflection formula supplies it.  A z_star, leg or J that is
    not finite (distances past the float range) raises ValueError."""
    if not all(map(math.isfinite, z_star)):
        raise ValueError(f"the crossing point z_star = {z_star} is not finite: {TOO_FAR}")
    d_xy, d_xz, d_zy = legs(z_star)
    if not math.isfinite(d_xy):
        raise ValueError(f"d(x, y) = {d_xy} is not finite: {TOO_FAR}")
    if J is None:
        S = d_xz + d_zy
        J = 0.5 * (S * S - d_xy * d_xy)
        geodesic_exits = J <= EXIT_TOL * max(1.0, d_xy * d_xy)
    if not math.isfinite(J):
        raise ValueError(f"the exit exponent J = {J} is not finite: {TOO_FAR}")
    for name, d in (("d(x, z_star)", d_xz), ("d(z_star, y)", d_zy)):
        if not math.isfinite(d):  # beside a J that a reflection formula gives
            raise ValueError(f"{name} = {d} is not finite: {TOO_FAR}")
    try:
        u_bar = optimal_crossing_time(d_xz, d_zy)
    except BothZero:
        u_bar = np.nan
    return ExitAsymptotics(
        J=max(float(J), 0.0),
        z_star=np.asarray(z_star, dtype=float),
        u_bar=u_bar,
        d_xy=d_xy,
        d_xz=d_xz,
        d_zy=d_zy,
        method=method,
        geodesic_exits=geodesic_exits,
        degenerate=degenerate,
        unconverged_legs=unconverged_legs,
        scan_gap=scan_gap,
    )


def _crossing_inside(model, z_star):
    """z_star, the crossing of a geodesic with a plane, once it passes the
    model's domain test (OutsideDomain if not: rounding can put it on the
    domain's edge)."""
    if not model.domain_test(z_star):
        raise OutsideDomain(f"the crossing point {z_star} of the geodesic lies outside "
                            "the model domain")
    return z_star


def _exit_engine(model, geom, x, y, boundary: Boundary, opts,
                 label=None) -> ExitAsymptotics:
    """Exit exponent under geom (None: the path optimizer on the model).

    The model supplies the dimension and the domain test; the oracle of
    geom answers everything else.  label, when given, replaces the method
    name of every result.  A solver scan's result counts the legs of its
    rounds that stopped short of tolerance, and carries its certified gap.
    """
    plane = _as_plane(boundary, model.dim)
    if plane is not None:  # the sides are refused before a d(x, y) past the float range
        s_x, s_y = _side_checks(plane, x, y)
    oracle = _oracle(model, geom, opts, x, y)
    method = label or oracle.method
    if plane is None:
        thetas = np.linspace(boundary.theta_min, boundary.theta_max, boundary.samples)
        chart = _curve_chart(boundary)
    else:
        def legs(z):
            return (oracle.xy(), *oracle.legs(z))

        if s_x == 0.0 or s_y == 0.0:  # z_star is x or y: one leg is 0 and the other d(x, y)
            d_xy = oracle.xy()
            z_star, at = (x, (d_xy, 0.0, d_xy)) if s_x == 0.0 else (y, (d_xy, d_xy, 0.0))
            return _assemble(lambda z: at, z_star.copy(), method, 0.0, geodesic_exits=True,
                             degenerate=True)
        if (s_x > 0.0) != (s_y > 0.0):
            z_star = oracle.crossing(plane, s_x, s_y)  # the solver's can land on the edge
            return _assemble(legs, _crossing_inside(model, z_star), method, 0.0,
                             geodesic_exits=True)
        if (reflected := oracle.reflection(plane, s_x, s_y)) is not None:
            z_star, J = reflected
            return _assemble(legs, z_star, method, J)
        thetas, chart = _line_window(model, x, y, plane, oracle.ends)
    theta, unconverged, gap, legs = oracle.scan(thetas, chart)
    return _assemble(legs, np.asarray(chart(theta), dtype=float), label or "numeric_1d",
                     unconverged_legs=unconverged, scan_gap=gap)


# ---- Public entry points ---- #


def _checked_points(model: DiffusionModel, **points):
    if not model.complete:
        raise IncompleteModel(
            "the model declares an incomplete metric (boundary at finite "
            "distance); exit exponents are not defined for it"
        )
    return [_check_point(model, z, name) for name, z in points.items()]


def exit_asymptotics(
    model: DiffusionModel,
    x,
    y,
    boundary: Boundary,
    opts: SolverOptions | None = None,
    workers: int = 1,
    force_numeric: bool = False,
) -> ExitAsymptotics:
    """Exit exponent for the bridge from x to y against the given boundary.

    force_numeric replaces the closed-form distance by the path optimizer,
    so the solver-based boundary scan runs even when an exact backend exists
    (used for cross-checks).  A plane's scan window holds every point of
    its line that could cost less than the window's anchor: the overlap of
    two distance balls under the volatility and constant geometries, with
    or without force_numeric, and otherwise the part of the line inside the
    domain, which must therefore end (ValueError if it does not).  workers
    is accepted for callers that pass it and changes nothing: the solver
    scan solves each round of samples as one lockstep stack in one thread.
    """
    x, y = _checked_points(model, x=x, y=y)
    geom = None if force_numeric else model.geometry
    return _exit_engine(model, geom, x, y, boundary, opts)


def frozen_exit_asymptotics(
    model: DiffusionModel,
    x,
    y,
    boundary: Boundary,
    z0,
    opts: SolverOptions | None = None,
) -> ExitAsymptotics:
    """Exit exponent with the metric frozen at z0: a(z)^{-1} := a(z0)^{-1}.

    This is the exit engine on the constant geometry a(z0)^{-1} inside the
    model's own domain, so hyperplanes reduce to a whitened reflection and
    curves to a closed-form scan.  For a genuinely constant model the
    frozen matrix is the model's own, and the result coincides with
    exit_asymptotics for every z0 in everything but the method name.
    """
    x, y, z0 = _checked_points(model, x=x, y=y, z0=z0)
    return _exit_engine(model, ConstantGeometry(inverse_metric(model, z0)), x, y, boundary,
                        opts, label="frozen")


# ---- Freezing comparison ---- #


@dataclass(frozen=True)
class FreezingRow:
    label: str
    result: ExitAsymptotics
    probabilities: tuple[float, ...]


@dataclass(frozen=True)
class FreezingComparison:
    t_list: tuple[float, ...]
    rows: tuple[FreezingRow, ...]


def compare_freezing(
    model: DiffusionModel,
    x,
    y,
    boundary: Boundary,
    freeze_points,
    t_list=(),
    opts: SolverOptions | None = None,
    force_numeric: bool = False,
) -> FreezingComparison:
    """True exit exponent next to frozen-coefficient surrogates.

    One row per freeze point, after a first row for the true model, which
    takes force_numeric as exit_asymptotics does.  Each row carries exp(-J/t)
    for every requested horizon.  Where to freeze is the caller's problem:
    there is no canonical choice, and the candidates can disagree among
    themselves by more than their distance to the true value.
    """
    t_list = tuple(float(t) for t in t_list)
    rows = []

    def probs(J):
        return tuple(exit_probability_equivalent(J, t) for t in t_list)

    true = exit_asymptotics(model, x, y, boundary, opts=opts,
                            force_numeric=force_numeric)
    rows.append(FreezingRow("true", true, probs(true.J)))
    for z0 in freeze_points:
        z0 = np.asarray(z0, dtype=float)
        # space-separated coordinates: the label must stay a single CSV cell
        label = "frozen@(" + " ".join(format(v, ".6g") for v in z0) + ")"
        res = frozen_exit_asymptotics(model, x, y, boundary, z0, opts=opts)
        rows.append(FreezingRow(label, res, probs(res.J)))
    return FreezingComparison(t_list, tuple(rows))
