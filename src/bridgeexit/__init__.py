"""Small-time exit asymptotics for pinned diffusions.

The probability that a diffusion bridge leaves its domain over a short
horizon t decays like exp(-J/t); J is a purely geometric quantity built from
the distance induced by the diffusion matrix.  This package computes that
distance (closed form where available, a discrete path optimizer otherwise),
the exit exponent and its minimizing crossing point, frozen-coefficient
comparators, and Monte Carlo validation of the predicted decay.
"""

from .errors import (
    BothZero,
    BridgeExitError,
    CoincidentPoints,
    ConfigError,
    DegenerateCorrelation,
    DegenerateEstimate,
    EndpointsStraddleBarrier,
    IncompleteModel,
    NoConvergence,
    NotSPD,
    OutsideDomain,
    RejectionBudgetExceeded,
)
from .exits import (
    ExitAsymptotics,
    FreezingComparison,
    FreezingRow,
    Hyperplane,
    ParametricCurve,
    VerticalBarrier,
    bridge_rate,
    compare_freezing,
    exit_asymptotics,
    exit_probability_equivalent,
    frozen_exit_asymptotics,
    model_distance,
    optimal_crossing_time,
    pointwise_exit_cost,
    time_profile,
)
from .geodesic import (
    GeodesicResult,
    SolverOptions,
    distance,
    energy_gradient,
    path_energy,
    solve_geodesic,
)
from .hyperbolic import (
    GeodesicArc,
    barrier_infimum_vertical,
    geodesic_arc,
    hw_distance,
    hw_transform,
    poincare_distance,
    sample_arc,
)
from .model import (
    ConstantGeometry,
    DiffusionModel,
    HullWhiteGeometry,
    constant_model,
    diffusion_matrix,
    grid_model,
    grid_model_from_csv,
    hull_white_model,
    inverse_metric,
)
from .montecarlo import (
    CrossingEstimate,
    LdFit,
    RngSpec,
    brownian_crossing_exact,
    crossing_curve,
    crossing_probability,
    hw_crossing_probability,
    ld_slope,
)
from .paths import DiscretePath, path_to_csv

__version__ = "0.1.0"
