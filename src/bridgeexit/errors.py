"""Exception hierarchy shared across the package."""

from __future__ import annotations

__all__ = [
    "BridgeExitError",
    "OutsideDomain",
    "NotSPD",
    "DegenerateCorrelation",
    "CoincidentPoints",
    "EndpointsStraddleBarrier",
    "NoConvergence",
    "IncompleteModel",
    "BothZero",
    "DegenerateEstimate",
    "RejectionBudgetExceeded",
    "ConfigError",
]


class BridgeExitError(Exception):
    """Base class for every error raised by this package."""


class OutsideDomain(BridgeExitError):
    """A point does not lie in the model's state domain."""


class NotSPD(BridgeExitError):
    """The diffusion matrix is not symmetric positive definite at a point."""


class DegenerateCorrelation(BridgeExitError):
    """abs(rho) >= 1, so the volatility transform is singular."""


class CoincidentPoints(BridgeExitError):
    """Two distinct points were required but the arguments coincide."""


class EndpointsStraddleBarrier(BridgeExitError):
    """Both endpoints must lie strictly on the same side of the barrier."""


class NoConvergence(BridgeExitError):
    """The path optimizer hit its iteration budget above gradient tolerance."""


class IncompleteModel(BridgeExitError):
    """The model's metric is not complete, so exit exponents are undefined."""


class BothZero(BridgeExitError):
    """Both leg distances are zero; the optimal crossing time is undefined."""


class DegenerateEstimate(BridgeExitError):
    """A Monte Carlo estimate is zero or otherwise unusable."""


class RejectionBudgetExceeded(BridgeExitError):
    """The rejection sampler ran out of attempts before accepting a path."""


class ConfigError(BridgeExitError):
    """A run configuration failed to parse or validate.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
