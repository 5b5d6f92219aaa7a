"""Exception hierarchy for scaleroute.

All library errors derive from ScalerouteError so callers can catch one base
type. Instance-validation failures derive from ValidationError and carry
enough context to identify the offending link or O/D pair. The configuration
classes (``SolverConfig``, ``ShapeConfig``, ``BatchConfig``, ``OracleConfig``)
raise ValueError for a field out of range instead, so that a random instance
or a verification batch never starts from a setting it cannot play.
"""

from __future__ import annotations


class ScalerouteError(Exception):
    """Base class for all scaleroute errors."""


# --- instance validation -----------------------------------------------------

class ValidationError(ScalerouteError):
    """An instance description violates a model invariant."""


class InstanceFormatError(ValidationError):
    """Malformed instance file: wrong types, missing or unknown fields."""


class NonPositiveSlope(ValidationError):
    """Link latency slope a or h is not strictly positive."""


class NegativeFreeFlow(ValidationError):
    """Link free-flow latency b is negative."""


class AsymmetryOutOfRange(ValidationError):
    """Link degree of asymmetry a/h lies outside (0, 1]."""


class NoPath(ValidationError):
    """An O/D pair has no directed path from origin to destination."""


class NonPositiveDemand(ValidationError):
    """An O/D pair demand is not strictly positive."""


class BadAlpha(ValidationError):
    """An autonomy fraction lies outside [0, 1]."""


class PathExplosion(ValidationError):
    """Simple-path enumeration exceeded the configured cap."""


class EmptyDemand(ValidationError):
    """An instance has no O/D pair."""


# --- flow / latency operations -----------------------------------------------

class NegativeFlow(ScalerouteError):
    """A flow argument is negative or not finite."""


# --- solvers -------------------------------------------------------------------

class NotConverged(ScalerouteError):
    """A solver failed to reach its gap tolerance within the iteration budget.

    Carries the unconverged result so callers can inspect or reuse it.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class DimensionMismatch(ScalerouteError):
    """An array argument does not match the instance's link/path dimensions."""


# --- Stackelberg game ----------------------------------------------------------

class AlphaOutOfRange(ScalerouteError):
    """Stackelberg play requires a network autonomy fraction in (0, 1)."""


class HeterogeneousAlpha(ScalerouteError):
    """Stackelberg play requires a uniform autonomy fraction across O/D pairs."""


# --- closed-form bounds ---------------------------------------------------------

class DomainError(ScalerouteError):
    """An argument lies outside the domain of the function that takes it."""


class InfeasibleLambda(ScalerouteError):
    """lambda is outside the feasible set (omega(lambda) >= 1)."""


# --- validation harness ----------------------------------------------------------

class UnsupportedTopology(ScalerouteError):
    """The instance lies outside the exact oracles' scope: one O/D pair joined by at most
    ``OracleConfig.max_links`` parallel links (``is_parallel_link``)."""


class BadKind(ScalerouteError):
    """Unknown curve-table kind."""
