"""Exception hierarchy for scaleroute: one class per way a caller fixes the error.

- ``ValidationError``: an instance description or a model object breaks a
  model invariant (a slope, a demand, an autonomy fraction in [0, 1], the
  file format, the path cap); fix the data.
- ``DomainError``: an argument lies outside the domain of the function that
  takes it (alpha in (0, 1), mu in (0, 1], lambda, gamma, a flow vector, the
  oracles' scope, a curve kind); fix the call.
- ``NotConverged``: a solver ran out of its iteration budget; raise the
  budget or loosen the tolerance.

All derive from ``ScalerouteError``. The message says what failed and where.
The configuration classes (``SolverConfig``, ``ShapeConfig``, ``BatchConfig``,
``OracleConfig``) raise ValueError for a field out of range, or a count or
seed that is not an integer, instead, so that a random instance or a
verification batch never starts from a setting it cannot play.
"""

from __future__ import annotations


class ScalerouteError(Exception):
    """Base class for all scaleroute errors."""


class ValidationError(ScalerouteError):
    """An instance description or a model object violates a model invariant."""


class DomainError(ScalerouteError):
    """An argument lies outside the domain of the function that takes it."""


class NotConverged(ScalerouteError):
    """A solver failed to reach its gap tolerance within the iteration budget.

    Carries the unconverged result so callers can inspect or reuse it.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result
