"""Closed-form price-of-anarchy machinery for the mixed-autonomy SCALE leader.

Everything here is a pure function of the network autonomy fraction
``alpha`` in (0, 1) and the minimum degree of asymmetry ``mu`` in (0, 1]
(plus per-link quantities for the latency-ratio bounds). The final upper
bound is piecewise in alpha: the (alpha, mu) plane splits into four regions
separated by the thresholds alpha0 < alpha1 < alpha2, and each region picks
a different closed-form expression; below alpha0 no admissible certificate
exists and the bound is infinite.

Two documented discrepancies are resolved here and flagged in results:
``alpha1`` uses the expression consistent with the minimization that defines
it (the alternative expression is exposed as ``alpha_tilde``, which also
separates the two shapes of the feasible lambda set), and the
``lambda_plus`` evaluation uses the variant that recovers the single-class
bound at mu = 1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError

#: slack accepted on the gamma <= 1/alpha precondition of the beta bounds
GAMMA_DOMAIN_SLACK = 1e-9


class Region(enum.Enum):
    """Which closed-form expression bounds the price of anarchy."""

    A0 = "A0"
    A1 = "A1"
    A_LAMBDA_STAR = "A_lambda_star"
    A_LAMBDA_PLUS = "A_lambda_plus"

    def __str__(self) -> str:  # CSV-friendly
        return self.value


@dataclass(frozen=True)
class AlphaThresholds:
    """Region boundaries in alpha, as functions of mu only.

    Raw values may fall outside [0, 1] (including -inf at mu = 1), which
    renders the corresponding regions empty.
    """

    mu: float
    alpha0: float
    alpha1: float
    alpha2: float
    alpha_tilde: float


@dataclass(frozen=True)
class LambdaThresholds:
    """Critical values of the certificate parameter lambda for fixed (alpha, mu)."""

    alpha: float
    mu: float
    lambda_omega1: float
    lambda_omega2: float
    lambda_plus: float
    lambda_minus: float
    lambda_1: float
    lambda_star: float


@dataclass(frozen=True)
class BoundResult:
    """Price-of-anarchy upper bound with its region and provenance."""

    region: Region
    thresholds: AlphaThresholds
    bound: float
    expression_used: str


def _check_alpha_mu(alpha: float, mu: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha = {alpha} must lie in (0, 1)")
    if not 0.0 < mu <= 1.0:
        raise DomainError(f"mu = {mu} must lie in (0, 1]")


def _check_lambda(lam: float) -> None:
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"lambda = {lam} must lie in [0, 1]")


# --- latency-ratio bounds ----------------------------------------------------


def _check_gamma(gamma: float, alpha: float) -> float:
    if not gamma >= 0.0:  # NaN fails too
        raise DomainError(f"gamma = {gamma} must be nonnegative")
    limit = 1.0 / alpha
    if gamma > limit + GAMMA_DOMAIN_SLACK:
        raise DomainError(f"gamma = {gamma} exceeds 1/alpha = {limit}")
    return min(gamma, limit)


def beta_bound(gamma: float, alpha: float, mu: float, alpha_star: float) -> float:
    """Upper bound on a link's latency ratio given its flow ratio.

    Piecewise in the ratio ``gamma`` of optimal to induced total link flow:
    1 at gamma = 0, an algebraic expression on (0, gamma_tilde), and 0 from
    gamma_tilde on, where gamma_tilde depends on the link's optimal-flow
    degree of autonomy ``alpha_star``.
    """
    _check_alpha_mu(alpha, mu)
    if not 0.0 <= alpha_star <= 1.0:
        raise DomainError(f"alpha_star = {alpha_star} must lie in [0, 1]")
    gamma = _check_gamma(gamma, alpha)
    if gamma == 0.0:
        return 1.0
    gamma_tilde = 1.0 / (1.0 + (alpha - alpha_star) * (1.0 - mu))
    if gamma >= gamma_tilde:
        return 0.0
    return 1.0 - (1.0 - alpha_star * (1.0 - mu)) / (1.0 / gamma - alpha * (1.0 - mu))


def beta_bound_relaxed(gamma: float, alpha: float, mu: float) -> float:
    """Latency-ratio bound relaxed to be independent of the optimal split.

    Dominates ``beta_bound`` for every alpha_star in [0, 1]; the crossover
    to the zero branch moves out to gamma_plus = 1/(alpha(1-mu) + mu).
    """
    _check_alpha_mu(alpha, mu)
    gamma = _check_gamma(gamma, alpha)
    if gamma == 0.0:
        return 1.0
    gamma_plus = 1.0 / (alpha * (1.0 - mu) + mu)
    if gamma >= gamma_plus:
        return 0.0
    return 1.0 - mu / (1.0 / gamma - alpha * (1.0 - mu))


# --- omega machinery ------------------------------------------------------------


def delta(lam: float, alpha: float, mu: float) -> float:
    """sqrt(lam*mu / (alpha(1-mu) + lam*mu)), the maximizer kernel of omega1.

    Equals 1 exactly at mu = 1 for any lam > 0; the corner lam = 0, mu = 1
    is undefined.
    """
    _check_alpha_mu(alpha, mu)
    _check_lambda(lam)
    if mu == 1.0:
        if lam == 0.0:
            raise DomainError("delta is undefined at lambda = 0, mu = 1")
        return 1.0
    return math.sqrt(lam * mu / (alpha * (1.0 - mu) + lam * mu))


def omega1(lam: float, alpha: float, mu: float) -> float:
    """Interior-maximum branch of the per-link certificate function.

    Evaluated as 1 / ((alpha(1-mu) + lam*mu) (1 + delta)^2), the simplified
    equivalent of the two-term closed form, which stays well conditioned as
    mu approaches 1. At mu = 1 it is 1/(4 lam), undefined at lam = 0 (see
    ``delta``).
    """
    _check_alpha_mu(alpha, mu)
    _check_lambda(lam)
    return 1.0 / ((alpha * (1.0 - mu) + lam * mu) * (1.0 + delta(lam, alpha, mu)) ** 2)


def omega2(lam: float, alpha: float, mu: float) -> float:
    """Boundary branch (1 - lam)/alpha of the certificate function."""
    _check_alpha_mu(alpha, mu)
    _check_lambda(lam)
    return (1.0 - lam) / alpha


def omega1_sup(lam: float, alpha: float, mu: float) -> float:
    """Supremum of the first-branch objective over its whole gamma interval.

    For lam below lambda_1 the maximizer sits at the interval boundary and
    the supremum is (1-lam)/(alpha(1-mu)+mu); beyond lambda_1 it is the
    interior maximum ``omega1``.
    """
    lambda_1 = lambda_thresholds(alpha, mu).lambda_1  # also checks alpha and mu
    _check_lambda(lam)
    if lam <= lambda_1:
        return (1.0 - lam) / (alpha * (1.0 - mu) + mu)
    return omega1(lam, alpha, mu)


def omega(lam: float, alpha: float, mu: float) -> float:
    """Network certificate function: omega2 up to lambda_plus, omega1 beyond."""
    thresholds = lambda_thresholds(alpha, mu)
    if lam <= thresholds.lambda_plus:
        return omega2(lam, alpha, mu)
    return omega1(lam, alpha, mu)


def lambda_thresholds(alpha: float, mu: float) -> LambdaThresholds:
    """All critical lambda values for fixed (alpha, mu)."""
    _check_alpha_mu(alpha, mu)
    aa = alpha * (1.0 - mu)
    q = math.sqrt(1.0 - alpha)
    denom = alpha * (1.0 - mu) ** 2 + 4.0 * mu
    return LambdaThresholds(
        alpha=alpha,
        mu=mu,
        lambda_omega1=(1.0 - aa) ** 2 / (4.0 * mu),
        lambda_omega2=1.0 - alpha,
        lambda_plus=(2.0 * mu * (1.0 + q) - aa * mu) / denom,
        lambda_minus=(2.0 * mu * (1.0 - q) - aa * mu) / denom,
        lambda_1=mu / (aa + 2.0 * mu),
        lambda_star=(1.0 - aa) ** 2 / ((2.0 - aa) * mu),
    )


# --- region structure --------------------------------------------------------------


def alpha_thresholds(mu: float) -> AlphaThresholds:
    """Region boundaries alpha0, alpha1, alpha2 (and alpha_tilde) for a given mu.

    At mu = 1 every threshold is -inf: all of (0, 1) maps to the
    lambda_plus region.
    """
    if not 0.0 < mu <= 1.0:
        raise DomainError(f"mu = {mu} must lie in (0, 1]")
    return _alpha_thresholds(mu)


def _alpha_thresholds(mu: float) -> AlphaThresholds:
    """``alpha_thresholds`` at a checked mu."""
    if mu == 1.0:
        ninf = float("-inf")
        return AlphaThresholds(mu=mu, alpha0=ninf, alpha1=ninf, alpha2=ninf, alpha_tilde=ninf)
    root = math.sqrt(mu)
    return AlphaThresholds(
        mu=mu,
        alpha0=(1.0 - 2.0 * root) / (1.0 - mu),
        alpha1=1.0 + (mu - math.sqrt(mu * mu + 4.0 * mu)) / (2.0 * (1.0 - mu)),
        alpha2=(1.0 - 2.0 * mu) / (1.0 - mu) ** 2,
        alpha_tilde=(1.0 - 2.0 * root) / (1.0 - root) ** 2,
    )


def classify_region(alpha: float, mu: float) -> Region:
    """Map (alpha, mu) to the region that selects the bound expression."""
    _check_alpha_mu(alpha, mu)
    return _region(alpha, _alpha_thresholds(mu))


def _region(alpha: float, t: AlphaThresholds) -> Region:
    """``classify_region`` at a checked (alpha, mu), given its thresholds t."""
    if alpha <= t.alpha0:
        return Region.A0
    if alpha < t.alpha1:
        return Region.A1
    if alpha < t.alpha2:
        return Region.A_LAMBDA_STAR
    return Region.A_LAMBDA_PLUS


def feasible_lambda_interval(alpha: float, mu: float) -> tuple[float, float] | None:
    """Feasible lambda set as a half-open interval (lo, 1], or None if empty.

    Empty for alpha <= alpha0; bounded below by the omega1 root up to
    alpha_tilde and by the omega2 root beyond it.
    """
    _check_alpha_mu(alpha, mu)
    t = alpha_thresholds(mu)
    if alpha <= t.alpha0:
        return None
    lt = lambda_thresholds(alpha, mu)
    if alpha <= t.alpha_tilde:
        return (lt.lambda_omega1, 1.0)
    return (lt.lambda_omega2, 1.0)


# --- bound expressions --------------------------------------------------------------


def _poa_w1_at_one(alpha: float, mu: float) -> float:
    aa = alpha * (1.0 - mu)
    num = aa * aa - aa - 2.0 * mu - 2.0 * math.sqrt(mu * mu + aa * mu)
    den = (1.0 - aa) ** 2 - 4.0 * mu
    if den == 0.0:
        return float("inf")
    return num / den


def _poa_w1_at_star(alpha: float, mu: float) -> float:
    return (1.0 - alpha * (1.0 - mu)) / mu


def _poa_w1_at_plus(alpha: float, mu: float) -> float:
    # demand-normalized form: numerator and denominator both divided by
    # alpha, using (1 - sqrt(1-alpha))/alpha = 1/(1 + sqrt(1-alpha)) so the
    # alpha -> 0 and alpha -> 1 limits evaluate without cancellation.
    q = math.sqrt(1.0 - alpha)
    num = 2.0 * mu * (1.0 + q) - alpha * (1.0 - mu) * mu
    den = alpha * (1.0 - mu) ** 2 + (5.0 * mu - 1.0) - 2.0 * mu / (1.0 + q)
    return num / den


def poa_bound(alpha: float, mu: float) -> BoundResult:
    """Price-of-anarchy upper bound for the mixed-autonomy SCALE leader.

    Dispatches on the alpha-region: infinite below alpha0, then the
    lambda = 1 expression, the interior-stationary expression
    (1 - alpha(1-mu))/mu, and the lambda_plus expression from alpha2 on.
    """
    _check_alpha_mu(alpha, mu)
    thresholds = _alpha_thresholds(mu)
    region = _region(alpha, thresholds)
    if region is Region.A0:
        bound, expr = float("inf"), "inf"
    elif region is Region.A1:
        bound, expr = _poa_w1_at_one(alpha, mu), "PoA_omega1(1)"
    elif region is Region.A_LAMBDA_STAR:
        bound, expr = _poa_w1_at_star(alpha, mu), "PoA_omega1(lambda_star)"
    else:
        bound, expr = _poa_w1_at_plus(alpha, mu), "PoA_omega1(lambda_plus)"
    return BoundResult(region=region, thresholds=thresholds, bound=bound, expression_used=expr)


def poa_from_lambda(lam: float, alpha: float, mu: float) -> float:
    """Certificate value lam/(1 - omega(lam)) for a feasible lam."""
    w = omega(lam, alpha, mu)
    if w >= 1.0:
        raise DomainError(f"omega({lam}) = {w} >= 1: lambda outside the feasible set")
    return lam / (1.0 - w)


def poa_bound_selfish(mu: float) -> float:
    """Fully selfish two-class routing bound 4 mu / (4 mu - 1), for mu > 1/4."""
    if not 0.0 < mu <= 1.0:
        raise DomainError(f"mu = {mu} must lie in (0, 1]")
    if mu <= 0.25:
        raise DomainError(f"selfish bound requires mu > 1/4, got {mu}")
    return 4.0 * mu / (4.0 * mu - 1.0)


def poa_bound_single_class(alpha: float) -> float:
    """Single-class SCALE bound (1+sqrt(1-alpha))^2 / (2(1+sqrt(1-alpha)) - 1)."""
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha = {alpha} must lie in [0, 1]")
    u = 1.0 + math.sqrt(1.0 - alpha)
    return u * u / (2.0 * u - 1.0)
