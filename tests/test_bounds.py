"""Closed-form bound machinery: examples, thresholds, regions, invariants."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scaleroute as sr
from scaleroute.bounds import Region

ALPHAS = st.floats(min_value=0.01, max_value=0.99)
MUS = st.floats(min_value=0.01, max_value=1.0)
LAMBDAS = st.floats(min_value=0.0, max_value=1.0)


class TestBetaBounds:
    def test_zero_gamma_gives_one(self):
        assert sr.beta_bound(0.0, 0.5, 0.5, 0.5) == 1.0
        assert sr.beta_bound_relaxed(0.0, 0.5, 0.5) == 1.0

    def test_mu_one_collapses_asymmetry(self):
        # gamma_tilde = 1 at mu = 1, so the middle branch is 1 - gamma
        assert sr.beta_bound(0.5, 0.3, 1.0, 0.7) == pytest.approx(0.5)
        assert sr.beta_bound_relaxed(0.5, 0.3, 1.0) == pytest.approx(0.5)

    def test_zero_from_gamma_tilde_on(self):
        alpha, mu, alpha_star = 0.4, 0.6, 0.2
        gamma_tilde = 1.0 / (1.0 + (alpha - alpha_star) * (1.0 - mu))
        assert sr.beta_bound(gamma_tilde, alpha, mu, alpha_star) == 0.0
        assert sr.beta_bound(gamma_tilde + 0.1, alpha, mu, alpha_star) == 0.0

    def test_domain_error_beyond_one_over_alpha(self):
        with pytest.raises(sr.DomainError):
            sr.beta_bound(2.1, 0.5, 0.5, 0.5)
        with pytest.raises(sr.DomainError):
            sr.beta_bound_relaxed(2.1, 0.5, 0.5)

    def test_domain_error_on_nan_gamma(self):
        # NaN fails both range tests unless one asks gamma >= 0
        with pytest.raises(sr.DomainError, match="gamma = nan"):
            sr.beta_bound(math.nan, 0.5, 0.5, 0.5)
        with pytest.raises(sr.DomainError, match="gamma = nan"):
            sr.beta_bound_relaxed(math.nan, 0.5, 0.5)

    def test_relaxed_gamma_plus_value(self):
        # alpha = 0.5, mu = 0.5: crossover at 1/(0.25 + 0.5) = 4/3
        gamma_plus = 1.0 / (0.5 * 0.5 + 0.5)
        assert gamma_plus == pytest.approx(4.0 / 3.0)
        assert sr.beta_bound_relaxed(gamma_plus, 0.5, 0.5) == 0.0
        assert sr.beta_bound_relaxed(gamma_plus - 1e-9, 0.5, 0.5) == pytest.approx(0.0, abs=1e-8)

    def test_relaxed_dominates_exact_on_random_tuples(self):
        rng = np.random.default_rng(12345)
        for _ in range(1000):
            alpha = rng.uniform(0.01, 0.99)
            mu = rng.uniform(0.01, 1.0)
            alpha_star = rng.uniform(0.0, 1.0)
            gamma = rng.uniform(0.0, 1.0 / alpha)
            exact = sr.beta_bound(gamma, alpha, mu, alpha_star)
            relaxed = sr.beta_bound_relaxed(gamma, alpha, mu)
            assert relaxed >= exact - 1e-12


class TestDelta:
    def test_mu_one_is_one(self):
        assert sr.delta(0.5, 0.3, 1.0) == 1.0

    def test_zero_lambda_is_zero(self):
        assert sr.delta(0.0, 0.3, 0.5) == 0.0

    def test_direct_arithmetic(self):
        assert sr.delta(0.5, 0.5, 0.5) == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_undefined_corner(self):
        with pytest.raises(sr.DomainError):
            sr.delta(0.0, 0.5, 1.0)


class TestOmega:
    def test_omega2_value(self):
        assert sr.omega2(0.3, 0.5, 0.5) == pytest.approx(1.4)

    def test_omega1_limit_branch_against_near_one_mu(self):
        value = sr.omega1(0.5, 0.3, 1.0)
        assert value == pytest.approx(0.5)
        near = sr.omega1(0.5, 0.3, 1.0 - 1e-8)
        assert abs(value - near) <= 1e-4

    def test_omega1_limit_branch_rejects_zero_lambda(self):
        with pytest.raises(sr.DomainError):
            sr.omega1(0.0, 0.3, 1.0)

    def test_omega1_matches_two_term_closed_form(self):
        # the implementation uses the simplified equivalent; check the
        # original two-term expression on a grid
        for alpha in (0.1, 0.4, 0.8):
            for mu in (0.2, 0.5, 0.9, 1.0 - 1e-10):
                for lam in (0.1, 0.5, 1.0):
                    d = sr.delta(lam, alpha, mu)
                    two_term = (1.0 - d) / (alpha * (1.0 - mu)) - (
                        mu * (1.0 - d) ** 2 * lam
                    ) / (alpha**2 * (1.0 - mu) ** 2 * d)
                    assert sr.omega1(lam, alpha, mu) == pytest.approx(two_term, rel=1e-9)

    def test_piecewise_continuity_at_lambda_plus(self):
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            for mu in (0.3, 0.5, 0.8, 1.0):
                lp = sr.lambda_thresholds(alpha, mu).lambda_plus
                assert abs(sr.omega1(lp, alpha, mu) - sr.omega2(lp, alpha, mu)) <= 1e-9

    def test_branch_ordering_uses_supremum_form(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            alpha = rng.uniform(0.05, 0.95)
            mu = rng.uniform(0.05, 1.0)
            lp = sr.lambda_thresholds(alpha, mu).lambda_plus
            for lam in np.linspace(0.0, 1.0, 101):
                w1 = sr.omega1_sup(lam, alpha, mu)
                w2 = sr.omega2(lam, alpha, mu)
                if lam < lp - 1e-12:
                    assert w1 < w2 + 1e-12
                elif lam > lp + 1e-12:
                    assert w1 >= w2 - 1e-12


class TestLambdaThresholds:
    def test_omega2_root(self):
        assert sr.lambda_thresholds(0.3, 0.5).lambda_omega2 == pytest.approx(0.7)

    def test_lambda_plus_at_mu_one(self):
        for alpha in (1e-9, 0.25, 0.5, 0.9):
            expected = (1.0 + math.sqrt(1.0 - alpha)) / 2.0
            assert sr.lambda_thresholds(alpha, 1.0).lambda_plus == pytest.approx(expected, abs=1e-12)

    def test_omega1_root_small_alpha_mu_one(self):
        assert sr.lambda_thresholds(1e-12, 1.0).lambda_omega1 == pytest.approx(0.25)

    @settings(max_examples=150, deadline=None)
    @given(alpha=ALPHAS, mu=MUS)
    def test_threshold_order_invariants(self, alpha, mu):
        t = sr.lambda_thresholds(alpha, mu)
        assert 0.0 < t.lambda_minus < t.lambda_1
        assert t.lambda_1 < t.lambda_plus < 1.0
        assert t.lambda_star > t.lambda_omega1


class TestRegions:
    def test_high_mu_always_lambda_plus(self):
        for alpha in (0.05, 0.3, 0.6, 0.95):
            assert sr.classify_region(alpha, 0.6) is Region.A_LAMBDA_PLUS

    def test_mid_mu_lambda_star(self):
        t = sr.alpha_thresholds(1.0 / 3.0)
        assert t.alpha1 == pytest.approx(0.34861, abs=1e-5)
        assert t.alpha2 == pytest.approx(0.75)
        assert sr.classify_region(0.5, 1.0 / 3.0) is Region.A_LAMBDA_STAR

    def test_low_mu_low_alpha_vacuous(self):
        t = sr.alpha_thresholds(1.0 / 9.0)
        assert t.alpha0 == pytest.approx(0.375)
        assert sr.classify_region(0.3, 1.0 / 9.0) is Region.A0

    def test_threshold_flags_and_clamping(self):
        t = sr.alpha_thresholds(0.6)
        assert not 0.0 <= t.alpha2 <= 1.0
        assert t.alpha2 < 0.0
        assert 0.0 <= sr.alpha_thresholds(0.2).alpha0 <= 1.0

    def test_alpha_tilde_at_least_alpha0_when_in_range(self):
        for mu in np.linspace(0.01, 0.24, 40):
            t = sr.alpha_thresholds(mu)
            if 0.0 <= t.alpha_tilde <= 1.0 and 0.0 <= t.alpha0 <= 1.0:
                assert t.alpha_tilde >= t.alpha0 - 1e-12


class TestFeasibleLambdaInterval:
    def test_mu_one_uses_omega2_root(self):
        for alpha in (0.2, 0.5, 0.8):
            interval = sr.feasible_lambda_interval(alpha, 1.0)
            assert interval == (pytest.approx(1.0 - alpha), 1.0)

    def test_empty_below_alpha0(self):
        assert sr.feasible_lambda_interval(0.3, 1.0 / 9.0) is None

    def test_omega1_root_branch(self):
        t = sr.alpha_thresholds(1.0 / 9.0)
        assert t.alpha_tilde == pytest.approx(0.75)
        interval = sr.feasible_lambda_interval(0.4, 1.0 / 9.0)
        lt = sr.lambda_thresholds(0.4, 1.0 / 9.0)
        assert interval == (pytest.approx(lt.lambda_omega1), 1.0)


class TestPoaBound:
    def test_lambda_star_region_value(self):
        result = sr.poa_bound(0.5, 1.0 / 3.0)
        assert result.region is Region.A_LAMBDA_STAR
        assert result.bound == pytest.approx(2.0, abs=1e-9)
        assert result.expression_used == "PoA_omega1(lambda_star)"

    def test_single_class_point(self):
        result = sr.poa_bound(0.5, 1.0)
        assert result.bound == pytest.approx(1.20711, abs=1e-5)
        assert result.region is Region.A_LAMBDA_PLUS

    def test_vacuous_region_is_infinite(self):
        result = sr.poa_bound(0.3, 1.0 / 9.0)
        assert result.region is Region.A0
        assert math.isinf(result.bound)
        assert result.expression_used == "inf"
        assert not math.isfinite(result.bound)

    def test_domain_errors(self):
        with pytest.raises(sr.DomainError):
            sr.poa_bound(0.0, 0.5)
        with pytest.raises(sr.DomainError):
            sr.poa_bound(0.5, 1.5)


class TestPoaFromLambda:
    def test_mu_one_at_lambda_one(self):
        # omega1(1) = 1/4 in the single-class limit
        assert sr.poa_from_lambda(1.0, 0.5, 1.0) == pytest.approx(4.0 / 3.0)

    def test_infeasible_at_omega2_root(self):
        lt = sr.lambda_thresholds(0.4, 0.8)
        with pytest.raises(sr.DomainError, match="lambda outside the feasible set"):
            sr.poa_from_lambda(lt.lambda_omega2, 0.4, 0.8)

    def test_grid_minimum_matches_bound(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            alpha = rng.uniform(0.05, 0.95)
            mu = rng.uniform(0.05, 1.0)
            interval = sr.feasible_lambda_interval(alpha, mu)
            if interval is None:
                continue
            lo, hi = interval
            grid = np.linspace(lo + 1e-7, hi, 20001)
            values = [sr.poa_from_lambda(float(lam), alpha, mu) for lam in grid]
            lt = sr.lambda_thresholds(alpha, mu)
            if lo < lt.lambda_plus <= 1.0:
                values.append(sr.poa_from_lambda(lt.lambda_plus, alpha, mu))
            assert min(values) == pytest.approx(sr.poa_bound(alpha, mu).bound, abs=1e-4)


class TestReferenceBounds:
    def test_selfish(self):
        assert sr.poa_bound_selfish(1.0) == pytest.approx(4.0 / 3.0)
        assert sr.poa_bound_selfish(0.5) == pytest.approx(2.0)
        with pytest.raises(sr.DomainError):
            sr.poa_bound_selfish(0.25)

    def test_single_class(self):
        assert sr.poa_bound_single_class(0.0) == pytest.approx(4.0 / 3.0)
        assert sr.poa_bound_single_class(1.0) == pytest.approx(1.0)
        assert sr.poa_bound_single_class(0.5) == pytest.approx(1.20711, abs=1e-5)


class TestBoundInvariants:
    def test_single_class_recovery_tight(self):
        for alpha in np.arange(0.01, 0.995, 0.01):
            diff = abs(sr.poa_bound(float(alpha), 1.0).bound - sr.poa_bound_single_class(float(alpha)))
            assert diff <= 1e-12

    def test_zero_autonomy_limit(self):
        for mu in (0.3, 0.4, 0.5, 0.8, 1.0):
            assert abs(sr.poa_bound(1e-9, mu).bound - sr.poa_bound_selfish(mu)) <= 1e-6

    def test_full_autonomy_limit(self):
        for mu in (0.1, 1.0 / 3.0, 0.5, 1.0):
            assert abs(sr.poa_bound(1.0 - 1e-9, mu).bound - 1.0) <= 1e-6

    def test_monotone_nonincreasing_in_alpha(self):
        grid = np.arange(0.001, 1.0, 0.001)
        for mu in (0.3, 0.5, 0.8, 1.0):
            values = np.array([sr.poa_bound(float(a), mu).bound for a in grid])
            finite = np.isfinite(values)
            assert np.all(np.diff(values[finite]) <= 1e-12)

    def test_boundary_continuity(self):
        for mu in (0.3, 1.0 / 3.0, 0.45):
            t = sr.alpha_thresholds(mu)
            for boundary in (t.alpha1, t.alpha2):
                below = sr.poa_bound(boundary - 1e-9, mu).bound
                above = sr.poa_bound(boundary + 1e-9, mu).bound
                assert abs(below - above) <= 1e-6

    def test_alpha1_shared_value_at_one_third(self):
        t = sr.alpha_thresholds(1.0 / 3.0)
        a1, mu = t.alpha1, 1.0 / 3.0
        # both closed forms, written out independently
        from_star = (1.0 - a1 * (1.0 - mu)) / mu
        aa = a1 * (1.0 - mu)
        from_one = (aa * aa - aa - 2.0 * mu - 2.0 * math.sqrt(mu * mu + aa * mu)) / (
            (1.0 - aa) ** 2 - 4.0 * mu
        )
        assert from_star == pytest.approx(2.30278, abs=1e-4)
        assert from_one == pytest.approx(2.30278, abs=1e-4)

    @settings(max_examples=40, deadline=None)
    @given(alpha=ALPHAS, mu=MUS, lam=LAMBDAS)
    def test_omega_matches_gamma_grid_supremum(self, alpha, mu, lam):
        analytic = sr.omega(lam, alpha, mu)
        gammas = np.linspace(0.0, 1.0 / alpha, 20001)
        gamma_plus = 1.0 / (alpha * (1.0 - mu) + mu)
        with np.errstate(divide="ignore", invalid="ignore"):
            beta = np.where(
                gammas == 0.0,
                1.0,
                np.where(gammas < gamma_plus, 1.0 - mu / (1.0 / gammas - alpha * (1.0 - mu)), 0.0),
            )
        values = gammas * (1.0 + (beta - 1.0) * lam)
        assert abs(analytic - float(values.max())) <= 2e-3

    def test_bound_at_least_one_when_finite(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            alpha = rng.uniform(0.001, 0.999)
            mu = rng.uniform(0.001, 1.0)
            result = sr.poa_bound(alpha, mu)
            if math.isfinite(result.bound):
                assert result.bound >= 1.0 - 1e-12
