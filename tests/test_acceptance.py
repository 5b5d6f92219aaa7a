"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavy random batches
are session fixtures shared across criteria (see conftest).
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import scaleroute as sr
from scaleroute.solvers import _by_descent, _Quadratic
from conftest import BATCH_SOLVER, make_pigou


def _passed(n: int, text: str) -> None:
    print(f"[PASS] criterion {n}: {text}")


def test_criterion_01_single_class_recovery():
    start = time.time()
    grid = np.arange(1, 100) / 100.0
    worst = 0.0
    for alpha in grid:
        reference = (1.0 + math.sqrt(1.0 - alpha)) ** 2 / (
            2.0 * (1.0 + math.sqrt(1.0 - alpha)) - 1.0
        )
        worst = max(worst, abs(sr.poa_bound(float(alpha), 1.0).bound - reference))
    assert worst <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 1.0
    _passed(1, f"single-class recovery, max err {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_02_zero_autonomy_limit():
    start = time.time()
    for mu in (0.3, 0.4, 0.5, 0.8, 1.0):
        selfish = 4.0 * mu / (4.0 * mu - 1.0)
        assert abs(sr.poa_bound(1e-9, mu).bound - selfish) <= 1e-6
        for alpha in np.arange(0.1, 0.95, 0.1):
            assert sr.poa_bound(float(alpha), mu).bound < selfish
    elapsed = time.time() - start
    assert elapsed < 1.0
    _passed(2, f"zero-autonomy limit recovers 4mu/(4mu-1) and improves on it ({elapsed:.2f}s)")


def test_criterion_03_full_autonomy_limit():
    start = time.time()
    for mu in (0.1, 1.0 / 3.0, 0.5, 1.0):
        assert abs(sr.poa_bound(1.0 - 1e-9, mu).bound - 1.0) <= 1e-6
    elapsed = time.time() - start
    assert elapsed < 1.0
    _passed(3, f"full-autonomy limit is 1 ({elapsed:.2f}s)")


def test_criterion_04_region_structure():
    start = time.time()
    for mu in np.arange(0.001, 1.0005, 0.001):
        mu = float(min(mu, 1.0))
        intervals = sr.harness.region_alpha_intervals(mu)
        if intervals[sr.Region.A1] is not None or intervals[sr.Region.A_LAMBDA_STAR] is not None:
            assert mu < 0.5
        if intervals[sr.Region.A0] is not None:
            assert mu <= 0.25 + 1e-12
        if mu >= 0.5:
            lo, hi = intervals[sr.Region.A_LAMBDA_PLUS]
            assert lo == 0.0 and hi == 1.0
            for alpha in (0.05, 0.25, 0.5, 0.75, 0.95):
                assert sr.classify_region(alpha, mu) is sr.Region.A_LAMBDA_PLUS
    elapsed = time.time() - start
    assert elapsed < 5.0
    _passed(4, f"A1/A_lambda_star only below mu=1/2, A0 only below mu=1/4 ({elapsed:.2f}s)")


def test_criterion_05_boundary_continuity():
    start = time.time()
    eps = 1e-9
    for mu in (0.3, 1.0 / 3.0, 0.45):
        t = sr.alpha_thresholds(mu)
        for boundary in (t.alpha1, t.alpha2):
            below = sr.poa_bound(boundary - eps, mu).bound
            above = sr.poa_bound(boundary + eps, mu).bound
            assert abs(below - above) <= 1e-6
    # independently derived shared value at alpha1(1/3), by both closed forms
    mu = 1.0 / 3.0
    a1 = sr.alpha_thresholds(mu).alpha1
    aa = a1 * (1.0 - mu)
    from_star = (1.0 - aa) / mu
    from_one = (aa * aa - aa - 2.0 * mu - 2.0 * math.sqrt(mu * mu + aa * mu)) / (
        (1.0 - aa) ** 2 - 4.0 * mu
    )
    assert abs(from_star - 2.30278) <= 1e-4
    assert abs(from_one - 2.30278) <= 1e-4
    elapsed = time.time() - start
    assert elapsed < 1.0
    _passed(5, f"bound continuous at alpha1/alpha2; shared value 2.30278 at mu=1/3 ({elapsed:.2f}s)")


def test_criterion_06_lambda_approach_consistency():
    start = time.time()
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 100:
        alpha = float(rng.uniform(0.02, 0.98))
        mu = float(rng.uniform(0.05, 1.0))
        interval = sr.feasible_lambda_interval(alpha, mu)
        if interval is None:
            continue
        lo, _ = interval
        lt = sr.lambda_thresholds(alpha, mu)
        grid = np.arange(lo + 1e-6, 1.0, 1e-6)
        extras = [1.0]
        if lo < lt.lambda_plus <= 1.0:
            extras.append(lt.lambda_plus)
        grid = np.concatenate([grid, np.array(extras)])
        # vectorized certificate function, same piecewise form as omega()
        aa = alpha * (1.0 - mu)
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.sqrt(grid * mu / (aa + grid * mu))
            w1 = 1.0 / ((aa + grid * mu) * (1.0 + d) ** 2)
        w = np.where(grid <= lt.lambda_plus, (1.0 - grid) / alpha, w1)
        feasible = w < 1.0
        poa = np.where(feasible, grid / (1.0 - w), np.inf)
        assert abs(float(poa.min()) - sr.poa_bound(alpha, mu).bound) <= 1e-5
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    _passed(6, f"lambda-grid minimization matches poa_bound on 100 draws ({elapsed:.2f}s)")


def test_criterion_07_omega_maximizer():
    start = time.time()
    rng = np.random.default_rng(777)
    for _ in range(200):
        alpha = float(rng.uniform(0.05, 0.95))
        mu = float(rng.uniform(0.05, 1.0))
        lam = float(rng.uniform(0.0, 1.0))
        analytic = sr.omega(lam, alpha, mu)
        gammas = np.arange(0.0, 1.0 / alpha + 5e-5, 1e-4)
        gammas = np.append(gammas[gammas <= 1.0 / alpha], 1.0 / alpha)
        gamma_plus = 1.0 / (alpha * (1.0 - mu) + mu)
        with np.errstate(divide="ignore", invalid="ignore"):
            beta = np.where(
                gammas == 0.0,
                1.0,
                np.where(
                    gammas < gamma_plus,
                    1.0 - mu / (1.0 / gammas - alpha * (1.0 - mu)),
                    0.0,
                ),
            )
        supremum = float((gammas * (1.0 + (beta - 1.0) * lam)).max())
        assert abs(analytic - supremum) <= 1e-3
    elapsed = time.time() - start
    assert elapsed < 30.0
    _passed(7, f"analytic omega equals gamma-grid supremum on 200 draws ({elapsed:.2f}s)")


def test_criterion_08_beta_bound_dominance(batch_outcomes):
    start = time.time()
    links_checked = 0
    for _, instance, outcome in batch_outcomes:
        alpha = sr.network_autonomy_fraction(instance)
        m = sr.measure_links(outcome)
        for i, link in enumerate(instance.links):
            if not (m.beta_defined[i] and m.gamma_defined[i]):
                continue
            gamma = min(m.gamma[i], 1.0 / alpha)
            alpha_star = m.alpha_star[i] if m.alpha_star_defined[i] else 0.0
            exact = sr.beta_bound(gamma, alpha, link.asymmetry, alpha_star)
            relaxed = sr.beta_bound_relaxed(gamma, alpha, link.asymmetry)
            assert m.beta[i] <= exact + 1e-8
            assert exact <= relaxed + 1e-8
            links_checked += 1
    elapsed = time.time() - start
    assert elapsed < 120.0
    _passed(8, f"beta <= exact <= relaxed bound on {links_checked} defined links ({elapsed:.2f}s)")


def test_criterion_09_bound_dominance_end_to_end(verification_report):
    start = time.time()
    report = verification_report
    assert len(report.rows) == 200
    assert report.failures == 0
    certified_checked = 0
    for row in report.rows:
        if row.certified and math.isfinite(row.poa_bound):
            assert 1.0 - 1e-6 <= row.poa_emp <= row.poa_bound + 1e-6
            certified_checked += 1
    assert certified_checked > 0
    elapsed = time.time() - start
    assert elapsed < 300.0
    _passed(
        9,
        f"zero failures on 200 instances; {certified_checked} certified rows inside the bound "
        f"({elapsed:.2f}s)",
    )


def test_criterion_10_oracle_equivalence(parallel_batch):
    start = time.time()
    for row in parallel_batch:
        # the exact optimum against the descent alone, an independent solve
        solver_totals = row["opt"].flow.total_link_flows
        descent = _by_descent(_Quadratic.social_cost(row["instance"]), BATCH_SOLVER)
        assert np.max(np.abs(solver_totals - descent.flow.total_link_flows)) <= 1e-3
        assert np.max(np.abs(row["follower"].flow.link_flows_h - row["oracle_t"])) <= 1e-3
    # the canonical two-link reference point
    pigou = make_pigou(alpha=0.5)
    outcome = sr.play(pigou)
    assert abs(outcome.optimal_cost - 0.75) <= 2e-2
    assert abs(outcome.induced_cost - 0.8125) <= 2e-2
    assert abs(outcome.empirical_poa - 1.083) <= 2e-2
    elapsed = time.time() - start
    assert elapsed < 120.0
    _passed(10, f"exact optimum matches the descent, follower the oracle, on 50 parallel instances ({elapsed:.2f}s)")


def test_criterion_11_wardrop_certificates(batch_outcomes, parallel_batch):
    start = time.time()
    checked = 0
    for _, instance, outcome in batch_outcomes:
        gap = sr.wardrop_gap(
            instance, outcome.leader_link_flows, outcome.follower_flow.path_flows_h
        )
        assert gap <= 1e-8
        checked += 1
    for row in parallel_batch:
        follower = row["follower"]
        gap = sr.wardrop_gap(row["instance"], row["s_link"], follower.flow.path_flows_h)
        assert gap <= 1e-8
        checked += 1
    elapsed = time.time() - start
    _passed(11, f"independently recomputed gap <= 1e-8 on {checked} equilibria ({elapsed:.2f}s)")


def test_criterion_12_figure_reproduction():
    start = time.time()
    table = sr.curve_tables("poa-bounds", mus=[0.5, 0.7, 1.0])
    for mu in (0.5, 0.7, 1.0):
        label = f"mu={sr.harness.format_float(mu)}"
        points = table.series(label)
        assert points
        values = np.array([y for _, y in points])
        assert np.all(np.diff(values) <= 1e-12)
    for alpha, value in table.series("mu=1"):
        assert abs(value - sr.poa_bound(alpha, 1.0).bound) <= 1e-12
        assert abs(value - sr.poa_bound_single_class(alpha)) <= 1e-12
    # divergence toward the vacuous region for small mu
    for mu in (0.1, 0.2, 0.25):
        t = sr.alpha_thresholds(mu)
        grid = [t.alpha0 + 1e-6, (t.alpha0 + 1.0) / 2.0, 0.99]
        diverging = sr.curve_tables("poa-bounds", mus=[mu], grid=grid)
        label = f"mu={sr.harness.format_float(mu)}"
        near_pole = dict(diverging.series(label))[t.alpha0 + 1e-6]
        assert math.isfinite(near_pole) and near_pole > 1e3
        markers = diverging.series(f"alpha0[{label}]")
        assert markers and markers[0][0] == pytest.approx(t.alpha0)
    elapsed = time.time() - start
    assert elapsed < 5.0
    _passed(12, f"bound curves monotone, mu=1 equals the single-class curve, poles marked ({elapsed:.2f}s)")
