"""Oracles, random generation, batch verification, curve tables."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scaleroute as sr
from scaleroute.harness import (
    _greedy_split,
    _split_cost,
    _total_grids,
    format_float,
    region_alpha_intervals,
    report_to_csv,
)

from conftest import make_pigou, make_two_identical

LOWMU_SHAPE = sr.ShapeConfig(parallel_probability=1.0, mu_min=0.05, alpha=0.2)


class TestOracleConfig:
    @pytest.mark.parametrize("max_links", [0, 4])
    def test_max_links_out_of_range(self, max_links):
        # the grids cover at most three links: a fourth must fail here, not inside a batch
        with pytest.raises(ValueError, match="max_links"):
            sr.OracleConfig(max_links=max_links)

    @pytest.mark.parametrize("max_links", [1, 2, 3])
    def test_max_links_in_range(self, max_links):
        assert sr.OracleConfig(max_links=max_links).max_links == max_links


@st.composite
def split_problems(draw):
    """Slopes a <= h, grid totals on {x >= 0, sum x = r} and an autonomous demand d <= r."""
    n = draw(st.integers(1, 3))
    floats = st.floats(0.5, 2.0)
    h = np.array(draw(st.lists(floats, min_size=n, max_size=n)))
    mu = np.array(draw(st.lists(st.just(1.0) | st.floats(0.05, 1.0), min_size=n, max_size=n)))
    if draw(st.booleans()):  # identical links: slopes tie, and totals wherever the grid ties
        h[:], mu[:] = h[0], mu[0]
    r = draw(floats)
    d = draw(st.sampled_from(["zero", "alpha", "full"]))
    d = {"zero": 0.0, "alpha": draw(st.floats(0.0, 1.0)) * r, "full": r}[d]
    X = np.concatenate(list(_total_grids(r, n, r / 20)), axis=1)
    return mu * h, h, X, d


class TestSplitCost:
    @settings(max_examples=150, deadline=None)
    @given(problem=split_problems())
    def test_equals_greedy_fill_cost(self, problem):
        # d = r puts autonomous flow on every link that carries any
        a, h, X, d = problem
        greedy = ((a - h)[:, None] * X * _greedy_split(a, h, X, d)).sum(axis=0)
        np.testing.assert_allclose(_split_cost(a, h, X, d), greedy, rtol=1e-12, atol=1e-14)


class TestOracleOptimal:
    def test_pigou_cost(self, pigou):
        _, cost = sr.oracle_optimal(pigou)
        assert cost == pytest.approx(0.75, abs=1e-2)

    def test_identical_links_split_evenly(self):
        instance = make_two_identical(alpha=0.5)
        flow, _ = sr.oracle_optimal(instance)
        assert flow.total_link_flows == pytest.approx([0.5, 0.5], abs=1e-3)

    def test_single_link_unique_point(self):
        instance = sr.build_instance(
            ("1", "2"),
            [sr.Link("e", "1", "2", 0.5, 1.0, 1.0)],
            [sr.ODPair("1", "2", 2.0, 0.25)],
        )
        flow, cost = sr.oracle_optimal(instance)
        assert flow.total_link_flows == pytest.approx([2.0])
        expected = 2.0 * (0.5 * 0.5 + 1.0 * 1.5 + 1.0)
        assert cost == pytest.approx(expected, rel=1e-12)

    def test_rejects_non_parallel(self, braess):
        with pytest.raises(sr.UnsupportedTopology):
            sr.oracle_optimal(braess)

    def test_rejects_too_many_links(self):
        instance = sr.build_instance(
            ("1", "2"),
            [sr.Link(f"e{i}", "1", "2", 1.0, 1.0, 0.0) for i in range(4)],
            [sr.ODPair("1", "2", 1.0, 0.5)],
        )
        with pytest.raises(sr.UnsupportedTopology):
            sr.oracle_optimal(instance)

    @pytest.mark.parametrize(
        "seed, totals, cost",
        [
            (1000, [0.7623674443839842, 0.4501884907779434, 0.7634374376763304], 2.3173589196731257),
            (1002, [0.22206756176716785, 0.6846347739212162, 0.01791250500814856], 0.9888659497765132),
        ],
    )
    def test_pinned_three_link_optima(self, seed, totals, cost):
        # computed when the grid priced the split by the sorting greedy fill;
        # pricing by duality must pick the same grid points
        instance = sr.random_instance(seed, LOWMU_SHAPE)
        assert instance.n_links == 3
        flow, got = sr.oracle_optimal(instance)
        assert flow.total_link_flows.tolist() == totals
        assert got == cost


class TestOracleNash:
    def test_pigou_no_leader(self):
        instance = make_pigou(alpha=0.0)
        t, gap = sr.oracle_nash(instance, np.zeros(2))
        assert t == pytest.approx([1.0, 0.0], abs=1e-3)
        assert gap <= 1e-3

    def test_pigou_with_scale_leader(self, pigou):
        t, gap = sr.oracle_nash(pigou, np.array([0.25, 0.25]))
        assert t == pytest.approx([0.5, 0.0], abs=1e-3)
        assert gap <= 1e-3

    def test_zero_human_demand(self):
        instance = make_two_identical(alpha=1.0)
        t, gap = sr.oracle_nash(instance, np.array([0.5, 0.5]))
        assert t == pytest.approx([0.0, 0.0])
        assert gap == 0.0


class TestRandomInstance:
    def test_same_seed_identical(self):
        shape = sr.ShapeConfig()
        a = sr.random_instance(42, shape)
        b = sr.random_instance(42, shape)
        assert a.nodes == b.nodes
        assert a.links == b.links
        assert a.od_pairs == b.od_pairs
        assert [p.nodes for p in a.paths.all_paths] == [p.nodes for p in b.paths.all_paths]

    def test_mu_min_respected(self):
        shape = sr.ShapeConfig(mu_min=0.6)
        for seed in range(20):
            instance = sr.random_instance(seed, shape)
            assert sr.min_asymmetry(instance) >= 0.6 - 1e-12

    def test_generated_instances_validate(self):
        shape = sr.ShapeConfig()
        for seed in range(30):
            instance = sr.random_instance(seed, shape)
            # re-validating the same description must succeed
            rebuilt = sr.build_instance(instance.nodes, instance.links, instance.od_pairs, instance.path_cap)
            assert rebuilt.n_paths == instance.n_paths
            assert len(instance.links) <= shape.max_links
            assert len(instance.od_pairs) <= shape.max_od_pairs
            assert len(instance.nodes) <= shape.max_nodes

    def test_parallel_shape(self):
        shape = sr.ShapeConfig(parallel_probability=1.0)
        for seed in range(10):
            instance = sr.random_instance(seed, shape)
            assert sr.is_parallel_link(instance)


class TestVerifyBounds:
    def test_small_batch_passes(self):
        report = sr.verify_bounds(sr.BatchConfig(count=20, base_seed=0))
        assert report.failures == 0
        assert report.summary()["total"] == 20
        for row in report.rows:
            if row.status == "pass":
                assert row.poa_emp <= row.poa_bound + 1e-6

    def test_vacuous_rows_are_not_failures(self):
        shape = sr.ShapeConfig(mu_min=0.05, alpha=0.05)
        report = sr.verify_bounds(sr.BatchConfig(count=15, base_seed=100, shape=shape))
        assert report.failures == 0
        vacuous = [row for row in report.rows if row.status == "vacuous"]
        assert vacuous, "expected at least one infinite-bound instance"
        for row in vacuous:
            assert math.isinf(row.poa_bound)

    def test_unconverged_marked_uncertified(self):
        solver = sr.SolverConfig(max_iterations=1, relative_gap_tol=1e-16)
        report = sr.verify_bounds(sr.BatchConfig(count=5, base_seed=0, solver=solver))
        assert report.failures == 0
        assert all(row.status in ("uncertified", "pass", "vacuous") for row in report.rows)
        assert any(row.status == "uncertified" for row in report.rows)

    def test_rows_ordered_by_seed_and_csv_schema(self):
        report = sr.verify_bounds(sr.BatchConfig(count=6, base_seed=3))
        assert [row.seed for row in report.rows] == list(range(3, 9))
        csv = report_to_csv(report)
        lines = csv.strip().split("\n")
        assert lines[0] == "seed,alpha,mu,poa_emp,poa_bound,region,margin,certified,status"
        assert len(lines) == 7

    def test_parallel_jobs_match_serial(self):
        config = sr.BatchConfig(count=8, base_seed=0)
        serial = sr.verify_bounds(config)
        parallel = sr.verify_bounds(sr.BatchConfig(count=8, base_seed=0, jobs=2))
        assert report_to_csv(serial) == report_to_csv(parallel)


class TestCurveTables:
    def test_poa_bounds_mu_one_matches_single_class(self):
        table = sr.curve_tables("poa-bounds", mus=[1.0])
        points = table.series("mu=1")
        assert points, "series missing"
        for alpha, value in points:
            assert abs(value - sr.poa_bound_single_class(alpha)) <= 1e-12

    def test_constraint_set_emptiness_patterns(self):
        table = sr.curve_tables("constraint-sets")
        mus_by_region: dict[str, list[float]] = {}
        for label, x, _ in table.rows:
            mus_by_region.setdefault(label, []).append(x)
        assert max(mus_by_region["A1"]) < 0.5
        assert max(mus_by_region["A_lambda_star"]) < 0.5
        assert max(mus_by_region["A0"]) <= 0.25 + 1e-9
        assert max(mus_by_region["A_lambda_plus"]) == pytest.approx(1.0)

    def test_divergence_near_alpha0(self):
        t = sr.alpha_thresholds(0.2)
        grid = [t.alpha0 + 1e-6, t.alpha0 + 1e-3, 0.5]
        table = sr.curve_tables("poa-bounds", mus=[0.2], grid=grid)
        values = dict(table.series("mu=0.2"))
        near_pole = values[t.alpha0 + 1e-6]
        assert math.isfinite(near_pole) and near_pole > 1e3

    def test_omega_vs_lambda_series(self):
        table = sr.curve_tables("omega-vs-lambda", alpha=0.4, mu=0.6)
        w1 = table.series("omega1")
        w2 = table.series("omega2")
        assert len(w1) == len(w2) == 501
        lp = sr.lambda_thresholds(0.4, 0.6).lambda_plus
        for (lam, v1), (_, v2) in zip(w1, w2):
            if lam < lp - 1e-9:
                assert v1 <= v2 + 1e-12

    def test_omega_vs_gamma_series(self):
        table = sr.curve_tables("omega-vs-gamma", alpha=0.5, mu=0.5, lam=0.75)
        labels = table.labels()
        assert labels == ["omega1", "omega2"] or set(labels) == {"omega1", "omega2"}
        gamma_plus = 1.0 / (0.5 * 0.5 + 0.5)
        assert all(0.0 < g < gamma_plus for g, _ in table.series("omega1"))

    def test_bad_kind(self):
        with pytest.raises(sr.BadKind):
            sr.curve_tables("nope")

    def test_tables_deterministic(self):
        a = sr.curve_tables("poa-bounds", mus=[0.5, 0.7])
        b = sr.curve_tables("poa-bounds", mus=[0.5, 0.7])
        assert a.rows == b.rows
        assert a.to_csv() == b.to_csv()


class TestRegionIntervals:
    def test_patterns_on_mu_sweep(self):
        for mu in np.linspace(0.001, 1.0, 200):
            intervals = region_alpha_intervals(float(mu))
            if mu >= 0.5:
                assert intervals[sr.Region.A1] is None
                assert intervals[sr.Region.A_LAMBDA_STAR] is None
            if mu > 0.25:
                assert intervals[sr.Region.A0] is None
            assert intervals[sr.Region.A_LAMBDA_PLUS] is not None


def test_format_float():
    assert format_float(float("inf")) == "inf"
    assert format_float(float("-inf")) == "-inf"
    assert format_float(float("nan")) == "nan"
    assert format_float(1.5) == "1.5"
    assert format_float(2.0000000499999998) == "2.00000005"
