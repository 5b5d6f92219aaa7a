"""Oracles, random generation, batch verification, curve tables."""

from __future__ import annotations

import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scaleroute as sr
from scaleroute.harness import (
    MAX_LINKS,
    MAX_NODES,
    MAX_OD_PAIRS,
    _face_minimum,
    _social_cost_quadratic,
    format_float,
    region_alpha_intervals,
    report_to_csv,
)

from conftest import make_braess, make_pigou, make_two_identical, od_sums
from test_solvers import optimal_grid_two_links

LOWMU_SHAPE = sr.ShapeConfig(parallel_probability=1.0, mu_min=0.05, alpha=0.2)

#: oracle_optimal's total link flows and cost on LOWMU_SHAPE seeds
EXACT_THREE_LINK_OPTIMA = {
    1000: ([0.7623661549856845, 0.45018494975183265, 0.7634422681007413], 2.317358919619702),
    1002: ([0.22206373219439066, 0.6846379265077469, 0.017913181994395195], 0.9888659497441061),
}


class TestSettableSurface:
    def test_config_fields_are_pinned(self):
        # a new knob must edit this pin on purpose
        pinned = {
            sr.SolverConfig: ["relative_gap_tol", "max_iterations", "seed"],
            sr.ShapeConfig: ["mu_min", "alpha", "parallel_probability"],
            sr.BatchConfig: ["count", "base_seed", "shape", "solver", "oracle", "jobs"],
            sr.OracleConfig: ["max_links"],
        }
        for config, names in pinned.items():
            assert [f.name for f in dataclasses.fields(config)] == names
        # the distributions are class constants, which benchmarks/grid.py reads
        with pytest.raises(TypeError):
            sr.ShapeConfig(h_range=(1.0, 2.0))
        shape = sr.ShapeConfig()
        assert shape.demand_range == (0.5, 2.0)
        assert shape.h_range == (0.5, 2.0)
        assert shape.b_range == (0.0, 1.5)
        assert shape.b_zero_probability == 0.25


class TestOracleConfig:
    @pytest.mark.parametrize("max_links", [0, 4])
    def test_max_links_out_of_range(self, max_links):
        # the oracles' scope is at most three parallel links: a fourth must fail here, not inside a batch
        with pytest.raises(ValueError, match="max_links"):
            sr.OracleConfig(max_links=max_links)

    @pytest.mark.parametrize("max_links", [1, 2, 3])
    def test_max_links_in_range(self, max_links):
        assert sr.OracleConfig(max_links=max_links).max_links == max_links


class TestBatchConfig:
    @pytest.mark.parametrize("field", ["count", "jobs"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_below_one_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            sr.BatchConfig(**{field: value})

    def test_negative_base_seed_rejected(self):
        # a negative seed cannot seed random_instance: every row would be an error
        with pytest.raises(ValueError, match="base_seed"):
            sr.BatchConfig(base_seed=-5)


class TestFaceMinimum:
    @pytest.mark.parametrize(
        "P, q, groups, demands, z, value",
        [
            # -z1^2: the stationary point inside the segment is its maximum
            ([[-2, 0], [0, 0]], [0, 0], [range(2)], [1], [1, 0], -1),
            # -|z|^2: the three vertices tie and the first face wins
            ([[-2, 0, 0], [0, -2, 0], [0, 0, -2]], [0, 0, 0], [range(3)], [1], [1, 0, 0], -1),
            # the segment's stationary point (5.5, -4.5) is infeasible
            ([[1, 0], [0, 1]], [-10, 0], [range(2)], [1], [1, 0], -9.5),
            # singular faces whose KKT systems have no solution: their least-squares
            # points miss the second group's zero demand and cost less
            ([[4, -2, -4], [-2, 1, 2], [-4, 2, 3]], [1, 2, 0], [range(1), range(1, 3)], [2, 0], [2, 0, 0], 10),
        ],
        ids=["concave", "tie", "infeasible-stationary-point", "inconsistent-face"],
    )
    def test_known_minima(self, P, q, groups, demands, z, value):
        got_z, got_value = _face_minimum(np.array(P, dtype=float), np.array(q, dtype=float), groups, demands)
        assert got_z.tolist() == z
        assert got_value == value

    def test_groups_are_separate_simplices(self):
        # (z1 - z3)^2 with z1 + z2 = 1 and z3 + z4 = 1: zero where z1 = z3
        P = 2.0 * np.array([[1, 0, -1, 0], [0, 0, 0, 0], [-1, 0, 1, 0], [0, 0, 0, 0]], dtype=float)
        z, val = _face_minimum(P, np.zeros(4), [range(2), range(2, 4)], [1.0, 1.0])
        assert z[0] + z[1] == pytest.approx(1.0, abs=1e-15)
        assert z[2] + z[3] == pytest.approx(1.0, abs=1e-15)
        assert z[0] == pytest.approx(z[2], abs=1e-15)
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_all_faces_tie(self):
        # every face's stationary point costs 0: the first vertex wins
        z, val = _face_minimum(np.zeros((5, 5)), np.zeros(5), [range(2), range(2, 5)], [1.5, 2.0])
        assert z.tolist() == [1.5, 0.0, 2.0, 0.0, 0.0]
        assert val == 0.0

    def test_asymmetric_form(self):
        # z'Pz depends only on the symmetric part (P + P') / 2, here exactly S
        S = np.array([[2, 0, 1], [0, 2, 0], [1, 0, 3]], dtype=float)
        P = S + np.array([[0, 2, -1], [-2, 0, 1], [1, -1, 0]], dtype=float)
        q, groups, demands = np.array([0.0, 0.5, -1.0]), [range(3)], [1.0]
        z, val = _face_minimum(P, q, groups, demands)
        z_sym, val_sym = _face_minimum(S, q, groups, demands)
        assert z.tolist() == z_sym.tolist()
        assert val == val_sym

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_lowest_feasible_point(self, data):
        sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3), label="sizes")
        ends = np.cumsum(sizes).tolist()
        groups = [range(end - size, end) for size, end in zip(sizes, ends)]
        n = ends[-1]
        coefficients = st.floats(-2.0, 2.0)
        M = np.array(data.draw(st.lists(coefficients, min_size=n * n, max_size=n * n), label="M")).reshape(n, n)
        P = (M + M.T) / 2.0  # symmetric, maybe indefinite
        q = np.array(data.draw(st.lists(coefficients, min_size=n, max_size=n), label="q"))
        k = len(groups)
        demands = data.draw(st.lists(st.floats(0.0, 2.0), min_size=k, max_size=k), label="demands")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")

        z, value = _face_minimum(P, q, groups, demands)
        assert z.min() >= 0.0
        for g, d in zip(groups, demands):
            assert abs(z[g].sum() - d) <= 1e-12 * (1.0 + d)

        def cost(y):
            return y @ (0.5 * (P @ y) + q)

        slack = 1e-12 * (1.0 + abs(value))
        assert value == pytest.approx(cost(z), rel=1e-12, abs=1e-12)
        for vertex in itertools.product(*groups):  # one variable per group carries its demand
            y = np.zeros(n)
            y[list(vertex)] = demands
            assert value <= cost(y) + slack, vertex
        rng = np.random.default_rng(seed)
        for _ in range(20):
            y = np.concatenate([d * rng.dirichlet(np.ones(len(g))) for g, d in zip(groups, demands)])
            assert value <= cost(y) + slack, y


def face_count(instance) -> int:
    return math.prod((2 ** (end - start) - 1) ** 2 for start, end in instance.paths.od_slices)


class TestSystemOptimumIsExact:
    """``system_optimal`` against the exact minimum on general networks."""

    MAX_FACES = 2401

    @pytest.mark.parametrize("source", ["conftest", "file"])
    def test_braess(self, source):
        if source == "file":
            instance = sr.load_instance(Path(__file__).resolve().parent.parent / "instances" / "braess.json")
        else:
            instance = make_braess()
        assert not sr.is_parallel_link(instance)
        _, exact = _face_minimum(*_social_cost_quadratic(instance))
        solved = sr.social_cost(instance, sr.system_optimal(instance).flow)
        assert abs(solved - exact) <= 1e-12 * abs(exact)

    def test_verify_default_seeds(self, batch_outcomes):
        checked = general = 0
        for seed, instance, outcome in batch_outcomes:
            if face_count(instance) > self.MAX_FACES:
                continue
            _, exact = _face_minimum(*_social_cost_quadratic(instance))
            assert abs(outcome.optimal_cost - exact) <= 1e-12 * abs(exact), seed
            checked += 1
            general += not sr.is_parallel_link(instance)
        assert (checked, general) == (186, 143)


@st.composite
def parallel_instances(draw):
    """One to three parallel links with a <= h (a = h allowed), possibly identical."""
    n = draw(st.integers(1, 3))
    floats = st.floats(0.5, 2.0)
    h = draw(st.lists(floats, min_size=n, max_size=n))
    mu = draw(st.lists(st.just(1.0) | st.floats(0.05, 1.0), min_size=n, max_size=n))
    b = draw(st.lists(st.just(0.0) | st.floats(0.0, 1.5), min_size=n, max_size=n))
    if draw(st.booleans()):  # identical links: every split has mirror images
        h, mu, b = [h[0]] * n, [mu[0]] * n, [b[0]] * n
    alpha = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    links = [sr.Link(f"e{i}", "1", "2", m * hi, hi, bi) for i, (m, hi, bi) in enumerate(zip(mu, h, b))]
    return sr.build_instance(("1", "2"), links, [sr.ODPair("1", "2", draw(floats), alpha)])


class TestOracleProperties:
    @settings(max_examples=60, deadline=None)
    @given(instance=parallel_instances())
    def test_optimal_is_feasible_and_lowest(self, instance):
        flow, cost = sr.oracle_optimal(instance)
        assert np.abs(od_sums(instance, flow.path_flows_a) - instance.auto_demands).max() <= 1e-14
        assert np.abs(od_sums(instance, flow.path_flows_h) - instance.human_demands).max() <= 1e-14
        assert flow.path_flows_a.min() >= 0.0 and flow.path_flows_h.min() >= 0.0
        solved = sr.system_optimal(instance).potential_or_cost
        assert cost <= solved * (1.0 + 1e-12)
        if instance.n_links == 2:
            assert cost <= optimal_grid_two_links(instance, resolution=1e-2)[2] + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(instance=parallel_instances())
    def test_nash_is_an_equilibrium(self, instance):
        od = instance.od_pairs[0]
        flow, _ = sr.oracle_optimal(instance)
        s = od.alpha * flow.total_link_flows  # the SCALE leader's link flows
        t, gap = sr.oracle_nash(instance, s)
        human = (1.0 - od.alpha) * od.demand
        assert t.min() >= 0.0
        assert t.sum() == pytest.approx(human, rel=1e-14, abs=1e-15)
        assert gap <= 1e-12
        lat = instance.a * s + instance.b + instance.h * t
        used = t > 0.0
        if used.any():  # no link is cheaper than a used one
            assert lat[used].max() <= lat.min() * (1.0 + 1e-12)


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
        # totals and cost are the refined grid search's answer: a feasible
        # point, so the exact optimum costs no more and lies within its flow error
        instance = sr.random_instance(seed, LOWMU_SHAPE)
        assert instance.n_links == 3
        flow, got = sr.oracle_optimal(instance)
        assert got <= cost
        assert np.abs(flow.total_link_flows - totals).max() <= 1e-5
        exact_totals, exact_cost = EXACT_THREE_LINK_OPTIMA[seed]
        assert flow.total_link_flows.tolist() == exact_totals
        assert got == exact_cost


class TestOracleNash:
    def test_pigou_no_leader(self):
        instance = make_pigou(alpha=0.0)
        t, gap = sr.oracle_nash(instance, np.zeros(2))
        assert t == pytest.approx([1.0, 0.0], abs=1e-3)
        assert gap <= 1e-12

    def test_pigou_with_scale_leader(self, pigou):
        t, gap = sr.oracle_nash(pigou, np.array([0.25, 0.25]))
        assert t == pytest.approx([0.5, 0.0], abs=1e-3)
        assert gap <= 1e-12

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
            assert len(instance.links) <= MAX_LINKS
            assert len(instance.od_pairs) <= MAX_OD_PAIRS
            assert len(instance.nodes) <= MAX_NODES

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
