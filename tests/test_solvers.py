"""Solver behavior against hand values and test-local brute-force oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest

import scaleroute as sr
from scaleroute.solvers import (
    _MULTISTARTS,
    _all_or_nothing,
    _block_gap,
    _descend,
    _multistart_points,
    _relative_gap,
)

from conftest import make_braess, make_pigou, make_two_identical


def nash_grid_two_links(instance, s, demand, resolution=1e-5):
    """Independent 1-D oracle: human split minimizing the Wardrop gap."""
    a, h, b = instance.a, instance.h, instance.b
    t1 = np.linspace(0.0, demand, int(round(demand / resolution)) + 1)
    T = np.stack([t1, demand - t1])
    lat = (a * s + b)[:, None] + h[:, None] * T
    total = (lat * T).sum(axis=0)
    best = demand * lat.min(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        gap = np.where(total > 0, (total - best) / total, 0.0)
    j = int(np.argmin(gap))
    return T[:, j]


def optimal_grid_two_links(instance, resolution=1e-3):
    """Independent 2-D oracle over (fa_1, fh_1) splits for two parallel links."""
    od = instance.od_pairs[0]
    ra, rh = od.alpha * od.demand, (1.0 - od.alpha) * od.demand
    a, h, b = instance.a, instance.h, instance.b
    fa1 = np.linspace(0.0, ra, int(round(ra / resolution)) + 1) if ra > 0 else np.array([0.0])
    fh1 = np.linspace(0.0, rh, int(round(rh / resolution)) + 1) if rh > 0 else np.array([0.0])
    FA1, FH1 = np.meshgrid(fa1, fh1, indexing="ij")
    FA = np.stack([FA1.ravel(), ra - FA1.ravel()])
    FH = np.stack([FH1.ravel(), rh - FH1.ravel()])
    lat = a[:, None] * FA + h[:, None] * FH + b[:, None]
    cost = ((FA + FH) * lat).sum(axis=0)
    j = int(np.argmin(cost))
    return FA[:, j], FH[:, j], float(cost[j])


def make_two_pairs():
    """Pair 1 -> 2 all autonomous over links p, q; pair 2 -> 3 all human over u, v."""
    return sr.build_instance(
        ("1", "2", "3"),
        [
            sr.Link("p", "1", "2", 1.0, 1.0, 0.0),
            sr.Link("q", "1", "2", 1.0, 1.0, 1.0),
            sr.Link("u", "2", "3", 1.0, 1.0, 1.0),
            sr.Link("v", "2", "3", 1.0, 1.0, 0.0),
        ],
        [sr.ODPair("1", "2", 2.0, 1.0), sr.ODPair("2", "3", 1.0, 0.0)],
    )


def descend_block(instance, demands, quad, lin, x, config=sr.SolverConfig()):
    """``_descend`` on one block with the constant linear term ``lin``, in place on
    path flows ``x``: its gap, iterations and trace."""
    return _descend(
        instance, ((demands, quad),), (x,), lambda k, links: lin,
        lambda links: float(0.5 * np.dot(quad, links[0] * links[0]) + np.dot(lin, links[0])),
        config.relative_gap_tol, config.max_iterations,
    )


class TestShortestPaths:
    def test_lower_latency_wins(self):
        instance = sr.build_instance(
            ("1", "2"),
            [sr.Link("a", "1", "2", 1.0, 1.0, 1.0), sr.Link("b", "1", "2", 1.0, 1.0, 1.5)],
            [sr.ODPair("1", "2", 1.0, 0.5)],
        )
        path, latency = sr.shortest_paths(instance, instance.b)[instance.od_pairs[0]]
        assert path.links == ("a",)
        assert latency == pytest.approx(1.0)

    def test_tie_breaks_to_first_path(self):
        instance = make_two_identical()
        path, _ = sr.shortest_paths(instance, np.array([2.0, 2.0]))[instance.od_pairs[0]]
        assert path is instance.paths.all_paths[0]

    def test_braess_zero_flow(self, braess):
        # free-flow b = (1, 1, 0, 1, 1): crossing path ties the direct one at 2
        path, latency = sr.shortest_paths(braess, braess.b)[braess.od_pairs[0]]
        assert path.nodes == ("1", "2", "3", "4")
        assert latency == pytest.approx(2.0)

    def test_two_pairs(self):
        instance = make_two_pairs()
        # latencies p, q, u, v: the second pair's cheapest path is its second one
        best = sr.shortest_paths(instance, np.array([0.75, 1.25, 2.0, 0.5]))
        first, second = instance.od_pairs
        assert best[first][0].links == ("p",) and best[first][1] == 0.75
        assert best[second][0].links == ("v",) and best[second][1] == 0.5

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_latency_rejected(self, pigou, value):
        with pytest.raises(sr.DomainError, match="finite"):
            sr.shortest_paths(pigou, np.array([value, 1.0]))


class TestFollowerEquilibrium:
    def test_symmetric_split(self):
        instance = make_two_identical(alpha=0.0)
        result = sr.follower_equilibrium(instance, np.zeros(2))
        assert result.converged
        assert result.flow.link_flows_h == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_pigou_all_human_matches_grid(self):
        instance = make_pigou(alpha=0.0)
        result = sr.follower_equilibrium(instance, np.zeros(2))
        expected = nash_grid_two_links(instance, np.zeros(2), 1.0)
        assert result.converged
        assert result.flow.link_flows_h == pytest.approx(expected, abs=1e-2)
        cost = sr.social_cost(instance, result.flow)
        assert cost == pytest.approx(1.0, abs=1e-2)

    def test_pigou_with_scale_leader(self):
        instance = make_pigou(alpha=0.5)
        s = np.array([0.25, 0.25])
        result = sr.follower_equilibrium(instance, s)
        expected = nash_grid_two_links(instance, s, 0.5)
        assert result.converged
        assert result.flow.link_flows_h == pytest.approx(expected, abs=1e-2)
        induced = s + result.flow.link_flows_h
        assert induced == pytest.approx([0.75, 0.25], abs=1e-2)

    def test_unconverged_returns_best_iterate(self):
        # three uneven links: the equilibrium splits, so two iterations
        # cannot reach an effectively-exact gap tolerance
        instance = sr.build_instance(
            ("1", "2"),
            [
                sr.Link("a", "1", "2", 1.0, 1.0, 0.0),
                sr.Link("b", "1", "2", 2.0, 2.0, 0.05),
                sr.Link("c", "1", "2", 3.0, 3.0, 0.1),
            ],
            [sr.ODPair("1", "2", 1.0, 0.0)],
        )
        config = sr.SolverConfig(max_iterations=2, relative_gap_tol=1e-16)
        result = sr.follower_equilibrium(instance, np.zeros(3), config)
        assert not result.converged
        assert result.iterations == 2
        assert result.flow.path_flows_h.sum() == pytest.approx(1.0)

    def test_dimension_mismatch(self, pigou):
        with pytest.raises(sr.DimensionMismatch):
            sr.follower_equilibrium(pigou, np.zeros(3))

    def test_zero_human_demand(self):
        instance = make_two_identical(alpha=1.0)
        result = sr.follower_equilibrium(instance, np.array([0.5, 0.5]))
        assert result.converged
        assert result.flow.link_flows_h == pytest.approx([0.0, 0.0])

    def test_nan_leader_flow_never_converges(self, pigou):
        with pytest.raises(sr.NegativeFlow):
            sr.follower_equilibrium(pigou, np.array([np.nan, 0.0]), sr.SolverConfig(max_iterations=3))

    def test_nan_leader_flow_stops_at_once(self, pigou):
        # rejected before the default budget of 50,000 iterations is touched
        with pytest.raises(sr.NegativeFlow):
            sr.follower_equilibrium(pigou, np.array([np.nan, 0.0]))

    def test_nan_gradient_stops_at_once(self, pigou):
        # the solver's own guard: a NaN gradient ends the solve before any step
        demands = pigou.human_demands
        x0, _ = _all_or_nothing(pigou, pigou.b, demands)
        x = x0.copy()
        gap, iterations, _ = descend_block(pigou, demands, pigou.h, np.array([np.nan, 1.0]), x)
        assert iterations == 0
        assert math.isnan(gap)
        assert not gap <= sr.SolverConfig().relative_gap_tol
        # the reported flow is the finite all-or-nothing start
        assert np.array_equal(x, x0)

    def test_overflowing_start_recovers(self):
        # g.x overflows at the all-or-nothing start, so its gap is NaN, but the
        # latencies are finite and the first step brings g.x back in range
        with np.errstate(over="ignore", invalid="ignore"):
            result = sr.follower_equilibrium(make_pigou(alpha=0.0, demand=1e155), np.zeros(2))
        assert result.converged
        assert result.iterations >= 1

    @pytest.mark.parametrize(
        "make, iterations, gap, trace_length",
        [
            (make_braess, 1, 0.0, 2),
            (lambda: sr.random_instance(55, sr.ShapeConfig()), 9, 4.2546813190380085e-09, 10),
        ],
        ids=["braess", "seed55"],
    )
    def test_pinned_runs(self, make, iterations, gap, trace_length):
        # pinned results of the follower's step: an edit to _block_step that
        # changes the follower fails here
        instance = make()
        result = sr.follower_equilibrium(instance, 0.1 * np.ones(instance.n_links))
        assert result.iterations == iterations
        assert result.relative_gap == gap
        assert len(result.trace) == trace_length

    def test_overflow_everywhere_reports_nan_gap(self):
        # every iterate overflows, so no gap is a number; the second step
        # leaves the path flows unchanged, which ends the solve
        with np.errstate(over="ignore", invalid="ignore"):
            result = sr.follower_equilibrium(make_pigou(alpha=0.0, demand=1e160), np.zeros(2))
        assert result.iterations == 2
        assert math.isnan(result.relative_gap)
        assert not result.converged


class TestLeaderFlowCheck:
    @pytest.mark.parametrize(
        "solve",
        [
            sr.follower_equilibrium,
            sr.oracle_nash,
            lambda instance, s: sr.wardrop_gap(instance, s, np.array([0.5, 0.0])),
        ],
        ids=["follower", "oracle", "gap"],
    )
    @pytest.mark.parametrize(
        "s, error",
        [
            ([np.nan, 0.25], sr.NegativeFlow),
            ([np.inf, 0.25], sr.NegativeFlow),
            ([-1.0, 0.1], sr.NegativeFlow),
            ([0.25, 0.25, 0.0], sr.DimensionMismatch),
        ],
        ids=["nan", "inf", "negative", "wrong-length"],
    )
    def test_rejected(self, pigou, solve, s, error):
        with pytest.raises(error):
            solve(pigou, np.array(s))


class TestWardropGap:
    def test_converged_solution_certifies(self, braess):
        result = sr.follower_equilibrium(braess, np.zeros(5))
        assert result.converged
        gap = sr.wardrop_gap(braess, np.zeros(5), result.flow.path_flows_h)
        assert gap <= 1e-8

    def test_all_flow_on_worse_link(self):
        instance = sr.build_instance(
            ("1", "2"),
            [sr.Link("slow", "1", "2", 2.0, 2.0, 0.0), sr.Link("fast", "1", "2", 1.0, 1.0, 1.0)],
            [sr.ODPair("1", "2", 1.0, 0.0)],
        )
        # everything on the congestible link: latency 2 there, 1 on the alternative
        t = np.zeros(2)
        t[instance.paths.global_index(next(p for p in instance.paths.all_paths if p.links == ("slow",)))] = 1.0
        assert sr.wardrop_gap(instance, np.zeros(2), t) == pytest.approx(0.5)

    def test_zero_demand_gap_is_zero(self):
        instance = make_two_identical(alpha=1.0)
        assert sr.wardrop_gap(instance, np.array([0.5, 0.5]), np.zeros(2)) == 0.0

    def test_nan_flow_gives_nan(self, pigou):
        assert math.isnan(sr.wardrop_gap(pigou, np.zeros(2), np.array([np.nan, 0.5])))

    def test_two_pairs_by_hand(self):
        instance = make_two_pairs()
        # the leader loads the autonomous pair, which has no human demand
        s = np.array([2.0, 0.0, 0.0, 0.0])
        t = np.array([0.0, 0.0, 0.75, 0.25])
        # latencies u = 1.75, v = 0.25: total 0.75 * 1.75 + 0.25^2 = 1.375; the
        # all-or-nothing load puts the unit human demand on v, the second
        # path of the second pair, at 0.25
        assert sr.wardrop_gap(instance, s, t) == pytest.approx(1.125 / 1.375, rel=1e-15)
        assert sr.wardrop_gap(instance, s, np.array([0.0, 0.0, 0.0, 1.0])) == 0.0

    def test_relative_gap_definition(self):
        assert _relative_gap(0.0, 0.0) == 0.0
        assert _relative_gap(1e-31, 5.0) == 0.0  # below the cost floor
        assert _relative_gap(2.0, 1.5) == 0.25
        assert _relative_gap(1.0, 1.0 + 1e-15) == 0.0  # round-off below the optimum
        assert math.isnan(_relative_gap(math.nan, 1.0))


class TestSystemOptimal:
    def test_identical_links_split_evenly(self):
        instance = make_two_identical(alpha=0.0)
        result = sr.system_optimal(instance)
        assert result.converged
        assert result.flow.total_link_flows == pytest.approx([0.5, 0.5], abs=1e-8)

    def test_pigou_matches_grid_oracle(self, pigou):
        result = sr.system_optimal(pigou)
        fa, fh, cost = optimal_grid_two_links(pigou)
        assert result.converged
        assert result.potential_or_cost == pytest.approx(0.75, abs=1e-2)
        assert result.potential_or_cost <= cost + 1e-3
        assert result.flow.total_link_flows == pytest.approx(fa + fh, abs=1e-2)

    def test_single_link_cost_closed_form(self):
        instance = sr.build_instance(
            ("1", "2"),
            [sr.Link("e", "1", "2", 0.5, 1.0, 2.0)],
            [sr.ODPair("1", "2", 2.0, 0.25)],
        )
        result = sr.system_optimal(instance)
        r, alpha = 2.0, 0.25
        expected = r * (0.5 * alpha * r + 1.0 * (1 - alpha) * r + 2.0)
        assert result.converged
        assert result.potential_or_cost == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_overflow_stops_unconverged(self, alpha):
        # finite demand whose cost overflows: a NaN block gap is no certificate,
        # and each start ends after its second round, which moves no flow,
        # instead of spending the budget
        with np.errstate(over="ignore", invalid="ignore"):
            result = sr.system_optimal(make_pigou(alpha=alpha, demand=1e160))
        assert not result.converged
        assert math.isnan(result.relative_gap)
        assert len(result.trace) == 2
        assert result.iterations < sr.SolverConfig().max_iterations

    @pytest.mark.parametrize(
        "make", [make_braess, lambda: sr.random_instance(118, sr.ShapeConfig())],
        ids=["braess", "seed118"],
    )
    def test_trace_nonincreasing(self, make):
        # each iteration steps both class blocks downhill on the shared flows
        trace = np.array(sr.system_optimal(make()).trace)
        assert np.all(np.diff(trace) <= 1e-12 * np.abs(trace[:-1]))

    @pytest.mark.parametrize(
        "make, iterations, trace_length",
        [(make_braess, 16, 3), (lambda: sr.random_instance(118, sr.ShapeConfig()), 773, 2)],
        ids=["braess", "seed118"],
    )
    def test_pinned_runs(self, make, iterations, trace_length):
        # pinned rounds of the shared descent: an edit to its round rule fails here
        result = sr.system_optimal(make())
        assert result.converged
        assert result.iterations == iterations
        assert len(result.trace) == trace_length

    @pytest.mark.parametrize(
        "make, config",
        [
            (make_braess, sr.SolverConfig()),
            (lambda: sr.random_instance(118, sr.ShapeConfig()), sr.SolverConfig()),
            # the budget, not convergence, ends every start
            (lambda: sr.random_instance(15, sr.ShapeConfig()),
             sr.SolverConfig(max_iterations=3, relative_gap_tol=1e-16)),
        ],
        ids=["braess", "seed118", "seed15-budget"],
    )
    def test_gap_is_block_gap_at_result(self, make, config):
        instance = make()
        result = sr.system_optimal(instance, config)
        fa, fh = result.flow.link_flows_a, result.flow.link_flows_h
        ah, b = instance.a + instance.h, instance.b
        gap_a, _ = _block_gap(instance, instance.auto_demands, 2.0 * instance.a * fa + (ah * fh + b), fa)
        gap_h, _ = _block_gap(instance, instance.human_demands, 2.0 * instance.h * fh + (ah * fa + b), fh)
        assert result.relative_gap == float(np.maximum(gap_a, gap_h))

    def test_budget_is_per_start(self):
        # seed 15: 14 distinct starts, none of which reaches a zero gap in 3 iterations
        instance = sr.random_instance(15, sr.ShapeConfig())
        config = sr.SolverConfig(max_iterations=3, relative_gap_tol=1e-16)
        result = sr.system_optimal(instance, config)
        assert result.iterations == 3 * len(_multistart_points(instance, config.seed))
        # the start's cost, three stepping rounds, and the round that finds the budget spent
        assert len(result.trace) == 4
        assert not result.converged


class TestMultistartPoints:
    def test_single_link_has_one_start(self):
        instance = sr.build_instance(
            ("1", "2"),
            [sr.Link("e", "1", "2", 0.5, 1.0, 2.0)],
            [sr.ODPair("1", "2", 2.0, 0.25)],
        )
        assert len(_multistart_points(instance, 0)) == 1

    def test_pigou_starts_are_distinct(self, pigou):
        starts = _multistart_points(pigou, 0)
        # the uniform split plus at most the 2 x 2 vertex pairs
        assert len(starts) <= 5
        keys = {(fa.tobytes(), fh.tobytes()) for fa, fh in starts}
        assert len(keys) == len(starts)
        free_flow = pigou.incidence.T @ pigou.b
        fa, fh = starts[0]
        assert np.array_equal(fa, _all_or_nothing(pigou, free_flow, pigou.auto_demands)[0])
        assert np.array_equal(fh, _all_or_nothing(pigou, free_flow, pigou.human_demands)[0])

    def test_repeated_draws_change_no_answer(self):
        # seed 118 draws repeated vertices; every start reaches this cost
        instance = sr.random_instance(118, sr.ShapeConfig())
        assert len(_multistart_points(instance, 0)) < _MULTISTARTS
        result = sr.system_optimal(instance)
        assert result.converged
        assert result.potential_or_cost == pytest.approx(6.6296571191, abs=1e-9)


class TestSolverProperties:
    def test_potential_descent(self, braess):
        result = sr.follower_equilibrium(braess, 0.1 * np.ones(5))
        trace = np.array(result.trace)
        assert np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1])))

    def test_link_flow_uniqueness_across_starts(self, braess):
        # the follower's descent from two other starts: the uniform split and a vertex
        uniform = np.full(braess.n_paths, 1.0 / braess.n_paths) * braess.human_demands[0]
        r1 = sr.follower_equilibrium(braess, np.zeros(5))
        vertex = np.zeros(braess.n_paths)
        vertex[2] = braess.human_demands[0]
        for t in (uniform, vertex):
            gap, _, _ = descend_block(braess, braess.human_demands, braess.h, braess.b, t)
            assert gap <= sr.SolverConfig().relative_gap_tol
            assert np.max(np.abs(r1.flow.link_flows_h - braess.incidence @ t)) <= 1e-6

    def test_block_optimality_at_system_result(self, pigou):
        config = sr.SolverConfig()
        result = sr.system_optimal(pigou, config)
        fa, fh = result.flow.path_flows_a, result.flow.path_flows_h
        base = result.potential_or_cost
        # re-solving either class block must not improve the cost materially
        fh_link = pigou.incidence @ fh
        xa = fa.copy()
        descend_block(
            pigou, pigou.auto_demands, 2.0 * pigou.a, (pigou.a + pigou.h) * fh_link + pigou.b, xa, config
        )
        flow_a = sr.ClassFlow.from_path_flows(pigou, xa, fh)
        assert sr.social_cost(pigou, flow_a) >= base - config.relative_gap_tol * base

        fa_link = pigou.incidence @ fa
        xh = fh.copy()
        descend_block(
            pigou, pigou.human_demands, 2.0 * pigou.h, (pigou.a + pigou.h) * fa_link + pigou.b, xh, config
        )
        flow_h = sr.ClassFlow.from_path_flows(pigou, fa, xh)
        assert sr.social_cost(pigou, flow_h) >= base - config.relative_gap_tol * base

    def test_demand_scaling_covariance_without_intercepts(self):
        def instance_with_demand(r):
            return sr.build_instance(
                ("1", "2", "3"),
                [
                    sr.Link("e12", "1", "2", 0.6, 1.0, 0.0),
                    sr.Link("e13", "1", "3", 0.9, 1.2, 0.0),
                    sr.Link("e23", "2", "3", 0.8, 0.9, 0.0),
                    sr.Link("d13", "1", "3", 0.5, 0.8, 0.0),
                ],
                [sr.ODPair("1", "3", r, 0.0)],
            )

        base = sr.follower_equilibrium(instance_with_demand(1.0), np.zeros(4))
        scaled = sr.follower_equilibrium(instance_with_demand(3.0), np.zeros(4))
        assert base.converged and scaled.converged
        assert scaled.flow.link_flows_h == pytest.approx(3.0 * base.flow.link_flows_h, abs=1e-6)

    def test_oracle_dominance_on_parallel_instances(self):
        shape = sr.ShapeConfig(parallel_probability=1.0)
        for seed in (7, 8, 9):
            instance = sr.random_instance(seed, shape)
            result = sr.system_optimal(instance)
            _, oracle_cost = sr.oracle_optimal(instance)
            assert result.potential_or_cost <= oracle_cost + 1e-3
            assert result.potential_or_cost >= oracle_cost - 1e-3
