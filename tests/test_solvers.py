"""Solver behavior against hand values and test-local brute-force oracles."""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scaleroute as sr
from scaleroute.model import social_cost_links
from scaleroute.solvers import (
    _MULTISTARTS,
    _all_or_nothing,
    _block_gap,
    _cheapest,
    _class_swap,
    _descend_block,
    _descend_optimum,
    _multistart_points,
    _relative_gap,
)

from conftest import make_braess, make_pigou, make_two_identical, od_sums

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


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


class TestShortestPaths:
    """``_cheapest``, the path per O/D pair that both solvers load and price."""

    def test_tie_breaks_to_first_path(self):
        instance = make_two_identical()
        ((j,),) = _cheapest(instance, np.array([[2.0, 2.0]]))
        assert j == 0

    def test_two_pairs(self):
        instance = make_two_pairs()
        # latencies p, q, u, v: the second pair's cheapest path is its second one
        costs = instance.incidence.T @ np.array([0.75, 1.25, 2.0, 0.5])
        best = [instance.paths.all_paths[j].links for (j,) in _cheapest(instance, costs[None])]
        assert best == [("p",), ("v",)]


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
        x0 = _all_or_nothing(pigou, pigou.b[None], demands)[0][0]
        x = x0.copy()
        config = sr.SolverConfig()
        gap, iterations, _ = _descend_block(pigou, demands, pigou.h, np.array([np.nan, 1.0]), x, config)
        assert iterations == 0
        assert math.isnan(gap)
        assert not gap <= config.relative_gap_tol
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
        t[next(j for j, p in enumerate(instance.paths.all_paths) if p.links == ("slow",))] = 1.0
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
        [(make_braess, 16, 3), (lambda: sr.random_instance(118, sr.ShapeConfig()), 8, 2)],
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
        fa, fh = fa[None], fh[None]
        (gap_a,), _ = _block_gap(instance, instance.auto_demands, 2.0 * instance.a * fa + (ah * fh + b), fa)
        (gap_h,), _ = _block_gap(instance, instance.human_demands, 2.0 * instance.h * fh + (ah * fa + b), fh)
        assert result.relative_gap == float(np.maximum(gap_a, gap_h))

    def test_rounds_over_random_seeds(self):
        # pinned total rounds: the two blocks alone zigzag along the class split and
        # took 2,677; a change that brings that back fails here
        total = sum(sr.system_optimal(sr.random_instance(seed, sr.ShapeConfig())).iterations for seed in range(50))
        assert total == 1218

    def test_budget_is_per_start(self):
        # seed 15: 14 distinct starts, none of which reaches a zero gap in 3 iterations
        instance = sr.random_instance(15, sr.ShapeConfig())
        config = sr.SolverConfig(max_iterations=3, relative_gap_tol=1e-16)
        result = sr.system_optimal(instance, config)
        assert result.iterations == 3 * len(_multistart_points(instance, config.seed)[0])
        # the start's cost, three stepping rounds, and the round that finds the budget spent
        assert len(result.trace) == 4
        assert not result.converged


class TestBatchedStarts:
    @pytest.mark.parametrize(
        "make",
        [make_braess, make_pigou]
        + [lambda seed=seed: sr.random_instance(seed, sr.ShapeConfig()) for seed in (15, 118, 171)],
        ids=["braess", "pigou", "seed15", "seed118", "seed171"],
    )
    @pytest.mark.parametrize(
        "config",
        [sr.SolverConfig(), sr.SolverConfig(max_iterations=3, relative_gap_tol=1e-16)],
        ids=["default", "budget"],
    )
    def test_start_runs_as_it_would_alone(self, make, config):
        # each start of the batch against the same start as a batch of one
        instance = make()
        fa, fh = _multistart_points(instance, config.seed)
        gaps, iterations, traces = _descend_optimum(instance, (fa.copy(), fh.copy()), config)
        tol = config.relative_gap_tol
        for i in range(len(fa)):
            (gap,), (alone,), (trace,) = _descend_optimum(instance, (fa[i : i + 1].copy(), fh[i : i + 1].copy()), config)
            assert traces[i][-1] == pytest.approx(trace[-1], rel=1e-12, abs=0.0)
            assert (gaps[i] <= tol) == (gap <= tol)
            assert (iterations[i] == config.max_iterations) == (alone == config.max_iterations)

    def test_batch_moves_flows_in_place(self):
        # the returned rows are the end points, also for starts that finish
        # after the batch was compacted
        instance = sr.random_instance(171, sr.ShapeConfig())
        fa, fh = _multistart_points(instance, 0)
        _, iterations, traces = _descend_optimum(instance, (fa, fh), sr.SolverConfig())
        assert len(set(iterations.tolist())) > 2  # starts finish at different rounds
        # each start's rounds and trace stay its own across the compactions
        assert iterations.tolist() == [11, 11, 11, 11, 11, 8, 10, 11, 11]
        assert [len(trace) for trace in traces] == [12, 12, 12, 12, 12, 9, 11, 12, 12]
        for i, trace in enumerate(traces):
            flow = sr.ClassFlow.from_path_flows(instance, fa[i], fh[i])
            assert sr.social_cost(instance, flow) == pytest.approx(trace[-1], rel=1e-14)


def two_parallel_links():
    """One pair over two links with a < h, so a path's class-swap price is -x/2."""
    return sr.build_instance(
        ("1", "2"),
        [sr.Link("u", "1", "2", 0.5, 1.0, 0.0), sr.Link("v", "1", "2", 0.5, 1.0, 0.0)],
        [sr.ODPair("1", "2", 2.0, 0.5)],
    )


def swap_once(instance, fa, fh, rows=None):
    """One class-swap move on the ``rows`` (default: all) of the (starts × paths)
    flows, in place: the moved mask and the link flows the move kept up to date."""
    links = [fa @ instance.incidence.T, fh @ instance.incidence.T]
    if rows is None:
        rows = np.ones(len(fa), dtype=bool)
    return _class_swap(instance)([fa, fh], links, rows), links


def social_costs(instance, fa, fh):
    """The social cost of each row of the (starts × paths) flows."""
    inc = instance.incidence
    return np.array([social_cost_links(instance, inc @ a, inc @ h) for a, h in zip(fa, fh)])


class TestClassSwap:
    def test_moves_to_the_bound(self):
        # dyadic flows, so every sum is exact: x = (7/8, 9/8), c = (-7/16, -9/16);
        # q = u carries autonomous flow, p = v human flow, delta = min(3/4, 7/8)
        instance = two_parallel_links()
        fa, fh = np.array([[0.75, 0.25]]), np.array([[0.125, 0.875]])
        total, before = fa + fh, social_costs(instance, fa, fh)
        moved, links = swap_once(instance, fa, fh)
        assert moved.tolist() == [True]
        assert fa.tolist() == [[0.0, 1.0]] and fh.tolist() == [[0.875, 0.125]]
        assert np.array_equal(fa + fh, total)
        gain = 0.75 * (-7 / 16 - -9 / 16)
        assert before - social_costs(instance, fa, fh) == pytest.approx([gain], rel=1e-12)
        assert np.array_equal(links[0], fa @ instance.incidence.T)
        assert np.array_equal(links[1], fh @ instance.incidence.T)

        # no used autonomous path is dearer than a used human path: nothing moves
        kept = fa.copy(), fh.copy()
        moved, links = swap_once(instance, fa, fh)
        assert moved.tolist() == [False]
        assert np.array_equal(fa, kept[0]) and np.array_equal(fh, kept[1])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 199), draw=st.integers(0, 2**32 - 1))
    def test_never_raises_the_cost(self, seed, draw):
        instance = sr.random_instance(seed, sr.ShapeConfig())
        rng = np.random.default_rng(draw)
        starts, ends = np.array(instance.paths.od_slices).T
        flows = []
        for demands in (instance.auto_demands, instance.human_demands):
            # random points of the class polytope, about half of the paths unused
            f = rng.random((4, instance.n_paths)) * (rng.random((4, instance.n_paths)) < 0.5)
            f[:, starts] += 1e-3
            f *= np.repeat(demands / od_sums(instance, f), ends - starts, axis=1)
            flows.append(f)
        fa, fh = flows
        rows = rng.random(4) < 0.75
        before, kept = social_costs(instance, fa, fh), (fa.copy(), fh.copy())
        moved, links = swap_once(instance, fa, fh, rows)
        after = social_costs(instance, fa, fh)
        assert np.all(after <= before + 1e-12 * np.abs(before))
        assert not (moved & ~rows).any()
        assert np.array_equal(fa[~moved], kept[0][~moved]) and np.array_equal(fh[~moved], kept[1][~moved])
        assert (fa >= 0.0).all() and (fh >= 0.0).all()
        for f, link, demands in ((fa, links[0], instance.auto_demands), (fh, links[1], instance.human_demands)):
            assert np.abs(od_sums(instance, f) - demands).max() <= 1e-14
            assert link == pytest.approx(f @ instance.incidence.T, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize(
        "name, alpha, cost, iterations",
        [
            ("pigou", 0.0, 0.7502497502497503, 3),
            ("pigou", 1.0, 0.7502497502497503, 3),
            ("braess", 0.0, 1.8749999999999996, 32),
            ("braess", 1.0, 1.3733333333333335, 16),
        ],
        ids=["pigou-a0", "pigou-a1", "braess-a0", "braess-a1"],
    )
    def test_one_class_limits(self, name, alpha, cost, iterations):
        # one class is empty, so the move never fires: the two-block descent's values
        instance = sr.load_instance(INSTANCES / f"{name}.json")
        pairs = [dataclasses.replace(od, alpha=alpha) for od in instance.od_pairs]
        result = sr.system_optimal(sr.build_instance(instance.nodes, instance.links, pairs))
        assert result.converged
        assert result.potential_or_cost == cost
        assert result.iterations == iterations


class TestMultistartPoints:
    def test_single_link_has_one_start(self):
        instance = sr.build_instance(
            ("1", "2"),
            [sr.Link("e", "1", "2", 0.5, 1.0, 2.0)],
            [sr.ODPair("1", "2", 2.0, 0.25)],
        )
        fa, fh = _multistart_points(instance, 0)
        assert fa.shape == fh.shape == (1, 1)

    def test_pigou_starts_are_distinct(self, pigou):
        fa, fh = _multistart_points(pigou, 0)
        # the uniform split plus at most the 2 x 2 vertex pairs
        assert len(fa) == len(fh) <= 5
        keys = {(a.tobytes(), h.tobytes()) for a, h in zip(fa, fh)}
        assert len(keys) == len(fa)
        free_flow = (pigou.incidence.T @ pigou.b)[None]
        assert np.array_equal(fa[0], _all_or_nothing(pigou, free_flow, pigou.auto_demands)[0][0])
        assert np.array_equal(fh[0], _all_or_nothing(pigou, free_flow, pigou.human_demands)[0][0])

    @pytest.mark.parametrize(
        "make, loaded",
        [
            (make_pigou, [((0,), (0,)), ((0, 1), (0, 1)), ((1,), (1,)), ((1,), (0,)), ((0,), (1,))]),
            (
                lambda: sr.random_instance(15, sr.ShapeConfig()),
                [
                    ((0, 2), (0, 2)), ((0, 1, 2, 3, 4), (0, 1, 2, 3, 4)), ((1, 3), (1, 2)),
                    ((0, 3), (1, 4)), ((1, 4), (1, 4)), ((1, 3), (1, 4)), ((0, 4), (1, 2)),
                    ((0, 3), (1, 2)), ((1, 4), (1, 2)), ((0, 2), (1, 3)), ((0, 3), (0, 3)),
                    ((0, 3), (1, 3)), ((0, 4), (1, 3)), ((0, 4), (1, 4)),
                ],
            ),
        ],
        ids=["pigou", "seed15"],
    )
    def test_start_rows_are_pinned(self, make, loaded):
        # the paths each start row loads, per class: the free-flow all-or-nothing
        # row, the uniform split, then the distinct seeded vertices in draw
        # order; a change to the random stream or to the order of its draws fails here
        instance = make()
        fa, fh = _multistart_points(instance, 0)
        assert [(tuple(np.flatnonzero(a)), tuple(np.flatnonzero(h))) for a, h in zip(fa, fh)] == loaded
        sizes = [end - start for start, end in instance.paths.od_slices]
        assert np.array_equal(fa[1], np.repeat(instance.auto_demands / sizes, sizes))
        assert np.array_equal(fh[1], np.repeat(instance.human_demands / sizes, sizes))
        for f, demands in ((fa, instance.auto_demands), (fh, instance.human_demands)):
            assert od_sums(instance, f) == pytest.approx(np.broadcast_to(demands, (len(f), len(demands))), rel=1e-15)

    def test_repeated_draws_change_no_answer(self):
        # seed 118 draws repeated vertices; every start reaches this cost
        instance = sr.random_instance(118, sr.ShapeConfig())
        assert len(_multistart_points(instance, 0)[0]) < _MULTISTARTS
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
        config = sr.SolverConfig()
        for t in (uniform, vertex):
            gap, _, _ = _descend_block(braess, braess.human_demands, braess.h, braess.b, t, config)
            assert gap <= config.relative_gap_tol
            assert np.max(np.abs(r1.flow.link_flows_h - braess.incidence @ t)) <= 1e-6

    def test_block_optimality_at_system_result(self, pigou):
        config = sr.SolverConfig()
        result = sr.system_optimal(pigou, config)
        fa, fh = result.flow.path_flows_a, result.flow.path_flows_h
        base = result.potential_or_cost
        # re-solving either class block must not improve the cost materially
        xa, xh = fa.copy(), fh.copy()
        ah, b, inc = pigou.a + pigou.h, pigou.b, pigou.incidence
        _descend_block(pigou, pigou.auto_demands, 2.0 * pigou.a, ah * (inc @ fh) + b, xa, config)
        _descend_block(pigou, pigou.human_demands, 2.0 * pigou.h, ah * (inc @ fa) + b, xh, config)
        for flow in (sr.ClassFlow.from_path_flows(pigou, xa, fh), sr.ClassFlow.from_path_flows(pigou, fa, xh)):
            assert sr.social_cost(pigou, flow) >= base - config.relative_gap_tol * base

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
