"""Solver behavior against hand values and test-local brute-force oracles."""

from __future__ import annotations

import dataclasses
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import scaleroute as sr
from scaleroute import solvers
from scaleroute.model import social_cost_links
from scaleroute.solvers import (
    _FOLLOWER_FACE_BUDGET,
    _MULTISTARTS,
    _OPTIMUM_FACE_BUDGET,
    _all_or_nothing,
    _block_gap,
    _by_descent,
    _cheapest,
    _class_swap,
    _descend,
    _face_layout,
    _face_minimum,
    _face_move,
    _priced_gap,
    _Quadratic,
    _relative_gap,
    _starts,
)

from conftest import make_braess, make_pigou, make_two_identical, od_sums

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from grid import grid_instance  # noqa: E402

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


def scaled(instance, factor):
    """``instance`` with every demand and free-flow time multiplied by ``factor``."""
    links = [dataclasses.replace(link, b=link.b * factor) for link in instance.links]
    pairs = [dataclasses.replace(od, demand=od.demand * factor) for od in instance.od_pairs]
    return sr.build_instance(instance.nodes, links, pairs)


def potential(instance, s=None):
    """The follower's potential at leader link flows ``s``, zero by default."""
    return _Quadratic.potential(instance, np.zeros(instance.n_links) if s is None else s)


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
        # a 4x4 grid of 184 paths: the follower's working set still misses
        # paths of the equilibrium after two rounds (gap 3.1e-2), so two
        # iterations cannot reach an effectively-exact gap tolerance
        instance = grid_instance(0, 4)
        config = sr.SolverConfig(max_iterations=2, relative_gap_tol=1e-16)
        result = _by_descent(_Quadratic.potential(instance, np.zeros(instance.n_links)), config)
        assert not result.converged
        assert result.iterations == 2
        assert result.flow.path_flows_h.sum() == pytest.approx(instance.human_demands.sum())

    def test_dimension_mismatch(self, pigou):
        with pytest.raises(sr.DomainError, match=r"must have shape \(2,\)"):
            sr.follower_equilibrium(pigou, np.zeros(3))

    def test_zero_human_demand(self):
        instance = make_two_identical(alpha=1.0)
        result = sr.follower_equilibrium(instance, np.array([0.5, 0.5]))
        assert result.converged
        assert result.flow.link_flows_h == pytest.approx([0.0, 0.0])

    def test_nan_leader_flow_never_converges(self, pigou):
        with pytest.raises(sr.DomainError, match="finite and nonnegative"):
            sr.follower_equilibrium(pigou, np.array([np.nan, 0.0]), sr.SolverConfig(max_iterations=3))

    def test_nan_leader_flow_stops_at_once(self, pigou):
        # rejected before the default budget of 50,000 iterations is touched
        with pytest.raises(sr.DomainError, match="finite and nonnegative"):
            sr.follower_equilibrium(pigou, np.array([np.nan, 0.0]))

    def test_nan_gradient_stops_at_once(self, pigou):
        # the solver's own guard: a NaN gradient ends the solve before any step
        demands = pigou.human_demands
        x0 = _all_or_nothing(pigou, pigou.b[None], demands)[0][0]
        x = x0.copy()
        config = sr.SolverConfig()
        objective = _Quadratic(pigou, (demands,), (pigou.h,), np.array([np.nan, 1.0]))
        (gap,), (iterations,), _ = _descend(objective, (x[None],), config)
        assert iterations == 0
        assert math.isnan(gap)
        assert not gap <= config.relative_gap_tol
        # the reported flow is the finite all-or-nothing start
        assert np.array_equal(x, x0)

    def test_overflowing_start_recovers(self):
        # g.x overflows at the all-or-nothing start, so its gap is NaN, but the
        # latencies are finite and the first step brings g.x back in range
        with np.errstate(over="ignore", invalid="ignore"):
            objective = _Quadratic.potential(make_pigou(alpha=0.0, demand=1e155), np.zeros(2))
            result = _by_descent(objective, sr.SolverConfig())
        assert result.converged
        assert result.iterations >= 1

    @pytest.mark.parametrize(
        "make, iterations, gap, trace_length",
        [
            (make_braess, 1, 0.0, 2),
            # 9 rounds, to a gap of 4.3e-9, before the follower's face move
            (lambda: sr.random_instance(55, sr.ShapeConfig()), 1, 0.0, 2),
        ],
        ids=["braess", "seed55"],
    )
    def test_pinned_runs(self, make, iterations, gap, trace_length):
        # pinned results of the follower's step: an edit to _block_step that
        # changes the follower fails here
        instance = make()
        result = _by_descent(_Quadratic.potential(instance, 0.1 * np.ones(instance.n_links)), sr.SolverConfig())
        assert result.iterations == iterations
        assert result.relative_gap == gap
        assert len(result.trace) == trace_length

    def test_overflow_everywhere_reports_nan_gap(self):
        # every iterate overflows, so no gap is a number; the second step
        # leaves the path flows unchanged, which ends the solve
        with np.errstate(over="ignore", invalid="ignore"):
            objective = _Quadratic.potential(make_pigou(alpha=0.0, demand=1e160), np.zeros(2))
            result = _by_descent(objective, sr.SolverConfig())
        assert result.iterations == 2
        assert math.isnan(result.relative_gap)
        assert not result.converged


class TestWardropGap:
    def test_converged_solution_certifies(self, braess):
        # the 4x4 grid's 184 paths exceed its 48 links and one pair, so its
        # follower descends on a working set and is still certified over all
        for instance in (braess, grid_instance(1, 4)):
            s = np.zeros(instance.n_links)
            result = sr.follower_equilibrium(instance, s)
            assert result.converged
            gap = sr.wardrop_gap(instance, s, result.flow.path_flows_h)
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


class TestPricedGap:
    """``_priced_gap``, the gap of a point, prices each O/D pair by its least
    path cost and builds no load; it must give the descent's ``_block_gap``
    bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.sampled_from([1, 4, 5, 7, 8, 12, 13, 15, 18, 19, 21, 33]),  # two O/D pairs each
        rows=st.integers(1, 4),
        draw=st.integers(0, 2**32 - 1),
    )
    def test_equals_block_gap(self, seed, rows, draw):
        instance = sr.random_instance(seed)
        assert len(instance.od_pairs) == 2
        rng = np.random.default_rng(draw)
        shape = rows, instance.n_links
        # small integer gradients give exact ties between path costs; then a
        # NaN, an infinite or a negative gradient on some rows
        grad = rng.integers(0, 3, shape).astype(float)
        for value in (math.nan, math.inf, -math.inf, -1.0):
            grad[rng.random(shape) < 0.05] = value
        x_link = rng.integers(0, 3, shape) * rng.uniform(0.0, 2.0)
        for demands in (instance.auto_demands, instance.human_demands, np.zeros(2)):
            with np.errstate(invalid="ignore"):
                want, _ = _block_gap(instance, demands, grad, x_link)
                got = np.array(_priced_gap(instance, demands, grad, x_link))
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert got[~np.isnan(got)].tobytes() == want[~np.isnan(want)].tobytes()

    def test_ties_and_non_finite_rows(self):
        instance = make_two_pairs()
        demands = np.array([2.0, 1.0])
        # latencies p, q, u, v: a tie in each pair; an infinite latency, a NaN
        grad = np.array([[1.0, 1.0, 0.5, 0.5], [1.0, math.inf, 0.5, 0.5], [1.0, 1.0, math.nan, 0.5]])
        x_link = np.array([[1.0, 1.0, 0.5, 0.5]] * 3)
        with np.errstate(invalid="ignore"):
            want, _ = _block_gap(instance, demands, grad, x_link)
            got = _priced_gap(instance, demands, grad, x_link)
        assert got[0] == want[0] == 0.0
        assert math.isnan(got[1]) and math.isnan(want[1])
        assert math.isnan(got[2]) and math.isnan(want[2])


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
            result = _by_descent(_Quadratic.social_cost(make_pigou(alpha=alpha, demand=1e160)), sr.SolverConfig())
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
        trace = np.array(_by_descent(_Quadratic.social_cost(make()), sr.SolverConfig()).trace)
        assert np.all(np.diff(trace) <= 1e-12 * np.abs(trace[:-1]))

    @pytest.mark.parametrize(
        "make, iterations, trace_length",
        # seed118 took 6 iterations before the face move
        [(make_braess, 9, 3), (lambda: sr.random_instance(118, sr.ShapeConfig()), 4, 2)],
        ids=["braess", "seed118"],
    )
    def test_pinned_runs(self, make, iterations, trace_length):
        # pinned rounds of the shared descent: an edit to its round rule fails here
        result = _by_descent(_Quadratic.social_cost(make()), sr.SolverConfig())
        assert result.converged
        assert result.iterations == iterations
        assert len(result.trace) == trace_length

    @pytest.mark.parametrize(
        "make, config",
        [
            (make_braess, sr.SolverConfig()),
            (lambda: sr.random_instance(118, sr.ShapeConfig()), sr.SolverConfig()),
            # the budget, not convergence, ends every start (1,521 faces, so it
            # descends): after one round each start's gap is 4.5e-2 or more
            (lambda: sr.random_instance(109, sr.ShapeConfig()),
             sr.SolverConfig(max_iterations=1, relative_gap_tol=1e-16)),
            # 368 paths on two crossing pairs: a working set, priced over every path
            (lambda: grid_instance(3, 4, True), sr.SolverConfig()),
        ],
        ids=["braess", "seed118", "seed109-budget", "grid3-2od"],
    )
    def test_gap_is_block_gap_at_result(self, make, config):
        instance = make()
        result = sr.system_optimal(instance, config)
        if config.max_iterations == 1:
            objective = _Quadratic.social_cost(instance)
            gaps, _, _ = _descend(objective, _starts(objective, config.seed), config)
            assert np.all(gaps > 1e12 * config.relative_gap_tol)
        fa, fh = result.flow.link_flows_a, result.flow.link_flows_h
        ah, b = instance.a + instance.h, instance.b
        fa, fh = fa[None], fh[None]
        (gap_a,), _ = _block_gap(instance, instance.auto_demands, 2.0 * instance.a * fa + (ah * fh + b), fa)
        (gap_h,), _ = _block_gap(instance, instance.human_demands, 2.0 * instance.h * fh + (ah * fa + b), fh)
        assert result.relative_gap == float(np.maximum(gap_a, gap_h))

    def test_rounds_over_random_seeds(self):
        # pinned total rounds: the two blocks alone zigzag along the class split and
        # took 2,677, 1,088 with the class swap but no face move, and 345 with a
        # face move that never stepped toward an infeasible face point; a change
        # that brings any of them back fails here
        objectives = (_Quadratic.social_cost(sr.random_instance(seed, sr.ShapeConfig())) for seed in range(50))
        total = sum(_by_descent(objective, sr.SolverConfig()).iterations for objective in objectives)
        assert total == 287

    def test_path_heavy_grid(self):
        # 184 paths on one O/D pair: a start that loads every path would take
        # 140 rounds where the longest vertex start takes 46 (644 in all). Start
        # 0 wins: start 1 ends 4.2e-16 lower relative (4.218187927203374),
        # within the winner rule's relative 1e-15
        result = sr.system_optimal(grid_instance(1, 4))
        assert result.converged
        assert result.iterations == 530
        assert result.potential_or_cost == 4.218187927203376

    def test_five_by_five_grid(self):
        # 8,512 corner paths against 80 links: the descent on a working set
        # reaches the optimum that the descent over every path reached
        outcome = sr.play(grid_instance(0, 5))
        result = outcome.optimal_result
        assert result.converged and outcome.follower_result.converged
        assert result.potential_or_cost == pytest.approx(11.942106962736283, rel=1e-9, abs=0.0)

    def test_budget_is_per_start(self):
        # seed 109: 14 distinct starts, each of which ends its one round at a gap
        # of 4.5e-2 or more, 14 orders of magnitude above the tolerance, so the
        # budget, not a rounding residue, ends every start
        objective = _Quadratic.social_cost(sr.random_instance(109, sr.ShapeConfig()))
        config = sr.SolverConfig(max_iterations=1, relative_gap_tol=1e-16)
        starts = _starts(objective, config.seed)
        gaps, iterations, _ = _descend(objective, tuple(f.copy() for f in starts), config)
        assert len(gaps) == 14 and np.all(gaps > 1e12 * config.relative_gap_tol)
        assert np.all(iterations == 1)
        result = _by_descent(objective, config)
        assert result.iterations == 1 * len(starts[0])
        # the start's cost, one stepping round, and the round that finds the budget spent
        assert len(result.trace) == 2
        assert not result.converged

    def test_winner_rule_is_scale_free(self):
        # seed 131 with its demands and free-flow times scaled by 1e-7, a cost of
        # 4.5e-14: an absolute tie tolerance of 1e-15 tied every end point, and
        # start 0 won 6.3e-4 above the lowest end point of its own batch
        objective = _Quadratic.social_cost(scaled(sr.random_instance(131, sr.ShapeConfig()), 1e-7))
        assert objective.faces > objective.budget
        _, _, traces = _descend(objective, _starts(objective, 0), sr.SolverConfig())
        lowest = min(trace[-1] for trace in traces)
        assert 0.0 < lowest < traces[0][-1] * (1.0 - 1e-4) < 1e-13
        assert _by_descent(objective, sr.SolverConfig()).potential_or_cost <= lowest * (1.0 + 1e-15)


def parallel_links(n: int, alpha: float = 0.5) -> sr.GameInstance:
    """One pair over n parallel links with distinct slopes and free-flow times."""
    links = [sr.Link(f"e{i + 1}", "1", "2", 0.5 + 0.1 * i, 1.0 + 0.2 * i, 0.1 * i) for i in range(n)]
    return sr.build_instance(("1", "2"), links, [sr.ODPair("1", "2", 2.0, alpha)])


def same_result(x: sr.EquilibriumResult, y: sr.EquilibriumResult) -> bool:
    """Bitwise equality of two solver results."""
    flows = (lambda r: r.flow.path_flows_a, lambda r: r.flow.path_flows_h)
    fields = ("potential_or_cost", "relative_gap", "iterations", "converged", "trace", "exact")
    return all(np.array_equal(f(x), f(y)) for f in flows) and all(getattr(x, f) == getattr(y, f) for f in fields)


def with_alpha(instance: sr.GameInstance, alpha: float) -> sr.GameInstance:
    pairs = [dataclasses.replace(od, alpha=alpha) for od in instance.od_pairs]
    return sr.build_instance(instance.nodes, instance.links, pairs)


class TestFaceBudget:
    """Both solvers solve exactly within their objective's ``budget`` of faces
    and descend above it."""

    def test_face_count(self):
        # pruned by class overlap: 3^n - 2^(n+1) + 1 + n 3^(n-1) of the (2^n - 1)^2 faces
        assert [_Quadratic.social_cost(parallel_links(n)).faces for n in (3, 4, 5, 8)] == [39, 158, 585, 23546]
        assert [potential(parallel_links(n)).faces for n in (7, 8)] == [127, 255]
        assert _Quadratic.social_cost(make_two_pairs()).faces == 8 * 8
        # a count, not an enumeration: 2^184 - 1 faces per class on a 4x4 grid
        assert potential(grid_instance(1, 4)).faces == 2**184 - 1

    def test_budgets(self):
        assert _Quadratic.social_cost(parallel_links(2)).budget == _OPTIMUM_FACE_BUDGET == 585
        assert potential(parallel_links(2)).budget == _FOLLOWER_FACE_BUDGET == 225

    def test_optimum_at_and_over_the_budget(self):
        at, over = parallel_links(5), parallel_links(6)
        assert _Quadratic.social_cost(at).faces == _OPTIMUM_FACE_BUDGET < _Quadratic.social_cost(over).faces
        exact = sr.system_optimal(at)
        assert exact.exact and exact.converged and exact.iterations == 1
        z, value = _face_minimum(*_Quadratic.social_cost(at).path_form())
        assert np.array_equal(np.concatenate([exact.flow.path_flows_a, exact.flow.path_flows_h]), z)
        assert exact.trace == (exact.potential_or_cost,)
        assert exact.potential_or_cost == pytest.approx(value, rel=1e-14)
        descent = sr.system_optimal(over)
        assert not descent.exact and descent.converged and descent.iterations > 1
        by_descent = [_by_descent(_Quadratic.social_cost(instance), sr.SolverConfig()) for instance in (at, over)]
        assert not any(result.exact for result in by_descent)
        assert same_result(descent, by_descent[1])

    def test_follower_at_and_over_the_budget(self):
        at, over = parallel_links(7, alpha=0.0), parallel_links(8, alpha=0.0)
        assert potential(at).faces <= _FOLLOWER_FACE_BUDGET < potential(over).faces
        s = np.full(7, 0.25)
        exact = sr.follower_equilibrium(at, s)
        assert exact.exact and exact.converged and exact.iterations == 1 and len(exact.trace) == 1
        assert not _by_descent(_Quadratic.potential(at, s), sr.SolverConfig()).exact
        # the true Wardrop gap at the returned point, not a written 0
        t_link = exact.flow.link_flows_h[None]
        (gap,), _ = _block_gap(at, at.human_demands, at.h * t_link + (at.a * s + at.b), t_link)
        assert exact.relative_gap == gap
        s = np.full(8, 0.25)
        descent = sr.follower_equilibrium(over, s)
        assert not descent.exact and descent.converged and descent.iterations > 1
        by_descent = _by_descent(_Quadratic.potential(over, s), sr.SolverConfig())
        assert not by_descent.exact and same_result(descent, by_descent)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    @pytest.mark.parametrize(
        "make",
        [
            lambda: sr.load_instance(INSTANCES / "pigou.json"),
            lambda: sr.load_instance(INSTANCES / "braess.json"),
            # the face solve alone leaves 4.2e-17 of human flow at alpha = 1
            lambda: sr.random_instance(206, sr.ShapeConfig(parallel_probability=1.0, mu_min=0.05)),
        ],
        ids=["pigou", "braess", "lowmu-seed206"],
    )
    def test_empty_class_gets_zero_flow(self, make, alpha):
        instance = with_alpha(make(), alpha)
        result = sr.system_optimal(instance)
        assert result.converged and result.iterations == 1
        empty = result.flow.path_flows_a if alpha == 0.0 else result.flow.path_flows_h
        assert not empty.any()
        if alpha == 1.0:  # the leader routes the whole optimum, the follower nothing
            follower = sr.follower_equilibrium(instance, result.flow.link_flows_a)
            assert follower.converged and follower.iterations == 1
            assert not follower.flow.path_flows_h.any()

    def test_small_demand_keeps_its_sum(self):
        # a human demand of 1e-5 against latencies near 1/3: the face solve
        # meets the demand only up to rounding on the scale of the latencies
        links = [sr.Link("e1", "1", "2", 0.5, 1.0, 0.0), sr.Link("e2", "1", "2", 1.0, 1.0, 0.0)]
        instance = sr.build_instance(("1", "2"), links, [sr.ODPair("1", "2", 1.0, 0.99999)])
        result = sr.play(instance).follower_result
        assert result.flow.path_flows_h.sum() == pytest.approx(instance.human_demands[0], rel=1e-15)
        assert result.relative_gap <= 1e-15

    @pytest.mark.parametrize(
        "solve",
        [
            lambda: sr.system_optimal(make_pigou(alpha=0.0, demand=1e160)),
            lambda: sr.system_optimal(make_pigou(alpha=0.5, demand=1e160)),
            lambda: sr.follower_equilibrium(make_pigou(alpha=0.0, demand=1e160), np.zeros(2)),
        ],
        ids=["optimum-a0", "optimum-a05", "follower"],
    )
    def test_overflow_on_the_exact_path(self, solve):
        # every face value overflows, so the solve keeps the first face, where
        # the block gap is NaN: no certificate, and no written 0
        with np.errstate(over="ignore", invalid="ignore"):
            result = solve()
        assert result.iterations == 1
        assert math.isnan(result.relative_gap)
        assert result.converged is False

    def test_overflowed_solve_is_not_exact(self):
        # two parallel links at demand 1e155: every face's value overflows, so no
        # face passes the face solve's tests, and its point is the first face's
        two = parallel_links(2)
        two = sr.build_instance(two.nodes, two.links, [dataclasses.replace(two.od_pairs[0], demand=1e155)])
        with np.errstate(over="ignore", invalid="ignore"):
            results = sr.system_optimal(two), sr.follower_equilibrium(two, np.zeros(2))
        for result in results:
            assert result.iterations == 1 and not result.exact and not result.converged
            assert result.potential_or_cost == math.inf and math.isnan(result.relative_gap)
        # one link: the demands are the one feasible point at any scale
        one = parallel_links(1)
        one = sr.build_instance(one.nodes, one.links, [dataclasses.replace(one.od_pairs[0], demand=1e155)])
        with np.errstate(over="ignore", invalid="ignore"):
            assert sr.system_optimal(one).exact and sr.follower_equilibrium(one, np.zeros(1)).exact

    def test_overflowed_solve_is_checked(self, flow_checks):
        # the point of test_overflowed_solve_is_not_exact, where no face passed,
        # is still built by ClassFlow.from_path_flows, through check_flows, as
        # the first face's vertex with the link flows multiplied out again
        two = parallel_links(2)
        two = sr.build_instance(two.nodes, two.links, [dataclasses.replace(two.od_pairs[0], demand=1e155)])
        with np.errstate(over="ignore", invalid="ignore"):
            opt = sr.system_optimal(two)
            assert flow_checks == ["autonomous path flows", "human path flows"]
            follower = sr.follower_equilibrium(two, np.zeros(2))
        assert flow_checks[2:] == ["leader link flows", "autonomous path flows", "human path flows"]
        (da,), (dh,) = two.auto_demands, two.human_demands
        for result, autonomous in ((opt, da), (follower, 0.0)):
            flow = result.flow
            assert not result.exact
            assert flow.path_flows_a.tolist() == flow.link_flows_a.tolist() == [autonomous, 0.0]
            assert flow.path_flows_h.tolist() == flow.link_flows_h.tolist() == [dh, 0.0]

    @pytest.mark.parametrize(
        "shape, seeds, exact_results",
        [
            (sr.ShapeConfig(parallel_probability=1.0, mu_min=0.05, alpha=0.2), range(1000, 1050), 100),
            (sr.ShapeConfig(), range(50), 99),
        ],
        ids=["oracle-lowmu", "verify-default-s0-s49"],
    )
    def test_exact_results_hold_their_own_link_flows(self, shape, seeds, exact_results, flow_checks):
        # an exact result's flow holds the solve's own arrays, read-only, and
        # runs no flow check: its link flows are incidence @ its path flows bit
        # for bit, as ClassFlow.from_path_flows builds them; a descent's
        # result is still built through check_flows
        exact = 0
        for seed in seeds:
            instance = sr.random_instance(seed, shape)
            del flow_checks[:]
            opt = sr.system_optimal(instance)
            s = instance.link_flows(sr.scale_strategy(opt.flow, shape.alpha))
            follower = sr.follower_equilibrium(instance, s)
            built = ["autonomous path flows", "human path flows"]
            assert flow_checks == [
                *([] if opt.exact else built), "path flows", "leader link flows", *([] if follower.exact else built)
            ]
            for result in (opt, follower):
                flow = result.flow
                arrays = flow.path_flows_a, flow.path_flows_h, flow.link_flows_a, flow.link_flows_h
                assert not any(array.flags.writeable for array in arrays)
                assert np.array_equal(flow.link_flows_a, instance.incidence @ flow.path_flows_a)
                assert np.array_equal(flow.link_flows_h, instance.incidence @ flow.path_flows_h)
                rebuilt = sr.ClassFlow.from_path_flows(instance, flow.path_flows_a, flow.path_flows_h)
                again = rebuilt.path_flows_a, rebuilt.path_flows_h, rebuilt.link_flows_a, rebuilt.link_flows_h
                assert [array.tobytes() for array in arrays] == [array.tobytes() for array in again]
                exact += result.exact
        assert exact == exact_results  # of 100 results

    def test_layout_cache_keeps_every_layout(self):
        # the default batch and the low-mu oracle batch, certified as verify
        # plays them, fit in the layout cache: no layout is evicted and rebuilt,
        # so a budget raise that overflows the cache fails here
        _face_layout.cache_clear()
        sr.verify_bounds(sr.BatchConfig(count=200))
        lowmu = sr.ShapeConfig(parallel_probability=1.0, mu_min=0.05, alpha=0.2)
        sr.verify_bounds(sr.BatchConfig(count=50, base_seed=1000, shape=lowmu))
        info = _face_layout.cache_info()
        assert info.hits > 0 and info.misses == info.currsize

    def test_layout_footprint(self):
        # the largest layout within the budget, 585 faces of 10 path flows in 2
        # groups, at most 6 of them per face: the masks, the gather index of each
        # face's 8 variables and its 64 pairs in intp, the support places among
        # the 8, and the 22x22 KKT frame; a change of dtype or layout shows here
        P, q, groups, demands, pruned = _Quadratic.social_cost(parallel_links(5)).path_form()
        masks, (at, pairs, kept), frame = _face_layout(tuple(map(tuple, groups)), len(q), pruned)
        assert masks.shape == (585, 10) and at.shape == (585, 8, 1) and pairs.shape == (585, 8, 8)
        assert kept.shape == (585, 8) and frame.shape == (22, 22) and at.dtype == pairs.dtype == np.intp
        assert masks.nbytes + at.nbytes + pairs.nbytes + kept.nbytes + frame.nbytes == 351_362


SHAPES = {
    "default": sr.ShapeConfig(),
    "lowmu-parallel": sr.ShapeConfig(parallel_probability=1.0, mu_min=0.05),
    "mu1": sr.ShapeConfig(mu_min=1.0),
}


@st.composite
def small_two_class_instances(draw):
    """A random instance of one of ``SHAPES`` with at most 6 paths (12 path flow
    variables), some of its links set to a = h."""
    instance = sr.random_instance(draw(st.integers(0, 9999)), SHAPES[draw(st.sampled_from(sorted(SHAPES)))])
    assume(instance.n_paths <= 6)
    even = draw(st.lists(st.booleans(), min_size=instance.n_links, max_size=instance.n_links))
    links = [dataclasses.replace(link, a=link.h) if e else link for link, e in zip(instance.links, even)]
    return sr.build_instance(instance.nodes, links, instance.od_pairs)


class TestClassOverlapPruning:
    """The social cost's exact solve enumerates only the faces whose two class
    supports share at most one path per O/D pair, and loses no minimum."""

    @settings(max_examples=60, deadline=None)
    @given(instance=small_two_class_instances())
    def test_pruned_minimum_is_the_full_minimum(self, instance):
        P, q, groups, demands, pruned = _Quadratic.social_cost(instance).path_form()
        assert pruned
        z, value = _face_minimum(P, q, groups, demands, pruned=True)
        _, full = _face_minimum(P, q, groups, demands, pruned=False)
        # the minimum over every face, up to rounding in either direction: a
        # subset's minimum is never lower, and here it is never higher either
        # (the full minimum, at a face outside the family, can round lower)
        assert value == pytest.approx(full, rel=1e-12, abs=0.0)
        assert z.min() >= 0.0 and [z[g].sum() for g in groups] == pytest.approx(demands, rel=1e-12)
        assert z @ (0.5 * (P @ z) + q) == pytest.approx(value, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "instance",
        [parallel_links(n) for n in range(1, 7)] + [make_two_pairs(), sr.random_instance(15, sr.ShapeConfig())],
        ids=[f"{n}-paths" for n in range(1, 7)] + ["two-pairs-2-2", "seed15-2-3"],
    )
    def test_count_is_the_enumerated_count(self, instance):
        objective = _Quadratic.social_cost(instance)
        P, q, groups, demands, pruned = objective.path_form()
        masks, _, _ = _face_layout(tuple(map(tuple, groups)), len(q), pruned)
        # pairs of nonempty supports sharing at most one path, counted by brute force
        per_pair = []
        for start, end in instance.paths.od_slices:
            subsets = [set(c) for k in range(1, end - start + 1) for c in itertools.combinations(range(start, end), k)]
            per_pair.append(sum(len(a & h) <= 1 for a in subsets for h in subsets))
        assert objective.faces == len(masks) == math.prod(per_pair)
        n = instance.n_paths
        for mask in masks:
            for start, end in instance.paths.od_slices:
                assert (mask[start:end] & mask[n + start : n + end]).sum() <= 1


def solved_stacks(P, q, groups, demands, pruned=False) -> list[tuple[np.ndarray, np.ndarray]]:
    """The KKT stacks and right-hand sides that ``_face_minimum`` hands to its
    batched solves, the first of them as assembled."""
    stacks = []
    solve = np.linalg.solve
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", lambda K, rhs: stacks.append((K.copy(), rhs.copy())) or solve(K, rhs))
        _face_minimum(P, q, groups, demands, pruned)
    return stacks


def check_gathered_stack(P, q, groups, demands, pruned=False) -> None:
    """Each face's gathered system is, bit for bit, the scaled symmetric P on
    its support, that face's group rows, and identity rows on the padding up
    to the largest support, with the scaled -q on its support, zeros on the
    padding and the demands as its right-hand side."""
    S = 0.5 * (P + P.T)
    scale = max(np.abs(S).max(), 1.0)
    masks, _, _ = _face_layout(tuple(map(tuple, groups)), len(q), pruned)
    size, k = masks.sum(1).max(), len(groups)
    K, rhs = solved_stacks(P, q, groups, demands, pruned)[0]
    assert K.shape == (len(masks), size + k, size + k) and rhs.shape == (len(masks), size + k, 1)
    for face, mask, b in zip(K, masks, rhs):
        support = np.flatnonzero(mask)
        m = len(support)
        expected = np.zeros((size + k, size + k))
        expected[:m, :m] = (S / scale)[np.ix_(support, support)]
        expected[m:size, m:size] = np.eye(size - m)
        for j, g in enumerate(groups):
            expected[size + j, :m] = expected[:m, size + j] = np.isin(support, list(g))
        assert np.array_equal(face, expected)
        assert np.array_equal(b[:, 0], np.concatenate([-(q / scale)[support], np.zeros(size - m), demands]))


class TestFaceStack:
    """``_face_minimum`` gathers each face's KKT system at the size of its
    support, padded to the largest, as the descent's face move does."""

    def test_benchmark_layouts(self):
        lowmu = sr.ShapeConfig(parallel_probability=1.0, mu_min=0.05, alpha=0.2)
        instances = [sr.random_instance(seed, sr.ShapeConfig()) for seed in range(200)]
        instances += [sr.random_instance(seed, lowmu) for seed in range(1000, 1050)]
        solved = 0
        for instance in instances:
            for objective in (_Quadratic.social_cost(instance), potential(instance)):
                if 1 < objective.faces <= objective.budget:  # the layouts the exact solve reaches
                    check_gathered_stack(*objective.path_form())
                    solved += 1
        assert solved > 200

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3),
        pruned=st.booleans(),
        draw=st.integers(0, 2**32 - 1),
    )
    def test_random_groups(self, sizes, pruned, draw):
        if pruned:  # the same O/D pairs for the autonomous and the human block, at most 1,521 faces
            sizes = sizes[:2] + sizes[:2]
        ends = np.cumsum(sizes).tolist()
        groups = [range(end - size, end) for size, end in zip(sizes, ends)]
        rng = np.random.default_rng(draw)
        n = ends[-1]
        P = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-2, 4)
        check_gathered_stack(P, rng.normal(size=n), groups, rng.uniform(0.5, 2.0, len(groups)), pruned)

    def test_largest_stack_is_eight_by_eight(self):
        # 585 faces of 10 path flows in 2 groups: the class-overlap family has
        # supports of at most 6 flows, so each system is 8x8, not 12x12
        P, q, groups, demands, pruned = _Quadratic.social_cost(parallel_links(5)).path_form()
        assert [K.shape for K, _ in solved_stacks(P, q, groups, demands, pruned)] == [(585, 8, 8)]

    @pytest.mark.parametrize(
        "objective",
        [_Quadratic.social_cost(parallel_links(3)), potential(with_alpha(make_two_pairs(), 0.5), np.full(4, 0.5))],
        ids=["social-cost-3-links", "two-pair-potential"],
    )
    def test_exact_and_move_solve_alike(self, objective, monkeypatch):
        # every face's raw stationary point, from the exact stack and from the
        # face move of a start whose support spans that face, bit for bit
        solved = []

        def record(kkt, rhs, supports, gather):
            z, passed = face_solve(kkt, rhs, supports, gather)
            solved.append((supports, z.copy(), passed))  # _face_minimum clips z in place
            return z, passed

        face_solve = solvers._face_solve
        monkeypatch.setattr(solvers, "_face_solve", record)
        P, q, groups, demands, pruned = objective.path_form()
        _face_minimum(P, q, groups, demands, pruned)
        (masks, exact, exact_passed), = solved
        assert len(masks) == objective.faces and exact_passed.any()
        # one start per face: each group's demand spread evenly over its support
        x = np.zeros(masks.shape)
        for g, d in zip(groups, demands):
            x[:, g.start : g.stop] = d * masks[:, g.start : g.stop] / masks[:, g.start : g.stop].sum(1, keepdims=True)
        n = len(objective.paths)
        xs = [x[:, j * n : (j + 1) * n].copy() for j in range(len(objective.quad))]
        links = [f @ objective.incidence.T for f in xs]
        _face_move(objective)(xs, links, np.ones(len(x), dtype=bool))
        (supports, moved, moved_passed), = solved[1:]
        assert len(supports) == len(masks)
        at = {mask.tobytes(): i for i, mask in enumerate(masks)}
        order = [at[support.tobytes()] for support in supports]
        assert np.array_equal(moved, exact[order]) and np.array_equal(moved_passed, exact_passed[order])


class TestOneFace:
    """An objective with one face, where every O/D pair has one path, has one
    feasible point, the demands: both solvers return them as they are, and
    build no path form and no face layout."""

    def test_verify_default_rows(self, monkeypatch):
        instances = [sr.random_instance(seed, sr.ShapeConfig()) for seed in range(200)]
        one_face = [instance for instance in instances if _Quadratic.social_cost(instance).faces == 1]
        assert len(one_face) == 58

        def untouched(*args, **kwargs):
            raise AssertionError("a one-face objective reached the face solve")

        monkeypatch.setattr(_Quadratic, "path_form", untouched)
        monkeypatch.setattr(solvers, "_face_layout", untouched)
        for instance in one_face:
            a, h, b = instance.a, instance.h, instance.b
            assert potential(instance).faces == 1
            opt = sr.system_optimal(instance)
            assert np.array_equal(opt.flow.path_flows_a, instance.auto_demands)
            assert np.array_equal(opt.flow.path_flows_h, instance.human_demands)
            assert opt.exact and opt.iterations == 1 and opt.trace == (opt.potential_or_cost,)
            fa, fh = opt.flow.link_flows_a[None], opt.flow.link_flows_h[None]
            (gap_a,), _ = _block_gap(instance, instance.auto_demands, 2.0 * a * fa + ((a + h) * fh + b), fa)
            (gap_h,), _ = _block_gap(instance, instance.human_demands, 2.0 * h * fh + ((a + h) * fa + b), fh)
            assert opt.relative_gap == max(gap_a, gap_h)

            s = instance.link_flows(sr.scale_strategy(opt.flow, instance.alphas[0]))  # the SCALE leader
            follower = sr.follower_equilibrium(instance, s)
            assert np.array_equal(follower.flow.path_flows_h, instance.human_demands)
            assert not follower.flow.path_flows_a.any()
            assert follower.exact and follower.iterations == 1
            assert follower.trace == (follower.potential_or_cost,)
            t = follower.flow.link_flows_h[None]
            (gap,), _ = _block_gap(instance, instance.human_demands, h * t + (a * s + b), t)
            assert follower.relative_gap == gap


class TestQuadratic:
    """Each objective's two views: the descent's link-wise blocks and value, and
    the exact solve's path form and face count. An edit to one view only
    fails here."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 999), parallel=st.booleans(), draw=st.integers(0, 2**32 - 1))
    def test_views_agree(self, seed, parallel, draw):
        instance = sr.random_instance(seed, sr.ShapeConfig(parallel_probability=float(parallel)))
        rng = np.random.default_rng(draw)
        inc, n = instance.incidence, instance.n_paths
        starts, ends = np.array(instance.paths.od_slices).T
        s = rng.uniform(0.0, 2.0, instance.n_links)
        for objective in (_Quadratic.social_cost(instance), potential(instance, s)):
            flows = []
            for demands in objective.demands:  # a random point of the block's polytope
                f = rng.random(n) * (rng.random(n) < 0.5)
                f[starts] += 1e-3
                f *= np.repeat(demands / od_sums(instance, f), ends - starts)
                flows.append(f)
            z, links = np.concatenate(flows), [inc @ f for f in flows]
            P, q, groups, demands, pruned = objective.path_form()
            assert [z[g].sum() for g in groups] == pytest.approx(demands, rel=1e-14)
            assert z @ (0.5 * (P @ z) + q) == pytest.approx(objective.value(links), rel=1e-12, abs=0.0)
            grad = P @ z + q
            for k, x in enumerate(links):
                block = inc.T @ (objective.quad[k] * x + objective.block_lin(k, links))
                assert grad[k * n : (k + 1) * n] == pytest.approx(block, rel=1e-12, abs=1e-14)
            assert pruned == (objective.cross is not None)
            if objective.faces <= objective.budget:
                masks, _, _ = _face_layout(tuple(map(tuple, groups)), len(z), pruned)
                assert len(masks) == objective.faces
            if objective.cross is None:  # the potential's gradient is the link latency at s
                g = objective.quad[0] * links[0] + objective.block_lin(0, links)
                assert g == pytest.approx(instance.link_latencies(s, links[0]), rel=1e-14)


class TestBatchedStarts:
    @pytest.mark.parametrize(
        "make",
        [make_braess, make_pigou]
        + [lambda seed=seed: sr.random_instance(seed, sr.ShapeConfig()) for seed in (15, 118, 171)]
        # path-heavy grids, which descend on working sets (184 and 368 paths)
        + [lambda: grid_instance(1, 4), lambda: grid_instance(3, 4, True)],
        ids=["braess", "pigou", "seed15", "seed118", "seed171", "grid1", "grid3-2od"],
    )
    @pytest.mark.parametrize(
        "config",
        [sr.SolverConfig(), sr.SolverConfig(max_iterations=3, relative_gap_tol=1e-16)],
        ids=["default", "budget"],
    )
    def test_start_runs_as_it_would_alone(self, make, config):
        # each start of the batch against the same start as a batch of one
        instance = make()
        fa, fh = _starts(_Quadratic.social_cost(instance), config.seed)
        objective = _Quadratic.social_cost(instance)
        gaps, iterations, traces = _descend(objective, (fa.copy(), fh.copy()), config)
        tol = config.relative_gap_tol
        for i in range(len(fa)):
            (gap,), (alone,), (trace,) = _descend(objective, (fa[i : i + 1].copy(), fh[i : i + 1].copy()), config)
            assert traces[i][-1] == pytest.approx(trace[-1], rel=1e-12, abs=0.0)
            assert (gaps[i] <= tol) == (gap <= tol)
            assert (iterations[i] == config.max_iterations) == (alone == config.max_iterations)

    def test_batch_moves_flows_in_place(self):
        # the returned rows are the end points, also for starts that finish
        # after the batch was compacted
        instance = sr.random_instance(171, sr.ShapeConfig())
        fa, fh = _starts(_Quadratic.social_cost(instance), 0)
        _, iterations, traces = _descend(_Quadratic.social_cost(instance), (fa, fh), sr.SolverConfig())
        assert len(set(iterations.tolist())) > 2  # starts finish at different rounds
        # each start's rounds and trace stay its own across the compactions
        assert iterations.tolist() == [2, 2, 3, 3, 1, 1, 2, 3]
        assert [len(trace) for trace in traces] == [3, 3, 4, 4, 2, 2, 3, 4]
        for i, trace in enumerate(traces):
            flow = sr.ClassFlow.from_path_flows(instance, fa[i], fh[i])
            assert sr.social_cost(instance, flow) == pytest.approx(trace[-1], rel=1e-14)


#: ``system_optimal``'s social cost on the 25 verify-default rows above the
#: face budget, without the face move
DESCENT_ROWS = {
    33: 3.178896911862339, 55: 8.579182597871707, 59: 2.709020787009412, 61: 5.065688186466071,
    62: 8.797619553002674, 66: 5.108778740818159, 69: 8.934830912932844, 71: 4.000003273772126,
    74: 6.769618283456167, 77: 3.23605802687032, 93: 4.18836652173237, 96: 1.331153650563367,
    104: 9.885287520110934, 108: 1.9770796960213184, 109: 6.289723577440001, 131: 4.498899603275218,
    134: 8.338379450129628, 147: 5.167540936306608, 153: 1.7245841242555777, 154: 5.414367511041361,
    159: 3.2105474853457188, 180: 5.538496549148278, 197: 3.131485793180302, 198: 4.4544926634805755,
    199: 4.3028814731705065,
}


class TestFaceMove:
    """The exact face move (``_face_move``) of both objectives: a start that tried
    a step moves to the stationary point of the face its support spans, where
    that point passes the face solve's tests, or toward it as far as its flows
    stay nonnegative, where it passes the stationarity test only; either way
    only where that lowers the objective. ``TestSystemOptimumIsExact`` checks
    the descent with the move against the exact minimum."""

    def test_descent_rows(self):
        objectives = [_Quadratic.social_cost(sr.random_instance(seed, sr.ShapeConfig())) for seed in range(200)]
        assert [seed for seed, o in enumerate(objectives) if o.faces > o.budget] == sorted(DESCENT_ROWS)
        for seed, before in DESCENT_ROWS.items():
            instance = sr.random_instance(seed, sr.ShapeConfig())
            objective = _Quadratic.social_cost(instance)
            fa, fh = _starts(objective, 0)
            _, _, traces = _descend(objective, (fa, fh), sr.SolverConfig())
            for trace in traces:  # every start's trace, not only the winner's
                assert np.all(np.diff(trace) <= 0.0), seed
            assert fa.min() >= 0.0 and fh.min() >= 0.0
            for f, demands in ((fa, instance.auto_demands), (fh, instance.human_demands)):
                assert np.all(np.abs(od_sums(instance, f) - demands) <= 1e-14 * demands), seed
            result = sr.system_optimal(instance)
            assert result.converged and not result.exact
            assert result.potential_or_cost <= before * (1.0 + 1e-12), seed

    def test_lands_on_the_face_solve(self):
        # a start in the relative interior of the exact minimum's face moves to
        # that minimum in one move
        instance = parallel_links(4)
        objective = _Quadratic.social_cost(instance)
        z, value = _face_minimum(*objective.path_form())
        n = instance.n_paths
        support = z > 1e-9
        # halfway to the even split of each class over its support
        even = np.concatenate([d * support[k * n : (k + 1) * n] / support[k * n : (k + 1) * n].sum()
                               for k, d in enumerate((instance.auto_demands[0], instance.human_demands[0]))])
        x = 0.5 * (z + even)
        xs = [x[None, :n].copy(), x[None, n:].copy()]
        links = [f @ instance.incidence.T for f in xs]
        before = objective.value(links)[0]
        moved = _face_move(objective)(xs, links, np.ones(1, dtype=bool))
        assert moved.tolist() == [True]
        assert np.concatenate([xs[0][0], xs[1][0]]) == pytest.approx(z, rel=1e-12, abs=1e-14)
        assert objective.value(links)[0] == pytest.approx(value, rel=1e-12) and value < before
        for f, link in zip(xs, links):
            assert link == pytest.approx(f @ instance.incidence.T, rel=1e-14, abs=1e-15)

    def test_keeps_a_start_below_its_face_point(self):
        # a < h: the social cost is indefinite on the face of all four path
        # flows, whose stationary point, every flow 1/2, costs 3/2 and passes
        # the face solve's tests; a start on that face below it stays, a start
        # above it moves there (dyadic flows, so the start costs are exact)
        instance = two_parallel_links()
        objective = _Quadratic.social_cost(instance)
        for fh, cost, moves in (([0.3125, 0.6875], 1.4921875, False), ([0.5, 0.5], 1.5625, True)):
            xs = [np.array([[0.75, 0.25]]), np.array([fh])]
            links = [f @ instance.incidence.T for f in xs]
            assert objective.value(links)[0] == cost
            assert _face_move(objective)(xs, links, np.ones(1, dtype=bool)).tolist() == [moves]
            if moves:
                assert np.concatenate(xs, axis=1) == pytest.approx(np.full((1, 4), 0.5), rel=1e-14)
                assert objective.value(links)[0] == pytest.approx(1.5, rel=1e-14)
            else:
                assert xs[0].tolist() == [[0.75, 0.25]] and xs[1].tolist() == [fh]

    def test_overflowing_start_accepts_no_move(self):
        instance = make_pigou(alpha=0.5, demand=1e160)
        objective = _Quadratic.social_cost(instance)
        fa, fh = _starts(objective, 0)
        kept = fa.copy(), fh.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            links = [fa @ instance.incidence.T, fh @ instance.incidence.T]
            moved = _face_move(objective)([fa, fh], links, np.ones(len(fa), dtype=bool))
        assert not moved.any()
        assert np.array_equal(fa, kept[0]) and np.array_equal(fh, kept[1])

    def test_steps_toward_an_infeasible_face_point(self):
        # the follower on three links, free-flow times (0, 0, 1): the face of all
        # three paths is stationary at (2/3, 2/3, -1/3); from (1/4, 1/4, 1/2) the
        # step stops at 3/5 of the way, where path 3 empties, at (1/2, 1/2, 0)
        instance = parallel_paths([0.0, 0.0, 1.0])
        objective = potential(instance)
        xs = [np.array([[0.25, 0.25, 0.5]])]
        links = [xs[0] @ instance.incidence.T]
        before = objective.value(links)[0]
        assert _face_move(objective)(xs, links, np.ones(1, dtype=bool)).tolist() == [True]
        assert xs[0][0, 2] == 0.0  # the blocking path, exactly
        assert xs[0][0] == pytest.approx([0.5, 0.5, 0.0], rel=1e-14)
        assert abs(xs[0].sum() - 1.0) <= 1e-14
        assert links[0] == pytest.approx(xs[0] @ instance.incidence.T, rel=1e-14, abs=1e-15)
        assert objective.value(links)[0] < before

    def test_keeps_a_start_the_step_would_raise(self):
        # a < h on two links with free-flow times (0, 1): the social cost is
        # indefinite on the face of all four path flows, stationary at fa = (-1/2,
        # 3/2), fh = (3/2, -1/2); from fa = (3/4, 1/4), fh = (1/2, 1/2) the cost
        # rises along the step, 9/64 by the point where fh_v empties
        instance = sr.build_instance(
            ("1", "2"),
            [sr.Link("u", "1", "2", 0.5, 1.0, 0.0), sr.Link("v", "1", "2", 0.5, 1.0, 1.0)],
            [sr.ODPair("1", "2", 2.0, 0.5)],
        )
        objective = _Quadratic.social_cost(instance)
        xs = [np.array([[0.75, 0.25]]), np.array([[0.5, 0.5]])]
        links = [f @ instance.incidence.T for f in xs]
        assert _face_move(objective)(xs, links, np.ones(1, dtype=bool)).tolist() == [False]
        assert xs[0].tolist() == [[0.75, 0.25]] and xs[1].tolist() == [[0.5, 0.5]]
        # the step's end point costs more than the start
        end = [np.array([[0.125, 0.875]]), np.array([[1.0, 0.0]])]
        end_links = [f @ instance.incidence.T for f in end]
        assert objective.value(end_links)[0] == pytest.approx(objective.value(links)[0] + 9 / 64, rel=1e-14)

    def test_follower_on_the_grids(self, monkeypatch):
        # each grid-4x4 follower of the benchmark, at its SCALE leader's flows,
        # converges in at most 10 rounds (the block steps alone took 16-81) to
        # the link flows of the block steps alone at a gap tolerance of 1e-14
        def none(objective):
            return lambda xs, links, rows: np.zeros(len(rows), dtype=bool)

        for seed in range(5):
            instance = grid_instance(seed, 4, seed >= 3)
            outcome = sr.play(instance)
            objective = potential(instance, outcome.leader_link_flows)
            assert objective.path_heavy and objective.faces > objective.budget
            result = outcome.follower_result
            assert result.converged and result.iterations <= 10, seed
            with monkeypatch.context() as patch:
                patch.setattr(solvers, "_face_move", none)
                reference = _by_descent(objective, sr.SolverConfig(relative_gap_tol=1e-14))
            assert reference.converged
            assert np.abs(result.flow.link_flows_h - reference.flow.link_flows_h).max() <= 1e-7, seed

    def test_where_it_is_built(self, monkeypatch):
        # both objectives over every column, and the follower over its working
        # set, rebuilt as the set widens; never the optimum's working set
        built = []

        def record(objective):
            built.append((len(objective.quad), len(objective.paths) < objective.instance.n_paths))
            return face_move(objective)

        face_move = solvers._face_move
        monkeypatch.setattr(solvers, "_face_move", record)
        assert _Quadratic.social_cost(grid_instance(1, 4)).path_heavy
        assert sr.system_optimal(grid_instance(1, 4)).converged
        assert built == []
        assert sr.system_optimal(sr.random_instance(55, sr.ShapeConfig())).converged
        assert built == [(2, False)]
        objective = potential(parallel_links(8), np.full(8, 0.25))
        assert objective.faces > objective.budget and not objective.path_heavy
        assert _by_descent(objective, sr.SolverConfig()).converged
        assert built[1:] == [(1, False)]
        objective = potential(grid_instance(1, 4))
        assert _by_descent(objective, sr.SolverConfig()).converged
        assert len(built) > 3 and set(built[2:]) == {(1, True)}


def parallel_paths(b):
    """One all-human pair of demand 1 over links of unit slopes and free-flow times ``b``."""
    links = [sr.Link(f"e{i + 1}", "1", "2", 1.0, 1.0, value) for i, value in enumerate(b)]
    return sr.build_instance(("1", "2"), links, [sr.ODPair("1", "2", 1.0, 0.0)])


def two_parallel_links():
    """One pair over two links with a < h, so a path's class-swap price is -x/2."""
    return sr.build_instance(
        ("1", "2"),
        [sr.Link("u", "1", "2", 0.5, 1.0, 0.0), sr.Link("v", "1", "2", 0.5, 1.0, 0.0)],
        [sr.ODPair("1", "2", 2.0, 0.5)],
    )


def swap_once(instance, fa, fh, rows=None, objective=None):
    """One class-swap move of ``objective`` (default: the social cost) on the
    ``rows`` (default: all) of the (starts × paths) flows, in place: the moved
    mask and the link flows the move kept up to date."""
    links = [fa @ instance.incidence.T, fh @ instance.incidence.T]
    if rows is None:
        rows = np.ones(len(fa), dtype=bool)
    if objective is None:
        objective = _Quadratic.social_cost(instance)
    return _class_swap(objective)([fa, fh], links, rows), links


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

    def test_prices_come_from_the_objective(self):
        # the flows that move above, under a social cost object whose autonomous
        # weight 2a is set to the human one 2h: a - h = 0 prices every split
        # alike, so an edit to the object's coefficients reaches the swap
        instance = two_parallel_links()
        fa, fh = np.array([[0.75, 0.25]]), np.array([[0.125, 0.875]])
        objective = _Quadratic.social_cost(instance)
        even = dataclasses.replace(objective, quad=(objective.quad[1], objective.quad[1]))
        moved, _ = swap_once(instance, fa, fh, objective=even)
        assert moved.tolist() == [False]
        assert fa.tolist() == [[0.75, 0.25]] and fh.tolist() == [[0.125, 0.875]]
        assert swap_once(instance, fa, fh, objective=objective)[0].tolist() == [True]

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
            ("pigou", 0.0, 0.7502497502497503, 2),
            ("pigou", 1.0, 0.7502497502497503, 2),
            # 1.8749999999999996 in 25 iterations and 1.3733333333333335 in 15
            # before the face move
            ("braess", 0.0, 1.875, 3),
            ("braess", 1.0, 1.3733333333333335, 3),
        ],
        ids=["pigou-a0", "pigou-a1", "braess-a0", "braess-a1"],
    )
    def test_one_class_limits(self, name, alpha, cost, iterations):
        # one class is empty, so the class swap never fires: the two-block
        # descent's values, with the face move
        instance = with_alpha(sr.load_instance(INSTANCES / f"{name}.json"), alpha)
        result = _by_descent(_Quadratic.social_cost(instance), sr.SolverConfig())
        assert result.converged
        assert result.potential_or_cost == cost
        assert result.iterations == iterations


class TestStarts:
    def test_single_link_has_one_start(self):
        instance = sr.build_instance(
            ("1", "2"),
            [sr.Link("e", "1", "2", 0.5, 1.0, 2.0)],
            [sr.ODPair("1", "2", 2.0, 0.25)],
        )
        fa, fh = _starts(_Quadratic.social_cost(instance), 0)
        assert fa.shape == fh.shape == (1, 1)

    def test_pigou_starts_are_distinct(self, pigou):
        fa, fh = _starts(_Quadratic.social_cost(pigou), 0)
        # at most the 2 x 2 vertex pairs, the all-or-nothing row among them
        assert len(fa) == len(fh) <= 4
        keys = {(a.tobytes(), h.tobytes()) for a, h in zip(fa, fh)}
        assert len(keys) == len(fa)
        free_flow = (pigou.incidence.T @ pigou.b)[None]
        assert np.array_equal(fa[0], _all_or_nothing(pigou, free_flow, pigou.auto_demands)[0][0])
        assert np.array_equal(fh[0], _all_or_nothing(pigou, free_flow, pigou.human_demands)[0][0])

    @pytest.mark.parametrize(
        "make, loaded",
        [
            (make_pigou, [((0,), (0,)), ((1,), (1,)), ((1,), (0,)), ((0,), (1,))]),
            (
                lambda: sr.random_instance(15, sr.ShapeConfig()),
                [
                    ((0, 2), (0, 2)), ((1, 3), (1, 2)),
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
        # row, then the distinct seeded vertices in draw order; a change to the
        # random stream or to the order of its draws fails here
        instance = make()
        fa, fh = _starts(_Quadratic.social_cost(instance), 0)
        assert [(tuple(np.flatnonzero(a)), tuple(np.flatnonzero(h))) for a, h in zip(fa, fh)] == loaded
        for f, demands in ((fa, instance.auto_demands), (fh, instance.human_demands)):
            assert od_sums(instance, f) == pytest.approx(np.broadcast_to(demands, (len(f), len(demands))), rel=1e-15)
            # every vertex row loads exactly one path per O/D pair
            assert (od_sums(instance, f[1:] > 0) == 1).all()

    def test_follower_reads_no_seed(self):
        # the convex potential starts alone at the all-or-nothing load under the
        # latencies of zero human flow, so its descent over the budget is the
        # same at every seed
        instance, s = parallel_links(8), np.full(8, 0.25)
        objective = potential(instance, s)
        assert objective.faces == 255 > objective.budget
        (t,) = _starts(objective, 7)
        zero_flow = instance.link_latencies(s, np.zeros(8)) @ instance.incidence
        assert np.array_equal(t, _all_or_nothing(instance, zero_flow[None], instance.human_demands)[0])
        at_0, at_7 = (_by_descent(objective, sr.SolverConfig(seed=seed)) for seed in (0, 7))
        assert same_result(at_0, at_7)

    def test_repeated_draws_change_no_answer(self):
        # seed 118 draws repeated vertices; every start reaches this cost
        instance = sr.random_instance(118, sr.ShapeConfig())
        assert len(_starts(_Quadratic.social_cost(instance), 0)[0]) < _MULTISTARTS
        result = _by_descent(_Quadratic.social_cost(instance), sr.SolverConfig())
        assert result.converged
        assert result.potential_or_cost == pytest.approx(6.6296571191, abs=1e-9)


class TestSolverProperties:
    def test_potential_descent(self, braess):
        result = _by_descent(_Quadratic.potential(braess, 0.1 * np.ones(5)), sr.SolverConfig())
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
            (gap,), _, _ = _descend(potential(braess), (t[None],), config)
            assert gap <= config.relative_gap_tol
            assert np.max(np.abs(r1.flow.link_flows_h - braess.incidence @ t)) <= 1e-6

    def test_block_optimality_at_system_result(self, pigou):
        config = sr.SolverConfig()
        result = sr.system_optimal(pigou, config)
        fa, fh = result.flow.path_flows_a, result.flow.path_flows_h
        base = result.potential_or_cost
        # re-solving either class block must not improve the cost materially
        xa, xh = fa.copy(), fh.copy()
        objective = _Quadratic.social_cost(pigou)
        links = [pigou.incidence @ fa, pigou.incidence @ fh]
        for k, x in enumerate((xa, xh)):
            lin = objective.block_lin(k, links)
            _descend(_Quadratic(pigou, (objective.demands[k],), (objective.quad[k],), lin), (x[None],), config)
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
            descent_cost = _by_descent(_Quadratic.social_cost(instance), sr.SolverConfig()).potential_or_cost
            assert result.potential_or_cost <= descent_cost + 1e-3
            assert result.potential_or_cost >= descent_cost - 1e-3
