"""SCALE strategy construction, leader-follower play, link measurements."""

from __future__ import annotations

from pathlib import Path

import dataclasses

import numpy as np
import pytest

import scaleroute as sr
from scaleroute import harness
from scaleroute.harness import ORACLE_FLOW_TOL, certify_outcome
from scaleroute.solvers import _by_descent, _Quadratic, _starts

from conftest import make_pigou, make_two_identical, od_sums
from test_solvers import optimal_grid_two_links

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


class TestScaleStrategy:
    def test_half_of_optimal(self, pigou):
        opt = sr.system_optimal(pigou)
        s = sr.scale_strategy(opt.flow, 0.5)
        totals = opt.flow.path_flows_a + opt.flow.path_flows_h
        assert s == pytest.approx(0.5 * totals)

    def test_simple_vector(self):
        instance = make_two_identical()
        flow = sr.ClassFlow.from_path_flows(instance, np.array([0.25, 0.25]), np.array([0.25, 0.25]))
        assert sr.scale_strategy(flow, 0.5) == pytest.approx([0.25, 0.25])

    def test_tiny_alpha_accepted(self):
        instance = make_two_identical()
        flow = sr.ClassFlow.from_path_flows(instance, np.array([0.5, 0.0]), np.array([0.0, 0.5]))
        s = sr.scale_strategy(flow, 1e-9)
        assert np.all(s <= 1e-9 + 1e-18)

    def test_thirds(self):
        instance = sr.build_instance(
            ("1", "2"),
            [
                sr.Link("a", "1", "2", 1.0, 1.0, 0.0),
                sr.Link("b", "1", "2", 1.0, 1.0, 0.0),
                sr.Link("c", "1", "2", 1.0, 1.0, 0.0),
            ],
            [sr.ODPair("1", "2", 3.0, 0.5)],
        )
        flow = sr.ClassFlow.from_path_flows(instance, np.array([1.0, 0.0, 2.0]), np.zeros(3))
        assert sr.scale_strategy(flow, 1.0 / 3.0) == pytest.approx([1.0 / 3.0, 0.0, 2.0 / 3.0])

    def test_endpoint_alphas_rejected(self, pigou):
        opt = sr.system_optimal(pigou)
        for alpha in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(sr.DomainError, match=r"must lie in \(0, 1\)"):
                sr.scale_strategy(opt.flow, alpha)


class TestPlay:
    def test_pigou_headline_numbers(self, pigou):
        outcome = sr.play(pigou)
        assert outcome.optimal_cost == pytest.approx(0.75, abs=2e-2)
        assert outcome.induced_cost == pytest.approx(0.8125, abs=2e-2)
        assert outcome.empirical_poa == pytest.approx(1.083, abs=2e-2)
        assert outcome.wardrop_gap <= 1e-8

    def test_identical_links_poa_one(self):
        for alpha in (0.2, 0.5, 0.8):
            outcome = sr.play(make_two_identical(alpha=alpha))
            assert outcome.empirical_poa == pytest.approx(1.0, abs=1e-6)

    def test_alpha_zero_rejected(self):
        with pytest.raises(sr.DomainError, match=r"alpha = 0.0 must lie in \(0, 1\)"):
            sr.play(make_pigou(alpha=0.0))

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_endpoint_alpha_rejected_before_any_solve(self, alpha, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("play solved before it checked alpha")

        monkeypatch.setattr(sr.game, "system_optimal", no_solve)
        with pytest.raises(sr.DomainError, match=rf"alpha = {alpha} must lie in \(0, 1\)"):
            sr.play(make_pigou(alpha=alpha))

    def test_heterogeneous_alpha_rejected(self):
        instance = sr.build_instance(
            ("1", "2"),
            [sr.Link("e", "1", "2", 1.0, 1.0, 0.0), sr.Link("r", "2", "1", 1.0, 1.0, 0.0)],
            [sr.ODPair("1", "2", 1.0, 0.4), sr.ODPair("2", "1", 1.0, 0.6)],
        )
        with pytest.raises(sr.DomainError, match="autonomy fractions must be uniform"):
            sr.play(instance)

    def test_batch_flows_are_feasible_and_leader_opt_restricted(self, batch_outcomes):
        # both classes of the optimum and the human follower meet their O/D demands,
        # the SCALE leader routes alpha of each pair's demand (a weak Stackelberg
        # strategy), and no leader link flow exceeds the optimal total there
        for seed, instance, outcome in batch_outcomes:
            opt = outcome.optimal_flow
            for flows, demands in (
                (opt.path_flows_a, instance.auto_demands),
                (opt.path_flows_h, instance.human_demands),
                (outcome.follower_flow.path_flows_h, instance.human_demands),
                (outcome.leader_path_flows, outcome.alpha * instance.demands),
            ):
                assert od_sums(instance, flows) == pytest.approx(demands, rel=0.0, abs=1e-9), seed
            assert np.all(outcome.leader_link_flows <= opt.total_link_flows + 1e-9), seed

    def test_play_is_deterministic(self, braess):
        config = sr.SolverConfig(seed=3)
        first = sr.play(braess, config)
        second = sr.play(braess, config)
        assert np.array_equal(first.optimal_flow.path_flows_a, second.optimal_flow.path_flows_a)
        assert np.array_equal(first.follower_flow.path_flows_h, second.follower_flow.path_flows_h)
        assert first.induced_cost == second.induced_cost

    def test_certified_poa_at_least_one(self, pigou):
        outcome = sr.play(pigou)
        # the oracle config may be passed or left to its default
        for certified in certify_outcome(pigou, outcome, sr.OracleConfig()), certify_outcome(pigou, outcome):
            assert certified.optimum_certified
            assert certified.empirical_poa >= 1.0 - 1e-6

    @pytest.mark.parametrize("disagreement", ["cost", "flows"])
    def test_disagreeing_outcome_not_certified(self, pigou, disagreement):
        # each condition alone keeps an outcome uncertified
        outcome = sr.play(pigou)
        assert certify_outcome(pigou, outcome).optimum_certified
        # the grid's best split costs no less than the exact optimum
        grid_cost = optimal_grid_two_links(pigou)[2]
        if disagreement == "cost":
            off = dataclasses.replace(outcome, optimal_cost=grid_cost + 2e-3 * (1.0 + abs(grid_cost)))
        else:
            opt = outcome.optimal_flow
            fh = opt.path_flows_h + np.array([2.0 * ORACLE_FLOW_TOL, 0.0])
            moved = sr.ClassFlow.from_path_flows(pigou, opt.path_flows_a, fh)
            off = dataclasses.replace(outcome, optimal_flow=moved)
            assert off.optimal_cost == outcome.optimal_cost
        assert not certify_outcome(pigou, off).optimum_certified

    def test_exact_optimum_is_reused(self, pigou, monkeypatch):
        # an exact optimum is reused without a solve; a descent optimum needs
        # one exact solve, and is certified only where it agrees
        calls = []

        def solve(instance, config=sr.SolverConfig()):
            calls.append(instance)
            return sr.system_optimal(instance, config)

        monkeypatch.setattr(harness, "system_optimal", solve)
        outcome = sr.play(pigou)
        assert outcome.optimal_result.exact
        assert certify_outcome(pigou, outcome).optimum_certified
        assert calls == []
        descent = _by_descent(_Quadratic.social_cost(pigou), sr.SolverConfig())
        cost = sr.social_cost(pigou, descent.flow)
        agreeing = dataclasses.replace(
            outcome, optimal_result=descent, optimal_flow=descent.flow, optimal_cost=cost
        )
        assert certify_outcome(pigou, agreeing).optimum_certified
        assert calls == [pigou]
        off = dataclasses.replace(agreeing, optimal_cost=cost + 2e-3 * (1.0 + cost))
        assert not certify_outcome(pigou, off).optimum_certified
        assert calls == [pigou, pigou]

    @pytest.mark.parametrize("other_seed", [1004, 1001], ids=["two-vs-three-links", "three-links-each"])
    def test_outcome_of_another_instance_rejected(self, other_seed):
        shape = sr.ShapeConfig(parallel_probability=1.0)
        instance = sr.random_instance(1000, shape)
        other = sr.random_instance(other_seed, shape)
        outcome = sr.play(other)
        assert certify_outcome(other, outcome).optimum_certified
        with pytest.raises(sr.DomainError, match="another instance"):
            certify_outcome(instance, outcome)


def result_bits(result):
    """Everything an ``EquilibriumResult`` reports, comparable bit for bit."""
    flows = result.flow.path_flows_a.tobytes(), result.flow.path_flows_h.tobytes()
    return result.iterations, result.trace, result.relative_gap, result.converged, flows


def eight_links() -> sr.GameInstance:
    """Eight parallel links free of free-flow time, over both face budgets
    (23,546 optimum faces, 255 follower faces), so both solvers descend; e2
    has half the slopes of the others."""
    slopes = [(1.0, 1.0), (0.5, 0.5)] + [(1.0, 1.0)] * 6
    links = [sr.Link(f"e{i + 1}", "1", "2", a, h, 0.0) for i, (a, h) in enumerate(slopes)]
    return sr.build_instance(("1", "2"), links, [sr.ODPair("1", "2", 1.0, 0.5)])


class TestNotConverged:
    """``play`` raises at each solver gate, carrying that solve's unconverged result."""

    CONFIG = sr.SolverConfig(max_iterations=1, relative_gap_tol=1e-16)

    def test_system_optimum_gate(self):
        instance = eight_links()
        with pytest.raises(sr.NotConverged, match="system optimum not converged") as info:
            sr.play(instance, self.CONFIG)
        result = info.value.result
        assert result.converged is False
        assert result_bits(result) == result_bits(sr.system_optimal(instance, self.CONFIG))
        # each of the 14 distinct starts spends its one-round budget
        assert len(_starts(_Quadratic.social_cost(instance), self.CONFIG.seed)[0]) == result.iterations == 14

    def test_induced_equilibrium_gate(self):
        # eight links, the last four with free-flow time 1: the optimum (1/4 on
        # each of e1-e4) is reached within the one round. The follower's
        # equilibrium, 1/8 on each of e1-e4, uses four paths, and one round
        # loads at most three (its start, its conditional-gradient path and its
        # exchange path), so not even its face move reaches it
        links = [sr.Link(f"e{i + 1}", "1", "2", 1.0, 1.0, 0.0 if i < 4 else 1.0) for i in range(8)]
        instance = sr.build_instance(("1", "2"), links, [sr.ODPair("1", "2", 1.0, 0.5)])
        with pytest.raises(sr.NotConverged, match="induced equilibrium not converged") as info:
            sr.play(instance, self.CONFIG)
        result = info.value.result
        assert result.converged is False and result.iterations == 1
        s = instance.link_flows(sr.scale_strategy(sr.system_optimal(instance, self.CONFIG).flow, 0.5))
        assert result_bits(result) == result_bits(sr.follower_equilibrium(instance, s, self.CONFIG))


class TestMeasureLinks:
    def test_identical_links_measurements(self):
        instance = make_two_identical(alpha=0.5)
        outcome = sr.play(instance)
        m = sr.measure_links(outcome)
        assert np.all(m.gamma_defined) and np.all(m.beta_defined)
        assert m.gamma == pytest.approx([1.0, 1.0], abs=1e-6)
        assert m.beta == pytest.approx([0.0, 0.0], abs=1e-6)
        # the class split is non-unique when a = h; only its total is pinned
        assert np.all((m.alpha_star >= -1e-9) & (m.alpha_star <= 1.0 + 1e-9))
        totals = outcome.optimal_flow.total_link_flows
        assert float(m.alpha_star @ totals) == pytest.approx(0.5, abs=1e-6)

    def test_pigou_gamma_two_thirds(self, pigou):
        outcome = sr.play(pigou)
        m = sr.measure_links(outcome)
        i = pigou.link_index["L1"]
        assert m.gamma[i] == pytest.approx(2.0 / 3.0, abs=1e-2)

    def test_dead_link_flagged_undefined(self):
        # backwards link 3 -> 1 can never appear on a simple 1 -> 4 path
        instance = sr.build_instance(
            ("1", "2", "3", "4"),
            [
                sr.Link("l12", "1", "2", 1.0, 1.0, 0.0),
                sr.Link("l24", "2", "4", 1.0, 1.0, 0.0),
                sr.Link("l13", "1", "3", 1.0, 1.0, 0.5),
                sr.Link("l34", "3", "4", 1.0, 1.0, 0.5),
                sr.Link("back", "3", "1", 1.0, 1.0, 0.0),
            ],
            [sr.ODPair("1", "4", 1.0, 0.5)],
        )
        outcome = sr.play(instance)
        m = sr.measure_links(outcome)
        i = instance.link_index["back"]
        assert not m.gamma_defined[i]
        assert not m.alpha_star_defined[i]
        assert np.isnan(m.gamma[i])

    def test_gamma_capped_by_inverse_alpha(self):
        for seed in (11, 12, 13, 14):
            instance = sr.random_instance(seed, sr.ShapeConfig())
            outcome = sr.play(instance)
            m = sr.measure_links(outcome)
            alpha = sr.network_autonomy_fraction(instance)
            defined = m.gamma_defined
            assert np.all(m.gamma[defined] <= 1.0 / alpha + 1e-9)
