"""Oracles, random generation, batch verification, curve tables."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scaleroute as sr
from scaleroute import errors
from scaleroute.harness import (
    MAX_LINKS,
    MAX_NODES,
    MAX_OD_PAIRS,
    certify_outcome,
    format_float,
    region_alpha_intervals,
    report_to_csv,
)
from scaleroute.solvers import _by_descent, _face_minimum, _Quadratic

from conftest import make_braess, make_pigou, make_two_identical, od_sums
from test_solvers import optimal_grid_two_links

LOWMU_SHAPE = sr.ShapeConfig(parallel_probability=1.0, mu_min=0.05, alpha=0.2)

#: the exact optimum's total link flows and social cost on LOWMU_SHAPE seeds
EXACT_THREE_LINK_OPTIMA = {
    1000: ([0.7623661549856844, 0.45018494975183265, 0.7634422681007413], 2.3173589196197018),
    1002: ([0.22206373219439068, 0.6846379265077468, 0.017913181994395178], 0.9888659497441059),
}


class TestSettableSurface:
    def test_exception_classes_are_pinned(self):
        # one class per way a caller fixes the error: a new class must edit this pin on purpose
        defined = {
            name: obj.__bases__
            for name, obj in vars(errors).items()
            if isinstance(obj, type) and issubclass(obj, sr.ScalerouteError)
        }
        assert defined == {
            "ScalerouteError": (Exception,),
            "ValidationError": (sr.ScalerouteError,),
            "DomainError": (sr.ScalerouteError,),
            "NotConverged": (sr.ScalerouteError,),
        }

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
        # a negative seed cannot seed random_instance: the batch would stop at its first row
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
            # singular faces whose KKT systems have no solution are skipped: a
            # least-squares point there would miss the second group's zero demand and cost less
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
        coefficients = st.just(0.0) | st.floats(-2.0, 2.0)  # zeros make singular faces common
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


class TestSystemOptimumIsExact:
    """The descent alone, the best start of the social cost's ``_descend``,
    against the exact minimum on general networks: ``system_optimal`` is that
    minimum within the face budget, so it would be compared with itself."""

    #: pruned faces (``_Quadratic.faces``): 6,162 is (3, 4) or (4, 3) paths on two
    #: pairs, 11,025 faces before class-overlap pruning
    MAX_FACES = 6162

    @pytest.mark.parametrize("source", ["conftest", "file"])
    def test_braess(self, source):
        if source == "file":
            instance = sr.load_instance(Path(__file__).resolve().parent.parent / "instances" / "braess.json")
        else:
            instance = make_braess()
        assert not sr.is_parallel_link(instance)
        _, exact = _face_minimum(*_Quadratic.social_cost(instance).path_form())
        solved = sr.social_cost(instance, _by_descent(_Quadratic.social_cost(instance), sr.SolverConfig()).flow)
        assert abs(solved - exact) <= 1e-12 * abs(exact)

    def test_verify_default_seeds(self):
        checked = general = 0
        for seed in range(200):
            instance = sr.random_instance(seed, sr.ShapeConfig())
            objective = _Quadratic.social_cost(instance)
            if objective.faces > self.MAX_FACES:
                continue
            _, exact = _face_minimum(*objective.path_form())
            solved = sr.social_cost(instance, _by_descent(objective, sr.SolverConfig()).flow)
            assert abs(solved - exact) <= 1e-12 * abs(exact), seed
            checked += 1
            general += not sr.is_parallel_link(instance)
        assert (checked, general) == (196, 153)


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
        # the exact optimum of the oracle scope against the descent alone and the grid
        flow = sr.system_optimal(instance).flow
        cost = sr.social_cost(instance, flow)
        assert np.abs(od_sums(instance, flow.path_flows_a) - instance.auto_demands).max() <= 1e-14
        assert np.abs(od_sums(instance, flow.path_flows_h) - instance.human_demands).max() <= 1e-14
        assert flow.path_flows_a.min() >= 0.0 and flow.path_flows_h.min() >= 0.0
        solved = _by_descent(_Quadratic.social_cost(instance), sr.SolverConfig()).potential_or_cost
        assert cost <= solved * (1.0 + 1e-12)
        if instance.n_links == 2:
            assert cost <= optimal_grid_two_links(instance, resolution=1e-2)[2] + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(instance=parallel_instances())
    # a human demand of 1e-5 at latencies near 1/3: the face solve's group sum
    # is off by rounding on the scale of the latencies (gap 5.6e-12 unscaled)
    @example(instance=sr.build_instance(
        ("1", "2"),
        [sr.Link("e0", "1", "2", 0.5, 1.0, 0.0), sr.Link("e1", "1", "2", 1.0, 1.0, 0.0)],
        [sr.ODPair("1", "2", 1.0, 0.99999)],
    ))
    def test_nash_is_an_equilibrium(self, instance):
        od = instance.od_pairs[0]
        s = od.alpha * sr.system_optimal(instance).flow.total_link_flows  # the SCALE leader's link flows
        t, gap = sr.oracle_nash(instance, s)
        human = (1.0 - od.alpha) * od.demand
        assert t.min() >= 0.0
        assert t.sum() == pytest.approx(human, rel=1e-14, abs=1e-15)
        assert gap <= 1e-12
        lat = instance.a * s + instance.b + instance.h * t
        used = t > 0.0
        if used.any():  # no link is cheaper than a used one
            assert lat[used].max() <= lat.min() * (1.0 + 1e-12)


class TestOraclesShareTheSolve:
    """Within the oracle scope both solvers are exact, and ``oracle_nash`` and the
    exact follower run one face solve on one statement of the potential and
    price one gap at its point, bit for bit: ``certify_outcome``'s reuse of an exact optimum, and its fallback
    to ``system_optimal``, rest on it."""

    def test_parallel_batch(self, parallel_batch):
        for row in parallel_batch:
            opt, follower = row["opt"], row["follower"]
            assert opt.exact and follower.exact
            # no lower than the descent alone, the independent reference
            descent = _by_descent(_Quadratic.social_cost(row["instance"]), sr.SolverConfig())
            assert opt.potential_or_cost <= descent.potential_or_cost * (1.0 + 1e-12)
            assert np.array_equal(row["oracle_t"], follower.flow.link_flows_h)

    @settings(max_examples=60, deadline=None)
    @given(instance=parallel_instances())
    def test_parallel_instances(self, instance):
        opt = sr.system_optimal(instance)
        assert opt.exact
        s = instance.od_pairs[0].alpha * opt.flow.total_link_flows  # the SCALE leader's link flows
        t, gap = sr.oracle_nash(instance, s)
        follower = sr.follower_equilibrium(instance, s)
        assert follower.exact
        assert np.array_equal(t, follower.flow.link_flows_h)
        assert gap == follower.relative_gap


def steep_pair(h: float) -> sr.GameInstance:
    """Two parallel links with slopes of order h, where the unit constraint rows
    of the oracles' KKT systems are small beside the slopes."""
    links = [sr.Link("e", "1", "2", h, h, 0.0), sr.Link("f", "1", "2", h / 2, h, 1.0)]
    return sr.build_instance(("1", "2"), links, [sr.ODPair("1", "2", 1.0, 0.5)])


STEEP_SLOPES = [1e5, 1e6, 1e8, 1e12]


class TestOracleOptimal:
    """The exact optimum that ``certify_outcome`` checks against: the outcome's own
    where it is exact, else ``system_optimal``, exact throughout the oracle scope."""

    @pytest.mark.parametrize("h", STEEP_SLOPES)
    def test_exact_at_steep_slopes(self, h):
        instance = steep_pair(h)
        cost = sr.system_optimal(instance).potential_or_cost
        optimum = _by_descent(_Quadratic.social_cost(instance), sr.SolverConfig()).potential_or_cost
        assert abs(cost - optimum) <= 1e-12 * optimum

    def test_pigou_cost(self, pigou):
        cost = sr.system_optimal(pigou).potential_or_cost
        assert cost == pytest.approx(0.75, abs=1e-2)

    def test_identical_links_split_evenly(self):
        instance = make_two_identical(alpha=0.5)
        flow = sr.system_optimal(instance).flow
        assert flow.total_link_flows == pytest.approx([0.5, 0.5], abs=1e-3)

    def test_single_link_unique_point(self):
        instance = sr.build_instance(
            ("1", "2"),
            [sr.Link("e", "1", "2", 0.5, 1.0, 1.0)],
            [sr.ODPair("1", "2", 2.0, 0.25)],
        )
        result = sr.system_optimal(instance)
        flow, cost = result.flow, result.potential_or_cost
        assert flow.total_link_flows == pytest.approx([2.0])
        expected = 2.0 * (0.5 * 0.5 + 1.0 * 1.5 + 1.0)
        assert cost == pytest.approx(expected, rel=1e-12)

    def test_rejects_non_parallel(self, braess):
        with pytest.raises(sr.DomainError, match="oracle scope"):
            certify_outcome(braess, sr.play(braess))
        with pytest.raises(sr.DomainError, match="oracle scope"):
            sr.oracle_nash(braess, np.zeros(braess.n_links))

    def test_rejects_too_many_links(self):
        instance = sr.build_instance(
            ("1", "2"),
            [sr.Link(f"e{i}", "1", "2", 1.0, 1.0, 0.0) for i in range(4)],
            [sr.ODPair("1", "2", 1.0, 0.5)],
        )
        with pytest.raises(sr.DomainError, match="oracle scope"):
            certify_outcome(instance, sr.play(instance))
        with pytest.raises(sr.DomainError, match="oracle scope"):
            sr.oracle_nash(instance, np.zeros(instance.n_links))

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
        flow = sr.system_optimal(instance).flow
        got = sr.social_cost(instance, flow)
        assert got <= cost
        assert np.abs(flow.total_link_flows - totals).max() <= 1e-5
        exact_totals, exact_cost = EXACT_THREE_LINK_OPTIMA[seed]
        assert flow.total_link_flows.tolist() == exact_totals
        assert got == exact_cost


class TestOracleNash:
    @pytest.mark.parametrize("h", STEEP_SLOPES)
    def test_exact_at_steep_slopes(self, h):
        instance = steep_pair(h)
        _, gap = sr.oracle_nash(instance, sr.play(instance).leader_link_flows)
        assert gap <= 1e-12

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
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_alpha_endpoints_rejected(self, alpha):
        # the SCALE leader and its bound need alpha in (0, 1): an endpoint must fail here, not inside a batch
        with pytest.raises(ValueError, match="alpha"):
            sr.ShapeConfig(alpha=alpha)

    @pytest.mark.parametrize("p", [float("nan"), -3.0, 7.0])
    def test_parallel_probability_out_of_range(self, p):
        with pytest.raises(ValueError, match=r"parallel_probability = .* must lie in \[0, 1\]"):
            sr.ShapeConfig(parallel_probability=p)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**63 - 1),
        mu_min=st.floats(0.0, 1.0, exclude_min=True),
        alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        parallel_probability=st.floats(0.0, 1.0),
    )
    def test_every_draw_is_valid(self, seed, mu_min, alpha, parallel_probability):
        # random_instance draws once and never retries: every draw must build
        shape = sr.ShapeConfig(mu_min=mu_min, alpha=alpha, parallel_probability=parallel_probability)
        instance = sr.random_instance(seed, shape)
        assert len(instance.nodes) <= MAX_NODES
        assert instance.n_links <= MAX_LINKS
        assert len(instance.od_pairs) <= MAX_OD_PAIRS
        # 1 + 4 + 4*3 + 4*3*2 + 4*3*2*1 simple paths between two of six nodes
        assert all(end - start <= 65 for start, end in instance.paths.od_slices)

    def test_same_seed_identical(self):
        shape = sr.ShapeConfig()
        a = sr.random_instance(42, shape)
        b = sr.random_instance(42, shape)
        assert a.nodes == b.nodes
        assert a.links == b.links
        assert a.od_pairs == b.od_pairs
        assert [p.nodes for p in a.paths.all_paths] == [p.nodes for p in b.paths.all_paths]

    @pytest.mark.parametrize(("shape", "expected"), [
        (sr.ShapeConfig(), "36594c7d6bc67ca463051e4bc80eaff43e397d3b9dbf93f1299827c27db1e1c2"),
        # every seed a network, so some fill all six links of three nodes
        (sr.ShapeConfig(parallel_probability=0.0),
         "1c930e81ffbaf6fd76041404873bbdbf27626ad13a4b00c9ba184e3f55139ce1"),
        (LOWMU_SHAPE, "9c7d72d13cee893cffaa7e75d0582c4eabe60828dc62d2388727adfe6ec8de06"),
    ])
    def test_draws_are_pinned(self, shape, expected):
        # every drawn id, end and coefficient of seeds 0-999, bit for bit; ids
        # hash as text, so a str and an np.str_ of the same id hash alike
        digest = hashlib.sha256()
        for seed in range(1000):
            instance = sr.random_instance(seed, shape)
            text = [*instance.nodes]
            for link in instance.links:
                text += [link.id, link.tail, link.head]
            for od in instance.od_pairs:
                text += [od.origin, od.destination]
            digest.update(" ".join(map(str, text)).encode() + b"\n")
            for values in (instance.a, instance.h, instance.b, instance.demands, instance.alphas):
                digest.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())
        assert digest.hexdigest() == expected

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), n=st.integers(3, MAX_NODES), k=st.integers(1, 20 * MAX_LINKS))
    def test_pair_draws_are_choice_draws(self, seed, n, k):
        # the one numpy behaviour random_instance relies on: _draw_pair returns
        # rng.choice(n, 2, replace=False)'s pair, and _skip_pairs leaves the
        # generator where k such calls leave it
        from scaleroute.harness import _draw_pair, _skip_pairs

        choice, ours = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert _draw_pair(ours, n) == tuple(int(i) for i in choice.choice(n, 2, replace=False))
        for _ in range(k):
            choice.choice(n, 2, replace=False)
        _skip_pairs(ours, n, k)
        assert np.array_equal(ours.integers(0, 2**32, 3), choice.integers(0, 2**32, 3))

    def test_ids_are_plain_strings(self):
        for seed in range(200):
            instance = sr.random_instance(seed, sr.ShapeConfig())
            ids = [
                *instance.nodes,
                *(end for link in instance.links for end in (link.id, link.tail, link.head)),
                *(end for od in instance.od_pairs for end in (od.origin, od.destination)),
                *(node for path in instance.paths.all_paths for node in path.nodes),
            ]
            assert {type(i) for i in ids} == {str}, seed

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
        # 9 seeds on 2 workers go out in chunks of 2, 2, 2, 2 and 1
        config = sr.BatchConfig(count=9, base_seed=0)
        serial = sr.verify_bounds(config)
        parallel = sr.verify_bounds(sr.BatchConfig(count=9, base_seed=0, jobs=2))
        assert report_to_csv(serial) == report_to_csv(parallel)

    def test_workers_capped_at_count(self, monkeypatch):
        # threads stand in for processes, so no worker process starts
        seen = []

        class Recorder(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                seen.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        report = sr.verify_bounds(sr.BatchConfig(count=3, jobs=500))
        assert seen == [3]
        assert report_to_csv(report) == report_to_csv(sr.verify_bounds(sr.BatchConfig(count=3)))

    def test_import_loads_neither_the_pool_nor_json(self):
        # verify_bounds imports concurrent.futures only for jobs > 1, and
        # load_instance json only when it reads, so importing the package in a
        # fresh interpreter loads neither
        code = "import sys, scaleroute; print(sorted({'concurrent.futures', 'json'} & set(sys.modules)))"
        env = {**os.environ, "PYTHONPATH": str(Path(sr.__file__).resolve().parents[1])}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert run.stdout.strip() == "[]"


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
        with pytest.raises(sr.DomainError, match="unknown curve kind 'nope'"):
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
