"""Shared fixtures: canonical instances and the session-wide solve batches."""

from __future__ import annotations

import numpy as np
import pytest

from scaleroute import (
    BatchConfig,
    Link,
    ODPair,
    OracleConfig,
    ShapeConfig,
    SolverConfig,
    build_instance,
    oracle_nash,
    oracle_optimal,
    play,
    random_instance,
    verify_bounds,
)


def make_pigou(alpha: float = 0.5, demand: float = 1.0):
    """Two parallel links: one congestible, one near-constant."""
    return build_instance(
        ("1", "2"),
        [
            Link("L1", "1", "2", a=1.0, h=1.0, b=0.0),
            Link("L2", "1", "2", a=1e-3, h=1e-3, b=1.0),
        ],
        [ODPair("1", "2", demand=demand, alpha=alpha)],
    )


def make_braess(alpha: float = 0.5, b=(1.0, 1.0, 0.0, 1.0, 1.0)):
    """Classic four-node diamond with the crossing link 2 -> 3."""
    b12, b13, b23, b24, b34 = b
    return build_instance(
        ("1", "2", "3", "4"),
        [
            Link("l12", "1", "2", a=1.0, h=1.0, b=b12),
            Link("l13", "1", "3", a=1.0, h=1.0, b=b13),
            Link("l23", "2", "3", a=1.0, h=1.0, b=b23),
            Link("l24", "2", "4", a=1.0, h=1.0, b=b24),
            Link("l34", "3", "4", a=1.0, h=1.0, b=b34),
        ],
        [ODPair("1", "4", demand=1.0, alpha=alpha)],
    )


def make_two_identical(alpha: float = 0.5, demand: float = 1.0):
    return build_instance(
        ("1", "2"),
        [Link("a", "1", "2", 1.0, 1.0, 0.0), Link("b", "1", "2", 1.0, 1.0, 0.0)],
        [ODPair("1", "2", demand=demand, alpha=alpha)],
    )


def od_sums(instance, path_flows):
    """Per-O/D sums of ``path_flows`` over ``instance.paths.od_slices``: the last
    axis of a 1-D or (rows × paths) array becomes one entry per O/D pair."""
    return np.stack([path_flows[..., start:end].sum(-1) for start, end in instance.paths.od_slices], -1)


@pytest.fixture(scope="session")
def pigou():
    return make_pigou()


@pytest.fixture(scope="session")
def braess():
    return make_braess()


BATCH_SHAPE = ShapeConfig()  # mu_min 0.3, alpha 0.5, <= 6 nodes, <= 10 links
BATCH_SOLVER = SolverConfig()
BATCH_COUNT = 200


@pytest.fixture(scope="session")
def batch_outcomes():
    """Play the 200-seed random batch once; shared by several criteria."""
    results = []
    for seed in range(BATCH_COUNT):
        instance = random_instance(seed, BATCH_SHAPE)
        outcome = play(instance, BATCH_SOLVER)
        results.append((seed, instance, outcome))
    return results


@pytest.fixture(scope="session")
def verification_report():
    return verify_bounds(BatchConfig(count=BATCH_COUNT, base_seed=0, shape=BATCH_SHAPE, solver=BATCH_SOLVER))


@pytest.fixture(scope="session")
def parallel_batch():
    """50 parallel-link instances with solver and oracle solutions (criterion 10)."""
    shape = ShapeConfig(parallel_probability=1.0)
    oracle_cfg = OracleConfig()
    rows = []
    for seed in range(1000, 1050):
        instance = random_instance(seed, shape)
        outcome = play(instance, BATCH_SOLVER)
        oracle_flow, oracle_cost = oracle_optimal(instance, oracle_cfg)
        oracle_t, oracle_gap = oracle_nash(instance, outcome.leader_link_flows, oracle_cfg)
        rows.append(
            {
                "seed": seed,
                "instance": instance,
                "opt": outcome.optimal_result,
                "oracle_flow": oracle_flow,
                "oracle_cost": oracle_cost,
                "s_link": outcome.leader_link_flows,
                "follower": outcome.follower_result,
                "oracle_t": oracle_t,
                "oracle_gap": oracle_gap,
            }
        )
    return rows
