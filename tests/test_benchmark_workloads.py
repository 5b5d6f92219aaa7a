"""The benchmark's workloads run against the library as it stands.

``benchmarks/`` imports library names and reads ``ShapeConfig`` attributes
directly, so a removal that breaks the benchmark fails here. One instance per
workload is played and checked against its committed reference. Every
instance's traced play is checked against ``play``, and the Wardrop gap
that ``play`` reports against the follower's and ``wardrop_gap``'s; the
per-layer metrics of a traced run are finite.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import run  # noqa: E402
from scaleroute import play, wardrop_gap  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import SOLVER, WORKLOADS, check, play_one, same_outcome, traced_play  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_instance_matches_reference(name):
    workload = WORKLOADS[name]
    iid, make = workload.instances[0]
    problems, _ = check(play_one(workload, make(), iid), workload.references()[iid])
    assert problems == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_play_matches_play(name):
    # a traced benchmark run fails every play that differs from ``play`` bit for bit
    differ = []
    for iid, make in WORKLOADS[name].instances:
        instance = make()
        if not same_outcome(traced_play(instance, Tracer(), iid), play(instance, SOLVER)):
            differ.append(iid)
    assert differ == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_play_reports_the_followers_gap(name):
    # one Wardrop gap: play reports the follower's own, which the public
    # wardrop_gap prices bit for bit at the follower's path flows
    differ = []
    for iid, make in WORKLOADS[name].instances:
        instance = make()
        outcome = play(instance, SOLVER)
        gap = wardrop_gap(instance, outcome.leader_link_flows, outcome.follower_flow.path_flows_h)
        if not outcome.wardrop_gap == outcome.follower_result.relative_gap == gap:
            differ.append(iid)
    assert differ == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_layer_metrics_are_finite(name):
    # a traced benchmark run divides by the optimum's iterations and the wall time
    workload = WORKLOADS[name]
    tracer = Tracer()
    for iid, make in workload.instances[:2]:
        play_one(workload, make(), iid, tracer)
    metrics = run.layer_metrics(tracer)
    assert all(math.isfinite(value) for value in metrics.values()), metrics
