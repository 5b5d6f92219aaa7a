"""The benchmark's workloads run against the library as it stands.

``benchmarks/`` imports library names and ``ShapeConfig`` fields directly,
so a removal that breaks the benchmark fails here. One instance per
workload is played and checked against its committed reference.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from workloads import WORKLOADS, check, play_one  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_instance_matches_reference(name):
    workload = WORKLOADS[name]
    iid, make = workload.instances[0]
    problems, _ = check(play_one(workload, make(), iid), workload.references()[iid])
    assert problems == []
