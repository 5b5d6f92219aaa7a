"""The scripts under ``tools/`` run against the library as it stands.

``tools/descent_rounds.py`` wraps ``solvers._descend`` and plays every
benchmark instance, so a rename in ``solvers`` that breaks it fails here. Its
batch rounds per workload and objective are pinned, which also guards the
rounds that the face move of both descents saves.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from descent_rounds import descent_rounds  # noqa: E402


def test_descent_rounds_are_pinned():
    # (descents, batch rounds) per workload and objective; the optimum's 25
    # verify-default descents took 124 batch rounds and grid-4x4's five
    # followers 225 before the follower's face move and its step toward
    # infeasible face points; oracle-lowmu runs no descent
    totals: dict[tuple[str, str], list[int]] = {}
    for workload, _, objective, _, rounds, _ in descent_rounds():
        total = totals.setdefault((workload, objective), [0, 0])
        total[0] += 1
        total[1] += rounds
    assert totals == {
        ("verify-default", "optimum"): [25, 100],
        ("verify-default", "follower"): [2, 4],
        ("grid-4x4", "optimum"): [5, 525],
        ("grid-4x4", "follower"): [5, 29],
    }
