"""Print the descents that the benchmark's plays run, with their rounds.

From the root of a checkout:

    python3 tools/descent_rounds.py          # one line per workload and objective
    python3 tools/descent_rounds.py --each   # and one line per descent first

The instances are the 255 of the three workloads in
``benchmarks/workloads.py`` (read, not changed), each played by ``play``
as the benchmark plays it. Every call of ``solvers._descend`` (the objectives
above their face budget) is recorded under its objective, ``optimum`` (two
class blocks) or ``follower`` (one), with its distinct starts, its batch
rounds (the rounds that the batch runs, which are those of its longest
start, the length of that start's trace) and its iterations summed over the
starts. A workload line sums them:
``workload objective descents starts batch_rounds iterations``. With
``--each``, each descent first prints
``workload id objective starts batch_rounds iterations``.

The benchmark's traced ``solvers.system_optimal.sweeps`` counts only the
returned start's trace; this counts the work of the whole batch.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from scaleroute import NotConverged, play, solvers  # noqa: E402
from workloads import SOLVER, WORKLOADS  # noqa: E402

OBJECTIVES = ("optimum", "follower")


def descent_rounds() -> list[tuple[str, str, str, int, int, int]]:
    """Per descent of every benchmark play: workload, instance id, objective,
    distinct starts, batch rounds and summed iterations, in play order."""
    rows = []
    descend = solvers._descend
    current: list[str] = []

    def recording(objective, flows, config):
        gaps, iterations, traces = descend(objective, flows, config)
        kind = OBJECTIVES[len(objective.quad) == 1]
        rounds = max(len(trace) for trace in traces)
        rows.append((*current, kind, len(traces), rounds, int(iterations.sum())))
        return gaps, iterations, traces

    solvers._descend = recording
    try:
        for workload in WORKLOADS.values():
            for iid, make in workload.instances:
                current[:] = workload.name, iid
                try:
                    play(make(), SOLVER)
                except NotConverged:
                    pass  # its descents are recorded all the same
    finally:
        solvers._descend = descend
    return rows


if __name__ == "__main__":
    rows = descent_rounds()
    if "--each" in sys.argv[1:]:
        for row in rows:
            print(*row)
    for workload in WORKLOADS:
        for kind in OBJECTIVES:
            mine = [row[3:] for row in rows if row[0] == workload and row[2] == kind]
            print(workload, kind, len(mine), *(sum(column) for column in zip(*mine)) if mine else (0, 0, 0))
