"""Print the descents that the benchmark's plays run, with their rounds.

From the root of a checkout:

    python3 tools/descent_rounds.py            # one line per workload and objective
    python3 tools/descent_rounds.py --each     # and one line per descent first
    python3 tools/descent_rounds.py --grid 5   # the five 5×5 grids instead

The instances are the 255 of the three workloads in
``benchmarks/workloads.py`` (read, not changed), each played by ``play``
as the benchmark plays it. With ``--grid K`` they are instead the five K×K
grids ``grid_instance(s, K, s >= 3)`` of ``benchmarks/grid.py``, s = 0-4,
as the grid-4x4 workload builds them at K = 4, under the workload name
``grid-KxK``. Every call of ``solvers._descend`` (the objectives
above their face budget) is recorded under its objective, ``optimum`` (two
class blocks) or ``follower`` (one), with its distinct starts, its batch
rounds (the rounds that the batch runs, which are those of its longest
start, the length of that start's trace) and its iterations summed over the
starts. A path-heavy optimum calls ``_descend`` twice, its loose batch and then
its winner's one-start finish (``solvers._by_descent``), and the two calls
count as two descents, the finish with one start. A workload line sums them:
``workload objective descents starts batch_rounds iterations``. With
``--each``, each descent first prints
``workload id objective starts batch_rounds iterations``.

The benchmark's traced ``solvers.system_optimal.sweeps`` counts only the
returned start's trace; this counts the work of the whole batch.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from grid import grid_instance  # noqa: E402
from scaleroute import NotConverged, play, solvers  # noqa: E402
from workloads import SOLVER, WORKLOADS  # noqa: E402

OBJECTIVES = ("optimum", "follower")


def descent_rounds(grid: int | None = None) -> list[tuple[str, str, str, int, int, int]]:
    """Per descent of every benchmark play, or of the five ``grid`` × ``grid``
    grids, named as grid-4x4 names its own: workload, instance id,
    objective, distinct starts, batch rounds and summed iterations, in play
    order."""
    if grid is None:
        plays = [(workload.name, iid, make) for workload in WORKLOADS.values() for iid, make in workload.instances]
    else:
        name = f"grid-{grid}x{grid}"
        plays = [(name, f"g{s}-{1 + (s >= 3)}od", partial(grid_instance, s, grid, s >= 3)) for s in range(5)]
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
        for workload, iid, make in plays:
            current[:] = workload, iid
            try:
                play(make(), SOLVER)
            except NotConverged:
                pass  # its descents are recorded all the same
    finally:
        solvers._descend = descend
    return rows


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--each", action="store_true", help="one line per descent first")
    parser.add_argument("--grid", type=int, metavar="K", help="play the five K×K grids instead")
    args = parser.parse_args()
    rows = descent_rounds(args.grid)
    if args.each:
        for row in rows:
            print(*row)
    for workload in WORKLOADS if args.grid is None else [f"grid-{args.grid}x{args.grid}"]:
        for kind in OBJECTIVES:
            mine = [row[3:] for row in rows if row[0] == workload and row[2] == kind]
            print(workload, kind, len(mine), *(sum(column) for column in zip(*mine)) if mine else (0, 0, 0))
