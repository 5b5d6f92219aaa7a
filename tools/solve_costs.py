"""Print the in-process cost of each layer on named benchmark instances.

From the root of a checkout:

    python3 tools/solve_costs.py                        # the default instances
    python3 tools/solve_costs.py oracle-lowmu/s1010 verify-default/s77
    python3 tools/solve_costs.py --repeats 41 --number 20

Each instance is a benchmark id, ``workload/id`` (``benchmarks/workloads.py``,
read, not changed). The defaults are oracle-lowmu s1003 and s1004 and
verify-default s140, a row near the median of that workload's play times.
``build`` is the workload's constructor of the instance (``random_instance``
or ``grid_instance`` at its seed). Every solver layer is called at the
inputs that ``play`` gives it: ``system_optimal``, ``follower_equilibrium``
at the SCALE leader's link flows, ``wardrop_gap`` at the follower's path
flows, ``oracle_nash`` at the leader's link flows (only in its scope,
``is_parallel_link``) and ``play`` itself. ``play`` does not call
``wardrop_gap``: it reports the follower's own gap, so the ``wardrop_gap``
line times a call that only the benchmark's traced play makes. One timing
is ``--number`` calls in a row; the timings alternate over every instance
and layer, ``--repeats`` times, so that a drift of the machine's speed
meets every layer alike. Each line is
``workload id layer median_us q1_us q3_us``, microseconds per call.

A traced benchmark pass times each layer once and cannot resolve a change
of a few microseconds per call; compare two checkouts by running this in
each, alternately.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from scaleroute import (  # noqa: E402
    follower_equilibrium, is_parallel_link, oracle_nash, play, scale_strategy, system_optimal, wardrop_gap,
)
from workloads import SOLVER, WORKLOADS  # noqa: E402

DEFAULT_IDS = ("oracle-lowmu/s1003", "oracle-lowmu/s1004", "verify-default/s140")
#: the layers timed, in the order of each instance's lines
LAYERS = ("build", "system_optimal", "follower_equilibrium", "wardrop_gap", "oracle_nash", "play")


def _calls(make) -> dict:
    """Each layer of the instance that ``make`` builds as a call with no
    arguments: ``make`` itself, then each solver layer at the inputs that
    ``play`` gives it; ``oracle_nash`` only in its scope."""
    instance = make()
    opt = system_optimal(instance, SOLVER)
    s = instance.link_flows(scale_strategy(opt.flow, float(instance.alphas[0])))
    t = follower_equilibrium(instance, s, SOLVER).flow.path_flows_h
    calls = dict(zip(LAYERS, (
        make,
        lambda: system_optimal(instance, SOLVER),
        lambda: follower_equilibrium(instance, s, SOLVER),
        lambda: wardrop_gap(instance, s, t),
        lambda: oracle_nash(instance, s),
        lambda: play(instance, SOLVER),
    )))
    if not is_parallel_link(instance):
        del calls["oracle_nash"]
    return calls


def solve_costs(ids=DEFAULT_IDS, repeats: int = 21, number: int = 10) -> list[tuple[str, str, str, float, float, float]]:
    """Per instance id and layer: workload, id, layer and the median, first
    and third quartile of its ``repeats`` timings (at least 2), in
    microseconds per call."""
    if repeats < 2 or number < 1:
        raise ValueError(f"need repeats >= 2 and number >= 1, got {repeats} and {number}")
    cases = []
    for name in ids:
        workload, iid = name.split("/")
        make = dict(WORKLOADS[workload].instances)[iid]
        for layer, call in _calls(make).items():
            cases.append((workload, iid, layer, call))
    timings: list[list[float]] = [[] for _ in cases]
    for _ in range(repeats):
        for case, times in zip(cases, timings):
            call = case[3]
            start = perf_counter()
            for _ in range(number):
                call()
            times.append((perf_counter() - start) / number * 1e6)
    rows = []
    for (workload, iid, layer, _), times in zip(cases, timings):
        q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
        rows.append((workload, iid, layer, median, q1, q3))
    return rows


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="In-process cost of each layer, in microseconds per call.")
    parser.add_argument("ids", nargs="*", default=DEFAULT_IDS, help="benchmark ids, workload/id")
    parser.add_argument("--repeats", type=int, default=21, help="timings per instance and layer (>= 2)")
    parser.add_argument("--number", type=int, default=10, help="calls per timing")
    args = parser.parse_args()
    for workload, iid, layer, median, q1, q3 in solve_costs(args.ids, args.repeats, args.number):
        print(workload, iid, layer, f"{median:.1f}", f"{q1:.1f}", f"{q3:.1f}")
