"""Print one SHA-256 over every output of the benchmark's instances.

From the root of a checkout:

    python3 tools/outputs_digest.py              # one hash over all instances
    python3 tools/outputs_digest.py --each       # and one line per instance first
    python3 tools/outputs_digest.py --dump FILE  # and their scalars to FILE

The instances are the 255 of the three workloads in
``benchmarks/workloads.py`` (read, not changed). For each one the digest takes
everything ``play`` returns: flows, costs, PoA, Wardrop gap, and for the
optimum and the follower their iterations, traces, gaps, convergence and
``exact`` flag, or the result a ``NotConverged`` carries. For each instance
in its workload's oracle scope it also takes the flow and social cost of
``system_optimal``, ``oracle_nash`` at the leader's link flows and the flag
``certify_outcome`` sets. Two checkouts whose digests agree produce
bit-identical outputs on all of them; a refactor that must change no output
is checked that way. With ``--each``, each instance first prints a line
``workload id sha256`` over its own outputs, so that ``diff`` of two
checkouts' outputs names the instances that changed; the last line is the
same as without it. With ``--dump FILE``, FILE gets one JSON line per
instance with its scalar outputs (``SCALARS``): its workload and id, whether
``play`` converged, optimal and induced cost, PoA, Wardrop gap, the gap,
iterations, ``converged`` and ``exact`` of the optimum's and the follower's
solve, and the oracle's ``certified`` flag (null outside its scope), so that
two checkouts can be compared by value, not only by hash.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from scaleroute import (  # noqa: E402
    NotConverged, is_parallel_link, oracle_nash, play, social_cost, system_optimal,
)
from scaleroute.harness import certify_outcome  # noqa: E402
from workloads import SOLVER, WORKLOADS  # noqa: E402


def _feed(out: bytearray, *values) -> None:
    """Add each value, an array by its bytes and anything else by its repr."""
    for value in values:
        if isinstance(value, np.ndarray):
            value = np.ascontiguousarray(value, dtype=float)
            out += repr(value.shape).encode() + value.tobytes()
        else:
            out += repr(value).encode()
        out += b";"


#: the fields of each ``--dump`` line, in order
SCALARS = (
    "workload", "id", "status", "optimal_cost", "induced_cost", "poa", "wardrop_gap",
    *(f"{solve}_{field}" for solve in ("optimum", "follower") for field in ("gap", "iterations", "converged", "exact")),
    "certified",
)


def _result_scalars(solve: str, result) -> dict:
    return {
        f"{solve}_gap": result.relative_gap, f"{solve}_iterations": result.iterations,
        f"{solve}_converged": result.converged, f"{solve}_exact": result.exact,
    }


def _feed_result(out: bytearray, result) -> None:
    flow = result.flow
    _feed(
        out, flow.path_flows_a, flow.path_flows_h, flow.link_flows_a, flow.link_flows_h,
        result.potential_or_cost, result.relative_gap, result.iterations, result.converged,
        result.trace, result.exact,
    )


def _instance_outputs(workload, iid: str, instance) -> tuple[bytearray, int, dict]:
    """The bytes of one instance's outputs, its number of oracle problems and
    its ``SCALARS``."""
    out = bytearray()
    _feed(out, workload.name, iid)
    scalars = dict.fromkeys(SCALARS)
    scalars.update(workload=workload.name, id=iid)
    try:
        outcome = play(instance, SOLVER)
    except NotConverged as exc:
        _feed(out, "not converged", str(exc))
        _feed_result(out, exc.result)
        scalars["status"] = "not converged"
        return out, 0, scalars
    scalars.update(
        status="ok", optimal_cost=outcome.optimal_cost, induced_cost=outcome.induced_cost,
        poa=outcome.empirical_poa, wardrop_gap=outcome.wardrop_gap,
        **_result_scalars("optimum", outcome.optimal_result), **_result_scalars("follower", outcome.follower_result),
    )
    _feed(
        out, outcome.alpha, outcome.optimal_cost, outcome.induced_cost,
        outcome.empirical_poa, outcome.wardrop_gap, outcome.leader_path_flows,
        outcome.leader_link_flows,
    )
    _feed_result(out, outcome.optimal_result)
    _feed_result(out, outcome.follower_result)
    oracle = workload.oracle
    if oracle is None or not is_parallel_link(instance, oracle.max_links):
        return out, 0, scalars
    flow = system_optimal(instance).flow
    cost = social_cost(instance, flow)
    t, gap = oracle_nash(instance, outcome.leader_link_flows, oracle)
    certified = certify_outcome(instance, outcome, oracle).optimum_certified
    _feed(out, flow.path_flows_a, flow.path_flows_h, cost, t, gap, certified)
    scalars["certified"] = certified
    return out, 2, scalars


def outputs_digest() -> tuple[str, int, int, list[tuple[str, str, str]], list[dict]]:
    """The hex digest, the number of instances and of oracle problems, per
    instance its workload, id and the hex digest of its own outputs, and per
    instance its ``SCALARS``."""
    digest = hashlib.sha256()
    oracle_problems = 0
    rows, scalars = [], []
    for workload in WORKLOADS.values():
        for iid, make in workload.instances:
            out, problems, values = _instance_outputs(workload, iid, make())
            digest.update(out)
            oracle_problems += problems
            rows.append((workload.name, iid, hashlib.sha256(out).hexdigest()))
            scalars.append(values)
    return digest.hexdigest(), len(rows), oracle_problems, rows, scalars


if __name__ == "__main__":
    args = sys.argv[1:]
    hexdigest, instances, oracle_problems, rows, scalars = outputs_digest()
    if "--each" in args:
        for row in rows:
            print(*row)
    if "--dump" in args:
        with open(args[args.index("--dump") + 1], "w") as fh:
            fh.writelines(json.dumps(values) + "\n" for values in scalars)
    print(f"{hexdigest}  {instances} instances, {oracle_problems} oracle problems")
