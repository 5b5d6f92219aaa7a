"""The benchmark's workloads and the play-and-check of one instance.

Every instance is played the way ``verify_bounds`` plays it: closed-form
bound at the instance's (alpha, mu), SCALE ``play``, and oracle
certification where the network is parallel-link. The result is checked
against the committed reference of the seed commit. Only public library
functions are called; with a tracer, ``play`` is replaced by its
decomposition into the same public calls so that each layer gets a span.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from grid import grid_instance
from scaleroute import (
    BatchConfig,
    GameInstance,
    NotConverged,
    OracleConfig,
    ShapeConfig,
    SolverConfig,
    StackelbergOutcome,
    follower_equilibrium,
    is_parallel_link,
    min_asymmetry,
    network_autonomy_fraction,
    oracle_nash,
    play,
    poa_bound,
    random_instance,
    scale_strategy,
    social_cost,
    system_optimal,
    wardrop_gap,
)
from scaleroute.harness import ORACLE_FLOW_TOL, POA_SLACK, certify_outcome
from scaleroute.model import social_cost_links
from spans import Tracer

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

#: a run may not find an optimal cost above reference * (1 + COST_RTOL)
COST_RTOL = 1e-9

SOLVER = SolverConfig()
LOWMU_SHAPE = ShapeConfig(parallel_probability=1.0, mu_min=0.05, alpha=0.2)


@dataclass(frozen=True)
class Workload:
    """A fixed, reference-checked set of instances and how to play them.

    ``oracle`` certifies parallel-link optima (None: no certification);
    ``check_follower`` also checks the induced equilibrium with
    ``oracle_nash``; ``batch`` is the ``verify_bounds`` batch that
    generates the same instances, run by the traced benchmark at jobs 1 and 2.
    """

    name: str
    instances: tuple[tuple[str, Callable[[], GameInstance]], ...]
    oracle: OracleConfig | None
    check_follower: bool = False
    batch: BatchConfig | None = None

    @property
    def ids(self) -> list[str]:
        return [iid for iid, _ in self.instances]

    def references(self) -> dict[str, dict]:
        with open(REFERENCE_DIR / f"{self.name}.json", encoding="utf-8") as fh:
            rows = json.load(fh)["instances"]
        return {row["id"]: row for row in rows}


_VERIFY_BATCH = BatchConfig(count=200)
_LOWMU_BATCH = BatchConfig(count=50, base_seed=1000, shape=LOWMU_SHAPE, oracle=OracleConfig())

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="verify-default",
            instances=tuple(
                (f"s{seed}", partial(random_instance, seed, _VERIFY_BATCH.shape))
                for seed in range(_VERIFY_BATCH.base_seed, _VERIFY_BATCH.base_seed + _VERIFY_BATCH.count)
            ),
            oracle=_VERIFY_BATCH.oracle,
            batch=_VERIFY_BATCH,
        ),
        Workload(
            name="grid-4x4",
            # three grids with one corner-to-corner pair (184 paths), two
            # with both crossing corner pairs (368 paths)
            instances=tuple(
                (f"g{seed}-{1 + (seed >= 3)}od", partial(grid_instance, seed, 4, seed >= 3))
                for seed in range(5)
            ),
            oracle=None,
        ),
        Workload(
            name="oracle-lowmu",
            instances=tuple(
                (f"s{seed}", partial(random_instance, seed, LOWMU_SHAPE))
                for seed in range(_LOWMU_BATCH.base_seed, _LOWMU_BATCH.base_seed + _LOWMU_BATCH.count)
            ),
            oracle=_LOWMU_BATCH.oracle,
            check_follower=True,
            batch=_LOWMU_BATCH,
        ),
    )
}


@dataclass(frozen=True, eq=False)
class Played:
    """What one play of one instance produced."""

    status: str
    region: str
    certified: bool
    optimal_cost: float
    empirical_poa: float
    follower_ok: bool
    outcome: StackelbergOutcome | None


def _no_span(name: str, instance: str = ""):
    return nullcontext()


def traced_play(instance: GameInstance, tracer: Tracer, iid: str) -> StackelbergOutcome:
    """``play`` rebuilt from public calls, one span per solver call.

    Must reproduce ``play(instance, SOLVER)`` bit for bit; the benchmark
    checks that on every traced instance.
    """
    alpha = float(instance.alphas[0])
    with tracer.span("game.play", iid):
        with tracer.span("solvers.system_optimal", iid):
            opt = system_optimal(instance, SOLVER)
        tracer.counts["solvers.system_optimal.iterations"] += opt.iterations
        tracer.counts["solvers.system_optimal.sweeps"] += len(opt.trace)
        if not opt.converged:
            raise NotConverged("system optimum not converged", result=opt)
        s_path = scale_strategy(opt.flow, alpha)
        s_link = instance.link_flows(s_path)
        with tracer.span("solvers.follower_equilibrium", iid):
            follower = follower_equilibrium(instance, s_link, SOLVER)
        tracer.counts["solvers.follower_equilibrium.iterations"] += follower.iterations
        if not follower.converged:
            raise NotConverged("induced equilibrium not converged", result=follower)
        t_link = follower.flow.link_flows_h
        optimal_cost = social_cost(instance, opt.flow)
        induced_cost = social_cost_links(instance, s_link, t_link)
        with tracer.span("solvers.wardrop_gap", iid):
            gap = wardrop_gap(instance, s_link, follower.flow.path_flows_h)
    return StackelbergOutcome(
        instance=instance,
        alpha=alpha,
        optimal_flow=opt.flow,
        leader_path_flows=s_path,
        leader_link_flows=s_link,
        follower_flow=follower.flow,
        optimal_cost=optimal_cost,
        induced_cost=induced_cost,
        empirical_poa=induced_cost / optimal_cost,
        wardrop_gap=gap,
        optimum_certified=False,
        optimal_result=opt,
        follower_result=follower,
    )


def same_outcome(x: StackelbergOutcome, y: StackelbergOutcome) -> bool:
    """Bitwise equality of everything ``play`` computes."""
    scalars = ("alpha", "optimal_cost", "induced_cost", "empirical_poa", "wardrop_gap")
    arrays = (
        lambda o: o.optimal_flow.path_flows_a,
        lambda o: o.optimal_flow.path_flows_h,
        lambda o: o.leader_path_flows,
        lambda o: o.leader_link_flows,
        lambda o: o.follower_flow.path_flows_h,
        lambda o: o.follower_flow.link_flows_h,
    )
    results = (lambda o: o.optimal_result, lambda o: o.follower_result)
    return (
        all(getattr(x, f) == getattr(y, f) for f in scalars)
        and all(np.array_equal(get(x), get(y)) for get in arrays)
        and all(
            (get(x).iterations, get(x).trace, get(x).relative_gap)
            == (get(y).iterations, get(y).trace, get(y).relative_gap)
            for get in results
        )
    )


def play_one(
    workload: Workload, instance: GameInstance, iid: str, tracer: Tracer | None = None
) -> Played:
    """Bound, play, certify and classify one instance, as ``verify_bounds`` does."""
    span = _no_span if tracer is None else tracer.span
    with span("bounds.poa_bound", iid):
        bound = poa_bound(network_autonomy_fraction(instance), min_asymmetry(instance))
    region = str(bound.region)
    try:
        outcome = play(instance, SOLVER) if tracer is None else traced_play(instance, tracer, iid)
    except NotConverged:
        return Played("uncertified", region, False, math.nan, math.nan, False, None)

    oracle = workload.oracle
    parallel = oracle is not None and is_parallel_link(instance, oracle.max_links)
    if parallel:
        # certify_outcome is oracle_optimal plus one comparison of link flows
        with span("harness.oracle_optimal", iid):
            outcome = certify_outcome(instance, outcome, oracle)
    follower_ok = True
    if workload.check_follower and parallel:
        with span("harness.oracle_nash", iid):
            oracle_t, oracle_gap = oracle_nash(instance, outcome.leader_link_flows, oracle)
        # the grid oracle only approximates the equilibrium: a follower with
        # a Wardrop gap no larger than the best grid point's passes too
        follower_ok = bool(
            np.max(np.abs(outcome.follower_flow.link_flows_h - oracle_t)) <= ORACLE_FLOW_TOL
            or outcome.wardrop_gap <= oracle_gap
        )

    emp = outcome.empirical_poa
    if not math.isfinite(bound.bound):
        status = "vacuous"
    else:
        upper_ok = emp <= bound.bound + POA_SLACK
        lower_ok = emp >= 1.0 - POA_SLACK if outcome.optimum_certified else True
        status = "pass" if upper_ok and lower_ok else "fail"
    return Played(
        status, region, outcome.optimum_certified, outcome.optimal_cost, emp, follower_ok, outcome
    )


def check(played: Played, ref: dict) -> tuple[list[str], float]:
    """Problems of one play against its reference, and its cost regret.

    Statuses, regions and certification must be identical; the optimal cost
    may not exceed the reference by more than COST_RTOL relative.
    """
    problems = [
        f"{key} {getattr(played, key)!r} != reference {ref[key]!r}"
        for key in ("status", "region", "certified")
        if getattr(played, key) != ref[key]
    ]
    regret = (played.optimal_cost - ref["optimal_cost"]) / ref["optimal_cost"]
    if not played.optimal_cost <= ref["optimal_cost"] * (1.0 + COST_RTOL):
        problems.append(f"optimal cost {played.optimal_cost!r} above reference {ref['optimal_cost']!r}")
    if not played.follower_ok:
        problems.append("follower differs from oracle_nash and has a larger Wardrop gap")
    return problems, regret


def check_rows(rows, refs: dict[str, dict]) -> list[str]:
    """Problems of ``verify_bounds`` rows (instance ids s<seed>) against references."""
    problems = []
    for row in rows:
        ref = refs[f"s{row.seed}"]
        got = {"status": row.status, "region": row.region, "certified": row.certified}
        for key, value in got.items():
            if value != ref[key]:
                problems.append(f"verify_bounds s{row.seed}: {key} {value!r} != reference {ref[key]!r}")
    if len(rows) != len(refs):
        problems.append(f"verify_bounds returned {len(rows)} rows for {len(refs)} references")
    return problems


class Tally:
    """Checked plays, failures and the largest cost regret of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.regret_max = -math.inf

    def record(self, iid: str, problems: list[str], regret: float = math.nan) -> None:
        self.attempted += 1
        if not math.isnan(regret):
            self.regret_max = max(self.regret_max, regret)
        if problems:
            self.failed += 1
            self.problems.extend(f"{iid}: {p}" for p in problems)


def run_pass(workload, instances, order, refs, tally, tracer=None):
    """Play and check every instance once; returns (wall, times, played).

    ``times`` maps each instance id to the (start, seconds) of its play.
    """
    ids = workload.ids
    times: dict[str, tuple[float, float]] = {}
    played = {}
    start = perf_counter()
    for i in order:
        iid = ids[i]
        t0 = perf_counter()
        result = play_one(workload, instances[i], iid, tracer)
        times[iid] = (t0, perf_counter() - t0)
        problems, regret = check(result, refs[iid])
        tally.record(iid, problems, regret)
        played[iid] = result
    return perf_counter() - start, times, played


def build_all(workload, tracer=None):
    """Construct every instance; with a tracer, one model.build span each."""
    if tracer is None:
        return [make() for _, make in workload.instances]
    instances = []
    for iid, make in workload.instances:
        with tracer.span("model.build", iid):
            instance = make()
        tracer.counts["model.paths"] += instance.n_paths
        tracer.counts["model.incidence_bytes"] += instance.n_links * instance.n_paths * 8
        instances.append(instance)
    return instances
