"""Run one scaleroute benchmark workload and print its metrics.

From the root of a checkout:

    python3 benchmarks/run.py --workload verify-default --seed 0 --seconds 30 --trace 0

The library is imported from ``src/`` of the checkout; the run fails without
printing a result when the sources are missing. Instances are built from the
workload's fixed seeds, and ``--seed`` draws the order in which they are
played (seed 0 plays them in seed order), so every seed does the same work
and is checked against the same committed references. The run repeats whole
passes over the instances until another pass would overrun ``--seconds``.
End-to-end times are in reference seconds: a fixed kernel, sampled on a
timer through the run, puts them on a steady scale (``calibrate.py``).

With ``--trace 0`` the last line reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it reports the per-layer metrics, taken
from traced passes that alternate with untraced ones. Each run also writes a
record with its environment stamp (and the spans, when traced) under
``benchmarks/out/``. The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: set-ups (import plus instance construction) before the first pass; one
#: more follows every untraced pass, and the median of all is reported
SETUP_REPEATS = 9

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import scaleroute\n"
    "print(time.perf_counter() - t)\n"
)


def import_seconds() -> float:
    """Time to import the library in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def stamp() -> dict:
    """Where and on what the run was made."""
    import numpy

    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if ref_file.is_file():
                sha = ref_file.read_text().strip()
            elif packed.is_file():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + ref[5:]):
                        sha = line.split()[0]
    digest = hashlib.sha256()
    for path in sorted((SRC / "scaleroute").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer metrics of one traced round (build plus pass)."""
    layers = tracer.layers()
    wall = tracer.wall()
    counts = tracer.counts
    m: dict[str, float] = {}

    def row(name):
        return layers.get(name, {"calls": 0, "busy_s": 0.0, "max_s": 0.0, "self_s": 0.0})

    for name in (
        "model.build",
        "solvers.system_optimal",
        "solvers.follower_equilibrium",
        "solvers.wardrop_gap",
        "bounds.poa_bound",
        "harness.oracle_optimal",
        "harness.oracle_nash",
    ):
        m[f"{name}.busy_s"] = row(name)["busy_s"]
        m[f"{name}.share"] = row(name)["busy_s"] / wall
    for name in ("bounds.poa_bound", "harness.oracle_optimal", "harness.oracle_nash"):
        m[f"{name}.calls"] = row(name)["calls"]
    m["model.paths"] = counts["model.paths"]
    m["model.incidence_bytes"] = counts["model.incidence_bytes"]
    so = row("solvers.system_optimal")
    iterations = counts["solvers.system_optimal.iterations"]
    m["solvers.system_optimal.calls"] = so["calls"]
    m["solvers.system_optimal.iterations"] = iterations
    m["solvers.system_optimal.sweeps"] = counts["solvers.system_optimal.sweeps"]
    m["solvers.system_optimal.us_per_iteration"] = 1e6 * so["busy_s"] / iterations
    m["solvers.system_optimal.max_s"] = so["max_s"]
    m["solvers.follower_equilibrium.iterations"] = counts["solvers.follower_equilibrium.iterations"]
    m["game.play.self_s"] = row("game.play")["self_s"]
    m["game.play.self_share"] = row("game.play")["self_s"] / wall
    return m


def tail(values: list[float]) -> tuple[float, str]:
    """Highest order statistic with ten samples beyond it, and its label.

    With fewer than twenty samples no percentile above the median has ten
    samples beyond it; the maximum is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:g} of {n}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="order of play (0: seed order)")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "scaleroute" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC / 'scaleroute'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))

    import numpy as np
    import scaleroute
    from calibrate import ReferenceClock
    from scaleroute import verify_bounds
    from spans import Tracer, self_time_table
    from workloads import WORKLOADS, Tally, build_all, check_rows, run_pass, same_outcome

    if Path(scaleroute.__file__).resolve().parent != SRC / "scaleroute":
        print(f"error: imported scaleroute from {scaleroute.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    refs = workload.references()
    if sorted(refs) != sorted(workload.ids):
        print(f"error: references of {workload.name} do not match its instances", file=sys.stderr)
        return 2

    build_times: list[float] = []
    setups: list[tuple[float, float, float, float, float]] = []

    def set_up():
        t0 = perf_counter()
        import_s = import_seconds()
        t1 = perf_counter()
        built = build_all(workload)
        build_times.append(perf_counter() - t1)
        # (start, wall and own time of the import, start and time of the build)
        setups.append((t0, t1 - t0, import_s, t1, build_times[-1]))
        return built

    tally = Tally()
    walls: list[float] = []
    inst_times: dict[str, list[tuple[float, float]]] = defaultdict(list)
    rounds: list = []
    traced_walls: list[float] = []
    verify: dict[str, float] = {}
    clock = None if args.trace else ReferenceClock()

    with clock if clock is not None else nullcontext():
        import_seconds()  # writes the byte-code caches; not counted
        for _ in range(SETUP_REPEATS):
            instances = set_up()
        run_start = perf_counter()

        order = list(range(len(instances)))
        if args.seed != 0:
            order = [int(i) for i in np.random.default_rng(args.seed % 2**64).permutation(len(instances))]

        def time_left(estimate: float) -> bool:
            return perf_counter() - run_start + estimate <= args.seconds

        if args.trace and workload.batch is not None:
            for jobs in (1, 2):
                t0 = perf_counter()
                report = verify_bounds(replace(workload.batch, jobs=jobs))
                verify[f"jobs{jobs}_s"] = perf_counter() - t0
                problems = check_rows(report.rows, refs)
                tally.record(f"verify_bounds(jobs={jobs})", problems)

        if not args.trace:
            # play the instances round-robin in the drawn order until the next
            # play would overrun; every instance is played at least once, and a
            # set-up follows every completed round
            n = len(order)
            k = 0
            while k < n or time_left(inst_times[workload.ids[order[k % n]]][-1][1]):
                _, times, _ = run_pass(workload, instances, [order[k % n]], refs, tally)
                for iid, span in times.items():
                    inst_times[iid].append(span)
                k += 1
                if k % n == 0:
                    set_up()
            rounds_played = k / n
        else:
            while True:
                wall, times, played = run_pass(workload, instances, order, refs, tally)
                walls.append(wall)
                for iid, span in times.items():
                    inst_times[iid].append(span)
                tracer = Tracer()
                with tracer.span("bench.build"):
                    traced_instances = build_all(workload, tracer)
                with tracer.span("bench.pass"):
                    _, _, traced = run_pass(workload, traced_instances, order, refs, tally, tracer)
                for iid, result in traced.items():
                    x, y = result.outcome, played[iid].outcome
                    same = x is y is None or (x is not None and y is not None and same_outcome(x, y))
                    tally.record(f"{iid} (traced)", [] if same else ["traced play differs from play"])
                rounds.append(tracer)
                traced_walls.append(tracer.wall())
                if not time_left(wall + tracer.wall()):
                    break
            rounds_played = len(walls)

    # each play and set-up counts in reference seconds in untraced runs and
    # in measured seconds in traced runs; each instance counts with the
    # mean of its plays
    if clock is not None:
        plays = {
            iid: [clock.reference_seconds(start, seconds) for start, seconds in spans]
            for iid, spans in inst_times.items()
        }
        setup_times = [
            clock.reference_seconds(t0, wall, busy=import_s) + clock.reference_seconds(t1, build_s)
            for t0, wall, import_s, t1, build_s in setups
        ]
    else:
        plays = {iid: [seconds for _, seconds in spans] for iid, spans in inst_times.items()}
        setup_times = [import_s + build_s for _, _, import_s, _, build_s in setups]
    per_instance = [statistics.fmean(plays[iid]) for iid in workload.ids]
    p50 = statistics.median(per_instance)
    tail_value, tail_label = tail(per_instance)
    metrics: dict[str, float] = {}
    if args.trace:
        per_round = [layer_metrics(tracer) for tracer in rounds]
        for name in per_round[0]:
            metrics[name] = statistics.median(r[name] for r in per_round)
        jobs1, jobs2 = verify.get("jobs1_s", 0.0), verify.get("jobs2_s", 0.0)
        metrics["harness.verify_bounds.jobs1_s"] = jobs1
        metrics["harness.verify_bounds.jobs2_s"] = jobs2
        metrics["harness.verify_bounds.jobs2_speedup"] = jobs1 / jobs2 if jobs2 > 0 else 0.0
        # the traced round rebuilds the instances, so compare it with an
        # untraced pass plus one untraced build
        untraced = statistics.median(walls) + statistics.median(build_times)
        metrics["trace.overhead_frac"] = statistics.median(traced_walls) / untraced - 1.0
        wanted = spec["per_layer"]
    else:
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["wall_s"] = sum(per_instance)
        metrics["instance_p50_s"] = p50
        metrics["instance_tail_s"] = tail_value
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")

    failed = tally.failed
    fail_frac = failed / tally.attempted
    regret = tally.regret_max
    env = stamp()
    print(f"scaleroute benchmark: workload {workload.name}, seed {args.seed}, trace {args.trace}")
    print("  " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"  instances {len(per_instance)}, untraced rounds {rounds_played:.3g}, traced rounds {len(rounds)}")
    if clock is not None:
        measured = sum(seconds for spans in inst_times.values() for _, seconds in spans)
        reference = sum(sum(p) for p in plays.values())
        print("  wall_s sums, and instance_*_s rank, each instance's mean play, in reference seconds")
        print(f"  instance_tail_s is the {tail_label} instances; setup_s the median of {len(setups)}")
        print(f"  reference kernel: {len(clock.samples)} samples, mean {1e3 * statistics.fmean(clock.samples):.4g} ms; "
              f"plays took {measured:.4g} s measured, {reference:.4g} reference s")
    for m in wanted:
        print(f"  {m['name']:44s} {metrics[m['name']]:.6g} {m['unit']}")
    print(f"  {'fail_frac':44s} {fail_frac:.6g} frac ({failed} of {tally.attempted} checked plays)")
    print(f"  {'cost_regret_max':44s} {regret:.3g} frac")
    if rounds:
        print(self_time_table(rounds[-1]))
    for problem in tally.problems[:20]:
        print(f"  FAIL {problem}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "stamp": env, "metrics": metrics, "fail_frac": fail_frac, "cost_regret_max": regret,
        "problems": tally.problems, "plays": dict(inst_times), "reference_plays": plays,
        "per_instance_s": dict(zip(workload.ids, per_instance)), "setups": setups,
        "kernel": list(zip(clock.starts, clock.samples)) if clock is not None else [],
        "spans": [tracer.records() for tracer in rounds],
    }
    out = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    correct = failed == 0
    units = {m["name"]: m["unit"] for m in wanted}
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
