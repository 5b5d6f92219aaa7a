"""Command-line surface: validate, solve, play, bound, curves, verify.

Exit codes: 0 success, 1 validation error, 2 solver non-convergence,
3 verification failures, 64 usage errors. Output files are UTF-8 with LF
line endings and deterministic float formatting, so identical invocations
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from typing import Sequence

import numpy as np

from .bounds import poa_bound
from .errors import NotConverged, ScalerouteError
from .harness import (
    BatchConfig,
    ShapeConfig,
    curve_tables,
    format_csv,
    format_float,
    report_to_csv,
    verify_bounds,
)
from .model import (
    GameInstance,
    build_instance,
    load_instance,
    min_asymmetry,
    network_autonomy_fraction,
    social_cost,
)
from .solvers import EquilibriumResult, SolverConfig, follower_equilibrium, system_optimal
from .game import play

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NOT_CONVERGED = 2
EXIT_VERIFY_FAILED = 3
EXIT_USAGE = 64

_CURVE_KINDS = ("omega-vs-gamma", "omega-vs-lambda", "constraint-sets", "poa-bounds")
_MAX_GRID_POINTS = 1_000_000
#: relative slack on (hi - lo) / step: a last grid point that reaches hi only through rounding counts
_GRID_RTOL = 1e-9


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


def _solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=SolverConfig.relative_gap_tol,
                        help="relative gap tolerance")
    parser.add_argument("--max-iter", dest="max_iter", type=int, default=SolverConfig.max_iterations,
                        help="iteration budget; the system optimum (solve-optimal, play, verify) gets it "
                        "per start; an iteration is a round in which each class not yet within "
                        "tolerance steps once; a solve within the face budget is exact, one "
                        "iteration, and does not use it")
    parser.add_argument("--seed", type=int, default=SolverConfig.seed,
                        help="seed for multistart and generation; a solve within the face budget "
                        "is exact and draws no starts")


def _checked(make, **fields):
    """Build a configuration object; a field out of range is a usage error."""
    try:
        return make(**fields)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _solver_config(args) -> SolverConfig:
    return _checked(SolverConfig, relative_gap_tol=args.tol, max_iterations=args.max_iter, seed=args.seed)


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _with_uniform_alpha(instance: GameInstance, alpha: float) -> GameInstance:
    od_pairs = [dataclasses.replace(od, alpha=alpha) for od in instance.od_pairs]
    return build_instance(instance.nodes, instance.links, od_pairs, instance.path_cap)


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo, hi, step = (float(part) for part in text.split(":"))
    except ValueError:
        raise _UsageError(f"--grid expects lo:hi:step, got {text!r}") from None
    if not (step > 0 and lo <= hi and math.isfinite(hi - lo + step)):
        raise _UsageError(f"--grid expects finite lo <= hi and step > 0, got {text!r}")
    steps = (hi - lo) / step * (1.0 + _GRID_RTOL)  # inf when the ratio overflows
    if not steps < _MAX_GRID_POINTS:  # checked before the grid is allocated
        raise _UsageError(f"--grid allows at most {_MAX_GRID_POINTS} points, got {text!r}")
    return np.minimum(lo + step * np.arange(math.floor(steps) + 1), hi)


def _cmd_validate(args) -> int:
    instance = load_instance(args.instance)
    print(
        f"instance ok: {len(instance.nodes)} nodes, {instance.n_links} links, "
        f"{len(instance.od_pairs)} O/D pairs, {instance.n_paths} paths"
    )
    for od, (start, end) in zip(instance.od_pairs, instance.paths.od_slices):
        print(
            f"  {od.origin} -> {od.destination}: demand {format_float(od.demand)}, "
            f"alpha {format_float(od.alpha)}, {end - start} paths"
        )
    return EXIT_OK


def _report_solve(
    args, instance: GameInstance, result: EquilibriumResult, cost: float, cost_label: str, gap_label: str
) -> int:
    """Print a solve's cost, gap and convergence, and write its link flows to ``args.out``."""
    print(f"{cost_label}: {format_float(cost)}")
    print(f"{gap_label}: {format_float(result.relative_gap)}")
    print(f"converged: {'yes' if result.converged else 'no'}")
    if args.out:
        fa, fh = result.flow.link_flows_a, result.flow.link_flows_h
        rows = zip((link.id for link in instance.links), fa, fh, instance.link_latencies(fa, fh))
        _write(format_csv("link,flow_a,flow_h,latency", rows), args.out)
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _cmd_solve_optimal(args) -> int:
    instance = load_instance(args.instance)
    result = system_optimal(instance, _solver_config(args))
    cost = result.potential_or_cost
    return _report_solve(args, instance, result, cost, "optimal social cost", "block relative gap")


def _cmd_solve_nash(args) -> int:
    # selfish baseline: route the whole demand as human-driven (no leader)
    instance = load_instance(args.instance)
    baseline = _with_uniform_alpha(instance, 0.0)
    result = follower_equilibrium(baseline, np.zeros(baseline.n_links), _solver_config(args))
    cost = social_cost(baseline, result.flow)
    return _report_solve(args, baseline, result, cost, "equilibrium social cost", "relative gap")


def _cmd_play(args) -> int:
    instance = load_instance(args.instance)
    if args.alpha is not None:
        instance = _with_uniform_alpha(instance, args.alpha)
    outcome = play(instance, _solver_config(args))
    alpha = network_autonomy_fraction(instance)
    mu = min_asymmetry(instance)
    bres = poa_bound(alpha, mu)
    print(f"alpha: {format_float(alpha)}   mu: {format_float(mu)}")
    print(f"optimal cost: {format_float(outcome.optimal_cost)}")
    print(f"induced cost: {format_float(outcome.induced_cost)}")
    print(f"empirical poa: {format_float(outcome.empirical_poa)}")
    print(f"wardrop gap: {format_float(outcome.wardrop_gap)}")
    print(f"poa bound: {format_float(bres.bound)} (region {bres.region})")
    if args.out:
        opt, follower = outcome.optimal_flow, outcome.follower_flow
        ids = (link.id for link in instance.links)
        rows = zip(ids, opt.link_flows_a, opt.link_flows_h, outcome.leader_link_flows, follower.link_flows_h)
        _write(format_csv("link,opt_flow_a,opt_flow_h,leader_flow,follower_flow", rows), args.out)
    return EXIT_OK


def _cmd_bound(args) -> int:
    result = poa_bound(args.alpha, args.mu)
    print(f"alpha: {format_float(args.alpha)}   mu: {format_float(args.mu)}")
    print(f"region: {result.region}")
    print(f"bound: {format_float(result.bound)}")
    print(f"expression: {result.expression_used}")
    t = result.thresholds
    print(
        "thresholds: "
        f"alpha0={format_float(t.alpha0)} alpha1={format_float(t.alpha1)} "
        f"alpha2={format_float(t.alpha2)} alpha_tilde={format_float(t.alpha_tilde)}"
    )
    if args.out:
        row = (args.alpha, args.mu, result.region, result.bound, result.expression_used)
        _write(format_csv("alpha,mu,region,bound,expression", [row]), args.out)
    return EXIT_OK


def _cmd_curves(args) -> int:
    mus = None
    if args.mu is not None:
        try:
            mus = [float(p) for p in args.mu.split(",")]
        except ValueError:
            raise _UsageError(f"--mu expects comma-separated numbers, got {args.mu!r}") from None
        if len(mus) > 1 and args.kind != "poa-bounds":
            raise _UsageError(f"--mu takes one value for --kind {args.kind}; only poa-bounds reads a list")
    table = curve_tables(
        args.kind,
        alpha=args.alpha,
        mu=0.5 if mus is None else mus[0],
        lam=args.lam,
        mus=mus,
        grid=_parse_grid(args.grid) if args.grid else None,
    )
    _write(table.to_csv(), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    config = _checked(
        BatchConfig,
        count=args.count,
        base_seed=args.seed,
        shape=_checked(ShapeConfig, mu_min=args.mu_min, alpha=args.alpha),
        solver=_solver_config(args),
        jobs=args.jobs,
    )
    report = verify_bounds(config)
    for key, value in report.summary().items():
        print(f"{key}: {value}")
    if args.out:
        _write(report_to_csv(report), args.out)
    return EXIT_VERIFY_FAILED if report.failures > 0 else EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="scaleroute", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="validate an instance file")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("solve-optimal", help="system-optimal two-class flow")
    p.add_argument("--instance", required=True)
    p.add_argument("--out")
    _solver_flags(p)
    p.set_defaults(func=_cmd_solve_optimal)

    p = sub.add_parser("solve-nash", help="all-human selfish equilibrium baseline")
    p.add_argument("--instance", required=True)
    p.add_argument("--out")
    _solver_flags(p)
    p.set_defaults(func=_cmd_solve_nash)

    p = sub.add_parser("play", help="SCALE leader-follower play")
    p.add_argument("--instance", required=True)
    p.add_argument("--alpha", type=float, help="override the O/D autonomy fractions")
    p.add_argument("--out")
    _solver_flags(p)
    p.set_defaults(func=_cmd_play)

    p = sub.add_parser("bound", help="closed-form price-of-anarchy bound")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("curves", help="figure data as series,x,y CSV")
    p.add_argument("--kind", required=True, choices=_CURVE_KINDS)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--mu", help="single value, or comma-separated list for poa-bounds")
    p.add_argument("--lam", type=float, default=0.75, help="lambda for omega-vs-gamma")
    p.add_argument("--grid", help="x-grid as lo:hi:step")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("verify", help="batch bound verification on random instances")
    p.add_argument("--count", type=int, default=BatchConfig.count)
    p.add_argument("--alpha", type=float, default=ShapeConfig.alpha)
    p.add_argument("--mu-min", dest="mu_min", type=float, default=ShapeConfig.mu_min)
    p.add_argument("--jobs", type=int, default=BatchConfig.jobs)
    p.add_argument("--out")
    _solver_flags(p)
    p.set_defaults(func=_cmd_verify)
    return parser


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotConverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except (ScalerouteError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
