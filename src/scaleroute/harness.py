"""Exact oracles, random instances, batch verification and figure data.

The oracles certify solver output on parallel-link single-O/D instances
with at most three links. There the social cost and the follower's
Beckmann potential are quadratics over a product of simplices (one per
class), and both are minimised exactly by enumerating the faces of that
product: each face fixes a support per class, and one small KKT solve per
face gives its stationary point. The global minimum is the lowest feasible
stationary point, even where the cost is not convex.

Batch verification plays the SCALE game on seeded random instances and
compares the empirical price of anarchy against the closed-form bound;
parallel-link instances are additionally oracle-certified. Curve tables
reproduce the characteristic plots (certificate functions, region
boundaries, bound curves) as labeled CSV series.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import (
    Region, _check_alpha_mu, _check_lambda, alpha_thresholds, omega1_sup, omega2, poa_bound,
)
from .errors import BadKind, GenerationFailed, NotConverged, UnsupportedTopology, ValidationError
from .game import StackelbergOutcome, play
from .model import (
    ClassFlow,
    GameInstance,
    Link,
    ODPair,
    build_instance,
    check_leader_flows,
    min_asymmetry,
    network_autonomy_fraction,
    social_cost_links,
)
from .solvers import SolverConfig, wardrop_gap

#: comparison slacks used by the verification harness
POA_SLACK = 1e-6
ORACLE_FLOW_TOL = 1e-3

#: a face's KKT solution is stationary up to this residual relative to the right-hand side
_KKT_RTOL = 1e-9
#: and feasible down to this negative flow, which is then clipped to zero
_FEASIBLE_ATOL = 1e-12


def format_float(x: float) -> str:
    """Deterministic 12-significant-digit rendering; infinities print as inf."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.12g}"


# --- oracles -----------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleConfig:
    """Scope of the exact parallel-link oracles.

    ``max_links`` in [1, 3] is the largest number of parallel links an
    instance may have to be certified; the face count grows as 4^n.
    """

    max_links: int = 3

    def __post_init__(self):
        if not 1 <= self.max_links <= 3:
            raise ValueError(f"max_links = {self.max_links} must lie in [1, 3]")


def _parallel_link_order(instance: GameInstance, max_links: int) -> list[int]:
    """Link indices aligned with the path order; rejects non-parallel shapes."""
    if len(instance.od_pairs) != 1:
        raise UnsupportedTopology("oracle requires a single O/D pair")
    if instance.n_links > max_links:
        raise UnsupportedTopology(
            f"oracle supports at most {max_links} links, got {instance.n_links}"
        )
    od = instance.od_pairs[0]
    for link in instance.links:
        if link.tail != od.origin or link.head != od.destination:
            raise UnsupportedTopology(
                f"link {link.id!r} is not parallel between the O/D pair"
            )
    return [instance.link_index[p.links[0]] for p in instance.paths.all_paths]


def is_parallel_link(instance: GameInstance, max_links: int = 3) -> bool:
    """True iff the exact oracles support this instance."""
    try:
        _parallel_link_order(instance, max_links)
    except UnsupportedTopology:
        return False
    return True


def _face_minimum(
    P: np.ndarray, q: np.ndarray, groups: Sequence[Sequence[int]], demands: Sequence[float]
) -> tuple[np.ndarray, float]:
    """Global minimum of 1/2 z'Pz + q'z over z >= 0 with sum(z[g]) = d per group.

    The feasible set is a product of simplices. Each face fixes a nonempty
    support per group, and the minimum is a stationary point in the relative
    interior of some face: its KKT system is solved by least squares and
    kept if the residual is small and the point feasible. A face whose
    restricted Hessian is singular needs no special case: the cost is
    constant along the null direction, which reaches a smaller face. Among
    the surviving faces the lowest value wins, the first face on ties.
    Returns the minimiser and its value.
    """
    k = len(groups)
    supports = [
        [s for size in range(1, len(g) + 1) for s in itertools.combinations(g, size)]
        for g in groups
    ]
    d = np.asarray(demands, dtype=float)
    best_z, best_val = None, math.inf
    for face in itertools.product(*supports):
        idx = np.concatenate(face)
        n = idx.size
        K = np.zeros((n + k, n + k))
        K[:n, :n] = P[np.ix_(idx, idx)]
        K[n:, :n] = np.repeat(np.eye(k), [len(s) for s in face], axis=1)  # one sum per group
        K[:n, n:] = K[n:, :n].T
        rhs = np.concatenate([-q[idx], d])
        sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
        # one refinement step: a single solve can miss the demands by ~1e-14,
        # which puts the cost above that of nearby feasible points
        sol += np.linalg.lstsq(K, rhs - K @ sol, rcond=None)[0]
        if np.linalg.norm(K @ sol - rhs) > _KKT_RTOL * np.linalg.norm(rhs):
            continue
        if sol[:n].min() < -_FEASIBLE_ATOL:
            continue
        z = np.zeros(q.size)
        z[idx] = np.maximum(sol[:n], 0.0)
        val = float(z @ (0.5 * (P @ z) + q))
        if val < best_val:
            best_z, best_val = z, val
    return best_z, best_val


def oracle_optimal(
    instance: GameInstance, config: OracleConfig = OracleConfig()
) -> tuple[ClassFlow, float]:
    """Exact system optimum for a parallel-link instance.

    Minimises the social cost over z = (autonomous, human) link flows; on a
    link it is a fa^2 + h fh^2 + (a + h) fa fh + b (fa + fh), one simplex per
    class. Returns the flow and its social cost.
    """
    order = _parallel_link_order(instance, config.max_links)
    od = instance.od_pairs[0]
    a, h, b = instance.a, instance.h, instance.b
    n = instance.n_links
    P = np.block([[np.diag(2.0 * a), np.diag(a + h)], [np.diag(a + h), np.diag(2.0 * h)]])
    groups = [range(n), range(n, 2 * n)]
    z, _ = _face_minimum(
        P, np.concatenate([b, b]), groups, [od.alpha * od.demand, (1.0 - od.alpha) * od.demand]
    )
    flow = ClassFlow.from_path_flows(instance, z[:n][order], z[n:][order])
    return flow, social_cost_links(instance, flow.link_flows_a, flow.link_flows_h)


def oracle_nash(
    instance: GameInstance, s: np.ndarray, config: OracleConfig = OracleConfig()
) -> tuple[np.ndarray, float]:
    """Exact induced human equilibrium on parallel links, given leader link flows s.

    Minimises the Beckmann potential of the human flow with the leader fixed.
    ``s`` is checked as ``follower_equilibrium`` checks it. Returns the
    per-link human flows and their relative Wardrop gap (``wardrop_gap``).
    """
    order = _parallel_link_order(instance, config.max_links)
    s = check_leader_flows(instance, s)
    od = instance.od_pairs[0]
    demand = (1.0 - od.alpha) * od.demand
    if demand <= 0.0:  # all-autonomous demand: no human flow to place
        return np.zeros(instance.n_links), 0.0
    t, _ = _face_minimum(
        np.diag(instance.h), instance.a * s + instance.b, [range(instance.n_links)], [demand]
    )
    return t, wardrop_gap(instance, s, t[order])


# --- random instance generation ----------------------------------------------------


#: size bounds of random instances, and the draws allowed per seed
MAX_NODES = 6
MAX_LINKS = 10
MAX_OD_PAIRS = 2
RETRY_BUDGET = 50


@dataclass(frozen=True)
class ShapeConfig:
    """Coefficient and demand distributions of seeded random instances.

    An instance is parallel-link (two or three links between two nodes) with
    ``parallel_probability``, else a network of at most ``MAX_NODES`` nodes,
    ``MAX_LINKS`` links and ``MAX_OD_PAIRS`` O/D pairs. Per link, h is uniform
    on ``h_range``, a = mu h with mu uniform on [``mu_min``, 1], and b is zero
    with ``b_zero_probability``, else uniform on ``b_range``. Demands are
    uniform on ``demand_range``, and every pair has autonomy fraction ``alpha``.
    """

    mu_min: float = 0.3
    alpha: float = 0.5
    parallel_probability: float = 0.25
    demand_range: tuple[float, float] = (0.5, 2.0)
    h_range: tuple[float, float] = (0.5, 2.0)
    b_range: tuple[float, float] = (0.0, 1.5)
    b_zero_probability: float = 0.25

    def __post_init__(self):
        if not 0.0 < self.mu_min <= 1.0:
            raise ValueError(f"mu_min = {self.mu_min} must lie in (0, 1]")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha = {self.alpha} must lie in [0, 1]")


def _draw_link(rng: np.random.Generator, lid: str, tail: str, head: str, shape: ShapeConfig) -> Link:
    h = rng.uniform(*shape.h_range)
    mu = rng.uniform(shape.mu_min, 1.0)
    if rng.random() < shape.b_zero_probability:
        b = 0.0
    else:
        b = rng.uniform(*shape.b_range)
    return Link(id=lid, tail=tail, head=head, a=mu * h, h=h, b=b)


def _generate_once(rng: np.random.Generator, shape: ShapeConfig) -> GameInstance:
    if rng.random() < shape.parallel_probability:
        nodes = ("n1", "n2")
        n_links = int(rng.integers(2, 4))  # within reach of the exact oracles
        links = [
            _draw_link(rng, f"e{i + 1}", "n1", "n2", shape) for i in range(n_links)
        ]
        od_pairs = [
            ODPair("n1", "n2", demand=float(rng.uniform(*shape.demand_range)), alpha=shape.alpha)
        ]
        return build_instance(nodes, links, od_pairs)

    n_nodes = int(rng.integers(3, MAX_NODES + 1))
    nodes = tuple(f"n{i + 1}" for i in range(n_nodes))
    n_od = int(rng.integers(1, MAX_OD_PAIRS + 1))
    od_ends: list[tuple[str, str]] = []
    while len(od_ends) < n_od:
        o, d = rng.choice(n_nodes, size=2, replace=False)
        pair = (nodes[int(o)], nodes[int(d)])
        if pair not in od_ends:
            od_ends.append(pair)

    link_specs: dict[tuple[str, str], None] = {}
    for origin, destination in od_ends:
        others = [n for n in nodes if n not in (origin, destination)]
        k_max = min(len(others), 2)
        k = int(rng.integers(0, k_max + 1))
        via = list(rng.permutation(others)[:k]) if k else []
        chain = [origin, *via, destination]
        for tail, head in zip(chain, chain[1:]):
            link_specs.setdefault((tail, head), None)

    target = int(rng.integers(len(link_specs), MAX_LINKS + 1))
    attempts = 0
    while len(link_specs) < target and attempts < 20 * MAX_LINKS:
        attempts += 1
        u, v = rng.choice(n_nodes, size=2, replace=False)
        link_specs.setdefault((nodes[int(u)], nodes[int(v)]), None)

    links = [
        _draw_link(rng, f"e{i + 1}", tail, head, shape)
        for i, (tail, head) in enumerate(link_specs)
    ]
    od_pairs = [
        ODPair(o, d, demand=float(rng.uniform(*shape.demand_range)), alpha=shape.alpha)
        for o, d in od_ends
    ]
    return build_instance(nodes, links, od_pairs)


def random_instance(seed: int, shape: ShapeConfig = ShapeConfig()) -> GameInstance:
    """Seeded random instance within the size bounds; reproducible."""
    rng = np.random.default_rng(seed)
    last_error: Exception | None = None
    for _ in range(RETRY_BUDGET):
        try:
            return _generate_once(rng, shape)
        except ValidationError as exc:  # unreachable O/D, path explosion, ...
            last_error = exc
    raise GenerationFailed(
        f"seed {seed}: no valid instance within {RETRY_BUDGET} attempts "
        f"(last error: {last_error})"
    )


# --- batch verification ----------------------------------------------------------------


@dataclass(frozen=True)
class BatchConfig:
    """Seeds and ranges for a bound-verification batch."""

    count: int = 200
    base_seed: int = 0
    shape: ShapeConfig = ShapeConfig()
    solver: SolverConfig = SolverConfig()
    oracle: OracleConfig = OracleConfig()
    jobs: int = 1

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count = {self.count} must be >= 1")
        if self.jobs < 1:
            raise ValueError(f"jobs = {self.jobs} must be >= 1")


@dataclass(frozen=True)
class VerificationRow:
    """One instance's outcome versus the closed-form bound."""

    seed: int
    alpha: float
    mu: float
    poa_emp: float
    poa_bound: float
    region: str
    margin: float
    certified: bool
    status: str
    wardrop_gap: float = float("nan")
    message: str = ""


@dataclass(frozen=True)
class VerificationReport:
    """Per-seed rows plus batch summary counters."""

    rows: tuple[VerificationRow, ...]

    def count(self, status: str) -> int:
        return sum(1 for row in self.rows if row.status == status)

    @property
    def failures(self) -> int:
        return self.count("fail")

    @property
    def certified_count(self) -> int:
        return sum(1 for row in self.rows if row.certified)

    def summary(self) -> dict[str, int]:
        out = {status: self.count(status) for status in ("pass", "fail", "vacuous", "uncertified", "error")}
        out["certified"] = self.certified_count
        out["total"] = len(self.rows)
        return out


def certify_outcome(
    instance: GameInstance, outcome: StackelbergOutcome, oracle_config: OracleConfig
) -> StackelbergOutcome:
    """Mark the outcome oracle-certified if the exact optimum agrees.

    Certification requires total link flows within ``ORACLE_FLOW_TOL`` of the
    oracle's (the class split is not unique when a link has equal slopes)
    and a solver cost at most 1e-3 * (1 + |oracle cost|) above the oracle's.
    """
    oracle_flow, oracle_cost = oracle_optimal(instance, oracle_config)
    flows_close = bool(
        np.max(
            np.abs(outcome.optimal_flow.total_link_flows - oracle_flow.total_link_flows)
        )
        <= ORACLE_FLOW_TOL
    )
    cost_ok = outcome.optimal_cost <= oracle_cost + 1e-3 * (1.0 + abs(oracle_cost))
    if flows_close and cost_ok:
        return outcome.certified()
    return outcome


def _verify_one(
    seed: int, shape: ShapeConfig, solver: SolverConfig, oracle_config: OracleConfig
) -> VerificationRow:
    try:
        instance = random_instance(seed, shape)
        alpha = network_autonomy_fraction(instance)
        mu = min_asymmetry(instance)
        bres = poa_bound(alpha, mu)
    except Exception as exc:  # recorded, not fatal
        return VerificationRow(
            seed=seed, alpha=float("nan"), mu=float("nan"), poa_emp=float("nan"),
            poa_bound=float("nan"), region="", margin=float("nan"), certified=False,
            status="error", message=str(exc),
        )
    try:
        outcome = play(instance, solver)
    except NotConverged as exc:
        return VerificationRow(
            seed=seed, alpha=alpha, mu=mu, poa_emp=float("nan"), poa_bound=bres.bound,
            region=str(bres.region), margin=float("nan"), certified=False,
            status="uncertified", message=str(exc),
        )
    if is_parallel_link(instance, oracle_config.max_links):
        outcome = certify_outcome(instance, outcome, oracle_config)

    emp = outcome.empirical_poa
    if not math.isfinite(bres.bound):
        status = "vacuous"
        margin = float("inf")
    else:
        upper_ok = emp <= bres.bound + POA_SLACK
        lower_ok = (emp >= 1.0 - POA_SLACK) if outcome.optimum_certified else True
        status = "pass" if (upper_ok and lower_ok) else "fail"
        margin = bres.bound - emp
    return VerificationRow(
        seed=seed, alpha=alpha, mu=mu, poa_emp=emp, poa_bound=bres.bound,
        region=str(bres.region), margin=margin, certified=outcome.optimum_certified,
        status=status, wardrop_gap=outcome.wardrop_gap,
    )


def verify_bounds(config: BatchConfig = BatchConfig()) -> VerificationReport:
    """Play every seeded instance and compare against the closed-form bound.

    Vacuous (infinite-bound) instances and unconverged solves are reported
    but never counted as failures. Rows are ordered by seed regardless of
    scheduling.
    """
    seeds = [config.base_seed + i for i in range(config.count)]
    if config.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=config.jobs) as pool:
            rows = list(
                pool.map(
                    _verify_one,
                    seeds,
                    [config.shape] * len(seeds),
                    [config.solver] * len(seeds),
                    [config.oracle] * len(seeds),
                )
            )
    else:
        rows = [_verify_one(seed, config.shape, config.solver, config.oracle) for seed in seeds]
    rows.sort(key=lambda row: row.seed)
    return VerificationReport(rows=tuple(rows))


REPORT_HEADER = "seed,alpha,mu,poa_emp,poa_bound,region,margin,certified,status"


def report_to_csv(report: VerificationReport) -> str:
    lines = [REPORT_HEADER]
    for row in report.rows:
        lines.append(
            ",".join(
                (
                    str(row.seed),
                    format_float(row.alpha),
                    format_float(row.mu),
                    format_float(row.poa_emp),
                    format_float(row.poa_bound),
                    row.region,
                    format_float(row.margin),
                    "true" if row.certified else "false",
                    row.status,
                )
            )
        )
    return "\n".join(lines) + "\n"


# --- curve tables -----------------------------------------------------------------------


@dataclass(frozen=True)
class CurveTable:
    """Labeled (x, y) series, serializable as series,x,y CSV."""

    kind: str
    rows: tuple[tuple[str, float, float], ...]

    def series(self, label: str) -> list[tuple[float, float]]:
        return [(x, y) for s, x, y in self.rows if s == label]

    def labels(self) -> list[str]:
        seen: dict[str, None] = {}
        for s, _, _ in self.rows:
            seen.setdefault(s, None)
        return list(seen)

    def to_csv(self) -> str:
        lines = ["series,x,y"]
        for s, x, y in self.rows:
            lines.append(f"{s},{format_float(x)},{format_float(y)}")
        return "\n".join(lines) + "\n"


def region_alpha_intervals(mu: float) -> dict[Region, tuple[float, float] | None]:
    """Alpha interval occupied by each region at a given mu (None if empty)."""
    t = alpha_thresholds(mu)
    intervals: dict[Region, tuple[float, float] | None] = {}
    intervals[Region.A0] = (0.0, min(t.alpha0, 1.0)) if t.alpha0 >= 0.0 else None
    a1_lo = max(t.alpha0, 0.0)
    intervals[Region.A1] = (a1_lo, t.alpha1) if t.alpha1 > a1_lo else None
    star_lo = max(t.alpha1, 0.0)
    intervals[Region.A_LAMBDA_STAR] = (star_lo, t.alpha2) if t.alpha2 > star_lo else None
    intervals[Region.A_LAMBDA_PLUS] = (max(t.alpha2, 0.0), 1.0)
    return intervals


_DEFAULT_ALPHA_GRID = np.round(np.arange(0.01, 0.995, 0.01), 10)


def curve_tables(
    kind: str,
    *,
    alpha: float = 0.5,
    mu: float = 0.5,
    lam: float = 0.75,
    mus: Sequence[float] | None = None,
    grid: Sequence[float] | None = None,
) -> CurveTable:
    """Build the labeled series behind the characteristic plots.

    kind selects the table; ``grid`` is the x-grid and means gamma, lambda,
    mu or alpha respectively for omega-vs-gamma, omega-vs-lambda,
    constraint-sets and poa-bounds. ``alpha``, ``mu`` and ``lam`` are
    checked against the domains of ``bounds`` wherever the table reads them.
    """
    rows: list[tuple[str, float, float]] = []
    if kind == "omega-vs-gamma":
        _check_alpha_mu(alpha, mu)
        _check_lambda(lam)
        gamma_plus = 1.0 / (alpha * (1.0 - mu) + mu)
        xs = np.linspace(0.0, 1.0 / alpha, 401) if grid is None else np.asarray(grid, dtype=float)
        for g in xs:
            if 0.0 < g < gamma_plus:
                rows.append(
                    ("omega1", float(g),
                     float(g * (1.0 - mu * lam / (1.0 / g - alpha * (1.0 - mu)))))
                )
            if 0.0 <= g <= 1.0 / alpha:
                rows.append(("omega2", float(g), float(g * (1.0 - lam))))
    elif kind == "omega-vs-lambda":
        xs = np.linspace(0.0, 1.0, 501) if grid is None else np.asarray(grid, dtype=float)
        for x in xs:
            rows.append(("omega1", float(x), omega1_sup(float(x), alpha, mu)))
            rows.append(("omega2", float(x), omega2(float(x), alpha, mu)))
    elif kind == "constraint-sets":
        xs = np.linspace(0.001, 1.0, 1000) if grid is None else np.asarray(grid, dtype=float)
        for m in xs:
            for region, interval in region_alpha_intervals(float(m)).items():
                if interval is None:
                    continue
                lo, hi = interval
                rows.append((str(region), float(m), float(lo)))
                rows.append((str(region), float(m), float(hi)))
    elif kind == "poa-bounds":
        mu_list = [0.5, 0.7, 1.0] if mus is None else list(mus)
        xs = _DEFAULT_ALPHA_GRID if grid is None else np.asarray(grid, dtype=float)
        for m in mu_list:
            label = f"mu={format_float(m)}"
            for x in xs:
                if not 0.0 < x < 1.0:
                    continue
                rows.append((label, float(x), poa_bound(float(x), float(m)).bound))
            t = alpha_thresholds(float(m))
            if t.alpha0 >= 0.0:
                rows.append((f"alpha0[{label}]", t.alpha0, float("inf")))
    else:
        raise BadKind(f"unknown curve kind {kind!r}")
    return CurveTable(kind=kind, rows=tuple(rows))
