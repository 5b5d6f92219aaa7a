"""Brute-force oracles, random instances, batch verification and figure data.

The oracles certify solver output on parallel-link single-O/D instances
with at most three links, where exhaustive search over per-link totals is
tractable: the class split inside a fixed total is a linear program over a
box-constrained simplex, so the grid only ranges over totals (one free
dimension for two links, two for three). The grid prices the split by LP
duality, without sorting, and a greedy fill gives the split's flows at the
returned point.
A few local refinement rounds shrink the grid error well below the
certification tolerances.

Batch verification plays the SCALE game on seeded random instances and
compares the empirical price of anarchy against the closed-form bound;
parallel-link instances are additionally oracle-certified. Curve tables
reproduce the characteristic plots (certificate functions, region
boundaries, bound curves) as labeled CSV series.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import Region, alpha_thresholds, omega1_sup, omega2, poa_bound
from .errors import BadKind, GenerationFailed, NotConverged, UnsupportedTopology, ValidationError
from .game import StackelbergOutcome, play
from .model import (
    ClassFlow,
    GameInstance,
    Link,
    ODPair,
    build_instance,
    min_asymmetry,
    network_autonomy_fraction,
    social_cost_links,
)
from .solvers import _COST_FLOOR, SolverConfig

_GRID_CHUNK = 200_000

#: comparison slacks used by the verification harness
POA_SLACK = 1e-6
ORACLE_FLOW_TOL = 1e-3


def format_float(x: float) -> str:
    """Deterministic 12-significant-digit rendering; infinities print as inf."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.12g}"


# --- oracle configuration -------------------------------------------------------


@dataclass(frozen=True)
class OracleConfig:
    """Grid parameters for the exhaustive parallel-link oracles.

    ``resolution_1d`` is the flow step for two-link instances (one free
    total), ``resolution_2d`` for three-link instances. Each refinement
    round re-grids a one-cell window around the incumbent at a tenth of the
    step. ``max_links`` lies in [1, 3].
    """

    resolution_1d: float = 1e-4
    resolution_2d: float = 1e-3
    refine_rounds: int = 2
    max_links: int = 3

    def __post_init__(self):
        if self.resolution_1d <= 0 or self.resolution_2d <= 0:
            raise ValueError("grid resolutions must be positive")
        if self.refine_rounds < 0:
            raise ValueError("refine_rounds must be >= 0")
        if not 1 <= self.max_links <= 3:  # the grids cover one to three links
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
    """True iff the exhaustive oracles support this instance."""
    try:
        _parallel_link_order(instance, max_links)
    except UnsupportedTopology:
        return False
    return True


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    if hi <= lo:
        return np.array([lo])
    n = max(1, int(round((hi - lo) / step))) + 1
    return np.linspace(lo, hi, n)


def _total_grids(r: float, n: int, step: float, center=None, width=None):
    """Yield chunks of candidate per-link totals on {x >= 0, sum x = r}."""
    if n == 1:
        yield np.array([[r]])
        return
    if center is None:
        lo = np.zeros(n)
        hi = np.full(n, r)
    else:
        lo = np.maximum(np.asarray(center) - width, 0.0)
        hi = np.minimum(np.asarray(center) + width, r)
    if n == 2:
        x1 = _axis(lo[0], hi[0], step)
        for start in range(0, x1.size, _GRID_CHUNK):
            seg = x1[start : start + _GRID_CHUNK]
            yield np.stack([seg, r - seg])
    elif n == 3:
        x1 = _axis(lo[0], hi[0], step)
        x2 = _axis(lo[1], hi[1], step)
        rows_per_chunk = max(1, _GRID_CHUNK // max(x2.size, 1))
        for start in range(0, x1.size, rows_per_chunk):
            seg = x1[start : start + rows_per_chunk]
            g1, g2 = np.meshgrid(seg, x2, indexing="ij")
            g1 = g1.ravel()
            g2 = g2.ravel()
            g3 = r - g1 - g2
            mask = g3 >= -1e-12
            if not mask.any():
                continue
            yield np.stack([g1[mask], g2[mask], np.maximum(g3[mask], 0.0)])
    else:  # pragma: no cover - shapes are pre-checked
        raise UnsupportedTopology(f"unsupported dimension {n}")


def _greedy_split(a: np.ndarray, h: np.ndarray, X: np.ndarray, auto_demand: float) -> np.ndarray:
    """Optimal autonomous link flows for fixed totals X (links x points).

    The cost is linear in the autonomous flows once totals are fixed, with
    coefficients (a - h) * x <= 0, so filling the most negative coefficients
    first is optimal. The grid prices this split by LP duality
    (``_split_cost``); the fill gives its flows at the returned point.
    """
    c = (a - h)[:, None] * X
    order = np.argsort(c, axis=0, kind="stable")
    x_sorted = np.take_along_axis(X, order, 0)
    fa_sorted = np.empty_like(x_sorted)
    rem = np.full(X.shape[1], float(auto_demand))
    for i in range(X.shape[0]):
        take = np.minimum(x_sorted[i], rem)
        fa_sorted[i] = take
        rem -= take
    fa = np.empty_like(fa_sorted)
    np.put_along_axis(fa, order, fa_sorted, 0)
    return fa


def _split_cost(a: np.ndarray, h: np.ndarray, X: np.ndarray, auto_demand: float) -> np.ndarray:
    """Cost of the optimal class split for fixed totals X (links x points).

    With c = (a - h) * x, the split is the LP min c.f over 0 <= f <= x,
    sum f = d. Its dual value max over lam of lam * d + sum_i x_i min(c_i - lam, 0)
    is concave and piecewise linear in lam, so the maximum lies at a breakpoint
    lam = c_j: n candidates, no sort. Equal to the greedy fill's cost up to
    rounding.
    """
    c = (a - h)[:, None] * X
    vals = c * auto_demand  # row j: the dual value at lam = c_j
    for i in range(len(c)):
        for j in range(i + 1, len(c)):
            # x_i min(c_i - c_j, 0) counts at lam = c_j, x_j min(c_j - c_i, 0) at c_i
            diff = c[i] - c[j]
            vals[j] += X[i] * np.minimum(diff, 0.0)
            vals[i] -= X[j] * np.maximum(diff, 0.0)
    return vals.max(axis=0)


def _oracle_minimize(r, n, step, refine_rounds, evaluate):
    """Exhaustive grid argmin with local refinement; evaluate(X) -> values."""
    best_val = np.inf
    best_x = None
    for X in _total_grids(r, n, step):
        vals = evaluate(X)
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val = float(vals[j])
            best_x = X[:, j].copy()
    for _ in range(refine_rounds):
        # window of two old cells per coordinate: covers the diagonal
        # neighborhood where the true minimizer of a smooth objective can
        # hide relative to the incumbent grid point
        width, step = 2.0 * step, step / 10.0
        for X in _total_grids(r, n, step, center=best_x, width=width):
            vals = evaluate(X)
            j = int(np.argmin(vals))
            if vals[j] < best_val:
                best_val = float(vals[j])
                best_x = X[:, j].copy()
    return best_x, best_val


def oracle_optimal(
    instance: GameInstance, config: OracleConfig = OracleConfig()
) -> tuple[ClassFlow, float]:
    """Exhaustive-search system optimum for a parallel-link instance."""
    order = _parallel_link_order(instance, config.max_links)
    od = instance.od_pairs[0]
    r = od.demand
    auto_demand = od.alpha * r
    a, h, b = instance.a, instance.h, instance.b
    n = instance.n_links
    step = config.resolution_1d if n <= 2 else config.resolution_2d

    def evaluate(X):
        base = (X * (h[:, None] * X + b[:, None])).sum(axis=0)
        return base + _split_cost(a, h, X, auto_demand)

    best_x, _ = _oracle_minimize(r, n, step, config.refine_rounds, evaluate)
    fa_links = _greedy_split(a, h, best_x[:, None], auto_demand)[:, 0]
    fh_links = np.maximum(best_x - fa_links, 0.0)

    fa_paths = np.zeros(instance.n_paths)
    fh_paths = np.zeros(instance.n_paths)
    for j, link_idx in enumerate(order):
        fa_paths[j] = fa_links[link_idx]
        fh_paths[j] = fh_links[link_idx]
    flow = ClassFlow.from_path_flows(instance, fa_paths, fh_paths)
    return flow, social_cost_links(instance, flow.link_flows_a, flow.link_flows_h)


def oracle_nash(
    instance: GameInstance, s: np.ndarray, config: OracleConfig = OracleConfig()
) -> tuple[np.ndarray, float]:
    """Grid search for the induced human equilibrium on parallel links.

    Returns per-link human flows minimizing the relative Wardrop gap, and
    the gap achieved at that point.
    """
    _parallel_link_order(instance, config.max_links)
    od = instance.od_pairs[0]
    demand = (1.0 - od.alpha) * od.demand
    s = np.asarray(s, dtype=float)
    if demand <= 0.0:
        return np.zeros(instance.n_links), 0.0
    a, h, b = instance.a, instance.h, instance.b
    fixed = a * s + b
    n = instance.n_links
    step = config.resolution_1d if n <= 2 else config.resolution_2d

    def evaluate(T):
        lat = fixed[:, None] + h[:, None] * T
        total = (lat * T).sum(axis=0)
        best = demand * lat.min(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            gap = np.where(total <= _COST_FLOOR, 0.0, (total - best) / total)
        return np.maximum(gap, 0.0)

    best_t, best_gap = _oracle_minimize(demand, n, step, config.refine_rounds, evaluate)
    return best_t, float(best_gap)


# --- random instance generation ----------------------------------------------------


@dataclass(frozen=True)
class ShapeConfig:
    """Bounds and coefficient ranges for seeded random instances."""

    max_nodes: int = 6
    max_links: int = 10
    max_od_pairs: int = 2
    mu_min: float = 0.3
    alpha: float = 0.5
    parallel_probability: float = 0.25
    demand_range: tuple[float, float] = (0.5, 2.0)
    h_range: tuple[float, float] = (0.5, 2.0)
    b_range: tuple[float, float] = (0.0, 1.5)
    b_zero_probability: float = 0.25
    retry_budget: int = 50

    def __post_init__(self):
        if not 0.0 < self.mu_min <= 1.0:
            raise ValueError(f"mu_min = {self.mu_min} must lie in (0, 1]")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha = {self.alpha} must lie in [0, 1]")
        if self.max_nodes < 2 or self.max_links < 1 or self.max_od_pairs < 1:
            raise ValueError("shape bounds must allow at least a single-link network")


def _draw_link(rng: np.random.Generator, lid: str, tail: str, head: str, shape: ShapeConfig) -> Link:
    h = rng.uniform(*shape.h_range)
    mu = rng.uniform(shape.mu_min, 1.0)
    if rng.random() < shape.b_zero_probability:
        b = 0.0
    else:
        b = rng.uniform(*shape.b_range)
    return Link(id=lid, tail=tail, head=head, a=mu * h, h=h, b=b)


def _generate_once(rng: np.random.Generator, shape: ShapeConfig) -> GameInstance:
    if shape.max_links >= 2 and rng.random() < shape.parallel_probability:
        nodes = ("n1", "n2")
        n_links = int(rng.integers(2, min(shape.max_links, 3) + 1))
        links = [
            _draw_link(rng, f"e{i + 1}", "n1", "n2", shape) for i in range(n_links)
        ]
        od_pairs = [
            ODPair("n1", "n2", demand=float(rng.uniform(*shape.demand_range)), alpha=shape.alpha)
        ]
        return build_instance(nodes, links, od_pairs)

    n_nodes = int(rng.integers(3, shape.max_nodes + 1))
    nodes = tuple(f"n{i + 1}" for i in range(n_nodes))
    n_od = int(rng.integers(1, shape.max_od_pairs + 1))
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

    target = int(rng.integers(len(link_specs), shape.max_links + 1))
    attempts = 0
    while len(link_specs) < target and attempts < 20 * shape.max_links:
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
    """Seeded random instance within the shape bounds; reproducible."""
    rng = np.random.default_rng(seed)
    last_error: Exception | None = None
    for _ in range(shape.retry_budget):
        try:
            return _generate_once(rng, shape)
        except ValidationError as exc:  # unreachable O/D, path explosion, ...
            last_error = exc
    raise GenerationFailed(
        f"seed {seed}: no valid instance within {shape.retry_budget} attempts "
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
    oracle: OracleConfig = OracleConfig(resolution_2d=5e-3, refine_rounds=3)
    jobs: int = 1


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
    """Mark the outcome oracle-certified if the exhaustive optimum agrees.

    Certification compares total link flows (the class split is not unique
    when a link has equal slopes) and requires the solver cost not to exceed
    the oracle cost beyond the grid tolerance.
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
    constraint-sets and poa-bounds.
    """
    rows: list[tuple[str, float, float]] = []
    if kind == "omega-vs-gamma":
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
