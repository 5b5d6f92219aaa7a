"""Exact oracle, random instances, batch verification, figure data and CSV.

The oracle scope is one O/D pair of at most three parallel links
(``is_parallel_link``). Within it the social cost has at most 39 faces, well
within the face budget of ``system_optimal``, so its optimum there is the
exact face solve. ``oracle_nash`` solves the follower's Beckmann potential,
as ``solvers._Quadratic`` states it, exactly by ``_Quadratic.point``, at
any face count: the demands on one link, else the face enumeration of
``solvers._face_minimum``; the solve that ``follower_equilibrium`` runs
within its face budget, bit for bit.

Batch verification plays the SCALE game on seeded random instances and
compares the empirical price of anarchy against the closed-form bound;
parallel-link instances are additionally certified against the exact
optimum (``certify_outcome``), which is the one ``play`` has already solved
unless the outcome's optimum is not exact. Curve tables reproduce the
characteristic plots (certificate functions, region boundaries, bound
curves) as labeled CSV series.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import ClassVar, Iterable, Sequence

import numpy as np

from .bounds import (
    Region, _check_alpha_mu, _check_lambda, alpha_thresholds, omega1_sup, omega2, poa_bound,
)
from .errors import DomainError, NotConverged
from .game import StackelbergOutcome, play
from .model import (
    GameInstance,
    Link,
    ODPair,
    build_instance,
    check_leader_flows,
    min_asymmetry,
    network_autonomy_fraction,
    social_cost,
)
from .solvers import SolverConfig, _Quadratic, _check_count, _point_gap, system_optimal

#: comparison slacks used by the verification harness
POA_SLACK = 1e-6
ORACLE_FLOW_TOL = 1e-3


def format_float(x: float) -> str:
    """Deterministic 12-significant-digit rendering: nan, inf and -inf print as such."""
    return f"{x:.12g}"


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def format_csv(header: str, rows: Iterable[Iterable]) -> str:
    """CSV text with LF line endings under a comma-separated ``header``: floats
    through ``format_float``, booleans as true/false, the rest through ``str``."""
    lines = [header, *(",".join(map(_csv_cell, row)) for row in rows)]
    return "\n".join(lines) + "\n"


# --- oracles -----------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleConfig:
    """Scope of the exact oracles.

    ``max_links`` in [1, 3] is the largest number of parallel links an
    instance may have to be certified; it keeps the face counts small: at
    three links, 39 for the social cost (``solvers._Quadratic.faces``) and
    7 for the follower's potential.
    """

    max_links: int = 3

    def __post_init__(self):
        if not 1 <= self.max_links <= 3:
            raise ValueError(f"max_links = {self.max_links} must lie in [1, 3]")


def is_parallel_link(instance: GameInstance, max_links: int = 3) -> bool:
    """True iff the path-flow oracles support the instance (their scope): one O/D
    pair and at most ``max_links`` links, each from its origin to its destination."""
    od = instance.od_pairs[0]
    parallel = all(l.tail == od.origin and l.head == od.destination for l in instance.links)
    return len(instance.od_pairs) == 1 and instance.n_links <= max_links and parallel


def _check_scope(instance: GameInstance, config: OracleConfig) -> None:
    if not is_parallel_link(instance, config.max_links):
        raise DomainError(f"oracle scope: one O/D pair, at most {config.max_links} parallel links")


def oracle_nash(
    instance: GameInstance, s: np.ndarray, config: OracleConfig = OracleConfig()
) -> tuple[np.ndarray, float]:
    """Exact induced human equilibrium given leader link flows s.

    The exact minimiser (``_Quadratic.point``) of the human path flows t
    under ``_Quadratic.potential`` at s, the Beckmann potential with the
    leader fixed: the human demand on one link, else its ``_face_minimum``.
    ``s`` is checked as ``follower_equilibrium`` checks it. Raises
    DomainError outside the oracle scope (``is_parallel_link``). Returns the
    human link flows A t and their relative Wardrop gap, priced as
    ``follower_equilibrium`` prices its ``relative_gap``, bit for bit.
    """
    _check_scope(instance, config)
    s = check_leader_flows(instance, s)
    potential = _Quadratic.potential(instance, s)
    t, _ = potential.point()
    t_link = instance.incidence @ t
    return t_link, _point_gap(potential, [t_link[None]])


# --- random instance generation ----------------------------------------------------


#: size bounds of random instances
MAX_NODES = 6
MAX_LINKS = 10
MAX_OD_PAIRS = 2


@dataclass(frozen=True)
class ShapeConfig:
    """Coefficient and demand distributions of seeded random instances.

    An instance is parallel-link (two or three links between two nodes) with
    ``parallel_probability``, else a network of at most ``MAX_NODES`` nodes,
    ``MAX_LINKS`` links and ``MAX_OD_PAIRS`` O/D pairs. Per link, h is uniform
    on ``h_range``, a = mu h with mu uniform on [``mu_min``, 1], and b is zero
    with ``b_zero_probability``, else uniform on ``b_range``. Demands are
    uniform on ``demand_range``, and every pair has autonomy fraction ``alpha``
    in (0, 1), the domain of the SCALE leader and its bound. Only ``mu_min``,
    ``alpha`` and ``parallel_probability`` are settable; the four
    distributions are class constants.
    """

    mu_min: float = 0.3
    alpha: float = 0.5
    parallel_probability: float = 0.25
    demand_range: ClassVar[tuple[float, float]] = (0.5, 2.0)
    h_range: ClassVar[tuple[float, float]] = (0.5, 2.0)
    b_range: ClassVar[tuple[float, float]] = (0.0, 1.5)
    b_zero_probability: ClassVar[float] = 0.25

    def __post_init__(self):
        if not 0.0 < self.mu_min <= 1.0:
            raise ValueError(f"mu_min = {self.mu_min} must lie in (0, 1]")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha = {self.alpha} must lie in (0, 1)")
        if not 0.0 <= self.parallel_probability <= 1.0:
            raise ValueError(f"parallel_probability = {self.parallel_probability} must lie in [0, 1]")


def _draw_link(rng: np.random.Generator, lid: str, tail: str, head: str, shape: ShapeConfig) -> Link:
    h = rng.uniform(*shape.h_range)
    mu = rng.uniform(shape.mu_min, 1.0)
    if rng.random() < shape.b_zero_probability:
        b = 0.0
    else:
        b = rng.uniform(*shape.b_range)
    return Link(id=lid, tail=tail, head=head, a=mu * h, h=h, b=b)


def _draw_pair(rng: np.random.Generator, n: int) -> tuple[int, int]:
    """Two distinct indices below n: the pair ``rng.choice(n, 2, replace=False)``
    draws, by its own three bounded draws (Floyd's two, then the shuffle's
    one), so ``rng`` ends where that call leaves it."""
    first = int(rng.integers(0, n - 1))
    second = int(rng.integers(0, n))
    if second == first:
        second = n - 1
    return (first, second) if rng.integers(0, 2) else (second, first)


def _skip_pairs(rng: np.random.Generator, n: int, count: int) -> None:
    """Move ``rng`` past ``count`` calls of ``_draw_pair(rng, n)`` in one draw."""
    rng.integers(0, np.tile([n - 1, n, 2], count))


def random_instance(seed: int, shape: ShapeConfig = ShapeConfig()) -> GameInstance:
    """Seeded random instance within the size bounds; reproducible.

    One draw is always a valid instance: each link has 0 < a = mu h <= h
    and b >= 0, every O/D pair is joined by the chain of links origin ->
    via -> destination drawn for it, and at most ``MAX_NODES`` nodes allow
    at most 65 simple paths per pair. Node ids are plain ``str``.

    Each distinct node pair (an O/D pair, a drawn link) is ``_draw_pair``,
    the draws of ``rng.choice(n, 2, replace=False)``. Extra links are drawn
    until the link target or ``20 * MAX_LINKS`` attempts; once all
    ``n (n - 1)`` links are in, ``_skip_pairs`` takes the remaining
    attempts' draws at once and leaves the generator where they would. Every
    instance is bit for bit the one that drawing each attempt gives.
    """
    rng = np.random.default_rng(seed)
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
        o, d = _draw_pair(rng, n_nodes)
        pair = (nodes[o], nodes[d])
        if pair not in od_ends:
            od_ends.append(pair)

    link_specs: dict[tuple[str, str], None] = {}
    for origin, destination in od_ends:
        others = [n for n in nodes if n not in (origin, destination)]
        k_max = min(len(others), 2)
        k = int(rng.integers(0, k_max + 1))
        via = [str(n) for n in rng.permutation(others)[:k]] if k else []
        chain = [origin, *via, destination]
        for tail, head in zip(chain, chain[1:]):
            link_specs.setdefault((tail, head), None)

    target = int(rng.integers(len(link_specs), MAX_LINKS + 1))
    attempts = 20 * MAX_LINKS
    while len(link_specs) < min(target, n_nodes * (n_nodes - 1)) and attempts:
        attempts -= 1
        u, v = _draw_pair(rng, n_nodes)
        link_specs.setdefault((nodes[u], nodes[v]), None)
    if len(link_specs) < target and attempts:  # a full network: no attempt adds a link
        _skip_pairs(rng, n_nodes, attempts)

    links = [
        _draw_link(rng, f"e{i + 1}", tail, head, shape)
        for i, (tail, head) in enumerate(link_specs)
    ]
    od_pairs = [
        ODPair(o, d, demand=float(rng.uniform(*shape.demand_range)), alpha=shape.alpha)
        for o, d in od_ends
    ]
    return build_instance(nodes, links, od_pairs)


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
        _check_count("count", self.count, 1)
        _check_count("jobs", self.jobs, 1)
        _check_count("base_seed", self.base_seed, 0)


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
    """Per-seed rows plus batch summary counters.

    Every row comes from a played instance. Its status is pass, fail,
    vacuous (infinite bound) or uncertified (a solve that did not converge;
    the row's ``message`` says which).
    """

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
        out = {status: self.count(status) for status in ("pass", "fail", "vacuous", "uncertified")}
        out["certified"] = self.certified_count
        out["total"] = len(self.rows)
        return out


def certify_outcome(
    instance: GameInstance, outcome: StackelbergOutcome, oracle_config: OracleConfig = OracleConfig()
) -> StackelbergOutcome:
    """Mark the outcome oracle-certified if the exact optimum agrees.

    The exact optimum is the outcome's ``optimal_result`` where that is
    ``exact``, else ``system_optimal``, exact throughout the oracle scope.
    Certification requires total link flows within ``ORACLE_FLOW_TOL`` of the
    exact optimum's (the class split is not unique when a link has equal
    slopes) and a solver cost at most 1e-3 * (1 + |exact cost|) above its
    cost, so an outcome whose flow or cost was changed after the solve is not
    certified. Raises DomainError outside the oracle scope
    (``is_parallel_link``) or when the outcome was played on another instance.
    """
    if outcome.instance is not instance:
        raise DomainError("the outcome was played on another instance")
    _check_scope(instance, oracle_config)
    result = outcome.optimal_result
    exact_flow = (result if result.exact else system_optimal(instance)).flow
    exact_cost = social_cost(instance, exact_flow)
    flows_close = bool(
        np.max(
            np.abs(outcome.optimal_flow.total_link_flows - exact_flow.total_link_flows)
        )
        <= ORACLE_FLOW_TOL
    )
    cost_ok = outcome.optimal_cost <= exact_cost + 1e-3 * (1.0 + abs(exact_cost))
    if flows_close and cost_ok:
        return outcome.certified()
    return outcome


def _verify_one(
    seed: int, shape: ShapeConfig, solver: SolverConfig, oracle_config: OracleConfig
) -> VerificationRow:
    instance = random_instance(seed, shape)
    alpha = network_autonomy_fraction(instance)
    mu = min_asymmetry(instance)
    bres = poa_bound(alpha, mu)
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
    args = (
        range(config.base_seed, config.base_seed + config.count),
        itertools.repeat(config.shape),
        itertools.repeat(config.solver),
        itertools.repeat(config.oracle),
    )
    if config.jobs == 1:
        return VerificationReport(rows=tuple(map(_verify_one, *args)))
    import concurrent.futures  # here, not at the top: it costs every import of the package

    # no more workers than seeds, nor than the CPUs this process may run on
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(config.jobs, config.count, cpus)
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        chunksize = -(-config.count // (4 * workers))
        return VerificationReport(rows=tuple(pool.map(_verify_one, *args, chunksize=chunksize)))


#: the verify CSV columns, each a VerificationRow field
REPORT_HEADER = "seed,alpha,mu,poa_emp,poa_bound,region,margin,certified,status"


def report_to_csv(report: VerificationReport) -> str:
    fields = REPORT_HEADER.split(",")
    return format_csv(REPORT_HEADER, ([getattr(row, f) for f in fields] for row in report.rows))


# --- curve tables -----------------------------------------------------------------------


@dataclass(frozen=True)
class CurveTable:
    """Labeled (x, y) series, serializable as series,x,y CSV."""

    rows: tuple[tuple[str, float, float], ...]

    def series(self, label: str) -> list[tuple[float, float]]:
        return [(x, y) for s, x, y in self.rows if s == label]

    def labels(self) -> list[str]:
        seen: dict[str, None] = {}
        for s, _, _ in self.rows:
            seen.setdefault(s, None)
        return list(seen)

    def to_csv(self) -> str:
        return format_csv("series,x,y", self.rows)


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
        raise DomainError(f"unknown curve kind {kind!r}")
    return CurveTable(rows=tuple(rows))
