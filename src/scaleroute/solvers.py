"""Flow solvers: shortest paths, induced human equilibrium, system optimum.

Both solvers run one loop (``_descend``): block-coordinate descent over the
enumerated path polytope of each class block, where block k minimizes
``sum_l [ quad_l x_l^2 / 2 + lin_l x_l ]`` with ``lin`` fixed by the other
blocks. A round gives each block in turn one step (``_block_step``) unless its
gap is already within tolerance: an all-or-nothing assignment to current
shortest paths as the search direction, an exact closed-form line search
(every objective here is quadratic along a segment), then a pairwise
vertex-exchange sweep, moving mass from the worst used path of each O/D pair
to its best path, which removes the sublinear tail of plain conditional
gradient and lets tight gap tolerances be reached on small networks. The
loop ends after a round that moves no path flow. In both solvers an
iteration is a round that tried a step, and the trace holds the objective at
the start of each round, so its last entry is the returned point.

The human equilibrium is the loop with one block: it minimizes the convex
potential ``sum_l [ h_l t_l^2 / 2 + (a_l s_l + b_l) t_l ]`` whose gradient is
exactly the link latency under a fixed leader flow, so the
conditional-gradient gap coincides with the Wardrop relative gap. The system
optimum is nonconvex in the joint class flows whenever a_l != h_l, but
strictly convex in each class separately; it runs the loop with the
autonomous and the human block from each multistart point, on shared link
flows.

Every convergence test uses one relative gap. For a block with link
gradient g, link flow x and per-O/D demands, let y be the all-or-nothing
load of the demands on the cheapest paths under g; the gap is
``(g.x - g.y) / g.x``, clamped at 0 from below and defined as 0 when g.x is
at most ``_COST_FLOOR``. A NaN gap fails every tolerance test, so a solver
never reports convergence on NaN input. The Wardrop gap of a human flow is
this gap at the link latencies, and ``system_optimal`` reports the larger of
its two block gaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, DomainError
from .model import ClassFlow, GameInstance, ODPair, Path, check_leader_flows, social_cost_links

_COST_FLOOR = 1e-30
_USED_EPS = 1e-14
_MULTISTARTS = 16  # start draws of the system optimum, before repeats are dropped


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and budgets shared by the flow solvers."""

    relative_gap_tol: float = 1e-8
    max_iterations: int = 50_000
    seed: int = 0

    def __post_init__(self):
        if not self.relative_gap_tol > 0:
            raise ValueError(f"relative_gap_tol must be > 0, got {self.relative_gap_tol}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass(frozen=True, eq=False)
class EquilibriumResult:
    """Solver output: flow, objective value, certificate and iteration trace.

    ``potential_or_cost`` is the final potential (human equilibrium) or the
    social cost (system optimum). ``iterations`` counts the rounds of
    ``_descend`` that tried a step (summed over the starts of the system
    optimum). ``trace`` records the objective at the start of each round of
    the returned run, so its last entry is the returned point; it is
    nonincreasing by construction.
    """

    flow: ClassFlow
    potential_or_cost: float
    relative_gap: float
    iterations: int
    converged: bool
    trace: tuple[float, ...] = ()


def _cheapest(instance: GameInstance, path_costs: np.ndarray) -> list[int]:
    """Global index of the cheapest path of each O/D pair; ties go to the first."""
    slices = instance.paths.od_slices
    return [start + int(path_costs[start:end].argmin()) for start, end in slices]


def _all_or_nothing(
    instance: GameInstance, path_costs: np.ndarray, demands: np.ndarray
) -> tuple[np.ndarray, float]:
    """Each O/D demand loaded on its cheapest path: path flows and their cost.

    The cost is summed pair by pair in O/D order; ``np.dot`` would fuse
    multiply-adds and change its last bits on multi-pair instances.
    """
    y = np.zeros(instance.n_paths)
    cost = 0.0
    for d, j in zip(demands, _cheapest(instance, path_costs)):
        y[j] = d
        cost += d * path_costs[j]
    return y, float(cost)


def _relative_gap(total: float, aon_cost: float) -> float:
    """Relative gap of a load costing ``total`` against its all-or-nothing cost."""
    if total <= _COST_FLOOR:
        return 0.0
    gap = (total - aon_cost) / total
    return 0.0 if gap < 0.0 else gap  # NaN passes through


def _block_gap(
    instance: GameInstance, demands: np.ndarray, grad: np.ndarray, x_link: np.ndarray
) -> tuple[float, np.ndarray]:
    """Relative gap of a block with link gradient ``grad`` at link flow ``x_link``,
    and the all-or-nothing path flows it is measured against."""
    y, aon_cost = _all_or_nothing(instance, instance.incidence.T @ grad, demands)
    return _relative_gap(float(np.dot(grad, x_link)), aon_cost), y


def shortest_paths(
    instance: GameInstance, link_latencies: np.ndarray
) -> dict[ODPair, tuple[Path, float]]:
    """Minimum-latency path per O/D pair at the given vector of link latencies.

    The latencies are indexed like ``instance.links`` and must be finite.
    Ties are broken by path-set order, so results are reproducible.
    """
    lat = np.asarray(link_latencies, dtype=float)
    if lat.shape != (instance.n_links,):
        raise DimensionMismatch(f"expected {instance.n_links} link latencies")
    if not np.isfinite(lat).all():
        raise DomainError(f"link latencies must be finite, got {lat}")
    path_lat = instance.incidence.T @ lat
    return {
        od: (instance.paths.all_paths[j], float(path_lat[j]))
        for od, j in zip(instance.od_pairs, _cheapest(instance, path_lat))
    }


def _block_step(
    instance: GameInstance, demands: np.ndarray, quad: np.ndarray, lin: np.ndarray,
    x: np.ndarray, x_link: np.ndarray, g: np.ndarray, y: np.ndarray,
) -> bool:
    """One descent step of the block sum_l [quad_l x_l^2 / 2 + lin_l x_l], in place on
    path flows ``x`` with link flows ``x_link``, gradient ``g`` and all-or-nothing
    load ``y`` (``_block_gap``): a conditional-gradient step with exact line search,
    then one pairwise-exchange sweep. Neither raises the block objective. Returns
    whether any path flow changed, bit for bit."""
    inc = instance.incidence
    x_entry = x.tobytes()
    d = y - x
    d_link = inc @ d
    denom = float(np.dot(quad, d_link * d_link))
    num = float(np.dot(g, d_link))
    if num < 0.0:  # descent direction
        eta = min(1.0, -num / denom) if denom > 0.0 else 1.0
        x += eta * d
        x_link = inc @ x

    # pairwise exchange sweep: worst used path -> best path, per O/D pair
    g = quad * x_link + lin
    for w, (start, end) in enumerate(instance.paths.od_slices):
        if demands[w] <= 0.0 or end - start < 2:
            continue
        used = (x[start:end] > _USED_EPS * max(demands[w], 1.0)).nonzero()[0]
        if used.size == 0:
            continue
        path_g_w = inc[:, start:end].T @ g
        jw = start + int(used[path_g_w[used].argmax()])
        jb = start + int(path_g_w.argmin())
        if jw == jb:
            continue
        col = inc[:, jb] - inc[:, jw]
        curv = float(np.dot(quad, col * col))
        drop = float(path_g_w[jw - start] - path_g_w[jb - start])
        if curv <= 0.0 or drop <= 0.0:
            continue
        delta = min(drop / curv, float(x[jw]))
        x[jb] += delta
        x[jw] -= delta  # delta <= x[jw], so this stays >= 0
        x_link = x_link + delta * col
        g = quad * x_link + lin
    return x.tobytes() != x_entry


def _descend(
    instance: GameInstance,
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...],
    flows: tuple[np.ndarray, ...],
    lin: Callable[[int, list[np.ndarray]], np.ndarray],
    objective: Callable[[list[np.ndarray]], float],
    tol: float,
    max_iterations: int,
) -> tuple[float, int, tuple[float, ...]]:
    """Block-coordinate descent, in place on the path flows ``flows[k]`` of each
    block ``blocks[k] = (demands, quad)``.

    Block k minimizes sum_l [quad_l x_l^2 / 2 + lin(k, links)_l x_l] over its
    path polytope, where ``links`` holds the link flows of all blocks. In each
    round, each block in turn measures its gap (``_block_gap``) and takes one
    ``_block_step`` unless the gap is within ``tol``, ``max_iterations`` rounds
    have already tried a step, or the gap is NaN at a non-finite gradient. The
    descent ends after a round that changes no path flow, since every later
    round would repeat it; the gaps of that round are therefore measured at
    the returned point.

    Returns the largest block gap (NaN if any is NaN), the number of rounds
    that tried a step, and ``objective(links)`` at the start of each round.
    """
    inc = instance.incidence
    links = [inc @ f for f in flows]
    gaps = [0.0] * len(blocks)
    trace: list[float] = []
    iterations = 0
    while True:
        trace.append(objective(links))
        budget_left = iterations < max_iterations
        tried = moved = False
        for k, (demands, quad) in enumerate(blocks):
            lin_k = lin(k, links)
            g = quad * links[k] + lin_k
            gaps[k], y = _block_gap(instance, demands, g, links[k])
            stuck = gaps[k] != gaps[k] and not np.isfinite(g).all()  # no later gap can be a number
            if gaps[k] <= tol or not budget_left or stuck:
                continue
            tried = True
            if _block_step(instance, demands, quad, lin_k, flows[k], links[k], g, y):
                moved = True
                links[k] = inc @ flows[k]
        iterations += tried
        if not moved:
            return float(np.max(gaps)), iterations, tuple(trace)


def follower_equilibrium(
    instance: GameInstance, s: np.ndarray, config: SolverConfig = SolverConfig()
) -> EquilibriumResult:
    """Wardrop equilibrium of the human class under a fixed leader link flow.

    Minimizes the potential sum_l [h_l t_l^2/2 + (a_l s_l + b_l) t_l] over
    the human feasibility polytope by ``_descend`` with one block, from the
    all-or-nothing load at the latencies of zero human flow.
    Link flows at the optimum are unique (h_l > 0); the path decomposition is
    the solver's. Raises on a leader flow that is not a finite nonnegative
    link vector (``check_leader_flows``), but never on non-convergence: the
    result then carries the last iterate with ``converged=False``.
    """
    s = check_leader_flows(instance, s)
    demands, h = instance.human_demands, instance.h
    lin = instance.a * s + instance.b
    t, _ = _all_or_nothing(instance, instance.incidence.T @ lin, demands)
    gap, iterations, trace = _descend(
        instance, ((demands, h),), (t,), lambda k, links: lin,
        lambda links: float(0.5 * np.dot(h, links[0] * links[0]) + np.dot(lin, links[0])),
        config.relative_gap_tol, config.max_iterations,
    )
    return EquilibriumResult(
        flow=ClassFlow.from_path_flows(instance, np.zeros(instance.n_paths), t),
        potential_or_cost=trace[-1],
        relative_gap=gap,
        iterations=iterations,
        converged=gap <= config.relative_gap_tol,
        trace=trace,
    )


def wardrop_gap(instance: GameInstance, s: np.ndarray, t: np.ndarray) -> float:
    """Relative Wardrop gap of human path flows ``t`` under leader link flows ``s``.

    Zero iff every used path of every O/D pair has minimum latency. Defined
    as 0 when the human demand (hence total cost) vanishes, NaN when a human
    flow is NaN; ``s`` is checked by ``check_leader_flows``.
    """
    s = check_leader_flows(instance, s)
    t = np.asarray(t, dtype=float)
    if t.shape != (instance.n_paths,):
        raise DimensionMismatch(f"human path flows must have shape ({instance.n_paths},)")
    t_link = instance.incidence @ t
    return _block_gap(instance, instance.human_demands, instance.link_latencies(s, t_link), t_link)[0]


def _multistart_points(instance: GameInstance, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Distinct points among ``_MULTISTARTS`` draws, in first-draw order: per-class
    all-or-nothing at free flow, the uniform path split, seeded random vertices."""
    demands = (instance.auto_demands, instance.human_demands)
    slices = instance.paths.od_slices
    free_flow = instance.incidence.T @ instance.b
    sizes = [end - start for start, end in slices]
    draws = [
        tuple(_all_or_nothing(instance, free_flow, d)[0] for d in demands),
        tuple(np.repeat(d / sizes, sizes) for d in demands),
    ]
    rng = np.random.default_rng(seed)
    while len(draws) < _MULTISTARTS:
        fa = np.zeros(instance.n_paths)
        fh = np.zeros(instance.n_paths)
        for w, (start, end) in enumerate(slices):
            fa[start + int(rng.integers(end - start))] = demands[0][w]
            fh[start + int(rng.integers(end - start))] = demands[1][w]
        draws.append((fa, fh))
    return list({(fa.tobytes(), fh.tobytes()): (fa, fh) for fa, fh in draws}.values())


def system_optimal(
    instance: GameInstance, config: SolverConfig = SolverConfig()
) -> EquilibriumResult:
    """Two-class flow approximately minimizing the social cost.

    From each distinct point among 16 fixed start draws seeded by
    ``config.seed`` (``_multistart_points``), ``_descend`` runs with two
    blocks: each round steps the autonomous block at the current human flow,
    then the human block at the new autonomous flow (class-a block gradient
    2 a fa + (a+h) fh + b, symmetrically for class h), skipping a block whose
    gap is within tolerance. ``config.max_iterations`` bounds the rounds of
    each start that try a step, and ``iterations`` sums them over the starts. Returns the
    lowest-cost end point, the first on near-ties; ``relative_gap`` is the
    larger of the two block gaps at that point, so convergence certifies
    block-wise optimality only.
    """
    ah, b = instance.a + instance.h, instance.b
    blocks = ((instance.auto_demands, 2.0 * instance.a), (instance.human_demands, 2.0 * instance.h))
    tol = config.relative_gap_tol

    best = None
    total_iterations = 0
    for flows in _multistart_points(instance, config.seed):  # _descend moves them in place
        gap, iterations, trace = _descend(
            instance, blocks, flows, lambda k, links: ah * links[1 - k] + b,
            lambda links: social_cost_links(instance, *links), tol, config.max_iterations,
        )
        total_iterations += iterations
        if best is None or trace[-1] < best[0] - 1e-15:
            best = (trace[-1], flows, gap, trace)

    cost, flows, gap, trace = best
    return EquilibriumResult(
        flow=ClassFlow.from_path_flows(instance, *flows),
        potential_or_cost=cost,
        relative_gap=gap,
        iterations=total_iterations,
        converged=gap <= tol,
        trace=trace,
    )
