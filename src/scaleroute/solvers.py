"""Flow solvers: shortest paths, induced human equilibrium, system optimum.

Both solvers are conditional-gradient methods over the enumerated path
polytope, built from one step (``_block_step``): an all-or-nothing
assignment to current shortest paths as the search direction, an exact
closed-form line search (every objective here is quadratic along a segment),
then a pairwise vertex-exchange sweep, moving mass from the worst used path
of each O/D pair to its best path, which removes the sublinear tail of plain
conditional gradient and lets tight gap tolerances be reached on small
networks.

The human equilibrium minimizes the convex potential
``sum_l [ h_l t_l^2 / 2 + (a_l s_l + b_l) t_l ]`` whose gradient is exactly
the link latency under a fixed leader flow, so the conditional-gradient gap
coincides with the Wardrop relative gap. The system optimum is nonconvex in
the joint class flows whenever a_l != h_l, but strictly convex in each class
separately; from each multistart point, one loop makes a step of the
autonomous class and then a step of the human class per iteration, on
shared link flows.

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

import numpy as np

from .errors import DimensionMismatch, DomainError, NegativeFlow
from .model import ClassFlow, GameInstance, ODPair, Path, social_cost_links

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
    social cost (system optimum). ``trace`` records the objective once per
    outer iteration and is nonincreasing by construction.
    """

    flow: ClassFlow
    potential_or_cost: float
    relative_gap: float
    iterations: int
    converged: bool
    trace: tuple[float, ...] = ()


def check_leader_flows(instance: GameInstance, s: np.ndarray) -> np.ndarray:
    """``s`` as a vector of leader link flows, checked: DimensionMismatch on a
    wrong shape, NegativeFlow on a NaN, infinite or negative entry."""
    s = np.asarray(s, dtype=float)
    if s.shape != (instance.n_links,):
        raise DimensionMismatch(f"leader link flows must have shape ({instance.n_links},)")
    bad = s[~(np.isfinite(s) & (s >= 0.0))]
    if bad.size:
        raise NegativeFlow(f"leader link flows must be finite and nonnegative: {bad[0]}")
    return s


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


@dataclass(frozen=True, eq=False)
class _BlockSolution:
    x: np.ndarray
    gap: float
    iterations: int
    converged: bool
    trace: tuple[float, ...]
    objective: float


def _block_step(
    instance: GameInstance, demands: np.ndarray, quad: np.ndarray, lin: np.ndarray,
    x: np.ndarray, x_link: np.ndarray, g: np.ndarray, y: np.ndarray,
) -> None:
    """One descent step of the block sum_l [quad_l x_l^2 / 2 + lin_l x_l], in place on
    path flows ``x`` with link flows ``x_link``, gradient ``g`` and all-or-nothing
    load ``y`` (``_block_gap``): a conditional-gradient step with exact line search,
    then one pairwise-exchange sweep. Neither raises the block objective."""
    inc = instance.incidence
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


def _solve_quadratic_block(
    instance: GameInstance,
    demands: np.ndarray,
    quad: np.ndarray,
    lin: np.ndarray,
    x0: np.ndarray,
    tol: float,
    max_iterations: int,
) -> _BlockSolution:
    """Minimize sum_l [quad_l x_l^2 / 2 + lin_l x_l] over the path polytope.

    quad must be elementwise positive (strict convexity in link flows); the
    gradient quad*x + lin is then nonnegative whenever lin >= 0, keeping the
    shortest-path subproblems well posed. A step that leaves the path flows
    unchanged ends the solve, since every later iterate would repeat it.
    """
    x = np.array(x0, dtype=float)
    best_x, best_gap = x.copy(), np.inf
    trace: list[float] = []
    iterations = 0

    def objective(x_link: np.ndarray) -> float:
        return float(0.5 * np.dot(quad, x_link * x_link) + np.dot(lin, x_link))

    while True:
        x_link = instance.incidence @ x
        g = quad * x_link + lin
        gap, y = _block_gap(instance, demands, g, x_link)
        trace.append(objective(x_link))
        if gap < best_gap:
            best_gap, best_x = gap, x.copy()
        if gap <= tol or iterations >= max_iterations:
            break
        if gap != gap and not np.isfinite(g).all():  # no later gap can be a number
            break
        iterations += 1
        x_prev = x.copy()
        _block_step(instance, demands, quad, lin, x, x_link, g, y)
        if np.array_equal(x, x_prev):  # the state repeats, so no later gap can differ
            break

    return _BlockSolution(
        x=best_x,
        gap=best_gap if best_gap < np.inf else np.nan,  # inf: no gap was a number
        iterations=iterations,
        converged=best_gap <= tol,
        trace=tuple(trace),
        objective=objective(instance.incidence @ best_x),
    )


def follower_equilibrium(
    instance: GameInstance,
    s: np.ndarray,
    config: SolverConfig = SolverConfig(),
    initial: np.ndarray | None = None,
) -> EquilibriumResult:
    """Wardrop equilibrium of the human class under a fixed leader link flow.

    Minimizes the potential sum_l [h_l t_l^2/2 + (a_l s_l + b_l) t_l] over
    the human feasibility polytope. Link flows at the optimum are unique
    (h_l > 0); the returned path decomposition is the solver's incumbent.
    Raises on a leader flow that is not a finite nonnegative link vector
    (``check_leader_flows``), but never on non-convergence: the result
    carries the best iterate with ``converged=False``.
    """
    s = check_leader_flows(instance, s)
    demands = instance.human_demands
    lin = instance.a * s + instance.b
    if initial is None:
        x0, _ = _all_or_nothing(instance, instance.incidence.T @ lin, demands)
    else:
        x0 = np.asarray(initial, dtype=float)
        if x0.shape != (instance.n_paths,):
            raise DimensionMismatch(f"initial path flows must have shape ({instance.n_paths},)")
    sol = _solve_quadratic_block(
        instance, demands, instance.h, lin, x0, config.relative_gap_tol, config.max_iterations
    )
    flow = ClassFlow.from_path_flows(instance, np.zeros(instance.n_paths), sol.x)
    return EquilibriumResult(
        flow=flow,
        potential_or_cost=sol.objective,
        relative_gap=sol.gap,
        iterations=sol.iterations,
        converged=sol.converged,
        trace=sol.trace,
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
    ``config.seed`` (``_multistart_points``), each iteration makes one step of
    the autonomous block at the current human flow, then one of the human block
    at the new autonomous flow (class-a block gradient 2 a fa + (a+h) fh + b,
    symmetrically for class h), and records the social cost. A start ends when
    both step-entry gaps and both block gaps at the new point are within
    tolerance, at a NaN gap, or after ``config.max_iterations`` iterations;
    ``iterations`` sums them over the starts. Returns the best local optimum
    found; ``relative_gap`` is the larger of the two block gaps at that point,
    so convergence certifies block-wise optimality only.
    """
    ah, b = instance.a + instance.h, instance.b
    blocks = ((instance.auto_demands, 2.0 * instance.a), (instance.human_demands, 2.0 * instance.h))
    inc = instance.incidence
    tol = config.relative_gap_tol

    best = None
    total_iterations = 0
    for flows in _multistart_points(instance, config.seed):  # _block_step moves them in place
        links = [inc @ f for f in flows]
        trace: list[float] = []
        while True:
            entry_gaps = []
            for k, (demands, quad) in enumerate(blocks):  # k = 0 autonomous, 1 human
                lin = ah * links[1 - k] + b
                g = quad * links[k] + lin
                gap, y = _block_gap(instance, demands, g, links[k])
                _block_step(instance, demands, quad, lin, flows[k], links[k], g, y)
                links[k] = inc @ flows[k]
                entry_gaps.append(gap)
            trace.append(social_cost_links(instance, *links))
            entry = np.maximum(*entry_gaps)  # NaN if either gap is NaN
            stop = entry != entry or len(trace) >= config.max_iterations
            if entry <= tol or stop:
                gap = float(np.maximum(*(
                    _block_gap(instance, demands, quad * links[k] + (ah * links[1 - k] + b), links[k])[0]
                    for k, (demands, quad) in enumerate(blocks)
                )))
                if gap <= tol or gap != gap or stop:
                    break
        total_iterations += len(trace)
        if best is None or trace[-1] < best[0] - 1e-15:
            best = (trace[-1], flows, gap, tuple(trace))

    cost, flows, gap, trace = best
    return EquilibriumResult(
        flow=ClassFlow.from_path_flows(instance, *flows),
        potential_or_cost=cost,
        relative_gap=gap,
        iterations=total_iterations,
        converged=gap <= tol,
        trace=trace,
    )
