"""Flow solvers: induced human equilibrium and system optimum.

Both solvers run one loop (``_descend``): block-coordinate descent over the
enumerated path polytope of each class block, where block k minimizes
``sum_l [ quad_l x_l^2 / 2 + lin_l x_l ]`` with ``lin`` fixed by the other
blocks. The loop runs a batch of starts at once: the path flows of a block
are a (starts × paths) array, and every numpy call of a round serves all live
starts, so a batch takes as many rounds as its longest start, not the sum of
their rounds. A round gives each block of each start in turn one step
(``_block_step``) unless its gap is already within tolerance: an
all-or-nothing assignment to current shortest paths as the search direction,
an exact closed-form line search (every objective here is quadratic along a
segment), then a pairwise vertex-exchange sweep, moving mass from the worst
used path of each O/D pair to its best path, which removes the sublinear tail
of plain conditional gradient and lets tight gap tolerances be reached on
small networks (the path-based block descent with pairwise exchange of
Jayakrishnan et al., 1994). A start leaves the batch after a round that moves
none of its path flows. Each start keeps its own round budget, and an
iteration is a round in which it tried a step; its trace holds the objective
at the start of each of its rounds, so the last entry is its returned point.

The human equilibrium is the loop with one block: it minimizes the convex
potential ``sum_l [ h_l t_l^2 / 2 + (a_l s_l + b_l) t_l ]`` whose gradient is
exactly the link latency under a fixed leader flow, so the
conditional-gradient gap coincides with the Wardrop relative gap. The system
optimum is nonconvex in the joint class flows whenever a_l != h_l, but
strictly convex in each class separately; it runs the loop once, with the
autonomous and the human block, from all its distinct multistart points. A
round of the optimum is the autonomous block, then the human block, then one
exact class-swap move (``_class_swap``) on the starts that tried a step: at
fixed total path flows the social cost is linear in the class split, which the
blocks, each moving one class and so the total flow, only reach by zigzagging.

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
from functools import reduce
from typing import Callable

import numpy as np

from .errors import DimensionMismatch
from .model import ClassFlow, GameInstance, check_leader_flows

_COST_FLOOR = 1e-30
_USED_EPS = 1e-14
_MULTISTARTS = 16  # start draws of the system optimum, before repeats are dropped

# a move of ``_descend`` after the blocks of a round: (path flows, link flows,
# rows to try) -> rows it moved
_Swap = Callable[[list[np.ndarray], list[np.ndarray], np.ndarray], np.ndarray]


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True, eq=False)
class EquilibriumResult:
    """Solver output: flow, objective value, certificate and iteration trace.

    ``potential_or_cost`` is the final potential (human equilibrium) or the
    social cost (system optimum). ``iterations`` counts the rounds of
    ``_descend`` that tried a step, per start, summed over the starts of the
    system optimum (which run together, as one batch); a round of the optimum
    is its autonomous block, then its human block, then the class swap, which
    runs only in a round that tried a block step. ``trace`` records the
    objective at the start of each round of the returned start, so its last
    entry is the returned point; it is nonincreasing by construction.
    """

    flow: ClassFlow
    potential_or_cost: float
    relative_gap: float
    iterations: int
    converged: bool
    trace: tuple[float, ...] = ()


def _result(
    instance: GameInstance, fa: np.ndarray, fh: np.ndarray, gap: float, iterations: int,
    trace: tuple[float, ...], tol: float,
) -> EquilibriumResult:
    """Both solvers' result: path flows ``fa`` and ``fh`` and their descent, against ``tol``."""
    flow = ClassFlow.from_path_flows(instance, fa, fh)
    return EquilibriumResult(flow, trace[-1], float(gap), int(iterations), bool(gap <= tol), trace)


def _cheapest(instance: GameInstance, path_costs: np.ndarray) -> list[np.ndarray]:
    """Per O/D pair, the global index of its cheapest path in each row of the
    (starts × paths) ``path_costs``; ties go to the first."""
    return [start + path_costs[:, start:end].argmin(1) for start, end in instance.paths.od_slices]


def _all_or_nothing(
    instance: GameInstance, path_costs: np.ndarray, demands: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each O/D demand loaded on its cheapest path, row by row of the
    (starts × paths) ``path_costs``: path flows and their cost per row.

    The cost is summed pair by pair in O/D order; a dot product would fuse
    multiply-adds and change its last bits on multi-pair instances.
    """
    n_rows, n_paths = path_costs.shape
    row_start = np.arange(0, n_rows * n_paths, n_paths)  # flat index of each row's first path
    flat_costs = path_costs.reshape(-1)
    y = np.zeros(n_rows * n_paths)
    cost = 0.0
    for d, j in zip(demands.tolist(), _cheapest(instance, path_costs)):
        j += row_start
        y[j] = d
        cost = cost + d * flat_costs[j]
    return y.reshape(n_rows, n_paths), cost


def _relative_gap(total: float, aon_cost: float) -> float:
    """Relative gap of a load costing ``total`` against its all-or-nothing cost."""
    if total <= _COST_FLOOR:
        return 0.0
    gap = (total - aon_cost) / total
    return 0.0 if gap < 0.0 else gap  # NaN passes through


def _block_gap(
    instance: GameInstance, demands: np.ndarray, grad: np.ndarray, x_link: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Relative gap of each row of a block with link gradients ``grad`` at link
    flows ``x_link`` (both starts × links), and the all-or-nothing path flows it
    is measured against."""
    y, aon_cost = _all_or_nothing(instance, grad @ instance.incidence, demands)
    totals = np.vecdot(grad, x_link).tolist()
    # a loop over the rows on purpose: at 1-16 rows it takes 1.2-3.7 us a call,
    # a masked np.divide plus np.where 4.2-5.1 us (Xeon, 2 CPUs)
    return np.array([_relative_gap(t, c) for t, c in zip(totals, aon_cost.tolist())]), y


def _block_step(
    instance: GameInstance, demands: np.ndarray, quad: np.ndarray, lin: np.ndarray,
    x: np.ndarray, x_link: np.ndarray, g: np.ndarray, y: np.ndarray, step: np.ndarray,
) -> np.ndarray:
    """One descent step of the block sum_l [quad_l x_l^2 / 2 + lin_l x_l] in each row
    of the (starts × paths) path flows ``x`` where ``step`` holds, in place, with link
    flows ``x_link``, gradients ``g`` and all-or-nothing loads ``y`` (``_block_gap``):
    a conditional-gradient step with exact line search, then one pairwise-exchange
    sweep. Neither raises the block objective, and a row outside ``step`` keeps its
    flows. Returns, per row, whether any path flow changed, bit for bit."""
    inc = instance.incidence
    n_rows, n_paths = x.shape
    x_entry = x.copy()
    d = y - x
    d_link = d @ inc.T
    num = np.vecdot(g, d_link)
    descent = step & (num < 0.0)
    if any(descent):
        # eta = min(1, -num / denom), which is 1 wherever -num >= denom
        denom = np.vecdot(quad, d_link * d_link)
        num = -num
        eta = descent.astype(float)
        np.divide(num, denom, out=eta, where=descent & (num < denom))
        x += eta[:, None] * d
        x_link = x @ inc.T

    # pairwise exchange sweep: worst used path -> best path, per O/D pair
    flat = x.reshape(-1)
    rows = np.arange(n_rows)
    row_start = rows * n_paths  # flat index of each row's first path
    slices = instance.paths.od_slices
    g = quad * x_link + lin
    for w, (start, end) in enumerate(slices):
        if demands[w] <= 0.0 or end - start < 2:
            continue
        used = x[:, start:end] > _USED_EPS * max(demands[w], 1.0)
        path_g_w = g @ inc[:, start:end]
        worst_used = np.where(used, path_g_w, -np.inf)  # -inf on a row with no used path
        jw = worst_used.argmax(1)
        jb = path_g_w.argmin(1)
        drop = worst_used[rows, jw] - path_g_w[rows, jb]
        exchange = step & (drop > 0.0)  # jw == jb gives drop == 0
        if not any(exchange):
            continue
        jw += start
        jb += start
        col = (inc.take(jb, 1) - inc.take(jw, 1)).T
        curv = np.vecdot(quad, col * col)
        exchange &= curv > 0.0
        ratio = np.divide(drop, curv, out=np.zeros(n_rows), where=exchange)
        jw += row_start
        jb += row_start
        delta = np.minimum(ratio, flat[jw])
        flat[jb] += delta
        flat[jw] -= delta  # delta <= x[jw], so this stays >= 0
        if w + 1 < len(slices):  # the next pairs are priced at the new link flows
            x_link = x_link + delta[:, None] * col
            g = quad * x_link + lin
    return np.logical_or.reduce(x != x_entry, axis=1)


def _class_swap(instance: GameInstance) -> _Swap:
    """The exact class-swap move of the social cost on ``instance``, for ``_descend``.

    On a link the social cost is ``h x^2 + (a-h) f x + b x``, with x the total and
    f the autonomous flow, so at fixed total path flows it is linear in the class
    split, with path prices ``c = ((a-h) x) @ incidence``. Per O/D pair, let q be
    the used autonomous path with the largest c and p the used human path with the
    smallest. Where c_q > c_p, the move trades delta = min(fa_q, fh_p) of
    autonomous flow from q to p for as much human flow from p to q: every path
    total stays fixed and the cost falls by exactly delta (c_q - c_p), the
    multiclass exchange of Dafermos (1972) as a pairwise path move.

    The returned callable takes the (starts × paths) path flows and (starts ×
    links) link flows of the autonomous and the human block and a mask of the
    rows to try. It moves every pair of those rows at once, since no move
    changes x and so no price: in place on the path flows, and on the link flows
    by the path change times the incidence. Returns per row whether it moved.
    """
    inc = instance.incidence
    a_minus_h = instance.a - instance.h
    slices = instance.paths.od_slices
    offsets = np.array([start for start, _ in slices])
    sizes = np.array([end - start for start, end in slices])
    used_a, used_h = (
        np.repeat(_USED_EPS * np.maximum(demands, 1.0), sizes)
        for demands in (instance.auto_demands, instance.human_demands)
    )

    def swap(xs: list[np.ndarray], links: list[np.ndarray], rows: np.ndarray) -> np.ndarray:
        fa, fh = xs
        c = (a_minus_h * (links[0] + links[1])) @ inc
        c_a = np.where(fa > used_a, c, -np.inf)
        c_h = np.where(fh > used_h, c, np.inf)
        # a pair with no used path gives -inf or inf, and a NaN price no gain
        gain = np.maximum.reduceat(c_a, offsets, axis=1) > np.minimum.reduceat(c_h, offsets, axis=1)
        gain &= rows[:, None]
        moved = np.logical_or.reduce(gain, axis=1)
        if not any(moved):
            return moved
        d = np.zeros(fa.shape)  # the autonomous change, and minus the human one
        for w in np.flatnonzero(np.logical_or.reduce(gain, axis=0)).tolist():
            start, end = slices[w]
            r = np.flatnonzero(gain[:, w])
            q = start + c_a[r, start:end].argmax(1)
            p = start + c_h[r, start:end].argmin(1)
            delta = np.minimum(fa[r, q], fh[r, p])
            d[r, q] = -delta
            d[r, p] = delta
        # adding zeros leaves the rows that did not move bit for bit
        fa += d
        fh -= d  # delta <= fa_q and fh_p, so both stay >= 0
        d = d @ inc.T
        links[0] += d
        links[1] -= d
        return moved

    return swap


def _descend(
    instance: GameInstance,
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...],
    flows: tuple[np.ndarray, ...],
    lin: Callable[[int, list[np.ndarray]], np.ndarray],
    objective: Callable[[list[np.ndarray]], np.ndarray],
    tol: float,
    max_iterations: int,
    swap: _Swap | None = None,
) -> tuple[np.ndarray, np.ndarray, list[tuple[float, ...]]]:
    """Block-coordinate descent from a batch of starts, in place on the
    (starts × paths) path flows ``flows[k]`` of each block ``blocks[k] =
    (demands, quad)``.

    Block k minimizes sum_l [quad_l x_l^2 / 2 + lin(k, links)_l x_l] over its
    path polytope, where ``links`` holds the (starts × links) link flows of all
    blocks and ``lin`` and ``objective`` work row by row. Every round runs all
    live starts at once. In a round, each block in turn measures the gap of
    each start (``_block_gap``) and steps the starts (``_block_step``) whose
    gap is not within ``tol``, that have not yet spent ``max_iterations``
    rounds that tried a step, and whose gap is not NaN at a non-finite
    gradient. After the blocks, ``swap`` (if given) moves the path flows and
    link flows of all blocks in place on the starts that tried a step this
    round, and returns which of them it moved; that is no extra round. A
    start leaves the batch after a round that changes none of its path flows,
    since every later round would repeat it; the gaps of that round are
    therefore measured at its returned point. So each start runs as it would
    alone, up to the last bits of the batched products.

    Returns per start the largest block gap (NaN if any is NaN), the number
    of rounds that tried a step, and the trace of ``objective`` at the start
    of each of its rounds. The objectives of a round are kept for the live
    starts only, and appended to their traces whenever the batch shrinks.
    """
    inc = instance.incidence
    n_starts = len(flows[0])
    live = np.arange(n_starts)
    # C-contiguous, since _block_step updates them through flat views; compacted
    # to the live starts once one finishes
    xs = [np.ascontiguousarray(f) for f in flows]
    links = [x @ inc.T for x in xs]
    # one row per start: numpy multiplies arrays of equal shape faster than it
    # broadcasts a vector over rows
    quads = [quad[None].repeat(n_starts, 0) for _, quad in blocks]
    iterations = np.zeros(n_starts, dtype=int)
    gap_out = np.empty(n_starts)
    iterations_out = np.empty(n_starts, dtype=int)
    traces: list[list[float]] = [[] for _ in range(n_starts)]
    rounds: list[np.ndarray] = []
    while True:
        rounds.append(objective(links))
        budget_left = iterations < max_iterations
        tried = moved = np.zeros(len(live), dtype=bool)
        gaps = []
        for k, ((demands, _), quad) in enumerate(zip(blocks, quads)):
            lin_k = lin(k, links)
            g = quad * links[k] + lin_k
            gap, y = _block_gap(instance, demands, g, links[k])
            gaps.append(gap)
            step = budget_left & ~(gap <= tol)
            if not any(step):
                continue
            nan = gap != gap
            if any(nan):  # no later gap can be a number at a non-finite gradient
                step &= ~(nan & ~np.logical_and.reduce(np.isfinite(g), axis=1))
            tried = tried | step
            moved_k = _block_step(instance, demands, quad, lin_k, xs[k], links[k], g, y, step)
            if any(moved_k):
                moved = moved | moved_k
                links[k] = xs[k] @ inc.T
        if swap is not None and any(tried):
            moved = moved | swap(xs, links, tried)
        iterations = iterations + tried
        if all(moved):
            continue
        for i, column in zip(live.tolist(), np.array(rounds).T.tolist()):
            traces[i].extend(column)
        rounds = []
        done = ~moved
        finished = live[done]
        gap_out[finished] = reduce(np.maximum, gaps)[done]
        iterations_out[finished] = iterations[done]
        for f, x in zip(flows, xs):
            if x is not f:
                f[finished] = x[done]
        if not any(moved):
            break
        live = live[moved]
        xs = [x[moved] for x in xs]
        links = [link[moved] for link in links]
        quads = [quad[: len(live)] for quad in quads]
        iterations = iterations[moved]
    return gap_out, iterations_out, [tuple(t) for t in traces]


def _descend_block(
    instance: GameInstance, demands: np.ndarray, quad: np.ndarray, lin: np.ndarray, x: np.ndarray,
    config: SolverConfig,
) -> tuple[float, int, tuple[float, ...]]:
    """``_descend`` on the one block sum_l [quad_l x_l^2 / 2 + lin_l x_l], in place
    from the one start ``x`` (path flows): its gap, iterations and trace."""
    gaps, iterations, traces = _descend(
        instance, ((demands, quad),), (x[None],), lambda k, links: lin,
        lambda links: 0.5 * np.vecdot(quad, links[0] * links[0]) + np.vecdot(lin, links[0]),
        config.relative_gap_tol, config.max_iterations,
    )
    return float(gaps[0]), int(iterations[0]), traces[0]


def follower_equilibrium(
    instance: GameInstance, s: np.ndarray, config: SolverConfig = SolverConfig()
) -> EquilibriumResult:
    """Wardrop equilibrium of the human class under a fixed leader link flow.

    Minimizes the potential sum_l [h_l t_l^2/2 + (a_l s_l + b_l) t_l] over
    the human feasibility polytope by ``_descend_block``, from the
    all-or-nothing load at the latencies of zero human flow.
    Link flows at the optimum are unique (h_l > 0); the path decomposition is
    the solver's. Raises on a leader flow that is not a finite nonnegative
    link vector (``check_leader_flows``), but never on non-convergence: the
    result then carries the last iterate with ``converged=False``.
    """
    s = check_leader_flows(instance, s)
    lin = instance.a * s + instance.b
    t = _all_or_nothing(instance, (instance.incidence.T @ lin)[None], instance.human_demands)[0][0]
    descent = _descend_block(instance, instance.human_demands, instance.h, lin, t, config)
    return _result(instance, np.zeros(instance.n_paths), t, *descent, config.relative_gap_tol)


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
    t_link = (instance.incidence @ t)[None]
    return float(_block_gap(instance, instance.human_demands, instance.link_latencies(s, t_link), t_link)[0][0])


def _multistart_points(instance: GameInstance, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows among ``_MULTISTARTS`` start draws, in first-draw order, as
    (starts × paths) arrays of autonomous and human path flows: per-class
    all-or-nothing at free flow, the uniform path split, seeded random vertices."""
    slices = instance.paths.od_slices
    offsets = np.array([start for start, _ in slices])
    sizes = np.array([end - start for start, end in slices])
    free_flow = (instance.incidence.T @ instance.b)[None]
    n_random = _MULTISTARTS - 2
    # one vertex per O/D pair and class, drawn in the order draw, pair, class
    vertices = np.random.default_rng(seed).integers(np.tile(np.repeat(sizes, 2), n_random))
    vertices = vertices.reshape(n_random, len(sizes), 2)
    draws = []
    for c, demands in enumerate((instance.auto_demands, instance.human_demands)):
        f = np.zeros((_MULTISTARTS, instance.n_paths))
        f[0] = _all_or_nothing(instance, free_flow, demands)[0][0]
        f[1] = np.repeat(demands / sizes, sizes)
        f[np.arange(2, _MULTISTARTS)[:, None], offsets + vertices[:, :, c]] = demands
        draws.append(f)
    first: dict[bytes, int] = {}
    for i, row in enumerate(np.hstack(draws)):
        first.setdefault(row.tobytes(), i)
    keep = list(first.values())
    return draws[0][keep], draws[1][keep]


def _descend_optimum(
    instance: GameInstance, flows: tuple[np.ndarray, np.ndarray], config: SolverConfig
) -> tuple[np.ndarray, np.ndarray, list[tuple[float, ...]]]:
    """``_descend`` on the social cost, as ``system_optimal`` runs it, in place on
    the (starts × paths) autonomous and human path flows ``flows``."""
    ah, b = instance.a + instance.h, instance.b
    blocks = ((instance.auto_demands, 2.0 * instance.a), (instance.human_demands, 2.0 * instance.h))
    return _descend(
        instance, blocks, flows, lambda k, links: ah * links[1 - k] + b,
        lambda links: np.vecdot(links[0] + links[1], instance.link_latencies(*links)),
        config.relative_gap_tol, config.max_iterations, _class_swap(instance),
    )


def system_optimal(
    instance: GameInstance, config: SolverConfig = SolverConfig()
) -> EquilibriumResult:
    """Two-class flow approximately minimizing the social cost.

    One ``_descend`` call with two blocks runs from all distinct points among
    16 fixed start draws seeded by ``config.seed`` (``_multistart_points``)
    at once: each round steps the autonomous block of every live start at its
    current human flow, then the human block at the new autonomous flow
    (class-a block gradient 2 a fa + (a+h) fh + b, symmetrically for class h),
    skipping a block whose gap is within tolerance, and then, on the starts
    that tried a block step, the exact class swap of ``_class_swap``, which the
    two blocks alone only approach by zigzagging. ``config.max_iterations``
    bounds the rounds of each start that try a step, and ``iterations`` sums
    them over the starts. Returns the lowest-cost end point, the first start
    on near-ties; ``relative_gap`` is the larger of the two block gaps at that
    point, so convergence certifies block-wise optimality only.
    """
    flows = _multistart_points(instance, config.seed)  # _descend_optimum moves them in place
    gaps, iterations, traces = _descend_optimum(instance, flows, config)
    best = 0
    for i, trace in enumerate(traces):
        if trace[-1] < traces[best][-1] - 1e-15:
            best = i
    return _result(
        instance, flows[0][best], flows[1][best], gaps[best], iterations.sum(), traces[best],
        config.relative_gap_tol,
    )
