"""Flow solvers: induced human equilibrium and system optimum.

Each objective is stated once, as a ``_Quadratic``: with x_k = A z_k the link
flows of the path flows z_k of class block k (A the incidence), it is
``sum_l [ sum_k quad_kl x_kl^2 / 2 + cross_l x_0l x_1l + lin_l sum_k x_kl ]``
over a product of simplices, one per block and O/D pair. The social cost
sum_l (fa_l + fh_l) e_l, with e = a fa + h fh + b, has the autonomous and the
human block, quad = (2a, 2h), cross = a + h and lin = b. The human Beckmann
potential under a fixed leader link flow s has one block, quad = h and
lin = a s + b; its gradient is the link latency, so its gap (below) is the
Wardrop relative gap.

Both solvers are exact within a face budget. Each face of the product fixes
a nonempty support per simplex, and its KKT system gives its stationary
point; ``_face_minimum`` solves the systems of all faces of the path form
1/2 z'Pz + q'z in one stacked solve, built by scattering the entries of P
that each face keeps into a cached template (``_face_layout``), and keeps
the lowest feasible stationary point, the global minimum even where the
social cost is not convex. An objective with one face, where every O/D pair
has one path, has one feasible point, the demands, which
``_Quadratic.point`` returns with no path form and no solve. For the
social cost it solves only the faces whose autonomous and human supports
share at most one path per O/D pair, which loses no minimum, since the cost
is linear along a class swap (``_face_layout``). The face count
(``_Quadratic.faces``) still grows exponentially with the path count
(Pardalos and Vavasis, 1991), so both solvers dispatch through ``_solve``,
which runs the exact solve (``_exact``) only within the objective's
``budget``, set near where it costs as much as the descent; one solve counts
as one iteration, and its trace holds the objective at its point.

Above the budget both solvers run one loop (``_descend``, from the
objective's ``_starts`` in ``_by_descent``): block-coordinate descent over
the enumerated path polytope of each class block, where block k minimizes
``sum_l [ quad_l x_l^2 / 2 + lin_l x_l ]`` with ``lin`` fixed by the other
block. The loop runs a batch of starts at once: the path flows of
a block are a (starts × paths) array, and every numpy call of a round serves
all live starts, so a batch takes as many rounds as its longest start, not
the sum of their rounds. A round gives each block of each start in turn one
step (``_block_step``) unless its gap is already within tolerance: an
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

Each ``_Quadratic`` owns the paths and the incidence it is stated over, and
its ``restrict`` to a sorted subset of its paths is another ``_Quadratic``.
An objective with more enumerated paths than links plus O/D pairs, the most
that a basic path decomposition of a block's link flow needs, descends on a
working set of paths, a restricted path set grown by column generation
(Leventhal, Nemhauser and Trotter, 1973): the paths its starts load, plus
the all-or-nothing paths of each round. The gap still prices every
enumerated path in every round, so each step heads for the all-or-nothing
load over all paths and the reported gap is the certificate over all of
them. Each block of each start exchanges flow only to paths of its own set,
the paths it started on and those its own all-or-nothing steps loaded, so
every start still runs as it would alone. On the 4×4 grids of 184-368
paths the optimum's working set ends at 37-88 paths, of which its starts'
end points use 7-28; on the 5×5 grid it ends at 97 of 8,512. An objective
with at most that many paths keeps every path.

The human equilibrium is the loop with one block, from one start. The system
optimum is nonconvex in the joint class flows whenever a_l != h_l, but
strictly convex in each class separately; it runs the loop once, with both
blocks, from all its distinct starts. A round of the optimum is the
autonomous block, then the human block, then one exact class-swap move
(``_class_swap``) on the starts that tried a step: at fixed total path flows
the social cost is linear in the class split, which the blocks, each moving
one class and so the total flow, only reach by zigzagging.

A round of either objective ends with one exact face move (``_face_move``)
on the starts that tried a step: each moves to the stationary point of the
face that its current support spans, if that point passes the face solve's
tests and lowers the objective. Where that point is stationary but has a
negative flow, the start steps toward it only as far as its flows stay
nonnegative, which empties the blocking path, and only where that lowers the
objective. Once the exchange (and the swap) have found the support, that one
solve replaces the descent's tail of shrinking steps (projected Newton
methods, Bertsekas, 1982); for the convex potential the face's point is the
equilibrium itself. The fresh faces of all those starts take one stacked
solve, each at the size of its support. The follower builds the move on its
working set and builds it again when the set widens. The optimum's
working-set descent runs without it: its starts meet fresh supports in
nearly every round, and on the 4×4 grids the move cut the optimum's batch
rounds from 525 to 341 but made it slower.

Every convergence test uses one relative gap, exact solve or descent. For a
block with link gradient g, link flow x and per-O/D demands, let y be the
all-or-nothing load of the demands on the cheapest paths under g; the gap is
``(g.x - g.y) / g.x``, clamped at 0 from below and defined as 0 when g.x is
at most ``_COST_FLOOR``. A NaN gap fails every tolerance test, so a solver
never reports convergence on NaN input. The Wardrop gap of a human flow is
this gap at the link latencies, and ``system_optimal`` reports the larger of
its two block gaps.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .model import ClassFlow, GameInstance, PathSet, check_leader_flows

_COST_FLOOR = 1e-30
_USED_EPS = 1e-14
_MULTISTARTS = 15  # social-cost start draws of _starts, before repeats are dropped
#: the most faces (``_Quadratic.faces``) each solver enumerates exactly; above it, it
#: descends. The optimum's 15-start descent costs as much as the face solve between 585
#: faces (verify-default rows with 312 and 585 faces: 20 ms exact against 44 ms of
#: descent over all 8) and 1,264 (7.2-8.6 ms exact against 1.9-6.6 ms per row), and no
#: social-cost face count lies in between. The follower's one-start convex descent is
#: cheaper: at 465 faces it took 0.19-0.58 ms against 1.1-2.7 ms exact (Xeon, 2 CPUs)
_OPTIMUM_FACE_BUDGET = 585
_FOLLOWER_FACE_BUDGET = 225

#: a face's KKT solution is stationary up to this residual relative to the right-hand side
_KKT_RTOL = 1e-9
#: and feasible down to this negative flow, which is then clipped to zero
_FEASIBLE_ATOL = 1e-12


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

    ``potential_or_cost`` is the value of the solver's ``_Quadratic`` at the
    flow: the potential (human equilibrium) or the social cost (system
    optimum). An exact solve within the face budget
    counts one iteration, and its ``trace`` is the objective at its point.
    Above the budget, ``iterations`` counts the rounds of ``_descend`` that
    tried a step, per start, summed over the starts of the system optimum
    (which run together, as one batch); a round is the follower's block, or
    the optimum's autonomous block, then its human block, then the class
    swap, which runs only in a round that tried a block step, and then,
    except on the optimum's working set of paths, the exact face move to (or
    toward) the stationary point of the face its support spans, taken only
    where it lowers the objective. ``trace`` then records the objective at
    the start of each round of the returned start, so its last entry is the
    returned point; it is nonincreasing by construction.

    ``exact`` is set when the result is the exact solve within the face
    budget, the global minimum of its objective, and some face passed that
    solve's tests (an objective with one face always does); a descent
    result leaves it False, also where its face move ended on an exact face
    solve: for the optimum its convergence certifies block-wise optimality
    only.
    """

    flow: ClassFlow
    potential_or_cost: float
    relative_gap: float
    iterations: int
    converged: bool
    trace: tuple[float, ...] = ()
    exact: bool = False


def _result(
    objective: _Quadratic, flows: Sequence[np.ndarray], gap: float, iterations: int,
    trace: tuple[float, ...], config: SolverConfig, exact: bool = False,
) -> EquilibriumResult:
    """Both solvers' result: the path flows of each block of ``objective`` and
    their descent or exact solve, against ``config.relative_gap_tol``. The
    potential's one block is the human class, beside zero autonomous flow."""
    instance = objective.instance
    if len(flows) == 1:
        flows = [np.zeros(instance.n_paths), *flows]
    flow = ClassFlow.from_path_flows(instance, *flows)
    converged = bool(gap <= config.relative_gap_tol)
    return EquilibriumResult(flow, trace[-1], float(gap), int(iterations), converged, trace, exact)


@dataclass(frozen=True, eq=False)
class _Quadratic:
    """A link-separable quadratic over the path flows of one class block, or of
    two coupled by ``cross`` (see the module docstring), with per-block O/D
    demands and link weights ``quad[k]`` and the linear term ``lin``. It is
    stated over ``paths`` with link-path ``incidence``: every path of
    ``instance`` by default, or a sorted subset of them (``restrict``)."""

    instance: GameInstance
    demands: tuple[np.ndarray, ...]
    quad: tuple[np.ndarray, ...]
    lin: np.ndarray
    cross: np.ndarray | None = None
    paths: PathSet | None = None
    incidence: np.ndarray | None = None

    def __post_init__(self):
        if self.paths is None:
            object.__setattr__(self, "paths", self.instance.paths)
            object.__setattr__(self, "incidence", self.instance.incidence)

    @classmethod
    def social_cost(cls, instance: GameInstance) -> _Quadratic:
        """a fa^2 + h fh^2 + (a + h) fa fh + b (fa + fh) per link."""
        demands = instance.auto_demands, instance.human_demands
        return cls(instance, demands, (2.0 * instance.a, 2.0 * instance.h), instance.b, instance.a + instance.h)

    @classmethod
    def potential(cls, instance: GameInstance, s: np.ndarray) -> _Quadratic:
        """h t^2 / 2 + (a s + b) t per link, at checked leader link flows s."""
        return cls(instance, (instance.human_demands,), (instance.h,), instance.a * s + instance.b)

    @property
    def faces(self) -> int:
        """Faces its exact solve enumerates, a product over the O/D pairs w with
        n_w paths, counted, not enumerated: 2^n_w - 1 supports for one block;
        for the two blocks of the social cost, the 3^n - 2^(n+1) + 1 pairs of
        nonempty supports that share no path and the n 3^(n-1) that share one
        (``_face_layout``)."""
        sizes = [end - start for start, end in self.paths.od_slices]
        if self.cross is None:
            return math.prod(2**n - 1 for n in sizes)
        return math.prod(3**n - 2 ** (n + 1) + 1 + n * 3 ** (n - 1) for n in sizes)

    @property
    def budget(self) -> int:
        """The most ``faces`` at which its solver solves exactly."""
        return _FOLLOWER_FACE_BUDGET if self.cross is None else _OPTIMUM_FACE_BUDGET

    @property
    def path_heavy(self) -> bool:
        """Whether it has more paths than links plus O/D pairs, the most that a
        basic path decomposition of a block's link flow uses; its descent then
        runs on a working set of paths (``_descend``)."""
        n_links, n_paths = self.incidence.shape
        return n_paths > n_links + len(self.paths.od_slices)

    def restrict(self, columns: np.ndarray) -> _Quadratic:
        """The same objective over its paths at the sorted indices ``columns``
        only, each O/D pair keeping those of its paths that they hold."""
        starts = [start for start, _ in self.paths.od_slices]
        bounds = np.searchsorted(columns, [*starts, len(self.paths)]).tolist()
        all_paths = self.paths.all_paths
        paths = PathSet(tuple(all_paths[j] for j in columns.tolist()), tuple(zip(bounds[:-1], bounds[1:])))
        return dataclasses.replace(self, paths=paths, incidence=self.incidence.take(columns, 1))

    def block_lin(self, k: int, links: list[np.ndarray]) -> np.ndarray:
        """Block k's linear term at the (starts × links) link flows of all blocks."""
        return self.lin if self.cross is None else self.cross * links[1 - k] + self.lin

    def value(self, links: list[np.ndarray]) -> np.ndarray:
        """Its value at each row of the (starts × links) link flows of all blocks;
        the social cost as ``model._social_cost`` sums it."""
        if self.cross is None:
            return 0.5 * np.vecdot(self.quad[0], links[0] * links[0]) + np.vecdot(self.lin, links[0])
        return np.vecdot(links[0] + links[1], self.instance.link_latencies(*links))

    def path_form(self) -> tuple[np.ndarray, np.ndarray, list[range], np.ndarray, bool]:
        """``_face_minimum``'s arguments: P and q of 1/2 z'Pz + q'z over the path
        flows z of all blocks in turn, one group per block and O/D pair, the
        groups' demands, and whether to prune the faces by class overlap, which
        is exact for the two blocks of the social cost."""
        A, n = self.incidence, len(self.paths)
        q = A.T @ self.lin
        slices = self.paths.od_slices
        groups = [range(k * n + s, k * n + e) for k in range(len(self.quad)) for s, e in slices]
        if self.cross is None:
            return _path_form(A, self.quad[0]), q, groups, self.demands[0], False
        P = np.empty((2 * n, 2 * n))
        P[:n, :n] = _path_form(A, self.quad[0])
        P[:n, n:] = P[n:, :n] = _path_form(A, self.cross)
        P[n:, n:] = _path_form(A, self.quad[1])
        return P, np.concatenate([q, q]), groups, np.concatenate(self.demands), True

    def point(self) -> tuple[np.ndarray, bool]:
        """Its exact minimiser, the path flows of all blocks in turn, and whether
        it is one. With one face, every O/D pair has one path and the demands
        are the only feasible point, so they are returned as they are, with no
        path form and no face solve; otherwise it is the ``_face_point`` of its
        ``path_form``, which is exact where its value is finite."""
        if self.faces == 1:
            return np.concatenate(self.demands), True
        z, value = _face_point(*self.path_form())
        return z, math.isfinite(value)


def _cheapest(over: GameInstance | _Quadratic, path_costs: np.ndarray) -> list[np.ndarray]:
    """Per O/D pair, the index of its cheapest path in each row of the (starts ×
    paths) ``path_costs`` over the ``paths`` of ``over``, an instance or an
    objective; ties go to the first."""
    return [start + path_costs[:, start:end].argmin(1) for start, end in over.paths.od_slices]


def _all_or_nothing(
    over: GameInstance | _Quadratic, path_costs: np.ndarray, demands: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each O/D demand loaded on its cheapest path, row by row of the
    (starts × paths) ``path_costs`` over the paths of ``over``: path flows and
    their cost per row.

    The cost is summed pair by pair in O/D order; a dot product would fuse
    multiply-adds and change its last bits on multi-pair instances.
    """
    n_rows, n_paths = path_costs.shape
    row_start = np.arange(0, n_rows * n_paths, n_paths)  # flat index of each row's first path
    flat_costs = path_costs.reshape(-1)
    y = np.zeros(n_rows * n_paths)
    cost = 0.0
    for d, j in zip(demands.tolist(), _cheapest(over, path_costs)):
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
    over: GameInstance | _Quadratic, demands: np.ndarray, grad: np.ndarray, x_link: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Relative gap of each row of a block with link gradients ``grad`` at link
    flows ``x_link`` (both starts × links), and the all-or-nothing path flows it
    is measured against, priced over every path of ``over``."""
    y, aon_cost = _all_or_nothing(over, grad @ over.incidence, demands)
    totals = np.vecdot(grad, x_link).tolist()
    # a loop over the rows on purpose: at 1-16 rows it takes 1.2-3.7 us a call,
    # a masked np.divide plus np.where 4.2-5.1 us (Xeon, 2 CPUs)
    return np.array([_relative_gap(t, c) for t, c in zip(totals, aon_cost.tolist())]), y


def _block_step(
    objective: _Quadratic, demands: np.ndarray, quad: np.ndarray, lin: np.ndarray,
    x: np.ndarray, x_link: np.ndarray, g: np.ndarray, y: np.ndarray, step: np.ndarray,
    own: np.ndarray | None = None,
) -> np.ndarray:
    """One descent step of the block sum_l [quad_l x_l^2 / 2 + lin_l x_l] in each row
    of the (starts × paths) path flows ``x`` over the paths of ``objective`` where
    ``step`` holds, in place, with link flows ``x_link``, gradients ``g`` and
    all-or-nothing loads ``y`` (``_block_gap``): a conditional-gradient step with
    exact line search, then one pairwise-exchange sweep, which moves flow only to
    paths of the row's ``own`` set (starts × paths) where one is given. Neither
    raises the block objective, and a row outside ``step`` keeps its flows.
    Returns, per row, whether any path flow changed, bit for bit."""
    inc = objective.incidence
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
    slices = objective.paths.od_slices
    g = quad * x_link + lin
    for w, (start, end) in enumerate(slices):
        if demands[w] <= 0.0 or end - start < 2:
            continue
        used = x[:, start:end] > _USED_EPS * max(demands[w], 1.0)
        path_g_w = g @ inc[:, start:end]
        worst_used = np.where(used, path_g_w, -np.inf)  # -inf on a row with no used path
        jw = worst_used.argmax(1)
        if own is None:
            jb = path_g_w.argmin(1)
        else:
            jb = np.where(own[:, start:end], path_g_w, np.inf).argmin(1)
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


def _class_swap(objective: _Quadratic) -> Callable[..., np.ndarray]:
    """The exact class-swap move of the social cost ``objective``, for ``_descend``.

    On a link the social cost is ``h x^2 + (a-h) f x + b x``, with x the total and
    f the autonomous flow, so at fixed total path flows it is linear in the class
    split, with path prices ``c = ((a-h) x) @ incidence``; a - h is half the
    difference of its two block weights, 2a and 2h. Per O/D pair, let q be
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
    inc = objective.incidence
    a_minus_h = 0.5 * (objective.quad[0] - objective.quad[1])
    slices = objective.paths.od_slices
    offsets = np.array([start for start, _ in slices])
    sizes = np.array([end - start for start, end in slices])
    used_a, used_h = (np.repeat(_USED_EPS * np.maximum(demands, 1.0), sizes) for demands in objective.demands)

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


def _face_move(objective: _Quadratic) -> Callable[..., np.ndarray]:
    """The exact face move of ``objective``, with one block or two, for ``_descend``.

    A start's support is, per O/D pair and block, the paths that carry more
    than ``_USED_EPS`` max(d, 1) of the demand d; a group with no such path
    keeps its first. The move takes a start toward the stationary point of
    the face its support spans, the face solve of ``_face_minimum`` on that
    one face: the step of projected Newton methods once the active set is
    identified (Bertsekas, 1982), here after the path-based exchange and, for
    the social cost, the class swap have found the support. Where the point
    passes the face solve's tests (``_stationary_points``), the start moves
    to it. Where it is stationary but has a flow below -``_FEASIBLE_ATOL``,
    the start steps toward it only as far as every flow stays >= 0, and the
    path that blocks the step is set to exactly 0, as an active-set method
    drops a constraint. Either way each group of the new point is fitted to
    its demand, as ``_fit_demands`` fits one point but for all rows at once,
    and the start moves only where that strictly lowers the objective.

    The path form, scaled as ``_face_minimum`` scales it, is built here once.
    The returned callable takes the (starts × paths) path flows and (starts ×
    links) link flows of each block and a mask of the rows to try. It solves
    the fresh faces of those rows in one stacked solve, each KKT system at
    the size of its support, padded with identity rows to the largest
    support of the call. A face's raw stationary point does not depend on the
    row that spans it, so each distinct face is solved once and kept by its
    support. It moves the rows that pass, in place on the path and link
    flows, and returns per row whether it moved.
    """
    P, q, groups, demands, _ = objective.path_form()
    P = 0.5 * (P + P.T)
    scale = max(np.abs(P).max(), 1.0)
    n, k, n_paths = q.size, len(groups), len(objective.paths)
    # the KKT matrix and right-hand side of the whole path form, indexed as
    # [flows, group sums, padding]: each face's system is gathered from it, its
    # support's flows first, then padding, identity rows that pin a variable of
    # no path at 0, and the group sums last
    kkt = np.zeros((2 * n + k, 2 * n + k))
    kkt[:n, :n] = P / scale
    for j, g in enumerate(groups):
        kkt[n + j, g.start : g.stop] = kkt[g.start : g.stop, n + j] = 1.0
    kkt[n + k :, n + k :] = np.eye(n)
    full_rhs = np.concatenate([-(q / scale), demands, np.zeros(n)])
    padding = np.arange(n + k, 2 * n + k)
    sums = np.arange(n, n + k)
    firsts = np.array([g.start for g in groups])
    sizes = [len(g) for g in groups]
    used = np.repeat(_USED_EPS * np.maximum(demands, 1.0), sizes)
    inc_t = objective.incidence.T
    blocks = range(len(objective.quad))

    def solve(supports: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The raw stationary points of the faces with the rows of ``supports``
        (faces × n), zero off each support, and whether each is stationary."""
        m = supports.sum(1)
        size = m.max()
        kept = np.arange(size) < m[:, None]
        # each face's support, in order, then padding, then the group sums
        order = np.argsort(~supports, axis=1, kind="stable")[:, :size]
        at = np.concatenate([np.where(kept, order, padding[:size]), np.broadcast_to(sums, (len(m), k))], axis=1)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            x, passed = _stationary_points(kkt[at[:, :, None], at[:, None, :]], full_rhs[at][:, :, None], kept)
        z = np.zeros(supports.shape)
        z[supports] = x[kept]
        return z, passed

    def ends(z: np.ndarray) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
        """The rows of ``z`` clipped at zero and fitted to the demands, in place
        and all at once, as ``_fit_demands`` fits one point, with the link flows
        of each block there and the objective's value."""
        np.maximum(z, 0.0, out=z)
        totals = np.add.reduceat(z, firsts, axis=1)
        z *= np.divide(demands, totals, out=np.ones(totals.shape), where=totals > 0.0).repeat(sizes, axis=1)
        z_links = [z[:, j * n_paths : (j + 1) * n_paths] @ inc_t for j in blocks]
        return z, z_links, objective.value(z_links)

    # the faces solved so far, by support: their raw points; their end points,
    # the link flows and the value there, infinite unless the whole move passed;
    # and whether the move steps toward the raw point instead
    known: dict[bytes, int] = {}
    raw, points, values = np.empty((0, n)), np.empty((0, n)), np.empty(0)
    point_links = [np.empty((0, inc_t.shape[1]))] * len(blocks)
    toward = np.empty(0, dtype=bool)

    def move(xs: list[np.ndarray], links: list[np.ndarray], rows: np.ndarray) -> np.ndarray:
        nonlocal raw, points, values, point_links, toward
        r = np.flatnonzero(rows)
        x = np.concatenate([x[r] for x in xs], axis=1)
        support = x > used
        support[:, firsts] |= ~np.logical_or.reduceat(support, firsts, axis=1)
        flat = support.tobytes()
        keys = [flat[i : i + n] for i in range(0, len(flat), n)]
        fresh = {key: i for i, key in enumerate(keys) if key not in known}
        if fresh:
            known.update(zip(fresh, itertools.count(len(values))))
            z, passed = solve(support[list(fresh.values())])
            feasible = z.min(1) >= -_FEASIBLE_ATOL
            end, end_links, end_values = ends(z.copy())
            raw = np.concatenate([raw, z])
            points = np.concatenate([points, end])
            values = np.concatenate([values, np.where(passed & feasible, end_values, math.inf)])
            point_links = [np.concatenate(pair) for pair in zip(point_links, end_links)]
            toward = np.concatenate([toward, passed & ~feasible])
        face = np.array([known[key] for key in keys])
        z, z_links, z_values = points[face], [link[face] for link in point_links], values[face]
        step = np.flatnonzero(toward[face])
        if len(step):
            # the step from x toward the raw point p as far as every flow stays
            # >= 0, to the first path that p takes below zero, which ends at 0
            x, p = x[step], raw[face[step]]
            ratio = np.full(p.shape, np.inf)
            np.divide(x, x - p, out=ratio, where=p < -_FEASIBLE_ATOL)
            block = ratio.argmin(1)
            at = np.arange(len(step))
            z_step = x + ratio[at, block, None] * (p - x)
            z_step[at, block] = 0.0
            z[step], step_links, z_values[step] = ends(z_step)
            for z_link, step_link in zip(z_links, step_links):
                z_link[step] = step_link
        # a NaN value lowers nothing
        lower = z_values < objective.value([link[r] for link in links])
        moved = np.zeros(len(rows), dtype=bool)
        if any(lower):
            r = r[lower]
            for j, (x, link) in enumerate(zip(xs, links)):
                x[r] = z[lower, j * n_paths : (j + 1) * n_paths]
                link[r] = z_links[j][lower]
            moved[r] = True
        return moved

    return move


def _descend(
    objective: _Quadratic, flows: tuple[np.ndarray, ...], config: SolverConfig
) -> tuple[np.ndarray, np.ndarray, list[tuple[float, ...]]]:
    """Block-coordinate descent of ``objective`` from a batch of starts, in
    place on the (starts × paths) path flows ``flows[k]`` of each block.

    Block k minimizes sum_l [quad_l x_l^2 / 2 + lin_l x_l] over its path
    polytope, with ``quad = objective.quad[k]`` and ``lin`` its
    ``block_lin`` at the link flows of all blocks. Every round runs all live
    starts at once. In a round, each block in turn measures the gap of each
    start (``_block_gap``) and steps the starts (``_block_step``) whose gap
    is not within the tolerance, that have not yet spent
    ``config.max_iterations`` rounds that tried a step, and whose gap is not
    NaN at a non-finite gradient. After the blocks of a two-block objective,
    ``_class_swap`` moves the path flows and link flows of both in place on
    the starts that tried a step this round. Then, for the one-block
    potential and for the two-block social cost where it keeps every path,
    ``_face_move`` moves those starts to, or toward, the stationary points
    of their supports' faces where that lowers the objective; neither is an
    extra round. A start leaves the batch after a round that changes none of
    its path flows, since every later round would repeat it; the gaps of that
    round are therefore measured at its returned point.

    A ``path_heavy`` objective, with more paths than links plus O/D pairs,
    runs on a working set of its paths: the objective ``restrict``-ed to the
    paths that its starts load, widened by the all-or-nothing paths of each
    round. ``_block_gap`` still prices every path, so each
    conditional-gradient step heads for the all-or-nothing load over all
    paths, and each gap is the certificate over all of them. Each block of
    each start keeps its own set, the paths it started on and those its own
    all-or-nothing steps loaded, and its pairwise exchange moves flow only to
    paths of that set, never to a path that only another start loaded. Any
    other objective keeps every path and runs with no working set. The face
    move is built over the working set, and built again whenever it widens.
    So each start runs as it would alone, up to the last bits of the batched
    products and of the face solves, whose stacks are padded to the largest
    support of a call.

    Returns per start the largest block gap (NaN if any is NaN), the number
    of rounds that tried a step, and the trace of the objective's value at
    the start of each of its rounds. The values of a round are kept for the
    live starts only, and appended to their traces whenever the batch
    shrinks.
    """
    n_starts = len(flows[0])
    working = objective.path_heavy
    if working:
        # the working set, as a mask over every path and as sorted columns, the
        # objective over those columns, and the own sets of each block among them
        owns = [f != 0.0 for f in flows]
        member = np.logical_or.reduce(functools.reduce(np.logical_or, owns), axis=0)
        columns = np.flatnonzero(member)
        owns = [own.take(columns, 1) for own in owns]
        part = objective.restrict(columns)
        # C-contiguous, as below: take copies in C order, where f[:, columns]
        # would return an F-ordered copy
        xs = [f.take(columns, 1) for f in flows]
    else:
        part, owns = objective, [None] * len(flows)
        # C-contiguous, since _block_step updates them through flat views;
        # compacted to the live starts once one finishes
        xs = [np.ascontiguousarray(f) for f in flows]
    swap = _class_swap(part) if len(objective.quad) == 2 else None
    # the face move: every descent of the potential, the optimum's on every column only
    face = _face_move(part) if swap is None or not working else None
    inc = part.incidence
    live = np.arange(n_starts)
    links = [x @ inc.T for x in xs]
    # one row per start: numpy multiplies arrays of equal shape faster than it
    # broadcasts a vector over rows
    quads = [quad[None].repeat(n_starts, 0) for quad in objective.quad]
    iterations = np.zeros(n_starts, dtype=int)
    gap_out = np.empty(n_starts)
    iterations_out = np.empty(n_starts, dtype=int)
    traces: list[list[float]] = [[] for _ in range(n_starts)]
    rounds: list[np.ndarray] = []
    while True:
        rounds.append(objective.value(links))
        budget_left = iterations < config.max_iterations
        tried = moved = np.zeros(len(live), dtype=bool)
        gaps = []
        for k, (demands, quad) in enumerate(zip(objective.demands, quads)):
            lin_k = objective.block_lin(k, links)
            g = quad * links[k] + lin_k
            gap, y = _block_gap(objective, demands, g, links[k])
            gaps.append(gap)
            step = budget_left & ~(gap <= config.relative_gap_tol)
            if not any(step):
                continue
            nan = gap != gap
            if any(nan):  # no later gap can be a number at a non-finite gradient
                step &= ~(nan & ~np.logical_and.reduce(np.isfinite(g), axis=1))
            tried = tried | step
            if working:
                y_all, y = y, y.take(columns, 1)
                # each row loads one path per O/D pair of nonzero demand, so a
                # load outside the working set shows in the count
                if np.count_nonzero(y) < len(y) * np.count_nonzero(demands):
                    member |= np.logical_or.reduce(y_all != 0.0, axis=0)
                    kept, columns = columns, np.flatnonzero(member)
                    at = np.searchsorted(columns, kept)
                    xs = [_widen(x, at, len(columns)) for x in xs]
                    owns = [_widen(own, at, len(columns)) for own in owns]
                    part = objective.restrict(columns)
                    if swap is not None:
                        swap = _class_swap(part)
                    if face is not None:
                        face = _face_move(part)
                    inc = part.incidence
                    y = y_all.take(columns, 1)
                owns[k] |= (y != 0.0) & step[:, None]
            moved_k = _block_step(part, demands, quad, lin_k, xs[k], links[k], g, y, step, owns[k])
            if any(moved_k):
                moved = moved | moved_k
                links[k] = xs[k] @ inc.T
        if any(tried):
            if swap is not None:
                moved = moved | swap(xs, links, tried)
            if face is not None:
                moved = moved | face(xs, links, tried)
        iterations = iterations + tried
        if all(moved):
            continue
        for i, column in zip(live.tolist(), np.array(rounds).T.tolist()):
            traces[i].extend(column)
        rounds = []
        done = ~moved
        finished = live[done]
        gap_out[finished] = functools.reduce(np.maximum, gaps)[done]
        iterations_out[finished] = iterations[done]
        for f, x in zip(flows, xs):
            if working:
                f[finished] = 0.0
                f[finished[:, None], columns] = x[done]
            elif x is not f:
                f[finished] = x[done]
        if not any(moved):
            break
        live = live[moved]
        xs = [x[moved] for x in xs]
        links = [link[moved] for link in links]
        quads = [quad[: len(live)] for quad in quads]
        iterations = iterations[moved]
        if working:
            owns = [own[moved] for own in owns]
    return gap_out, iterations_out, [tuple(t) for t in traces]


def _widen(x: np.ndarray, at: np.ndarray, n: int) -> np.ndarray:
    """The rows of ``x`` spread onto n columns, column j of ``x`` to column
    ``at[j]``, with zeros elsewhere."""
    out = np.zeros((len(x), n), dtype=x.dtype)
    out[:, at] = x
    return out


# --- the exact solve within the face budget -----------------------------------------


@functools.lru_cache(maxsize=48)
def _face_layout(
    groups: tuple[tuple[int, ...], ...], n: int, pruned: bool
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The faces of the product of simplices over n variables with k groups,
    as read-only arrays: their supports, a (faces, n) mask; the entries of P
    that each face keeps, the (f, i, j) with i and j in the support of face
    f, as a pair of flat index maps, into the (faces, n + k, n + k) stack and
    into the (n, n) matrix P, in the smallest unsigned dtype that holds
    faces (n + k)^2; and the part of their KKT systems that P does not fill,
    a (faces, n + k, n + k) boolean stack, an eighth of its float size, with
    the group sums over each support and a unit diagonal that pins each
    variable off the support at 0. That stack is 0 wherever the index maps
    write. A face takes one nonempty subset per group, the subsets of a
    group by size and then lexicographically, and the faces come in
    ``itertools.product`` order.

    ``pruned`` keeps, in that order, only the faces of the class-overlap
    family, for the two blocks of the social cost: the groups are then the
    O/D pairs of the autonomous block over the first n/2 variables and then
    the same pairs of the human block over the last n/2, and a face is kept
    when the two supports of each pair share at most one path. The family
    holds a global minimum. Along a class swap, which moves autonomous flow
    from path q to path p of a pair and as much human flow from p to q, every
    path total and so every link total stays fixed, and the social cost is
    linear in the class split at fixed totals. Where a minimiser's two
    supports of a pair share paths p and q, the swap is feasible both ways,
    so the cost is constant along it; swapping until one of the four flows
    is empty gives a minimiser with a smaller support, and repeating gives
    one in the family, in the relative interior of one of its faces. The
    singular-face skip of ``_face_minimum`` moves a minimiser to a face with
    smaller supports, which share no more paths, so it stays in the family
    too."""
    masks = np.zeros((1, n), dtype=bool)
    for g in groups:
        subsets = [s for size in range(1, len(g) + 1) for s in itertools.combinations(g, size)]
        sub = np.zeros((len(subsets), n), dtype=bool)
        for row, s in zip(sub, subsets):
            row[list(s)] = True
        masks = (masks[:, None, :] | sub[None, :, :]).reshape(-1, n)
    if pruned:
        shared = masks[:, : n // 2] & masks[:, n // 2 :]
        masks = masks[np.logical_and.reduce([shared[:, list(g)].sum(1) <= 1 for g in groups[: len(groups) // 2]])]
    k = len(groups)
    m = n + k
    face, row, col = np.nonzero(masks[:, :, None] & masks[:, None, :])
    index = np.min_scalar_type(len(masks) * m * m)
    into_K, from_P = ((face * m + row) * m + col).astype(index), (row * n + col).astype(index)
    member = np.zeros((k, n), dtype=bool)
    for j, g in enumerate(groups):
        member[j, list(g)] = True
    K = np.zeros((len(masks), m, m), dtype=bool)
    K[:, :n, :n] = np.eye(n, dtype=bool) & ~masks[:, None, :]
    K[:, n:, :n] = member & masks[:, None, :]  # one sum per group
    K[:, :n, n:] = K[:, n:, :n].transpose(0, 2, 1)
    for array in (masks, into_K, from_P, K):
        array.flags.writeable = False
    return masks, (into_K, from_P), K


def _face_minimum(
    P: np.ndarray, q: np.ndarray, groups: Sequence[Sequence[int]], demands: Sequence[float],
    pruned: bool = False,
) -> tuple[np.ndarray, float]:
    """Global minimum of 1/2 z'Pz + q'z over z >= 0 with sum(z[g]) = d per group.

    The feasible set is a product of simplices. Each face fixes a nonempty
    support per group, and the minimum is a stationary point in the relative
    interior of some face. With ``pruned``, only the faces of the
    class-overlap family are solved, which is exact for the path form of the
    social cost but not in general (``_face_layout``). P is first replaced
    by its symmetric part, which has the same quadratic form. The KKT
    systems of the faces form one stack (``_face_layout``) with P restricted
    to each support, and one batched LU solve covers them all. The stack
    holds P and q divided by s, the larger of max|P| and 1, which leaves
    every minimiser in place and keeps the slopes on the scale of the unit
    constraint rows however large they are. A face's point is kept if its
    residual is small and it is feasible (``_stationary_points``, whose
    tests the descent's face move shares); a point that overflows fails one
    of the two tests.

    A face whose KKT matrix LU finds exactly singular is skipped, and the
    skip loses no minimum. Take a minimiser z* in the relative interior of
    such a face, and a null vector (v, w) of its KKT matrix [[P_SS, E'],
    [E, 0]]. Then E v = 0, and v != 0 because the group rows of E are
    disjoint and nonempty. The gradient term along v is 0 by stationarity,
    and the curvature term is v'P v = -(E v)'w = 0, so the cost is constant
    along v, and moving along +-v reaches a smaller face with the same
    value. A vertex face, whose KKT block is [[P_SS / s, I], [I, 0]] with
    determinant +-1, is never skipped. Among the surviving faces the lowest
    value, at the unscaled P and q, wins, the first face on ties. Returns
    the minimiser and its value, infinite where no face passed.
    """
    P = 0.5 * (P + P.T)
    scale = max(np.abs(P).max(), 1.0)
    n = q.size
    masks, (into_K, from_P), template = _face_layout(tuple(map(tuple, groups)), n, pruned)
    K = template.astype(float)
    # numpy indexes by intp: a narrower index array, cast explicitly, scatters
    # about 1.5x faster than one passed as it is (Xeon, 2 CPUs)
    K.reshape(-1)[into_K.astype(np.intp)] = (P / scale).reshape(-1)[from_P.astype(np.intp)]
    rhs = np.empty((len(masks), K.shape[1], 1))
    np.multiply(-(q / scale), masks, out=rhs[:, :n, 0])
    rhs[:, n:, 0] = demands
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x, stationary = _stationary_points(K, rhs, masks)
        Z = np.maximum(x, 0.0)
        feasible = x.min(axis=1) >= -_FEASIBLE_ATOL
        values = np.where(stationary & feasible, np.einsum("fi,fi->f", Z, 0.5 * (Z @ P) + q), math.inf)
    best = int(np.argmin(values))
    return Z[best], float(values[best])


def _stationary_points(K: np.ndarray, rhs: np.ndarray, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stationary points of a stack of faces, with supports the rows of
    ``masks`` (faces × n), and whether each passes the stationarity tests: one
    batched LU solve of the (faces, n + k, n + k) KKT stack ``K`` against
    ``rhs`` (faces, n + k, 1), both scaled as ``_face_minimum`` states.
    Returns each face's point, zero off its support and not clipped, and
    False where its KKT matrix is exactly singular (it is then replaced by
    the identity in ``K``) or its residual is above ``_KKT_RTOL`` relative to
    the right-hand side; a point that overflows fails the residual test.
    Both callers then test feasibility, a flow no lower than
    -``_FEASIBLE_ATOL``, and call it with divide, overflow and invalid
    warnings off: slogdet takes log 0 on a singular face, and a nearly
    singular one can overflow."""
    n = masks.shape[1]
    singular = np.zeros(len(masks), dtype=bool)
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:  # some face has an exactly zero pivot
        singular = np.linalg.slogdet(K)[0] == 0
        K[singular] = np.eye(K.shape[1])
        sol = np.linalg.solve(K, rhs)
    # |r| <= rtol |rhs|, squared: each side overflows where its norm would
    r = K @ sol - rhs
    stationary = ~singular & (
        np.einsum("fij,fij->f", r, r) <= _KKT_RTOL**2 * np.einsum("fij,fij->f", rhs, rhs)
    )
    return np.where(masks, sol[:, :n, 0], 0.0), stationary


def _path_form(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A' diag(v) A: the link weights v as a quadratic form in the path flows."""
    return A.T @ (v[:, None] * A)


def _face_point(
    P: np.ndarray, q: np.ndarray, groups: Sequence[range], demands: Sequence[float], pruned: bool
) -> tuple[np.ndarray, float]:
    """The minimiser of ``_face_minimum`` fitted to the demands
    (``_fit_demands``), and its value, infinite where no face passed the
    tests of ``_stationary_points`` (the minimiser is then the first face's
    clipped point)."""
    z, value = _face_minimum(P, q, groups, demands, pruned)
    _fit_demands(z, groups, demands)
    return z, value


def _fit_demands(z: np.ndarray, groups: Sequence[range], demands: Sequence[float]) -> None:
    """Scale each group's flows in the point ``z``, in place, to sum to its
    demand, so a group of zero demand gets exactly zero flow; a group with
    no positive total keeps its flows.

    The KKT solve meets a group sum only up to a rounding error on the scale
    of q: round-off in an empty group, and a large relative error where the
    demand is small against the latencies (a human demand of 1e-5 at
    latencies near 1/3 left a Wardrop gap of 5.6e-12).
    """
    for g, d in zip(groups, demands):
        group = z[g.start : g.stop]
        total = group.sum()
        if total > 0.0:
            group *= d / total


def _exact(objective: _Quadratic, config: SolverConfig) -> EquilibriumResult:
    """The exact minimiser of ``objective`` (``_Quadratic.point``: the demands
    where it has one face, else its ``_face_point``), reported as ``_descend``
    reports an end point: the largest block gap there (NaN if any is NaN), one
    iteration, and a trace of the value there; with ``exact`` set unless no
    face passed the face solve's tests."""
    n = len(objective.paths)
    z, exact = objective.point()
    flows = [z[k * n : (k + 1) * n] for k in range(len(objective.quad))]
    links = [(objective.incidence @ f)[None] for f in flows]
    gap = _point_gap(objective, links)
    trace = (float(objective.value(links)[0]),)
    return _result(objective, flows, gap, 1, trace, config, exact=exact)


def _point_gap(objective: _Quadratic, links: list[np.ndarray]) -> float:
    """The largest block gap of ``objective`` (NaN if any is NaN) at the (1 ×
    links) link flows of each block, as ``EquilibriumResult`` reports it."""
    gaps = [
        _block_gap(objective, demands, quad * links[k] + objective.block_lin(k, links), links[k])[0]
        for k, (demands, quad) in enumerate(zip(objective.demands, objective.quad))
    ]
    return functools.reduce(np.maximum, gaps)[0]


# --- the descent above the face budget ------------------------------------------------


def _starts(objective: _Quadratic, seed: int) -> tuple[np.ndarray, ...]:
    """The start points of ``_by_descent``, as (starts × paths) path flows per block.

    Row 0 loads each block's demands all-or-nothing at its gradient at zero
    flow, A' lin: the free-flow times for the social cost, the latencies of
    zero human flow for the potential. The potential is convex and starts
    there alone. The nonconvex social cost adds ``_MULTISTARTS`` - 1 random
    vertices seeded by ``seed``, each loading one path per O/D pair and class
    (vertices, since the pairwise sweep empties at most one path per pair and
    round), and keeps the distinct rows in first-draw order.
    """
    at_zero = (objective.incidence.T @ objective.lin)[None]
    draws = [_all_or_nothing(objective, at_zero, demands)[0] for demands in objective.demands]
    if objective.cross is None:
        return tuple(draws)
    slices = objective.paths.od_slices
    offsets = np.array([start for start, _ in slices])
    sizes = np.array([end - start for start, end in slices])
    n_random = _MULTISTARTS - 1
    # one vertex per O/D pair and class, drawn in the order draw, pair, class
    vertices = np.random.default_rng(seed).integers(np.tile(np.repeat(sizes, 2), n_random))
    vertices = vertices.reshape(n_random, len(sizes), 2)
    for c, demands in enumerate(objective.demands):
        f = np.zeros((n_random, len(objective.paths)))
        f[np.arange(n_random)[:, None], offsets + vertices[:, :, c]] = demands
        draws[c] = np.vstack([draws[c], f])
    first: dict[bytes, int] = {}
    for i, row in enumerate(np.hstack(draws)):
        first.setdefault(row.tobytes(), i)
    keep = list(first.values())
    return tuple(draw[keep] for draw in draws)


def _by_descent(objective: _Quadratic, config: SolverConfig) -> EquilibriumResult:
    """Either solver above the face budget: one ``_descend`` of ``objective``
    from all its ``_starts`` at once, seeded by ``config.seed``. Returns the
    lowest end point, the first start on near-ties (a later start wins only
    below the incumbent's cost by more than 1e-15 of it, so the rule does
    not depend on the cost's scale), with ``iterations`` summed over the
    starts. A ``path_heavy`` objective's gap is measured once more,
    at the link flows that the result reports, since its descent summed them
    over its working set."""
    flows = _starts(objective, config.seed)  # _descend moves them in place
    gaps, iterations, traces = _descend(objective, flows, config)
    best = 0
    for i, trace in enumerate(traces):
        incumbent = traces[best][-1]
        if trace[-1] < incumbent - 1e-15 * abs(incumbent):
            best = i
    point, gap = [f[best] for f in flows], gaps[best]
    if objective.path_heavy:
        gap = _point_gap(objective, [(objective.incidence @ f)[None] for f in point])
    return _result(objective, point, gap, iterations.sum(), traces[best], config)


# --- the solvers ---------------------------------------------------------------------


def _solve(objective: _Quadratic, config: SolverConfig) -> EquilibriumResult:
    """Both solvers: the ``_exact`` solve within the objective's face ``budget``,
    else ``_by_descent``."""
    if objective.faces <= objective.budget:
        return _exact(objective, config)
    return _by_descent(objective, config)


def follower_equilibrium(
    instance: GameInstance, s: np.ndarray, config: SolverConfig = SolverConfig()
) -> EquilibriumResult:
    """Wardrop equilibrium of the human class under a fixed leader link flow,
    exact within the face budget.

    Minimizes the potential sum_l [h_l t_l^2/2 + (a_l s_l + b_l) t_l]
    (``_Quadratic.potential``) over the human feasibility polytope. Within
    the potential's ``budget`` of 225 faces the result is its ``_exact``
    solve: one solve, counted as one iteration, to which
    ``config.max_iterations`` does not apply, with ``exact`` set. Above the
    budget it is ``_by_descent`` from one start, which reads no seed. Either
    way ``relative_gap`` is the Wardrop gap at the returned point, and a
    human class of zero demand gets exactly zero flow. Link flows at the
    optimum are unique (h_l > 0); the path decomposition is the solver's.
    Raises on a leader flow that is not a finite nonnegative link vector
    (``check_leader_flows``), but never on non-convergence: the result then
    carries its point with ``converged=False``.
    """
    return _solve(_Quadratic.potential(instance, check_leader_flows(instance, s)), config)


def wardrop_gap(instance: GameInstance, s: np.ndarray, t: np.ndarray) -> float:
    """Relative Wardrop gap of human path flows ``t`` under leader link flows ``s``.

    Zero iff every used path of every O/D pair has minimum latency. Defined
    as 0 when the human demand (hence total cost) vanishes, NaN when a human
    flow is NaN; ``s`` is checked by ``check_leader_flows``.
    """
    s = check_leader_flows(instance, s)
    t = np.asarray(t, dtype=float)
    if t.shape != (instance.n_paths,):
        raise DomainError(f"human path flows must have shape ({instance.n_paths},)")
    t_link = (instance.incidence @ t)[None]
    return float(_block_gap(instance, instance.human_demands, instance.link_latencies(s, t_link), t_link)[0][0])


def system_optimal(
    instance: GameInstance, config: SolverConfig = SolverConfig()
) -> EquilibriumResult:
    """Two-class flow minimizing the social cost, exact within the face budget.

    Within the social cost's ``budget`` of 585 faces the result is the
    ``_exact`` solve of ``_Quadratic.social_cost``, the global minimum: one
    solve, counted as one iteration, to which ``config.max_iterations`` and
    ``config.seed`` do not apply, with ``exact`` set; a class of zero demand
    gets exactly zero flow. Above the budget it is ``_by_descent`` from the
    distinct ``_starts``, whose convergence certifies block-wise optimality
    only. Either way ``relative_gap`` is the larger of the two block gaps at
    the returned point.
    """
    return _solve(_Quadratic.social_cost(instance), config)
