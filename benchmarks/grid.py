"""Seeded k x k bidirectional grid instances for the path-heavy workload.

Nodes are the cells of a k x k grid, and every pair of horizontal or
vertical neighbours is joined by one link in each direction, so a k x k grid
has 4 k (k - 1) links. Link coefficients are drawn from the distributions of
the library's ``ShapeConfig``: h uniform on ``h_range``, a = mu h with mu
uniform on [``mu_min``, 1], and b zero with probability
``b_zero_probability``, else uniform on ``b_range``. Demands are uniform on
``demand_range`` and every O/D pair carries the autonomy fraction ``alpha``.
"""

from __future__ import annotations

import numpy as np

from scaleroute import GameInstance, Link, ODPair, ShapeConfig, build_instance

#: simple corner-to-corner paths of a k x k grid graph (OEIS A007764)
CORNER_PATHS = {2: 2, 3: 12, 4: 184, 5: 8512}


def _node(row: int, col: int) -> str:
    return f"v{row}_{col}"


def grid_instance(
    seed: int, k: int = 4, crossing: bool = False, shape: ShapeConfig = ShapeConfig()
) -> GameInstance:
    """Grid with a corner-to-corner O/D pair, plus the crossing pair if asked.

    The first pair runs from the top-left to the bottom-right corner; the
    crossing pair runs from the top-right to the bottom-left corner. Raises
    RuntimeError if the enumerated path count differs from the known count
    of simple corner-to-corner paths.
    """
    rng = np.random.default_rng(seed)
    nodes = [_node(r, c) for r in range(k) for c in range(k)]
    links = []
    for r in range(k):
        for c in range(k):
            for r2, c2 in ((r, c + 1), (r + 1, c)):
                if r2 >= k or c2 >= k:
                    continue
                for tail, head in ((_node(r, c), _node(r2, c2)), (_node(r2, c2), _node(r, c))):
                    h = rng.uniform(*shape.h_range)
                    mu = rng.uniform(shape.mu_min, 1.0)
                    if rng.random() < shape.b_zero_probability:
                        b = 0.0
                    else:
                        b = rng.uniform(*shape.b_range)
                    links.append(Link(f"e{len(links) + 1}", tail, head, a=mu * h, h=h, b=b))
    ends = [(_node(0, 0), _node(k - 1, k - 1))]
    if crossing:
        ends.append((_node(0, k - 1), _node(k - 1, 0)))
    od_pairs = [
        ODPair(o, d, demand=float(rng.uniform(*shape.demand_range)), alpha=shape.alpha)
        for o, d in ends
    ]
    expected = len(ends) * CORNER_PATHS[k]
    instance = build_instance(nodes, links, od_pairs, path_cap=expected)
    if instance.n_paths != expected or instance.n_links != 4 * k * (k - 1):
        raise RuntimeError(
            f"grid k={k} seed={seed}: {instance.n_links} links and {instance.n_paths} paths, "
            f"expected {4 * k * (k - 1)} links and {expected} paths"
        )
    return instance
