"""Properties of the system optimum that a wrong optimum breaks.

The descent's round counts and the last bits of its end points move with the
BLAS kernel that sums its products, so pinned values guard a solver only
under one kernel. These checks compare solves with each other instead: the
optimal social cost does not depend on the order in which links or O/D pairs
are listed, scales with the latencies, and cannot rise with the autonomy
share α (autonomous flow never costs more than human flow, a <= h). A solve
that keeps a worse local minimum, or stops short of the tolerance, breaks
them. The inputs are the five 4×4 grids of the grid-4x4 benchmark workload,
whose optima descend on a working set of paths and finish from one start,
and verify-default descent rows, whose optima descend on every path.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

import scaleroute as sr

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from grid import grid_instance  # noqa: E402

#: the optimal costs of a transformed instance and of its original agree to this, relative
COST_RTOL = 1e-12

GRIDS = {f"g{seed}": (seed, 4, seed >= 3) for seed in range(5)}
#: verify-default rows whose optimum descends: three whose 14-15 starts all end
#: at one cost, and s131, s147 and s153, whose starts end at up to 1.7e-3 apart
DESCENT_SEEDS = (33, 71, 108, 131, 147, 153)


def rebuilt(instance, links=None, od_pairs=None, scale=1.0, alpha=None):
    """``instance`` built again from its links and O/D pairs, in the given
    orders, with a, h and b times ``scale`` and every pair's α set to
    ``alpha`` if given."""
    links = [dataclasses.replace(link, a=link.a * scale, h=link.h * scale, b=link.b * scale)
             for link in (instance.links if links is None else links)]
    od_pairs = instance.od_pairs if od_pairs is None else od_pairs
    if alpha is not None:
        od_pairs = [dataclasses.replace(od, alpha=alpha) for od in od_pairs]
    return sr.build_instance(instance.nodes, links, od_pairs, instance.path_cap)


def optimal_cost(instance):
    result = sr.system_optimal(instance)
    assert result.converged and not result.exact
    return result.potential_or_cost


def cases():
    return [
        *(pytest.param(lambda args=args: grid_instance(*args), id=name) for name, args in GRIDS.items()),
        *(pytest.param(lambda seed=seed: sr.random_instance(seed, sr.ShapeConfig()), id=f"s{seed}")
          for seed in DESCENT_SEEDS),
    ]


@pytest.mark.parametrize("make", cases())
def test_relabelled_and_rescaled(make):
    instance = make()
    cost = optimal_cost(instance)
    order = np.random.default_rng(1).permutation(instance.n_links)
    transformed = [
        (rebuilt(instance, links=[instance.links[i] for i in order]), cost),
        (rebuilt(instance, scale=7.3), 7.3 * cost),
    ]
    if len(instance.od_pairs) > 1:
        transformed.append((rebuilt(instance, od_pairs=instance.od_pairs[::-1]), cost))
    for other, expected in transformed:
        assert optimal_cost(other) == pytest.approx(expected, rel=COST_RTOL, abs=0.0)


@pytest.mark.parametrize("args", GRIDS.values(), ids=GRIDS.keys())
def test_grid_cost_falls_with_alpha(args):
    instance = grid_instance(*args)
    costs = [optimal_cost(rebuilt(instance, alpha=alpha)) for alpha in np.linspace(0.1, 0.9, 9)]
    assert all(later <= earlier for earlier, later in zip(costs, costs[1:])), costs
