"""Leader-follower play with the mixed-autonomy SCALE strategy.

The leader commits an alpha fraction of the system-optimal flow on every
path; the human class then settles into the induced Wardrop equilibrium on
the residual demand. Induced costs assign the leader flow to the autonomous
latency coefficient and the follower flow to the human one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import AlphaOutOfRange, HeterogeneousAlpha, NotConverged
from .model import ClassFlow, GameInstance, _social_cost, social_cost
from .solvers import EquilibriumResult, SolverConfig, follower_equilibrium, system_optimal, wardrop_gap

_ALPHA_UNIFORM_TOL = 1e-12
_MEASURE_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class StackelbergOutcome:
    """Everything measured in one leader-follower play.

    ``empirical_poa`` is induced over optimal social cost; it is only a
    certified lower bound of 1 when ``optimum_certified`` is set (by an
    external oracle), since the optimum solver certifies block-wise
    optimality only.
    """

    instance: GameInstance
    alpha: float
    optimal_flow: ClassFlow
    leader_path_flows: np.ndarray
    leader_link_flows: np.ndarray
    follower_flow: ClassFlow
    optimal_cost: float
    induced_cost: float
    empirical_poa: float
    wardrop_gap: float
    optimum_certified: bool
    optimal_result: EquilibriumResult
    follower_result: EquilibriumResult

    def certified(self) -> "StackelbergOutcome":
        return replace(self, optimum_certified=True)


@dataclass(frozen=True, eq=False)
class LinkMeasurement:
    """Per-link ratios of the played game, with degeneracy flags.

    gamma: optimal over induced total flow; beta: relative latency excess of
    the induced flow; alpha_star: autonomous share of the optimal flow.
    Entries are NaN where the defining denominator is below the floor, with
    the matching ``*_defined`` mask cleared.
    """

    gamma: np.ndarray
    beta: np.ndarray
    alpha_star: np.ndarray
    gamma_defined: np.ndarray
    beta_defined: np.ndarray
    alpha_star_defined: np.ndarray


def scale_strategy(optimal_flow: ClassFlow, alpha: float) -> np.ndarray:
    """Leader path flows: an alpha fraction of the optimal total on each path."""
    if not 0.0 < alpha < 1.0:
        raise AlphaOutOfRange(f"alpha = {alpha} must lie in (0, 1)")
    return alpha * (optimal_flow.path_flows_a + optimal_flow.path_flows_h)


def _uniform_alpha(instance: GameInstance) -> float:
    alphas = instance.alphas
    if alphas.max() - alphas.min() > _ALPHA_UNIFORM_TOL:
        raise HeterogeneousAlpha(
            f"O/D autonomy fractions must be uniform, got range "
            f"[{alphas.min()}, {alphas.max()}]"
        )
    return float(alphas[0])


def play(instance: GameInstance, config: SolverConfig = SolverConfig()) -> StackelbergOutcome:
    """Solve the optimum, commit the SCALE leader flow, induce the follower.

    Requires a uniform O/D autonomy fraction in (0, 1). Raises NotConverged
    (carrying no partial outcome beyond the solver result) if either solve
    misses its gap tolerance; deterministic given (instance, config.seed).
    """
    alpha = _uniform_alpha(instance)
    if not 0.0 < alpha < 1.0:
        raise AlphaOutOfRange(f"alpha = {alpha} must lie in (0, 1)")

    opt = system_optimal(instance, config)
    if not opt.converged:
        raise NotConverged(
            f"system optimum not converged (gap {opt.relative_gap:.3e})", result=opt
        )
    s_path = scale_strategy(opt.flow, alpha)
    s_link = instance.link_flows(s_path)

    follower = follower_equilibrium(instance, s_link, config)
    if not follower.converged:
        raise NotConverged(
            f"induced equilibrium not converged (gap {follower.relative_gap:.3e})",
            result=follower,
        )
    t_link = follower.flow.link_flows_h

    optimal_cost = social_cost(instance, opt.flow)
    induced_cost = _social_cost(instance, s_link, t_link)  # both built from checked path flows
    gap = wardrop_gap(instance, s_link, follower.flow.path_flows_h)
    return StackelbergOutcome(
        instance=instance,
        alpha=alpha,
        optimal_flow=opt.flow,
        leader_path_flows=s_path,
        leader_link_flows=s_link,
        follower_flow=follower.flow,
        optimal_cost=optimal_cost,
        induced_cost=induced_cost,
        empirical_poa=induced_cost / optimal_cost,
        wardrop_gap=gap,
        optimum_certified=False,
        optimal_result=opt,
        follower_result=follower,
    )


def measure_links(outcome: StackelbergOutcome) -> LinkMeasurement:
    """Per-link flow and latency ratios of a played game, on ``outcome.instance``.

    Links whose induced flow, induced latency, or optimal flow vanish are
    flagged undefined rather than assigned sentinel ratios.
    """
    instance = outcome.instance
    opt_total = outcome.optimal_flow.total_link_flows
    induced_total = outcome.leader_link_flows + outcome.follower_flow.link_flows_h
    e_induced = instance.link_latencies(
        outcome.leader_link_flows, outcome.follower_flow.link_flows_h
    )
    e_opt = instance.link_latencies(
        outcome.optimal_flow.link_flows_a, outcome.optimal_flow.link_flows_h
    )

    gamma_defined = induced_total > _MEASURE_FLOOR
    beta_defined = e_induced > _MEASURE_FLOOR
    alpha_star_defined = opt_total > _MEASURE_FLOOR

    gamma = np.full(instance.n_links, np.nan)
    beta = np.full(instance.n_links, np.nan)
    alpha_star = np.full(instance.n_links, np.nan)
    np.divide(opt_total, induced_total, out=gamma, where=gamma_defined)
    np.divide(e_induced - e_opt, e_induced, out=beta, where=beta_defined)
    np.divide(outcome.optimal_flow.link_flows_a, opt_total, out=alpha_star, where=alpha_star_defined)
    return LinkMeasurement(
        gamma=gamma,
        beta=beta,
        alpha_star=alpha_star,
        gamma_defined=gamma_defined,
        beta_defined=beta_defined,
        alpha_star_defined=alpha_star_defined,
    )
