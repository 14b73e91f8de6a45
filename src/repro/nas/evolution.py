"""Evolutionary submodel search (the Fig. 18 runtime baseline).

Standard OFA-style evolutionary search: maintain a population of
architectures, evaluate accuracy via the predictor and latency via the
distributed-execution simulator (over a small set of candidate plan
templates), keep the Pareto-feasible elite, and produce the next
generation by mutation + crossover.

This is exactly the "commonly used technique for finding submodels in a
supernet" the paper measures against its RL policy — and the reason the
comparison favors RL: a fresh evolutionary run per network-condition
change costs seconds-to-minutes while one policy forward pass costs
milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..netsim.topology import Cluster
from ..partition.plan import (ExecutionPlan, greedy_spatial_plan,
                              layerwise_split_plan, single_device_plan,
                              spatial_front_plan, spatial_plan)
from ..partition.simulate import simulate_latency
from ..partition.spatial import Grid
from .accuracy_model import plan_accuracy_penalty, strategy_accuracy
from .arch import ArchConfig, crossover_arch, mutate_arch, random_arch
from .graph_builder import build_graph
from .search_space import SearchSpace

__all__ = ["EvolutionConfig", "EvolutionResult", "candidate_plans",
           "evolutionary_search"]


@dataclass
class EvolutionConfig:
    population: int = 40
    generations: int = 12
    parent_fraction: float = 0.25
    mutate_prob: float = 0.5
    mutate_rate: float = 0.15
    seed: int = 0


@dataclass
class EvolutionResult:
    arch: Optional[ArchConfig]
    plan: Optional[ExecutionPlan]
    accuracy: float
    latency_s: float
    evaluations: int
    feasible: bool


def candidate_plans(graph, num_devices: int,
                    bits_options: Sequence[int] = (32, 8)) -> List[ExecutionPlan]:
    """Plan templates a (non-RL) searcher considers for one submodel:
    local-only, all-remote per device, best layer splits, and spatial
    grids over available devices.

    The templates depend only on the graph and ``num_devices``, never on
    link conditions, so searchers may build them once and reuse them.
    """
    plans: List[ExecutionPlan] = [single_device_plan(graph, 0)]
    n = num_devices
    for bits in bits_options:
        for remote in range(1, n):
            plans.append(layerwise_split_plan(graph, 0, remote=remote,
                                              bits=bits))
            mid = len(graph) // 3
            plans.append(layerwise_split_plan(graph, mid, remote=remote,
                                              bits=bits))
        if n >= 2:
            plans.append(spatial_plan(graph, Grid(1, 2), [0, 1], bits=bits))
            plans.append(spatial_front_plan(graph, Grid(1, 2), [0, 1],
                                            bits=bits))
        if n >= 3:
            plans.append(spatial_plan(graph, Grid(1, 2), [1, 2], bits=bits))
        if n >= 4:
            plans.append(spatial_plan(graph, Grid(2, 2), [0, 1, 2, 3],
                                      bits=bits))
            plans.append(spatial_front_plan(graph, Grid(2, 2), [0, 1, 2, 3],
                                            bits=bits))
        if n >= 5:
            plans.append(spatial_plan(graph, Grid(2, 2), [1, 2, 3, 4],
                                      bits=bits))
            plans.append(spatial_front_plan(graph, Grid(2, 2), [1, 2, 3, 4],
                                            bits=bits))
        # Larger swarms (Fig. 17) use larger grids; the paper's "1x2,
        # 2x2, etc." search space extends to the device count at hand.
        if n >= 6:
            devs = list(range(6))
            plans.append(spatial_plan(graph, Grid(2, 3), devs, bits=bits))
            plans.append(spatial_front_plan(graph, Grid(2, 3), devs,
                                            bits=bits))
        if n >= 9:
            devs = list(range(9))
            plans.append(spatial_plan(graph, Grid(3, 3), devs, bits=bits))
            plans.append(spatial_front_plan(graph, Grid(3, 3), devs,
                                            bits=bits))
        if n >= 2:
            plans.append(greedy_spatial_plan(graph, list(range(n)),
                                             bits=bits))
            if n >= 3:
                plans.append(greedy_spatial_plan(graph, list(range(1, n)),
                                                 bits=bits))
    return plans


def _evaluate(arch: ArchConfig, space: SearchSpace, cluster: Cluster,
              latency_slo_s: float,
              accuracy_fn: Callable[[ArchConfig], float],
              ) -> Tuple[float, float, Optional[ExecutionPlan], int]:
    """Best (accuracy, latency, plan) for one arch under the SLO.

    Returns (score, latency, plan, evals); infeasible archs score the
    negative latency slack so evolution can climb toward feasibility.
    """
    graph = build_graph(arch, space)
    base_acc = accuracy_fn(arch)
    best = (-np.inf, np.inf, None)
    evals = 0
    for plan in candidate_plans(graph, cluster.num_devices):
        rep = simulate_latency(graph, plan, cluster)
        evals += 1
        acc = base_acc - plan_accuracy_penalty(plan)
        if rep.total_s <= latency_slo_s and acc > best[0]:
            best = (acc, rep.total_s, plan)
        elif best[2] is None and -rep.total_s > best[0]:
            best = (-rep.total_s, rep.total_s, None)
    return best[0], best[1], best[2], evals


def evolutionary_search(space: SearchSpace, cluster: Cluster,
                        latency_slo_s: float,
                        accuracy_fn: Optional[Callable[[ArchConfig], float]] = None,
                        config: Optional[EvolutionConfig] = None,
                        ) -> EvolutionResult:
    """Search for the most accurate (arch, plan) meeting a latency SLO."""
    cfg = config or EvolutionConfig()
    rng = np.random.default_rng(cfg.seed)
    accuracy_fn = accuracy_fn or (lambda a: strategy_accuracy(a, space))

    population = [random_arch(space, rng) for _ in range(cfg.population)]
    total_evals = 0
    scored: List[Tuple[float, ArchConfig, float, Optional[ExecutionPlan]]] = []

    for _ in range(cfg.generations):
        scored = []
        for arch in population:
            score, lat, plan, evals = _evaluate(
                arch, space, cluster, latency_slo_s, accuracy_fn)
            total_evals += evals
            scored.append((score, arch, lat, plan))
        scored.sort(key=lambda t: t[0], reverse=True)
        n_parents = max(2, int(cfg.parent_fraction * cfg.population))
        parents = [s[1] for s in scored[:n_parents]]
        children: List[ArchConfig] = list(parents)
        while len(children) < cfg.population:
            if rng.random() < cfg.mutate_prob:
                base = parents[int(rng.integers(len(parents)))]
                children.append(mutate_arch(base, space, cfg.mutate_rate, rng))
            else:
                a = parents[int(rng.integers(len(parents)))]
                b = parents[int(rng.integers(len(parents)))]
                children.append(crossover_arch(a, b, rng))
        population = children

    best_score, best_arch, best_lat, best_plan = scored[0]
    feasible = best_plan is not None
    return EvolutionResult(
        arch=best_arch if feasible else None,
        plan=best_plan,
        accuracy=best_score if feasible else 0.0,
        latency_s=best_lat,
        evaluations=total_evals,
        feasible=feasible,
    )
