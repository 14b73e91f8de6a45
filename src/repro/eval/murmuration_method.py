"""Murmuration's strategy choice for the system-level figures.

Figures 13-17 evaluate the *deployed* system: a converged policy picking
(submodel, plan) per condition.  Two interchangeable evaluators:

* :class:`MurmurationOracle` — exhaustive search over a deterministic
  lattice of submodels x canonical plan templates.  This is the
  converged-policy proxy the default benchmarks use: the paper's RL
  policy approaches this choice after 20k training steps (Fig. 11), and
  the oracle is deterministic/seed-free, which keeps figure regeneration
  stable.
* :func:`policy_method` — wraps an actually trained
  :class:`~repro.rl.policy.LSTMPolicy` (use after running the Fig. 11
  training benches) for an end-to-end-learned variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.slo import SLO
from ..core.strategy import Strategy
from ..nas.accuracy_model import arch_accuracy, plan_accuracy_penalty
from ..nas.arch import ArchConfig
from ..nas.evolution import candidate_plans
from ..nas.graph_builder import build_graph
from ..nas.search_space import SearchSpace
from ..netsim.topology import Cluster, NetworkCondition
from ..partition.simulate import simulate_latency
from ..rl.env import MurmurationEnv, Task

__all__ = ["MurmurationOracle", "policy_method", "lattice_archs"]


def lattice_archs(space: SearchSpace) -> List[ArchConfig]:
    """A deterministic sweep of submodels: every (resolution, depth
    level, kernel level, expand level) combination, uniform per stage."""
    out = []
    slots = space.num_stages * space.max_depth
    for res, d, k, e in product(space.resolution_options,
                                space.depth_options,
                                space.kernel_options,
                                space.expand_options):
        out.append(ArchConfig(
            resolution=res,
            depths=(d,) * space.num_stages,
            kernels=(k,) * slots,
            expands=(e,) * slots,
        ))
    return out


class MurmurationOracle:
    """Exhaustive (lattice arch) x (plan template) strategy selection."""

    def __init__(self, space: SearchSpace, devices: Sequence,
                 archs: Optional[List[ArchConfig]] = None):
        self.space = space
        self.devices = list(devices)
        self.archs = archs if archs is not None else lattice_archs(space)
        # Graphs, plans and accuracies depend only on the arch and the
        # device count, so they are built once; only latency is priced
        # per call.
        self._graphs = [build_graph(a, space) for a in self.archs]
        self._accs = [arch_accuracy(a, space) for a in self.archs]
        self._plans = [candidate_plans(g, len(self.devices))
                       for g in self._graphs]

    def decide(self, slo: SLO, condition: NetworkCondition,
               ) -> Optional[Strategy]:
        cluster = Cluster(self.devices, condition)
        best: Optional[Strategy] = None
        for arch, graph, base_acc, plans in zip(
                self.archs, self._graphs, self._accs, self._plans):
            for plan in plans:
                latency = simulate_latency(graph, plan, cluster).total_s
                acc = base_acc - plan_accuracy_penalty(plan)
                if not slo.satisfied_by(latency, acc):
                    continue
                if best is None:
                    better = True
                elif slo.kind == "latency":
                    better = (acc, -latency) > (best.expected_accuracy,
                                                -best.expected_latency_s)
                else:
                    better = (-latency, acc) > (-best.expected_latency_s,
                                                best.expected_accuracy)
                if better:
                    best = Strategy(arch, plan, latency, acc)
        return best


def policy_method(env: MurmurationEnv, policy) -> Callable[
        [SLO, NetworkCondition], Optional[Strategy]]:
    """Wrap a trained policy as a figure-driver decision function."""

    def decide(slo: SLO, condition: NetworkCondition) -> Optional[Strategy]:
        if slo.kind != env.cfg.slo_kind:
            raise ValueError("policy trained for a different SLO kind")
        task = Task(slo.value, condition)
        actions = policy.greedy_actions(env.encode_task(task), env.schedule)
        outcome = env.evaluate_actions(actions, task)
        if not outcome.satisfied:
            return None
        return Strategy(outcome.arch, outcome.plan, outcome.latency_s,
                        outcome.accuracy)

    return decide
