"""Model Selection and Partition Decision module (paper Sec. 5).

Two interchangeable engines:

* :class:`RLDecisionEngine` — wraps a trained LSTM policy; one greedy
  rollout per decision (milliseconds — the Fig. 18 fast path);
* :class:`SearchDecisionEngine` — training-free search over seed
  architectures x canonical plan templates (useful as a bootstrap and
  as an upper-bound reference in tests).  The candidate table is
  compiled once per engine and searched best-first, so a decision
  prices only the candidates that could still win, yet returns the
  strategy an exhaustive check of every candidate would.

Both return a :class:`~repro.core.strategy.Strategy` or ``None`` when no
checked strategy satisfies the SLO.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import attrgetter
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..devices.profiles import DeviceProfile
from ..models.graph import ModelGraph
from ..nas.accuracy_model import arch_accuracy, plan_accuracy_penalty
from ..nas.arch import ArchConfig, max_arch, min_arch, random_arch
from ..nas.evolution import candidate_plans
from ..nas.graph_builder import build_graph
from ..nas.search_space import SearchSpace
from ..netsim.topology import Cluster, NetworkCondition
from ..partition.plan import ExecutionPlan
from ..partition.simulate import simulate_latency
from ..rl.env import MurmurationEnv, Task
from ..rl.policy import LSTMPolicy
from .slo import SLO
from .strategy import Strategy

__all__ = ["DecisionRecord", "RLDecisionEngine", "SearchDecisionEngine"]


@dataclass(frozen=True)
class DecisionRecord:
    strategy: Optional[Strategy]
    decision_time_s: float
    engine: str


class RLDecisionEngine:
    """Greedy policy rollout -> strategy.

    When the policy's greedy choice misses the SLO, the engine falls
    back to the bootstrap seed strategies (min/max submodel per device)
    — the same safe trajectories training starts from — so a deployable
    strategy is returned whenever one exists in that safe set.  Disable
    with ``fallback=False`` to measure the raw policy (as the training
    evaluations do).
    """

    def __init__(self, env: MurmurationEnv, policy: LSTMPolicy,
                 fallback: bool = True):
        self.env = env
        self.policy = policy
        self.fallback = fallback

    def decide(self, slo: SLO, condition: NetworkCondition) -> DecisionRecord:
        t0 = time.perf_counter()
        if slo.kind != self.env.cfg.slo_kind:
            raise ValueError(
                f"engine trained for {self.env.cfg.slo_kind!r} SLOs, "
                f"got {slo.kind!r}")
        task = Task(slo.value, condition)
        context = self.env.encode_task(task)
        actions = self.policy.greedy_actions(context, self.env.schedule)
        outcome = self.env.evaluate_actions(actions, task)
        if not outcome.satisfied and self.fallback:
            outcome = self._best_seed(task, outcome)
        elapsed = time.perf_counter() - t0
        if not outcome.satisfied:
            return DecisionRecord(None, elapsed, "rl")
        strategy = Strategy(outcome.arch, outcome.plan, outcome.latency_s,
                            outcome.accuracy)
        return DecisionRecord(strategy, elapsed, "rl")

    def _best_seed(self, task: Task, fallback_outcome):
        from ..rl.common import bootstrap_actions

        best = fallback_outcome
        for actions in bootstrap_actions(self.env):
            out = self.env.evaluate_actions(actions, task)
            if out.satisfied and (not best.satisfied
                                  or out.reward > best.reward):
                best = out
        return best


class _Candidate(NamedTuple):
    """One compiled (arch, plan template) row of the search table."""

    arch: ArchConfig
    graph: ModelGraph
    plan: ExecutionPlan
    accuracy: float


class SearchDecisionEngine:
    """Best-first search of a compiled seed-arch x plan-template table.

    Graphs, plans and accuracies depend only on the architecture and the
    device count, never on the network condition, so ``__init__``
    compiles them once; plans are never mutated, so every decision
    shares them.  Only latency depends on the condition, and
    :meth:`decide` prices as few candidates as the SLO allows:

    * **latency SLO** — candidates are walked by descending accuracy
      (stable, so ties keep table order) and the first one within the
      bound is returned: the most accurate feasible candidate, the
      earliest among equals, which is exactly the exhaustive answer;
    * **accuracy SLO** — candidates below the floor are skipped without
      pricing; the rest are priced in table order and the strictly
      fastest wins, again the exhaustive answer.
    """

    def __init__(self, space: SearchSpace, devices: Sequence[DeviceProfile],
                 n_random_archs: int = 12, seed: int = 0):
        self.space = space
        self.devices = list(devices)
        rng = np.random.default_rng(seed)
        self.archs: List[ArchConfig] = [min_arch(space), max_arch(space)]
        self.archs += [random_arch(space, rng) for _ in range(n_random_archs)]
        table: List[_Candidate] = []
        for arch in self.archs:
            graph = build_graph(arch, space)
            base_acc = arch_accuracy(arch, space)
            for plan in candidate_plans(graph, len(self.devices)):
                table.append(_Candidate(
                    arch, graph, plan, base_acc - plan_accuracy_penalty(plan)))
        self._table: Tuple[_Candidate, ...] = tuple(table)
        self._by_accuracy: Tuple[_Candidate, ...] = tuple(sorted(
            table, key=attrgetter("accuracy"), reverse=True))

    def decide(self, slo: SLO, condition: NetworkCondition) -> DecisionRecord:
        t0 = time.perf_counter()
        cluster = Cluster(self.devices, condition)
        best: Optional[Strategy] = None
        if slo.kind == "latency":
            for c in self._by_accuracy:
                latency = simulate_latency(c.graph, c.plan, cluster).total_s
                if latency <= slo.value:
                    best = Strategy(c.arch, c.plan, latency, c.accuracy)
                    break
        else:
            for c in self._table:
                if c.accuracy < slo.value:
                    continue
                latency = simulate_latency(c.graph, c.plan, cluster).total_s
                if best is None or latency < best.expected_latency_s:
                    best = Strategy(c.arch, c.plan, latency, c.accuracy)
        return DecisionRecord(best, time.perf_counter() - t0, "search")
