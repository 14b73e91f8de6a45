"""Differential test: compiled best-first search vs the exhaustive loop.

``exhaustive_decide`` is the search ``SearchDecisionEngine`` ran before
its candidate table was compiled: rebuild every graph and plan, price
every candidate, keep the best.  It lives here only as the reference;
the engine must return the identical strategy while pricing far fewer
candidates.
"""

from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.decision as decision_module
from repro.core import SLO, SearchDecisionEngine, Strategy
from repro.devices import desktop_gtx1080, jetson_class, rpi4
from repro.nas import MBV3_SPACE
from repro.nas.accuracy_model import arch_accuracy, plan_accuracy_penalty
from repro.nas.evolution import candidate_plans
from repro.nas.graph_builder import build_graph
from repro.netsim import Cluster, NetworkCondition
from repro.partition import simulate_latency

#: every branch of ``candidate_plans`` (1x2, 2x2, 2x3, 3x3, greedy)
DEVICE_COUNTS = (1, 2, 3, 4, 5, 6, 9)
PROFILES = (rpi4, desktop_gtx1080, jetson_class)


def exhaustive_decide(engine: SearchDecisionEngine, slo: SLO,
                      condition: NetworkCondition) -> Optional[Strategy]:
    """Reference: price every (arch, plan template) candidate."""
    cluster = Cluster(engine.devices, condition)
    best: Optional[Strategy] = None
    for arch in engine.archs:
        graph = build_graph(arch, engine.space)
        base_acc = arch_accuracy(arch, engine.space)
        for plan in candidate_plans(graph, cluster.num_devices):
            rep = simulate_latency(graph, plan, cluster)
            acc = base_acc - plan_accuracy_penalty(plan)
            if not slo.satisfied_by(rep.total_s, acc):
                continue
            if best is None:
                better = True
            elif slo.kind == "latency":
                better = acc > best.expected_accuracy
            else:
                better = rep.total_s < best.expected_latency_s
            if better:
                best = Strategy(arch, plan, rep.total_s, acc)
    return best


def assert_same_strategy(got: Optional[Strategy],
                         want: Optional[Strategy]) -> None:
    assert (got is None) == (want is None)
    if want is None:
        return
    assert got.arch == want.arch
    assert ([(bp.grid, bp.devices, bp.bits) for bp in got.plan]
            == [(bp.grid, bp.devices, bp.bits) for bp in want.plan])
    assert got.plan.output_device == want.plan.output_device
    assert got.expected_latency_s == want.expected_latency_s
    assert got.expected_accuracy == want.expected_accuracy


_ENGINES = {}


def _engine(kinds, n_random_archs: int, seed: int) -> SearchDecisionEngine:
    key = (kinds, n_random_archs, seed)
    if key not in _ENGINES:
        devices = [rpi4()] + [PROFILES[k]() for k in kinds]
        _ENGINES[key] = SearchDecisionEngine(
            MBV3_SPACE, devices, n_random_archs=n_random_archs, seed=seed)
    return _ENGINES[key]


@st.composite
def cases(draw):
    n = draw(st.sampled_from(DEVICE_COUNTS))
    kinds = tuple(draw(st.lists(st.integers(0, len(PROFILES) - 1),
                                min_size=n - 1, max_size=n - 1)))
    link = st.floats(1.0, 1000.0, allow_nan=False)
    delay = st.floats(0.0, 200.0, allow_nan=False)
    condition = NetworkCondition(
        tuple(draw(link) for _ in range(n - 1)),
        tuple(draw(delay) for _ in range(n - 1)))
    if draw(st.booleans()):
        # log-uniform 1 ms .. 2 s: from nothing feasible to everything
        slo = SLO.latency(10 ** draw(st.floats(-3.0, 0.3)))
    else:
        # above ~79 % nothing is accurate enough
        slo = SLO.accuracy(draw(st.floats(70.0, 81.0)))
    engine = _engine(kinds, draw(st.integers(0, 2)),
                     draw(st.integers(0, 2**16)))
    return engine, slo, condition


@settings(max_examples=60, deadline=None)
@given(cases())
def test_best_first_matches_exhaustive(case):
    engine, slo, condition = case
    got = engine.decide(slo, condition).strategy
    assert_same_strategy(got, exhaustive_decide(engine, slo, condition))


@pytest.mark.parametrize("n", DEVICE_COUNTS)
@pytest.mark.parametrize("slo", [SLO.latency_ms(0.5), SLO.latency_ms(150),
                                 SLO.latency_ms(400), SLO.accuracy(74.0),
                                 SLO.accuracy(77.5), SLO.accuracy(90.0)],
                         ids=str)
def test_every_device_count_matches_exhaustive(n, slo):
    engine = _engine((1,) + (0,) * (n - 2) if n > 1 else (), 3, 0)
    condition = NetworkCondition.uniform(n - 1, 60.0, 25.0)
    got = engine.decide(slo, condition).strategy
    assert_same_strategy(got, exhaustive_decide(engine, slo, condition))


@pytest.mark.parametrize("slo", [SLO.latency(60.0), SLO.latency_ms(30),
                                 SLO.accuracy(74.0)], ids=str)
def test_ties_resolve_to_the_earliest_candidate(slo):
    """Twin remote GPUs on identical links make every plan on one twin
    tie with its mirror on the other; the exhaustive loop keeps the
    earlier one, and so must the best-first search."""
    engine = _engine((1, 1), 3, 0)
    condition = NetworkCondition.uniform(2, 500.0, 5.0)
    got = engine.decide(slo, condition).strategy
    assert_same_strategy(got, exhaustive_decide(engine, slo, condition))


@pytest.mark.parametrize("n", DEVICE_COUNTS)
def test_latency_bound_is_inclusive(n):
    """An SLO exactly at a candidate's latency admits that candidate."""
    engine = _engine((1,) + (0,) * (n - 2) if n > 1 else (), 3, 0)
    condition = NetworkCondition.uniform(n - 1, 60.0, 25.0)
    edge = exhaustive_decide(engine, SLO.latency_ms(300), condition)
    slo = SLO.latency(edge.expected_latency_s)
    got = engine.decide(slo, condition).strategy
    assert_same_strategy(got, exhaustive_decide(engine, slo, condition))
    assert got.expected_latency_s == slo.value


def _count_pricing(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return simulate_latency(*args)

    monkeypatch.setattr(decision_module, "simulate_latency", counted)
    return calls


def test_loose_latency_slo_prices_one_candidate(monkeypatch):
    engine = _engine((1,), 12, 0)
    calls = _count_pricing(monkeypatch)
    rec = engine.decide(SLO.latency(60.0), NetworkCondition((200.0,), (20.0,)))
    assert rec.strategy is not None
    assert len(calls) == 1


def test_accuracy_slo_skips_candidates_below_the_floor(monkeypatch):
    engine = _engine((1,), 12, 0)
    calls = _count_pricing(monkeypatch)
    slo = SLO.accuracy(77.0)
    rec = engine.decide(slo, NetworkCondition((200.0,), (20.0,)))
    assert rec.strategy is not None
    assert 0 < len(calls) == sum(c.accuracy >= slo.value
                                 for c in engine._table)
    assert len(calls) < len(engine._table)

