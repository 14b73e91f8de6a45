"""The benchmark's seeded scenario workloads and their output checks.

Each workload runs one of the repository's scenario entry points on a
fixed simulated world and serves traffic drawn from the benchmark seed:

* ``tenants_fluid`` -- ``run_multi_tenant`` with three tenants, the
  fluid ingress solver and a static world, plus a seeded ingress
  capacity trace stepped by the event loop;
* ``drift_serving`` -- ``run_serving_load`` over a drifting random-walk
  network, so the strategy cache keeps missing;
* ``mesh_chaos`` -- ``run_mesh_chaos`` on the ring under link faults,
  with every variant recorded, written to JSONL, read back and checked.

The scenario config's own ``seed`` also draws the deployment -- the
decision engine's random architectures, the static network level, the
drift walk, the flap realisation -- and across scenario seeds that
changes the host work per request by up to 3x and the compliance from
0.22 to 0.74.  So the world stays at the scenario default
(``WORLD_SEED``) and ``--seed`` draws what a deployment does not
choose: the traffic (rates, bursts), the uplink capacity trace and the
fault windows.  Every workload pins ``decision_time_s``, so host speed
never leaks into simulated time.
"""

from __future__ import annotations

import hashlib
import io
import math
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.eval import replay
from repro.eval.mesh_chaos import MeshChaosConfig, run_mesh_chaos
from repro.eval.multi_tenant import (MultiTenantConfig, TenantSpec,
                                     run_multi_tenant, tenant_arrivals)
from repro.eval.serving_load import ServingLoadConfig, run_serving_load
from repro.telemetry import Telemetry
from repro.telemetry import recorder as recorder_mod

#: the scenario default; draws the deployment, not the traffic
WORLD_SEED = 0
OUTCOMES = ("ok", "retried", "degraded", "failed", "shed")


@dataclass
class Variant:
    """One variant's simulated requests across a pass."""

    records: list = field(default_factory=list)
    slo_s: float = 0.0
    #: reasons this variant's output is wrong (empty = correct)
    problems: List[str] = field(default_factory=list)

    def digest(self) -> str:
        """SHA-256 over every request's arrival, start, finish, outcome
        and tenant, floats written by ``repr``."""
        h = hashlib.sha256()
        for r in self.records:
            h.update(f"{float(r.arrival)!r} {float(r.start)!r} "
                     f"{float(r.finish)!r} {r.outcome} {r.tenant}\n"
                     .encode())
        return h.hexdigest()

    def e2e_ok(self) -> int:
        """Requests answered within the SLO end to end (shed and failed
        requests are misses)."""
        return sum(bool(r.outcome not in ("failed", "shed")
                        and r.finish - r.arrival <= self.slo_s)
                   for r in self.records)


@dataclass
class Pass:
    """Everything one pass of a workload produced."""

    variants: Dict[str, Variant]
    #: per-layer counts the scenario reports expose
    counts: Dict[str, float] = field(default_factory=dict)


def _check_conservation(v: Variant, attempted: int) -> None:
    """attempted = completed + shed + failed, with known outcomes."""
    outcomes = [r.outcome for r in v.records]
    unknown = sorted(set(outcomes) - set(OUTCOMES))
    if unknown:
        v.problems.append(f"unknown outcomes {unknown}")
    completed = sum(o in ("ok", "retried", "degraded") for o in outcomes)
    shed = outcomes.count("shed")
    failed = outcomes.count("failed")
    if len(outcomes) != attempted or completed + shed + failed != attempted:
        v.problems.append(
            f"attempted {attempted} != completed {completed} + shed "
            f"{shed} + failed {failed} ({len(outcomes)} records)")


# -- tenants_fluid ----------------------------------------------------------

#: uplink capacity cells (Mbps), one per second.  The floor keeps the
#: fifo backlog bounded: a 40 -> 10 Mbps step once made an 800-request
#: run take 167 s with 547 uploads in flight.
INGRESS_MBPS = (25.0, 30.0, 40.0, 50.0, 60.0)
INGRESS_PERIOD_S = 1.0


def tenants_fluid_inputs(seed: int, requests: int) -> dict:
    """Three tenants, the first bursting; rates, burst, payloads and the
    uplink capacity trace are drawn from ``seed``.

    Payloads differ per tenant (224-288 KB), so concurrent uploads
    finish at different instants and the solver re-converges at each;
    equal payloads admitted together finish together in one segment.
    The capacity trace spans the arrivals: in fifo overload the
    uploads queued behind it are then admitted together, 200-300 in
    flight, which is the regime the solver's cost grows with.
    """
    rng = np.random.default_rng([seed, 1])
    burst_t0 = float(rng.uniform(3.0, 5.0))
    rates = rng.uniform(3.6, 4.4, 3)
    payloads = rng.uniform(224.0, 288.0, 3)
    specs = [TenantSpec("burst", rate_hz=float(rates[0]),
                        payload_kb=float(payloads[0]),
                        burst_window=(burst_t0, burst_t0 + 4.0),
                        burst_factor=float(rng.uniform(7.0, 9.0)))]
    specs += [TenantSpec(f"steady-{k}", rate_hz=float(rates[k]),
                         payload_kb=float(payloads[k])) for k in (1, 2)]
    cfg = MultiTenantConfig(tenants=tuple(specs), num_requests=requests,
                            fluid=True, trace_steps=1, seed=WORLD_SEED)
    arrivals, _ = tenant_arrivals(cfg)
    cells = int(math.ceil(arrivals[-1] / INGRESS_PERIOD_S)) + 1
    trace = [float(x) for x in rng.choice(INGRESS_MBPS, cells)]
    return {"cfg": cfg, "trace": trace}


def tenants_fluid_pass(inputs: dict) -> Pass:
    cfg = inputs["cfg"]
    reports = run_multi_tenant(cfg, ingress_step_mbps=inputs["trace"],
                               ingress_step_period_s=INGRESS_PERIOD_S)
    variants = {}
    for name, rep in reports.items():
        v = Variant(list(rep.stats.records), rep.slo_s)
        _check_conservation(v, cfg.num_requests)
        variants[name] = v
    fluid = [rep.tracker.stats() for rep in reports.values()]
    return Pass(variants, {
        "fluid.peak_flows": max(s["peak_share"] for s in fluid),
        "fluid.segments": sum(s["segments"] for s in fluid)})


# -- drift_serving -----------------------------------------------------------

def drift_serving_inputs(seed: int, requests: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    rate = float(rng.uniform(9.0, 11.0))
    period = float(rng.uniform(0.225, 0.275))
    # the drift walk covers twice the arrival span, so the world keeps
    # moving (and the cache keeps missing) however long the run
    steps = int(math.ceil(2.0 * requests / rate / period)) + 1
    return {"cfg": ServingLoadConfig(
        num_requests=requests, arrival_rate_hz=rate, trace_steps=steps,
        trace_period_s=period, seed=WORLD_SEED)}


def drift_serving_pass(inputs: dict) -> Pass:
    cfg = inputs["cfg"]
    variants = {}
    for name, rep in run_serving_load(cfg).items():
        v = Variant(list(rep.stats.records), cfg.slo_ms / 1e3)
        _check_conservation(v, cfg.num_requests)
        variants[name] = v
    return Pass(variants)


# -- mesh_chaos --------------------------------------------------------------

def mesh_chaos_inputs(seed: int, requests: int) -> dict:
    """Faults keep their default spans (1.5-15.5 s simulated) shifted by
    up to half a second; the arrival rate rises with the request count
    so the fault windows still cover the run."""
    rng = np.random.default_rng([seed, 3])
    shift = rng.uniform(-0.5, 0.5, 3)
    rate = 4.0 * requests / 60.0 * float(rng.uniform(0.9, 1.1))
    return {"cfg": MeshChaosConfig(
        topology="ring", num_requests=requests, arrival_rate_hz=rate,
        link_fail_window=(1.5 + shift[0], 8.0 + shift[0]),
        flap_window=(8.5 + shift[1], 12.5 + shift[1]),
        blast_window=(13.0 + shift[2], 15.5 + shift[2]),
        seed=WORLD_SEED)}


def mesh_chaos_pass(inputs: dict) -> Pass:
    cfg = inputs["cfg"]
    reports = run_mesh_chaos(cfg, telemetry=Telemetry(), record=True)
    variants = {}
    for name, rep in reports.items():
        v = Variant(list(rep.stats.records), cfg.slo_ms / 1e3)
        _check_conservation(v, cfg.num_requests)
        variants[name] = v
    # JSONL round trip: the recorder's write path, replay's read path
    buf = io.StringIO()
    recorder_mod.write_recordings(
        buf, [rep.recorder for rep in reports.values()])
    text = buf.getvalue()
    for rec in recorder_mod.read_recordings(io.StringIO(text)):
        v = variants[rec.variant]
        v.problems.extend(replay.verify_invariants(rec))
        replayed = Variant(replay.replay_stats(rec).records)
        if replayed.digest() != v.digest():
            v.problems.append("replayed records differ from the live run")
    return Pass(variants, {
        "mesh.reroutes": sum(rep.reroutes for rep in reports.values()),
        "faults.retries": sum(rep.retries for rep in reports.values()),
        "faults.failovers": sum(rep.failovers for rep in reports.values()),
        "recorder.bytes": len(text.encode())})


@dataclass(frozen=True)
class Workload:
    name: str
    #: requests per variant, by ``--size``
    requests: Dict[str, int]
    inputs: Callable[[int, int], dict]
    run: Callable[[dict], Pass]
    variants: tuple


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("tenants_fluid", {"full": 600, "smoke": 120},
             tenants_fluid_inputs, tenants_fluid_pass,
             ("fifo", "admission", "fair")),
    Workload("drift_serving", {"full": 60, "smoke": 30},
             drift_serving_inputs, drift_serving_pass,
             ("fifo", "batched", "batched-serial")),
    Workload("mesh_chaos", {"full": 120, "smoke": 60},
             mesh_chaos_inputs, mesh_chaos_pass,
             ("murmuration", "no-failover", "no-reroute")),
)}


def run_checked(workload: Workload, inputs: dict) -> Optional[Pass]:
    """One pass; None when the scenario raised (every request failed)."""
    try:
        return workload.run(inputs)
    except Exception:  # noqa: BLE001 -- a failed pass is a reported result
        traceback.print_exc()
        return None
