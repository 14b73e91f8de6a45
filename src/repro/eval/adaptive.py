"""Adaptive-control scenario: static vs. controlled serving under stress.

Serves one seeded request stream through the batched pipeline twice over
the *same* world — a drifting mobility trace plus an overload burst in
the middle of the run — differing only in the ``control=`` parameter:

* ``static`` — ``control=None``: the construction-time cache
  granularity and batch policy hold for the whole run, and every
  request is admitted no matter how hopeless its deadline;
* ``controlled`` — a :class:`~repro.control.ControlLoop` stacking all
  four controllers: cache granularity retuning, batch-policy
  adaptation, SLO-aware admission (shed/degrade), and drift-directed
  cache precompute.

The burst is what separates them.  A static pipeline admits everything,
the queue grows without bound, and every request in and after the burst
finishes long past its deadline — per-request execution latency still
looks fine, which is exactly why the headline metric here is
:meth:`~repro.runtime.server.ServingStats.e2e_compliance` (queueing
included, sheds counted against).  The controlled pipeline sheds the
requests that cannot be saved and serves the borderline ones degraded
(min submodel, zero decision cost), so the queue drains and the stream
recovers.

Decision cost is pinned (``decision_time_s``) exactly as in
``serving_load``: the whole scenario is a pure function of its seeds.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..control import (AdmissionController, BatchPolicyController,
                       CacheGranularityController, ControlLoop,
                       PrecomputeScheduler)
from ..core.decision import SearchDecisionEngine
from ..core.murmuration import Murmuration
from ..core.slo import SLO
from ..devices.profiles import desktop_gtx1080, jetson_class, rpi4
from ..nas.search_space import MBV3_SPACE
from ..netsim.topology import NetworkCondition
from ..netsim.traces import TraceConfig, mobility_trace
from ..runtime.batching import BatchingInferenceServer, BatchPolicy
from ..runtime.server import ServingStats
from ..telemetry.recorder import RunRecorder
from .serving_load import _PinnedTimeEngine

__all__ = ["AdaptiveConfig", "AdaptiveReport", "burst_arrival_process",
           "run_adaptive", "format_adaptive"]


@dataclass(frozen=True)
class AdaptiveConfig:
    """One static-vs-controlled run (simulated seconds unless noted)."""

    num_requests: int = 240
    #: baseline arrival rate; sized so the pipeline keeps up off-burst
    arrival_rate_hz: float = 8.0
    #: burst window (simulated seconds) and rate multiplier inside it
    burst_window: tuple = (4.0, 6.0)
    burst_factor: float = 5.0
    slo_ms: float = 300.0
    seed: int = 0
    max_batch: int = 4
    #: fixed per-miss decision cost (None = measure wall clock;
    #: forfeits byte-reproducibility)
    decision_time_s: Optional[float] = 0.04
    #: drifting world: sinusoidal mobility keeps the cache under
    #: pressure and gives the precompute scheduler a signal
    trace_steps: int = 120
    trace_period_s: float = 0.25
    n_random_archs: int = 8
    #: control cadence (simulated seconds between ticks)
    control_period_s: float = 0.5


@dataclass
class AdaptiveReport:
    """Per-variant outcome of an adaptive run."""

    name: str
    stats: ServingStats
    slo_s: float
    #: the loop steering this variant (None for static)
    control: Optional[ControlLoop] = None
    #: populated when the run was captured (``record=True``)
    recorder: Optional[RunRecorder] = None

    @property
    def e2e_compliance(self) -> float:
        """Deployment-facing compliance: end-to-end, sheds counted."""
        return self.stats.e2e_compliance(self.slo_s)

    @property
    def shed(self) -> int:
        return self.stats.shed_count

    @property
    def degraded(self) -> int:
        return self.stats.outcome_counts().get("degraded", 0)


def burst_arrival_process(rate_hz: float, window: tuple,
                          factor: float) -> Callable:
    """Piecewise-Poisson arrivals: ``rate_hz``, times ``factor`` inside
    ``window``.  The rate applying to each gap is the rate at the gap's
    start, so the process is a pure function of the rng stream.
    """
    if rate_hz <= 0:
        raise ValueError(f"rate_hz must be positive, got {rate_hz}")
    if factor <= 0:
        raise ValueError(f"factor must be positive, got {factor}")
    t0, t1 = window

    def process(rng: np.random.Generator, n: int) -> np.ndarray:
        t = 0.0
        out = np.empty(n)
        for i in range(n):
            r = rate_hz * factor if t0 <= t < t1 else rate_hz
            t += float(rng.exponential(1.0 / r))
            out[i] = t
        return out

    return process


def default_controllers() -> List:
    """The standard four-controller stack, scenario-tuned.

    The batch cap stays modest (8): this workload's per-item execution
    dominates its decision cost, so giant batches would trade a few
    amortized decision milliseconds for serialization delay that blows
    deadlines.
    """
    return [
        CacheGranularityController(),
        BatchPolicyController(max_batch=8),
        AdmissionController(),
        PrecomputeScheduler(),
    ]


def _make_system(cfg: AdaptiveConfig, control=None,
                 telemetry=None, recorder=None) -> Murmuration:
    devices = [rpi4(), desktop_gtx1080(), jetson_class()]
    condition = NetworkCondition((150.0, 80.0), (10.0, 20.0))
    engine = SearchDecisionEngine(MBV3_SPACE, devices,
                                  n_random_archs=cfg.n_random_archs,
                                  seed=cfg.seed)
    if cfg.decision_time_s is not None:
        engine = _PinnedTimeEngine(engine, cfg.decision_time_s)
    return Murmuration(MBV3_SPACE, devices, condition, engine,
                       slo=SLO.latency_ms(cfg.slo_ms), use_predictor=False,
                       monitor_noise=0.02, seed=cfg.seed,
                       telemetry=telemetry, control=control,
                       recorder=recorder)


def _trace(cfg: AdaptiveConfig):
    return mobility_trace(TraceConfig(
        num_remote=2, bw_range=(40.0, 400.0), delay_range=(5.0, 60.0),
        steps=cfg.trace_steps, seed=cfg.seed))


def run_adaptive(cfg: AdaptiveConfig = AdaptiveConfig(),
                 telemetry=None,
                 controllers=None,
                 record: bool = False) -> Dict[str, AdaptiveReport]:
    """Run both variants on the identical world; keyed by name.

    ``telemetry`` (optional) instruments only the controlled variant —
    one registry across both would conflate their counters — and also
    feeds the control loop's snapshot error signal.  ``controllers``
    (optional) overrides :func:`default_controllers` for ablations.
    ``record=True`` captures each variant into a
    :class:`~repro.telemetry.recorder.RunRecorder` for byte-stable
    replay (scenario name ``adaptive``).
    """
    trace = _trace(cfg)
    arrivals = burst_arrival_process(cfg.arrival_rate_hz,
                                     cfg.burst_window, cfg.burst_factor)
    slo_s = cfg.slo_ms / 1e3
    reports: Dict[str, AdaptiveReport] = {}
    for name in ("static", "controlled"):
        control = None
        tel = None
        if name == "controlled":
            tel = telemetry
            control = ControlLoop(
                controllers if controllers is not None
                else default_controllers(),
                period_s=cfg.control_period_s, telemetry=tel)
        rec = (RunRecorder("adaptive", variant=name,
                           config=asdict(cfg)) if record else None)
        system = _make_system(cfg, control=control, telemetry=tel,
                              recorder=rec)
        server = BatchingInferenceServer(
            system, arrival_rate_hz=cfg.arrival_rate_hz,
            policy=BatchPolicy(max_batch=cfg.max_batch, overlap=True),
            seed=cfg.seed + 1, telemetry=tel, control=control,
            recorder=rec, arrival_process=arrivals)
        stats = server.run(num_requests=cfg.num_requests,
                           condition_trace=trace,
                           trace_period_s=cfg.trace_period_s)
        if control is not None:
            control.detach()
        if rec is not None:
            if tel is not None:
                rec.capture_timelines(tel.timelines)
            rec.finish(stats)
        reports[name] = AdaptiveReport(name=name, stats=stats,
                                       slo_s=slo_s, control=control,
                                       recorder=rec)
    return reports


def format_adaptive(reports: Dict[str, AdaptiveReport]) -> str:
    lines = [f"{'variant':>12s}{'e2e-comply':>11s}{'p95ms':>8s}"
             f"{'queue':>8s}{'shed':>6s}{'degr':>6s}{'batch':>7s}"]
    for rep in reports.values():
        st = rep.stats
        size = (f"{st.mean_batch_size:.1f}"
                if hasattr(st, "mean_batch_size") else "-")
        lines.append(
            f"{rep.name:>12s}{rep.e2e_compliance:>11.0%}"
            f"{st.percentile_ms(95):>8.0f}{st.mean_queue_wait_ms:>8.0f}"
            f"{rep.shed:>6d}{rep.degraded:>6d}{size:>7s}")
        if rep.control is not None:
            lines.append(f"             control: {rep.control.summary()}")
    return "\n".join(lines)
