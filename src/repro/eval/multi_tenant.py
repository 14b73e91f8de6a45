"""Multi-tenant serving scenario: fairness under an asymmetric burst.

Several tenants share one serving gateway *and* one last-mile uplink
(:class:`~repro.netsim.contention.SharedIngress`): every request's
payload crosses the same wire before service can start, so concurrent
tenants fair-share its bandwidth through a
:class:`~repro.netsim.contention.ContentionTracker`.  One tenant bursts
(piecewise-Poisson, ``burst_factor`` x its base rate inside
``burst_window``); the others stay steady.

Three variants serve the *identical* merged request stream:

* ``fifo`` — no admission control: the burst fills the queue and every
  tenant's requests arriving behind it miss their deadlines — the
  burster starves the rest;
* ``admission`` — the tenant-blind
  :class:`~repro.control.AdmissionController`: deadline-only triage
  protects aggregate compliance but sheds whoever is late, which under
  an asymmetric burst is everyone *behind* the burster;
* ``fair`` — the :class:`~repro.control.TenantFairnessController`:
  per-tenant budgets shed the over-share tenant's requests first, so
  the headline metric —
  :meth:`~repro.runtime.server.ServingStats.worst_tenant_e2e_compliance`
  — recovers.

Decision cost is pinned (``decision_time_s``) exactly as in
``serving_load``: with ``record=True`` each variant's recording is a
byte-stable function of the config.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..control import (AdmissionController, ControlLoop,
                       TenantFairnessController)
from ..core.decision import SearchDecisionEngine
from ..core.murmuration import Murmuration
from ..core.slo import SLO
from ..devices.profiles import desktop_gtx1080, jetson_class, rpi4
from ..nas.search_space import MBV3_SPACE
from ..netsim.contention import ContentionTracker, SharedIngress
from ..netsim.fluid import FluidTracker
from ..netsim.link import Link
from ..netsim.topology import NetworkCondition
from ..netsim.traces import TraceConfig, mobility_trace
from ..runtime.server import InferenceServer, ServingStats
from ..sim import EventLoop, schedule_ingress_trace
from ..telemetry.recorder import RunRecorder
from .serving_load import _PinnedTimeEngine

__all__ = ["TenantSpec", "MultiTenantConfig", "MultiTenantReport",
           "default_tenants", "tenant_arrivals", "run_multi_tenant",
           "format_multi_tenant"]


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's traffic contract."""

    name: str
    #: base Poisson arrival rate
    rate_hz: float
    #: fair-share weight at admission (budget fraction)
    weight: float = 1.0
    #: request payload crossing the shared ingress
    payload_kb: float = 256.0
    #: optional overload burst: (t0, t1) simulated seconds
    burst_window: Optional[Tuple[float, float]] = None
    #: rate multiplier inside the burst window
    burst_factor: float = 1.0

    def __post_init__(self):
        if self.rate_hz <= 0:
            raise ValueError(f"rate_hz must be positive, got {self.rate_hz}")
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if self.burst_factor <= 0:
            raise ValueError(
                f"burst_factor must be positive, got {self.burst_factor}")


def default_tenants(n: int = 2) -> Tuple[TenantSpec, ...]:
    """``n`` tenants splitting the default load; the first one bursts."""
    if n < 1:
        raise ValueError(f"need at least one tenant, got {n}")
    specs = [TenantSpec("burst", rate_hz=4.0,
                        burst_window=(4.0, 8.0), burst_factor=8.0)]
    for k in range(1, n):
        name = "steady" if n == 2 else f"steady-{k}"
        specs.append(TenantSpec(name, rate_hz=4.0))
    return tuple(specs)


@dataclass(frozen=True)
class MultiTenantConfig:
    """One multi-tenant comparison run (simulated seconds unless noted)."""

    tenants: Tuple[TenantSpec, ...] = field(default_factory=default_tenants)
    num_requests: int = 240
    slo_ms: float = 300.0
    seed: int = 0
    #: fixed per-miss decision cost (None = measure wall clock;
    #: forfeits byte-reproducibility)
    decision_time_s: Optional[float] = 0.04
    trace_steps: int = 120
    trace_period_s: float = 0.25
    n_random_archs: int = 8
    control_period_s: float = 0.5
    #: the shared last-mile uplink all tenants upload over
    ingress_bw_mbps: float = 40.0
    ingress_delay_ms: float = 5.0
    #: False disables the flow tracker: uploads never contend
    contention: bool = True
    #: True prices the shared ingress with the fluid-flow (max-min)
    #: solver instead of the arrival-order snapshot tracker
    fluid: bool = False

    def __post_init__(self):
        if not self.tenants:
            raise ValueError("need at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names}")

    @staticmethod
    def from_dict(config: Dict[str, Any]) -> "MultiTenantConfig":
        """Rebuild from an ``asdict`` round trip (recording headers)."""
        cfg = dict(config)
        specs = []
        for t in cfg.pop("tenants", ()):
            t = dict(t)
            window = t.get("burst_window")
            if window is not None:
                t["burst_window"] = tuple(window)
            specs.append(TenantSpec(**t))
        return MultiTenantConfig(tenants=tuple(specs), **cfg)


@dataclass
class MultiTenantReport:
    """Per-variant outcome of a multi-tenant run."""

    name: str
    stats: ServingStats
    slo_s: float
    control: Optional[ControlLoop] = None
    tracker: Optional[ContentionTracker] = None
    recorder: Optional[RunRecorder] = None

    @property
    def e2e_compliance(self) -> float:
        return self.stats.e2e_compliance(self.slo_s)

    @property
    def worst_tenant_compliance(self) -> float:
        return self.stats.worst_tenant_e2e_compliance(self.slo_s)

    def tenant_compliance(self) -> Dict[str, float]:
        return {t: v.e2e_compliance(self.slo_s)
                for t, v in self.stats.per_tenant().items()}

    @property
    def shed(self) -> int:
        return self.stats.shed_count


def tenant_arrivals(cfg: MultiTenantConfig
                    ) -> Tuple[np.ndarray, List[str]]:
    """The merged request stream: arrival times + aligned tenant tags.

    Each tenant gets its own seeded piecewise-Poisson stream (rate
    ``rate_hz``, times ``burst_factor`` inside ``burst_window``); the
    streams are merge-sorted and truncated to ``num_requests``.  A pure
    function of the config — every variant (and every re-record) serves
    the identical stream.
    """
    merged: List[Tuple[float, str]] = []
    for k, spec in enumerate(cfg.tenants):
        rng = np.random.default_rng((cfg.seed, 17, k))
        t0, t1 = spec.burst_window if spec.burst_window else (0.0, 0.0)
        t = 0.0
        for _ in range(cfg.num_requests):
            r = (spec.rate_hz * spec.burst_factor
                 if t0 <= t < t1 else spec.rate_hz)
            t += float(rng.exponential(1.0 / r))
            merged.append((t, spec.name))
    merged.sort()
    merged = merged[:cfg.num_requests]
    return (np.array([t for t, _ in merged]),
            [name for _, name in merged])


def _make_system(cfg: MultiTenantConfig, control=None,
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


def _trace(cfg: MultiTenantConfig):
    return mobility_trace(TraceConfig(
        num_remote=2, bw_range=(40.0, 400.0), delay_range=(5.0, 60.0),
        steps=cfg.trace_steps, seed=cfg.seed))


def _variant_control(name: str, cfg: MultiTenantConfig,
                     telemetry) -> Optional[ControlLoop]:
    if name == "fifo":
        return None
    if name == "admission":
        controllers = [AdmissionController()]
    elif name == "fair":
        controllers = [TenantFairnessController(
            weights={t.name: t.weight for t in cfg.tenants})]
    else:
        raise ValueError(f"unknown variant {name!r}")
    return ControlLoop(controllers, period_s=cfg.control_period_s,
                       telemetry=telemetry)


def run_multi_tenant(cfg: MultiTenantConfig = MultiTenantConfig(),
                     telemetry=None, record: bool = False,
                     variants: Tuple[str, ...] = ("fifo", "admission",
                                                  "fair"),
                     ingress_step_mbps: Optional[Sequence[float]] = None,
                     ingress_step_period_s: float = 1.0,
                     ) -> Dict[str, MultiTenantReport]:
    """Run the requested variants on the identical world; keyed by name.

    ``telemetry`` (optional) instruments only the ``fair`` variant —
    one registry across variants would conflate their counters.
    ``record=True`` captures each variant into a
    :class:`~repro.telemetry.recorder.RunRecorder` for byte-stable
    replay (scenario name ``multi_tenant``).

    ``ingress_step_mbps`` (optional) steps the shared uplink's capacity
    mid-flight: each trace-cell change is scheduled on an
    :class:`~repro.sim.EventLoop` sharing the system's clock and fires
    at its true instant, re-converging in-flight fluid uploads
    (``cfg.fluid=True``).  The steps are run-time inputs, not config —
    a recording's header cannot reproduce them, so combining with
    ``record=True`` is rejected.  None (the default) keeps every float
    byte-identical to the boundary-only build.
    """
    if ingress_step_mbps is not None and record:
        raise ValueError(
            "mid-flight ingress steps are not captured in recording "
            "headers; record a stepless run or use the event_core "
            "scenario instead")
    trace = _trace(cfg)
    arrivals, tenants = tenant_arrivals(cfg)
    slo_s = cfg.slo_ms / 1e3
    payload = {t.name: t.payload_kb * 1024.0 for t in cfg.tenants}
    reports: Dict[str, MultiTenantReport] = {}
    for name in variants:
        tel = telemetry if name == "fair" else None
        rec = (RunRecorder("multi_tenant", variant=name,
                           config=asdict(cfg)) if record else None)
        control = _variant_control(name, cfg, tel)
        if not cfg.contention:
            tracker = None
        elif cfg.fluid:
            tracker = FluidTracker(telemetry=tel)
        else:
            tracker = ContentionTracker(telemetry=tel)
        ingress = SharedIngress(
            Link(bandwidth_mbps=cfg.ingress_bw_mbps,
                 delay_ms=cfg.ingress_delay_ms),
            tracker, per_tenant_bytes=payload)
        system = _make_system(cfg, control=control, telemetry=tel,
                              recorder=rec)
        loop = None
        if ingress_step_mbps is not None:
            loop = EventLoop(system.clock)
            schedule_ingress_trace(loop, ingress, ingress_step_mbps,
                                   ingress_step_period_s)
        server = InferenceServer(
            system, arrival_rate_hz=sum(t.rate_hz for t in cfg.tenants),
            seed=cfg.seed + 1, telemetry=tel, recorder=rec,
            control=control, ingress=ingress, events=loop,
            arrival_process=lambda rng, n: arrivals)
        stats = server.run(num_requests=cfg.num_requests,
                           condition_trace=trace,
                           trace_period_s=cfg.trace_period_s,
                           tenants=tenants)
        if control is not None:
            control.detach()
        if rec is not None:
            if tel is not None:
                rec.capture_timelines(tel.timelines)
            rec.finish(stats)
        reports[name] = MultiTenantReport(
            name=name, stats=stats, slo_s=slo_s, control=control,
            tracker=tracker, recorder=rec)
    return reports


def format_multi_tenant(reports: Dict[str, MultiTenantReport]) -> str:
    names: List[str] = []
    for rep in reports.values():
        for t in rep.stats.tenants():
            if t not in names:
                names.append(t)
    head = (f"{'variant':>10s}{'e2e':>7s}{'worst':>7s}"
            + "".join(f"{n:>10s}" for n in names)
            + f"{'shed':>6s}{'contended':>11s}")
    lines = [head]
    for rep in reports.values():
        per = rep.tenant_compliance()
        contended = (str(rep.tracker.contended_total)
                     if rep.tracker is not None else "-")
        lines.append(
            f"{rep.name:>10s}{rep.e2e_compliance:>7.0%}"
            f"{rep.worst_tenant_compliance:>7.0%}"
            + "".join(f"{per.get(n, float('nan')):>10.0%}" for n in names)
            + f"{rep.shed:>6d}{contended:>11s}")
        if rep.control is not None:
            lines.append(f"           control: {rep.control.summary()}")
    return "\n".join(lines)
