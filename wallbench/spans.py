"""Host-time spans around the calls into each layer's public functions.

The benchmark never edits the program.  :class:`SpanLog.installed`
swaps each target below for a timing wrapper and puts the originals
back on exit.  A module-level function is replaced in *every* loaded
``repro`` module that bound it at import (``simulate_latency`` lives in
``repro.core.decision`` and ``repro.core.murmuration`` as well as in
``repro.partition.simulate``), a method in its class.  Wrappers pass
arguments and return values through untouched, so a traced run must
reproduce the untraced run's digests exactly.

Every span records its name, host start and end (``perf_counter``
seconds), parent span and request id: the ``request_id`` of the
enclosing ``infer`` call, or the first id of the enclosing
``infer_batch``; spans outside both (uploads, control, events) carry
none.  Self time is the span minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, "module:attribute path") for every wrapped call.  The
#: layer of a span is the first part of its name (see ``LAYER_OF``).
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("runtime.run", "repro.runtime.server:InferenceServer.run"),
    ("runtime.run", "repro.runtime.batching:BatchingInferenceServer.run"),
    ("runtime.infer", "repro.core.murmuration:Murmuration.infer"),
    ("runtime.infer_batch",
     "repro.core.murmuration:Murmuration.infer_batch"),
    ("decision", "repro.core.decision:SearchDecisionEngine.decide"),
    ("plans", "repro.nas.evolution:candidate_plans"),
    ("plans", "repro.nas.graph_builder:build_graph"),
    ("simulate", "repro.partition.simulate:simulate_latency"),
    ("fluid.admit", "repro.netsim.fluid:FluidTracker.admit_transfer"),
    ("fluid.peek", "repro.netsim.fluid:FluidTracker.peek_transfer"),
    ("fluid.update_caps", "repro.netsim.fluid:FluidTracker.update_caps"),
    ("events.advance", "repro.sim.events:EventLoop.advance_to"),
    ("control.admit", "repro.control.loop:ControlLoop.admit"),
    ("control.tick", "repro.control.loop:ControlLoop.maybe_tick"),
    ("faults", "repro.faults.injector:FaultInjector.*"),
    ("faults", "repro.faults.health:DeviceHealth.*"),
    ("mesh.route", "repro.netsim.mesh:MeshCluster.route_info"),
    ("recorder", "repro.telemetry.recorder:RunRecorder.*"),
    ("recorder", "repro.telemetry.recorder:write_recordings"),
    ("replay", "repro.telemetry.recorder:read_recordings"),
    ("replay", "repro.eval.replay:verify_invariants"),
    ("replay", "repro.eval.replay:replay_stats"),
)

#: strategy-cache calls are counted, not timed: they are sub-microsecond
#: dictionary lookups, and their cost stays in the caller's self time
COUNTED = ("repro.core.strategy_cache:StrategyCache.get",
           "repro.core.strategy_cache:StrategyCache.discard",
           "repro.core.strategy_cache:StrategyCache.invalidate")

#: span-name prefix -> layer of the share table
LAYER_OF = {"runtime": "runtime", "decision": "decision",
            "plans": "decision", "simulate": "simulate",
            "fluid": "fluid", "events": "events", "control": "control",
            "faults": "faults", "mesh": "faults",
            "recorder": "telemetry", "replay": "telemetry"}
LAYERS = ("runtime", "decision", "simulate", "fluid", "events",
          "control", "faults", "telemetry", "other")


def _resolve(path: str) -> Tuple[object, List[str]]:
    """``"mod:Cls.meth"`` -> (owner object, attribute names).

    ``Cls.*`` names every public plain function defined on the class
    itself; generator functions are skipped, since a wrapper would time
    only the creation of the generator.
    """
    module_name, attr = path.split(":")
    owner = importlib.import_module(module_name)
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    if parts[-1] != "*":
        return owner, [parts[-1]]
    names = [n for n, v in vars(owner).items()
             if not n.startswith("_") and inspect.isfunction(v)
             and not inspect.isgeneratorfunction(v)]
    return owner, sorted(names)


class SpanLog:
    """Spans of one traced pass, kept in memory until :meth:`write`."""

    def __init__(self):
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.requests: List[Optional[int]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        #: counts taken from call results (cache hits, events fired, ...)
        self.counts: Counter = Counter()
        #: host ms per served request (a batch shares its span evenly)
        self.req_host_ms: List[float] = []
        #: simulate spans whose direct parent is a decision span
        self.simulate_in_decision = 0
        self._stack: List[int] = []
        self._child_s: List[float] = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str, request: Optional[int]) -> int:
        idx = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        if request is None and parent >= 0:
            request = self.requests[parent]
        self.names.append(name)
        self.parents.append(parent)
        self.requests.append(request)
        self.ends.append(0.0)
        self._child_s.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> float:
        end = time.perf_counter()
        self._stack.pop()
        self.ends[idx] = end
        dur = end - self.starts[idx]
        name = self.names[idx]
        self.self_s[name] += dur - self._child_s[idx]
        self.durations[name].append(dur)
        parent = self.parents[idx]
        if parent >= 0:
            self._child_s[parent] += dur
            if name == "simulate" and self.names[parent] == "decision":
                self.simulate_in_decision += 1
        return dur

    def _timed(self, name: str, fn: Callable) -> Callable:
        log = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            request = None
            if name == "runtime.infer":
                request = kwargs.get("request_id")
            elif name == "runtime.infer_batch":
                ids = kwargs.get("request_ids")
                request = ids[0] if ids else None
            idx = log._open(name, request)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = log._close(idx)
            log._observe(name, dur, result)
            return result
        return wrapper

    def _observe(self, name: str, dur: float, result) -> None:
        if name == "runtime.infer":
            self.req_host_ms.append(dur * 1e3)
        elif name == "runtime.infer_batch":
            size = result.size
            self.counts["runtime.batched_requests"] += size
            self.req_host_ms.extend([dur * 1e3 / size] * size)
        elif name == "events.advance":
            self.counts["events.fired"] += result
        elif name == "control.tick":
            self.counts["control.ticks"] += bool(result)

    def _counted(self, path: str, fn: Callable) -> Callable:
        counts = self.counts
        if path.endswith(".get"):
            def on_result(result):
                counts["cache.lookups"] += 1
                counts["cache.hits"] += result is not None
        elif path.endswith(".discard"):
            def on_result(result):
                counts["cache.invalidations"] += bool(result)
        else:
            def on_result(result):
                counts["cache.invalidations"] += result

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(result)
            return result
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        undo: List[Tuple[object, str, object]] = []

        def swap(owner, attr: str, wrapper: Callable) -> None:
            undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

        try:
            for name, path in TARGETS:
                owner, attrs = _resolve(path)
                for attr in attrs:
                    original = vars(owner)[attr]
                    wrapper = self._timed(name, original)
                    if inspect.isclass(owner):
                        swap(owner, attr, wrapper)
                        continue
                    # a function: replace it wherever a caller bound it
                    for mod_name, mod in list(sys.modules.items()):
                        if not mod_name.startswith("repro"):
                            continue
                        for bound, value in list(vars(mod).items()):
                            if value is original:
                                swap(mod, bound, wrapper)
            for path in COUNTED:
                owner, (attr,) = _resolve(path)
                swap(owner, attr, self._counted(path, vars(owner)[attr]))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------
    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def layer_self_s(self, wall_s: float) -> Dict[str, float]:
        """Self seconds per layer; ``other`` closes the sum to ``wall_s``
        (host time the traced pass spent outside every wrapped call)."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.self_s.items():
            out[LAYER_OF[name.split(".")[0]]] += s
        out["other"] = wall_s - sum(out.values())
        return out

    def write(self, path: str) -> None:
        """Export every span as JSON (one array per field)."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent",
                                  "request"],
                       "name": self.names, "start_s": self.starts,
                       "end_s": self.ends, "parent": self.parents,
                       "request": self.requests}, fh)
