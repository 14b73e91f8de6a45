"""Dual-clock tracing: nested spans over simulated *and* wall time.

Everything in this repository runs on two clocks at once: the
*simulated* clock (what a five-Pi swarm would have measured — the number
the paper's figures plot) and the *wall* clock (what this process
actually spends — the number profiling cares about).  A :class:`Span`
stamps both, so one trace answers "where did the request's SLO budget
go?" and "where does my laptop's time go?" simultaneously.

Spans nest through a context-manager API::

    with tracer.span("request", sim_time=arrival) as root:
        with tracer.span("decision", sim_time=start) as sp:
            record = engine.decide(...)
            sp.add_sim(record.decision_time_s)
        root.set_sim_end(finish)

When telemetry is disabled, instrumented code paths use the module-level
:data:`NULL_TRACER`: its :meth:`~NullTracer.span` hands back one shared,
immutable no-op span, so the disabled hot path performs no per-request
allocation and no bookkeeping.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]

_wall = time.perf_counter
_new_span = object.__new__


class Span:
    """One timed operation; may contain child spans.

    Spans are opened by :meth:`Tracer.span`, their only constructor: it
    runs for every span of every request, so it fills the slots itself
    in one call rather than going through an ``__init__``.
    ``children`` stays an empty tuple until the first child opens, so
    the leaves of a request's tree allocate no list.
    """

    __slots__ = ("name", "attrs", "sim_start", "sim_end",
                 "wall_start", "wall_end", "children", "_tracer", "_root")

    # -- annotation -------------------------------------------------------
    def annotate(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def set_sim_end(self, sim_time: float) -> None:
        self.sim_end = float(sim_time)

    def add_sim(self, duration_s: float) -> None:
        """Extend the span's simulated interval by ``duration_s``."""
        start = self.sim_start
        if start is None:
            start = self.sim_start = 0.0
        end = self.sim_end
        self.sim_end = (start if end is None else end) + float(duration_s)

    # -- durations --------------------------------------------------------
    @property
    def sim_duration_s(self) -> float:
        if self.sim_start is None or self.sim_end is None:
            return 0.0
        return self.sim_end - self.sim_start

    @property
    def wall_duration_s(self) -> float:
        end = self.wall_end if self.wall_end is not None else _wall()
        return end - self.wall_start

    # -- context manager ---------------------------------------------------
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_end = _wall()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        tracer = self._tracer
        if tracer is not None:
            # a closed span drops its tracer: the tracer keeps finished
            # roots, and the back-reference would make a cycle
            self._tracer = None
            stack = tracer._stack
            if stack and stack[-1] is self:  # the usual innermost close
                stack.pop()
                if self._root:
                    tracer._retain(self)
            else:
                tracer._finish(self)
        return False

    # -- export ------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {
            "name": self.name,
            "sim_start": self.sim_start,
            "sim_end": self.sim_end,
            "sim_duration_s": self.sim_duration_s,
            "wall_duration_s": self.wall_duration_s,
        }
        if self.attrs:
            d["attrs"] = dict(self.attrs)
        if self.children:
            d["children"] = [c.to_dict() for c in self.children]
        return d

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Span({self.name!r}, sim={self.sim_duration_s:.6f}s, "
                f"children={len(self.children)})")


class Tracer:
    """Builds span trees; completed root spans land in ``finished``.

    ``max_finished`` bounds memory under sustained load: the oldest
    roots are dropped once the buffer is full (the metrics registry,
    not the trace buffer, is the unbounded-horizon view).
    """

    enabled = True
    __slots__ = ("max_finished", "finished", "dropped", "_stack",
                 "__weakref__")

    def __init__(self, max_finished: int = 10000):
        if max_finished < 1:
            raise ValueError("max_finished must be positive")
        self.max_finished = max_finished
        self.finished: List[Span] = []
        self.dropped = 0  # roots truncated off the front of `finished`
        self._stack: List[Span] = []

    def span(self, name: str, sim_time: Optional[float] = None,
             **attrs: Any) -> Span:
        sp = _new_span(Span)
        sp.name = name
        sp.attrs = attrs
        sp.sim_start = sim_time
        sp.sim_end = None
        sp.wall_end = None
        sp.children = ()
        sp._tracer = self
        stack = self._stack
        if stack:
            sp._root = False
            parent = stack[-1]
            if parent.children:
                parent.children.append(sp)
            else:
                parent.children = [sp]
        else:
            sp._root = True
        stack.append(sp)
        sp.wall_start = _wall()
        return sp

    def mark(self, name: str, sim_start: float, sim_end: float) -> Span:
        """Record a closed span over ``[sim_start, sim_end]`` of simulated
        time, with no wall-clock extent.

        For phases in which this process does no work, such as a queue
        wait: one call instead of an empty ``with`` block, so the span
        costs one open and one close and no clock read on the way out.
        """
        sp = self.span(name, sim_start)
        sp.sim_end = float(sim_end)
        sp.wall_end = sp.wall_start
        sp._tracer = None
        self._stack.pop()  # just opened: it is the innermost span
        if sp._root:
            self._retain(sp)
        return sp

    def _finish(self, span: Span) -> None:
        # Tolerate exception-unwound inner spans: pop through `span`.
        while self._stack:
            if self._stack.pop() is span:
                break
        if span._root:
            self._retain(span)

    def _retain(self, root: Span) -> None:
        finished = self.finished
        finished.append(root)
        excess = len(finished) - self.max_finished
        if excess > 0:
            del finished[:excess]
            self.dropped += excess

    @property
    def active(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def clear(self) -> None:
        self.finished.clear()
        self.dropped = 0
        self._stack.clear()


class _NullSpan:
    """Shared immutable stand-in; every method is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, **attrs: Any) -> "_NullSpan":
        return self

    def set_sim_end(self, sim_time: float) -> None:
        pass

    def add_sim(self, duration_s: float) -> None:
        pass

    sim_duration_s = 0.0
    wall_duration_s = 0.0
    name = ""
    children: List[Span] = []
    attrs: Dict[str, Any] = {}


_SHARED_NULL_SPAN = _NullSpan()


class NullTracer:
    """Zero-overhead tracer: one shared span, no state, no allocation."""

    enabled = False
    finished: List[Span] = []

    def span(self, name: str, sim_time: Optional[float] = None,
             **attrs: Any) -> _NullSpan:
        return _SHARED_NULL_SPAN

    def mark(self, name: str, sim_start: float,
             sim_end: float) -> _NullSpan:
        return _SHARED_NULL_SPAN

    @property
    def active(self) -> None:
        return None

    def clear(self) -> None:
        pass


NULL_TRACER = NullTracer()
