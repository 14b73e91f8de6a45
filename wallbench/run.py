"""Wall-clock benchmark of the simulator: seeded scenario workloads.

    python3 wallbench/run.py --workload tenants_fluid --seed 0 \
        --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` repeats the workload for
``--seconds`` of host time and reports the end-to-end metrics;
``--trace 1`` alternates untraced passes with traced ones for as long
and reports the per-layer metrics (see NOTES.md).  Every simulated
request is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every number is either *host* time (wall time of this Python process)
or *simulated* (what the modelled edge cluster would take, or a count
of simulated requests); metric names starting with ``sim_`` are
simulated.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
DIGESTS = os.path.join(HERE, "digests.json")
SPANS_DIR = os.path.join(HERE, "out")

#: fresh processes timed per run for ``setup_s`` (median reported)
SETUP_SAMPLES = 5
#: a run always measures at least this many passes
MIN_PASSES = 3

END_TO_END = (("setup_s", "s"), ("sim_req_per_s", "1/s"),
              ("peak_rss_mb", "MB"), ("sim_e2e_compliance", "ratio"))
PER_LAYER = (
    ("runtime.requests", "count"), ("runtime.infer.calls", "count"),
    ("runtime.infer_batch.calls", "count"), ("runtime.self_s", "s"),
    ("runtime.req_host_ms.p50", "ms"), ("runtime.req_host_ms.p99", "ms"),
    ("runtime.batch_size.mean", "requests"),
    ("runtime.sim_queue_wait_ms.p50", "ms"),
    ("decision.calls", "count"), ("decision.self_s", "s"),
    ("decision.host_ms.p50", "ms"), ("decision.host_ms.p99", "ms"),
    ("plans.calls", "count"), ("plans.self_s", "s"),
    ("simulate.calls", "count"), ("simulate.self_s", "s"),
    ("simulate.calls_per_decision", "calls/decision"),
    ("cache.lookups", "count"), ("cache.hit_ratio", "ratio"),
    ("cache.invalidations", "count"),
    ("fluid.admit.calls", "count"), ("fluid.admit.self_s", "s"),
    ("fluid.admit.host_ms.p99", "ms"), ("fluid.peek.calls", "count"),
    ("fluid.peek.self_s", "s"), ("fluid.update_caps.calls", "count"),
    ("fluid.update_caps.self_s", "s"), ("fluid.peak_flows", "count"),
    ("fluid.segments", "count"), ("fluid.admits_per_peek", "admits/peek"),
    ("events.fired", "count"), ("events.advance.calls", "count"),
    ("events.self_s", "s"),
    ("control.admit.calls", "count"), ("control.ticks", "count"),
    ("control.self_s", "s"),
    ("faults.self_s", "s"), ("mesh.route.calls", "count"),
    ("mesh.route.self_s", "s"), ("mesh.reroutes", "count"),
    ("faults.retries", "count"), ("faults.failovers", "count"),
    ("recorder.self_s", "s"), ("recorder.bytes", "bytes"),
    ("replay.self_s", "s"),
    ("other.self_s", "s"), ("trace.overhead", "ratio"),
    ("heap_peak_mb", "MB"),
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="requests per variant (smoke: the smallest run)")
    p.add_argument("--save-digests", action="store_true",
                   help="store this run's digests as the expected ones")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _quantile(values, q: float) -> float:
    """The ``q``-quantile of ``values`` (0 for no samples)."""
    return float(np.quantile(values, q)) if values else 0.0


def _setup_s(args) -> float:
    """Median host seconds from process start to the first scenario
    call, over fresh processes that import, configure and generate the
    seeded inputs, then stop."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--size", args.size],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.split()[-1]) - t0)
    return statistics.median(samples)


class Checker:
    """Compares every pass's per-variant digests with the stored ones
    (default seed) and with the run's first pass."""

    def __init__(self, workload, size: str, seed: int, requests: int):
        self.workload = workload
        self.requests = requests
        stored = {}
        if os.path.exists(DIGESTS):
            with open(DIGESTS) as fh:
                stored = json.load(fh)
        self.expected = (stored.get(workload.name, {}).get(size, {})
                         .get(str(seed)))
        self.first = None
        self.attempted = 0
        self.failed = 0

    def check(self, p, label: str) -> None:
        """Counts one pass's requests and its failed ones."""
        per_variant = self.requests
        self.attempted += per_variant * len(self.workload.variants)
        if p is None:
            self.failed += per_variant * len(self.workload.variants)
            print(f"{label}: scenario raised; every request failed")
            return
        digests = {name: v.digest() for name, v in p.variants.items()}
        if self.first is None:
            self.first = digests
        for name in self.workload.variants:
            v = p.variants.get(name)
            problems = list(v.problems) if v is not None else ["missing"]
            if self.expected and digests.get(name) != self.expected.get(name):
                problems.append("digest differs from the stored one")
            if digests.get(name) != self.first.get(name):
                problems.append("digest differs from the run's first pass")
            if problems:
                self.failed += per_variant
                print(f"{label}: {name} failed: {problems[:3]}")


def _compliance(p) -> float:
    total = sum(len(v.records) for v in p.variants.values())
    return sum(v.e2e_ok() for v in p.variants.values()) / total


def _run_passes(workload, inputs, checker: Checker, seconds: float):
    """Repeat the workload for ``seconds`` of host time; returns
    (pass host seconds, first successful pass)."""
    from workloads import run_checked

    times, first = [], None
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(times) < MIN_PASSES):
        t0 = time.perf_counter()
        p = run_checked(workload, inputs)
        times.append(time.perf_counter() - t0)
        checker.check(p, f"pass {len(times)}")
        if first is None and p is not None:
            first = p
    return times, first


def _end_to_end(args, workload, inputs, checker) -> dict:
    setup = _setup_s(args)
    times, first = _run_passes(workload, inputs, checker, args.seconds)
    requests = checker.requests * len(workload.variants)
    rate = statistics.median(requests / t for t in times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    compliance = _compliance(first) if first is not None else 0.0
    print(f"{workload.name}: {len(times)} passes of {requests} simulated "
          f"requests, host s per pass {[round(t, 3) for t in times]}")
    return {"setup_s": setup, "sim_req_per_s": rate,
            "peak_rss_mb": rss_mb, "sim_e2e_compliance": compliance}


def _per_layer(args, workload, inputs, checker) -> dict:
    from spans import LAYERS, SpanLog
    from workloads import run_checked

    # untraced and traced passes alternate, so a slow spell of the host
    # lands on both sides of trace.overhead; spans come from the first
    # traced pass (the counts of every traced pass are identical)
    times, traced_times, log = [], [], None
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds
           or len(traced_times) < MIN_PASSES):
        t0 = time.perf_counter()
        p = run_checked(workload, inputs)
        times.append(time.perf_counter() - t0)
        checker.check(p, f"pass {len(times)}")
        pass_log = SpanLog()
        with pass_log.installed():
            t0 = time.perf_counter()
            p = run_checked(workload, inputs)
            traced_times.append(time.perf_counter() - t0)
        checker.check(p, f"traced pass {len(traced_times)}")
        if log is None:
            log, traced, traced_s = pass_log, p, traced_times[0]
    tracemalloc.start()
    try:
        heap_pass = run_checked(workload, inputs)
        heap_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    checker.check(heap_pass, "tracemalloc pass")

    os.makedirs(SPANS_DIR, exist_ok=True)
    spans_path = os.path.join(
        SPANS_DIR, f"spans-{workload.name}-seed{args.seed}.json")
    log.write(spans_path)

    p = traced
    records = [r for v in (p.variants.values() if p else ()) for r in
               v.records]
    waits = [(r.start - r.arrival) * 1e3 for r in records
             if r.outcome != "shed"]
    c = log.counts
    infer, batches = log.calls("runtime.infer"), log.calls(
        "runtime.infer_batch")
    decisions = log.calls("decision")
    lookups = c["cache.lookups"]
    admits, peeks = log.calls("fluid.admit"), log.calls("fluid.peek")
    layer_s = log.layer_self_s(traced_s)
    counts = p.counts if p else {}

    def self_of(name):
        return log.self_s.get(name, 0.0)

    def host_ms(name, q):
        return _quantile([d * 1e3 for d in log.durations.get(name, ())], q)

    m = {
        "runtime.requests": len(records),
        "runtime.infer.calls": infer,
        "runtime.infer_batch.calls": batches,
        "runtime.self_s": layer_s["runtime"],
        "runtime.req_host_ms.p50": _quantile(log.req_host_ms, 0.5),
        "runtime.req_host_ms.p99": _quantile(log.req_host_ms, 0.99),
        "runtime.batch_size.mean": (
            (infer + c["runtime.batched_requests"]) / (infer + batches)
            if infer + batches else 0.0),
        "runtime.sim_queue_wait_ms.p50": _quantile(waits, 0.5),
        "decision.calls": decisions,
        "decision.self_s": self_of("decision"),
        "decision.host_ms.p50": host_ms("decision", 0.5),
        "decision.host_ms.p99": host_ms("decision", 0.99),
        "plans.calls": log.calls("plans"),
        "plans.self_s": self_of("plans"),
        "simulate.calls": log.calls("simulate"),
        "simulate.self_s": self_of("simulate"),
        "simulate.calls_per_decision": (
            log.simulate_in_decision / decisions if decisions else 0.0),
        "cache.lookups": lookups,
        "cache.hit_ratio": c["cache.hits"] / lookups if lookups else 0.0,
        "cache.invalidations": c["cache.invalidations"],
        "fluid.admit.calls": admits,
        "fluid.admit.self_s": self_of("fluid.admit"),
        "fluid.admit.host_ms.p99": host_ms("fluid.admit", 0.99),
        "fluid.peek.calls": peeks,
        "fluid.peek.self_s": self_of("fluid.peek"),
        "fluid.update_caps.calls": log.calls("fluid.update_caps"),
        "fluid.update_caps.self_s": self_of("fluid.update_caps"),
        "fluid.peak_flows": counts.get("fluid.peak_flows", 0),
        "fluid.segments": counts.get("fluid.segments", 0),
        "fluid.admits_per_peek": admits / peeks if peeks else 0.0,
        "events.fired": c["events.fired"],
        "events.advance.calls": log.calls("events.advance"),
        "events.self_s": layer_s["events"],
        "control.admit.calls": log.calls("control.admit"),
        "control.ticks": c["control.ticks"],
        "control.self_s": layer_s["control"],
        "faults.self_s": self_of("faults"),
        "mesh.route.calls": log.calls("mesh.route"),
        "mesh.route.self_s": self_of("mesh.route"),
        "mesh.reroutes": counts.get("mesh.reroutes", 0),
        "faults.retries": counts.get("faults.retries", 0),
        "faults.failovers": counts.get("faults.failovers", 0),
        "recorder.self_s": self_of("recorder"),
        "recorder.bytes": counts.get("recorder.bytes", 0),
        "replay.self_s": self_of("replay"),
        "other.self_s": layer_s["other"],
        "trace.overhead": (statistics.median(traced_times)
                           / statistics.median(times)),
        "heap_peak_mb": heap_peak / 2.0 ** 20,
    }
    print(f"{workload.name}: traced pass {traced_s:.3f} host s; "
          f"median over {len(times)} pairs: traced "
          f"{statistics.median(traced_times):.3f} s, untraced "
          f"{statistics.median(times):.3f} s; {len(log.names)} spans -> "
          f"{os.path.relpath(spans_path)}")
    print(f"{'layer':<10}{'self s':>10}{'share':>8}")
    for layer in LAYERS:
        print(f"{layer:<10}{layer_s[layer]:>10.3f}"
              f"{layer_s[layer] / traced_s:>8.1%}")
    print(f"samples: decision {decisions}, fluid.admit {admits}, "
          f"requests {len(log.req_host_ms)}")
    return m


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    requests = workload.requests[args.size]
    inputs = workload.inputs(args.seed, requests)
    if args.setup_probe:
        print(time.monotonic())
        return 0
    checker = Checker(workload, args.size, args.seed, requests)
    if args.trace:
        values = _per_layer(args, workload, inputs, checker)
        units = dict(PER_LAYER)
    else:
        values = _end_to_end(args, workload, inputs, checker)
        units = dict(END_TO_END)
    if args.save_digests and checker.first is not None:
        stored = {}
        if os.path.exists(DIGESTS):
            with open(DIGESTS) as fh:
                stored = json.load(fh)
        stored.setdefault(workload.name, {}).setdefault(args.size, {})[
            str(args.seed)] = checker.first
        with open(DIGESTS, "w") as fh:
            json.dump(stored, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
