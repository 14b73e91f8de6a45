"""Telemetry wired through every instrumented component.

One test per instrumented layer — server, facade, executor, transport,
monitor, SUPREME trainer — each asserting that its scoped metrics exist
and carry plausible values after real work, plus the cross-cutting
guarantees: a shared hub sees everything, and ``telemetry=None`` leaves
behavior bit-identical.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core import SLO, Murmuration, SearchDecisionEngine
from repro.devices import desktop_gtx1080, rpi4
from repro.nas import MBV3_SPACE, Supernet, build_graph, max_arch, tiny_space
from repro.netsim import Cluster, NetworkCondition, NetworkMonitor
from repro.partition import layerwise_split_plan
from repro.rl import EnvConfig, MurmurationEnv, SupremeConfig, SupremeTrainer
from repro.runtime import DistributedExecutor, InferenceServer, Transport
from repro.telemetry import Telemetry


def _system(telemetry=None, slo_ms=200.0):
    devices = [rpi4(), desktop_gtx1080()]
    return Murmuration(
        MBV3_SPACE, devices, NetworkCondition((100.0,), (20.0,)),
        SearchDecisionEngine(MBV3_SPACE, devices, n_random_archs=4),
        slo=SLO.latency_ms(slo_ms), use_predictor=False,
        monitor_noise=0.0, seed=0, telemetry=telemetry)


class TestServerInstrumentation:
    def test_server_metrics_and_timelines(self):
        tel = Telemetry()
        server = InferenceServer(_system(tel), arrival_rate_hz=4.0,
                                 seed=1, telemetry=tel)
        stats = server.run(num_requests=6)
        reg = tel.registry
        assert reg.get("server_requests_total").value == 6
        sat = reg.get("server_slo_satisfied_total").value
        vio = reg.get("server_slo_violated_total").value
        assert sat + vio == 6
        assert reg.get("server_e2e_s").count == 6
        assert reg.get("server_queue_wait_s").count == 6
        # compliance gauge syncs via the collect hook
        reg.collect()
        assert reg.get("server_slo_compliance").value == pytest.approx(
            stats.slo_compliance)
        # one timeline per request telling the full story
        assert len(tel.timelines) == 6
        phases = set(tel.timelines[0].phases())
        assert {"request", "queue", "decision", "execute"} <= phases

    def test_timeline_e2e_matches_stats(self):
        tel = Telemetry()
        server = InferenceServer(_system(tel), arrival_rate_hz=4.0,
                                 seed=2, telemetry=tel)
        stats = server.run(num_requests=4)
        for tl, rec in zip(tel.timelines, stats.records):
            assert tl.total_s == pytest.approx(rec.end_to_end_s)
            assert tl.arrival_s == pytest.approx(rec.arrival)

    def test_finished_system_is_freed_by_refcount(self):
        """Collect hooks must not tie the system to its registry in a
        cycle: dropping the last references frees the system at once,
        with no help from the cyclic garbage collector."""
        tel = Telemetry()
        system = _system(tel)
        server = InferenceServer(system, arrival_rate_hz=4.0, seed=1,
                                 telemetry=tel)
        server.run(num_requests=4)
        ref = weakref.ref(system)
        gc.collect()
        gc.disable()
        try:
            del system, server
            assert ref() is None
        finally:
            gc.enable()
        # the hooks outlive their owners and still refresh the gauges
        tel.registry.collect()
        assert tel.registry.get("server_slo_compliance").value > 0.0
        assert (tel.registry.get("core_cache_hits").value
                + tel.registry.get("core_cache_misses").value) == 4.0


class TestFacadeInstrumentation:
    def test_core_metrics_after_inference(self):
        tel = Telemetry()
        system = _system(tel)
        for _ in range(5):
            system.infer()
        reg = tel.registry
        assert reg.get("core_inference_s").count == 5
        assert reg.get("core_decision_s").count == 5
        # engine-labeled decision counters: first a search, then cache
        total = sum(m.value for m in reg.collect()
                    if m.name == "core_decisions_total")
        assert total == 5
        assert reg.get("core_decisions_total", engine="cache").value >= 1

    def test_cache_gauges_sync_on_collect(self):
        tel = Telemetry()
        system = _system(tel)
        system.infer()
        system.infer()
        reg = tel.registry
        reg.collect()
        assert reg.get("core_cache_hits").value == system.cache.hits
        assert reg.get("core_cache_misses").value == system.cache.misses
        assert reg.get("core_cache_entries").value == len(system.cache)


class TestExecutorInstrumentation:
    def test_segment_metrics(self):
        space = tiny_space()
        net = Supernet(space, seed=0).eval()
        cluster = Cluster([rpi4(), rpi4()],
                          NetworkCondition((100.0,), (10.0,)))
        tel = Telemetry()
        ex = DistributedExecutor(net, cluster, telemetry=tel)
        arch = max_arch(space)
        graph = build_graph(arch, space)
        plan = layerwise_split_plan(graph, len(graph) // 2, remote=1)
        x = np.random.default_rng(0).normal(size=(1, 3, 32, 32))
        result = ex.execute(x, arch, plan, sim_time=5.0)
        reg = tel.registry
        nseg = reg.get("executor_segments_total").value
        assert nseg >= 2  # a layerwise split runs at least two segments
        assert reg.get("executor_segment_compute_wall_s").count == nseg
        assert result.logits is not None


class TestTransportInstrumentation:
    def test_per_link_and_quantization_accounting(self):
        cluster = Cluster([rpi4(), rpi4()],
                          NetworkCondition((100.0,), (10.0,)))
        tel = Telemetry()
        t = Transport(cluster, telemetry=tel)
        x = np.ones((4, 4), dtype=np.float64)
        t.send_tensor(x, src=0, dst=1, bits=8, now=0.0)
        t.send_tensor(x, src=0, dst=1, bits=32, now=1.0)
        t.send_control(src=0, dst=1, payload="switch", now=2.0)
        reg = tel.registry
        assert reg.get("transport_messages_total").value == 3
        assert reg.get("transport_bytes_total").value > 0
        assert reg.get("transport_link_bytes_total", link="0-1").value > 0
        assert reg.get("transport_quantized_messages_total",
                       bits="8").value == 1
        assert reg.get("transport_transfer_s").count == 3

    def test_send_control_accounting(self):
        """Control messages are charged like any other cross-device
        traffic: default 256 bytes, per-link counters, transfer time."""
        cluster = Cluster([rpi4(), rpi4()],
                          NetworkCondition((100.0,), (10.0,)))
        tel = Telemetry()
        t = Transport(cluster, telemetry=tel)
        t.send_control(src=0, dst=1, payload="strategy", now=0.0)
        t.send_control(src=1, dst=0, payload="ack", now=1.0, nbytes=64)
        reg = tel.registry
        assert reg.get("transport_messages_total").value == 2
        assert reg.get("transport_bytes_total").value == 256 + 64
        assert reg.get("transport_link_bytes_total", link="0-1").value == 256
        assert reg.get("transport_link_bytes_total", link="1-0").value == 64
        assert t.total_bytes == 256 + 64
        # telemetry counters are monotonic: reset_log leaves them alone
        t.reset_log()
        assert reg.get("transport_bytes_total").value == 256 + 64
        assert t.total_bytes == 0

    def test_local_delivery_not_charged(self):
        cluster = Cluster([rpi4(), rpi4()],
                          NetworkCondition((100.0,), (10.0,)))
        tel = Telemetry()
        t = Transport(cluster, telemetry=tel)
        t.send_control(src=0, dst=0, payload="noop", now=0.0)
        assert tel.registry.get("transport_messages_total").value == 0


class TestMonitorInstrumentation:
    def test_probe_and_error_metrics(self):
        cluster = Cluster([rpi4(), rpi4()],
                          NetworkCondition((100.0,), (10.0,)))
        tel = Telemetry()
        mon = NetworkMonitor(cluster, noise=0.05, seed=0, telemetry=tel)
        for step in range(8):
            mon.probe_all(float(step))
        reg = tel.registry
        assert reg.get("monitor_probes_total", source="active").value == 8
        assert reg.get("monitor_bw_estimate_rel_error").count == 8
        assert reg.get("monitor_delay_estimate_rel_error").count == 8
        # smoothing converges: noise 5% -> mean relative error well under 1
        assert reg.get("monitor_bw_estimate_rel_error").mean < 0.5


class TestTrainerInstrumentation:
    def test_supreme_metrics_after_short_run(self):
        env = MurmurationEnv(MBV3_SPACE, [rpi4(), desktop_gtx1080()],
                             EnvConfig())
        tel = Telemetry()
        tr = SupremeTrainer(env, SupremeConfig(
            total_steps=64, rollout_batch=16, eval_every=64, seed=0),
            telemetry=tel)
        tr.train(env.validation_tasks(points=2))
        reg = tel.registry
        assert reg.get("supreme_episodes_total").value > 0
        assert reg.get("supreme_relabeled_reward").count > 0
        assert reg.get("supreme_buffer_entries").value == \
            tr.buffer.num_entries
        assert 0.0 <= reg.get("supreme_epsilon").value <= 1.0


class TestSharedHub:
    def test_one_hub_sees_every_scope(self):
        tel = Telemetry()
        server = InferenceServer(_system(tel), arrival_rate_hz=4.0,
                                 seed=3, telemetry=tel)
        server.run(num_requests=4)
        scopes = {m.name.split("_")[0] for m in tel.registry.collect()}
        assert {"server", "core", "monitor"} <= scopes

    def test_disabled_telemetry_same_simulated_outcomes(self):
        """Instrumentation must not perturb the simulated results.

        ``decision_s`` is wall-measured inside the engine, so it (and
        everything derived from it) legitimately jitters; every
        simulated quantity must match exactly.
        """
        run_off = InferenceServer(_system(None), arrival_rate_hz=4.0,
                                  seed=4, telemetry=None).run(6)
        run_on = InferenceServer(_system(Telemetry()), arrival_rate_hz=4.0,
                                 seed=4, telemetry=Telemetry()).run(6)
        for a, b in zip(run_off.records, run_on.records):
            assert a.arrival == b.arrival
            assert a.inference_s == b.inference_s
            assert a.switch_s == b.switch_s
            assert a.satisfied == b.satisfied
