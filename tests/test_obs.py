"""Tests for the observability layer: registry, tracer, GPU integration,
telemetry attach/detach, and one Observation per recorded run."""

import importlib
import json
import random
import sys
from collections import Counter

import pytest

from repro.config import GPUConfig
from repro.core import DASE
from repro.obs import (
    DEFAULT_CAPACITY,
    EventTracer,
    MetricsRegistry,
    Observation,
    PID_SIM,
    Telemetry,
)
from repro.sim.engine import Engine
from repro.sim.gpu import GPU
from repro.sim.kernel import KernelSpec

CFG = GPUConfig(interval_cycles=5_000)


def _specs():
    return [
        KernelSpec("a", compute_per_mem=10, warps_per_block=4),
        KernelSpec("b", compute_per_mem=30, warps_per_block=4),
    ]


def traced_run(cycles=15_000):
    obs = Observation()
    gpu = GPU(CFG, _specs(), obs=obs)
    gpu.run(cycles)
    obs.finalize_run(gpu)
    return gpu, obs


# ----------------------------------------------------------------- registry


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        c = reg.counter("a/b")
        c.inc(3)
        assert reg.counter("a/b") is c
        assert reg.counter("a/b").value == 3

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered as counter"):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_counter_cannot_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_histogram(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", bounds=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.count == 4
        assert h.mean == pytest.approx(138.875)
        assert h.vmin == 0.5 and h.vmax == 500.0
        snap = h.snapshot()
        assert snap["overflow"] == 1
        assert sum(snap["buckets"].values()) == 3
        assert h.quantile(0.0) <= h.quantile(1.0) == 500.0

    def test_subtree(self):
        reg = MetricsRegistry()
        reg.gauge("run/app0/ipc").set(1.0)
        reg.gauge("run/app1/ipc").set(2.0)
        reg.gauge("run/cycles").set(10)
        sub = reg.subtree("run/app0")
        assert list(sub) == ["run/app0/ipc"]
        assert len(reg.subtree("run")) == 3

    def test_snapshot_json_safe_and_sorted(self):
        reg = MetricsRegistry()
        reg.gauge("b").set(2.5)
        reg.counter("a").inc()
        reg.histogram("c").observe(1.0)
        snap = reg.snapshot()
        json.dumps(snap)  # must not raise
        assert list(snap) == ["a", "b", "c"]
        assert snap["a"] == {"type": "counter", "value": 1}

    def test_to_csv(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.histogram("h").observe(4.0)
        lines = reg.to_csv().strip().splitlines()
        assert lines[0] == "name,type,value"
        assert lines[1] == "a,counter,2"
        assert lines[2].startswith("h,histogram,count=1")


# ------------------------------------------------------------------- tracer


class TestTracer:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            EventTracer(0)
        assert EventTracer().capacity == DEFAULT_CAPACITY

    def test_ring_wrap_and_drop_accounting(self):
        tr = EventTracer(capacity=4)
        for i in range(10):
            tr.instant("ev", i, 0, 0)
        assert len(tr) == 4
        assert tr.n_emitted == 10
        assert tr.dropped == 6
        # Oldest surviving first: timestamps 6..9 in emission order.
        assert [ev[0] for ev in tr.events()] == [6, 7, 8, 9]

    def test_event_shapes(self):
        tr = EventTracer()
        tr.instant("i1", 5, 1, 2, {"k": 3})
        tr.complete("x1", 10, 7, 0, 4)
        tr.counter("c1", 20, 1, {"v": 1.5})
        evs = tr.events()
        assert evs[0] == (5, "i", "i1", 1, 2, 0, {"k": 3})
        assert evs[1] == (10, "X", "x1", 0, 4, 7, None)
        assert evs[2] == (20, "C", "c1", 1, 0, 0, {"v": 1.5})
        assert tr.counts_by_name() == {"c1": 1, "i1": 1, "x1": 1}

    def test_span_includes_slice_duration(self):
        tr = EventTracer()
        tr.instant("a", 3, 0, 0)
        tr.complete("b", 5, 100, 0, 0)
        assert tr.span() == (3, 105)
        assert EventTracer().span() == (0, 0)

    def test_clear_resets_everything(self):
        tr = EventTracer(capacity=2)
        for i in range(5):
            tr.instant("e", i, 0, 0)
        tr.engine_events = 9
        tr.clear()
        assert len(tr) == 0 and tr.dropped == 0 and tr.n_emitted == 0
        assert tr.engine_events == 0
        assert tr.span() == (0, 0)

    def test_traced_engine_fires_as_untraced_and_counts_exactly(self):
        """Singleton and multi-event buckets, nested schedules and stops in
        the middle of a bucket: a traced engine fires the same ``(now,
        tag)`` sequence as an untraced one, counts every callback once and
        records the largest same-cycle group."""
        rng = random.Random(2016)
        plan = [(rng.randrange(400), i) for i in range(300)]
        by_cycle = Counter(cycle for cycle, _ in plan)
        stop_at = sorted(c for c, n in by_cycle.items() if n >= 3)[:4]
        assert stop_at  # the schedule has buckets to stop inside

        def drive(eng):
            fired = []

            def cb(tag):
                fired.append((eng.now, tag))
                if tag >= 0 and tag % 7 == 0:  # nested, a later cycle
                    eng.schedule(1 + tag % 3, cb, -tag - 1)

            def halt(tag):
                fired.append((eng.now, tag))
                eng.stop()

            seen = Counter()
            for cycle, tag in plan:
                seen[cycle] += 1
                eng.at(cycle, cb, tag)
                if cycle in stop_at and seen[cycle] == 1:
                    # Second in its bucket: at least one event follows it.
                    eng.at(cycle, halt, 1000 + cycle)
            runs = 0
            while eng.pending:
                eng.run()
                runs += 1
            return fired, runs

        tr = EventTracer()
        traced, traced_runs = drive(Engine(tracer=tr))
        plain, plain_runs = drive(Engine())
        assert traced == plain
        assert traced_runs == plain_runs == len(stop_at) + 1
        assert tr.engine_events == len(plain)
        assert tr.engine_max_bucket == max(
            Counter(now for now, _ in plain).values())


# ---------------------------------------------------------- GPU integration


class TestGPUIntegration:
    def test_untraced_gpu_has_no_tracer(self):
        gpu = GPU(CFG, _specs())
        assert gpu.obs is None
        assert gpu._trace is None
        assert gpu.engine._trace is None

    def test_traced_run_emits_full_taxonomy(self):
        gpu, obs = traced_run()
        counts = obs.tracer.counts_by_name()
        for name in ("l2.probe", "dram.enqueue", "dram.service",
                     "dram.reply", "sm.stall", "icnt.pkt", "interval"):
            assert counts.get(name, 0) > 0, f"no {name} events recorded"
        # 15K cycles at 5K intervals → a marker per boundary incl. run end.
        markers = [ev for ev in obs.tracer.events() if ev[2] == "interval"]
        assert [ev[0] for ev in markers] == [5_000, 10_000, 15_000]
        assert all(ev[3] == PID_SIM for ev in markers)

    def test_traced_engine_accounting(self):
        _, obs = traced_run()
        assert obs.tracer.engine_events > 0
        assert 1 <= obs.tracer.engine_max_bucket <= obs.tracer.engine_events

    def test_topology_recorded(self):
        _, obs = traced_run()
        topo = obs.tracer.topology
        assert topo["n_apps"] == 2
        assert topo["n_sms"] == CFG.n_sms
        assert topo["n_partitions"] == CFG.n_partitions
        assert topo["n_banks"] == CFG.n_banks
        assert topo["app_names"] == ["a", "b"]

    def test_finalize_publishes_run_gauges(self):
        gpu, obs = traced_run()
        snap = obs.registry.snapshot()
        assert snap["run/cycles"]["value"] == gpu.engine.now
        assert snap["run/trace/events_emitted"]["value"] == obs.tracer.n_emitted
        for app in range(2):
            assert f"run/app{app}/ipc" in snap
        assert any(n.startswith("run/part0/") for n in snap)

    def test_event_args_are_scalars(self):
        """Events must never hold references into recycled sim objects."""
        _, obs = traced_run()
        for ts, ph, name, pid, tid, dur, args in obs.tracer.events():
            assert isinstance(ts, int) and isinstance(dur, int)
            if args is not None:
                for v in args.values():
                    assert isinstance(v, (int, float, str))


# ---------------------------------------------------------------- telemetry


class TestTelemetryObs:
    def _attached_run(self, cycles=15_000):
        gpu = GPU(CFG, _specs())
        dase = DASE(CFG)
        dase.attach(gpu)
        tel = Telemetry({"DASE": dase})
        tel.attach(gpu)
        gpu.run(cycles)
        return gpu, tel

    def test_detach_then_reattach_fresh_gpu(self):
        _, tel = self._attached_run()
        n = len(tel.samples)
        assert n == 3 * 2
        assert tel.attached
        tel.detach()
        assert not tel.attached
        # Re-attach to a new GPU: samples accumulate across attachments.
        gpu2 = GPU(CFG, _specs())
        tel.attach(gpu2)
        gpu2.run(10_000)
        assert len(tel.samples) == n + 2 * 2
        tel.detach()

    def test_detach_is_idempotent(self):
        tel = Telemetry({})
        tel.detach()  # never attached: no-op
        gpu = GPU(CFG, _specs())
        tel.attach(gpu)
        tel.detach()
        tel.detach()
        # The listener really is gone: running the GPU records nothing.
        gpu.run(10_000)
        assert tel.samples == []

    def test_double_attach_still_rejected(self):
        gpu, tel = self._attached_run()
        with pytest.raises(RuntimeError, match="detach"):
            tel.attach(gpu)

    def test_publishes_into_registry_and_tracer(self):
        reg = MetricsRegistry()
        tr = EventTracer()
        gpu = GPU(CFG, _specs())
        tel = Telemetry({}, registry=reg, tracer=tr)
        tel.attach(gpu)
        gpu.run(15_000)
        snap = reg.snapshot()
        assert snap["telemetry/app0/ipc"]["type"] == "gauge"
        assert snap["telemetry/app1/interval_ipc"]["count"] == 3
        counts = tr.counts_by_name()
        assert counts["ipc"] == 3 * 2
        assert counts["alpha"] == 3 * 2

    def test_harness_shim_removed(self):
        # The deprecated repro.harness.telemetry shim has completed its
        # DeprecationWarning cycle and is gone; the canonical home is
        # repro.obs.telemetry.
        sys.modules.pop("repro.harness.telemetry", None)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.harness.telemetry")

    def test_harness_reexports_removed(self):
        # The compatibility re-exports (`from repro.harness import
        # Telemetry, Sample`) completed their deprecation cycle too:
        # repro.obs is the only import path.
        import repro.harness as harness

        assert not hasattr(harness, "Telemetry")
        assert not hasattr(harness, "Sample")
        assert "Telemetry" not in harness.__all__
        assert "Sample" not in harness.__all__


# --------------------------------------------------------- run_workload glue


class TestRunWorkloadTrace:
    def test_bad_trace_type_rejected(self):
        from repro.harness import run_workload

        with pytest.raises(TypeError, match="must be an Observation"):
            run_workload(["VA"], trace=object())
        with pytest.raises(TypeError, match="must be an Observation"):
            run_workload(["VA"], trace=EventTracer())

    def test_observation_gains_telemetry(self):
        from repro.harness import run_workload

        obs = Observation()
        run_workload(
            ["VA", "BS"], config=GPUConfig(interval_cycles=5_000),
            shared_cycles=10_000, models=(), trace=obs,
        )
        assert obs.telemetry is not None
        assert not obs.telemetry.attached  # detached after the run
        assert obs.telemetry.samples
        # Run-level gauges were finalized.
        assert obs.registry.get("run/cycles").value == 10_000

    def test_observation_records_exactly_one_run(self):
        # Reusing a bundle would stamp the first run's estimates on every
        # sample of the second; it is refused before anything runs.
        from repro.harness import run_workload

        cfg = GPUConfig(interval_cycles=5_000)
        obs = Observation()
        run_workload(["SD", "SB"], config=cfg, shared_cycles=10_000,
                     models=("DASE",), trace=obs)
        first = list(obs.telemetry.samples)
        emitted = obs.tracer.n_emitted
        with pytest.raises(ValueError, match="already recorded a run"):
            run_workload(["VA", "QR"], config=cfg, shared_cycles=10_000,
                         models=("DASE",), trace=obs)
        assert obs.telemetry.samples == first
        assert obs.tracer.n_emitted == emitted

    def test_run_shorter_than_one_interval_has_one_none_per_app(self):
        from repro.harness import run_workload

        res = run_workload(
            ["SD", "SB"], config=GPUConfig(interval_cycles=5_000),
            shared_cycles=2_000, models=("DASE", "MISE"),
        )
        assert res.estimates == {"DASE": [None, None], "MISE": [None, None]}
