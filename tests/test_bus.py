"""Tests for the sweep-scope telemetry bus (repro.obs.bus).

Covers the channel protocol (flush discipline, torn-line tolerance,
incremental tailing), the SweepStats roll-up (percentiles, cache
economics, straggler + failure attribution), the sweep-level Chrome
trace (including the crashed-worker partial-trace contract), the merged
per-job profiler, the inline == pooled determinism contract, and the
EWMA-based progress ETA + live straggler warnings (satellites 2 and 3).
"""

import io
import json
import os
import time

import pytest

from repro.faults import MODE_EXIT, ChaosJob
from repro.harness import scaled_config
from repro.harness.parallel import (
    FAIL_CRASH,
    JobOutcome,
    WorkloadJob,
    run_jobs,
)
from repro.harness.replay_cache import AloneReplayCache
from repro.obs import bus
from repro.obs.progress import SweepProgress, _fmt_eta
from repro.workloads import SUITE

CFG = scaled_config()
SMALL = 30_000


def ok_jobs(n, **kw):
    return [ChaosJob(name=f"ok{i}", payload=100 + i, **kw) for i in range(n)]


# ------------------------------------------------------------ channel layer


class TestWorkerChannel:
    def test_roundtrip_and_flush_discipline(self, tmp_path):
        ch = bus.activate(tmp_path)
        try:
            assert bus.current() is ch
            assert bus.activate(tmp_path) is ch  # idempotent per dir+pid
            ch.job_start("s-1", 0, "QR+CT", submit_ts=1.0)
            ch.span("simulate", 0.5, cycles=SMALL, engine_mode="bucket")
            ch.job_end(ok=True, cache={"hits": 1, "misses": 2, "stores": 2})
            # job_start / job_end flush; the buffered span rides along with
            # the job_end flush, so the file is already complete on disk.
            records = bus.read_bus(tmp_path)
        finally:
            bus.deactivate()
        assert bus.current() is None
        kinds = [r["t"] for r in records]
        assert kinds == ["meta", "job_start", "span", "span", "job_end"]
        meta = records[0]
        assert meta["schema"] == bus.BUS_SCHEMA
        assert meta["pid"] == os.getpid()
        names = [r["name"] for r in records if r["t"] == "span"]
        assert names == ["dequeue", "simulate"]
        sim = records[3]
        assert sim["args"] == {"cycles": SMALL, "engine_mode": "bucket"}
        assert sim["sweep"] == "s-1" and sim["job"] == 0
        end = records[-1]
        assert end["ok"] and end["cache"]["hits"] == 1
        assert end["cpu_s"] >= 0.0 and end["dur"] >= 0.0

    def test_crash_keeps_start_loses_only_spans(self, tmp_path):
        # A worker killed mid-job never flushed its spans, but job_start
        # was flushed — the evidence a crashed job must leave behind.
        ch = bus.activate(tmp_path)
        try:
            ch.job_start("s-1", 3, "dead")
            ch.span("simulate", 9.9)  # buffered, would die with the worker
            on_disk = bus.read_bus(tmp_path)
        finally:
            bus.deactivate()
        assert [r["t"] for r in on_disk] == ["meta", "job_start"]
        assert on_disk[1]["job"] == 3

    def test_torn_line_skipped(self, tmp_path):
        ch = bus.activate(tmp_path)
        try:
            ch.job_start("s-1", 0, "k")
            ch.job_end(ok=True)
            path = ch.path
        finally:
            bus.deactivate()
        with open(path, "a") as fh:
            fh.write('{"t": "span", "name": "sim')  # killed mid-write
        records = bus.read_bus(tmp_path)
        assert [r["t"] for r in records] == ["meta", "job_start", "job_end"]
        # The same pid re-opens its channel (a pool worker's pid reused, a
        # daemon restarted): what it records next is not glued onto the
        # fragment.
        ch = bus.activate(tmp_path)
        try:
            ch.job_start("s-2", 0, "k")
            ch.span("simulate", 0.1)
            ch.job_end(ok=True)
        finally:
            bus.deactivate()
        assert [r["t"] for r in bus.read_bus(tmp_path)] == [
            "meta", "job_start", "job_end", "job_start", "span", "job_end"]

    def test_reader_polls_only_complete_lines(self, tmp_path):
        path = tmp_path / "bus-1.jsonl"
        path.write_text('{"t":"meta","ts":1.0}\n{"t":"job_sta')
        reader = bus.BusReader(tmp_path)
        assert [r["t"] for r in reader.poll()] == ["meta"]
        assert reader.poll() == []  # nothing new, half-line still pending
        with path.open("a") as fh:
            fh.write('rt","ts":2.0}\n')
        assert [r["t"] for r in reader.poll()] == ["job_start"]

    def test_read_bus_missing_dir_is_empty(self, tmp_path):
        assert bus.read_bus(tmp_path / "nope") == []
        assert bus.bus_files(tmp_path / "nope") == []


# ----------------------------------------------------------- aggregation


def _records(jobs):
    """Synthesize a bus record stream from compact job descriptions.

    A job's ``backend`` is the key bus files written before the simulator
    had one core carry on ``job_end``; readers must ignore it."""
    out = [{"t": "meta", "schema": bus.BUS_SCHEMA, "pid": 10, "ts": 0.0},
           {"t": "sweep", "sweep": "s", "ts": 0.0, "n_jobs": len(jobs)}]
    for j in jobs:
        out.append({"t": "job_start", "sweep": "s", "job": j["job"],
                    "key": j.get("key", f"k{j['job']}"), "pid": j["pid"],
                    "ts": j["ts"], "attempt": j.get("attempt", 1),
                    **({"kind": j["kind"]} if "kind" in j else {})})
        for name, dur, args in j.get("spans", ()):
            out.append({"t": "span", "name": name, "sweep": "s",
                        "job": j["job"], "pid": j["pid"],
                        "ts": j["ts"] + dur, "dur": dur,
                        **({"args": args} if args else {})})
        if "dur" in j:
            out.append({"t": "job_end", "sweep": "s", "job": j["job"],
                        "pid": j["pid"], "ts": j["ts"] + j["dur"],
                        "dur": j["dur"], "ok": j.get("ok", True),
                        "cpu_s": j.get("cpu_s", j["dur"]),
                        "rss_peak_kb": j.get("rss", 1000),
                        **({"cache": j["cache"]} if "cache" in j else {}),
                        **({"backend": j["backend"]}
                           if "backend" in j else {})})
        if "outcome_ok" in j:
            out.append({"t": "outcome", "sweep": "s", "job": j["job"],
                        "key": j.get("key", f"k{j['job']}"),
                        "ok": j["outcome_ok"], "ts": j["ts"] + 50.0,
                        "failure_kind": j.get("failure_kind"),
                        "duration_s": j.get("outcome_dur", j.get("dur", 0)),
                        "attempts": j.get("attempt", 1), "resumed": False,
                        **{k: j[k] for k in ("kind", "replay_s",
                                             "outcome_cache") if k in j}})
    return out


class TestPercentile:
    def test_interpolation(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        assert bus.percentile(vals, 0.0) == 1.0
        assert bus.percentile(vals, 1.0) == 4.0
        assert bus.percentile(vals, 0.5) == pytest.approx(2.5)
        assert bus.percentile([7.0], 0.95) == 7.0
        assert bus.percentile([], 0.5) == 0.0


class TestSweepStats:
    def test_rollup(self):
        records = _records([
            # Ordinary job, cache miss then store (an old bus file's keys).
            {"job": 0, "pid": 10, "ts": 1.0, "dur": 2.0,
             "spans": [("simulate", 1.0, {"backend": "vectorized"}),
                       ("replay", 0.8, {"cached": False})],
             "cache": {"hits": 0, "misses": 1, "stores": 1},
             "backend": "vectorized", "outcome_ok": True},
            # Cache-hit job on another worker.
            {"job": 1, "pid": 20, "ts": 1.5, "dur": 1.0,
             "spans": [("simulate", 0.7, None),
                       ("replay", 0.1, {"cached": True})],
             "cache": {"hits": 1, "misses": 0, "stores": 0},
             "backend": "reference", "outcome_ok": True},
            # Straggler: > 2x p50, dominated by its replay phase.
            {"job": 2, "pid": 20, "ts": 2.0, "dur": 9.0, "key": "slow",
             "spans": [("simulate", 2.0, None),
                       ("replay", 6.5, {"cached": False})],
             "cache": {"hits": 0, "misses": 1, "stores": 1},
             "backend": "reference", "outcome_ok": True},
            # Crashed job: start but no end; parent settled it as a crash.
            {"job": 3, "pid": 30, "ts": 3.0, "key": "dead",
             "outcome_ok": False, "failure_kind": FAIL_CRASH,
             "outcome_dur": 4.0},
        ])
        stats = bus.SweepStats.from_records(records)
        assert (stats.n_jobs, stats.ok, stats.failed) == (4, 3, 1)
        assert stats.incomplete == 1
        assert stats.latency["p50"] == pytest.approx(2.0)
        assert stats.latency["max"] == pytest.approx(9.0)
        assert stats.latency["p50"] <= stats.latency["p95"] <= \
            stats.latency["p99"] <= stats.latency["max"]
        # Straggler attribution: job 2 at 4.5x p50, replay-dominated.
        assert [s["job"] for s in stats.stragglers] == [2]
        assert stats.stragglers[0]["dominant_phase"] == "replay"
        assert stats.stragglers[0]["ratio"] == pytest.approx(4.5)
        # Failure attribution survives the missing job_end.
        assert stats.failures == [
            {"job": 3, "key": "dead", "kind": FAIL_CRASH, "attempts": 1}
        ]
        # Cache economics: 1 hit x mean uncached replay (0.8+6.5)/2,
        # minus the 0.1s the cached replay still cost.
        assert stats.cache["hits"] == 1 and stats.cache["misses"] == 2
        assert stats.cache["hit_rate"] == pytest.approx(1 / 3)
        assert stats.cache["est_saved_s"] == pytest.approx(3.65 - 0.1)
        # Per-worker split; the old per-backend keys are read past.
        assert "backends" not in stats.to_dict()
        assert stats.workers["20"]["jobs"] == 2
        assert stats.workers["20"]["busy_s"] == pytest.approx(10.0)
        assert stats.busy_s == pytest.approx(12.0)
        assert stats.wall_s > 0 and 0 < stats.parallel_efficiency <= 1.0

    def test_replay_tasks_are_work_not_jobs(self):
        # Phase 1 on two workers (job 4 is served by the cache alone), then
        # two replay tasks; job 1 waited on both trajectories.
        records = _records([
            {"job": 0, "pid": 10, "ts": 1.0, "dur": 1.0,
             "spans": [("simulate", 0.9, None)], "backend": "reference",
             "cache": {"hits": 0, "misses": 1, "stores": 0},
             "outcome_ok": True, "outcome_dur": 1.5, "replay_s": 0.5,
             "outcome_cache": {"hits": 0, "misses": 1, "stores": 1}},
            {"job": 1, "pid": 20, "ts": 1.0, "dur": 1.0, "key": "slow",
             "spans": [("simulate", 0.9, None),
                       ("replay", 0.1, {"cached": True})],
             "backend": "reference",
             "cache": {"hits": 1, "misses": 2, "stores": 0},
             "outcome_ok": True, "outcome_dur": 4.6, "replay_s": 3.6,
             "outcome_cache": {"hits": 1, "misses": 2, "stores": 2}},
            {"job": 4, "pid": 10, "ts": 1.0, "dur": 1.0,
             "spans": [("simulate", 0.8, None),
                       ("replay", 0.1, {"cached": True}),
                       ("replay", 0.1, {"cached": True})],
             "backend": "reference",
             "cache": {"hits": 2, "misses": 0, "stores": 0},
             "outcome_ok": True},
            {"job": 2, "pid": 10, "ts": 2.0, "dur": 1.1, "kind": "replay",
             "key": "replay:SD#0", "backend": "reference",
             "spans": [("replay", 1.0, {"cached": False, "counts": 2,
                                        "requests": 2})],
             "outcome_ok": True},
            {"job": 3, "pid": 20, "ts": 2.0, "dur": 3.1, "kind": "replay",
             "key": "replay:SB#1", "backend": "reference",
             "spans": [("replay", 3.0, {"cached": False, "counts": 1,
                                        "requests": 1,
                                        "extended_from": 9000})],
             "outcome_ok": True},
        ])
        for rec in records:  # _records files the settled cache under a
            if "outcome_cache" in rec:  # private name; the bus calls it cache
                rec["cache"] = rec.pop("outcome_cache")
        stats = bus.SweepStats.from_records(records)
        assert (stats.n_jobs, stats.ok, stats.failed) == (3, 3, 0)
        # Busy time is everything the workers did; job latencies are the
        # settled durations and still add up to it (within the gaps).
        assert stats.busy_s == pytest.approx(7.2)
        assert stats.latency["max"] == pytest.approx(4.6)
        assert stats.latency["mean"] * 3 == pytest.approx(7.1)
        assert stats.workers["10"]["jobs"] == 2
        assert stats.workers["10"]["busy_s"] == pytest.approx(3.1)
        # The settled counters win over the worker's phase-1 view.
        assert stats.cache["stores"] == 3 and stats.cache["misses"] == 3
        assert stats.alone_replays == {
            "requested": 6, "simulated": 2, "extended": 1, "cached": 3}
        assert stats.phases["replay"]["count"] == 5
        # 3 hits x (4.0 simulated seconds / 3 requests served), minus the
        # 0.3 s the probes cost.
        assert stats.cache["est_saved_s"] == pytest.approx(4.0 - 0.3)
        # Job 1 is a straggler because of replay time spent outside it.
        assert [s["job"] for s in stats.stragglers] == [1]
        assert stats.stragglers[0]["dominant_phase"] == "replay"
        assert stats.stragglers[0]["phase_s"] == pytest.approx(3.6)
        back = bus.SweepStats.from_dict(json.loads(json.dumps(
            stats.to_dict())))
        assert back.alone_replays == stats.alone_replays
        assert stats.comparable()["alone_replays"]["extended"] == 1
        payload = bus.sweep_chrome_trace(records)
        bus.validate_sweep_trace(payload)
        names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert {"replay:SD#0", "replay:SB#1"} <= names

    def test_dict_roundtrip(self):
        stats = bus.SweepStats.from_records(_records([
            {"job": 0, "pid": 10, "ts": 1.0, "dur": 2.0,
             "outcome_ok": True},
        ]))
        d = stats.to_dict()
        assert d["schema"] == bus.SWEEP_SCHEMA
        back = bus.SweepStats.from_dict(json.loads(json.dumps(d)))
        assert back.to_dict() == d
        assert back.comparable() == stats.comparable()

    def test_retry_last_attempt_wins(self):
        records = _records([
            {"job": 0, "pid": 10, "ts": 1.0, "key": "flaky"},  # attempt 1 dies
        ])
        records += _records([
            {"job": 0, "pid": 20, "ts": 5.0, "dur": 1.0, "key": "flaky",
             "attempt": 2, "outcome_ok": True},
        ])[2:]  # skip the duplicate meta/sweep preamble
        stats = bus.SweepStats.from_records(records)
        assert (stats.n_jobs, stats.ok, stats.failed) == (1, 1, 0)
        assert stats.incomplete == 0  # the retry's job_end settles it


# ------------------------------------------------------------ chrome trace


class TestSweepTrace:
    def test_trace_structure_and_validation(self):
        records = _records([
            {"job": 0, "pid": 10, "ts": 1.0, "dur": 2.0,
             "spans": [("simulate", 1.0, None)], "backend": "reference",
             "outcome_ok": True},
            {"job": 1, "pid": 20, "ts": 1.5, "dur": 1.0, "outcome_ok": True},
        ])
        payload = bus.sweep_chrome_trace(records)
        bus.validate_sweep_trace(payload)  # must not raise
        assert payload["otherData"]["n_workers"] == 2
        assert payload["otherData"]["n_jobs"] == 2
        # Worker pids are remapped to dense track indices 0..n-1.
        ev_pids = {e["pid"] for e in payload["traceEvents"]}
        assert ev_pids == {0, 1}
        slices = [e for e in payload["traceEvents"]
                  if e["ph"] == "X" and e["tid"] == 0]
        assert {s["args"]["job"] for s in slices} == {0, 1}
        phases = [e for e in payload["traceEvents"]
                  if e["ph"] == "X" and e["tid"] == 1]
        assert [p["name"] for p in phases] == ["simulate"]

    def test_crashed_job_gets_synthesized_slice(self):
        records = _records([
            {"job": 0, "pid": 10, "ts": 1.0, "dur": 2.0, "outcome_ok": True},
            {"job": 1, "pid": 30, "ts": 3.0, "key": "dead",
             "outcome_ok": False, "failure_kind": FAIL_CRASH,
             "outcome_dur": 4.0},
        ])
        payload = bus.sweep_chrome_trace(records)
        bus.validate_sweep_trace(payload)
        dead = [e for e in payload["traceEvents"]
                if e["ph"] == "X" and e["args"].get("job") == 1]
        assert len(dead) == 1
        assert dead[0]["name"] == f"dead ({FAIL_CRASH})"
        assert dead[0]["args"]["failure"] == FAIL_CRASH
        assert dead[0]["dur"] == pytest.approx(4.0 * 1e6)
        lost = [e for e in payload["traceEvents"] if e["ph"] == "i"]
        assert len(lost) == 1 and lost[0]["args"]["key"] == "dead"

    @pytest.mark.parametrize("mutate, msg", [
        (lambda ev: ev.pop("name"), "no name"),
        (lambda ev: ev.update(ph="Q"), "illegal phase"),
        (lambda ev: ev.update(ts=-5.0), "bad ts"),
        (lambda ev: ev.update(dur=-1.0), "bad dur"),
        (lambda ev: ev.update(pid=99), "process_name"),
    ])
    def test_validation_rejects_malformed(self, mutate, msg):
        payload = bus.sweep_chrome_trace(_records([
            {"job": 0, "pid": 10, "ts": 1.0, "dur": 2.0, "outcome_ok": True},
        ]))
        ev = [e for e in payload["traceEvents"] if e["ph"] == "X"][0]
        mutate(ev)
        with pytest.raises(ValueError, match=msg):
            bus.validate_sweep_trace(payload)

    def test_export_sweep_trace_writes_valid_file(self, tmp_path):
        from repro.obs.export import export_sweep_trace

        records = _records([
            {"job": 0, "pid": 10, "ts": 1.0, "dur": 2.0, "outcome_ok": True},
        ])
        out = tmp_path / "trace.json"
        export_sweep_trace(records, out)
        payload = json.loads(out.read_text())
        bus.validate_sweep_trace(payload)


# -------------------------------------------------- harness integration


class TestHarnessIntegration:
    def test_inline_sweep_records_and_deactivates(self, tmp_path):
        outs = run_jobs(ok_jobs(3), n_jobs=1, bus=tmp_path)
        assert all(o.ok for o in outs)
        assert bus.current() is None  # run_jobs restored the off state
        records = bus.read_bus(tmp_path)
        kinds = {r["t"] for r in records}
        assert kinds == {"meta", "sweep", "job_start", "job_end", "outcome"}
        stats = bus.SweepStats.from_records(records)
        assert (stats.n_jobs, stats.ok, stats.failed) == (3, 3, 0)
        bus.validate_sweep_trace(bus.sweep_chrome_trace(records))

    def test_pooled_workers_are_slots(self, tmp_path):
        # One process per attempt, so one channel per attempt beside the
        # parent's; the slot on each job record makes two workers of them.
        outs = run_jobs(ok_jobs(4), n_jobs=2, bus=tmp_path)
        assert all(o.ok for o in outs)
        assert len(bus.bus_files(tmp_path)) == 1 + 4
        records = bus.read_bus(tmp_path)
        assert {r["slot"] for r in records
                if r["t"] in ("job_start", "job_end")} == {0, 1}
        stats = bus.SweepStats.from_records(records)
        assert sorted(stats.workers) == ["slot 0", "slot 1"]
        assert sum(w["jobs"] for w in stats.workers.values()) == 4
        trace = bus.sweep_chrome_trace(records)
        bus.validate_sweep_trace(trace)
        assert trace["otherData"]["n_workers"] == 2

    def test_two_sweeps_share_one_bus_dir(self, tmp_path):
        run_jobs(ok_jobs(2), n_jobs=1, bus=tmp_path)
        run_jobs(ok_jobs(1), n_jobs=1, bus=tmp_path)
        records = bus.read_bus(tmp_path)
        sweeps = {r["sweep"] for r in records if r["t"] == "sweep"}
        assert len(sweeps) == 2  # distinct ids, one shared directory
        stats = bus.SweepStats.from_records(records)
        assert stats.n_jobs == 3 and stats.ok == 3

    @pytest.mark.slow
    def test_inline_equals_pooled_comparable(self, tmp_path):
        jobs = [
            WorkloadJob(apps=("QR", "CT"), config=CFG,
                        shared_cycles=SMALL, models=()),
            WorkloadJob(apps=("SD", "SB"), config=CFG,
                        shared_cycles=SMALL, models=()),
        ]
        inline_dir, pooled_dir = tmp_path / "inline", tmp_path / "pooled"
        a = run_jobs(jobs, n_jobs=1, bus=inline_dir)
        b = run_jobs(jobs, n_jobs=2, bus=pooled_dir)
        assert all(o.ok for o in a + b)
        s_inline = bus.SweepStats.from_records(bus.read_bus(inline_dir))
        s_pooled = bus.SweepStats.from_records(bus.read_bus(pooled_dir))
        # The wall-clock-free projection is identical; the pooled run
        # additionally records dequeue/serialize spans and >1 worker.
        assert s_inline.comparable() == s_pooled.comparable()
        assert s_inline.phases["simulate"]["count"] == 2
        assert s_inline.phases["replay"]["count"] == 4
        assert "serialize" not in s_inline.phases
        # Two jobs plus the four replay tasks each ship one result back.
        assert s_pooled.phases["serialize"]["count"] == 2 + 4
        assert len(s_pooled.workers) == 2
        # Replay tasks are work, not jobs: four distinct apps, so four
        # trajectories serve the four requested clocks.
        assert s_pooled.n_jobs == 2
        assert s_pooled.alone_replays == {
            "requested": 4, "simulated": 4, "extended": 0, "cached": 0}

    @pytest.mark.slow
    def test_durations_and_counters_stay_honest_across_phases(self, tmp_path):
        # SD leads two pairings: its trajectory is simulated once and its
        # seconds are split between the jobs by the segment each needed.
        jobs = [
            WorkloadJob(apps=pair, config=CFG, shared_cycles=SMALL,
                        models=(), cache_dir=str(tmp_path / "cache"))
            for pair in (("SD", "SB"), ("SD", "VA"))
        ]
        outs = run_jobs(jobs, n_jobs=1, bus=tmp_path / "bus")
        assert all(o.ok for o in outs)
        assert all(0.0 < o.replay_s < o.duration_s for o in outs)
        assert [o.cache for o in outs] == [
            {"hits": 0, "misses": 2, "stores": 2}] * 2
        records = bus.read_bus(tmp_path / "bus")
        stats = bus.SweepStats.from_records(records)
        assert stats.n_jobs == 2
        assert stats.alone_replays == {
            "requested": 4, "simulated": 3, "extended": 0, "cached": 0}
        assert stats.cache["stores"] == 4 and stats.cache["hit_rate"] == 0.0
        # Σ settled durations ≈ busy time: nothing is counted twice and no
        # replay second is left unattributed (slack: per-job bookkeeping
        # around the timed regions).
        total = sum(o.duration_s for o in outs)
        assert total == pytest.approx(stats.busy_s, rel=0.1)
        replay_spans = sum(
            r["dur"] for r in records
            if r["t"] == "span" and r["name"] == "replay")
        assert sum(o.replay_s for o in outs) == pytest.approx(
            replay_spans, rel=0.05)
        from repro.obs.inspect import summarize_sweep

        assert "alone replays: 4 requested, 3 trajectories simulated " \
            "(0 extended), 0 cached" in summarize_sweep(stats.to_dict())
        # The warm re-run never starts phase 2.
        warm = run_jobs(jobs, n_jobs=1, bus=tmp_path / "warm")
        assert all(o.replay_s == 0.0 for o in warm)
        s_warm = bus.SweepStats.from_records(bus.read_bus(tmp_path / "warm"))
        assert s_warm.alone_replays == {
            "requested": 4, "simulated": 0, "extended": 0, "cached": 4}
        warm_records = bus.read_bus(tmp_path / "warm")
        assert not any(r.get("kind") == "replay" for r in warm_records)
        # A cached clock says how far the curve that served it reaches.
        cache = AloneReplayCache(tmp_path / "cache")
        ends = {app: cache.curve(SUITE[app], sid, CFG).end
                for app, sid in (("SD", 0), ("SB", 1), ("VA", 1))}
        cached = [r["args"] for r in warm_records
                  if r["t"] == "span" and r["name"] == "replay"]
        assert [a["curve_end"] for a in cached] == [
            ends[a["app"]] for a in cached]
        assert all(a["instructions"] <= a["curve_end"] for a in cached)
        # A longer window passes the stored ends: those trajectories are
        # re-simulated from cycle 0 and reported as extensions.
        longer = [WorkloadJob(apps=("SD", "SB"), config=CFG,
                              shared_cycles=2 * SMALL, models=(),
                              cache_dir=str(tmp_path / "cache"))]
        outs = run_jobs(longer, n_jobs=1, bus=tmp_path / "longer")
        assert outs[0].cache == {"hits": 0, "misses": 2, "stores": 2}
        s_longer = bus.SweepStats.from_records(
            bus.read_bus(tmp_path / "longer"))
        assert s_longer.alone_replays == {
            "requested": 2, "simulated": 2, "extended": 2, "cached": 0}
        spans = [r["args"] for r in bus.read_bus(tmp_path / "longer")
                 if r["t"] == "span" and r["name"] == "replay"]
        assert sorted(a["extended_from"] for a in spans) == sorted(
            [ends["SD"], ends["SB"]])

    @pytest.mark.slow
    def test_worker_crash_leaves_wellformed_partial_trace(self, tmp_path):
        jobs = [ChaosJob(name="dead", mode=MODE_EXIT), *ok_jobs(3)]
        # retries=1: an unexplained break blames every in-flight job, so an
        # innocent sibling needs its isolated re-run to settle ok — without
        # it the test races on whether siblings finished before the break.
        outs = run_jobs(jobs, n_jobs=2, bus=tmp_path, retries=1)
        assert not outs[0].ok and outs[0].failure_kind == FAIL_CRASH
        assert all(o.ok for o in outs[1:])
        records = bus.read_bus(tmp_path)
        stats = bus.SweepStats.from_records(records)
        assert stats.n_jobs == 4 and stats.failed == 1
        assert stats.incomplete >= 1
        dead = [f for f in stats.failures if f["key"] == jobs[0].key]
        assert dead and dead[0]["kind"] == FAIL_CRASH
        # The partial trace is still structurally valid and carries a
        # synthesized failure slice for the crashed job.
        payload = bus.sweep_chrome_trace(records)
        bus.validate_sweep_trace(payload)
        failed = [e for e in payload["traceEvents"]
                  if e["ph"] == "X" and e.get("args", {}).get("failure")]
        assert failed, "crashed job must appear as a failure slice"

    def test_profile_dumps_merge(self, tmp_path):
        outs = run_jobs(ok_jobs(2), n_jobs=1, bus=tmp_path, profile=True)
        assert all(o.ok for o in outs)
        dumps = sorted(tmp_path.glob("prof-*.pstats"))
        assert len(dumps) == 2
        # A torn dump from a killed worker is skipped, not fatal.
        (tmp_path / "prof-job9-a1.pstats").write_bytes(b"\x00garbage")
        merged = bus.merge_profiles(tmp_path)
        assert merged is not None
        rows = bus.profile_table(merged, limit=5)
        assert 0 < len(rows) <= 5
        assert all(len(r) == 4 for r in rows)

    def test_merge_profiles_empty_dir(self, tmp_path):
        assert bus.merge_profiles(tmp_path) is None


# ------------------------------------------------- progress (satellite 2)


class TestEtaFormatting:
    @pytest.mark.parametrize("seconds, expect", [
        (0, "0s"),
        (59, "59s"),
        (60, "1m00s"),
        (61, "1m01s"),
        (3599, "59m59s"),
        (3600, "1h00m"),
        (3661, "1h01m"),
    ])
    def test_boundaries(self, seconds, expect):
        assert _fmt_eta(seconds) == expect


def _outcome(i=0, dur=1.0, ok=True):
    job = ChaosJob(name=f"j{i}")
    return JobOutcome(index=i, job=job, result=None if not ok else i,
                      error=None if ok else "boom", duration_s=dur)


class TestEwmaEta:
    # Each job_done consumes two clock ticks: the completion timestamp,
    # then one inside the status-line rendering.

    def test_ewma_tracks_recent_regime(self):
        ticks = iter([0.0, 10.0, 10.0, 12.0, 12.0])
        prog = SweepProgress(10, stream=io.StringIO(),
                             clock=lambda: next(ticks))
        prog.job_done(_outcome(0, dur=10.0))
        assert prog._ewma_gap == pytest.approx(10.0)  # seeded by first gap
        prog.job_done(_outcome(1, dur=2.0))
        # 0.3 * 2 + 0.7 * 10: leans to the recent 2s gap, remembers the 10s.
        assert prog._ewma_gap == pytest.approx(7.6)
        assert prog._ewma_dur == pytest.approx(0.3 * 2.0 + 0.7 * 10.0)

    def test_eta_uses_ewma_not_global_mean(self):
        # One 100s warm-up gap, then a 1s/job steady state.  The old
        # global-mean ETA stays dominated by the warm-up forever; the
        # EWMA converges toward the recent regime.
        times = iter([0.0]
                     + [t for i in range(8) for t in (100.0 + i,) * 2]
                     + [107.0])
        prog = SweepProgress(20, stream=io.StringIO(),
                             clock=lambda: next(times))
        for i in range(8):
            prog.job_done(_outcome(i))
        remaining = prog.total - prog.done
        eta_ewma = remaining * prog._ewma_gap
        eta_global_mean = remaining * 107.0 / prog.done
        assert eta_ewma < 0.75 * eta_global_mean
        status = prog._status(_outcome(9))
        assert f"eta {_fmt_eta(eta_ewma)}" in status

    def test_straggler_warning_once(self, tmp_path):
        # One job started 100s ago (wall clock) and never ended.
        (tmp_path / "bus-1.jsonl").write_text(
            json.dumps({"t": "job_start", "sweep": "s", "job": 7,
                        "key": "slowpoke", "pid": 1,
                        "ts": time.time() - 100.0}) + "\n"
        )
        ticks = iter([0.0, 1.0, 1.0, 2.0, 2.0])
        stream = io.StringIO()
        prog = SweepProgress(5, stream=stream, bus=str(tmp_path),
                             clock=lambda: next(ticks))
        prog.job_done(_outcome(0, dur=1.0))  # EWMA dur 1s -> threshold 3s
        out = stream.getvalue()
        assert "straggler" in out and "slowpoke" in out
        before = out.count("straggler")
        prog.job_done(_outcome(1, dur=1.0))  # must not warn again
        assert stream.getvalue().count("straggler") == before

    def test_finished_job_is_not_a_straggler(self, tmp_path):
        (tmp_path / "bus-1.jsonl").write_text(
            json.dumps({"t": "job_start", "sweep": "s", "job": 7,
                        "key": "done", "pid": 1,
                        "ts": time.time() - 100.0}) + "\n"
            + json.dumps({"t": "job_end", "sweep": "s", "job": 7,
                          "pid": 1, "ts": time.time(), "dur": 100.0,
                          "ok": True, "cpu_s": 1.0,
                          "rss_peak_kb": 1}) + "\n"
        )
        ticks = iter([0.0, 1.0, 1.0])
        stream = io.StringIO()
        prog = SweepProgress(5, stream=stream, bus=str(tmp_path),
                             clock=lambda: next(ticks))
        prog.job_done(_outcome(0, dur=1.0))
        assert "straggler" not in stream.getvalue()


class TestStragglerSettledOrdering:
    """Satellite: straggler scans must settle outcomes before aging starts,
    regardless of which channel file a record landed in, and the wall clock
    used for ages is injectable for deterministic tests."""

    @staticmethod
    def _prog(tmp_path, stream, wall):
        ticks = iter([0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
        return SweepProgress(5, stream=stream, bus=str(tmp_path),
                             clock=lambda: next(ticks), wall=wall)

    def test_injected_wall_clock_is_deterministic(self, tmp_path):
        (tmp_path / "bus-1.jsonl").write_text(
            json.dumps({"t": "job_start", "sweep": "s", "job": 7,
                        "key": "slowpoke", "pid": 1, "ts": 100.0}) + "\n"
        )
        stream = io.StringIO()
        prog = self._prog(tmp_path, stream, wall=lambda: 200.0)
        prog.job_done(_outcome(0, dur=1.0))  # threshold 3s, age 100s
        assert "straggler" in stream.getvalue()

        stream2 = io.StringIO()
        prog2 = self._prog(tmp_path, stream2, wall=lambda: 101.0)
        prog2.job_done(_outcome(0, dur=1.0))  # age 1s < threshold
        assert "straggler" not in stream2.getvalue()

    def test_outcome_before_start_in_file_order_settles(self, tmp_path):
        # The parent's outcome channel (bus-0) is read before the worker
        # channel (bus-1), but the worker's job_start carries the earlier
        # timestamp.  Batch processing must order by ts, not file order,
        # so the settled job never re-enters the in-flight set.
        (tmp_path / "bus-0.jsonl").write_text(
            json.dumps({"t": "outcome", "sweep": "s", "job": 7,
                        "key": "late-flush", "ok": True,
                        "ts": 105.0}) + "\n"
        )
        (tmp_path / "bus-1.jsonl").write_text(
            json.dumps({"t": "job_start", "sweep": "s", "job": 7,
                        "key": "late-flush", "pid": 1, "ts": 100.0}) + "\n"
        )
        stream = io.StringIO()
        prog = self._prog(tmp_path, stream, wall=lambda: 500.0)
        prog.job_done(_outcome(0, dur=1.0))
        assert prog._inflight == {}
        assert "straggler" not in stream.getvalue()

    def test_settled_set_survives_across_batches(self, tmp_path):
        # Batch 1 delivers only the outcome; the worker's job_start is
        # flushed late and arrives in batch 2.  The persistent settled set
        # must stop it resurrecting as an in-flight straggler.
        (tmp_path / "bus-0.jsonl").write_text(
            json.dumps({"t": "outcome", "sweep": "s", "job": 7,
                        "key": "zombie", "ok": True, "ts": 105.0}) + "\n"
        )
        stream = io.StringIO()
        prog = self._prog(tmp_path, stream, wall=lambda: 500.0)
        prog.job_done(_outcome(0, dur=1.0))  # batch 1: settles job 7
        assert ("s", 7) in prog._settled

        with (tmp_path / "bus-1.jsonl").open("a") as fh:
            fh.write(json.dumps({"t": "job_start", "sweep": "s", "job": 7,
                                 "key": "zombie", "pid": 1,
                                 "ts": 100.0}) + "\n")
        prog.job_done(_outcome(1, dur=1.0))  # batch 2: stale start replay
        assert prog._inflight == {}
        assert "straggler" not in stream.getvalue()
