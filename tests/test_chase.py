"""Overlapped alone replays (docs/parallel-harness.md, "Overlapped replays").

A sweep run with ``n_jobs=None`` on a host with a spare CPU replays the
alone trajectories only one of its jobs asks for in helper processes,
*while* that job's shared run is going.  Which way a replay ran must not
be readable from any result, curve file or cache counter, a helper that is
lost must cost nothing but time, and nothing may be forked where the caller
asked for one process, where there is no CPU to spare, or inside a pool.

The suite also runs under ``taskset -c 0`` (CI ``replay-overlap``): tests
that need helpers either drive ``run_workload(chase=...)`` directly or
force the host check with the ``spare_cpu`` fixture; the ones about the
check itself use the real one.
"""

import json
import multiprocessing
import os
import signal

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import noise_plan
from repro.harness import parallel, runner, scaled_config
from repro.harness.figures import run_figure
from repro.harness.parallel import WorkloadJob, run_jobs
from repro.harness.replay_cache import AloneReplayCache
from repro.harness.runner import Chase, run_workload
from repro.obs import bus
from repro.obs.inspect import summarize_sweep
from repro.sim.gpu import GPU, LaunchedKernel
from repro.workloads import SUITE

from tests.test_golden import GOLDEN_PATH, PAIRS, QUADS, SHARED_CYCLES

CFG = scaled_config()
SMALL = 30_000
BOTH = (0, 1)


@pytest.fixture
def spare_cpu(monkeypatch):
    """Overlap whatever this host looks like (forking works on one CPU)."""
    monkeypatch.setattr(parallel, "_can_overlap", lambda: True)


@pytest.fixture
def helpers(monkeypatch):
    """Every helper process started, as (app, stream id, pid)."""
    started = []
    start = runner._Chaser._start

    def counting(self, *args):
        start(self, *args)
        spec, stream_id = self.machine_args[:2]
        started.append((spec.name, stream_id, self._proc.pid))

    monkeypatch.setattr(runner._Chaser, "_start", counting)
    return started


def replay_spans(directory):
    return [r["args"] for r in bus.read_bus(directory)
            if r["t"] == "span" and r["name"] == "replay"]


def assert_reaped(helpers):
    assert multiprocessing.active_children() == []
    for _app, _stream, pid in helpers:
        with pytest.raises(ChildProcessError):  # waited for: not a zombie
            os.waitpid(pid, os.WNOHANG)


# ------------------------------------------------------------ same results


def sweep_jobs(**kw):
    """The golden two-app and four-app workloads (SD and SB lead or trail
    several, so some trajectories are shared and some private), a
    DASE-Fair job and a faulted one."""
    base = dict(config=CFG, shared_cycles=SHARED_CYCLES, models=(), **kw)
    return [
        *(WorkloadJob(apps=apps, **base) for apps in PAIRS + QUADS),
        WorkloadJob(apps=("QR", "CT"), policy="dase_fair",
                    **{**base, "models": ("DASE",)}),
        WorkloadJob(apps=("BS", "VA"), faults=noise_plan(0.3, seed=7),
                    **{**base, "models": ("DASE",)}),
    ]


@pytest.mark.slow
class TestSameResults:
    def test_auto_equals_one_process_equals_pool(self, spare_cpu, helpers,
                                                 tmp_path):
        jobs = sweep_jobs()
        auto = run_jobs(jobs, bus=tmp_path / "auto")
        assert all(o.ok for o in auto), [o.error for o in auto]
        # SD#0 (pair and quad) and VA#1 (NN+VA and the faulted BS+VA) are
        # asked for twice and wait for the replay phase; the rest is
        # private — an app at another position is another trajectory.
        assert sorted(h[:2] for h in helpers) == sorted([
            ("SB", 1), ("NN", 0), ("CS", 0), ("SC", 1),   # the pairs
            ("NN", 1), ("CS", 2), ("SB", 3),              # the quad
            ("QR", 0), ("CT", 1), ("BS", 0),              # policy, faulted
        ])
        one = run_jobs(jobs, n_jobs=1, bus=tmp_path / "one")
        pool = run_jobs(jobs, n_jobs=2)
        as_dicts = [[o.result.to_dict() for o in outs]
                    for outs in (auto, one, pool)]
        assert as_dicts[0] == as_dicts[1] == as_dicts[2]
        assert len(helpers) == 10  # neither of the other two forked any
        s_auto, s_one = (
            bus.SweepStats.from_records(bus.read_bus(tmp_path / d))
            for d in ("auto", "one"))
        assert s_auto.comparable() == s_one.comparable()
        assert s_auto.alone_replays["overlapped"] == 10
        assert "overlapped" not in s_one.alone_replays

    def test_golden_values(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        for apps in PAIRS[:1] + QUADS:
            res = run_workload(list(apps), config=CFG,
                               shared_cycles=SHARED_CYCLES, models=(),
                               chase=Chase(range(len(apps))))
            want = golden["pairs" if len(apps) == 2 else "quads"][
                "+".join(apps)]
            assert res.instructions == want["instructions"]
            assert res.alone_cycles == want["alone_cycles"]


# ------------------------------------------------- resumability, as a property


def alone(name, stream_id=0):
    return GPU(CFG, [LaunchedKernel(SUITE[name], restart=True,
                                    stream_id=stream_id)], obs=False)


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(["SD", "SB", "QR", "NN"]),
    counts=st.lists(st.integers(0, 4_000), min_size=1, max_size=8),
)
def test_any_nondecreasing_feed_lands_on_the_fresh_clock(name, counts):
    """What a helper is fed — zeros before the app first issues, repeats
    while it is stalled, then the final count — leaves the clock and the
    recorded curve exactly where one uninterrupted replay puts them."""
    *feed, final = sorted(counts)
    fed, fresh = alone(name, 1), alone(name, 1)
    fed_curve, fresh_curve = fed.record_progress(0), fresh.record_progress(0)
    for count in feed:
        fed.run_until_instructions(0, count)
    assert (fed.run_until_instructions(0, final)
            == fresh.run_until_instructions(0, final))
    assert fed_curve.cycles == fresh_curve.cycles
    assert fed_curve.instructions == fresh_curve.instructions


# --------------------------------------------------------------- who chases


class _Census(Exception):
    pass


def census(monkeypatch, figure, **kw):
    """What the figure's driver would overlap: {job key/policy/σ: apps}."""
    seen = {}

    def stop(todo, retries, backoff_s, settle, private, **_):
        seen.update(todo=todo, private=private)
        raise _Census

    monkeypatch.setattr(parallel, "_run_inline", stop)
    with pytest.raises(_Census):
        run_figure(figure, **kw)
    return [sorted(seen["private"].get(i, ())) for i, _ in seen["todo"]]


class TestSelection:
    def test_fig5_defers_the_shared_app_and_chases_the_rest(
            self, spare_cpu, monkeypatch):
        # SD+SB and SD+SA: SD#0 is both jobs' business, SB#1/SA#1 one's.
        assert census(monkeypatch, "fig5", limit=2) == [[1], [1]]

    def test_sweeps_that_share_every_trajectory_chase_nothing(
            self, spare_cpu, monkeypatch):
        # Even vs DASE-Fair, and every σ, replay the same applications.
        assert not any(census(monkeypatch, "fig9"))
        assert not any(census(monkeypatch, "fig-degradation"))

    def test_what_is_not_a_plain_private_trajectory(self):
        kw = dict(config=CFG, shared_cycles=SMALL)
        jobs = [
            WorkloadJob(apps=("SD", "SB"), **kw),
            WorkloadJob(apps=("SD", "SB"), cache_dir="/tmp/elsewhere", **kw),
            WorkloadJob(apps=("SB", "SD"), **kw),       # other stream ids
            WorkloadJob(apps=("SD", "NOPE"), **kw),     # fails in its turn
            WorkloadJob(apps=("SD", "VA"), shared_cycles=SMALL, config=CFG),
            parallel.ReplayJob(SUITE["SD"], 0, CFG, (1,), 10),
        ]
        assert parallel._private_replays(list(enumerate(jobs))) == {
            0: {1}, 1: {0, 1}, 2: {0, 1}, 4: {1}}

    @pytest.mark.slow
    def test_one_process_when_asked_or_when_that_is_all_there_is(
            self, helpers, tmp_path):
        jobs = [WorkloadJob(apps=("SD", "SB"), config=CFG,
                            shared_cycles=13_000, models=())]
        run_jobs(jobs, n_jobs=1)
        if hasattr(os, "sched_setaffinity"):
            allowed = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {min(allowed)})
            try:
                assert not parallel._can_overlap()
                run_jobs(jobs)
            finally:
                os.sched_setaffinity(0, allowed)
        # A sweep with a timeout, or a profiler, runs as it always did.
        run_jobs(jobs, timeout_s=300.0)
        run_jobs(jobs, bus=tmp_path / "prof", profile=True)
        assert helpers == []
        # Nor does a pooled job process fork (its spans would say so).
        run_jobs(jobs * 2, n_jobs=2, bus=tmp_path / "pool")
        spans = replay_spans(tmp_path / "pool")
        assert len(spans) == 2 and not any(a.get("chased") for a in spans)

    @pytest.mark.slow
    def test_open_system_and_profiled_runs_ignore_the_chase(
            self, helpers, tmp_path):
        from repro.opensys import trace_schedule

        kw = dict(config=CFG, shared_cycles=SMALL, models=())
        run_workload(["SD", "SB"], chase=Chase(BOTH),
                     arrivals=trace_schedule([("NN", 11_000, 23_000)]), **kw)
        run_workload(["SD", "SB"], chase=Chase(BOTH),
                     profile_path=str(tmp_path / "p.pstats"), **kw)
        assert helpers == []


# ---------------------------------------------------------------- the cache


@pytest.mark.slow
class TestCache:
    def run(self, cache_dir, cycles=SMALL, chase=True):
        cache = AloneReplayCache(cache_dir)
        res = run_workload(
            ["SD", "SB"], config=CFG, shared_cycles=cycles, models=(),
            alone_cache=cache, chase=Chase(BOTH) if chase else None)
        return res.to_dict(), (cache.hits, cache.misses, cache.stores)

    def test_files_and_counters_as_on_the_sequential_path(
            self, helpers, tmp_path):
        chased, plain = tmp_path / "chased", tmp_path / "plain"
        # Cold: both replays simulated, both curves stored.
        assert self.run(chased) == self.run(plain, chase=False)
        assert len(helpers) == 2
        self.assert_same_files(chased, plain, 2)
        # Warm: the stored curves answer; no helper is worth starting.
        assert self.run(chased) == self.run(plain, chase=False)
        assert self.run(chased)[1] == (2, 0, 0)
        assert len(helpers) == 2
        # A longer window passes the stored ends: the helpers start late,
        # at the first count the curves do not reach, and extend them.
        assert self.run(chased, 2 * SMALL) == self.run(plain, 2 * SMALL,
                                                       chase=False)
        assert self.run(plain, 2 * SMALL, chase=False)[1] == (2, 0, 0)
        assert len(helpers) == 4
        self.assert_same_files(chased, plain, 2)

    @staticmethod
    def assert_same_files(a, b, n):
        names = sorted(p.name for p in a.glob("*.curve.json"))
        assert names == sorted(p.name for p in b.glob("*.curve.json"))
        assert len(names) == n
        for name in names:  # byte for byte what replay_alone stores
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_late_helper_reports_the_extension(self, tmp_path):
        self.run(tmp_path / "c")
        ends = {a["app"]: a["curve_end"] for a in self.spans(
            tmp_path, lambda: self.run(tmp_path / "c"))}
        spans = self.spans(tmp_path, lambda: self.run(tmp_path / "c",
                                                      2 * SMALL))
        assert [(a["chased"], a["extended_from"]) for a in spans] == [
            (True, ends["SD"]), (True, ends["SB"])]

    @staticmethod
    def spans(tmp_path, run):
        directory = tmp_path / f"bus{len(list(tmp_path.iterdir()))}"
        bus.activate(directory)
        try:
            run()
        finally:
            bus.deactivate()
        return replay_spans(directory)


# ------------------------------------------------------ failure and cleanup


class _Stop:
    """A policy that ends the shared run from its second interval on."""

    def __init__(self, exc):
        self.exc = exc
        self.ticks = 0

    def attach(self, gpu):
        gpu.add_interval_listener(self.tick)

    def tick(self, _records):
        self.ticks += 1
        if self.ticks == 2:
            raise self.exc


@pytest.mark.slow
class TestFailureAndCleanup:
    KW = dict(config=CFG, shared_cycles=SMALL, models=())

    def test_killed_helper_falls_back_with_the_same_result(
            self, spare_cpu, helpers, monkeypatch, tmp_path):
        jobs = [WorkloadJob(apps=("SD", "SB"), **self.KW)]
        (want,) = run_jobs(jobs, n_jobs=1)
        feed = runner._Chaser.feed
        fed = []

        def killing(self, count, **kw):
            fed.append(count)
            if len(fed) == 3:  # SD's helper, at the second interval
                os.kill(self._proc.pid, signal.SIGKILL)
            feed(self, count, **kw)

        monkeypatch.setattr(runner._Chaser, "feed", killing)
        (got,) = run_jobs(jobs, bus=tmp_path)
        assert got.ok and got.result.to_dict() == want.result.to_dict()
        by_app = {a["app"]: a for a in replay_spans(tmp_path)}
        assert by_app["SD"]["fallback"] is True and by_app["SD"]["chased"]
        assert "fallback" not in by_app["SB"]
        stats = bus.SweepStats.from_records(bus.read_bus(tmp_path))
        assert stats.alone_replays == {
            "requested": 2, "simulated": 2, "extended": 0, "cached": 0,
            "overlapped": 1}
        assert_reaped(helpers)

    @pytest.mark.parametrize("exc", [ValueError("boom"), KeyboardInterrupt()])
    def test_shared_run_ending_badly_leaves_no_helper(self, helpers, exc):
        with pytest.raises(type(exc)):
            run_workload(["SD", "SB"], policy=_Stop(exc), chase=Chase(BOTH),
                         **self.KW)
        assert len(helpers) == 2
        assert_reaped(helpers)

    def test_replay_error_fails_the_job_with_the_sequential_message(
            self, helpers, monkeypatch, tmp_path):
        # No alone replay gets anywhere within 2,000 cycles.
        monkeypatch.setattr(runner, "alone_budget", lambda shared: 2_000)
        with pytest.raises(RuntimeError, match="issued only") as plain:
            run_workload(["SD", "SB"], **self.KW)
        bus.activate(tmp_path)
        try:
            with pytest.raises(RuntimeError) as chased:
                run_workload(["SD", "SB"], chase=Chase(BOTH), **self.KW)
        finally:
            bus.deactivate()
        assert str(chased.value) == str(plain.value)
        (span,) = replay_spans(tmp_path)  # SD's; SB's turn never came
        assert span["fallback"] and span["error"].startswith(
            "RuntimeError: app 0 issued only")
        assert_reaped(helpers)


# ------------------------------------------------------------- accounting


@pytest.mark.slow
def test_spans_and_outcomes_account_for_the_overlap(spare_cpu, tmp_path):
    jobs = [WorkloadJob(apps=pair, config=CFG, shared_cycles=SMALL,
                        models=())
            for pair in (("SD", "SB"), ("SD", "SA"))]
    outs = run_jobs(jobs, bus=tmp_path)
    assert all(o.ok for o in outs)
    records = bus.read_bus(tmp_path)
    stats = bus.SweepStats.from_records(records)
    assert stats.alone_replays == {
        "requested": 4, "simulated": 3, "extended": 0, "cached": 0,
        "overlapped": 2}
    assert stats.phases["replay"]["count"] == 3
    assert ("3 trajectories simulated (0 extended), 0 cached, 2 overlapped "
            "with their shared run") in summarize_sweep(stats.to_dict())
    back = bus.SweepStats.from_dict(stats.to_dict())
    assert back.alone_replays == stats.alone_replays
    chased = [a for a in replay_spans(tmp_path) if a.get("chased")]
    assert [a["app"] for a in chased] == ["SB", "SA"]
    for args in chased:
        assert args["cached"] is False and args["requests"] == 1
        assert args["tail_s"] >= 0.0
    # A job's wall is its duration; the part of it spent on replays is
    # the wait for its helper plus its share of SD's phase-2 trajectory.
    job_ends = {r["job"]: r["dur"] for r in records if r["t"] == "job_end"}
    for out, args in zip(outs, chased):
        assert args["tail_s"] < out.replay_s < out.duration_s
        assert out.duration_s - out.replay_s == pytest.approx(
            job_ends[out.index] - args["tail_s"], rel=0.1)
    assert sum(o.duration_s for o in outs) == pytest.approx(
        stats.busy_s, rel=0.1)
