"""Overlapped alone replays (docs/parallel-harness.md, "Overlapped replays").

A sweep run with ``n_jobs=None`` on a host with a spare CPU replays every
alone trajectory whose askers are one consecutive run of its jobs in a
helper process that chases their shared runs, and the next shared run
starts without waiting for the last one's answers.  Which way a replay ran
must not be readable from any result, curve file or cache counter, a helper
that is lost must cost nothing but time, and nothing may be forked where
the caller asked for one process, where there is no CPU to spare, or inside
a pool.

The suite also runs under ``taskset -c 0`` (CI ``replay-overlap``): tests
that need helpers either drive ``run_workload(chase=...)`` directly or
force the host check with the ``spare_cpu`` fixture; the ones about the
check itself use the real one.
"""

import contextlib
import json
import multiprocessing
import os
import pathlib
import signal
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import noise_plan
from repro.harness import parallel, runner, scaled_config
from repro.harness.figures import run_figure
from repro.harness.parallel import WorkloadJob, run_jobs
from repro.harness.replay_cache import AloneReplayCache
from repro.harness.runner import replay_alone, run_workload
from repro.obs import bus
from repro.obs.inspect import summarize_sweep
from repro.sim.gpu import GPU, LaunchedKernel
from repro.workloads import SUITE

from tests.test_golden import GOLDEN_PATH, PAIRS, QUADS, SHARED_CYCLES

CFG = scaled_config()
SMALL = 30_000


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
        t = self.trajectory
        started.append((t.spec.name, t.stream_id, self._proc.pid))

    monkeypatch.setattr(runner._Chaser, "_start", counting)
    return started


@contextlib.contextmanager
def chasing(apps, cycles=SMALL, cache_dir=None):
    """A helper for every app of one direct ``run_workload`` call, as a
    sweep would make them; reaped after, reporting their spans when the
    call went well."""
    chasers = {
        i: runner._Chaser(runner.AloneTrajectory(
            SUITE[app], i, CFG, runner.alone_budget(cycles),
            str(cache_dir) if cache_dir else None,
        ))
        for i, app in enumerate(apps)
    }
    ok = False
    try:
        yield chasers
        ok = True
    finally:
        for chaser in chasers.values():
            chaser.close(report=ok)


def replay_spans(directory):
    return [r["args"] for r in bus.read_bus(directory)
            if r["t"] == "span" and r["name"] == "replay"]


def assert_reaped(helpers):
    assert multiprocessing.active_children() == []
    for _app, _stream, pid in helpers:
        with pytest.raises(ChildProcessError):  # waited for: not a zombie
            os.waitpid(pid, os.WNOHANG)


def assert_same_files(a, b, n):
    names = sorted(p.name for p in a.glob("*.curve.json"))
    assert names == sorted(p.name for p in b.glob("*.curve.json"))
    assert len(names) == n
    for name in names:  # byte for byte what replay_alone stores
        assert (a / name).read_bytes() == (b / name).read_bytes()


# ------------------------------------------------------------ same results


def sweep_jobs(**kw):
    """The golden four-app and two-app workloads — the quad first, so SD#0
    is asked for by two jobs in a row and VA#1 by two jobs apart — a
    DASE-Fair job and a faulted one."""
    base = dict(config=CFG, shared_cycles=SHARED_CYCLES, models=(), **kw)
    return [
        *(WorkloadJob(apps=apps, **base) for apps in QUADS + PAIRS),
        WorkloadJob(apps=("QR", "CT"), policy="dase_fair",
                    **{**base, "models": ("DASE",)}),
        WorkloadJob(apps=("BS", "VA"), faults=noise_plan(0.3, seed=7),
                    **{**base, "models": ("DASE",)}),
    ]


def sd_leads(cycles, cache_dir):
    """SD#0 asked for by three jobs in a row, its counts not in order
    (98271, then 94437, then 98943 instructions at 30,000 cycles)."""
    return [WorkloadJob(apps=("SD", other), config=CFG, shared_cycles=cycles,
                        models=(), cache_dir=str(cache_dir))
            for other in ("SA", "SB", "VA")]


@pytest.mark.slow
class TestSameResults:
    def test_auto_equals_one_process_equals_pool(self, spare_cpu, helpers,
                                                 tmp_path):
        jobs = sweep_jobs()
        auto = run_jobs(jobs, bus=tmp_path / "auto")
        assert all(o.ok for o in auto), [o.error for o in auto]
        # SD#0 leads the quad and the SD+SB pair after it: one helper
        # serves both.  VA#1 (NN+VA and the faulted BS+VA, jobs apart)
        # waits for the replay phase; the rest is private — an app at
        # another position is another trajectory.
        assert sorted(h[:2] for h in helpers) == sorted([
            ("SD", 0), ("NN", 1), ("CS", 2), ("SB", 3),   # the quad
            ("SB", 1), ("NN", 0), ("CS", 0), ("SC", 1),   # the pairs
            ("QR", 0), ("CT", 1), ("BS", 0),              # policy, faulted
        ])
        one = run_jobs(jobs, n_jobs=1, bus=tmp_path / "one")
        pool = run_jobs(jobs, n_jobs=2)
        as_dicts = [[o.result.to_dict() for o in outs]
                    for outs in (auto, one, pool)]
        assert as_dicts[0] == as_dicts[1] == as_dicts[2]
        assert len(helpers) == 11  # neither of the other two forked any
        s_auto, s_one = (
            bus.SweepStats.from_records(bus.read_bus(tmp_path / d))
            for d in ("auto", "one"))
        assert s_auto.comparable() == s_one.comparable()
        assert s_auto.alone_replays["overlapped"] == 11
        assert s_auto.alone_replays["simulated"] == 12  # and VA#1's task
        assert "overlapped" not in s_one.alone_replays
        sd = [a for a in replay_spans(tmp_path / "auto") if a["app"] == "SD"]
        assert [(a["chased"], a["requests"]) for a in sd] == [(True, 2)]

    def test_curve_files_and_counters_do_not_depend_on_the_path(
            self, spare_cpu, helpers, tmp_path):
        # Cold, then with a window twice as long: every count passes the
        # stored end, so the helpers start late and extend the curves.
        runs = {}
        for how, n_jobs in (("auto", None), ("one", 1), ("pool", 2)):
            runs[how] = [
                [(o.result.to_dict(), o.cache)
                 for o in run_jobs(sd_leads(cycles, tmp_path / how),
                                   n_jobs=n_jobs)]
                for cycles in (SMALL, 2 * SMALL)
            ]
        assert runs["auto"] == runs["one"] == runs["pool"]
        assert [cache for _, cache in runs["auto"][0]] == [
            {"hits": 0, "misses": 2, "stores": 2}] * 3
        assert len(helpers) == 8
        for how in ("one", "pool"):
            assert_same_files(tmp_path / "auto", tmp_path / how, 4)

    def test_golden_values(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        for apps in PAIRS[:1] + QUADS:
            with chasing(apps, SHARED_CYCLES) as chase:
                res = run_workload(list(apps), config=CFG,
                                   shared_cycles=SHARED_CYCLES, models=(),
                                   chase=chase)
            want = golden["pairs" if len(apps) == 2 else "quads"][
                "+".join(apps)]
            assert res.instructions == want["instructions"]
            assert res.alone_cycles == want["alone_cycles"]


def test_an_app_that_retires_nothing_is_settled_on_every_path(
        spare_cpu, helpers, tmp_path):
    # In 1000 cycles QR retires no instruction: no replay, no helper ask,
    # no cache probe, and the job beside it (SD+SB, sharing SB#1's helper)
    # still settles.
    runs = {}
    for how, n_jobs in (("auto", None), ("one", 1), ("pool", 2)):
        jobs = [WorkloadJob(apps=apps, config=CFG, shared_cycles=1000,
                            models=("DASE",), cache_dir=str(tmp_path / how))
                for apps in (("QR", "SB"), ("SD", "SB"))]
        outcomes = run_jobs(jobs, n_jobs=n_jobs)
        assert all(o.ok for o in outcomes), [o.error for o in outcomes]
        runs[how] = [(o.result.to_dict(), o.cache) for o in outcomes]
    assert runs["auto"] == runs["one"] == runs["pool"]
    (qr_sb, qr_cache), (sd_sb, sd_cache) = runs["auto"]
    assert qr_sb["instructions"][0] == 0 < qr_sb["instructions"][1]
    assert qr_sb["alone_cycles"][0] == 0
    assert qr_sb["actual_slowdowns"][0] is None
    assert qr_sb["actual_slowdowns"][1] > 0
    assert qr_cache == {"hits": 0, "misses": 1, "stores": 1}
    assert all(s > 0 for s in sd_sb["actual_slowdowns"])
    assert sd_cache == {"hits": 0, "misses": 2, "stores": 2}
    assert_reaped(helpers)


# ------------------------------------------------- resumability, as a property


def alone(name, stream_id=0):
    return GPU(CFG, [LaunchedKernel(SUITE[name], restart=True,
                                    stream_id=stream_id)])


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


@settings(max_examples=15, deadline=None)
@given(
    name=st.sampled_from(["SD", "SB", "QR", "NN"]),
    counts=st.lists(st.integers(1, 4_000), min_size=1, max_size=6),
    cached=st.booleans(),
)
def test_a_helper_answers_counts_in_any_order_with_the_fresh_clock(
        name, counts, cached):
    """Asked for counts in any order — each after the feeds of a shared run
    ending there — one helper answers each with the clock a fresh machine
    stops at, and with a cache leaves the curve file :func:`replay_alone`
    leaves for the same counts."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        chaser = runner._Chaser(runner.AloneTrajectory(
            SUITE[name], 1, CFG, runner.alone_budget(SMALL),
            str(tmp / "chased") if cached else None,
        ))
        try:
            for count in counts:
                for fed in (count // 3, count // 2):
                    chaser.feed(fed)
                assert chaser.ask(count)
            got = [chaser.answer(count) for count in counts]
        finally:
            chaser.close()
        fresh = [alone(name, 1).run_until_instructions(0, count)
                 for count in counts]
        assert [clock.cycles for clock in got] == fresh
        if cached:
            plain = replay_alone(SUITE[name], 1, CFG, counts,
                                 AloneReplayCache(tmp / "plain"))
            assert_same_files(tmp / "chased", tmp / "plain", 1)
            if len(set(fresh)) == len(plain):  # no two counts in one cycle
                assert sum(c.stored for c in got) == sum(
                    c.stored for c in plain.values())


def test_a_helper_yields_to_the_shared_run():
    chaser = runner._Chaser(runner.AloneTrajectory(
        SUITE["SD"], 0, CFG, runner.alone_budget(SMALL)))
    try:
        assert chaser.ask(100)
        assert chaser.answer(100).cycles > 0  # the helper is up and running
        assert os.getpriority(os.PRIO_PROCESS, chaser._proc.pid) == 19
    finally:
        chaser.close()


# --------------------------------------------------------------- who chases


class _Census(Exception):
    pass


def census(monkeypatch, figure, **kw):
    """What the figure's driver would chase: {(app, stream id): askers}."""
    seen = {}

    def stop(todo, retries, done, chased=(), **_):
        seen["chased"] = chased
        raise _Census

    monkeypatch.setattr(parallel, "_run_inline", stop)
    with pytest.raises(_Census):
        run_figure(figure, **kw)
    return {(c.trajectory.spec.name, c.trajectory.stream_id): c.askers
            for c in seen["chased"]}


class TestSelection:
    def test_fig5_chases_every_trajectory_sd_across_both_jobs(
            self, spare_cpu, monkeypatch):
        # SD+SB then SD+SA: one helper for SD#0 serves both jobs.
        assert census(monkeypatch, "fig5", limit=2) == {
            ("SD", 0): [0, 1], ("SB", 1): [0], ("SA", 1): [1]}

    def test_askers_apart_wait_for_the_replay_phase(
            self, spare_cpu, monkeypatch):
        # fig9 runs every pair under the even split, then every pair under
        # DASE-Fair: each trajectory's askers are jobs apart.
        assert census(monkeypatch, "fig9") == {}
        # The σ-sweep runs one pair throughout: both its trajectories are
        # asked for by every job, in a row.
        both = census(monkeypatch, "fig-degradation")
        assert sorted(stream for _, stream in both) == [0, 1]
        (askers,) = {tuple(a) for a in both.values()}
        assert len(askers) > 2 and list(askers) == list(range(len(askers)))

    def test_what_is_not_a_plain_private_trajectory(self):
        from repro.opensys import trace_schedule

        kw = dict(config=CFG, shared_cycles=SMALL)
        jobs = [
            WorkloadJob(apps=("SD", "SB"), **kw),
            WorkloadJob(apps=("SD", "SB"), cache_dir="/tmp/elsewhere", **kw),
            WorkloadJob(apps=("SB", "SD"), **kw),       # other stream ids
            WorkloadJob(apps=("SD", "NOPE"), **kw),     # fails in its turn
            WorkloadJob(apps=("SD", "VA"), shared_cycles=SMALL, config=CFG),
            WorkloadJob(apps=("QR", "VA"), **kw),       # VA#1 in a row
            WorkloadJob(apps=("QR", "CT"), **kw,        # open system
                        arrivals=trace_schedule([("NN", 11_000, 23_000)])),
            parallel.ReplayJob(
                runner.AloneTrajectory(SUITE["SD"], 0, CFG, 10), (1,)),
        ]
        chased = parallel._chase_census(list(enumerate(jobs)))
        assert {(c.trajectory.spec.name, c.trajectory.stream_id,
                 c.trajectory.cache_dir): c.askers
                for c in chased} == {
            ("SB", 1, None): [0],
            ("SD", 0, "/tmp/elsewhere"): [1], ("SB", 1, "/tmp/elsewhere"): [1],
            ("SB", 0, None): [2], ("SD", 1, None): [2],
            ("VA", 1, None): [4, 5],
        }  # SD#0: jobs 0 and 4; QR#0: an open-system asker

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
            self, spare_cpu, helpers, tmp_path):
        from repro.opensys import trace_schedule

        kw = dict(config=CFG, shared_cycles=SMALL, models=())
        arrivals = trace_schedule([("NN", 11_000, 23_000)])
        # A sweep forks nothing for an open-system job ...
        (out,) = run_jobs([WorkloadJob(apps=("SD", "SB"), arrivals=arrivals,
                                       **kw)])
        assert out.ok and helpers == []
        # ... and helpers handed to such a run, or to a profiled one, are
        # neither fed nor asked.
        with chasing(["SD", "SB"]) as chase:
            got = run_workload(["SD", "SB"], chase=chase, arrivals=arrivals,
                               **kw)
            run_workload(["SD", "SB"], chase=chase,
                         profile_path=str(tmp_path / "p.pstats"), **kw)
            assert not any(c._asked or c.served for c in chase.values())
        assert got.to_dict() == out.result.to_dict()


# ---------------------------------------------------------------- the cache


@pytest.mark.slow
class TestCache:
    def run(self, cache_dir, cycles=SMALL, chase=True):
        cache = AloneReplayCache(cache_dir)
        kw = dict(config=CFG, shared_cycles=cycles, models=(),
                  alone_cache=cache)
        if chase:
            with chasing(["SD", "SB"], cycles, cache_dir) as helpers:
                res = run_workload(["SD", "SB"], chase=helpers, **kw)
        else:
            res = run_workload(["SD", "SB"], **kw)
        return res.to_dict(), (cache.hits, cache.misses, cache.stores)

    def test_files_and_counters_as_on_the_sequential_path(
            self, helpers, tmp_path):
        chased, plain = tmp_path / "chased", tmp_path / "plain"
        # Cold: both replays simulated, both curves stored.
        assert self.run(chased) == self.run(plain, chase=False)
        assert len(helpers) == 2
        assert_same_files(chased, plain, 2)
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
        assert_same_files(chased, plain, 2)

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

    def test_shared_helper_killed_between_its_askers(
            self, spare_cpu, helpers, monkeypatch, tmp_path):
        jobs = [WorkloadJob(apps=("SD", other), **self.KW)
                for other in ("SB", "SA")]
        want = run_jobs(jobs, n_jobs=1)
        ask = runner._Chaser.ask
        killed = []

        def killing(self, count):
            if self.trajectory.spec.name == "SD" and not killed:
                os.kill(self._proc.pid, signal.SIGKILL)  # before any answer
                killed.append(self._proc.pid)
            return ask(self, count)

        monkeypatch.setattr(runner._Chaser, "ask", killing)
        got = run_jobs(jobs, bus=tmp_path)
        assert [o.result.to_dict() for o in got] == [
            o.result.to_dict() for o in want]
        fallbacks = [r for r in bus.read_bus(tmp_path)
                     if r["t"] == "span" and r["name"] == "replay"
                     and r["args"].get("fallback")]
        assert [(r["job"], r["args"]["app"]) for r in fallbacks] == [
            (0, "SD"), (1, "SD")]
        stats = bus.SweepStats.from_records(bus.read_bus(tmp_path))
        assert stats.alone_replays["overlapped"] == 2  # SB#1 and SA#1
        assert_reaped(helpers)

    @pytest.mark.parametrize("exc", [ValueError("boom"), KeyboardInterrupt()])
    def test_shared_run_ending_badly_leaves_no_helper(
            self, spare_cpu, helpers, monkeypatch, exc):
        monkeypatch.setitem(parallel.POLICIES, "stop",
                            lambda config: _Stop(exc))
        jobs = [WorkloadJob(apps=("SD", "SB"), policy="stop", **self.KW)]
        if isinstance(exc, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                run_jobs(jobs)
        else:
            (out,) = run_jobs(jobs)
            assert not out.ok and "boom" in out.error
        assert len(helpers) == 2
        assert_reaped(helpers)

    def test_interrupt_while_settling_leaves_no_helper(
            self, spare_cpu, helpers):
        class Interrupting:
            def job_done(self, outcome):
                raise KeyboardInterrupt

            def close(self):
                pass

        jobs = [WorkloadJob(apps=("SD", other), **self.KW)
                for other in ("SB", "SA", "VA")]
        with pytest.raises(KeyboardInterrupt):
            run_jobs(jobs, progress=Interrupting())
        assert len(helpers) >= 3  # SD#0's still had a job to serve
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
                with chasing(["SD", "SB"]) as chase:
                    run_workload(["SD", "SB"], chase=chase, **self.KW)
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
        "overlapped": 3}
    assert stats.phases["replay"]["count"] == 3
    assert ("3 trajectories simulated (0 extended), 0 cached, 3 overlapped "
            "with their shared run") in summarize_sweep(stats.to_dict())
    back = bus.SweepStats.from_dict(stats.to_dict())
    assert back.alone_replays == stats.alone_replays
    # No replay task ran: one chased span per trajectory, SD#0's serving
    # both jobs and recorded against the second, which collected it last.
    assert not any(r.get("kind") == "replay" for r in records
                   if r["t"] == "job_start")
    spans = {r["args"]["app"]: r for r in records
             if r["t"] == "span" and r["name"] == "replay"}
    assert sorted(spans) == ["SA", "SB", "SD"]
    assert all(r["args"]["chased"] and not r["args"]["cached"]
               for r in spans.values())
    assert [(spans[a]["job"], spans[a]["args"]["requests"])
            for a in ("SB", "SA", "SD")] == [(0, 1), (1, 1), (1, 2)]
    # A job's duration is its attempt plus what the sweep waited for its
    # answers (its replay_s); durations add up to the busy time, which
    # counts those waits although they fall between attempts.
    job_ends = {r["job"]: r["dur"] for r in records if r["t"] == "job_end"}
    for out in outs:
        assert 0.0 < out.replay_s < out.duration_s
        assert out.duration_s - out.replay_s == pytest.approx(
            job_ends[out.index], rel=0.1)
    assert sum(o.replay_s for o in outs) == pytest.approx(
        sum(r["args"]["tail_s"] for r in spans.values()))
    assert sum(o.duration_s for o in outs) == pytest.approx(
        stats.busy_s, rel=0.1)


@pytest.mark.slow
def test_helpers_alive_serve_at_most_two_jobs(spare_cpu, helpers,
                                              monkeypatch):
    jobs = [WorkloadJob(apps=pair, config=CFG, shared_cycles=SMALL,
                        models=())
            for pair in (("SD", "SB"), ("SD", "SA"), ("SD", "VA"),
                         ("QR", "VA"), ("NN", "CT"))]
    alive = []
    start = parallel._Helpers.start

    def counting(self, index):
        chase = start(self, index)
        alive.append(len(multiprocessing.active_children()))
        return chase

    monkeypatch.setattr(parallel._Helpers, "start", counting)
    assert all(o.ok for o in run_jobs(jobs))
    # Each turn: the helpers of that job and of the one before it, at most.
    assert len(alive) == 5 and max(alive) <= 4
    assert len(helpers) == 7  # SD#0 and VA#1 once each
    assert_reaped(helpers)
