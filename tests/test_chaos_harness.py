"""Chaos tests for the hardened sweep harness.

Misbehaving workers — raising, dying without unwinding, hanging past the
per-job timeout, returning results whose pickle explodes at the parent —
must never abort a sweep: ``run_jobs`` returns ordered
:class:`JobOutcome` objects with per-job failure classification and retry
accounting while healthy sibling jobs complete normally.  The same layer
covers the replay cache's quarantine-and-recompute path and
partial-sweep checkpoint resume.
"""

import json
import multiprocessing
import os
import signal
import tempfile
import time

import pytest

from repro.durable import TMP_SWEEP_AGE_S
from repro.faults import (
    MODE_BAD_RESULT,
    MODE_EXIT,
    MODE_FLAKY,
    MODE_HANG,
    MODE_RAISE,
    ChaosJob,
)
from repro.harness import parallel, scaled_config
from repro.harness.checkpoint import SweepCheckpoint
from repro.harness.parallel import (
    FAIL_CRASH,
    FAIL_EXCEPTION,
    FAIL_TIMEOUT,
    FAIL_TRANSPORT,
    WorkloadJob,
    run_jobs,
    set_sweep_defaults,
    sweep_defaults,
)
from repro.harness.replay_cache import (
    AloneReplayCache,
    _pack,
    entry_checksum,
)
from repro.sim.kernel import ProgressCurve
from repro.workloads import SUITE

CFG = scaled_config()
SMALL = 30_000


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    """Retries here follow their failures at once."""
    monkeypatch.setattr(parallel, "BACKOFF_S", 0.0)


def ok_jobs(n, **kw):
    return [ChaosJob(name=f"ok{i}", payload=100 + i, **kw) for i in range(n)]


class KilledJob:
    """A job whose process is SIGKILLed while it runs."""

    key = "killed"

    def execute(self):
        os.kill(os.getpid(), signal.SIGKILL)


# ------------------------------------------------------------------- inline


class TestInlineChaos:
    def test_mode_validation(self):
        with pytest.raises(ValueError, match="unknown chaos mode"):
            ChaosJob(name="x", mode="maybe")
        with pytest.raises(ValueError, match="requires state_dir"):
            ChaosJob(name="x", mode=MODE_FLAKY)

    def test_generic_job_dispatch(self):
        (out,) = run_jobs([ChaosJob(name="solo", payload=42)], n_jobs=1)
        assert out.ok and out.result["payload"] == 42
        assert out.attempts == 1 and out.failure_kind is None

    def test_raise_captured_with_retry_accounting(self):
        jobs = [ChaosJob(name="boom", mode=MODE_RAISE), *ok_jobs(2)]
        outs = run_jobs(jobs, n_jobs=1, retries=2)
        assert [o.index for o in outs] == [0, 1, 2]
        assert not outs[0].ok
        assert outs[0].failure_kind == FAIL_EXCEPTION
        assert outs[0].attempts == 3  # first try + 2 retries
        assert "chaos raise from boom" in outs[0].error
        assert outs[1].ok and outs[1].result["payload"] == 100
        assert outs[2].ok and outs[2].result["payload"] == 101

    def test_ambient_sweep_defaults(self):
        before = sweep_defaults()
        try:
            set_sweep_defaults(retries=2)
            assert sweep_defaults()["retries"] == 2
            # run_jobs picks the ambient retries up when passed None
            (out,) = run_jobs([ChaosJob(name="x", mode=MODE_RAISE)], n_jobs=1)
            assert out.attempts == 3
            with pytest.raises(ValueError, match="retries"):
                set_sweep_defaults(retries=-1)
        finally:
            set_sweep_defaults(**before)
        assert sweep_defaults() == before


# ------------------------------------------------------------------- pooled


@pytest.mark.slow
class TestPooledChaos:
    def test_hard_exit_blamed_with_stderr_tail(self):
        jobs = [ChaosJob(name="dead", mode=MODE_EXIT), *ok_jobs(3)]
        outs = run_jobs(jobs, n_jobs=2, retries=2)
        assert [o.index for o in outs] == [0, 1, 2, 3]
        dead = outs[0]
        assert not dead.ok
        assert dead.failure_kind == FAIL_CRASH
        assert dead.attempts == 3
        assert "died without unwinding" in dead.error
        assert dead.stderr_tail and "exiting hard" in dead.stderr_tail
        for o, payload in zip(outs[1:], (100, 101, 102)):
            assert o.ok and o.result["payload"] == payload

    def test_timeout_kills_hung_worker(self):
        jobs = [ChaosJob(name="zzz", mode=MODE_HANG, hang_s=120.0),
                *ok_jobs(2)]
        t0 = time.time()
        outs = run_jobs(jobs, n_jobs=2, timeout_s=1.5, retries=0)
        assert time.time() - t0 < 60  # did not wait out the 120 s sleep
        hung = outs[0]
        assert not hung.ok and hung.failure_kind == FAIL_TIMEOUT
        assert "timeout" in hung.error
        # the kill is charged to the hung job only
        assert outs[1].ok and outs[2].ok
        assert outs[1].attempts == 1

    def test_timeout_is_enforced_without_a_pool(self):
        # n_jobs of None or 1 used to run such a sweep inline, where there
        # is nothing to kill, and the timeout was silently ignored.
        for n_jobs in (None, 1):
            jobs = [ChaosJob(name="zzz", mode=MODE_HANG, hang_s=120.0),
                    *ok_jobs(1)]
            t0 = time.time()
            outs = run_jobs(jobs, n_jobs=n_jobs, timeout_s=1.0)
            assert time.time() - t0 < 60
            assert not outs[0].ok and outs[0].failure_kind == FAIL_TIMEOUT
            assert outs[1].ok and outs[1].result["payload"] == 100

    def test_bad_result_classified_as_transport(self):
        jobs = [ChaosJob(name="poison", mode=MODE_BAD_RESULT), *ok_jobs(2)]
        outs = run_jobs(jobs, n_jobs=2, retries=0)
        poison = outs[0]
        assert not poison.ok and poison.failure_kind == FAIL_TRANSPORT
        assert "result was lost" in poison.error
        assert outs[1].ok and outs[2].ok

    def test_flaky_job_succeeds_on_retry(self, tmp_path):
        jobs = [
            ChaosJob(name="shaky", mode=MODE_FLAKY, flaky_failures=1,
                     state_dir=str(tmp_path), payload=7),
            *ok_jobs(2),
        ]
        outs = run_jobs(jobs, n_jobs=2, retries=3)
        shaky = outs[0]
        assert shaky.ok, shaky.error
        assert shaky.result["payload"] == 7
        # One crash, one retry: the harness's count and the disk's agree.
        assert shaky.attempts == 2 and shaky.result["attempt"] == 2
        assert outs[1].ok and outs[2].ok

    def test_crash_charges_only_the_crasher(self):
        # A healthy job running beside one that dies hard: each settles on
        # its own first attempt, with no retry budget to hide a misblame.
        jobs = [ChaosJob(name="steady", mode=MODE_HANG, hang_s=1.0,
                         payload=3),
                ChaosJob(name="dead", mode=MODE_EXIT)]
        steady, dead = run_jobs(jobs, n_jobs=2, retries=0)
        assert steady.ok and steady.attempts == 1, steady.error
        assert steady.result["payload"] == 3
        assert not dead.ok and dead.failure_kind == FAIL_CRASH
        assert dead.attempts == 1
        assert "died without unwinding: exit code 17" in dead.error
        assert dead.stderr_tail and "exiting hard" in dead.stderr_tail

    def test_each_failure_charges_only_its_own_job(self):
        jobs = [ChaosJob(name="boom", mode=MODE_RAISE),
                ChaosJob(name="dead", mode=MODE_EXIT),
                KilledJob(),
                ChaosJob(name="zzz", mode=MODE_HANG, hang_s=60.0),
                ChaosJob(name="poison", mode=MODE_BAD_RESULT),
                *ok_jobs(2)]
        outs = run_jobs(jobs, n_jobs=3, timeout_s=3.0, retries=0)
        assert [o.failure_kind for o in outs] == [
            FAIL_EXCEPTION, FAIL_CRASH, FAIL_CRASH, FAIL_TIMEOUT,
            FAIL_TRANSPORT, None, None]
        assert [o.attempts for o in outs] == [1] * len(jobs)
        assert "signal 9" in outs[2].error
        assert "result was lost" in outs[4].error
        assert [o.result["payload"] for o in outs[5:]] == [100, 101]
        assert multiprocessing.active_children() == []

    def test_interrupted_sweep_leaves_nothing_behind(
            self, tmp_path, monkeypatch):
        class Interrupting:
            def job_done(self, outcome):
                raise KeyboardInterrupt

            def close(self):
                pass

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        jobs = [ChaosJob(name="quick", payload=1),
                *(ChaosJob(name=f"slow{i}", mode=MODE_HANG, hang_s=60.0)
                  for i in range(3))]
        t0 = time.time()
        with pytest.raises(KeyboardInterrupt):
            run_jobs(jobs, n_jobs=2, progress=Interrupting())
        assert time.time() - t0 < 30  # the running slow job was killed
        assert multiprocessing.active_children() == []
        assert list(tmp_path.iterdir()) == []  # scratch directory removed

    def test_mixed_chaos_sweep_never_aborts(self, tmp_path):
        """The kitchen sink: every misbehaviour at once, healthy jobs and
        per-job accounting intact."""
        jobs = [
            ChaosJob(name="a-ok", payload=1),
            ChaosJob(name="boom", mode=MODE_RAISE),
            ChaosJob(name="dead", mode=MODE_EXIT),
            ChaosJob(name="shaky", mode=MODE_FLAKY, flaky_failures=1,
                     state_dir=str(tmp_path), payload=4),
            ChaosJob(name="z-ok", payload=5),
        ]
        outs = run_jobs(jobs, n_jobs=2, retries=3)
        assert [o.index for o in outs] == [0, 1, 2, 3, 4]
        assert [o.attempts for o in outs] == [1, 4, 4, 2, 1]
        assert outs[0].ok and outs[0].result["payload"] == 1
        assert not outs[1].ok and outs[1].failure_kind == FAIL_EXCEPTION
        assert not outs[2].ok and outs[2].failure_kind == FAIL_CRASH
        assert outs[3].ok and outs[3].result["payload"] == 4
        assert outs[4].ok and outs[4].result["payload"] == 5

    def test_retried_workload_matches_clean_run(self, tmp_path):
        """A real workload that shares a generation with a crasher still
        produces the exact same result a clean sweep produces."""
        wl = WorkloadJob(apps=("QR", "CT"), config=CFG,
                         shared_cycles=SMALL, models=())
        clean = run_jobs([wl], n_jobs=1)[0].unwrap()
        outs = run_jobs(
            [ChaosJob(name="dead", mode=MODE_EXIT), wl],
            n_jobs=2, retries=2,
        )
        assert not outs[0].ok
        assert outs[1].unwrap().to_dict() == clean.to_dict()


# ---------------------------------------------------- replay-cache hardening


class TestReplayCacheHardening:
    #: A made-up trajectory, and a longer one it is a prefix of.
    SHORT = ProgressCurve([300, 777], [400, 1000])
    LONG = ProgressCurve([300, 777, 900, 1500], [400, 1010, 1300, 2500])

    def _store(self, tmp_path):
        cache = AloneReplayCache(tmp_path)
        cache.put(SUITE["QR"], 0, CFG, 1000, 777, self.SHORT)
        path = tmp_path / f"{cache.key(SUITE['QR'], 0, CFG)}.curve.json"
        assert path.exists()
        return cache, path

    def test_truncated_entry_quarantined_and_recomputed(self, tmp_path):
        _, path = self._store(tmp_path)
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        fresh = AloneReplayCache(tmp_path)
        assert fresh.get(SUITE["QR"], 0, CFG, 1000) is None
        assert fresh.quarantined == 1
        assert not path.exists()
        assert (tmp_path / "quarantine" / path.name).exists()
        # the recompute path: a new put restores a good entry
        assert fresh.put(SUITE["QR"], 0, CFG, 1000, 777, self.SHORT)
        assert AloneReplayCache(tmp_path).get(SUITE["QR"], 0, CFG, 1000) == 777

    def test_bit_flip_inside_valid_json_quarantined(self, tmp_path):
        _, path = self._store(tmp_path)
        entry = json.loads(path.read_text())
        entry["cycles"] = _pack([300, 778])  # flipped bit, checksum stale
        path.write_text(json.dumps(entry))
        fresh = AloneReplayCache(tmp_path)
        assert fresh.get(SUITE["QR"], 0, CFG, 1000) is None
        assert fresh.quarantined == 1
        assert (tmp_path / "quarantine" / path.name).exists()

    def test_bit_flip_inside_the_packed_curve_quarantined(self, tmp_path):
        _, path = self._store(tmp_path)
        entry = json.loads(path.read_text())
        packed = entry["instructions"]
        entry["instructions"] = packed[:5] + (
            "A" if packed[5] != "A" else "B") + packed[6:]
        entry["checksum"] = entry_checksum(entry)  # damage under a good sum
        path.write_text(json.dumps(entry))
        fresh = AloneReplayCache(tmp_path)
        assert fresh.get(SUITE["QR"], 0, CFG, 1000) is None
        assert fresh.quarantined == 1

    def test_legacy_entry_without_checksum_not_trusted(self, tmp_path):
        _, path = self._store(tmp_path)
        entry = json.loads(path.read_text())
        del entry["checksum"]
        path.write_text(json.dumps(entry))
        fresh = AloneReplayCache(tmp_path)
        assert fresh.get(SUITE["QR"], 0, CFG, 1000) is None
        assert fresh.quarantined == 1

    def test_checksum_covers_every_field(self, tmp_path):
        _, path = self._store(tmp_path)
        entry = json.loads(path.read_text())
        body = {k: v for k, v in entry.items() if k != "checksum"}
        assert entry["checksum"] == entry_checksum(body)
        for field in body:
            damaged = dict(body)
            damaged[field] = "x"
            assert entry["checksum"] != entry_checksum(damaged), field
        # Literal from the commit before repro.hashing: entries written on
        # either side of it verify on the other.
        assert entry_checksum({"kernel": "QR", "stream_id": 0, "entries": 3,
                               "end": 10, "checksum": "ignored"}) == (
            "ba5f458b5f53643a85e4fbe0e503170c4f2c07389f91bf7c10c63d9613d023c7")

    def test_quarantined_entries_not_counted_as_present(self, tmp_path):
        cache, path = self._store(tmp_path)
        assert len(cache) == 1
        path.write_text("garbage")
        fresh = AloneReplayCache(tmp_path)
        fresh.get(SUITE["QR"], 0, CFG, 1000)
        assert len(fresh) == 0  # quarantine/ is not part of the cache

    def test_racing_short_and_long_writers_keep_the_longer_curve(
            self, tmp_path):
        # Both orders of two writers of one trajectory; the second always
        # re-reads the file, whatever it holds in memory.
        for first, second in ((self.SHORT, self.LONG),
                              (self.LONG, self.SHORT)):
            d = tmp_path / f"first-{len(first)}"
            a, b = AloneReplayCache(d), AloneReplayCache(d)
            assert b.get(SUITE["QR"], 0, CFG, 900) is None
            assert a.put(SUITE["QR"], 0, CFG, first.end, first.cycles[-1],
                         first)
            wrote = b.put(SUITE["QR"], 0, CFG, second.end,
                          second.cycles[-1], second)
            assert wrote == (second is self.LONG)
            for cache in (a, b, AloneReplayCache(d)):
                assert cache.get(SUITE["QR"], 0, CFG, 2500) == 1500
                # 1000 lay in SHORT's last, partial cycle; still cycle 777.
                assert cache.get(SUITE["QR"], 0, CFG, 1000) == 777
            assert len(a) == 1 and not (d / "quarantine").exists()

    def test_prefix_disagreement_quarantines_the_stored_curve(self, tmp_path):
        cache, path = self._store(tmp_path)
        # "The simulator changed": same key, another trajectory.
        changed = ProgressCurve([310, 777, 900], [400, 1010, 1300])
        assert not changed.same_trajectory(self.SHORT)
        fresh = AloneReplayCache(tmp_path)
        assert fresh.put(SUITE["QR"], 0, CFG, 1300, 900, changed)
        assert fresh.quarantined == 1
        assert (tmp_path / "quarantine" / path.name).exists()
        assert AloneReplayCache(tmp_path).get(SUITE["QR"], 0, CFG, 300) == 310
        # A stale curve that reaches *further* goes too, instead of
        # shadowing what the simulator now computes.
        older = tmp_path / "older"
        AloneReplayCache(older).put(SUITE["QR"], 0, CFG, 2500, 1500, self.LONG)
        late = AloneReplayCache(older)
        assert late.put(SUITE["QR"], 0, CFG, 1300, 900, changed)
        assert late.quarantined == 1 and len(late) == 1
        assert AloneReplayCache(older).get(SUITE["QR"], 0, CFG, 2500) is None

    def test_orphan_tmp_files_swept_by_age(self, tmp_path):
        stale = tmp_path / ".deadbeef.json.abc.tmp"
        stale.write_text("{")
        old = time.time() - TMP_SWEEP_AGE_S - 10
        os.utime(stale, (old, old))
        young = tmp_path / ".cafe.json.def.tmp"
        young.write_text("{")
        cache = AloneReplayCache(tmp_path)
        assert cache.tmp_swept == 1
        assert not stale.exists()
        assert young.exists()  # may be a concurrent writer's in-flight file

    @pytest.mark.slow
    def test_corrupt_cache_recovered_end_to_end(self, tmp_path):
        """A sweep over a damaged cache recomputes and heals, producing
        the same result as an uncached run."""
        from repro.harness.parallel import run_workloads

        clean = run_workloads(
            [("QR", "CT")], config=CFG, shared_cycles=SMALL, models=(),
        )[0].unwrap()
        warm = run_workloads(
            [("QR", "CT")], config=CFG, shared_cycles=SMALL, models=(),
            cache_dir=str(tmp_path),
        )[0].unwrap()
        for entry in tmp_path.glob("*.curve.json"):
            entry.write_text(entry.read_text()[:20])  # truncate every entry
        healed = run_workloads(
            [("QR", "CT")], config=CFG, shared_cycles=SMALL, models=(),
            cache_dir=str(tmp_path),
        )[0]
        assert healed.ok
        assert healed.unwrap().to_dict() == clean.to_dict() == warm.to_dict()
        assert len(list((tmp_path / "quarantine").glob("*.curve.json"))) == 2
        # cache healed in place: entries verify again
        again = AloneReplayCache(tmp_path)
        assert len(again) == 2


# ------------------------------------------------------- checkpoint resume


@pytest.mark.slow
class TestCheckpointResume:
    def _jobs(self):
        return [
            WorkloadJob(apps=("QR", "CT"), config=CFG,
                        shared_cycles=SMALL, models=()),
            WorkloadJob(apps=("NN", "VA"), config=CFG,
                        shared_cycles=SMALL, models=()),
        ]

    def test_resume_skips_completed_jobs(self, tmp_path):
        jobs = self._jobs()
        first = run_jobs(jobs, n_jobs=1, checkpoint=tmp_path)
        assert all(o.ok and not o.resumed for o in first)
        t0 = time.perf_counter()
        second = run_jobs(jobs, n_jobs=1, checkpoint=tmp_path)
        assert time.perf_counter() - t0 < 0.5  # no simulation happened
        assert all(o.ok and o.resumed for o in second)
        for a, b in zip(first, second):
            assert a.unwrap().to_dict() == b.unwrap().to_dict()
        # Each line's checksum is what the commit before repro.hashing
        # wrote (its formula, spelled out), so checkpoints written on
        # either side of it resume on the other.
        import hashlib

        for line in SweepCheckpoint(tmp_path, jobs).path.read_text().splitlines():
            body = json.loads(line)
            stored = body.pop("sha256")
            assert stored == hashlib.sha256(json.dumps(
                body, sort_keys=True, separators=(",", ":")).encode()
            ).hexdigest()

    def test_interrupted_sweep_resumes_partial(self, tmp_path):
        """Dropping the checkpoint's last line (the interruption case the
        file format is designed for) recomputes only that job."""
        jobs = self._jobs()
        run_jobs(jobs, n_jobs=1, checkpoint=tmp_path)
        cp = SweepCheckpoint(tmp_path, jobs)
        lines = cp.path.read_text().splitlines()
        assert len(lines) == 2
        cp.path.write_text(lines[0] + "\n")
        outs = run_jobs(jobs, n_jobs=1, checkpoint=tmp_path)
        assert outs[0].resumed and not outs[1].resumed
        assert outs[0].ok and outs[1].ok
        # the recomputed job was re-appended: a third run resumes both
        outs = run_jobs(jobs, n_jobs=1, checkpoint=tmp_path)
        assert all(o.resumed for o in outs)

    def test_torn_line_skipped_not_fatal(self, tmp_path):
        jobs = self._jobs()
        run_jobs(jobs, n_jobs=1, checkpoint=tmp_path)
        cp = SweepCheckpoint(tmp_path, jobs)
        text = cp.path.read_text()
        cp.path.write_text(text[: len(text) - 40])  # tear the final line
        assert len(cp.load()) == 1
        assert cp.skipped_lines == 1
        outs = run_jobs(jobs, n_jobs=1, checkpoint=tmp_path)
        assert all(o.ok for o in outs)
        assert outs[0].resumed and not outs[1].resumed
        # The re-run job was appended after the fragment, not onto it: a
        # third run resumes both.
        outs = run_jobs(jobs, n_jobs=1, checkpoint=tmp_path)
        assert all(o.resumed for o in outs)
        assert cp.load().keys() == {0, 1} and cp.skipped_lines == 1

    def test_different_sweep_gets_different_checkpoint(self, tmp_path):
        jobs = self._jobs()
        run_jobs(jobs, n_jobs=1, checkpoint=tmp_path)
        reordered = list(reversed(jobs))
        outs = run_jobs(reordered, n_jobs=1, checkpoint=tmp_path)
        # same jobs, different order → different identity, nothing resumed
        assert not any(o.resumed for o in outs)
        assert len(list(tmp_path.glob("sweep-*.jsonl"))) == 2

    def test_foreign_results_never_resurrected(self, tmp_path):
        jobs = self._jobs()
        run_jobs(jobs, n_jobs=1, checkpoint=tmp_path)
        # same sweep shape but different cycle budget → different fingerprints
        longer = [
            WorkloadJob(apps=j.apps, config=CFG,
                        shared_cycles=SMALL + 1000, models=())
            for j in jobs
        ]
        cp = SweepCheckpoint(tmp_path, longer)
        assert cp.load() == {}

    def test_pooled_resume_matches_inline(self, tmp_path):
        jobs = self._jobs()
        inline = run_jobs(jobs, n_jobs=1, checkpoint=tmp_path / "a")
        pooled = run_jobs(jobs, n_jobs=2, checkpoint=tmp_path / "b")
        for a, b in zip(inline, pooled):
            assert a.unwrap().to_dict() == b.unwrap().to_dict()
        resumed = run_jobs(jobs, n_jobs=2, checkpoint=tmp_path / "a")
        assert all(o.resumed for o in resumed)
        for a, b in zip(inline, resumed):
            assert a.unwrap().to_dict() == b.unwrap().to_dict()


# ------------------------------------------------------- replay-task chaos


def _sabotage(monkeypatch, app, misbehave):
    """Make alone replays of ``app`` call ``misbehave()`` before running.

    Patched in the parent before anything is forked, so job processes see
    it too; every other trajectory replays normally.
    """
    import repro.harness.parallel as par

    real = par.replay_alone

    def replay(spec, *args, **kw):
        if spec.name == app:
            misbehave()
        return real(spec, *args, **kw)

    monkeypatch.setattr(par, "replay_alone", replay)


def _bump(path):
    n = int(path.read_text() or "0") + 1 if path.exists() else 1
    path.write_text(str(n))
    return n


@pytest.mark.slow
class TestReplayTaskChaos:
    """Phase 2 goes through the same machinery as phase 1: a replay task
    that raises, dies or hangs is retried by the same rules, and one that
    stays failed fails exactly the jobs waiting on it."""

    PAIRS = (("QR", "CT"), ("NN", "CT"), ("SD", "VA"))

    def jobs(self, **kw):
        return [WorkloadJob(apps=p, config=CFG, shared_cycles=SMALL,
                            models=(), **kw) for p in self.PAIRS]

    @pytest.fixture(scope="class")
    def clean(self):
        return [o.unwrap().to_dict() for o in run_jobs(self.jobs(), n_jobs=1)]

    def test_raising_replay_fails_only_its_askers(self, monkeypatch, clean):
        def boom():
            raise ValueError("replay sabotaged")

        _sabotage(monkeypatch, "CT", boom)
        outs = run_jobs(self.jobs(), n_jobs=1, retries=1)
        for o in outs[:2]:  # both pairings wait on CT's trajectory
            assert not o.ok and o.result is None
            assert o.failure_kind == FAIL_EXCEPTION
            assert "alone replay replay:CT#1 failed after 2 attempt(s)" \
                in o.error
            assert "replay sabotaged" in o.error
            assert o.deferred == []
        assert outs[2].unwrap().to_dict() == clean[2]

    def test_flaky_replay_recovers_on_retry(self, monkeypatch, clean,
                                            tmp_path):
        def die_once():
            if _bump(tmp_path / "attempts") == 1:
                os._exit(29)

        _sabotage(monkeypatch, "CT", die_once)
        outs = run_jobs(self.jobs(), n_jobs=2, retries=3)
        assert [o.unwrap().to_dict() for o in outs] == clean
        assert int((tmp_path / "attempts").read_text()) >= 2

    def test_crashing_replay_blamed_after_isolation(self, monkeypatch, clean):
        _sabotage(monkeypatch, "CT", lambda: os._exit(31))
        outs = run_jobs(self.jobs(), n_jobs=2, retries=2)
        for o in outs[:2]:
            assert not o.ok and o.failure_kind == FAIL_CRASH
            assert "replay:CT#1" in o.error
            assert "died without unwinding" in o.error
        assert outs[2].unwrap().to_dict() == clean[2]

    def test_hung_replay_killed_by_the_job_timeout(self, monkeypatch, clean):
        _sabotage(monkeypatch, "CT", lambda: time.sleep(120.0))
        t0 = time.time()
        outs = run_jobs(self.jobs(), n_jobs=2, timeout_s=3.0, retries=0)
        assert time.time() - t0 < 60
        for o in outs[:2]:
            assert not o.ok and o.failure_kind == FAIL_TIMEOUT
        assert outs[2].unwrap().to_dict() == clean[2]

    def test_kill_between_phases_keeps_checkpoint_and_cache_valid(
            self, monkeypatch, clean, tmp_path):
        cache_dir, ckpt = str(tmp_path / "cache"), tmp_path / "ckpt"
        # SD+VA is already cached, so it settles (and is checkpointed) in
        # phase 1; the sweep is then killed while CT's trajectory — the
        # second replay task — starts, after QR's was stored.
        run_jobs(self.jobs(cache_dir=cache_dir)[2:], n_jobs=1)

        def killed():
            raise KeyboardInterrupt

        _sabotage(monkeypatch, "CT", killed)
        with pytest.raises(KeyboardInterrupt):
            run_jobs(self.jobs(cache_dir=cache_dir), n_jobs=1,
                     checkpoint=ckpt)
        monkeypatch.undo()
        cp = SweepCheckpoint(ckpt, self.jobs(cache_dir=cache_dir))
        assert sorted(cp.load()) == [2] and cp.skipped_lines == 0
        entries = list((tmp_path / "cache").glob("*.curve.json"))
        assert len(entries) == 3  # SD, VA, and QR's trajectory
        for path in entries:
            entry = json.loads(path.read_text())
            assert entry["checksum"] == entry_checksum(entry)
        outs = run_jobs(self.jobs(cache_dir=cache_dir), n_jobs=1,
                        checkpoint=ckpt)
        assert not (tmp_path / "cache" / "quarantine").exists()
        assert [o.resumed for o in outs] == [False, False, True]
        assert [o.unwrap().to_dict() for o in outs] == clean
        # What the killed sweep had stored was served, not recomputed.
        assert outs[0].cache == {"hits": 1, "misses": 1, "stores": 1}
