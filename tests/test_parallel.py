"""Tests for the process-pool sweep runner and the alone-replay cache."""

import pytest

from repro.config import GPUConfig
from repro.harness import scaled_config
from repro.harness.parallel import (
    WorkloadJob,
    execute_job,
    run_jobs,
    run_workloads,
)
from repro.harness.replay_cache import (
    AloneReplayCache,
    config_fingerprint,
    resolve_cache,
    spec_fingerprint,
)
from repro.sim.kernel import ProgressCurve
from repro.workloads import SUITE

CFG = scaled_config()
SMALL = 30_000


class TestFingerprints:
    def test_spec_fingerprint_stable(self):
        a = spec_fingerprint(SUITE["QR"], 0)
        assert a == spec_fingerprint(SUITE["QR"], 0)

    def test_spec_fingerprint_depends_on_stream(self):
        assert spec_fingerprint(SUITE["QR"], 0) != spec_fingerprint(SUITE["QR"], 1)

    def test_spec_fingerprint_depends_on_spec(self):
        assert spec_fingerprint(SUITE["QR"], 0) != spec_fingerprint(SUITE["CT"], 0)

    def test_config_fingerprint_depends_on_fields(self):
        assert config_fingerprint(GPUConfig()) != config_fingerprint(
            GPUConfig(n_sms=8)
        )
        assert config_fingerprint(GPUConfig()) != config_fingerprint(
            GPUConfig(seed=999)
        )

    def test_config_fingerprint_stable(self):
        assert config_fingerprint(GPUConfig()) == config_fingerprint(GPUConfig())

    def test_fingerprint_bytes_predate_repro_hashing(self):
        # Literal from the commit before repro.hashing: cache files keyed
        # on either side of it are found from the other.  (The config
        # fingerprint is pinned the same way by tests/golden.)
        from repro.harness.replay_cache import fingerprint

        assert fingerprint({"b": (1, 2), "a": {"y": 1.5, "x": None}}) == (
            "ed50af309349a493277fa4dbeb8a4b0ab3bdf3b00bbedcbdef7ae3ff753db135")


#: A made-up trajectory: 400 instructions by cycle 300, 1000 by cycle 777.
CURVE = ProgressCurve([300, 777], [400, 1000])


class TestAloneReplayCache:
    def test_miss_then_hit(self, tmp_path):
        cache = AloneReplayCache(tmp_path)
        spec = SUITE["QR"]
        assert cache.get(spec, 0, CFG, 1000) is None
        assert cache.put(spec, 0, CFG, 1000, 777, CURVE)
        assert cache.get(spec, 0, CFG, 1000) == 777
        assert cache.misses == 1 and cache.hits == 1 and cache.stores == 1

    def test_persists_across_instances(self, tmp_path):
        AloneReplayCache(tmp_path).put(SUITE["QR"], 0, CFG, 1000, 777, CURVE)
        fresh = AloneReplayCache(tmp_path)
        assert fresh.get(SUITE["QR"], 0, CFG, 1000) == 777
        assert len(fresh) == 1
        assert fresh.curve(SUITE["QR"], 0, CFG).end == 1000

    def test_every_count_along_the_curve_is_a_hit(self, tmp_path):
        cache = AloneReplayCache(tmp_path)
        cache.put(SUITE["QR"], 0, CFG, 1000, 777, CURVE)
        fresh = AloneReplayCache(tmp_path)
        assert [fresh.get(SUITE["QR"], 0, CFG, n)
                for n in (1, 400, 401, 999, 1000)] == [300, 300, 777, 777, 777]
        assert fresh.get(SUITE["QR"], 0, CFG, 1001) is None  # past the end
        assert fresh.hits == 5 and fresh.misses == 1
        assert len(fresh) == 1  # one file per trajectory, not per count

    def test_key_separates_trajectories(self, tmp_path):
        cache = AloneReplayCache(tmp_path)
        cache.put(SUITE["QR"], 0, CFG, 1000, 777, CURVE)
        assert cache.get(SUITE["QR"], 1, CFG, 1000) is None  # other stream
        assert cache.get(SUITE["CT"], 0, CFG, 1000) is None  # other kernel
        assert cache.get(SUITE["QR"], 0, scaled_config(seed=9), 1000) is None

    def test_put_checks_the_curve_against_the_replay(self, tmp_path):
        with pytest.raises(ValueError, match="cycle 777"):
            AloneReplayCache(tmp_path).put(
                SUITE["QR"], 0, CFG, 1000, 778, CURVE)

    def test_corrupt_entry_treated_as_miss(self, tmp_path):
        cache = AloneReplayCache(tmp_path)
        key = cache.key(SUITE["QR"], 0, CFG)
        (tmp_path / f"{key}.curve.json").write_text("not json {")
        assert cache.get(SUITE["QR"], 0, CFG, 1000) is None

    def test_legacy_per_count_files_are_ignored(self, tmp_path):
        (tmp_path / ("ab" * 32 + ".json")).write_text(
            '{"alone_cycles": 777, "instructions": 1000}')
        cache = AloneReplayCache(tmp_path)
        assert len(cache) == 0
        assert cache.get(SUITE["QR"], 0, CFG, 1000) is None
        assert cache.quarantined == 0

    def test_rejects_non_directory(self, tmp_path):
        f = tmp_path / "afile"
        f.write_text("x")
        with pytest.raises(ValueError, match="not a directory"):
            AloneReplayCache(f)
        with pytest.raises(ValueError, match="not a directory"):
            run_workloads([("QR", "CT")], cache_dir=str(f))

    def test_resolve_cache(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_cache(None) is None
        assert resolve_cache(tmp_path).directory == tmp_path
        inst = AloneReplayCache(tmp_path)
        assert resolve_cache(inst) is inst
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert resolve_cache(None).directory == tmp_path / "env"


class TestJobExecution:
    def test_inline_matches_pool_ordering(self):
        jobs = [
            WorkloadJob(apps=("QR", "CT"), config=CFG,
                        shared_cycles=SMALL, models=()),
            WorkloadJob(apps=("NN", "VA"), config=CFG,
                        shared_cycles=SMALL, models=()),
        ]
        outcomes = run_jobs(jobs, n_jobs=1)
        assert [o.index for o in outcomes] == [0, 1]
        assert outcomes[0].unwrap().names == ["QR", "CT"]
        assert outcomes[1].unwrap().names == ["NN", "VA"]

    def test_failure_captured_not_raised(self):
        jobs = [
            WorkloadJob(apps=("QR", "NOPE"), config=CFG, shared_cycles=SMALL),
            WorkloadJob(apps=("QR", "CT"), config=CFG,
                        shared_cycles=SMALL, models=()),
        ]
        outcomes = run_jobs(jobs, n_jobs=1)
        assert not outcomes[0].ok and "NOPE" in outcomes[0].error
        assert outcomes[1].ok  # the sweep continued past the failure
        with pytest.raises(RuntimeError, match="QR\\+NOPE"):
            outcomes[0].unwrap()

    def test_unknown_policy_rejected(self):
        job = WorkloadJob(apps=("QR", "CT"), config=CFG,
                          shared_cycles=SMALL, models=(), policy="bogus")
        with pytest.raises(ValueError, match="unknown policy"):
            execute_job(job)

    def test_run_workloads_uses_cache_dir(self, tmp_path):
        out1 = run_workloads(
            [("QR", "CT")], config=CFG, shared_cycles=SMALL,
            models=(), cache_dir=str(tmp_path),
        )
        assert out1[0].ok
        assert len(AloneReplayCache(tmp_path)) == 2  # one curve per app

    def test_empty_job_list(self):
        assert run_jobs([], n_jobs=4) == []

    def test_job_key(self):
        job = WorkloadJob(apps=("QR", SUITE["CT"]))
        assert job.key == "QR+CT"

    def test_negative_retries_is_a_value_error(self):
        with pytest.raises(ValueError, match="retries must be >= 0, got -1"):
            run_jobs([WorkloadJob(apps=("QR", "CT"))], retries=-1)


class _Built(Exception):
    pass


class TestResolvedJob:
    """A WorkloadJob states its run once, resolved where it is built."""

    def test_defaults_are_resolved_when_the_job_is_built(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_FULL", raising=False)
        job = WorkloadJob(apps=["SD", "QR"], sm_partition=[10, 6],
                          models=["DASE"])
        assert job.config == scaled_config()
        assert job.shared_cycles == 120_000
        assert job.apps == ("SD", "QR") and job.sm_partition == (10, 6)
        assert job.models == ("DASE",) and job.cache_dir is None
        # A bad app name is the job's to fail, when it runs.
        assert WorkloadJob(apps=("QR", "NOPE")).apps == ("QR", "NOPE")

    def test_the_checkpoint_tells_the_scales_apart(self, tmp_path,
                                                   monkeypatch):
        from repro.harness.checkpoint import SweepCheckpoint

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        paths = {}
        for full in ("0", "1"):
            monkeypatch.setenv("REPRO_FULL", full)
            paths[full] = SweepCheckpoint(
                tmp_path, [WorkloadJob(apps=("SD", "QR"))]).path
        assert paths["0"] != paths["1"]

    @pytest.mark.parametrize("made", [False, True])
    def test_an_unmade_or_empty_env_cache_dir_is_created_and_filled(
            self, tmp_path, monkeypatch, made):
        cache_dir = tmp_path / "alone_cache"
        if made:
            cache_dir.mkdir()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        (out,) = run_workloads([("QR", "CT")], config=CFG,
                               shared_cycles=SMALL, models=())
        assert out.ok and out.cache is not None
        assert len(list(cache_dir.glob("*.curve.json"))) == 2

    @pytest.mark.parametrize("driver", ["fig_degradation", "fig_churn"])
    def test_every_sweeping_driver_honours_the_env_cache_dir(
            self, tmp_path, monkeypatch, driver):
        from repro.harness import experiments
        from repro.opensys import churn

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        built = []

        def capture(jobs, **_):
            built.extend(jobs)
            raise _Built

        module = experiments if driver == "fig_degradation" else churn
        monkeypatch.setattr(module, "run_jobs", capture)
        with pytest.raises(_Built):
            getattr(module, driver)()
        assert built and {job.cache_dir for job in built} == {
            str(tmp_path / "c")}


@pytest.mark.slow
class TestProcessPool:
    def test_pool_failure_capture_and_order(self, tmp_path):
        jobs = [
            WorkloadJob(apps=("QR", "CT"), config=CFG,
                        shared_cycles=SMALL, models=(),
                        cache_dir=str(tmp_path)),
            WorkloadJob(apps=("QR", "NOPE"), config=CFG, shared_cycles=SMALL),
            WorkloadJob(apps=("NN", "VA"), config=CFG,
                        shared_cycles=SMALL, models=(),
                        cache_dir=str(tmp_path)),
        ]
        outcomes = run_jobs(jobs, n_jobs=2)
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert outcomes[0].ok and outcomes[2].ok and not outcomes[1].ok
        assert "KeyError" in outcomes[1].error
        # workers shared the on-disk cache directory
        assert len(AloneReplayCache(tmp_path)) == 4
