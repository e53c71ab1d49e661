"""The determinism contract behind parallel + cached execution.

Identical ``(workload, config, seed)`` inputs must produce identical
:class:`WorkloadResult` objects whether the run happens inline, in a
worker process, or is reconstructed through the on-disk caches.  Without
this, a warm-cache or pooled sweep could silently diverge from the serial
seed path.  Sweeps simulate each application's alone trajectory once for
all the pairings that contain it; the per-job ``run_workload`` loop, which
replays per pairing, is the reference they must reproduce exactly.
"""

import dataclasses
import json
import shutil

import pytest

from repro import durable
from repro.harness import (
    AloneReplayCache,
    WorkloadJob,
    run_jobs,
    run_workload,
    scaled_config,
)
from repro.harness.runner import WorkloadResult

CFG = scaled_config()
CYCLES = 40_000
APPS = ("QR", "CT")
MODELS = ("DASE", "MISE", "ASM")


def assert_results_identical(a: WorkloadResult, b: WorkloadResult) -> None:
    """Field-by-field exact equality (no tolerances: the sim is bit-exact)."""
    for f in dataclasses.fields(WorkloadResult):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        assert va == vb, f"field {f.name!r} differs: {va!r} != {vb!r}"


@pytest.fixture(scope="module")
def inline_result():
    return run_workload(APPS, config=CFG, shared_cycles=CYCLES, models=MODELS)


@pytest.mark.slow
class TestDeterminism:
    def test_inline_rerun_identical(self, inline_result):
        again = run_workload(APPS, config=CFG, shared_cycles=CYCLES,
                             models=MODELS)
        assert_results_identical(inline_result, again)

    def test_process_pool_identical(self, inline_result):
        job = WorkloadJob(apps=APPS, config=CFG, shared_cycles=CYCLES,
                          models=MODELS)
        outcomes = run_jobs([job, job], n_jobs=2)
        for outcome in outcomes:
            assert_results_identical(inline_result, outcome.unwrap())

    def test_alone_cache_roundtrip_identical(self, inline_result, tmp_path):
        cold_cache = AloneReplayCache(tmp_path)
        cold = run_workload(APPS, config=CFG, shared_cycles=CYCLES,
                            models=MODELS, alone_cache=cold_cache)
        assert cold_cache.stores == len(APPS)
        assert_results_identical(inline_result, cold)

        warm_cache = AloneReplayCache(tmp_path)
        warm = run_workload(APPS, config=CFG, shared_cycles=CYCLES,
                            models=MODELS, alone_cache=warm_cache)
        assert warm_cache.hits == len(APPS)  # replays came from disk
        assert warm_cache.stores == 0
        assert_results_identical(inline_result, warm)

    def test_serialization_roundtrip_identical(self, inline_result, tmp_path):
        path = durable.replace_text(
            tmp_path / "result.json", json.dumps(inline_result.to_dict()))
        restored = WorkloadResult.from_dict(json.loads(path.read_text()))
        assert_results_identical(inline_result, restored)

    def test_pool_and_cache_compose(self, inline_result, tmp_path):
        """Pooled run on a warm cache still equals the inline seed run."""
        seed_cache = AloneReplayCache(tmp_path)
        run_workload(APPS, config=CFG, shared_cycles=CYCLES, models=MODELS,
                     alone_cache=seed_cache)
        job = WorkloadJob(apps=APPS, config=CFG, shared_cycles=CYCLES,
                          models=MODELS, cache_dir=str(tmp_path))
        (outcome,) = run_jobs([job], n_jobs=2)
        assert_results_identical(inline_result, outcome.unwrap())


# Pairings that share applications *at the same stream position* (QR first
# twice, CT second twice), so one alone trajectory serves two jobs each.
SHARING = (("QR", "CT"), ("QR", "NN"), ("SD", "CT"))


@pytest.fixture(scope="module")
def per_job_reference():
    return [
        run_workload(apps, config=CFG, shared_cycles=CYCLES,
                     models=("DASE",)).to_dict()
        for apps in SHARING
    ]


@pytest.mark.slow
class TestTwoPhaseSweeps:
    def jobs(self, cache_dir=None):
        return [
            WorkloadJob(apps=apps, config=CFG, shared_cycles=CYCLES,
                        models=("DASE",), cache_dir=cache_dir)
            for apps in SHARING
        ]

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_sweep_equals_per_job_loop(self, per_job_reference, n_jobs):
        outcomes = run_jobs(self.jobs(), n_jobs=n_jobs)
        assert [o.unwrap().to_dict() for o in outcomes] == per_job_reference
        assert all(o.deferred == [] for o in outcomes)

    def test_cold_warm_and_resumed_sweeps_agree(self, per_job_reference,
                                                tmp_path):
        cache_dir, ckpt = str(tmp_path / "cache"), tmp_path / "ckpt"
        cold = run_jobs(self.jobs(cache_dir), n_jobs=2, checkpoint=ckpt)
        assert [o.unwrap().to_dict() for o in cold] == per_job_reference
        # Six requested clocks from four trajectories (QR and CT are each
        # asked for twice, at different counts): one curve per trajectory,
        # written as each count was reached, under the key a per-job run
        # looks up.
        assert len(AloneReplayCache(cache_dir)) == 4
        assert [o.cache for o in cold] == [
            {"hits": 0, "misses": 2, "stores": 2}] * 3
        warm = run_jobs(self.jobs(cache_dir), n_jobs=1)
        assert [o.unwrap().to_dict() for o in warm] == per_job_reference
        assert [o.cache for o in warm] == [
            {"hits": 2, "misses": 0, "stores": 0}] * 3
        assert all(o.replay_s == 0.0 for o in warm)
        resumed = run_jobs(self.jobs(cache_dir), n_jobs=2, checkpoint=ckpt)
        assert all(o.resumed for o in resumed)
        assert [o.unwrap().to_dict() for o in resumed] == per_job_reference
        # A standalone run is served by the sweep's curves, and the other
        # way round: same keys.
        solo_cache = AloneReplayCache(cache_dir)
        solo = run_workload(SHARING[1], config=CFG, shared_cycles=CYCLES,
                            models=("DASE",), alone_cache=solo_cache)
        assert solo.to_dict() == per_job_reference[1]
        assert (solo_cache.hits, solo_cache.stores) == (2, 0)

    def test_a_filled_cache_serves_another_sweep_bit_for_bit(self, tmp_path):
        """Curves are keyed by trajectory, not by count: a sweep with
        another policy, other co-runners and another window asks for other
        counts and is still served — with the clocks its own uncached run
        computes."""
        filled = tmp_path / "filled"
        run_jobs(self.jobs(str(filled)), n_jobs=1)

        def other(cache_dir=None):
            return [
                WorkloadJob(apps=apps, config=CFG, shared_cycles=24_000,
                            models=("DASE",), policy="dase_fair",
                            cache_dir=cache_dir)
                for apps in (("SD", "NN"), ("QR", "VA"))
            ]

        uncached = [o.unwrap().to_dict() for o in run_jobs(other(), n_jobs=1)]
        served = {}
        for n_jobs in (1, 2):
            cache_dir = tmp_path / f"copy-{n_jobs}"
            shutil.copytree(filled, cache_dir)
            outs = run_jobs(other(str(cache_dir)), n_jobs=n_jobs)
            assert [o.unwrap().to_dict() for o in outs] == uncached
            served[n_jobs] = [o.cache for o in outs]
            # VA#1 is the one trajectory the first sweep never ran.
            assert len(AloneReplayCache(cache_dir)) == 5
        assert served[1] == served[2] == [
            {"hits": 2, "misses": 0, "stores": 0},
            {"hits": 1, "misses": 1, "stores": 1},
        ]
