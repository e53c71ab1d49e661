"""Tests for the matched-instruction evaluation harness."""

import pytest

from repro.config import GPUConfig
from repro.harness import (
    AloneReplayCache,
    replay_alone,
    run_workload,
    scaled_config,
)
from repro.harness.runner import (
    ReplayRequest,
    WorkloadResult,
    full_scale,
    probe_alone,
)
from repro.metrics import estimation_error
from repro.sim.kernel import KernelSpec
from repro.workloads import SUITE


def small_config():
    return scaled_config()


@pytest.fixture(scope="module")
def sd_sa_result():
    return run_workload(["SD", "SA"], config=small_config(), shared_cycles=80_000)


@pytest.mark.slow
class TestRunWorkload:
    def test_names_resolved(self, sd_sa_result):
        assert sd_sa_result.names == ["SD", "SA"]

    def test_default_even_partition(self, sd_sa_result):
        assert sd_sa_result.sm_partition == [8, 8]

    def test_actual_slowdowns_reasonable(self, sd_sa_result):
        for s in sd_sa_result.actual_slowdowns:
            assert 1.0 <= s <= 20.0

    def test_alone_replay_faster_than_shared(self, sd_sa_result):
        """Per instruction, alone on all SMs is faster than shared on half."""
        for c in sd_sa_result.alone_cycles:
            assert c < sd_sa_result.shared_cycles

    def test_estimates_present_for_all_models(self, sd_sa_result):
        for model in ("DASE", "MISE", "ASM"):
            assert model in sd_sa_result.estimates
            assert len(sd_sa_result.estimates[model]) == 2

    def test_errors_match_manual_computation(self, sd_sa_result):
        errs = sd_sa_result.errors("DASE")
        manual = [
            estimation_error(e, a)
            for e, a in zip(
                sd_sa_result.estimates["DASE"], sd_sa_result.actual_slowdowns
            )
            if e is not None
        ]
        assert errs == manual

    def test_unfairness_and_hspeedup(self, sd_sa_result):
        assert sd_sa_result.actual_unfairness >= 1.0
        assert 0.0 < sd_sa_result.actual_hspeedup <= 1.0

    def test_bandwidth_reported(self, sd_sa_result):
        assert set(sd_sa_result.bandwidth) == {"SD", "SA", "total"}
        assert sd_sa_result.bandwidth["total"] == pytest.approx(
            sd_sa_result.bandwidth["SD"] + sd_sa_result.bandwidth["SA"], abs=1e-9
        )


@pytest.mark.slow
class TestHarnessOptions:
    def test_custom_partition(self):
        res = run_workload(
            ["QR", "CT"], config=small_config(), shared_cycles=40_000,
            sm_partition=[4, 12], models=("DASE",),
        )
        assert res.sm_partition == [4, 12]

    def test_kernel_specs_accepted_directly(self):
        spec = KernelSpec("custom", compute_per_mem=20, warps_per_block=4)
        res = run_workload(
            [spec, "QR"], config=small_config(), shared_cycles=40_000,
            models=("DASE",),
        )
        assert res.names == ["custom", "QR"]

    def test_no_models(self):
        res = run_workload(
            ["QR", "CT"], config=small_config(), shared_cycles=40_000, models=()
        )
        assert res.estimates == {}
        assert res.actual_slowdowns

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            run_workload(["QR", "CT"], models=("BOGUS",))

    def test_mean_error_without_estimates_raises(self):
        res = run_workload(
            ["QR", "CT"], config=small_config(), shared_cycles=40_000, models=()
        )
        with pytest.raises(KeyError):
            res.mean_error("DASE")


class TestSkippedEstimates:
    """None estimates must be counted, not silently averaged away."""

    @staticmethod
    def _result(estimates):
        return WorkloadResult(
            names=["A", "B"], sm_partition=[8, 8], shared_cycles=1000,
            instructions=[10, 10], alone_cycles=[500, 500],
            actual_slowdowns=[2.0, 2.0], estimates=estimates,
        )

    def test_skipped_counts_nones(self):
        res = self._result({"DASE": [2.0, None], "MISE": [None, None]})
        assert res.skipped("DASE") == 1
        assert res.skipped("MISE") == 2
        assert res.skipped_counts == {"DASE": 1, "MISE": 2}

    def test_no_skips(self):
        res = self._result({"DASE": [2.0, 2.0]})
        assert res.skipped("DASE") == 0
        assert len(res.errors("DASE")) == 2

    def test_errors_length_plus_skipped_is_app_count(self):
        res = self._result({"DASE": [2.2, None]})
        assert len(res.errors("DASE")) + res.skipped("DASE") == 2

    def test_all_skipped_mean_error_raises(self):
        res = self._result({"DASE": [None, None]})
        with pytest.raises(ValueError, match="no estimates"):
            res.mean_error("DASE")

    def test_roundtrip_preserves_nones(self):
        res = self._result({"DASE": [2.0, None]})
        back = WorkloadResult.from_dict(res.to_dict())
        assert back.estimates["DASE"] == [2.0, None]
        assert back.skipped("DASE") == 1


class TestReplayAlone:
    CFG = scaled_config()

    def fresh(self, count, stream_id=1):
        """What the per-pairing methodology computed: one replay, one count."""
        return replay_alone(SUITE["SD"], stream_id, self.CFG, [count])[count]

    def test_one_trajectory_serves_every_count_in_any_order(self):
        # Unsorted, with a duplicate and a count below one already asked
        # for: each clock still equals a fresh replay to that count alone.
        counts = [9_000, 2_000, 30_000, 2_000, 9_001]
        clocks = replay_alone(SUITE["SD"], 1, self.CFG, counts)
        assert sorted(clocks) == [2_000, 9_000, 9_001, 30_000]
        for count, clock in clocks.items():
            assert clock.cycles == self.fresh(count).cycles
            assert not clock.cached and clock.seconds > 0
        assert clocks[2_000].cycles < clocks[9_000].cycles \
            <= clocks[9_001].cycles < clocks[30_000].cycles

    def test_stream_identity_is_part_of_the_trajectory(self):
        assert self.fresh(20_000, 0).cycles != self.fresh(20_000, 1).cycles

    def test_stores_every_count_but_never_looks_one_up(self, tmp_path):
        cache = AloneReplayCache(tmp_path)
        clocks = replay_alone(SUITE["SD"], 1, self.CFG, [2_000, 9_000], cache)
        # The curve is written as each count is reached, into one file.
        assert (cache.hits, cache.misses, cache.stores) == (0, 0, 2)
        assert all(clock.stored for clock in clocks.values())
        assert len(cache) == 1
        for count, clock in clocks.items():
            hit = probe_alone(AloneReplayCache(tmp_path), SUITE["SD"], 1,
                              self.CFG, count)
            assert hit.cached and hit.cycles == clock.cycles
        assert probe_alone(None, SUITE["SD"], 1, self.CFG, 2_000) is None

    def test_every_count_below_the_curve_end_is_a_hit(self, tmp_path):
        cache = AloneReplayCache(tmp_path)
        replay_alone(SUITE["SD"], 1, self.CFG, [9_000], cache)
        end = cache.curve(SUITE["SD"], 1, self.CFG).end
        assert end >= 9_000  # the stopping burst may overshoot
        for count in (1, 2_001, 8_999, end):
            hit = probe_alone(AloneReplayCache(tmp_path), SUITE["SD"], 1,
                              self.CFG, count)
            assert hit.cached and hit.cycles == self.fresh(count).cycles
        assert probe_alone(cache, SUITE["SD"], 1, self.CFG, end + 1) is None
        assert cache.stores == 1

    def test_a_count_past_the_end_extends_the_stored_curve(self, tmp_path):
        cache = AloneReplayCache(tmp_path)
        replay_alone(SUITE["SD"], 1, self.CFG, [4_000], cache)
        short = cache.curve(SUITE["SD"], 1, self.CFG).copy()
        other = AloneReplayCache(tmp_path)  # e.g. the next daemon job
        assert probe_alone(other, SUITE["SD"], 1, self.CFG, 12_000) is None
        clock = replay_alone(SUITE["SD"], 1, self.CFG, [12_000], other)[12_000]
        assert clock.stored and clock.cycles == self.fresh(12_000).cycles
        long = AloneReplayCache(tmp_path).curve(SUITE["SD"], 1, self.CFG)
        assert long.end >= 12_000 > short.end
        assert short.same_trajectory(long) and len(other) == 1
        # The first instance sees the extension although it holds the
        # shorter curve in memory.
        assert cache.get(SUITE["SD"], 1, self.CFG, 12_000) == clock.cycles

    def test_a_shorter_curve_never_replaces_a_longer_one(self, tmp_path):
        replay_alone(SUITE["SD"], 1, self.CFG, [12_000],
                     AloneReplayCache(tmp_path))
        path, = tmp_path.glob("*.curve.json")
        before = path.read_bytes()
        late = AloneReplayCache(tmp_path)
        clocks = replay_alone(SUITE["SD"], 1, self.CFG, [3_000, 6_000], late)
        assert late.stores == 0 and path.read_bytes() == before
        assert not any(clock.stored for clock in clocks.values())
        assert late.get(SUITE["SD"], 1, self.CFG, 12_000) is not None

    def test_clock_budget_is_absolute_and_keeps_earlier_entries(self, tmp_path):
        cache = AloneReplayCache(tmp_path)
        reachable = self.fresh(5_000)
        limit = reachable.cycles + 500
        with pytest.raises(RuntimeError, match="issued only"):
            replay_alone(SUITE["SD"], 1, self.CFG, [10**12], max_cycles=limit)
        with pytest.raises(RuntimeError, match="issued only"):
            replay_alone(SUITE["SD"], 1, self.CFG, [5_000, 10**12], cache,
                         max_cycles=limit)
        # The count reached before the guard fired is a valid entry.
        assert probe_alone(AloneReplayCache(tmp_path), SUITE["SD"], 1,
                           self.CFG, 5_000).cycles == reachable.cycles

    def test_no_counts_builds_nothing(self):
        assert replay_alone(SUITE["SD"], 0, self.CFG, []) == {}

    def test_deferred_run_equals_standalone_once_filled(self):
        kw = dict(config=self.CFG, shared_cycles=30_000, models=("DASE",))
        whole = run_workload(["SD", "QR"], **kw)
        owed: list[ReplayRequest] = []
        partial = run_workload(["SD", "QR"], deferred=owed, **kw)
        assert partial.alone_cycles == [None, None]
        assert partial.actual_slowdowns == [None, None]
        assert [(r.trajectory.stream_id, r.trajectory.spec.name,
                 r.instructions) for r in owed] \
            == [(0, "SD", whole.instructions[0]),
                (1, "QR", whole.instructions[1])]
        for req in owed:
            t = req.trajectory
            clock = replay_alone(t.spec, t.stream_id, t.config,
                                 [req.instructions],
                                 max_cycles=t.max_cycles)[req.instructions]
            partial.set_alone(t.stream_id, clock.cycles)
        assert partial.to_dict() == whole.to_dict()


class TestScaledConfig:
    def test_scaled_interval(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        cfg = scaled_config()
        assert cfg.interval_cycles == 12_000

    def test_full_scale_keeps_paper_interval(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        cfg = scaled_config()
        assert cfg.interval_cycles == 50_000
        assert full_scale()

    def test_explicit_interval_wins(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        cfg = scaled_config(interval_cycles=7_000)
        assert cfg.interval_cycles == 7_000

    def test_backend_override_is_gone_except_the_ledgers_literal(self):
        # benchmarks/ledger/micro.py (frozen by BENCHMARK.json) still passes
        # backend="reference"; that literal is dropped, nothing else is.
        assert scaled_config(backend="reference") == scaled_config()
        with pytest.raises(ValueError, match="backend option was removed") \
                as err:
            scaled_config(backend="vectorized")
        assert "\n" not in str(err.value)
        with pytest.raises(TypeError):
            GPUConfig(backend="reference")
