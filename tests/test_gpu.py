"""Integration tests for the top-level GPU."""

import gc
import random
import weakref

import pytest

from repro.config import GPUConfig
from repro.harness import scaled_config
from repro.sim.gpu import GPU, LaunchedKernel
from repro.sim.kernel import AccessPattern, KernelSpec
from repro.workloads import SUITE


def cfg(**over):
    over.setdefault("interval_cycles", 5_000)
    return GPUConfig(**over)


def spec(name="k", **over):
    over.setdefault("compute_per_mem", 10)
    over.setdefault("warps_per_block", 4)
    return KernelSpec(name, **over)


class TestConstruction:
    def test_default_even_partition(self):
        gpu = GPU(cfg(), [spec("a"), spec("b")])
        assert gpu.sm_counts() == [8, 8]

    def test_uneven_default_partition(self):
        gpu = GPU(cfg(), [spec("a"), spec("b"), spec("c")])
        assert gpu.sm_counts() == [6, 5, 5]

    def test_explicit_partition(self):
        gpu = GPU(cfg(), [spec("a"), spec("b")], sm_partition=[4, 12])
        assert gpu.sm_counts() == [4, 12]

    def test_first_app_gets_first_sms(self):
        gpu = GPU(cfg(), [spec("a"), spec("b")], sm_partition=[3, 13])
        assert [sm.app for sm in gpu.sms[:3]] == [0, 0, 0]
        assert all(sm.app == 1 for sm in gpu.sms[3:])

    def test_partition_must_cover_each_app(self):
        with pytest.raises(ValueError):
            GPU(cfg(), [spec("a"), spec("b")], sm_partition=[0, 16])

    def test_partition_cannot_exceed_sms(self):
        with pytest.raises(ValueError):
            GPU(cfg(), [spec("a"), spec("b")], sm_partition=[10, 10])

    def test_partition_length_mismatch(self):
        with pytest.raises(ValueError):
            GPU(cfg(), [spec("a")], sm_partition=[8, 8])

    def test_no_kernels_rejected(self):
        with pytest.raises(ValueError):
            GPU(cfg(), [])


class TestExecution:
    def test_run_advances_clock(self):
        gpu = GPU(cfg(), [spec()])
        assert gpu.run(10_000) == 10_000

    def test_incremental_runs_accumulate(self):
        gpu = GPU(cfg(), [spec()])
        gpu.run(5_000)
        gpu.run(5_000)
        assert gpu.engine.now == 10_000

    def test_instructions_flow(self):
        gpu = GPU(cfg(), [spec()])
        gpu.run(10_000)
        assert gpu.progress[0].instructions > 1000

    def test_run_until_instructions(self):
        gpu = GPU(cfg(), [spec()])
        end = gpu.run_until_instructions(0, 5_000)
        assert gpu.progress[0].instructions >= 5_000
        # Overshoot bounded by one warp burst.
        assert gpu.progress[0].instructions < 5_000 + 200
        assert end == gpu.engine.now

    def test_run_until_instructions_timeout(self):
        gpu = GPU(cfg(), [spec()])
        with pytest.raises(RuntimeError):
            gpu.run_until_instructions(0, 10**12, max_cycles=1_000)

    def test_non_restarting_kernel_finishes(self):
        k = LaunchedKernel(
            spec(blocks_total=2, insts_per_warp=50), restart=False
        )
        gpu = GPU(cfg(n_sms=1), [k])
        gpu.run(200_000)
        assert gpu.progress[0].blocks_finished == 2
        assert gpu.progress[0].instructions == 2 * 4 * 50

    def test_restarting_kernel_never_runs_dry(self):
        k = LaunchedKernel(spec(blocks_total=2, insts_per_warp=50), restart=True)
        gpu = GPU(cfg(n_sms=1), [k])
        gpu.run(50_000)
        assert gpu.progress[0].restarts > 0
        assert gpu.progress[0].instructions > 2 * 4 * 50


def alone(name, stream_id=0):
    """A fresh alone-replay GPU for one suite kernel."""
    return GPU(scaled_config(),
               [LaunchedKernel(SUITE[name], restart=True, stream_id=stream_id)])


class TestResumedReplay:
    """One GPU advanced through ascending instruction counts must land on
    the clocks fresh replays reach — what lets a sweep simulate each alone
    trajectory once instead of once per pairing."""

    def test_target_cleared_when_count_already_reached(self):
        gpu = GPU(cfg(), [spec()])
        gpu.run_until_instructions(0, 2_000)
        now = gpu.engine.now
        assert gpu.run_until_instructions(0, 1_000) == now  # already passed
        # The stale target used to stop the next run after one cycle.
        assert gpu.run(10_000) == now + 10_000

    def test_target_cleared_after_timeout(self):
        gpu = GPU(cfg(), [spec()])
        with pytest.raises(RuntimeError):
            gpu.run_until_instructions(0, 10**12, max_cycles=1_000)
        assert gpu.run(5_000) == 6_000

    @pytest.mark.parametrize("name", sorted(SUITE))
    def test_resumed_clocks_equal_fresh_replays(self, name):
        rng = random.Random(f"resume-{name}")
        probe = alone(name)
        probe.run(6_000)
        total = probe.progress[0].instructions
        assert total > 100, "window too short to draw counts from"
        counts = sorted(rng.randrange(1, total) for _ in range(3))
        counts.insert(1, counts[0])  # a duplicate
        gpu = alone(name)
        resumed = [gpu.run_until_instructions(0, c) for c in counts]
        # Whatever the stopping burst overshot to was crossed by that same
        # burst, so it is reached at the same clock.
        overshoot = gpu.progress[0].instructions
        assert overshoot >= counts[-1]
        counts.append(overshoot)
        resumed.append(gpu.run_until_instructions(0, overshoot))
        assert resumed[-1] == resumed[-2]
        fresh = {c: alone(name).run_until_instructions(0, c)
                 for c in set(counts)}
        assert resumed == [fresh[c] for c in counts]

    def test_budget_guard_raises_at_the_same_absolute_cycle(self):
        limit = 3_000
        fresh = alone("SD")
        with pytest.raises(RuntimeError):
            fresh.run_until_instructions(0, 10**12, max_cycles=limit)
        gpu = alone("SD")
        gpu.run_until_instructions(0, 5_000)
        assert 0 < gpu.engine.now < limit
        with pytest.raises(RuntimeError):
            gpu.run_until_instructions(
                0, 10**12, max_cycles=limit - gpu.engine.now)
        assert gpu.engine.now == fresh.engine.now == limit
        assert gpu.progress[0].instructions == fresh.progress[0].instructions


class TestProgressCurve:
    """The curve a replay records answers every count up to its end with
    the clock a fresh replay to that count stops at — what lets the replay
    cache store trajectories instead of points."""

    @pytest.mark.parametrize("stream_id", [0, 1])
    @pytest.mark.parametrize("name", sorted(SUITE))
    def test_lookup_equals_fresh_replay(self, name, stream_id):
        rng = random.Random(f"curve-{name}-{stream_id}")
        probe = alone(name, stream_id)
        probe.run(5_000)
        total = probe.progress[0].instructions
        assert total > 100, "window too short to draw counts from"
        counts = sorted(rng.randrange(1, total) for _ in range(2))
        gpu = alone(name, stream_id)
        curve = gpu.record_progress(0)
        assert curve.end == 0 and curve.cycle_at(1) is None
        # Advance like a sweep's trajectory: resumed, stopping mid-cycle.
        stops = []
        for count in counts:
            assert gpu.run_until_instructions(0, count) \
                == curve.cycle_at(count)
            stops.append((len(curve) - 1, curve.end))
        assert curve.end == gpu.progress[0].instructions >= counts[-1]
        picks = {1, curve.end, *counts}
        # Each side of a step somewhere inside, and of every entry a stop
        # left partial: what it held then and what resuming raised it to.
        for i, partial in [(rng.randrange(len(curve) - 1), 0), *stops]:
            picks |= {partial, partial + 1,
                      curve.instructions[i], curve.instructions[i] + 1}
        picks = sorted(n for n in picks if 1 <= n <= curve.end)
        fresh = [alone(name, stream_id).run_until_instructions(0, n)
                 for n in picks]
        assert [curve.cycle_at(n) for n in picks] == fresh
        assert curve.cycle_at(curve.end + 1) is None
        assert curve.cycle_at(0) == 0  # as run_until_instructions(0, 0)

    def test_recording_changes_nothing_and_needs_cycle_zero(self):
        plain, recorded = alone("SD"), alone("SD")
        curve = recorded.record_progress(0)
        assert plain.run_until_instructions(0, 7_000) \
            == recorded.run_until_instructions(0, 7_000)
        assert plain.progress[0].instructions == curve.end
        with pytest.raises(RuntimeError, match="cycle 0"):
            plain.record_progress(0)
        with pytest.raises(RuntimeError, match="run_until_instructions"):
            recorded.run(1_000)

    def test_same_trajectory(self):
        gpu = alone("SB", 1)
        curve = gpu.record_progress(0)
        gpu.run_until_instructions(0, 3_000)
        short = curve.copy()
        gpu.run_until_instructions(0, 9_000)
        assert short.end < curve.end
        assert short.same_trajectory(curve) and curve.same_trajectory(short)
        other = alone("SB", 0)
        other_curve = other.record_progress(0)
        other.run_until_instructions(0, 9_000)
        assert not short.same_trajectory(other_curve)
        bent = curve.copy()
        bent.cycles[len(short) // 2] += 1
        assert not short.same_trajectory(bent)


class TestClose:
    def test_close_frees_the_machine_without_the_collector(self):
        # SMs and partitions reference themselves (cached bound methods)
        # and the GPU; only close() lets reference counting free them.
        gc.collect()
        gc.disable()
        try:
            gpu = GPU(cfg(), [spec("a"), spec("b")])
            gpu.add_interval_listener(lambda records: None)
            gpu.run(12_000)
            refs = [weakref.ref(gpu), weakref.ref(gpu.sms[0]),
                    weakref.ref(gpu.partitions[0])]
            gpu.close()
            assert gpu.sm_counts() == [8, 8]  # readouts survive
            assert gpu.progress[0].instructions > 0
            assert 0.0 < gpu.bandwidth_utilization() <= 1.0
            del gpu
            assert [r() for r in refs] == [None, None, None]
        finally:
            gc.enable()

    def test_closed_gpu_refuses_to_run(self):
        gpu = GPU(cfg(), [spec()])
        gpu.run(1_000)
        gpu.close()
        with pytest.raises(RuntimeError, match="closed"):
            gpu.run(1_000)
        with pytest.raises(RuntimeError, match="closed"):
            gpu.run_until_instructions(0, 10**6)


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        results = []
        for _ in range(2):
            gpu = GPU(cfg(), [spec("a"), spec("b", pattern=AccessPattern.RANDOM)])
            gpu.run(15_000)
            results.append(
                (
                    tuple(p.instructions for p in gpu.progress),
                    tuple(a.requests_served for a in gpu.mem_stats.apps),
                )
            )
        assert results[0] == results[1]

    def test_different_seed_differs(self):
        outs = []
        for seed in (1, 2):
            gpu = GPU(cfg(seed=seed), [spec(pattern=AccessPattern.RANDOM)])
            gpu.run(15_000)
            outs.append(gpu.progress[0].instructions)
        assert outs[0] != outs[1]

    def test_stream_id_reproduces_shared_streams(self):
        """An alone replay with stream_id=1 sees app 1's exact streams."""
        shared = GPU(cfg(), [spec("a"), spec("b")])
        shared.run(10_000)
        alone = GPU(cfg(), [LaunchedKernel(spec("b"), stream_id=1)])
        alone.run(10_000)
        # Same address space slice: partition traffic shape matches.
        assert alone.mem_stats.apps[0].requests_served > 0


class TestIntervals:
    def test_interval_records_emitted(self):
        gpu = GPU(cfg(interval_cycles=2_000), [spec("a"), spec("b")])
        gpu.run(10_000)
        assert len(gpu.interval_history) == 5
        assert all(len(row) == 2 for row in gpu.interval_history)

    def test_interval_deltas_sum_to_totals(self):
        gpu = GPU(cfg(interval_cycles=2_000), [spec()])
        gpu.run(10_000)
        total = sum(r[0].mem.requests_served for r in gpu.interval_history)
        assert total == gpu.mem_stats.apps[0].requests_served

    def test_interval_listener_called(self):
        gpu = GPU(cfg(interval_cycles=2_000), [spec()])
        seen = []
        gpu.add_interval_listener(lambda recs: seen.append(recs[0].end))
        gpu.run(6_000)
        assert seen == [2_000, 4_000, 6_000]

    def test_record_sm_counts(self):
        gpu = GPU(cfg(interval_cycles=2_000), [spec("a"), spec("b")],
                  sm_partition=[4, 12])
        gpu.run(2_000)
        rec_a, rec_b = gpu.interval_history[0]
        assert rec_a.sm_count == 4
        assert rec_b.sm_count == 12
        assert rec_a.sm_total == 16

    def test_alpha_in_unit_interval(self):
        gpu = GPU(cfg(interval_cycles=2_000), [spec()])
        gpu.run(10_000)
        for row in gpu.interval_history:
            assert 0.0 <= row[0].sm.alpha <= 1.0


class TestBandwidthAccounting:
    def test_utilization_bounded(self):
        gpu = GPU(cfg(), [spec(compute_per_mem=2)])
        gpu.run(20_000)
        assert 0.0 < gpu.bandwidth_utilization() <= 1.0

    def test_per_app_utilization_sums_to_total(self):
        gpu = GPU(cfg(), [spec("a"), spec("b")])
        gpu.run(20_000)
        total = gpu.bandwidth_utilization()
        per = gpu.bandwidth_utilization(0) + gpu.bandwidth_utilization(1)
        assert per == pytest.approx(total)

    def test_breakdown_sums_to_one(self):
        gpu = GPU(cfg(), [spec("a"), spec("b", compute_per_mem=3)])
        gpu.run(20_000)
        b = gpu.bandwidth_breakdown()
        assert sum(b.values()) == pytest.approx(1.0, abs=1e-6)
        assert all(v >= 0 for v in b.values())

    def test_idle_gpu_breakdown(self):
        gpu = GPU(cfg(), [spec(compute_per_mem=3000, insts_per_warp=3001)])
        b = gpu.bandwidth_breakdown()
        assert b["idle"] == 1.0


class TestMemoryConservation:
    def test_l2_misses_conserved_as_dram_requests(self):
        """At any instant, L2 misses = served requests + in-flight ones."""
        gpu = GPU(cfg(), [spec("a"), spec("b", pattern=AccessPattern.RANDOM)])
        gpu.run(20_000)
        for app in range(2):
            m = gpu.mem_stats.apps[app]
            in_flight = gpu.mem_stats.outstanding(app)
            assert m.l2_misses == m.requests_served + in_flight
            assert in_flight >= 0

    def test_outstanding_bounded_by_warp_count(self):
        """Each warp has at most one memory instruction in flight."""
        gpu = GPU(cfg(), [spec()])
        gpu.run(20_000)
        max_warps = gpu.config.n_sms * gpu.config.max_warps_per_sm
        assert 0 <= gpu.mem_stats.outstanding(0) <= max_warps
