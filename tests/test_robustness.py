"""Robustness: extreme configurations and degenerate workloads must not
crash or violate invariants."""

import pytest

from repro.config import CacheConfig, DRAMTimings, GPUConfig
from repro.core import ASM, DASE, MISE, PriorityRotator
from repro.sim.gpu import GPU, LaunchedKernel
from repro.sim.kernel import AccessPattern, KernelSpec


def run(cfg, kernels, cycles=8_000, partition=None):
    gpu = GPU(cfg, kernels, partition)
    gpu.run(cycles)
    return gpu


class TestExtremeConfigs:
    def test_single_sm_single_partition(self):
        cfg = GPUConfig(n_sms=1, n_partitions=1, interval_cycles=2_000)
        gpu = run(cfg, [KernelSpec("k", compute_per_mem=5)])
        assert gpu.progress[0].instructions > 0

    def test_many_small_partitions(self):
        cfg = GPUConfig(n_partitions=12, interval_cycles=2_000)
        gpu = run(cfg, [KernelSpec("k", compute_per_mem=5)])
        assert gpu.mem_stats.apps[0].requests_served > 0

    def test_two_banks(self):
        cfg = GPUConfig(n_banks=2, interval_cycles=2_000)
        gpu = run(cfg, [KernelSpec("k", compute_per_mem=2)])
        assert gpu.mem_stats.apps[0].requests_served > 0

    def test_tiny_l2(self):
        cfg = GPUConfig(
            l2=CacheConfig(size_bytes=8 * 128 * 2, line_bytes=128, assoc=2),
            interval_cycles=2_000,
        )
        gpu = run(cfg, [KernelSpec("k", compute_per_mem=5, reuse_fraction=0.5)])
        m = gpu.mem_stats.apps[0]
        assert m.l2_hits + m.l2_misses > 0

    def test_slow_dram(self):
        cfg = GPUConfig(dram=DRAMTimings(tRP=40, tRCD=40, tCL=40, tBurst=16),
                        interval_cycles=2_000)
        gpu = run(cfg, [KernelSpec("k", compute_per_mem=2, warps_per_block=2)])
        assert gpu.sm_counters[0].alpha > 0.1

    def test_zero_latency_interconnect(self):
        cfg = GPUConfig(icnt_latency=0, l2_latency=0, interval_cycles=2_000)
        gpu = run(cfg, [KernelSpec("k", compute_per_mem=5)])
        assert gpu.progress[0].instructions > 0

    def test_no_issue_gap(self):
        cfg = GPUConfig(mc_issue_gap=0, interval_cycles=2_000)
        gpu = run(cfg, [KernelSpec("k", compute_per_mem=1)])
        assert gpu.bandwidth_utilization() > 0.3

    def test_wide_issue(self):
        cfg = GPUConfig(issue_width=4, interval_cycles=2_000)
        gpu = run(cfg, [KernelSpec("k", compute_per_mem=100, warps_per_block=8)])
        ipc = gpu.progress[0].instructions / gpu.engine.now
        assert 1.0 < ipc <= 4.0 * cfg.n_sms


class TestDegenerateWorkloads:
    def test_max_apps(self):
        cfg = GPUConfig(interval_cycles=2_000)
        kernels = [
            KernelSpec(f"k{i}", compute_per_mem=10, warps_per_block=2)
            for i in range(16)
        ]
        gpu = run(cfg, kernels)  # one SM each
        assert gpu.sm_counts() == [1] * 16

    def test_pure_compute_app_makes_no_requests(self):
        # compute_per_mem huge relative to run length: almost pure compute.
        cfg = GPUConfig(interval_cycles=2_000)
        spec = KernelSpec(
            "c", compute_per_mem=50_000, insts_per_warp=50_002,
            warps_per_block=2,
        )
        gpu = run(cfg, [spec])
        assert gpu.mem_stats.apps[0].requests_served == 0
        assert gpu.sm_counters[0].alpha == 0.0

    def test_single_tiny_block_finishes_and_idles(self):
        cfg = GPUConfig(n_sms=2, interval_cycles=2_000)
        k = LaunchedKernel(
            KernelSpec("t", compute_per_mem=2, warps_per_block=1,
                       insts_per_warp=10, blocks_total=1),
            restart=False,
        )
        gpu = GPU(cfg, [k, KernelSpec("o", compute_per_mem=5)],
                  sm_partition=[1, 1])
        gpu.run(30_000)
        assert gpu.progress[0].blocks_finished == 1
        assert gpu.progress[0].instructions == 10

    def test_estimators_survive_idle_app(self):
        cfg = GPUConfig(n_sms=2, interval_cycles=2_000)
        idle = LaunchedKernel(
            KernelSpec("t", compute_per_mem=2, warps_per_block=1,
                       insts_per_warp=10, blocks_total=1),
            restart=False,
        )
        gpu = GPU(cfg, [idle, KernelSpec("o", compute_per_mem=5)],
                  sm_partition=[1, 1])
        dase = DASE(cfg)
        rot = PriorityRotator(cfg, epoch_cycles=250)
        mise = MISE(cfg, rot)
        asm = ASM(cfg, rot)
        for e in (dase, mise, asm):
            e.attach(gpu)
        gpu.run(20_000)
        # The idle app's estimates may be None or 1.0-ish, never a crash.
        for e in (dase, mise, asm):
            for row in e.history:
                assert len(row) == 2

    def test_uncoalesced_wide_combo(self):
        cfg = GPUConfig(interval_cycles=2_000)
        spec = KernelSpec(
            "u", compute_per_mem=10, accesses_per_mem_inst=3,
            wide_fraction=0.5, pattern=AccessPattern.RANDOM,
        )
        gpu = run(cfg, [spec])
        assert gpu.mem_stats.apps[0].requests_served > 0


class TestReconfiguredEstimation:
    def test_dase_with_one_partition(self):
        cfg = GPUConfig(n_partitions=1, interval_cycles=2_000)
        gpu = GPU(cfg, [KernelSpec("a", compute_per_mem=5),
                        KernelSpec("b", compute_per_mem=5)])
        dase = DASE(cfg)
        dase.attach(gpu)
        gpu.run(10_000)
        for row in dase.history:
            for est in row:
                assert est is None or est >= 1.0

    def test_dase_interval_longer_than_run(self):
        cfg = GPUConfig(interval_cycles=1_000_000)
        gpu = GPU(cfg, [KernelSpec("a", compute_per_mem=5)])
        dase = DASE(cfg)
        dase.attach(gpu)
        gpu.run(10_000)
        assert dase.history == []
        # No interval completed: one missing estimate per app, not none.
        assert dase.mean_estimates() == [None]
