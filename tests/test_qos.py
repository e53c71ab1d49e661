"""Tests for the DASE-QoS policy extension."""

import pytest

from repro.config import GPUConfig
from repro.core.dase import DASE
from repro.policies import DASEQoSPolicy
from repro.sim.gpu import GPU
from repro.sim.kernel import KernelSpec


def make_gpu(n_sms=8, interval=4_000):
    cfg = GPUConfig(n_sms=n_sms, interval_cycles=interval)
    specs = [
        KernelSpec("t", compute_per_mem=10, warps_per_block=4, insts_per_warp=200),
        KernelSpec("o", compute_per_mem=10, warps_per_block=4, insts_per_warp=200),
    ]
    return cfg, GPU(cfg, specs)


class TestConstruction:
    def test_bad_bound_rejected(self):
        cfg, _ = make_gpu()
        with pytest.raises(ValueError):
            DASEQoSPolicy(cfg, target_app=0, max_slowdown=0.5)

    def test_bad_margin_rejected(self):
        cfg, _ = make_gpu()
        with pytest.raises(ValueError):
            DASEQoSPolicy(cfg, 0, 2.0, release_margin=1.5)

    def test_target_out_of_range(self):
        cfg, gpu = make_gpu()
        pol = DASEQoSPolicy(cfg, target_app=5, max_slowdown=2.0)
        with pytest.raises(ValueError):
            pol.attach(gpu)


class TestControlLoop:
    def test_violation_acquires_sm(self):
        cfg, gpu = make_gpu()
        est = DASE(cfg)
        pol = DASEQoSPolicy(cfg, target_app=0, max_slowdown=1.5, estimator=est)
        pol.attach(gpu)
        est.history = [[3.0, 1.2]]  # target way over bound
        pol.on_interval([])
        assert pol.actions and pol.actions[0][1] == "acquire"
        gpu.run(60_000)
        # Another interval may trigger more moves; target never shrinks
        # below the even share while violating.
        assert gpu.sm_counts()[0] >= 4

    def test_within_bound_no_action(self):
        cfg, gpu = make_gpu()
        est = DASE(cfg)
        pol = DASEQoSPolicy(cfg, 0, max_slowdown=3.0, estimator=est)
        pol.attach(gpu)
        est.history = [[2.9, 2.9]]  # inside bound, inside margin band
        pol.on_interval([])
        assert pol.actions == []

    def test_release_when_comfortable_and_above_even_share(self):
        # Huge interval: no live estimates interfere with the forced ones.
        cfg, gpu = make_gpu(interval=1_000_000)
        est = DASE(cfg)
        pol = DASEQoSPolicy(cfg, 0, max_slowdown=4.0, estimator=est)
        pol.attach(gpu)
        gpu.run(100)
        # Manually skew ownership toward the target first.
        gpu.migrate_sms(1, 0, 2)
        gpu.run(60_000)
        assert gpu.sm_counts() == [6, 2]
        est.history = [[1.2, 3.0]]  # target comfortably inside bound
        pol.on_interval([])
        assert ("release", 0, 1) == pol.actions[-1][1:]

    def test_never_drains_donors_last_sm(self):
        cfg, gpu = make_gpu(n_sms=2)
        est = DASE(cfg)
        pol = DASEQoSPolicy(cfg, 0, max_slowdown=1.1, estimator=est)
        pol.attach(gpu)
        est.history = [[5.0, 1.0]]
        pol.on_interval([])
        gpu.run(60_000)
        assert gpu.sm_counts()[1] >= 1

    def test_violations_counter(self):
        cfg, gpu = make_gpu()
        est = DASE(cfg)
        pol = DASEQoSPolicy(cfg, 0, max_slowdown=2.0, estimator=est)
        pol.attach(gpu)
        est.history = [[2.5, 1.0], [1.5, 1.0], [None, 1.0], [2.1, 1.0]]
        assert pol.violations() == 2


class TestUnderTheHarness:
    def test_decides_from_the_harness_dase_and_its_fault_view(self):
        # The policy used to keep a private DASE that never got the run's
        # injector, so it decided from exact counters while every reported
        # estimate was the noisy one.
        from repro.faults import noise_plan
        from repro.harness import run_workload, scaled_config

        cfg = scaled_config()
        pol = DASEQoSPolicy(cfg, 0, 2.0)
        res = run_workload(["SD", "SB"], config=cfg, shared_cycles=60_000,
                           policy=pol, faults=noise_plan(0.4, seed=3))
        assert not pol._own_estimator
        assert pol.estimator._faults is not None
        assert pol.estimator.mean_estimates() == res.estimates["DASE"]

    def test_adopting_the_harness_dase_leaves_fault_free_runs_as_they_were(
            self):
        from repro.harness import run_workload, scaled_config

        cfg = scaled_config()
        adopted = run_workload(["SD", "SB"], config=cfg, shared_cycles=60_000,
                               policy=DASEQoSPolicy(cfg, 0, 2.0))
        private = DASEQoSPolicy(cfg, 0, 2.0, estimator=DASE(cfg))
        kept = run_workload(["SD", "SB"], config=cfg, shared_cycles=60_000,
                            policy=private)
        assert private.estimator.gpu is not None  # it decided from its own
        assert adopted.to_dict() == kept.to_dict()
