"""Small-scale tests for the experiment drivers (full scale runs in
benchmarks/; here we verify plumbing and result shapes quickly)."""

import pytest

from repro.harness import scaled_config, set_sweep_defaults
from repro.harness.experiments import (
    DEFAULT_PAIRS,
    estimation_accuracy,
    fig2_unfairness,
    fig3_service_rate,
    fig4_mbb_requests,
    fig7_error_distribution,
    fig9_dase_fair,
    fig_degradation,
    pair_list,
)
from repro.obs import bus

CFG = scaled_config()
SMALL = 60_000


class TestPairList:
    def test_default_subset(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert pair_list() == DEFAULT_PAIRS

    def test_full_scale_all_pairs(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert len(pair_list()) == 105

    def test_limit(self):
        assert len(pair_list(3)) == 3

    def test_subset_apps_exist(self):
        from repro.workloads import APP_NAMES

        for a, b in DEFAULT_PAIRS:
            assert a in APP_NAMES and b in APP_NAMES


@pytest.mark.slow
class TestDrivers:
    def test_fig2_shapes(self):
        res = fig2_unfairness(
            combos=[("SD", "SB")], config=CFG, shared_cycles=SMALL
        )
        assert set(res.unfairness) == {"SD+SB"}
        assert res.unfairness["SD+SB"] >= 1.0
        bd = res.breakdown["SD+SB"]
        assert set(bd) == {"SD", "SB", "wasted", "idle"}
        assert res.sd_alone_bw > 0.2

    def test_fig3_shapes(self):
        res = fig3_service_rate(config=CFG, cycles=20_000)
        assert len(res.points) == 7
        assert -1.0 <= res.correlation <= 1.0

    def test_fig4_shapes(self):
        res = fig4_mbb_requests(partners=["QR"], config=CFG, cycles=40_000)
        assert res.alone_rate > 0
        assert set(res.shared_rates) == {"QR"}

    def test_accuracy_driver(self):
        res = estimation_accuracy(
            [("QR", "CT")], config=CFG, shared_cycles=SMALL, models=("DASE",)
        )
        assert "QR+CT" in res.per_workload
        assert res.mean_error("DASE") < 0.3
        assert len(res.results) == 1
        # sample accounting: pooled errors + skipped apps = apps swept
        assert res.sample_count("DASE") + res.skipped["DASE"] == 2
        assert res.failures == {}

    def test_accuracy_driver_captures_failures(self):
        res = estimation_accuracy(
            [("QR", "NOPE"), ("QR", "CT")], config=CFG,
            shared_cycles=SMALL, models=("DASE",),
        )
        assert "QR+NOPE" in res.failures
        assert "KeyError" in res.failures["QR+NOPE"]
        # the healthy workload still produced numbers
        assert "QR+CT" in res.per_workload
        assert len(res.results) == 1

    def test_accuracy_driver_parallel_matches_serial(self, tmp_path):
        serial = estimation_accuracy(
            [("QR", "CT"), ("NN", "VA")], config=CFG,
            shared_cycles=SMALL, models=("DASE",),
        )
        parallel = estimation_accuracy(
            [("QR", "CT"), ("NN", "VA")], config=CFG,
            shared_cycles=SMALL, models=("DASE",),
            jobs=2, cache_dir=str(tmp_path),
        )
        assert parallel.per_workload == serial.per_workload
        assert parallel.errors == serial.errors

    def test_fig7_distribution_shape(self):
        res = estimation_accuracy(
            [("QR", "CT")], config=CFG, shared_cycles=SMALL, models=("DASE",)
        )
        dists = fig7_error_distribution(res)
        assert set(dists) == {"DASE"}
        assert sum(dists["DASE"].values()) == pytest.approx(1.0)

    def test_fig9_driver(self):
        res = fig9_dase_fair(
            pairs=[("SD", "SB")], config=CFG, shared_cycles=SMALL
        )
        key = "SD+SB"
        assert res.workloads == [key]
        assert res.unfairness_even[key] >= 1.0
        assert res.unfairness_fair[key] >= 1.0
        assert 0 < res.hspeedup_even[key] <= 1.0


@pytest.fixture
def sweep_bus(tmp_path):
    """Route the drivers' sweeps onto a bus, as ``--sweep-trace`` does."""
    set_sweep_defaults(bus_dir=str(tmp_path))
    try:
        yield tmp_path
    finally:
        set_sweep_defaults(bus_dir=None)
        bus.deactivate()


@pytest.mark.slow
class TestDriversShareAloneTrajectories:
    def test_fig9_is_one_sweep_and_each_app_replays_once(self, sweep_bus):
        res = fig9_dase_fair(
            pairs=[("SD", "SB")], config=CFG, shared_cycles=SMALL
        )
        assert res.workloads == ["SD+SB"]
        records = bus.read_bus(sweep_bus)
        sweeps = [r for r in records if r["t"] == "sweep"]
        assert [r["n_jobs"] for r in sweeps] == [2]  # even + dase_fair
        stats = bus.SweepStats.from_records(records)
        # Both policies need SD's and SB's alone clocks; one trajectory
        # per app serves the two of them (chased by a helper or not, as
        # the host allows).
        assert stats.comparable()["alone_replays"] == {
            "requested": 4, "simulated": 2, "extended": 0, "cached": 0}

    def test_degradation_sigma_sweep_replays_each_app_once(self, sweep_bus):
        sigmas = (0.0, 0.2, 0.4)
        res = fig_degradation(sigmas=sigmas, config=CFG, shared_cycles=SMALL)
        assert not res.failures and len(res.dase_error) == len(sigmas)
        records = bus.read_bus(sweep_bus)
        stats = bus.SweepStats.from_records(records)
        assert stats.n_jobs == 2 * len(sigmas)
        assert stats.comparable()["alone_replays"] == {
            "requested": 4 * len(sigmas), "simulated": 2, "extended": 0,
            "cached": 0}
        # Noise only distorts what the estimator sees, so the policy-free
        # runs end at identical counts at every σ: one clock serves them
        # all, without any cache.
        for span in records:
            if span["t"] == "span" and span["name"] == "replay":
                args = span["args"]
                assert args["requests"] == 2 * len(sigmas)
                assert args["counts"] <= 1 + len(sigmas)


@pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf")])
def test_degradation_rejects_a_negative_or_non_finite_sigma(sigma):
    # Checked before any run: a σ below 0 used to run noise-free under
    # its own label.
    with pytest.raises(ValueError, match="noise_sigma must be >= 0"):
        fig_degradation(sigmas=(0.0, sigma), config=CFG, shared_cycles=SMALL)


class TestAdHocGPUsAreClosed:
    """Drivers that build their own GPUs close them once read out, so the
    machines are freed by reference counting (tests/test_gpu.py::TestClose)
    instead of piling up until some later collection."""

    @pytest.fixture
    def machines(self, monkeypatch):
        import gc
        import weakref

        import repro
        import repro.harness.experiments as experiments
        import repro.policies.profiled as profiled
        from repro.sim.gpu import GPU

        refs = []

        class Tracked(GPU):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                refs.append(weakref.ref(self))

        for module in (repro, experiments, profiled):
            monkeypatch.setattr(module, "GPU", Tracked)
        gc.collect()
        gc.disable()
        try:
            yield refs
        finally:
            gc.enable()

    def test_fig2_fig3_fig4(self, machines):
        fig2_unfairness([("SD", "SB")], config=CFG, shared_cycles=4_000)
        fig3_service_rate(CFG, cycles=2_000)
        fig4_mbb_requests(["VA"], CFG, cycles=2_000)
        # fig2: the breakdown re-run and SD alone; fig3: one machine per
        # intensity; fig4: SB alone and one pairing.
        assert len(machines) > 2 + 2
        assert [ref() for ref in machines] == [None] * len(machines)

    def test_profile_kernel(self, machines):
        from repro.policies.profiled import profile_kernel
        from repro.workloads import SUITE

        profile = profile_kernel(SUITE["QR"], CFG, [4, 16], cycles=2_000)
        assert sorted(profile) == [4, 16] and len(machines) == 2
        assert [ref() for ref in machines] == [None, None]

    def test_table3(self, machines, capsys):
        from repro.cli import main
        from repro.workloads import SUITE

        assert main(["table3", "--cycles", "1500"]) == 0
        capsys.readouterr()
        assert len(machines) == len(SUITE)
        assert [ref() for ref in machines] == [None] * len(SUITE)
