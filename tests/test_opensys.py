"""Nonstationarity test layer for the open-system driver (repro.opensys).

Covers the three legs the open-system extension stands on:

* **schedules** are frozen, seed-deterministic value objects whose Poisson
  constructor actually produces exponential inter-arrivals (KS-checked);
* **phase-shifting kernels** conserve the per-warp instruction budget
  exactly, for every split of the budget into phases;
* **the driver** applies arrivals/departures on interval boundaries only,
  with attach/detach accounting that survives the off-by-one traps
  (arrival exactly on a boundary, arrival past the run window), and the
  whole open-system pipeline is bit-identical inline, pooled, and
  checkpoint-resumed.
"""

import math
import pickle

import pytest

from repro.harness import run_workload, scaled_config
from repro.harness.parallel import WorkloadJob, run_jobs
from repro.opensys import (
    AppArrival,
    ArrivalSchedule,
    poisson_schedule,
    trace_schedule,
)
from repro.sim.kernel import AccessPattern, KernelPhase, KernelSpec, WarpStream
from repro.workloads import SUITE


# --------------------------------------------------------------- schedules


class TestArrivalSchedule:
    def test_poisson_is_seed_deterministic(self):
        a = poisson_schedule(0.1, 96_000, seed=2016, mean_lifetime=40_000)
        b = poisson_schedule(0.1, 96_000, seed=2016, mean_lifetime=40_000)
        assert a == b
        assert a.digest() == b.digest()

    def test_different_seeds_differ(self):
        a = poisson_schedule(0.2, 200_000, seed=1)
        b = poisson_schedule(0.2, 200_000, seed=2)
        assert a.digest() != b.digest()

    def test_pinned_digest(self):
        """Literal digest pin: any change to the RNG derivation, the draw
        order, or the digest serialization shows up here explicitly."""
        s = poisson_schedule(0.1, 96_000, seed=2016)
        assert s.digest() == (
            "fe900c6e2076b6f6b48961571d5a38c5fa87196845da3700041d1ffb32b5cd73"
        )

    def test_digest_ignores_provenance(self):
        arrivals = (AppArrival("NN", at=5_000, leave_at=9_000),)
        a = ArrivalSchedule(arrivals=arrivals, seed=1, rate=0.5, horizon=10_000)
        b = ArrivalSchedule(arrivals=arrivals, seed=99, rate=7.0)
        assert a.digest() == b.digest()

    def test_frozen_hashable_picklable(self):
        s = poisson_schedule(0.1, 50_000, seed=3, mean_lifetime=10_000)
        assert hash(s) == hash(poisson_schedule(0.1, 50_000, seed=3,
                                                mean_lifetime=10_000))
        assert pickle.loads(pickle.dumps(s)) == s
        with pytest.raises(Exception):
            s.seed = 4  # frozen dataclass

    def test_null_schedule(self):
        assert ArrivalSchedule().is_null
        assert not trace_schedule([("NN", 1_000)]).is_null
        assert not ArrivalSchedule(base_departures=((0, 5_000),)).is_null

    def test_validation(self):
        with pytest.raises(ValueError):
            AppArrival("NN", at=0)  # launch-time apps belong in the base
        with pytest.raises(ValueError):
            AppArrival("NN", at=10, leave_at=10)  # must leave after arriving
        with pytest.raises(ValueError):
            ArrivalSchedule(base_departures=((0, 100), (0, 200)))  # dup
        with pytest.raises(ValueError):
            poisson_schedule(0.0, 10_000, seed=1)
        with pytest.raises(ValueError):
            poisson_schedule(0.1, 10_000, seed=1, pool=())

    def test_max_arrivals_cap(self):
        s = poisson_schedule(1.0, 500_000, seed=4, max_arrivals=5)
        assert len(s.arrivals) == 5

    def test_inter_arrivals_are_exponential(self):
        """One-sample Kolmogorov–Smirnov test of the inter-arrival gaps
        against the exponential CDF at the configured rate.  ~600 samples
        put the 1% critical value near 0.066; integer rounding of arrival
        cycles adds a little distortion, so the gate is a loose 0.12 —
        tight enough to catch a uniform, normal, or doubled-rate process.
        """
        rate = 1.0  # arrivals per kilocycle → mean gap 1000 cycles
        s = poisson_schedule(rate, 600_000, seed=5)
        gaps = sorted(s.inter_arrival_cycles())
        n = len(gaps)
        assert n > 400
        mean = 1000.0 / rate
        ks = 0.0
        for i, x in enumerate(gaps):
            cdf = 1.0 - math.exp(-x / mean)
            ks = max(ks, abs((i + 1) / n - cdf), abs(i / n - cdf))
        assert ks < 0.12

    def test_lifetimes_inside_horizon_become_departures(self):
        s = poisson_schedule(0.5, 300_000, seed=6, mean_lifetime=5_000)
        leaves = [a for a in s.arrivals if a.leave_at is not None]
        assert leaves, "short lifetimes should schedule departures"
        for a in leaves:
            assert a.at < a.leave_at < 300_000


# ----------------------------------------------------- phase-shifting kernels


def _drain(stream: WarpStream) -> int:
    """Run a stream to exhaustion; return total instructions consumed."""
    total = 0
    while not stream.done:
        total += stream.next_compute_burst()
        stream.next_mem_access()
        total += 1
    return total


def _spec(phases=(), **kw) -> KernelSpec:
    base = dict(
        name="synthetic", compute_per_mem=3.0, insts_per_warp=240,
        blocks_total=4, warps_per_block=2, phases=tuple(phases),
    )
    base.update(kw)
    return KernelSpec(**base)


class TestKernelPhases:
    def test_phase_budget_must_match(self):
        with pytest.raises(ValueError):
            _spec(phases=(KernelPhase(insts=100),))  # 100 != 240

    def test_phase_validation(self):
        with pytest.raises(ValueError):
            KernelPhase(insts=0)
        with pytest.raises(ValueError):
            KernelPhase(insts=10, store_fraction=1.5)

    def test_instruction_conservation_simple_split(self):
        spec = _spec(phases=(
            KernelPhase(insts=100, compute_per_mem=0.0),
            KernelPhase(insts=140, compute_per_mem=9.0,
                        pattern=AccessPattern.RANDOM),
        ))
        stream = WarpStream(spec, 0, 0, 0, seed=7, line_bytes=128)
        assert _drain(stream) == spec.insts_per_warp

    def test_one_phase_object_repeated(self):
        # The same KernelPhase instance may appear more than once; only the
        # schedule's last position holds the warp's remainder.
        a = KernelPhase(insts=80, compute_per_mem=0.0)
        b = KernelPhase(insts=80, compute_per_mem=9.0)
        shared = WarpStream(_spec(phases=(a, b, a)), 0, 0, 0, seed=7,
                            line_bytes=128)
        fresh = WarpStream(
            _spec(phases=(a, b, KernelPhase(insts=80, compute_per_mem=0.0))),
            0, 0, 0, seed=7, line_bytes=128)
        while not fresh.done:
            assert shared.next_compute_burst() == fresh.next_compute_burst()
            assert shared.next_mem_access() == fresh.next_mem_access()
        assert shared.done

    def test_single_full_phase_is_bit_identical_to_stationary(self):
        """A single phase with no overrides must reproduce the spec with no
        phases (one implicit phase) step for step — same RNG draws, same
        addresses."""
        plain = _spec()
        phased = _spec(phases=(KernelPhase(insts=plain.insts_per_warp),))
        a = WarpStream(plain, 0, 0, 0, seed=11, line_bytes=128)
        b = WarpStream(phased, 0, 0, 0, seed=11, line_bytes=128)
        while not a.done:
            assert a.next_compute_burst() == b.next_compute_burst()
            assert a.next_mem_access() == b.next_mem_access()
        assert b.done


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def phase_splits(draw):
    """A random partition of a random warp budget into 1–5 phases, each
    with independently-random knob overrides (or inherited None)."""
    n_phases = draw(st.integers(1, 5))
    sizes = [draw(st.integers(1, 80)) for _ in range(n_phases)]
    phases = []
    for size in sizes:
        phases.append(KernelPhase(
            insts=size,
            compute_per_mem=draw(st.one_of(
                st.none(), st.floats(0.0, 20.0, allow_nan=False))),
            store_fraction=draw(st.one_of(
                st.none(), st.floats(0.0, 1.0, allow_nan=False))),
            reuse_fraction=draw(st.one_of(
                st.none(), st.floats(0.0, 1.0, allow_nan=False))),
            pattern=draw(st.one_of(
                st.none(), st.sampled_from(list(AccessPattern)))),
        ))
    return tuple(phases)


class TestPhaseConservation:
    @given(phase_splits(), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_any_split_conserves_the_budget(self, phases, seed):
        budget = sum(p.insts for p in phases)
        if budget < 2:
            phases = (KernelPhase(insts=2),)
            budget = 2
        spec = _spec(phases=phases, insts_per_warp=budget)
        stream = WarpStream(spec, 0, 0, 0, seed=seed, line_bytes=128)
        assert _drain(stream) == budget
        assert stream.remaining_insts == 0


# ------------------------------------------------------- driver boundaries


INTERVAL = scaled_config().interval_cycles


def _open_run(arrivals, shared_cycles, models=()):
    return run_workload(
        ["SD", "SB"], config=scaled_config(), shared_cycles=shared_cycles,
        models=models, arrivals=arrivals,
    )


@pytest.mark.slow
class TestDriverBoundaries:
    def test_off_boundary_arrival_waits_for_next_interval(self):
        # Arrival mid-interval: admitted at the next boundary, thanks to
        # the idle-headroom reserve; waiting is exactly the gap.
        at = 5_000
        res = _open_run(trace_schedule([("NN", at)]), shared_cycles=36_000)
        arrival_waiting = res.waiting_cycles[2]
        admit = at + arrival_waiting
        assert admit % INTERVAL == 0 and admit >= at
        assert arrival_waiting == INTERVAL - (at % INTERVAL)
        assert res.waiting_cycles[:2] == [0, 0]  # base apps never wait
        assert res.instructions[2] > 0
        assert res.resident_cycles[2] == 36_000 - admit
        assert res.resident_cycles[:2] == [36_000, 36_000]

    def test_on_boundary_arrival_is_admitted_immediately(self):
        # Arrival exactly on a boundary is applied on that same boundary
        # (the driver acts on `at <= now`), so it never waits.
        res = _open_run(
            trace_schedule([("NN", INTERVAL)]), shared_cycles=36_000
        )
        assert res.waiting_cycles[2] == 0
        assert res.resident_cycles[2] == 36_000 - INTERVAL

    def test_arrival_past_the_window_never_runs(self):
        res = _open_run(
            trace_schedule([("NN", 99_000)]), shared_cycles=36_000
        )
        assert res.instructions[2] == 0
        assert res.waiting_cycles[2] == 0  # never due, so never waited
        assert res.resident_cycles[2] == 0
        assert res.actual_slowdowns[2] is None
        # The base pair keeps running on the non-reserved SMs: expecting an
        # arrival holds back an idle admission reserve (n_sms // 8).
        cfg = scaled_config()
        reserve = max(1, cfg.n_sms // 8)
        assert sum(res.sm_partition) == cfg.n_sms - reserve
        assert res.sm_partition[2] == 0

    def test_departure_closes_the_residency_window(self):
        # NN (max_resident 2) drains in bounded time once asked to leave.
        res = _open_run(
            trace_schedule([("NN", 11_000, 23_000)]), shared_cycles=96_000
        )
        assert 0 < res.resident_cycles[2] < 96_000
        assert res.actual_slowdowns[2] is not None
        assert res.instructions[2] > 0
        # Partial-lifetime accounting: slowdown over the resident window.
        assert res.actual_slowdowns[2] == pytest.approx(
            res.resident_cycles[2] / res.alone_cycles[2], rel=1e-12
        )

    def test_null_schedule_is_closed_system_identity(self):
        a = run_workload(["SD", "SB"], config=scaled_config(),
                         shared_cycles=36_000, models=())
        b = _open_run(ArrivalSchedule(), shared_cycles=36_000)
        assert a.instructions == b.instructions
        assert a.alone_cycles == b.alone_cycles
        assert a.actual_slowdowns == b.actual_slowdowns
        assert b.resident_cycles == [] and b.waiting_cycles == []


# --------------------------------------------------- admission by migration


def _light(name: str) -> KernelSpec:
    """A kernel whose SMs drain within a couple of intervals: one resident
    block of one short warp at a time, so migration-based admission (no
    idle reserve to grab) completes inside a small test window."""
    return KernelSpec(
        name=name, compute_per_mem=4.0, blocks_total=10_000,
        warps_per_block=1, insts_per_warp=40, max_resident_blocks=1,
    )


def _tiny_config():
    import dataclasses

    return dataclasses.replace(scaled_config(), n_sms=4, interval_cycles=2_000)


@pytest.mark.slow
class TestMigrationAdmission:
    def test_arrival_admitted_by_draining_the_richest_donor(self):
        # Explicit full partition: no idle SMs, so the only way in is a
        # one-SM migration from the richest resident app.
        res = run_workload(
            [_light("A"), _light("B")], config=_tiny_config(),
            shared_cycles=24_000, sm_partition=[2, 2, 0],
            models=(), arrivals=trace_schedule([(_light("C"), 3_000)]),
        )
        assert res.instructions[2] > 0
        assert res.waiting_cycles[2] > 0  # waited out the donor's drain
        assert res.resident_cycles[2] > 0
        assert res.actual_slowdowns[2] is not None

    def test_never_admitted_when_the_window_closes_first(self):
        # Arrival lands on the last boundary with block-heavy donors: the
        # migration starts but no SM finishes draining before the run ends
        # — an empty residency window whose waiting time spans
        # arrival → run end.
        heavy = dict(compute_per_mem=4.0, warps_per_block=6,
                     blocks_total=10_000, insts_per_warp=4_000)
        res = run_workload(
            [KernelSpec(name="A", **heavy), KernelSpec(name="B", **heavy)],
            config=_tiny_config(),
            shared_cycles=24_000, sm_partition=[2, 2, 0],
            models=(), arrivals=trace_schedule([(_light("C"), 21_999)]),
        )
        assert res.instructions[2] == 0
        assert res.resident_cycles[2] == 0
        assert res.actual_slowdowns[2] is None
        assert res.waiting_cycles[2] == 24_000 - 21_999

    def test_base_departure_frees_its_sms_for_the_survivor(self):
        res = run_workload(
            [_light("A"), _light("B")], config=_tiny_config(),
            shared_cycles=24_000, sm_partition=[2, 2],
            models=(),
            arrivals=trace_schedule([], base_departures=[(1, 8_000)]),
        )
        assert res.resident_cycles[1] < 24_000  # B drained mid-run
        assert res.resident_cycles[0] == 24_000
        assert res.waiting_cycles == [0, 0]  # launch-time apps never wait
        # Ground truth still uses B's partial window.
        assert res.actual_slowdowns[1] == pytest.approx(
            res.resident_cycles[1] / res.alone_cycles[1], rel=1e-12
        )


# ------------------------------------------- inline == pooled == resumed


@pytest.mark.slow
def test_open_run_inline_pooled_resumed_identical(tmp_path):
    """The full open-system pipeline — arrivals, departure drain, partial
    windows, DASE on fragmented histories — must be bit-identical inline,
    through the process pool, and when restored from a sweep checkpoint."""
    sched = trace_schedule([("NN", 11_000, 23_000)])
    jobs = [WorkloadJob(
        apps=("SD", "SB"), config=scaled_config(), shared_cycles=48_000,
        models=("DASE",), arrivals=sched,
    )]
    inline = run_jobs(jobs, n_jobs=1)[0].unwrap().to_dict()
    pooled = run_jobs(jobs, n_jobs=2)[0].unwrap().to_dict()
    ckpt = tmp_path / "ckpt"
    first = run_jobs(jobs, n_jobs=1, checkpoint=ckpt)[0].unwrap().to_dict()
    resumed = run_jobs(jobs, n_jobs=1, checkpoint=ckpt)[0].unwrap().to_dict()
    assert inline == pooled == first == resumed


def test_dynamic_specs_resolve_against_the_suite():
    assert "NN" in SUITE  # the golden + churn scenarios depend on these
    assert "VA" in SUITE and "SC" in SUITE


# ------------------------------------------------------------- fig-churn


def test_package_exports_churn_lazily():
    """``repro.opensys.fig_churn`` resolves through the package's lazy
    ``__getattr__`` (a circular-import guard: churn imports the harness,
    which imports the schedule)."""
    import repro.opensys as pkg
    from repro.opensys.churn import DEFAULT_RATES, ChurnResult, fig_churn

    assert pkg.fig_churn is fig_churn
    assert pkg.ChurnResult is ChurnResult
    assert pkg.DEFAULT_RATES is DEFAULT_RATES
    with pytest.raises(AttributeError):
        pkg.does_not_exist


class TestChurnResult:
    def _result(self, even, fair):
        from repro.opensys.churn import ChurnResult

        return ChurnResult(
            base=("SD", "SB"), pool=("NN",), rates=[0.1], seed=1,
            mean_lifetime=1_000, shared_cycles=10_000,
            metrics={"even": {0.1: even}, "fair": {0.1: fair}},
        )

    def test_verdicts_respect_metric_direction(self):
        res = self._result(
            even={"unfairness": 2.0, "jain": 0.9, "p95": 3.0},
            fair={"unfairness": 1.5, "jain": 0.8, "p95": 3.0},
        )
        v = res.verdicts()[0.1]
        assert v["unfairness"] == "fair"   # lower is fairer
        assert v["jain"] == "even"         # higher is fairer
        assert v["p95"] == "tie"
        assert res.disagreements() and res.disagreements()[0]["rate"] == 0.1

    def test_agreement_is_not_a_disagreement(self):
        res = self._result(
            even={"unfairness": 2.0, "jain": 0.8},
            fair={"unfairness": 1.5, "jain": 0.9},
        )
        assert res.disagreements() == []

    def test_to_dict_is_json_serializable(self):
        import json

        res = self._result({"unfairness": 2.0}, {"unfairness": 1.0})
        d = json.loads(json.dumps(res.to_dict()))
        assert d["verdicts"]["0.1"]["unfairness"] == "fair"


@pytest.mark.slow
def test_fig_churn_smoke():
    """One-rate inline sweep: both policies run the same seeded schedule,
    and the readout carries DASE error + all five fairness metrics."""
    from repro.opensys.churn import fig_churn

    res = fig_churn(rates=(0.1,), seed=2016, mean_lifetime=10_000,
                    shared_cycles=36_000)
    assert res.failures == {}
    assert res.n_arrivals[0.1] == len(
        poisson_schedule(0.1, 36_000, seed=2016, mean_lifetime=10_000,
                         pool=("NN", "VA", "SC")).arrivals
    )
    assert 0.1 in res.schedule_digests
    for label in ("even", "fair"):
        m = res.metrics[label][0.1]
        assert set(m) >= {"unfairness", "jain", "p95", "p99"}
        assert res.dase_error[label][0.1] >= 0.0
    assert res.verdicts()  # every metric produced a verdict or a tie
