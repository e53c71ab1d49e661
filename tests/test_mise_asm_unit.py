"""Unit tests for the MISE and ASM baselines on synthetic inputs."""

import pytest

from repro.config import GPUConfig
from repro.core.asm import ASM
from repro.core.mise import MISE
from repro.core.sampling import PriorityRotator, RateAccumulators
from repro.sim.stats import AppMemCounters, AppSMCounters, IntervalRecord

CFG = GPUConfig()


def record(app=0, alpha=0.5, requests=1000, ellc=0.0, time_request=None):
    cycles = 50_000
    return IntervalRecord(
        app=app, start=0, end=cycles,
        mem=AppMemCounters(
            requests_served=requests,
            time_request=time_request if time_request is not None else 60 * requests,
        ),
        sm=AppSMCounters(
            busy_time=(1 - alpha) * cycles, stall_time=alpha * cycles,
            sm_time=cycles, instructions=1000,
        ),
        ellc_miss=ellc, sm_count=8, sm_total=16,
        tb_running=8, tb_unfinished=1000,
    )


def delta(n_apps=1, **kw):
    d = RateAccumulators.zeros(n_apps)
    for key, vals in kw.items():
        getattr(d, key)[: len(vals)] = list(vals)
    return d


class TestMISEUnit:
    def make(self):
        return MISE(CFG, PriorityRotator(CFG))

    def test_intensive_app_uses_raw_ratio(self):
        m = self.make()
        d = delta(
            prio_time=[1000.0], prio_requests=[400.0],
            shared_time=[1000.0], shared_requests=[200.0],
        )
        est = m._estimate_app(record(alpha=0.9), d)[0]
        assert est == pytest.approx(2.0)

    def test_non_intensive_app_damped_by_alpha(self):
        m = self.make()
        d = delta(
            prio_time=[1000.0], prio_requests=[400.0],
            shared_time=[1000.0], shared_requests=[200.0],
        )
        est = m._estimate_app(record(alpha=0.1), d)[0]
        assert est == pytest.approx(1 - 0.1 + 0.1 * 2.0)

    def test_ratio_floored_at_one(self):
        m = self.make()
        d = delta(
            prio_time=[1000.0], prio_requests=[100.0],
            shared_time=[1000.0], shared_requests=[300.0],
        )
        est = m._estimate_app(record(alpha=0.9), d)[0]
        assert est == 1.0

    def test_no_prio_samples_gives_none(self):
        m = self.make()
        d = delta(prio_time=[0.0], shared_time=[1000.0], shared_requests=[10.0])
        assert m._estimate_app(record(), d)[0] is None

    def test_no_traffic_means_no_interference(self):
        m = self.make()
        d = delta(prio_time=[1000.0], shared_time=[1000.0])
        assert m._estimate_app(record(), d)[0] == 1.0

    def test_intensity_threshold_configurable(self):
        m = MISE(CFG, PriorityRotator(CFG), intensive_alpha=0.95)
        d = delta(
            prio_time=[1000.0], prio_requests=[400.0],
            shared_time=[1000.0], shared_requests=[200.0],
        )
        est = m._estimate_app(record(alpha=0.9), d)[0]
        # 0.9 < 0.95 → damped path.
        assert est == pytest.approx(1 - 0.9 + 0.9 * 2.0)


class TestASMUnit:
    def make(self):
        return ASM(CFG, PriorityRotator(CFG))

    def test_car_ratio(self):
        a = self.make()
        d = delta(
            prio_time=[1000.0], prio_accesses=[500.0],
            shared_time=[1000.0], shared_accesses=[250.0],
        )
        est = a._estimate_app(record(ellc=0.0), d)[0]
        assert est == pytest.approx(2.0)

    def test_contention_correction_raises_estimate(self):
        a = self.make()
        d = delta(
            prio_time=[1000.0], prio_accesses=[500.0],
            shared_time=[1000.0], shared_accesses=[250.0],
        )
        clean = a._estimate_app(record(ellc=0.0), d)[0]
        dirty = a._estimate_app(record(ellc=2000.0), d)[0]
        assert dirty > clean

    def test_correction_capped(self):
        a = self.make()
        d = delta(
            prio_time=[1000.0], prio_accesses=[500.0],
            shared_time=[1000.0], shared_accesses=[250.0],
        )
        est = a._estimate_app(record(ellc=10**9), d)[0]
        # wasted capped at half the priority time → at most 2× the raw CAR.
        assert est <= 4.0 + 1e-9

    def test_floor_at_one(self):
        a = self.make()
        d = delta(
            prio_time=[1000.0], prio_accesses=[100.0],
            shared_time=[1000.0], shared_accesses=[400.0],
        )
        assert a._estimate_app(record(), d)[0] == 1.0

    def test_missing_epochs_give_none(self):
        a = self.make()
        d = delta(shared_time=[1000.0], shared_accesses=[10.0])
        assert a._estimate_app(record(), d)[0] is None


class TestNeitherScalesToAllSMs:
    """The paper's core criticism: CPU models ignore the SM dimension."""

    def test_mise_blind_to_sm_count(self):
        m = MISE(CFG, PriorityRotator(CFG))
        d = delta(
            prio_time=[1000.0], prio_requests=[200.0],
            shared_time=[1000.0], shared_requests=[200.0],
        )
        r_small = record(alpha=0.9)
        r_small = IntervalRecord(**{**vars(r_small), "sm_count": 2})
        r_large = record(alpha=0.9)
        assert m._estimate_app(r_small, d)[0] == m._estimate_app(r_large, d)[0]

    def test_asm_blind_to_sm_count(self):
        a = ASM(CFG, PriorityRotator(CFG))
        d = delta(
            prio_time=[1000.0], prio_accesses=[200.0],
            shared_time=[1000.0], shared_accesses=[200.0],
        )
        r_small = record()
        r_small = IntervalRecord(**{**vars(r_small), "sm_count": 2})
        assert a._estimate_app(r_small, d)[0] == a._estimate_app(record(), d)[0]
