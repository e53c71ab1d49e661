"""Tests for counters and time integrators."""

import pytest

from repro.sim.stats import (
    AppMemCounters,
    AppSMCounters,
    IntervalRecord,
    MemoryStats,
)


class TestSnapshots:
    def test_mem_delta(self):
        a = AppMemCounters(requests_served=10, l2_hits=5)
        snap = a.snapshot()
        a.requests_served += 7
        a.l2_hits += 1
        d = a.delta(snap)
        assert d.requests_served == 7
        assert d.l2_hits == 1
        assert d.erb_miss == 0

    def test_snapshot_is_copy(self):
        a = AppMemCounters()
        s = a.snapshot()
        a.requests_served = 99
        assert s.requests_served == 0

    def test_sm_delta(self):
        a = AppSMCounters(instructions=100, busy_time=50.0)
        s = a.snapshot()
        a.instructions += 10
        a.stall_time += 5.0
        d = a.delta(s)
        assert d.instructions == 10
        assert d.stall_time == 5.0


class TestAlpha:
    def test_alpha_zero_when_never_stalled(self):
        c = AppSMCounters(busy_time=100.0, stall_time=0.0)
        assert c.alpha == 0.0

    def test_alpha_one_when_always_stalled(self):
        c = AppSMCounters(busy_time=0.0, stall_time=100.0)
        assert c.alpha == 1.0

    def test_alpha_fraction(self):
        c = AppSMCounters(busy_time=60.0, stall_time=40.0)
        assert c.alpha == pytest.approx(0.4)

    def test_alpha_empty_is_zero(self):
        assert AppSMCounters().alpha == 0.0


class TestMemoryStatsIntegration:
    def test_outstanding_time_integrates_while_outstanding(self):
        ms = MemoryStats(1)
        ms.on_enqueue(10, 0, True)
        ms.on_bank_start(10, 0)
        ms.on_complete(25, 0, True)  # 15 cycles with one outstanding
        ms.advance(40)  # nothing outstanding
        assert ms.apps[0].outstanding_time == 15.0

    def test_executing_banks_weighted_by_count(self):
        ms = MemoryStats(1)
        for _ in range(2):
            ms.on_enqueue(0, 0, True)
            ms.on_bank_start(0, 0)
        ms.on_complete(10, 0, True)  # 2 banks × 10 cycles
        ms.on_complete(15, 0, True)  # 1 bank × 5 cycles
        assert ms.apps[0].executing_bank_integral == pytest.approx(25.0)

    def test_demanded_banks_integral(self):
        ms = MemoryStats(2)
        for app in (0, 1):  # each app demands one bank from cycle 0
            ms.on_enqueue(0, app, newly_demanded=True)
            ms.on_bank_start(0, app)
        ms.on_complete(10, 0, undemanded=True)  # app 0's bank freed at 10
        ms.advance(20)
        assert ms.apps[0].demanded_bank_integral == pytest.approx(10.0)
        assert ms.apps[1].demanded_bank_integral == pytest.approx(20.0)

    def test_advance_is_idempotent_at_same_time(self):
        ms = MemoryStats(1)
        ms.on_enqueue(0, 0, True)
        ms.advance(10)
        ms.advance(10)
        assert ms.apps[0].outstanding_time == 10.0

    def test_advance_never_goes_backward(self):
        ms = MemoryStats(1)
        ms.advance(10)
        ms.advance(5)  # silently ignored
        assert ms.apps[0].outstanding_time == 0.0


class TestIntervalRecord:
    def test_cycles(self):
        rec = IntervalRecord(
            app=0, start=100, end=350, mem=AppMemCounters(),
            sm=AppSMCounters(), ellc_miss=0.0, sm_count=8, sm_total=16,
            tb_running=1, tb_unfinished=2,
        )
        assert rec.cycles == 250
