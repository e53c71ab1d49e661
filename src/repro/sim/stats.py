"""Per-application hardware counters (paper Table 1) and time integrators.

Everything the DASE/MISE/ASM estimators read lives here: served-request
counts, per-request residence time, extra row-buffer misses, bank-level
parallelism integrals, SM stall fractions.  Counters accumulate continuously;
the GPU snapshots and differences them at interval boundaries, mirroring the
paper's "reset all counters at the beginning of each estimation interval".
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import TypeVar

_C = TypeVar("_C", bound="_Counters")


class _Counters:
    """Snapshot and difference, field by field, of a counter dataclass."""

    __slots__ = ()

    def snapshot(self: _C) -> _C:
        return replace(self)

    def delta(self: _C, earlier: _C) -> _C:
        """Counter increments since ``earlier`` (an older snapshot)."""
        return type(self)(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in fields(self)
            }
        )


@dataclass(slots=True)
class AppMemCounters(_Counters):
    """Monotonic per-application memory-system counters.

    Slotted: the memory path bumps several of these per DRAM request, and
    slot access is measurably cheaper than instance-dict access.
    """

    requests_served: int = 0  # Request_i: DRAM requests completed
    time_request: int = 0  # Σ (completion − schedule) over served requests
    erb_miss: int = 0  # ERBMiss_i: detected extra row-buffer misses
    row_hits: int = 0
    row_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    data_bus_time: int = 0  # core cycles of data-bus occupancy
    # Time integrals for BLP accounting (advanced by MemoryStats.advance):
    demanded_bank_integral: float = 0.0  # ∫ #banks executing-or-queued-for i
    executing_bank_integral: float = 0.0  # ∫ #banks executing i
    outstanding_time: float = 0.0  # ∫ [i has ≥1 outstanding DRAM request]


class MemoryStats:
    """Shared time-integrator across all memory partitions.

    Partitions mutate instantaneous occupancy numbers (outstanding requests,
    executing banks, demanded banks) through this hub; :meth:`advance` folds
    elapsed time into the integrals *before* each mutation, which makes the
    integrals exact piecewise-constant integrals regardless of event order.
    """

    def __init__(self, n_apps: int) -> None:
        self.n_apps = n_apps
        self.apps = [AppMemCounters() for _ in range(n_apps)]
        self._last_t = 0
        # Instantaneous state per app:
        self._outstanding = [0] * n_apps  # DRAM requests in flight (all parts)
        self._executing = [0] * n_apps  # banks currently servicing app
        self._demanded = [0] * n_apps  # (partition, bank) pairs demanded

    def advance(self, now: int) -> None:
        dt = now - self._last_t
        if dt <= 0:
            return
        self._last_t = now
        outstanding = self._outstanding
        demanded = self._demanded
        executing = self._executing
        for i, app in enumerate(self.apps):
            if outstanding[i] > 0:
                app.outstanding_time += dt
            app.demanded_bank_integral += dt * demanded[i]
            app.executing_bank_integral += dt * executing[i]

    # --- hot-path transitions (advance + mutate, one call per DRAM event) --
    #
    # The memory partition funnels its three per-request state changes
    # through these methods.  Each folds time eagerly before mutating, so
    # the integrals weight every interval by the state that held during it.

    def on_enqueue(self, now: int, app: int, newly_demanded: bool) -> None:
        """A request entered the DRAM path (L2 miss) at ``now``."""
        if self._last_t < now:
            self.advance(now)
        self._outstanding[app] += 1
        if newly_demanded:
            self._demanded[app] += 1

    def on_bank_start(self, now: int, app: int) -> None:
        """A bank began servicing one of ``app``'s requests at ``now``."""
        if self._last_t < now:
            self.advance(now)
        self._executing[app] += 1

    def on_complete(self, now: int, app: int, undemanded: bool) -> None:
        """A request finished (data left the bus) at ``now``."""
        if self._last_t < now:
            self.advance(now)
        self._executing[app] -= 1
        self._outstanding[app] -= 1
        if undemanded:
            self._demanded[app] -= 1
        self.apps[app].requests_served += 1

    # --- reads -------------------------------------------------------------

    def outstanding(self, app: int) -> int:
        return self._outstanding[app]


@dataclass(slots=True)
class AppSMCounters(_Counters):
    """Per-application SM-side counters (α and instruction throughput)."""

    instructions: int = 0  # issued instructions (compute + memory)
    busy_time: float = 0.0  # Σ over SMs of cycles with ≥1 ready warp
    stall_time: float = 0.0  # Σ over SMs of cycles all-resident-warps blocked
    sm_time: float = 0.0  # Σ over SMs of wall-clock cycles assigned
    l1_hits: int = 0  # private L1 data-cache hits
    l1_misses: int = 0

    @property
    def alpha(self) -> float:
        """Fraction of SM time stalled waiting on memory (paper's α)."""
        denom = self.busy_time + self.stall_time
        return self.stall_time / denom if denom > 0 else 0.0


@dataclass
class IntervalRecord:
    """Everything an estimator sees about one application in one interval."""

    app: int
    start: int
    end: int
    mem: AppMemCounters
    sm: AppSMCounters
    ellc_miss: float  # scaled contention-miss estimate from the ATDs
    sm_count: int  # SMs assigned during the interval
    sm_total: int
    tb_running: int  # thread blocks resident (TB_shared of Eq. 24)
    tb_unfinished: int  # thread blocks not yet finished (TB_sum of Eq. 24)
    extra: dict = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        return self.end - self.start
