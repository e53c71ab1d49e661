"""Priority-epoch sampling shared by the MISE and ASM baselines.

Both CPU models rest on the premise that giving one application's requests
the *highest priority* at the memory controller approximates its alone
behaviour.  The rotator implements that mechanism: it cycles through
``[priority(app 0)] [no priority] [priority(app 1)] [no priority] …``
epochs, accumulating per-application served-request and L2-access counts
separately for "own-priority" time and "no-priority" (shared) time.

Estimators snapshot the monotonic accumulators at interval boundaries and
difference them, so one rotator can serve several estimators on one run;
:class:`PriorityEpochEstimator` is what the two models share on top.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any

from repro.config import GPUConfig
from repro.core.base import SlowdownEstimator
from repro.sim.gpu import GPU
from repro.sim.stats import IntervalRecord


@dataclass
class RateAccumulators:
    """Monotonic per-app accumulators split by epoch kind."""

    prio_time: list[float]
    prio_requests: list[float]
    prio_accesses: list[float]  # L2 accesses (hits + misses), for ASM's CAR
    shared_time: list[float]
    shared_requests: list[float]
    shared_accesses: list[float]

    @classmethod
    def zeros(cls, n: int) -> "RateAccumulators":
        return cls(*[[0.0] * n for _ in range(6)])

    def snapshot(self) -> "RateAccumulators":
        return RateAccumulators(**{k: list(v) for k, v in vars(self).items()})

    def delta(self, earlier: "RateAccumulators") -> "RateAccumulators":
        return RateAccumulators(
            **{
                k: [a - b for a, b in zip(getattr(self, k), getattr(earlier, k))]
                for k in vars(self)
            }
        )


class PriorityRotator:
    """Drives the priority epochs and owns the rate accumulators."""

    def __init__(
        self,
        config: GPUConfig,
        epoch_cycles: int | None = None,
        gap_ratio: int = 3,
    ) -> None:
        """``epoch_cycles``: length of one priority epoch; each is followed
        by a no-priority gap ``gap_ratio`` times as long (MISE keeps the
        perturbing priority epochs short relative to normal execution)."""
        if gap_ratio < 1:
            raise ValueError("gap_ratio must be >= 1")
        self.config = config
        # Default: each app gets priority for 5% of an interval, padded by
        # longer no-priority gaps used to measure the shared service rate.
        self.epoch_cycles = epoch_cycles or max(500, config.interval_cycles // 20)
        self.gap_ratio = gap_ratio
        self.gpu: GPU | None = None
        self.acc: RateAccumulators | None = None
        self._phase = 0  # even: priority epoch; odd: no-priority gap
        self._applied_prio: int | None = None  # what set_priority_app last saw
        self._req_snap: list[int] = []
        self._acc_snap: list[int] = []

    def attach(self, gpu: GPU) -> None:
        if self.gpu is not None:
            raise RuntimeError("rotator already attached")
        self.gpu = gpu
        n = gpu.n_apps
        self.acc = RateAccumulators.zeros(n)
        self._req_snap = [0] * n
        self._acc_snap = [0] * n
        self._apply_phase()
        gpu.engine.schedule(self._phase_length(), self._on_epoch_end)

    # ------------------------------------------------------------ internals

    def _phase_length(self) -> int:
        if self._phase % 2 == 0:
            return self.epoch_cycles
        return self.epoch_cycles * self.gap_ratio

    def _current_priority(self) -> int | None:
        if self._phase % 2 == 1:
            return None
        n = self.gpu.n_apps
        start = (self._phase // 2) % n
        # Open-system runs: skip non-resident apps (their priority epoch
        # would measure nothing).  Closed systems keep every app active, so
        # this returns ``start`` unchanged.
        for k in range(n):
            i = (start + k) % n
            if self.gpu.app_active[i]:
                return i
        return None

    def _apply_phase(self) -> None:
        # Remember what was actually applied: epoch-end attribution must use
        # this, not a re-evaluation — app_active may have changed mid-epoch.
        self._applied_prio = self._current_priority()
        self.gpu.set_priority_app(self._applied_prio)

    def _collect(self) -> tuple[list[int], list[int]]:
        """Per-app (Δrequests, ΔL2 accesses) since the last epoch boundary."""
        apps = self.gpu.mem_stats.apps
        dreq, dacc = [], []
        for i, a in enumerate(apps):
            req = a.requests_served
            acc = a.l2_hits + a.l2_misses
            dreq.append(req - self._req_snap[i])
            dacc.append(acc - self._acc_snap[i])
            self._req_snap[i] = req
            self._acc_snap[i] = acc
        return dreq, dacc

    def _on_epoch_end(self) -> None:
        prio = self._applied_prio
        dreq, dacc = self._collect()
        dt = float(self._phase_length())
        acc = self.acc
        for i in range(self.gpu.n_apps):
            if prio is None:
                acc.shared_time[i] += dt
                acc.shared_requests[i] += dreq[i]
                acc.shared_accesses[i] += dacc[i]
            elif prio == i:
                acc.prio_time[i] += dt
                acc.prio_requests[i] += dreq[i]
                acc.prio_accesses[i] += dacc[i]
            # Epochs where *another* app has priority measure neither the
            # alone nor the representative shared behaviour — discarded,
            # exactly as in MISE.
        self._phase += 1
        self._apply_phase()
        self.gpu.engine.schedule(self._phase_length(), self._on_epoch_end)


class PriorityEpochEstimator(SlowdownEstimator):
    """The part of MISE and ASM that is the same: each interval's
    accumulator delta from a shared :class:`PriorityRotator`, no estimate
    without both a priority and a no-priority epoch, and a slowdown of
    1.0 when the counters the model reads saw no traffic.

    A model names those counters in :attr:`_traffic` and supplies its
    formula (:meth:`_slowdown`) and any inputs of its own
    (:meth:`_own_inputs`).  Neither applies the ×SM_all/SM_i scaling.
    """

    #: (priority-epoch counter, no-priority counter, term set when either
    #: is zero) — attribute names of :class:`RateAccumulators`.
    _traffic: tuple[str, str, str]

    def __init__(self, config: GPUConfig, rotator: PriorityRotator) -> None:
        super().__init__(config)
        self.rotator = rotator
        self._acc_snap: RateAccumulators | None = None

    def attach(self, gpu: GPU) -> None:
        if self.rotator.gpu is None:
            self.rotator.attach(gpu)
        elif self.rotator.gpu is not gpu:
            raise RuntimeError("rotator attached to a different GPU")
        self._acc_snap = self.rotator.acc.snapshot()
        super().attach(gpu)

    def _epoch_delta(self) -> RateAccumulators:
        """Accumulator growth since the previous interval."""
        acc_now = self.rotator.acc.snapshot()
        d = acc_now.delta(self._acc_snap)
        self._acc_snap = acc_now
        return d

    def _estimate_app(
        self, rec: IntervalRecord, d: RateAccumulators
    ) -> tuple[float | None, dict[str, Any], str | None]:
        i = rec.app
        if d.prio_time[i] <= 0 or d.shared_time[i] <= 0:
            return None, {}, "no-priority-epoch"
        prio, shared, no_traffic = self._traffic
        if getattr(d, prio)[i] <= 0 or getattr(d, shared)[i] <= 0:
            # No traffic → no interference to model.
            return 1.0, {no_traffic: True}, None
        est, terms = self._slowdown(rec, d)
        return est, terms, None

    def _audit_fields(
        self, rec: IntervalRecord, d: RateAccumulators, terms: dict[str, Any]
    ) -> tuple[dict[str, Any], dict[str, Any]]:
        i = rec.app
        prio, shared, _ = self._traffic
        inputs = {
            "alpha": rec.sm.alpha,
            prio: getattr(d, prio)[i],
            "prio_time": d.prio_time[i],
            shared: getattr(d, shared)[i],
            "shared_time": d.shared_time[i],
            **self._own_inputs(rec),
        }
        return inputs, terms

    @abc.abstractmethod
    def _slowdown(
        self, rec: IntervalRecord, d: RateAccumulators
    ) -> tuple[float, dict[str, Any]]:
        """(estimate, terms) when both epochs saw traffic."""

    @abc.abstractmethod
    def _own_inputs(self, rec: IntervalRecord) -> dict[str, Any]:
        """Audit inputs beyond the epoch counters and α."""
