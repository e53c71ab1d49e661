"""Common estimator plumbing.

An estimator attaches to a :class:`~repro.sim.gpu.GPU`, receives one
:class:`~repro.sim.stats.IntervalRecord` per application at every interval
boundary (paper: 50K cycles), produces a per-application slowdown estimate
for that interval, and exposes the run-level estimate as the mean over
intervals — the paper's "sampled by averaging it over a period of time".
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.config import GPUConfig
from repro.sim.gpu import GPU
from repro.sim.stats import IntervalRecord

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.faults.inject import FaultInjector
    from repro.obs.audit import AuditLog


class SlowdownEstimator(abc.ABC):
    """Base class for run-time slowdown estimators."""

    name: str = "base"

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self.gpu: GPU | None = None
        #: One entry per interval: list of per-app estimates (None = no
        #: estimate possible this interval, e.g. degenerate counters).
        self.history: list[list[float | None]] = []
        #: Audit sink (repro.obs.audit), resolved once at attach time —
        #: None keeps the unaudited path to a single attribute check.
        self._audit: "AuditLog | None" = None
        #: Fault injector (repro.faults), or None for the exact-counter
        #: path — same zero-overhead shape as ``_audit``: the unfaulted
        #: run pays one attribute check per interval, nothing more.
        self._faults: "FaultInjector | None" = None

    def attach(self, gpu: GPU) -> None:
        if self.gpu is not None:
            raise RuntimeError(f"{self.name} is already attached")
        self.gpu = gpu
        if gpu.obs is not None:
            self._audit = gpu.obs.audit
        gpu.add_interval_listener(self._on_interval)

    def inject_faults(self, injector: "FaultInjector | None") -> None:
        """Route this estimator's interval inputs through ``injector``.

        Must be called before the run starts; pass None to restore the
        exact-counter path.  All consumers of one run should share a
        single injector so they agree on the delivered view.
        """
        self._faults = injector

    def _on_interval(self, records: list[IntervalRecord]) -> None:
        inj = self._faults
        if inj is None:
            self.history.append(self.estimate_interval(records))
            return
        # gpu.interval_history gains the record list *before* listeners
        # fire, so the current interval index is len - 1.
        view = inj.deliver(len(self.gpu.interval_history) - 1, records)
        row = self.estimate_interval(view.records)
        if view.skipped:
            # Nothing arrived for these apps this interval: no estimate.
            row = [
                None if app in view.skipped else est
                for app, est in enumerate(row)
            ]
        self.history.append(row)

    @abc.abstractmethod
    def estimate_interval(
        self, records: list[IntervalRecord]
    ) -> list[float | None]:
        """Per-application slowdown estimates for one interval."""

    def latest(self) -> list[float | None]:
        """Most recent interval's estimates (empty history → empty list)."""
        return list(self.history[-1]) if self.history else []

    def mean_estimate(self, app: int, warmup_intervals: int = 1) -> float | None:
        """Run-level estimate: mean over intervals, skipping warmup.

        Returns None when no interval produced an estimate for ``app``.
        """
        vals = [
            row[app]
            for row in self.history[warmup_intervals:]
            if row[app] is not None
        ]
        if not vals:
            vals = [row[app] for row in self.history if row[app] is not None]
        if not vals:
            return None
        return sum(vals) / len(vals)

    def mean_estimates(self, warmup_intervals: int = 1) -> list[float | None]:
        """:meth:`mean_estimate` per app — one None per app when no
        interval completed (a run shorter than ``interval_cycles``)."""
        if self.gpu is not None:
            n = self.gpu.n_apps
        else:
            n = len(self.history[0]) if self.history else 0
        return [self.mean_estimate(a, warmup_intervals) for a in range(n)]
