"""Common estimator plumbing.

An estimator attaches to a :class:`~repro.sim.gpu.GPU`, receives one
:class:`~repro.sim.stats.IntervalRecord` per application at every interval
boundary (paper: 50K cycles), produces a per-application slowdown estimate
for that interval, and exposes the run-level estimate as the mean over
intervals — the paper's "sampled by averaging it over a period of time".

:class:`SlowdownEstimator` runs the per-application loop and writes every
:class:`~repro.obs.audit.ModelAudit`; a model supplies its formula and,
when an audit log is attached, the inputs and terms behind it.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Callable

from repro.config import GPUConfig
from repro.obs.audit import ModelAudit
from repro.sim.gpu import GPU
from repro.sim.stats import IntervalRecord

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.faults.inject import DeliveredInterval, FaultInjector
    from repro.obs.audit import AuditLog


def reciprocal(slowdown: float | None) -> float | None:
    """Eq. 28: 1 / max(slowdown, 1), the normalized performance DASE-Fair
    consumes (None stays None)."""
    return None if slowdown is None else 1.0 / max(slowdown, 1.0)


class IntervalConsumer:
    """The seam every interval listener shares, estimators and policies
    alike: the GPU it is attached to, the audit sink resolved once at
    attach, and the fault injector whose delivered view it reads.

    Both slots stay None on the plain path, so an unaudited, unfaulted
    interval costs one attribute check each.
    """

    gpu: GPU | None = None
    #: Audit sink (repro.obs.audit), or None when the run is not audited.
    _audit: "AuditLog | None" = None
    #: Fault injector (repro.faults), or None for the exact-counter path.
    _faults: "FaultInjector | None" = None

    def _listen(self, gpu: GPU, listener: Callable[[list], None]) -> None:
        self.gpu = gpu
        if gpu.obs is not None:
            self._audit = gpu.obs.audit
        gpu.add_interval_listener(listener)

    def inject_faults(self, injector: "FaultInjector | None") -> None:
        """Route this consumer's interval inputs through ``injector``.

        Must be called before the run starts; pass None to restore the
        exact-counter path.  All consumers of one run should share a
        single injector so they agree on the delivered view.
        """
        self._faults = injector

    def _delivered(self, records: list[IntervalRecord]) -> "DeliveredInterval":
        """The injector's view of this interval (memoized: every consumer
        of the run sees the same one).  Only call with an injector set."""
        # gpu.interval_history gains the record list *before* listeners
        # fire, so the current interval index is len - 1.
        return self._faults.deliver(len(self.gpu.interval_history) - 1, records)


class SlowdownEstimator(IntervalConsumer, abc.ABC):
    """Base class for run-time slowdown estimators."""

    name: str = "base"
    #: Builds the detail :meth:`_estimate_app` would have returned for an
    #: application that is not resident (and so is never estimated).
    _no_detail: Callable[[], Any] = dict

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        #: One entry per interval: list of per-app estimates (None = no
        #: estimate possible this interval, e.g. degenerate counters).
        self.history: list[list[float | None]] = []

    def attach(self, gpu: GPU) -> None:
        if self.gpu is not None:
            raise RuntimeError(f"{self.name} is already attached")
        self._listen(gpu, self._on_interval)

    def _on_interval(self, records: list[IntervalRecord]) -> None:
        if self._faults is None:
            self.history.append(self.estimate_interval(records))
            return
        view = self._delivered(records)
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

    @abc.abstractmethod
    def _estimate_app(
        self, rec: IntervalRecord, ctx: Any
    ) -> tuple[float | None, Any, str | None]:
        """(estimate, detail, skip reason) for one resident application;
        ``ctx`` is what :meth:`estimate_interval` passed the loop."""

    @abc.abstractmethod
    def _audit_fields(
        self, rec: IntervalRecord, ctx: Any, detail: Any
    ) -> tuple[dict[str, Any], dict[str, Any]]:
        """(inputs, terms) of one audit row; called only when audited."""

    def _estimate_each(
        self, records: list[IntervalRecord], ctx: Any
    ) -> tuple[list[float | None], list[Any]]:
        """Estimate every application, auditing each when a log is
        attached; returns the estimates and the per-app details."""
        audit = self._audit
        interval = len(self.history)
        estimates: list[float | None] = []
        details: list[Any] = []
        for rec in records:
            if rec.sm_count == 0:
                # Open-system runs: the app is not resident this interval,
                # so no counter says anything about it.
                est, detail, skip = None, self._no_detail(), "not-resident"
            else:
                est, detail, skip = self._estimate_app(rec, ctx)
            estimates.append(est)
            details.append(detail)
            if audit is not None:
                inputs, terms = self._audit_fields(rec, ctx, detail)
                fault = rec.extra.get("fault")
                if fault:
                    # Perturbed delivery (repro.faults) — name the fault
                    # kinds so a surprising estimate explains itself.
                    inputs["fault"] = "+".join(fault)
                audit.record_model(ModelAudit(
                    model=self.name,
                    app=rec.app,
                    interval=interval,
                    cycle=rec.end,
                    estimate=est,
                    reciprocal=reciprocal(est),
                    inputs=inputs,
                    terms=terms,
                    skip_reason=skip,
                ))
        return estimates, details

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
