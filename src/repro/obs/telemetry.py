"""Run telemetry: per-interval time series of everything observable.

Attach a :class:`Telemetry` to a GPU and it records, per interval and per
application, the counters, derived rates, estimator outputs, and the SM
partition — the data behind every time-series plot one would make of a
run.  Export as dicts or CSV text.

Telemetry is the *interval-granularity view* of the observability layer:
construct it with a :class:`~repro.obs.registry.MetricsRegistry` and/or an
:class:`~repro.obs.tracer.EventTracer` and every sample is also published
as registry gauges/histograms and Chrome counter events, so the HTML run
report, the Perfetto counter tracks, and the CSV export all describe the
same recording.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.obs.report import csv_table

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.base import SlowdownEstimator
    from repro.obs.registry import MetricsRegistry
    from repro.obs.tracer import EventTracer
    from repro.sim.gpu import GPU
    from repro.sim.stats import IntervalRecord


@dataclass
class Sample:
    """One application's telemetry for one interval."""

    cycle: int
    app: int
    ipc: float
    alpha: float
    requests_per_kcycle: float
    bw_share: float
    l2_hit_rate: float
    erb_miss: int
    ellc_miss: float
    sm_count: int
    estimates: dict[str, float | None] = field(default_factory=dict)


class Telemetry:
    """Interval-by-interval recorder for one GPU run.

    A recorder can be detached (:meth:`detach`) and re-attached — to the
    same GPU or a fresh one — without leaking the interval listener on the
    old GPU; samples accumulate across attachments.
    """

    def __init__(
        self,
        estimators: "dict[str, SlowdownEstimator] | None" = None,
        registry: "MetricsRegistry | None" = None,
        tracer: "EventTracer | None" = None,
    ):
        self.estimators = estimators or {}
        self.samples: list[Sample] = []
        self.gpu: "GPU | None" = None
        self.registry = registry
        self.tracer = tracer

    def attach(self, gpu: "GPU") -> None:
        if self.gpu is not None:
            raise RuntimeError(
                "telemetry already attached; call detach() first"
            )
        self.gpu = gpu
        # Attach after estimators so their latest() reflects this interval.
        gpu.add_interval_listener(self._on_interval)

    def detach(self) -> None:
        """Remove the interval listener; the recorder can attach again."""
        if self.gpu is None:
            return
        self.gpu.remove_interval_listener(self._on_interval)
        self.gpu = None

    @property
    def attached(self) -> bool:
        return self.gpu is not None

    def _on_interval(self, records: "list[IntervalRecord]") -> None:
        cfg = self.gpu.config
        tracer = self.tracer
        registry = self.registry
        for rec in records:
            cycles = max(1, rec.cycles)
            accesses = rec.mem.l2_hits + rec.mem.l2_misses
            ests = {}
            for name, est in self.estimators.items():
                latest = est.latest()
                ests[name] = latest[rec.app] if latest else None
            sample = Sample(
                cycle=rec.end,
                app=rec.app,
                ipc=rec.sm.instructions / cycles,
                alpha=rec.sm.alpha,
                requests_per_kcycle=rec.mem.requests_served / cycles * 1000,
                bw_share=rec.mem.data_bus_time
                / (cycles * cfg.n_partitions),
                l2_hit_rate=rec.mem.l2_hits / accesses if accesses else 0.0,
                erb_miss=rec.mem.erb_miss,
                ellc_miss=rec.ellc_miss,
                sm_count=rec.sm_count,
                estimates=ests,
            )
            self.samples.append(sample)
            if tracer is not None:
                self._emit_trace_counters(tracer, sample)
            if registry is not None:
                self._publish_registry(registry, sample)

    # ------------------------------------------------------ obs publication

    @staticmethod
    def _emit_trace_counters(tracer: "EventTracer", s: Sample) -> None:
        """Chrome counter tracks: one series per quantity, per app pid."""
        ts, pid = s.cycle, s.app
        tracer.counter("ipc", ts, pid, {"ipc": round(s.ipc, 6)})
        tracer.counter("alpha", ts, pid, {"alpha": round(s.alpha, 6)})
        tracer.counter("sm_count", ts, pid, {"sms": s.sm_count})
        tracer.counter(
            "bw_share", ts, pid, {"bw_share": round(s.bw_share, 6)}
        )
        for name, est in s.estimates.items():
            if est is not None:
                tracer.counter(
                    f"est.{name}", ts, pid, {name: round(est, 6)}
                )

    def _publish_registry(self, reg: "MetricsRegistry", s: Sample) -> None:
        pre = f"telemetry/app{s.app}"
        reg.gauge(f"{pre}/ipc").set(s.ipc)
        reg.gauge(f"{pre}/alpha").set(s.alpha)
        reg.gauge(f"{pre}/l2_hit_rate").set(s.l2_hit_rate)
        reg.gauge(f"{pre}/sm_count").set(s.sm_count)
        reg.counter(f"{pre}/erb_miss").inc(s.erb_miss)
        reg.histogram(f"{pre}/interval_ipc").observe(s.ipc)
        for name, est in s.estimates.items():
            if est is not None:
                reg.gauge(f"{pre}/est/{name}").set(est)

    # ------------------------------------------------------------- exports

    def series(self, app: int, fieldname: str) -> list[float]:
        """Time series of one field for one application."""
        out = []
        for s in self.samples:
            if s.app != app:
                continue
            if fieldname in s.estimates:
                out.append(s.estimates[fieldname])
            else:
                out.append(getattr(s, fieldname))
        return out

    def cycles_of(self, app: int) -> list[int]:
        """Interval-end cycle of each of ``app``'s samples (the x axis)."""
        return [s.cycle for s in self.samples if s.app == app]

    def table(self) -> tuple[list[str], list[list[str]]]:
        """All samples as (headers, rows): one row per app per interval —
        the CSV export and the HTML report's table view."""
        est_names = sorted(self.estimators)
        headers = [
            "cycle", "app", "ipc", "alpha", "requests_per_kcycle",
            "bw_share", "l2_hit_rate", "erb_miss", "ellc_miss", "sm_count",
        ] + [f"est_{n}" for n in est_names]
        rows = []
        for s in self.samples:
            ests = (s.estimates.get(n) for n in est_names)
            rows.append([
                str(s.cycle), str(s.app), f"{s.ipc:.4f}", f"{s.alpha:.4f}",
                f"{s.requests_per_kcycle:.2f}", f"{s.bw_share:.4f}",
                f"{s.l2_hit_rate:.4f}", str(s.erb_miss),
                f"{s.ellc_miss:.1f}", str(s.sm_count),
            ] + ["" if v is None else f"{v:.4f}" for v in ests])
        return headers, rows

    def to_csv(self) -> str:
        """All samples as CSV text (one row per app per interval)."""
        return csv_table(*self.table())
