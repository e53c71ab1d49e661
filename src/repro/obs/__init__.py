"""repro.obs — observability for the simulator and harness.

Three layers, one recording:

* :class:`MetricsRegistry` — named hierarchical counters / gauges /
  histograms, published at interval boundaries and run end;
* :class:`EventTracer` — a bounded ring buffer of structured sim events
  (DRAM request lifecycle, L2 probes, SM stalls, interconnect packets,
  interval markers, SM migrations) exportable as Chrome ``trace_event``
  JSON (Perfetto), CSV, or a self-contained HTML run report;
* :class:`Telemetry` — the interval-granularity view (per-app IPC, α,
  estimator outputs), folded into the same registry/tracer.

Tracing is **off by default and free when off**: every instrumented hot
path holds a direct ``self._trace`` reference resolved at construction
time, so the disabled path is one ``is not None`` attribute check — no
RNG draws, no counter perturbation, and bit-identical simulation results
either way (enforced by ``tests/test_obs_golden.py`` and the CI
``obs-overhead`` gate).

Record a run by passing a fresh :class:`Observation` — one bundle records
exactly one run::

    from repro.obs import Observation
    obs = Observation()
    result = run_workload(["SD", "SB"], trace=obs)   # or GPU(..., obs=obs)
    export_chrome_trace(obs.tracer, "trace.json")
"""

from __future__ import annotations

from repro.obs.audit import (
    AUDIT_SCHEMA,
    AuditLog,
    DecisionAudit,
    ModelAudit,
    export_audit_json,
)
from repro.obs.bus import (
    BUS_SCHEMA,
    SWEEP_SCHEMA,
    BusReader,
    SweepStats,
    WorkerChannel,
    merge_profiles,
    profile_table,
    read_bus,
    sweep_chrome_trace,
    validate_sweep_trace,
)
from repro.obs.diff import (
    DEFAULT_IGNORE,
    DIFF_SCHEMA,
    DiffResult,
    Drift,
    diff_paths,
    diff_payloads,
    load_comparable,
)
from repro.obs.export import (
    chrome_trace_events,
    events_csv,
    export_chrome_trace,
    export_events_csv,
    export_sweep_trace,
    to_chrome_trace,
    trace_summary,
)
from repro.obs.inspect import inspect_json, inspect_path, summarize_sweep
from repro.obs.progress import SweepProgress
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.report import (
    export_html_report,
    export_sweep_report,
    render_html_report,
    render_sweep_report,
)
from repro.obs.telemetry import Sample, Telemetry
from repro.obs.tracer import (
    DEFAULT_CAPACITY,
    EventTracer,
    Observation,
    PID_ICNT_REPLY,
    PID_ICNT_REQUEST,
    PID_SIM,
    TID_BANK_BASE,
    TID_PART_BASE,
    TID_SM_BASE,
)

__all__ = [
    "Observation",
    "EventTracer",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Telemetry",
    "Sample",
    "SweepProgress",
    "DEFAULT_CAPACITY",
    "PID_SIM",
    "PID_ICNT_REQUEST",
    "PID_ICNT_REPLY",
    "TID_SM_BASE",
    "TID_PART_BASE",
    "TID_BANK_BASE",
    "chrome_trace_events",
    "to_chrome_trace",
    "export_chrome_trace",
    "events_csv",
    "export_events_csv",
    "trace_summary",
    "render_html_report",
    "export_html_report",
    "inspect_path",
    "inspect_json",
    "AuditLog",
    "ModelAudit",
    "DecisionAudit",
    "export_audit_json",
    "AUDIT_SCHEMA",
    "DiffResult",
    "Drift",
    "diff_paths",
    "diff_payloads",
    "load_comparable",
    "DIFF_SCHEMA",
    "DEFAULT_IGNORE",
    "BUS_SCHEMA",
    "SWEEP_SCHEMA",
    "WorkerChannel",
    "BusReader",
    "SweepStats",
    "read_bus",
    "sweep_chrome_trace",
    "validate_sweep_trace",
    "merge_profiles",
    "profile_table",
    "export_sweep_trace",
    "summarize_sweep",
    "render_sweep_report",
    "export_sweep_report",
]
