"""repro.store — scenario registry + hash-addressed results store.

The longitudinal (fourth) observability scope, above run → model → sweep:

* :class:`ScenarioSpec` (:mod:`repro.store.registry`) — a declarative,
  hashable experiment identity (workloads, policy, faults, arrivals,
  seeds, cycle budget → canonical sha256 scenario id);
  :data:`SCENARIOS` holds one builder per figure of
  :data:`repro.figure_table.FIGURE_TABLE`;
* :class:`ResultStore` (:mod:`repro.store.records`) — content-addressed,
  schema-versioned JSON records (``repro.store.record/1``) under one
  store directory with an append-ordered index, atomic writes and full
  provenance;
* :mod:`repro.store.trajectory` — cross-run accuracy/fairness/perf
  series per scenario, rendered as text tables and a self-contained
  HTML dashboard (``repro trajectory``).

CLI surface: ``repro store list|show|record|gc|diff`` and
``repro trajectory`` (see docs/results-store.md).
"""

from __future__ import annotations

from repro.store.records import (
    INDEX_SCHEMA,
    LEGACY_SCHEMA,
    RECORD_SCHEMA,
    ResultStore,
    StoreRecord,
    canonical_json,
    content_id,
    iter_payloads,
)
from repro.store.registry import (
    PAYLOAD_SCHEMAS,
    SCENARIO_SCHEMA,
    SCENARIOS,
    ScenarioSpec,
    scenario_for,
)
from repro.store.trajectory import (
    EXTRACTORS,
    export_trajectory_report,
    load_bench_trajectory,
    metrics_of,
    render_trajectory_report,
    trajectory,
    trajectory_table,
)

__all__ = [
    "ScenarioSpec",
    "SCENARIOS",
    "SCENARIO_SCHEMA",
    "PAYLOAD_SCHEMAS",
    "scenario_for",
    "ResultStore",
    "StoreRecord",
    "RECORD_SCHEMA",
    "INDEX_SCHEMA",
    "LEGACY_SCHEMA",
    "canonical_json",
    "content_id",
    "iter_payloads",
    "EXTRACTORS",
    "metrics_of",
    "trajectory",
    "trajectory_table",
    "load_bench_trajectory",
    "render_trajectory_report",
    "export_trajectory_report",
]
