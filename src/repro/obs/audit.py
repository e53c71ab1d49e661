"""Model & decision audit records: why an estimate or a migration happened.

The interval counters say *what* each estimator produced; the audit layer
records *why*.  Every ``estimate_interval`` call on DASE/MISE/ASM emits one
:class:`ModelAudit` per application — the counter inputs the model read
(α, BLP, extra row-buffer misses, ATD-sampled extra LLC misses, priority-
epoch rates) and every intermediate term on the way to the final slowdown
(the MBB/NMBB split, interference cycle decomposition, ARSR/SRSR or CAR
ratios).  Every :class:`~repro.policies.sm_alloc.DASEFairPolicy` interval
evaluation emits one :class:`DecisionAudit` — the Eq. 28 reciprocals, the
Eq. 29-30 interpolation table, every candidate partition's predicted
unfairness from the exhaustive search, the chosen target, and the
migration/drain plan (or the reason the policy held still).

Auditing follows the tracer's zero-overhead contract: each emitting site
holds a direct ``self._audit`` reference resolved at attach time (``None``
when auditing is off), so the disabled path is a single ``is not None``
check, and the audit sink never touches simulator state, RNG, or counters
— an audited run is bit-identical to an unaudited one (enforced by
``tests/test_obs_golden.py``).

Enable by constructing the run's :class:`~repro.obs.tracer.Observation`
with ``audit=True`` (or an explicit :class:`AuditLog`), or from the CLI
with ``repro trace SD SB --audit``.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from repro import durable
from repro.obs.report import csv_table
from repro.obs.tracer import PID_SIM

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.tracer import EventTracer

#: Schema tag for :meth:`AuditLog.to_dict` payloads (``audit.json``).
AUDIT_SCHEMA = "repro.obs.audit/1"


@dataclass
class ModelAudit:
    """One estimator's story for one application in one interval."""

    model: str  #: estimator name ("DASE", "MISE", "ASM")
    app: int
    interval: int  #: 0-based interval index
    cycle: int  #: interval-end cycle the estimate was produced at
    estimate: float | None  #: the slowdown estimate (None = no estimate)
    #: 1 / max(estimate, 1) — the Eq. 28 reciprocal DASE-Fair consumes.
    reciprocal: float | None
    #: Raw counter inputs the model read (per-model key set; see
    #: docs/observability.md#model-audit-taxonomy).
    inputs: dict[str, float] = field(default_factory=dict)
    #: Intermediate terms between inputs and estimate (per-model key set).
    terms: dict[str, float] = field(default_factory=dict)
    #: Why no estimate was produced (only set when ``estimate`` is None).
    skip_reason: str | None = None


@dataclass
class DecisionAudit:
    """One DASE-Fair interval evaluation: scores, verdict, and plan."""

    policy: str
    interval: int
    cycle: int
    current: tuple[int, ...]  #: SM partition when the policy ran
    #: "migrate" (SMs moved), "recommend" (dry-run: would have moved), or
    #: "hold" (no action — see ``reason``).
    action: str
    #: "improvement" for migrate/recommend; for holds one of
    #: "migration-draining", "too-few-thread-blocks", "no-estimate",
    #: "app-without-sm", "already-optimal", "hysteresis".
    reason: str
    reciprocals: list[float | None] | None = None  #: Eq. 28 inputs
    target: tuple[int, ...] | None = None  #: chosen partition (scored holds too)
    current_unfairness: float | None = None
    predicted_unfairness: float | None = None
    #: ``interpolation[app][t-1]`` = predicted reciprocal at ``t`` SMs
    #: (Eqs. 29-30), for t in 1..total_sms.
    interpolation: list[list[float]] | None = None
    #: Every candidate partition with its predicted unfairness, in search
    #: order (the chosen target is the first minimum).
    candidates: list[tuple[tuple[int, ...], float]] | None = None
    #: Migration/drain plan: (donor_app, taker_app, sm_count) triples in
    #: the order ``GPU.migrate_sms`` is invoked.
    plan: list[tuple[int, int, int]] | None = None


def _fmt_partition(part: Sequence[int] | None) -> str:
    return "-" if part is None else "+".join(str(p) for p in part)


def _fmt_opt(v: float | None) -> str | None:
    return None if v is None else f"{v:.6f}"


class AuditLog:
    """In-memory audit sink, optionally mirrored into an event tracer.

    The log is a pure sink (append-only, never read by the simulator).
    When a tracer is linked, each record also lands in the Chrome trace as
    a compact instant event — ``audit.model`` on the application's process
    track, ``policy.decision`` on the ``sim`` track — so Perfetto shows
    estimates and decisions in-line with the hardware events that caused
    them; the full input/term/candidate payloads stay here.
    """

    def __init__(self, tracer: "EventTracer | None" = None) -> None:
        self.tracer = tracer
        self.model_audits: list[ModelAudit] = []
        self.decision_audits: list[DecisionAudit] = []
        #: Fault-injection events (repro.faults): one dict per perturbed
        #: (interval, app) delivery — {"interval", "cycle", "app", "kinds"}.
        self.fault_events: list[dict[str, Any]] = []

    # ------------------------------------------------------------ recording

    def record_model(self, audit: ModelAudit) -> None:
        self.model_audits.append(audit)
        tracer = self.tracer
        if tracer is not None:
            args: dict[str, Any] = {"model": audit.model}
            if audit.estimate is not None:
                args["est"] = round(audit.estimate, 6)
            else:
                args["skip"] = audit.skip_reason
            tracer.instant("audit.model", audit.cycle, audit.app, 0, args)

    def record_decision(self, audit: DecisionAudit) -> None:
        self.decision_audits.append(audit)
        tracer = self.tracer
        if tracer is not None:
            args: dict[str, Any] = {
                "action": audit.action,
                "reason": audit.reason,
                "current": _fmt_partition(audit.current),
            }
            if audit.target is not None:
                args["target"] = _fmt_partition(audit.target)
            if audit.predicted_unfairness is not None:
                args["predicted"] = round(audit.predicted_unfairness, 6)
            if audit.current_unfairness is not None:
                args["unfairness"] = round(audit.current_unfairness, 6)
            tracer.instant("policy.decision", audit.cycle, PID_SIM, 0, args)

    def record_fault(self, event: dict[str, Any]) -> None:
        """One fault-injection delivery event (see :mod:`repro.faults`).

        Keeps the audit stream able to explain perturbed estimates: a
        surprising ``ModelAudit`` row pairs with the fault event of the
        same (interval, app).
        """
        self.fault_events.append(event)
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                "fault.inject",
                event.get("cycle", 0),
                event.get("app", 0),
                0,
                {"kinds": "+".join(event.get("kinds", []))},
            )

    # ---------------------------------------------------------------- reads

    def models(self) -> list[str]:
        """Model names with at least one audit record, in first-seen order."""
        seen: dict[str, None] = {}
        for a in self.model_audits:
            seen.setdefault(a.model, None)
        return list(seen)

    def series(self, model: str, app: int) -> list[tuple[int, float | None]]:
        """(cycle, estimate) samples for one model and application."""
        return [
            (a.cycle, a.estimate)
            for a in self.model_audits
            if a.model == model and a.app == app
        ]

    def error_series(
        self, model: str, app: int, actual: float
    ) -> list[tuple[int, float]]:
        """(cycle, |estimate − actual| / actual) — the per-interval
        relative-error timeline against the run's measured slowdown."""
        if actual <= 0:
            return []
        return [
            (cycle, abs(est - actual) / actual)
            for cycle, est in self.series(model, app)
            if est is not None
        ]

    def migrations(self) -> list[DecisionAudit]:
        """Decisions that moved (or, dry-run, would have moved) SMs."""
        return [
            d for d in self.decision_audits
            if d.action in ("migrate", "recommend")
        ]

    # -------------------------------------------------------------- exports

    def summary(self) -> dict[str, Any]:
        """Small JSON-safe digest for ``run.json`` / ``repro inspect``."""
        per_model: dict[str, dict[str, int]] = {}
        for a in self.model_audits:
            row = per_model.setdefault(a.model, {"records": 0, "skipped": 0})
            row["records"] += 1
            if a.estimate is None:
                row["skipped"] += 1
        actions: dict[str, int] = {}
        reasons: dict[str, int] = {}
        for d in self.decision_audits:
            actions[d.action] = actions.get(d.action, 0) + 1
            reasons[d.reason] = reasons.get(d.reason, 0) + 1
        out = {
            "model_records": len(self.model_audits),
            "decision_records": len(self.decision_audits),
            "per_model": dict(sorted(per_model.items())),
            "decision_actions": dict(sorted(actions.items())),
            "decision_reasons": dict(sorted(reasons.items())),
        }
        if self.fault_events:
            kinds: dict[str, int] = {}
            for ev in self.fault_events:
                for k in ev.get("kinds", []):
                    kinds[k] = kinds.get(k, 0) + 1
            out["fault_events"] = len(self.fault_events)
            out["fault_kinds"] = dict(sorted(kinds.items()))
        return out

    def to_dict(self) -> dict[str, Any]:
        """Full JSON-safe dump (``audit.json``)."""
        return {
            "schema": AUDIT_SCHEMA,
            "summary": self.summary(),
            "faults": list(self.fault_events),
            "models": [asdict(a) for a in self.model_audits],
            "decisions": [
                {
                    **asdict(d),
                    "current": list(d.current),
                    "target": None if d.target is None else list(d.target),
                    "candidates": None if d.candidates is None else [
                        {"partition": list(p), "unfairness": u}
                        for p, u in d.candidates
                    ],
                    "plan": None if d.plan is None else [list(s) for s in d.plan],
                }
                for d in self.decision_audits
            ],
        }

    def model_audits_csv(self) -> str:
        """Flat CSV of every model audit (inputs/terms JSON-encoded)."""
        return csv_table(
            ["model", "interval", "cycle", "app", "estimate", "reciprocal",
             "skip_reason", "inputs", "terms"],
            [[a.model, a.interval, a.cycle, a.app,
              _fmt_opt(a.estimate), _fmt_opt(a.reciprocal), a.skip_reason,
              json.dumps(a.inputs, sort_keys=True),
              json.dumps(a.terms, sort_keys=True)]
             for a in self.model_audits],
        )

    def decision_audits_csv(self) -> str:
        """Flat CSV of every policy decision (one row per evaluation)."""
        return csv_table(
            ["policy", "interval", "cycle", "action", "reason", "current",
             "target", "current_unfairness", "predicted_unfairness",
             "n_candidates", "plan"],
            [[d.policy, d.interval, d.cycle, d.action, d.reason,
              _fmt_partition(d.current), _fmt_partition(d.target),
              _fmt_opt(d.current_unfairness),
              _fmt_opt(d.predicted_unfairness),
              None if d.candidates is None else len(d.candidates),
              None if d.plan is None else json.dumps(
                  [list(s) for s in d.plan])]
             for d in self.decision_audits],
        )


def export_audit_json(log: AuditLog, path: str | os.PathLike) -> dict:
    """Write the full audit dump to ``path``; returns the payload."""
    payload = log.to_dict()
    durable.replace_text(
        path, json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"
    )
    return payload
