"""Artifact inspection: summarize any recorded artifact without re-running.

:func:`inspect_path` auto-detects what a path holds from its embedded
``schema`` tag and renders the matching summary — no kind flags needed:

* ``run.json`` manifest (``repro.obs.run/1``), or a directory holding one;
* ``sweep.json`` sweep stats (``repro.obs.sweep/1``); ``--sweep`` only
  breaks the tie when a directory holds both a run and a sweep recording;
* ``audit.json`` model/decision audit dump (``repro.obs.audit/1``);
* a saved diff verdict (``repro.obs.diff/1``);
* a telemetry-bus channel (``bus-*.jsonl``) or a bus directory;
* a results-store record, index, or store directory
  (``repro.store.record/1`` / ``repro.store.index/1``);
* a raw Chrome trace JSON (``{"traceEvents": [...]}``).

Anything else — including a JSON document with an unrecognized ``schema``
— raises a one-line :class:`ValueError` (``repro inspect`` turns it into
a one-line error and exit 1, never a traceback).
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Any, Iterable, Sequence

from repro import durable
from repro.obs.bus import BUS_SCHEMA, SWEEP_SCHEMA, read_bus

RUN_SCHEMA = "repro.obs.run/1"

#: Store schema tags, kept as literals: importing them from
#: :mod:`repro.store` would cycle back into :mod:`repro.obs`.
_STORE_RECORD_SCHEMA = "repro.store.record/1"
_STORE_INDEX_SCHEMA = "repro.store.index/1"
_DIFF_SCHEMA = "repro.obs.diff/1"
_AUDIT_SCHEMA = "repro.obs.audit/1"


def _table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    rows = [[str(c) for c in r] for r in rows]
    widths = [len(h) for h in headers]
    for r in rows:
        for i, c in enumerate(r):
            widths[i] = max(widths[i], len(c))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    out = [line(list(headers)), line(["-" * w for w in widths])]
    out.extend(line(r) for r in rows)
    return "\n".join(out)


def summarize_run(manifest: dict[str, Any]) -> str:
    """Summary of a ``run.json`` manifest."""
    out: list[str] = []
    wl = manifest.get("workload") or {}
    if wl:
        names = wl.get("names", [])
        slowdowns = wl.get("actual_slowdowns", [])
        parts = wl.get("sm_partition", [])
        estimates = wl.get("estimates", {})
        models = sorted(estimates)
        rows = []
        for i, name in enumerate(names):
            row = [
                name,
                parts[i] if i < len(parts) else "-",
                f"{slowdowns[i]:.3f}" if i < len(slowdowns) else "-",
            ]
            for m in models:
                e = estimates[m][i]
                row.append("-" if e is None else f"{e:.3f}")
            rows.append(row)
        out.append("workload: " + "+".join(names))
        out.append(
            _table(["app", "SMs", "actual"] + models, rows)
        )
        out.append(f"shared cycles: {wl.get('shared_cycles')}")
    trace = manifest.get("trace") or {}
    if trace:
        out.append("")
        out.append(
            f"trace: {trace.get('events_emitted', 0)} events emitted, "
            f"{trace.get('events_retained', 0)} retained, "
            f"{trace.get('events_dropped', 0)} dropped "
            f"(capacity {trace.get('capacity', '?')})"
        )
        span = trace.get("span_cycles")
        if span:
            out.append(f"span: cycles {span[0]} .. {span[1]}")
        by_name = trace.get("by_name") or {}
        if by_name:
            out.append(_table(
                ["event", "retained"],
                sorted(by_name.items(), key=lambda kv: -kv[1]),
            ))
        engine = trace.get("engine") or {}
        if engine.get("events_dispatched"):
            out.append(
                f"engine: {engine['events_dispatched']} events dispatched, "
                f"largest cycle bucket {engine.get('max_bucket', 0)}"
            )
    audit = manifest.get("audit") or {}
    if audit:
        out.append("")
        out.append(
            f"audit: {audit.get('model_records', 0)} model records, "
            f"{audit.get('decision_records', 0)} decision records"
        )
        per_model = audit.get("per_model") or {}
        if per_model:
            out.append(_table(
                ["model", "records", "skipped"],
                [
                    [m, row.get("records", 0), row.get("skipped", 0)]
                    for m, row in sorted(per_model.items())
                ],
            ))
        actions = audit.get("decision_actions") or {}
        if actions:
            out.append("decisions: " + ", ".join(
                f"{k}={v}" for k, v in sorted(actions.items())
            ))
        reasons = audit.get("decision_reasons") or {}
        if reasons:
            out.append("reasons: " + ", ".join(
                f"{k}={v}" for k, v in sorted(reasons.items())
            ))
    metrics = manifest.get("metrics") or {}
    if metrics:
        rows = []
        for name, snap in sorted(metrics.items()):
            if snap.get("type") == "histogram":
                val = f"count={snap['count']} mean={snap['mean']:.4g}"
            else:
                v = snap.get("value", 0)
                val = f"{v:.6g}" if isinstance(v, float) else str(v)
            rows.append([name, snap.get("type", "?"), val])
        out.append("")
        out.append(_table(["metric", "type", "value"], rows))
    files = manifest.get("files") or {}
    if files:
        out.append("")
        out.append("exports: " + ", ".join(
            f"{k}={v}" for k, v in sorted(files.items())
        ))
    return "\n".join(out)


def summarize_chrome(payload: dict[str, Any]) -> str:
    """Summary of a raw Chrome ``trace_event`` JSON payload."""
    events = payload.get("traceEvents", [])
    by_name: dict[str, int] = {}
    by_phase: dict[str, int] = {}
    pids: set[int] = set()
    t_lo, t_hi = None, 0.0
    for ev in events:
        ph = ev.get("ph", "?")
        by_phase[ph] = by_phase.get(ph, 0) + 1
        if ph == "M":
            continue
        name = ev.get("name", "?")
        by_name[name] = by_name.get(name, 0) + 1
        pids.add(ev.get("pid", 0))
        ts = float(ev.get("ts", 0.0)) + float(ev.get("dur", 0.0))
        t_lo = ts if t_lo is None else min(t_lo, float(ev.get("ts", 0.0)))
        t_hi = max(t_hi, ts)
    out = [
        f"chrome trace: {len(events)} entries "
        f"({by_phase.get('M', 0)} metadata), {len(pids)} processes, "
        f"span {t_lo or 0:.0f} .. {t_hi:.0f} us",
        _table(
            ["event", "count"],
            sorted(by_name.items(), key=lambda kv: -kv[1]),
        ),
    ]
    other = payload.get("otherData") or {}
    if other.get("events_dropped"):
        out.append(f"dropped at record time: {other['events_dropped']}")
    return "\n".join(out)


def summarize_sweep(stats: dict[str, Any]) -> str:
    """Summary of a ``sweep.json`` sweep-stats manifest."""
    out: list[str] = []
    out.append(
        f"sweep: {stats.get('n_jobs', 0)} jobs, {stats.get('ok', 0)} ok, "
        f"{stats.get('failed', 0)} failed"
        + (f", {stats['resumed']} resumed" if stats.get("resumed") else "")
        + (f", {stats['incomplete']} incomplete"
           if stats.get("incomplete") else "")
    )
    out.append(
        f"wall {stats.get('wall_s', 0.0):.1f}s, busy "
        f"{stats.get('busy_s', 0.0):.1f}s across "
        f"{len(stats.get('workers') or {})} workers "
        f"(efficiency {stats.get('parallel_efficiency', 0.0):.0%}), "
        f"cpu {stats.get('cpu_s', 0.0):.1f}s"
    )
    lat = stats.get("latency") or {}
    if lat:
        out.append(
            "job latency: "
            + "  ".join(
                f"{k}={lat[k]:.2f}s"
                for k in ("p50", "p95", "p99", "mean", "max") if k in lat
            )
        )
    phases = stats.get("phases") or {}
    if phases:
        out.append("")
        out.append(_table(
            ["phase", "count", "total_s"],
            [
                [name, int(row.get("count", 0)),
                 f"{row.get('total_s', 0.0):.2f}"]
                for name, row in sorted(
                    phases.items(), key=lambda kv: -kv[1].get("total_s", 0)
                )
            ],
        ))
    cache = stats.get("cache") or {}
    if cache:
        out.append("")
        out.append(
            f"replay cache: {cache.get('hits', 0)} hits / "
            f"{cache.get('misses', 0)} misses "
            f"(rate {cache.get('hit_rate', 0.0):.0%}), "
            f"~{cache.get('est_saved_s', 0.0):.1f}s replay time saved"
        )
    replays = stats.get("alone_replays") or {}
    if replays:
        out.append(
            f"alone replays: {replays.get('requested', 0)} requested, "
            f"{replays.get('simulated', 0)} trajectories simulated "
            f"({replays.get('extended', 0)} extended), "
            f"{replays.get('cached', 0)} cached"
            + (f", {replays['overlapped']} overlapped with their shared run"
               if replays.get("overlapped") else "")
        )
    workers = stats.get("workers") or {}
    if workers:
        out.append("")
        out.append(_table(
            ["worker", "jobs", "busy_s", "cpu_s", "rss_peak_kb"],
            [
                [name, int(w.get("jobs", 0)), f"{w.get('busy_s', 0.0):.2f}",
                 f"{w.get('cpu_s', 0.0):.2f}", int(w.get("rss_peak_kb", 0))]
                for name, w in sorted(workers.items())
            ],
        ))
    stragglers = stats.get("stragglers") or []
    if stragglers:
        out.append("")
        out.append("stragglers (> 2x p50):")
        out.append(_table(
            ["job", "key", "dur_s", "x p50", "dominant phase"],
            [
                [s.get("job"), s.get("key", "?"),
                 f"{s.get('dur_s', 0.0):.2f}", f"{s.get('ratio', 0.0):.1f}",
                 f"{s.get('dominant_phase', '?')} "
                 f"({s.get('phase_s', 0.0):.2f}s)"]
                for s in stragglers
            ],
        ))
    failures = stats.get("failures") or []
    if failures:
        out.append("")
        out.append(_table(
            ["failed job", "key", "kind", "attempts"],
            [
                [f.get("job"), f.get("key", "?"), f.get("kind", "?"),
                 f.get("attempts", 1)]
                for f in failures
            ],
        ))
    return "\n".join(out)


def summarize_audit(payload: dict[str, Any]) -> str:
    """Summary of an ``audit.json`` dump (``repro.obs.audit/1``)."""
    out: list[str] = []
    summary = payload.get("summary") or {}
    out.append(
        f"audit: {summary.get('model_records', 0)} model records, "
        f"{summary.get('decision_records', 0)} decision records"
    )
    per_model = summary.get("per_model") or {}
    if per_model:
        out.append(_table(
            ["model", "records", "skipped"],
            [
                [m, row.get("records", 0), row.get("skipped", 0)]
                for m, row in sorted(per_model.items())
            ],
        ))
    actions = summary.get("decision_actions") or {}
    if actions:
        out.append("decisions: " + ", ".join(
            f"{k}={v}" for k, v in sorted(actions.items())
        ))
    reasons = summary.get("decision_reasons") or {}
    if reasons:
        out.append("reasons: " + ", ".join(
            f"{k}={v}" for k, v in sorted(reasons.items())
        ))
    faults = payload.get("faults") or []
    if faults:
        out.append(f"fault events: {len(faults)}")
    return "\n".join(out)


def summarize_diff(payload: dict[str, Any]) -> str:
    """Summary of a saved diff verdict (``repro.obs.diff/1``)."""
    drifts = payload.get("drift") or []
    out = [
        f"{'IDENTICAL' if payload.get('identical') else 'DRIFT'}: "
        f"{payload.get('compared', 0)} leaves compared, "
        f"{payload.get('ignored', 0)} ignored, {len(drifts)} drifting "
        f"(rel tol {payload.get('rel_tol', 0):g})",
        f"  a: {payload.get('a', '?')}",
        f"  b: {payload.get('b', '?')}",
    ]
    if drifts:
        out.append(_table(
            ["path", "a", "b", "note"],
            [
                [d.get("path", "?"), d.get("a"), d.get("b"),
                 d.get("note", "value")]
                for d in drifts[:20]
            ],
        ))
        if len(drifts) > 20:
            out.append(f"… {len(drifts) - 20} more drifting leaves")
    return "\n".join(out)


def summarize_bus(records: list[dict[str, Any]]) -> str:
    """Summary of telemetry-bus records (channel files or a bus dir)."""
    by_tag: dict[str, int] = {}
    pids: set[Any] = set()
    for rec in records:
        by_tag[rec.get("t", "?")] = by_tag.get(rec.get("t", "?"), 0) + 1
        if "pid" in rec:
            pids.add(rec["pid"])
    out = [
        f"bus: {len(records)} records from {len(pids)} worker"
        f"{'s' if len(pids) != 1 else ''}",
        _table(["record", "count"],
               sorted(by_tag.items(), key=lambda kv: -kv[1])),
    ]
    return "\n".join(out)


def summarize_store_record(payload: dict[str, Any]) -> str:
    """Summary of one results-store record (``repro.store.record/1``)."""
    scenario = payload.get("scenario") or {}
    prov = payload.get("provenance") or {}
    out = [
        f"store record {str(payload.get('record_id', '?'))[:12]} · "
        f"payload {payload.get('payload_schema', '?')}",
        f"scenario: {scenario.get('name', '?')} ({scenario.get('kind', '?')})"
        f" · id {str(payload.get('scenario_id', '?'))[:12]}",
    ]
    workloads = scenario.get("workloads") or []
    if workloads:
        out.append("workloads: " + ", ".join(
            "+".join(w) for w in workloads
        ))
    detail = [
        f"{k}: {scenario[k]}"
        # backend: non-null only in records older than the one-core change.
        for k in ("policy", "backend", "seeds", "cycles")
        if scenario.get(k) not in (None, [], ())
    ]
    if detail:
        out.append(" · ".join(detail))
    if prov:
        out.append("provenance: " + ", ".join(
            f"{k}={str(v)[:12]}" for k, v in sorted(prov.items())
            if not isinstance(v, dict)
        ))
    from repro.figure_table import scalar_metrics
    from repro.store.trajectory import EXTRACTORS

    extractor = EXTRACTORS.get(payload.get("payload_schema"), scalar_metrics)
    try:
        metrics = extractor(payload.get("payload"))
    except (TypeError, ValueError, KeyError):
        metrics = {}
    if metrics:
        out.append(_table(
            ["metric", "value"],
            [[m, f"{v:.4g}"] for m, v in sorted(metrics.items())],
        ))
    return "\n".join(out)


def summarize_store_index(payload: dict[str, Any]) -> str:
    """Summary of a store ``index.json`` (``repro.store.index/1``)."""
    entries = payload.get("records") or []
    rows: dict[str, dict[str, Any]] = {}
    for e in entries:
        row = rows.setdefault(e.get("scenario_id", "?"), {
            "name": e.get("scenario_name", "?"),
            "schema": e.get("payload_schema", "?"),
            "n": 0,
            "last": e.get("created_at", "-"),
        })
        row["n"] += 1
        row["last"] = e.get("created_at", row["last"])
    out = [
        f"results store: {len(entries)} recording"
        f"{'s' if len(entries) != 1 else ''} across {len(rows)} scenario"
        f"{'s' if len(rows) != 1 else ''}",
    ]
    if rows:
        out.append(_table(
            ["scenario", "id", "payload schema", "records", "last recorded"],
            [
                [row["name"], sid[:12], row["schema"], row["n"], row["last"]]
                for sid, row in rows.items()
            ],
        ))
    return "\n".join(out)


def load_recorded(
    path: str, prefer: str | None = None
) -> tuple[str, Any]:
    """Load and classify what ``path`` holds, keyed on the embedded
    ``schema`` tag: ``("run", manifest)``, ``("sweep", stats)``,
    ``("audit", dump)``, ``("diff", verdict)``, ``("bus", records)``,
    ``("store-record", record)``, ``("store-index", index)``, or
    ``("chrome", payload)``.  For a directory: run.json wins unless absent
    or ``prefer="sweep"``; a store directory resolves to its index.json; a
    bus directory aggregates its ``bus-*.jsonl`` channels.

    Raises ValueError with a one-line message on missing, corrupt, or
    unrecognized input — never a traceback-worthy parse error.
    """
    p = pathlib.Path(path)
    if p.is_dir():
        run = p / "run.json"
        sweep = p / "sweep.json"
        index = p / "index.json"
        if prefer == "sweep" and sweep.is_file():
            p = sweep
        elif run.is_file():
            p = run
        elif sweep.is_file():
            p = sweep
        elif index.is_file():
            p = index
        elif any(p.glob("bus-*.jsonl")):
            return "bus", read_bus(p)
        elif (p / "records").is_dir():
            raise ValueError(
                f"store index {index} is missing but {p / 'records'} holds "
                "records — restore the index or re-record"
            )
        else:
            raise ValueError(
                f"no run.json, sweep.json, index.json, or bus-*.jsonl "
                f"found under {p}"
            )
    if not p.is_file():
        raise ValueError(f"{p} does not exist")
    if p.suffix == ".jsonl":
        records, skipped = durable.read_log(p)
        if not records or records[0].get("schema") != BUS_SCHEMA:
            raise ValueError(
                f"{p} is not a telemetry-bus channel (no {BUS_SCHEMA} meta "
                "record on its first line)"
            )
        if skipped:
            print(f"{p}: {skipped} torn line(s) skipped", file=sys.stderr)
        return "bus", records
    try:
        with p.open() as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{p} is not valid JSON: {exc}") from exc
    kinds = {
        RUN_SCHEMA: "run",
        SWEEP_SCHEMA: "sweep",
        _AUDIT_SCHEMA: "audit",
        _DIFF_SCHEMA: "diff",
        _STORE_RECORD_SCHEMA: "store-record",
        _STORE_INDEX_SCHEMA: "store-index",
    }
    if isinstance(payload, dict):
        schema = payload.get("schema")
        if schema in kinds:
            return kinds[schema], payload
        if "traceEvents" in payload:
            return "chrome", payload
        if schema is not None:
            raise ValueError(
                f"{p} carries unrecognized schema {schema!r} "
                f"(known: {', '.join(sorted(kinds))})"
            )
    raise ValueError(
        f"{p} carries no schema tag and is not a Chrome trace "
        f"(known schemas: {', '.join(sorted(kinds))})"
    )


def inspect_json(path: str, prefer: str | None = None) -> dict[str, Any]:
    """Machine-readable inspection payload (``repro inspect --json``)."""
    kind, payload = load_recorded(path, prefer=prefer)
    if kind == "bus":
        by_tag: dict[str, int] = {}
        for rec in payload:
            by_tag[rec.get("t", "?")] = by_tag.get(rec.get("t", "?"), 0) + 1
        return {"kind": kind, "records": len(payload),
                "by_tag": dict(sorted(by_tag.items()))}
    if kind == "chrome":
        events = payload.get("traceEvents", [])
        by_name: dict[str, int] = {}
        for ev in events:
            if ev.get("ph") == "M":
                continue
            name = ev.get("name", "?")
            by_name[name] = by_name.get(name, 0) + 1
        return {
            "kind": "chrome",
            "entries": len(events),
            "by_name": dict(sorted(by_name.items())),
            "other_data": payload.get("otherData") or {},
        }
    return {"kind": kind, **payload}


def inspect_path(path: str, prefer: str | None = None) -> str:
    """Dispatch on what ``path`` holds; raises ValueError when unrecognized."""
    kind, payload = load_recorded(path, prefer=prefer)
    summarizers = {
        "run": summarize_run,
        "sweep": summarize_sweep,
        "audit": summarize_audit,
        "diff": summarize_diff,
        "bus": summarize_bus,
        "store-record": summarize_store_record,
        "store-index": summarize_store_index,
        "chrome": summarize_chrome,
    }
    return summarizers[kind](payload)
