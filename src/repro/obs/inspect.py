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
  (``repro.store.record/1`` / ``repro.store.index/1``), or — with
  ``store=DIR`` (``repro inspect REF --store DIR``) — a record named by
  id prefix or ``scenario@N``;
* a raw Chrome trace JSON (``{"traceEvents": [...]}``).

Anything else — including a JSON document with an unrecognized ``schema``
— raises a one-line :class:`ValueError` (``repro inspect`` turns it into
a one-line error and exit 1, never a traceback).  Finding and parsing the
file is :func:`read_artifact`, which ``repro diff`` reads through too.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
from collections import Counter
from typing import Any

from repro import durable
from repro.obs.bus import BUS_SCHEMA, SWEEP_SCHEMA, read_bus
from repro.obs.diff import render_verdict
from repro.obs.export import trace_summary
from repro.obs.report import (
    audit_lines,
    event_table,
    metrics_table,
    sweep_tables,
    table,
    workload_table,
)

RUN_SCHEMA = "repro.obs.run/1"

#: Store schema tags, kept as literals: importing them from
#: :mod:`repro.store` would cycle back into :mod:`repro.obs`.
_STORE_RECORD_SCHEMA = "repro.store.record/1"
_STORE_INDEX_SCHEMA = "repro.store.index/1"
_DIFF_SCHEMA = "repro.obs.diff/1"
_AUDIT_SCHEMA = "repro.obs.audit/1"


def run_manifest(obs: Any, res: Any, files: dict[str, str]) -> dict[str, Any]:
    """The ``run.json`` manifest of a recorded run: ``res``'s workload,
    ``obs``'s trace summary, metrics and (when auditing) audit summary, and
    the exported ``files`` (format → file name)."""
    manifest = {
        "schema": RUN_SCHEMA,
        "workload": res.to_dict(),
        "trace": trace_summary(obs.tracer),
        "metrics": obs.registry.snapshot(),
        "files": files,
    }
    if obs.audit is not None:
        manifest["audit"] = obs.audit.summary()
    return manifest


def summarize_run(manifest: dict[str, Any]) -> str:
    """Summary of a ``run.json`` manifest."""
    out: list[str] = []
    wl = manifest.get("workload") or {}
    if wl:
        out.append("workload: " + "+".join(wl.get("names", [])))
        out.append(table(*workload_table(wl)))
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
            out.append(table(*event_table(by_name)))
        engine = trace.get("engine") or {}
        if engine.get("events_dispatched"):
            out.append(
                f"engine: {engine['events_dispatched']} events dispatched, "
                f"largest cycle bucket {engine.get('max_bucket', 0)}"
            )
    audit = manifest.get("audit") or {}
    if audit:
        out.append("")
        out.extend(audit_lines(audit))
    metrics = manifest.get("metrics") or {}
    if metrics:
        out.append("")
        out.append(table(*metrics_table(metrics)))
    files = manifest.get("files") or {}
    if files:
        out.append("")
        out.append("exports: " + ", ".join(
            f"{k}={v}" for k, v in sorted(files.items())
        ))
    return "\n".join(out)


def _chrome_counts(events: list[dict[str, Any]]) -> Counter:
    """Non-metadata Chrome events per name, in first-seen order."""
    return Counter(ev.get("name", "?") for ev in events if ev.get("ph") != "M")


def _bus_counts(records: list[dict[str, Any]]) -> Counter:
    """Bus records per tag, in first-seen order."""
    return Counter(rec.get("t", "?") for rec in records)


def summarize_chrome(payload: dict[str, Any]) -> str:
    """Summary of a raw Chrome ``trace_event`` JSON payload."""
    events = payload.get("traceEvents", [])
    by_phase: dict[str, int] = {}
    pids: set[int] = set()
    t_lo, t_hi = None, 0.0
    for ev in events:
        ph = ev.get("ph", "?")
        by_phase[ph] = by_phase.get(ph, 0) + 1
        if ph == "M":
            continue
        pids.add(ev.get("pid", 0))
        ts = float(ev.get("ts", 0.0)) + float(ev.get("dur", 0.0))
        t_lo = ts if t_lo is None else min(t_lo, float(ev.get("ts", 0.0)))
        t_hi = max(t_hi, ts)
    out = [
        f"chrome trace: {len(events)} entries "
        f"({by_phase.get('M', 0)} metadata), {len(pids)} processes, "
        f"span {t_lo or 0:.0f} .. {t_hi:.0f} us",
        table(["event", "count"], _chrome_counts(events).most_common()),
    ]
    other = payload.get("otherData") or {}
    if other.get("events_dropped"):
        out.append(f"dropped at record time: {other['events_dropped']}")
    return "\n".join(out)


def summarize_sweep(stats: dict[str, Any]) -> str:
    """Summary of a ``sweep.json`` sweep-stats manifest; its tables are the
    sweep report's (:func:`repro.obs.report.sweep_tables`)."""
    tables = sweep_tables(stats)
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
    if "latency" in tables:
        heads, (cells,) = tables["latency"]
        out.append("job latency: " + "  ".join(
            f"{h}={c}" for h, c in zip(heads, cells)))
    if "phases" in tables:
        out += ["", table(*tables["phases"])]
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
    if "workers" in tables:
        out += ["", table(*tables["workers"])]
    if "stragglers" in tables:
        out += ["", "stragglers (> 2x p50):", table(*tables["stragglers"])]
    if "failures" in tables:
        out += ["", table(*tables["failures"])]
    return "\n".join(out)


def summarize_audit(payload: dict[str, Any]) -> str:
    """Summary of an ``audit.json`` dump (``repro.obs.audit/1``)."""
    out = audit_lines(payload.get("summary") or {})
    faults = payload.get("faults") or []
    if faults:
        out.append(f"fault events: {len(faults)}")
    return "\n".join(out)


def summarize_bus(records: list[dict[str, Any]]) -> str:
    """Summary of telemetry-bus records (channel files or a bus dir)."""
    pids = {rec["pid"] for rec in records if "pid" in rec}
    out = [
        f"bus: {len(records)} records from {len(pids)} worker"
        f"{'s' if len(pids) != 1 else ''}",
        table(["record", "count"], _bus_counts(records).most_common()),
    ]
    return "\n".join(out)


def summarize_store_record(payload: dict[str, Any]) -> str:
    """Summary of one results-store record (``repro.store.record/1``)."""
    from repro.store.records import StoreRecord
    from repro.store.trajectory import metrics_of

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
    try:
        metrics = metrics_of(StoreRecord.from_dict(payload))
    except KeyError:  # no record or scenario id: nothing to extract by
        metrics = {}
    if metrics:
        out.append(table(
            ["metric", "value"],
            [[m, f"{v:.4g}"] for m, v in sorted(metrics.items())],
        ))
    return "\n".join(out)


def summarize_store_index(payload: dict[str, Any]) -> str:
    """Summary of a store ``index.json`` (``repro.store.index/1``)."""
    from repro.store.records import scenario_rows, scenario_table

    entries = payload.get("records") or []
    rows = scenario_rows(entries)
    out = [
        f"results store: {len(entries)} recording"
        f"{'s' if len(entries) != 1 else ''} across {len(rows)} scenario"
        f"{'s' if len(rows) != 1 else ''}",
    ]
    if rows:
        out.append(table(*scenario_table(rows)))
    return "\n".join(out)


def read_artifact(
    path: str | os.PathLike,
    prefer: str | None = None,
    bus_dirs: bool = False,
    store: str | os.PathLike | None = None,
) -> tuple[pathlib.Path, Any]:
    """Locate and parse a recorded artifact; returns the file (or bus
    directory) it was read from and what it holds:

    * with ``store``, ``path`` is a record reference (id prefix or
      ``scenario@N``) resolved in that results store → the record;
    * a directory → its run.json (sweep.json first under
      ``prefer="sweep"``), else sweep.json, else a store's index.json;
      with ``bus_dirs``, else every record of its ``bus-*.jsonl`` channels;
    * a ``.jsonl`` log → its records (torn lines skipped, on stderr);
    * any other file → parsed JSON.

    Raises ValueError with a one-line message on missing or corrupt input
    — never a traceback-worthy parse error.
    """
    if store is not None:
        from repro.store import ResultStore

        results = ResultStore(store)
        rec = results.load(str(path))
        return results.record_path(rec.record_id), rec.to_dict()
    p = pathlib.Path(path)
    if p.is_dir():
        names = ["run.json", "sweep.json", "index.json"]
        if prefer == "sweep":
            names.insert(0, "sweep.json")
        found = [p / n for n in names if (p / n).is_file()]
        if found:
            p = found[0]
        elif bus_dirs and any(p.glob("bus-*.jsonl")):
            return p, read_bus(p)
        elif (p / "records").is_dir():
            raise ValueError(
                f"store index {p / 'index.json'} is missing but "
                f"{p / 'records'} holds records — restore the index or "
                "re-record"
            )
        else:
            wanted = ("index.json, or bus-*.jsonl" if bus_dirs
                      else "or index.json")
            raise ValueError(
                f"no run.json, sweep.json, {wanted} found under {p}")
    if not p.is_file():
        raise ValueError(f"{p} does not exist")
    if p.suffix == ".jsonl":
        records, skipped = durable.read_log(p)
        if skipped:
            print(f"{p}: {skipped} torn line(s) skipped", file=sys.stderr)
        return p, records
    try:
        with p.open() as fh:
            return p, json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{p} is not valid JSON: {exc}") from exc


def load_recorded(
    path: str, prefer: str | None = None, store: str | None = None
) -> tuple[str, Any]:
    """Load (:func:`read_artifact`) and classify what ``path`` holds, keyed
    on the embedded ``schema`` tag: ``("run", manifest)``, ``("sweep",
    stats)``, ``("audit", dump)``, ``("diff", verdict)``, ``("bus",
    records)``, ``("store-record", record)``, ``("store-index", index)``,
    or ``("chrome", payload)``.  A ``.jsonl`` file must be a telemetry-bus
    channel; a directory of channels aggregates them.

    Raises ValueError with a one-line message on missing, corrupt, or
    unrecognized input.
    """
    p, payload = read_artifact(path, prefer=prefer, bus_dirs=True,
                               store=store)
    if p.is_dir():
        return "bus", payload
    if p.suffix == ".jsonl":
        if not payload or payload[0].get("schema") != BUS_SCHEMA:
            raise ValueError(
                f"{p} is not a telemetry-bus channel (no {BUS_SCHEMA} meta "
                "record on its first line)"
            )
        return "bus", payload
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


def inspect_json(
    path: str, prefer: str | None = None, store: str | None = None
) -> dict[str, Any]:
    """Machine-readable inspection payload (``repro inspect --json``)."""
    kind, payload = load_recorded(path, prefer=prefer, store=store)
    if kind == "bus":
        return {"kind": kind, "records": len(payload),
                "by_tag": dict(sorted(_bus_counts(payload).items()))}
    if kind == "chrome":
        events = payload.get("traceEvents", [])
        return {
            "kind": "chrome",
            "entries": len(events),
            "by_name": dict(sorted(_chrome_counts(events).items())),
            "other_data": payload.get("otherData") or {},
        }
    return {"kind": kind, **payload}


def inspect_path(
    path: str, prefer: str | None = None, store: str | None = None
) -> str:
    """Dispatch on what ``path`` holds (with ``store``: the record it
    names); raises ValueError when unrecognized."""
    kind, payload = load_recorded(path, prefer=prefer, store=store)
    summarizers = {
        "run": summarize_run,
        "sweep": summarize_sweep,
        "audit": summarize_audit,
        "diff": render_verdict,
        "bus": summarize_bus,
        "store-record": summarize_store_record,
        "store-index": summarize_store_index,
        "chrome": summarize_chrome,
    }
    return summarizers[kind](payload)
