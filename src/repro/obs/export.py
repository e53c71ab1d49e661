"""Trace exporters: Chrome ``trace_event`` JSON and CSV.

The Chrome exporter emits the JSON-object format (``{"traceEvents":
[...]}``) that Perfetto and ``chrome://tracing`` load directly: instant
events (``ph="i"``), complete slices (``ph="X"`` with ``dur``), counter
tracks (``ph="C"``), plus ``process_name``/``thread_name`` metadata
derived from the tracer's recorded topology so the timeline reads
"app0 (SD) / SM 3" instead of raw ids.  Timestamps are simulated core
cycles exported as microseconds (1 cycle = 1 µs), sorted ascending as the
viewers expect.
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro import durable
from repro.obs.report import csv_table
from repro.obs.tracer import (
    EventTracer,
    PID_ICNT_REPLY,
    PID_ICNT_REQUEST,
    PID_SIM,
    TID_BANK_BASE,
    TID_PART_BASE,
)


def _process_names(topology: dict, pids: set[int]) -> dict[int, str]:
    app_names = topology.get("app_names") or []
    names: dict[int, str] = {}
    for pid in pids:
        if pid == PID_SIM:
            names[pid] = "sim"
        elif pid == PID_ICNT_REQUEST:
            names[pid] = "icnt.request"
        elif pid == PID_ICNT_REPLY:
            names[pid] = "icnt.reply"
        elif pid < len(app_names):
            names[pid] = f"app{pid} ({app_names[pid]})"
        else:
            names[pid] = f"app{pid}"
    return names


def _thread_name(pid: int, tid: int, topology: dict) -> str | None:
    if pid in (PID_ICNT_REQUEST, PID_ICNT_REPLY):
        return f"port {tid}"
    n_banks = topology.get("n_banks")
    if tid >= TID_BANK_BASE and n_banks:
        part, bank = divmod(tid - TID_BANK_BASE, n_banks)
        return f"part{part}/bank{bank}"
    if tid >= TID_PART_BASE:
        return f"part{tid - TID_PART_BASE}"
    if pid < TID_PART_BASE:  # app pid, SM-track tid
        return f"SM {tid}"
    return None


def chrome_trace_events(tracer: EventTracer) -> list[dict[str, Any]]:
    """The ``traceEvents`` array: metadata first, then events by ts."""
    events = sorted(tracer.events(), key=lambda ev: ev[0])
    topology = tracer.topology
    pids: set[int] = set()
    threads: set[tuple[int, int]] = set()
    out: list[dict[str, Any]] = []
    for ts, ph, name, pid, tid, dur, args in events:
        ev: dict[str, Any] = {
            "name": name,
            "ph": ph,
            "ts": float(ts),
            "pid": pid,
            "tid": tid,
        }
        if ph == "X":
            ev["dur"] = float(dur)
        if ph == "C":
            ev["args"] = args or {}
        elif args:
            ev["args"] = args
        out.append(ev)
        pids.add(pid)
        if ph != "C":
            threads.add((pid, tid))
    meta: list[dict[str, Any]] = []
    for pid, pname in sorted(_process_names(topology, pids).items()):
        meta.append({
            "name": "process_name", "ph": "M", "ts": 0.0,
            "pid": pid, "tid": 0, "args": {"name": pname},
        })
    for pid, tid in sorted(threads):
        tname = _thread_name(pid, tid, topology)
        if tname is not None:
            meta.append({
                "name": "thread_name", "ph": "M", "ts": 0.0,
                "pid": pid, "tid": tid, "args": {"name": tname},
            })
    return meta + out


def to_chrome_trace(tracer: EventTracer) -> dict[str, Any]:
    """Full Chrome/Perfetto JSON-object payload."""
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ns",
        "otherData": {
            "generator": "repro.obs",
            "clock": "simulated core cycles (1 cycle = 1 us)",
            "events_emitted": tracer.n_emitted,
            "events_dropped": tracer.dropped,
            "topology": dict(tracer.topology),
        },
    }


def export_chrome_trace(
    tracer: EventTracer, path: str | os.PathLike
) -> dict[str, Any]:
    """Write the Chrome trace JSON to ``path``; returns the payload."""
    payload = to_chrome_trace(tracer)
    durable.replace_text(
        path, json.dumps(payload, separators=(",", ":")) + "\n")
    return payload


# -------------------------------------------------------------- sweep trace


def export_sweep_trace(
    source, path: str | os.PathLike
) -> dict[str, Any]:
    """Write a sweep-level Chrome trace (one track per worker slot, one
    slice per job) from a telemetry-bus recording to ``path``.

    ``source`` is a bus directory or an already-read record list (see
    :func:`repro.obs.bus.read_bus`); returns the validated payload.
    """
    from repro.obs import bus

    records = source if isinstance(source, list) else bus.read_bus(source)
    payload = bus.sweep_chrome_trace(records)
    bus.validate_sweep_trace(payload)
    durable.replace_text(
        path, json.dumps(payload, separators=(",", ":")) + "\n")
    return payload


# --------------------------------------------------------------------- CSV

CSV_HEADER = ("ts", "ph", "name", "pid", "tid", "dur", "args")


def events_csv(tracer: EventTracer) -> str:
    """All retained events as CSV text (args JSON-encoded in one column)."""
    return csv_table(CSV_HEADER, [
        [ts, ph, name, pid, tid, dur,
         json.dumps(args, sort_keys=True) if args else None]
        for ts, ph, name, pid, tid, dur, args in sorted(
            tracer.events(), key=lambda ev: ev[0])
    ])


def export_events_csv(tracer: EventTracer, path: str | os.PathLike) -> None:
    durable.replace_text(path, events_csv(tracer))


# ----------------------------------------------------------------- summary


def trace_summary(tracer: EventTracer) -> dict[str, Any]:
    """JSON-safe digest of a recording (for ``run.json`` / ``inspect``)."""
    t0, t1 = tracer.span()
    return {
        "events_retained": len(tracer),
        "events_emitted": tracer.n_emitted,
        "events_dropped": tracer.dropped,
        "capacity": tracer.capacity,
        "span_cycles": [t0, t1],
        "by_name": tracer.counts_by_name(),
        "engine": {
            "events_dispatched": tracer.engine_events,
            "max_bucket": tracer.engine_max_bucket,
        },
        "topology": dict(tracer.topology),
    }


def bank_heat(tracer: EventTracer) -> dict[tuple[int, int], int]:
    """(partition, bank) → serviced-request count, from ``dram.service``
    events retained in the ring."""
    n_banks = tracer.topology.get("n_banks", 0)
    heat: dict[tuple[int, int], int] = {}
    for ts, ph, name, pid, tid, dur, args in tracer.events():
        if name != "dram.service" or not args:
            continue
        key = (args["part"], args["bank"])
        heat[key] = heat.get(key, 0) + 1
    if not heat and n_banks:
        return {}
    return heat
