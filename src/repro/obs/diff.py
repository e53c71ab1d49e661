"""Cross-run differential reports: field-by-field comparison of runs.

``repro trace`` writes a ``run.json`` manifest and the telemetry bus a JSONL
record log per worker; :func:`diff_paths` compares two of either kind
field-by-field with a configurable relative tolerance and reports every
drifting leaf with its dotted path.  The output doubles as

* a machine-readable verdict (``DiffResult.to_dict()``, schema
  ``repro.obs.diff/1``) — the CI ``model-audit-diff`` job runs the same
  workload audited and unaudited and requires zero drift, turning the
  bit-identical observability contract into a regression gate;
* a human drift table (:func:`render_verdict`, which ``repro inspect``
  also prints for a saved verdict) for triaging *why* two
  runs disagree (which model, which app, which counter).

Volatile bookkeeping keys (wall-clock timestamps, job durations, cache hit
counters, export file lists) are ignored by default; simulation outputs
are never ignored.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.obs.bus import SWEEP_SCHEMA
from repro.obs.report import table

#: Schema tag for :meth:`DiffResult.to_dict` payloads.
DIFF_SCHEMA = "repro.obs.diff/1"

#: Keys that describe *how the run was executed*, not *what it computed* —
#: wall-clock and environment noise that legitimately differs between two
#: otherwise-identical runs.
DEFAULT_IGNORE = frozenset({
    "ts",          # wall-clock timestamp (JSONL records)
    "duration_s",  # job wall time (JSONL records)
    "done",        # completion-order counter (JSONL records)
    "index",       # pool submission index (JSONL records)
    "cache",       # alone-replay cache hit/miss counters
    "files",       # export file list (depends on --format selection)
})

#: Extra ignores when both sides are sweep-stats manifests
#: (``repro.obs.sweep/1``): host-execution noise — which pids ran the
#: jobs, how parallel the pool happened to be — while the *performance
#: distribution* (latency percentiles, phase totals, cache economics)
#: stays comparable under ``--rel-tol``.  Unlike a run diff, the cache
#: block here is a deliberate comparand: cache-hit drift between two
#: sweeps is exactly what this gate is for.
SWEEP_IGNORE = (DEFAULT_IGNORE | frozenset({
    "workers",              # pid-keyed: never comparable across hosts
    "stragglers",           # job-level wall-clock outliers (host noise)
    "failures",             # diagnosed via ok/failed counts instead
    "wall_s",               # sweep wall-clock
    "busy_s",               # sum of job wall-clocks
    "cpu_s",                # host CPU seconds
    "parallel_efficiency",  # derived from wall_s + workers
    "rss_peak_kb",          # host memory
    "backends",             # table only pre-one-core manifests carry
})) - frozenset({"cache", "duration_s"})

#: Extra ignores when both sides are results-store records
#: (``repro.store.record/1``): provenance describes *when/where* the
#: record was made (git rev, timestamps, config fingerprint of the host
#: invocation) and ``record_id`` is derived from the payload — so a store
#: diff gates exactly the scenario identity plus the computed payload.
STORE_IGNORE = DEFAULT_IGNORE | frozenset({
    "provenance",  # git rev / created_at / fingerprints: recording noise
    "record_id",   # content hash: payload drift already shows directly
})

#: Per-schema default ignore sets, applied by :func:`diff_paths` when both
#: sides carry the same ``schema`` tag and the caller didn't customize the
#: ignore set.  The store record tag is a literal (importing it from
#: :mod:`repro.store` would cycle back into :mod:`repro.obs`).
SCHEMA_IGNORES: dict[str, frozenset[str]] = {
    SWEEP_SCHEMA: SWEEP_IGNORE,
    "repro.store.record/1": STORE_IGNORE,
}


@dataclass
class Drift:
    """One leaf that differs between the two runs."""

    path: str  #: dotted path, list indices in brackets: ``workload.estimates.DASE[0]``
    a: Any
    b: Any
    #: Relative difference for numeric leaves (None for structural drift).
    rel: float | None = None
    #: What kind of drift: "value", "type", "missing-in-a", "missing-in-b",
    #: "length".
    note: str = "value"


@dataclass
class DiffResult:
    """Outcome of one comparison; ``identical`` is the CI verdict."""

    path_a: str
    path_b: str
    rel_tol: float
    compared: int = 0  #: leaves compared
    ignored: int = 0  #: leaves skipped via the ignore set
    drifts: list[Drift] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return not self.drifts

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": DIFF_SCHEMA,
            "a": self.path_a,
            "b": self.path_b,
            "rel_tol": self.rel_tol,
            "compared": self.compared,
            "ignored": self.ignored,
            "identical": self.identical,
            "drift": [
                {
                    "path": d.path,
                    "a": d.a,
                    "b": d.b,
                    "rel": d.rel,
                    "note": d.note,
                }
                for d in self.drifts
            ],
        }

    def render(self, limit: int = 40) -> str:
        """Human drift table; the verdict line comes first."""
        return render_verdict(self.to_dict(), limit)


def render_verdict(verdict: dict[str, Any], limit: int = 40) -> str:
    """Human drift table of a diff verdict (:meth:`DiffResult.to_dict`,
    also as saved to disk); the verdict line comes first."""
    drifts = verdict.get("drift") or []
    out = [
        f"{'IDENTICAL' if verdict.get('identical') else 'DRIFT'}: "
        f"{verdict.get('compared', 0)} leaves compared, "
        f"{verdict.get('ignored', 0)} ignored, {len(drifts)} drifting "
        f"(rel tol {verdict.get('rel_tol', 0):g})",
        f"  a: {verdict.get('a', '?')}",
        f"  b: {verdict.get('b', '?')}",
    ]
    if drifts:
        out.append(table(
            ["path", "a", "b", "rel", "note"],
            [[d.get("path", "?"), _fmt_val(d.get("a")), _fmt_val(d.get("b")),
              "-" if d.get("rel") is None else f"{d['rel']:.3g}",
              d.get("note", "value")]
             for d in drifts[:limit]],
        ))
        if len(drifts) > limit:
            out.append(f"… {len(drifts) - limit} more drifting leaves")
    return "\n".join(out)


def _fmt_val(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    s = str(v)
    return s if len(s) <= 28 else s[:25] + "…"


def _rel(a: float, b: float) -> float:
    denom = max(abs(a), abs(b))
    return 0.0 if denom == 0 else abs(a - b) / denom


class _Walker:
    def __init__(self, rel_tol: float, ignore: frozenset[str]) -> None:
        self.rel_tol = rel_tol
        self.ignore = ignore
        self.compared = 0
        self.ignored = 0
        self.drifts: list[Drift] = []

    def walk(self, a: Any, b: Any, path: str) -> None:
        if isinstance(a, dict) and isinstance(b, dict):
            for k in sorted(set(a) | set(b), key=str):
                sub = f"{path}.{k}" if path else str(k)
                if str(k) in self.ignore:
                    self.ignored += 1
                    continue
                if k not in a:
                    self.drifts.append(
                        Drift(sub, None, b[k], note="missing-in-a"))
                elif k not in b:
                    self.drifts.append(
                        Drift(sub, a[k], None, note="missing-in-b"))
                else:
                    self.walk(a[k], b[k], sub)
            return
        if isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.drifts.append(
                    Drift(path, len(a), len(b), note="length"))
                return
            for i, (x, y) in enumerate(zip(a, b)):
                self.walk(x, y, f"{path}[{i}]")
            return
        # Leaves.  bool is an int subclass — compare exactly, never by
        # tolerance; numeric cross-type (int vs float) compares by value.
        self.compared += 1
        num_a = isinstance(a, (int, float)) and not isinstance(a, bool)
        num_b = isinstance(b, (int, float)) and not isinstance(b, bool)
        if num_a and num_b:
            if math.isnan(a) and math.isnan(b):
                return
            rel = _rel(float(a), float(b))
            if rel > self.rel_tol:
                self.drifts.append(Drift(path, a, b, rel=rel))
            return
        if type(a) is not type(b):
            self.drifts.append(Drift(path, a, b, note="type"))
            return
        if a != b:
            self.drifts.append(Drift(path, a, b))


def navigate(payload: Any, dotted: str) -> Any:
    """Resolve a dotted ``--only`` path (``workload.estimates.DASE``)
    against a parsed payload; raises ValueError with the failing step."""
    cur = payload
    if not dotted:
        return cur
    for step in dotted.split("."):
        if isinstance(cur, dict) and step in cur:
            cur = cur[step]
        elif isinstance(cur, list) and step.lstrip("-").isdigit():
            idx = int(step)
            if not -len(cur) <= idx < len(cur):
                raise ValueError(f"index {step!r} out of range in --only")
            cur = cur[idx]
        else:
            raise ValueError(f"path step {step!r} not found in --only")
    return cur


def _comparable(path: str | os.PathLike,
                store: str | os.PathLike | None) -> Any:
    """What :func:`diff_paths` compares of ``path``: its parsed content,
    with a ``.jsonl`` log keyed by record ``key`` so two logs pair by job,
    not completion order."""
    from repro.obs.inspect import read_artifact

    p, payload = read_artifact(path, store=store)
    if p.suffix == ".jsonl":
        return {str(rec.get("key", f"line{n}")): rec
                for n, rec in enumerate(payload)}
    return payload


def diff_payloads(
    a: Any,
    b: Any,
    path_a: str = "a",
    path_b: str = "b",
    rel_tol: float = 0.0,
    ignore: Sequence[str] | frozenset[str] = DEFAULT_IGNORE,
) -> DiffResult:
    """Compare two parsed payloads field-by-field."""
    walker = _Walker(rel_tol, frozenset(ignore))
    walker.walk(a, b, "")
    res = DiffResult(str(path_a), str(path_b), rel_tol)
    res.compared = walker.compared
    res.ignored = walker.ignored
    res.drifts = walker.drifts
    return res


def diff_paths(
    path_a: str | os.PathLike,
    path_b: str | os.PathLike,
    rel_tol: float = 0.0,
    ignore: Sequence[str] | frozenset[str] = DEFAULT_IGNORE,
    only: str | None = None,
    store: str | os.PathLike | None = None,
) -> DiffResult:
    """Load and compare two run manifests / record logs / JSON files
    (:func:`repro.obs.inspect.read_artifact`; a bus directory is not one).

    When both sides carry the same schema tag and the caller did not
    customize the ignore set, the per-schema default from
    :data:`SCHEMA_IGNORES` applies automatically: ``repro diff sweepA
    sweepB --rel-tol 0.2`` gates latency-distribution and cache-hit-rate
    drift without tripping on pids and wall-clock noise, and a store-
    record diff skips provenance while gating scenario + payload.  With
    ``store``, both paths are record references in that results store.
    """
    a = _comparable(path_a, store)
    b = _comparable(path_b, store)
    if (
        ignore is DEFAULT_IGNORE
        and isinstance(a, dict) and isinstance(b, dict)
        and a.get("schema") is not None
        and a.get("schema") == b.get("schema")
    ):
        ignore = SCHEMA_IGNORES.get(a["schema"], DEFAULT_IGNORE)
    if only:
        a = navigate(a, only)
        b = navigate(b, only)
    label_a = str(path_a) + (f" :: {only}" if only else "")
    label_b = str(path_b) + (f" :: {only}" if only else "")
    return diff_payloads(a, b, label_a, label_b, rel_tol, ignore)
