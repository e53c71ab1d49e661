"""Hash-addressed, schema-versioned results store.

One :class:`ResultStore` directory accumulates the typed outputs of every
figure driver across runs, seeds, and PRs — the longitudinal
counterpart of the per-run (``run.json``), per-model (``audit.json``),
and per-sweep (``sweep.json``) observability scopes.

Layout::

    <dir>/index.json            # append-ordered log of recordings
    <dir>/records/<id>.json     # one content-addressed record per file

Every record (schema :data:`RECORD_SCHEMA`) embeds

* the canonical :class:`~repro.store.registry.ScenarioSpec` dict and its
  sha256 ``scenario_id``;
* the typed driver payload plus its ``payload_schema`` tag
  (``repro.store.fig2/1``, ``repro.store.accuracy/1``, …);
* provenance — config fingerprint, git revision, creation time, repro
  version, and the schema versions of every embedded payload family.

The ``record_id`` is a sha256 over the canonical JSON of
``(scenario_id, payload_schema, payload)`` **only** — provenance is
deliberately excluded, so re-running the same scenario with the same seed
produces byte-identical record content at the identical address
(content-addressing doubles as deduplication), while the index still logs
one entry per recording so trajectories show every run.  All writes go
through :func:`repro.durable.replace_text`, so concurrent recorders land
whole files and the last index writer wins without torn reads.

Corrupt or missing store state is always reported as a one-line
:class:`ValueError` (the same contract as ``repro inspect``), never a
traceback.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from repro import durable
from repro.hashing import canonical_json, digest

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.store.registry import ScenarioSpec

#: Schema tag of one stored record.
RECORD_SCHEMA = "repro.store.record/1"

#: Schema tag of the store index file.
INDEX_SCHEMA = "repro.store.index/1"

#: Payload schema of records imported from pre-registry per-figure JSON
#: files.  Nothing writes it any more; stores that hold such records still
#: load, inspect and chart them (and a record without a tag reads as one).
LEGACY_SCHEMA = "repro.store.legacy/1"


def content_id(scenario_id: str, payload_schema: str, payload: Any) -> str:
    """The record's content address: sha256 over the canonical JSON of what
    was *computed*, never over when/where it was computed (provenance)."""
    return digest({
        "scenario_id": scenario_id,
        "payload_schema": payload_schema,
        "payload": payload,
    })


def git_revision(cwd: str | os.PathLike | None = None) -> str | None:
    """Current git commit hash, or None outside a repo / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=str(cwd) if cwd is not None else None,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


@dataclass
class StoreRecord:
    """One recorded result: scenario identity + typed payload + provenance."""

    record_id: str
    scenario_id: str
    scenario: dict[str, Any]
    payload_schema: str
    payload: Any
    provenance: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": RECORD_SCHEMA,
            "record_id": self.record_id,
            "scenario_id": self.scenario_id,
            "scenario": self.scenario,
            "payload_schema": self.payload_schema,
            "payload": self.payload,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "StoreRecord":
        if d.get("schema") != RECORD_SCHEMA:
            raise ValueError(
                f"not a store record (schema {d.get('schema')!r}, "
                f"expected {RECORD_SCHEMA})"
            )
        return cls(
            record_id=d["record_id"],
            scenario_id=d["scenario_id"],
            scenario=dict(d.get("scenario") or {}),
            payload_schema=d.get("payload_schema", LEGACY_SCHEMA),
            payload=d.get("payload"),
            provenance=dict(d.get("provenance") or {}),
        )


class ResultStore:
    """Content-addressed record files plus an append-ordered index.

    The index is the source of truth for *recordings* (one entry per
    :meth:`record` call, in order); the record
    files are the source of truth for *content* (one file per distinct
    result).  :meth:`gc` reconciles the two.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = pathlib.Path(directory)
        if self.directory.exists() and not self.directory.is_dir():
            raise ValueError(
                f"store path {self.directory} exists but is not a directory"
            )

    # ------------------------------------------------------------- layout

    @property
    def index_path(self) -> pathlib.Path:
        return self.directory / "index.json"

    @property
    def records_dir(self) -> pathlib.Path:
        return self.directory / "records"

    def record_path(self, record_id: str) -> pathlib.Path:
        return self.records_dir / f"{record_id}.json"

    # -------------------------------------------------------------- index

    def index(self) -> list[dict[str, Any]]:
        """The recording log, oldest first.  Missing store → empty list;
        corrupt index → one-line ValueError (the inspect error contract)."""
        path = self.index_path
        if not path.is_file():
            if self.directory.is_dir() and any(
                self.records_dir.glob("*.json")
            ):
                raise ValueError(
                    f"store index {path} is missing but {self.records_dir} "
                    "holds records — restore the index or re-record"
                )
            return []
        try:
            with path.open() as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"store index {path} is unreadable: {exc}") from exc
        if not text.strip():
            # An empty (or whitespace-only) index is an initialized-but-empty
            # store — e.g. a touched index.json — not corruption; callers like
            # `repro store list` / `repro trajectory` should see "no records".
            return []
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"store index {path} is corrupt (not valid JSON: {exc})"
            ) from exc
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != INDEX_SCHEMA
            or not isinstance(payload.get("records"), list)
        ):
            raise ValueError(
                f"store index {path} does not carry schema {INDEX_SCHEMA}"
            )
        return payload["records"]

    def _write(self, path: pathlib.Path, payload: Any) -> None:
        durable.replace_text(
            path, json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )

    def _write_index(self, entries: list[dict[str, Any]]) -> None:
        self._write(self.index_path,
                    {"schema": INDEX_SCHEMA, "records": entries})

    # ---------------------------------------------------------- recording

    def record(
        self,
        scenario: "ScenarioSpec | dict[str, Any]",
        payload: Any,
        payload_schema: str,
        provenance: dict[str, Any] | None = None,
    ) -> StoreRecord:
        """Store one typed result and log it in the index.

        ``scenario`` is a :class:`~repro.store.registry.ScenarioSpec` (or
        its canonical dict).  Identical content re-records to the same
        address — the file is rewritten with identical bytes — but the
        index gains a fresh entry either way, so a trajectory over the
        scenario sees every recording.
        """
        from repro.store.registry import ScenarioSpec

        if isinstance(scenario, ScenarioSpec):
            scenario_dict = scenario.canonical()
            scenario_id = scenario.scenario_id()
            name = scenario.name
        else:
            scenario_dict = dict(scenario)
            scenario_id = ScenarioSpec.id_of(scenario_dict)
            name = str(scenario_dict.get("name", "unnamed"))
        payload = json.loads(canonical_json(payload))  # JSON-safe, key-sorted
        record_id = content_id(scenario_id, payload_schema, payload)
        prov = {
            "git_rev": git_revision(),
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "schemas": {"record": RECORD_SCHEMA, "payload": payload_schema},
        }
        prov.update(provenance or {})
        rec = StoreRecord(
            record_id=record_id,
            scenario_id=scenario_id,
            scenario=scenario_dict,
            payload_schema=payload_schema,
            payload=payload,
            provenance=prov,
        )
        # Read the index before touching disk (a half-written store should
        # fail here, not after adding files), then content first, then the
        # index entry: a crash in between leaves an orphan record file
        # (removable by gc), never an index entry pointing at nothing.
        entries = self.index()
        existing = self.record_path(record_id)
        if existing.is_file():
            # Same address → same content by construction; keep the first
            # writer's provenance on disk (first-seen wins for the file).
            rec_on_disk = self._load_file(existing)
            rec.provenance = rec_on_disk.provenance
        else:
            self._write(existing, rec.to_dict())
        entries.append({
            "seq": len(entries),
            "record_id": record_id,
            "scenario_id": scenario_id,
            "scenario_name": name,
            "payload_schema": payload_schema,
            "created_at": prov["created_at"],
            "git_rev": prov.get("git_rev"),
        })
        self._write_index(entries)
        return rec

    # ------------------------------------------------------------ loading

    def _load_file(self, path: pathlib.Path) -> StoreRecord:
        if not path.is_file():
            raise ValueError(f"record {path.stem[:12]}… not found in {self.directory}")
        try:
            with path.open() as fh:
                payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"record file {path} is corrupt (not valid JSON: {exc})"
            ) from exc
        rec = StoreRecord.from_dict(payload)
        actual = content_id(rec.scenario_id, rec.payload_schema, rec.payload)
        if actual != rec.record_id:
            raise ValueError(
                f"record file {path} fails its content hash "
                f"(stored {rec.record_id[:12]}…, computed {actual[:12]}…)"
            )
        return rec

    def load(self, ref: str) -> StoreRecord:
        """Load a record by reference:

        * a full record id or any unambiguous hex prefix (≥ 4 chars);
        * ``<scenario-name>@<n>`` — the *n*-th recording of that scenario
          in index order (negative indices count from the latest, so
          ``fig2@-1`` is the most recent fig2 recording).
        """
        entries = self.index()
        if "@" in ref:
            name, _, idx_s = ref.rpartition("@")
            try:
                idx = int(idx_s)
            except ValueError:
                raise ValueError(f"bad record reference {ref!r}") from None
            matching = [
                e for e in entries
                if e.get("scenario_name") == name
                or e.get("scenario_id") == name
            ]
            if not matching:
                raise ValueError(
                    f"no recordings of scenario {name!r} in {self.directory}"
                )
            if not -len(matching) <= idx < len(matching):
                raise ValueError(
                    f"scenario {name!r} has {len(matching)} recordings; "
                    f"index {idx} is out of range"
                )
            return self._load_file(
                self.record_path(matching[idx]["record_id"])
            )
        if len(ref) < 4:
            raise ValueError(
                f"record id prefix {ref!r} is too short (need >= 4 chars)"
            )
        ids = sorted({
            e["record_id"] for e in entries
            if str(e.get("record_id", "")).startswith(ref)
        })
        if not ids and self.record_path(ref).is_file():
            ids = [ref]  # full id of an orphan (not indexed) record
        if not ids:
            raise ValueError(f"no record matches {ref!r} in {self.directory}")
        if len(ids) > 1:
            raise ValueError(
                f"record id prefix {ref!r} is ambiguous "
                f"({len(ids)} matches)"
            )
        return self._load_file(self.record_path(ids[0]))

    def scenarios(self) -> list[dict[str, Any]]:
        """One summary row per distinct scenario id, in first-seen order."""
        return scenario_rows(self.index())

    def export_payload(self, ref: str) -> str:
        """Re-emit a record's payload in the figure-artifact format
        (``indent=1, sort_keys=True`` + trailing newline, what ``--out
        DIR`` writes as ``<stem>.json``)."""
        rec = self.load(ref)
        return json.dumps(rec.payload, indent=1, sort_keys=True) + "\n"

    # ----------------------------------------------------------------- gc

    def gc(self, keep: int | None = None) -> dict[str, int]:
        """Reconcile index and record files.

        Removes orphan record files (present on disk, absent from the
        index — e.g. a recorder crashed between content and index write)
        and the stale temp files of recorders killed mid-write.  With
        ``keep=N``, additionally prunes each scenario's recording log to
        its newest N entries, then drops any record file no surviving
        entry references.  Returns counters.
        """
        entries = self.index()
        pruned = 0
        if keep is not None:
            if keep < 1:
                raise ValueError(f"gc keep must be >= 1, got {keep}")
            per: dict[str, int] = {}
            for e in reversed(entries):
                per[e["scenario_id"]] = per.get(e["scenario_id"], 0) + 1
            drop_budget = {
                sid: n - keep for sid, n in per.items() if n > keep
            }
            kept_entries: list[dict[str, Any]] = []
            for e in entries:  # oldest first: drop from the front
                sid = e["scenario_id"]
                if drop_budget.get(sid, 0) > 0:
                    drop_budget[sid] -= 1
                    pruned += 1
                    continue
                kept_entries.append(e)
            for seq, e in enumerate(kept_entries):
                e["seq"] = seq
            entries = kept_entries
            self._write_index(entries)
        referenced = {e["record_id"] for e in entries}
        orphans = 0
        if self.records_dir.is_dir():
            for f in self.records_dir.glob("*.json"):
                if f.stem not in referenced:
                    try:
                        f.unlink()
                        orphans += 1
                    except OSError:
                        pass
        return {
            "entries": len(entries),
            "pruned": pruned,
            "orphans_removed": orphans,
            "tmp_swept": durable.sweep_tmp(self.directory)
            + durable.sweep_tmp(self.records_dir),
        }


def scenario_rows(entries: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """Index entries aggregated to one row per distinct scenario id, in
    first-seen order."""
    rows: dict[str, dict[str, Any]] = {}
    for e in entries:
        sid = e.get("scenario_id", "?")
        row = rows.setdefault(sid, {
            "scenario_id": sid,
            "scenario_name": e.get("scenario_name", "?"),
            "payload_schema": e.get("payload_schema", "?"),
            "records": 0,
            "first": e.get("created_at"),
            "last": e.get("created_at"),
        })
        row["records"] += 1
        row["last"] = e.get("created_at")
    return list(rows.values())


def scenario_table(
    rows: list[dict[str, Any]],
) -> tuple[list[str], list[list[str]]]:
    """:func:`scenario_rows` as a table (``repro store list``, ``repro
    inspect`` on an index)."""
    return ["scenario", "id", "payload schema", "records", "last recorded"], [
        [r["scenario_name"], r["scenario_id"][:12], r["payload_schema"],
         str(r["records"]), r["last"] or "-"]
        for r in rows
    ]


def iter_payloads(
    store: ResultStore, scenario: str | None = None
) -> Iterable[tuple[dict[str, Any], StoreRecord]]:
    """(index entry, loaded record) pairs in recording order, optionally
    restricted to one scenario name or id."""
    for e in store.index():
        if scenario is not None and not (
            e.get("scenario_name") == scenario
            or e.get("scenario_id") == scenario
        ):
            continue
        yield e, store._load_file(store.record_path(e["record_id"]))
