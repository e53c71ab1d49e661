"""Cross-process telemetry bus for harness sweeps.

A sweep fanned out through :func:`repro.harness.parallel.run_jobs` runs
in many processes; this module is its sweep-scope spine: every job process
(and the inline path, so inline and pooled sweeps measure identically)
appends compact JSON-lines records to its own channel file under a bus
directory, and the parent aggregates them — live (the progress reporter
tails the channels for straggler warnings) and post hoc (a unified
Chrome/Perfetto trace with one track per worker, a :class:`SweepStats`
roll-up, and a merged sweep-wide cProfile table).  A pooled sweep forks
one process per job attempt, so it leaves one channel per attempt; its
records carry the ``slot`` (0…n−1) that ran them, and a worker is a slot.

Record taxonomy (schema :data:`BUS_SCHEMA`, one JSON object per line):

* ``meta``      — first line of every channel file (schema, pid, role);
* ``sweep``     — parent marks the start of one :func:`run_jobs` call
  (sweep id, job count), so several sweeps can share one bus directory;
* ``job_start`` — a job attempt began (flushed immediately, so a
  crashed process still leaves evidence of what it was running);
* ``span``      — one timed phase of the job lifecycle: ``dequeue``
  (pooled only: fork → the job process starting the attempt),
  ``simulate`` (the shared run, with its cycle window), ``replay``
  (``cached=True``: one alone clock served by the replay cache, inside
  the job that asked, with the ``curve_end`` of the stored trajectory
  that answered it;
  ``cached=False``: one simulated alone trajectory, how many
  ``counts``/``requests`` it served and, when it re-simulates past a
  stored curve, that curve's end as ``extended_from``; ``chased=True``
  when a helper process simulated it alongside the shared runs that
  asked — ``dur`` is then the helper's busy time and ``tail_s`` what the
  inline sweep still waited for its answers, between job attempts and
  recorded against the job that collected the last one; ``fallback=True``
  says the helper was lost and one asker's replay redone in process),
  ``serialize`` (result pickling, pooled only);
* ``job_end``   — job attempt finished: wall/CPU time, peak RSS,
  cache counters (flushed immediately);
* ``outcome``   — the parent's settled verdict for the job (ok, failure
  kind, attempts, resumed, final cache counters, attributed ``replay_s``)
  — the only record a hard-crashed job gets beyond its ``job_start``,
  which is how failure spans are attributed.

Sweeps run in two phases (docs/parallel-harness.md): the jobs' shared
runs, then one *replay task* per alone trajectory.  Replay tasks go
through the same job_start/span/job_end/outcome stream, tagged
``kind: "replay"`` and numbered after the sweep's jobs; they add to busy
time, phases and worker load, but are not counted as jobs.

Channels are append-only (:func:`repro.durable.open_log`): a process killed
mid-write corrupts at most its last line, which :func:`read_bus` skips.

The bus is **off by default and free when off**: the harness consults
one module-level channel reference (:func:`current`), so the disabled
path is a handful of ``is None`` checks per *job* — nothing in the
simulator's cycle loop is touched (the CI ``sweep-obs`` job gates this
against the same <3% budget as single-run observability).
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro import durable

#: Schema tag carried by every channel's ``meta`` record.
BUS_SCHEMA = "repro.obs.bus/1"
#: Schema tag of the aggregated ``sweep.json`` manifest.
SWEEP_SCHEMA = "repro.obs.sweep/1"

#: Chrome phases a trace may legally carry — the run exporter's
#: (:mod:`repro.obs.export`) and :func:`sweep_chrome_trace`'s alike; what
#: :func:`validate_sweep_trace` checks against.
CHROME_PHASES = frozenset({"i", "X", "C", "M"})

try:  # POSIX: exact CPU time + peak RSS for the calling process
    import resource as _resource

    def _rusage() -> tuple[float, int]:
        ru = _resource.getrusage(_resource.RUSAGE_SELF)
        return ru.ru_utime + ru.ru_stime, int(ru.ru_maxrss)

except ImportError:  # pragma: no cover - non-POSIX fallback
    def _rusage() -> tuple[float, int]:
        t = os.times()
        return t.user + t.system, 0


# --------------------------------------------------------------------------
# Worker-side channel
# --------------------------------------------------------------------------


class WorkerChannel:
    """One process's append-only JSONL channel into a bus directory.

    Spans recorded between :meth:`job_start` and :meth:`job_end` inherit
    the current (sweep, job) context, so instrumentation sites (e.g. the
    alone-replay loop in :mod:`repro.harness.runner`) never need to know
    which job they are serving.  ``job_start``/``job_end`` flush; spans
    are buffered until the next flush, so a crash loses at most the
    spans of the in-flight job — never its start record.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = pathlib.Path(directory)
        self.pid = os.getpid()
        self.path = self.directory / f"bus-{self.pid}.jsonl"
        fresh = not self.path.exists()
        self._fh = durable.open_log(self.path)
        #: The sweep slot (0…n−1) of a pooled job process, written on its
        #: job records so one worker is one slot, not one process.
        self.slot: int | None = None
        self._sweep: str | None = None
        self._job: int | None = None
        self._job_t0 = 0.0
        self._job_cpu0 = 0.0
        if fresh:
            self.record(
                {"t": "meta", "schema": BUS_SCHEMA, "pid": self.pid,
                 "ts": time.time()},
                flush=True,
            )

    def _who(self) -> dict:
        if self.slot is None:
            return {"pid": self.pid}
        return {"pid": self.pid, "slot": self.slot}

    def record(self, rec: dict, flush: bool = False) -> None:
        """Append one raw record (callers supply the ``t`` tag)."""
        line = json.dumps(rec, separators=(",", ":"))
        durable.append(self._fh, line, flush=flush)

    def job_start(
        self,
        sweep: str,
        job: int,
        key: str,
        attempt: int = 1,
        submit_ts: float | None = None,
        kind: str | None = None,
    ) -> None:
        """Enter job context; emits the (flushed) start record and, when
        the parent's submit timestamp is known, the ``dequeue`` span.
        ``kind`` tags work that is not one of the sweep's own jobs
        (``"replay"``: an alone-replay task)."""
        now = time.time()
        self._sweep = sweep
        self._job = job
        self._job_t0 = now
        self._job_cpu0 = _rusage()[0]
        rec = {"t": "job_start", "sweep": sweep, "job": job, "key": key,
               **self._who(), "ts": now, "attempt": attempt}
        if kind is not None:
            rec["kind"] = kind
        self.record(rec, flush=True)
        if submit_ts is not None and now > submit_ts:
            self.span("dequeue", now - submit_ts, ts=now)

    def span(self, name: str, dur_s: float, ts: float | None = None,
             **args: Any) -> None:
        """One timed phase of the current job (buffered)."""
        rec: dict[str, Any] = {
            "t": "span", "name": name, "sweep": self._sweep,
            "job": self._job, **self._who(),
            "ts": ts if ts is not None else time.time(),
            "dur": dur_s,
        }
        if args:
            rec["args"] = args
        self.record(rec)

    @contextlib.contextmanager
    def serving(self, sweep: str | None, job: int):
        """Record spans inside as ``job``'s of ``sweep`` although its attempt
        is over: an inline sweep collecting the job's overlapped replays."""
        saved = self._sweep, self._job
        self._sweep, self._job = sweep, job
        try:
            yield
        finally:
            self._sweep, self._job = saved

    def job_end(
        self,
        ok: bool,
        cache: dict | None = None,
        failure_kind: str | None = None,
    ) -> None:
        """Leave job context; emits the (flushed) end record with the
        job's wall/CPU time and the process's peak RSS so far."""
        now = time.time()
        cpu, rss_kb = _rusage()
        rec: dict[str, Any] = {
            "t": "job_end", "sweep": self._sweep, "job": self._job,
            **self._who(), "ts": now, "dur": now - self._job_t0,
            "ok": ok, "cpu_s": max(0.0, cpu - self._job_cpu0),
            "rss_peak_kb": rss_kb,
        }
        if cache is not None:
            rec["cache"] = cache
        if failure_kind is not None:
            rec["failure_kind"] = failure_kind
        self.record(rec, flush=True)
        self._sweep = None
        self._job = None

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:  # pragma: no cover - disk gone
            pass


#: The process-wide active channel; ``None`` = bus off (the free path).
_ACTIVE: WorkerChannel | None = None


def activate(directory: str | os.PathLike) -> WorkerChannel:
    """Open (or reuse) this process's channel into ``directory``.

    Idempotent per directory: repeated calls keep appending to the same
    file; switching directories closes the old channel first.
    """
    global _ACTIVE
    directory = pathlib.Path(directory)
    if _ACTIVE is not None:
        if _ACTIVE.directory == directory and _ACTIVE.pid == os.getpid():
            return _ACTIVE
        if _ACTIVE.pid == os.getpid():
            _ACTIVE.close()
        # else: inherited across a fork — abandon the parent's channel
        # without closing it, so its buffered records are not replayed
        # into the file from the child.
    _ACTIVE = WorkerChannel(directory)
    return _ACTIVE


def deactivate() -> None:
    """Close and clear this process's channel (no-op when off)."""
    global _ACTIVE
    if _ACTIVE is not None and _ACTIVE.pid == os.getpid():
        _ACTIVE.close()
    _ACTIVE = None


def current() -> WorkerChannel | None:
    """The active channel, or None — instrumentation sites' single check."""
    return _ACTIVE


# --------------------------------------------------------------------------
# Parent-side reading
# --------------------------------------------------------------------------


def bus_files(directory: str | os.PathLike) -> list[pathlib.Path]:
    """The channel files under a bus directory, in stable order."""
    d = pathlib.Path(directory)
    if not d.is_dir():
        return []
    return sorted(d.glob("bus-*.jsonl"))


def read_bus(directory: str | os.PathLike) -> list[dict]:
    """All records from every channel, torn-line tolerant, ts-ordered."""
    records: list[dict] = []
    for path in bus_files(directory):
        try:
            records.extend(durable.read_log(path)[0])
        except OSError:  # pragma: no cover - file unreadable mid-read
            continue
    records.sort(key=lambda r: r.get("ts", 0.0))
    return records


class BusReader:
    """Incremental tail-reader over a bus directory.

    The live progress reporter polls this between job completions; only
    complete (newline-terminated) new lines are consumed, so a record
    mid-write is simply picked up on the next poll.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = pathlib.Path(directory)
        self._offsets: dict[pathlib.Path, int] = {}

    def poll(self) -> list[dict]:
        """New complete records since the last poll, across all channels."""
        out: list[dict] = []
        for path in bus_files(self.directory):
            try:
                records, self._offsets[path] = durable.tail_log(
                    path, self._offsets.get(path, 0)
                )
            except OSError:  # pragma: no cover
                continue
            out.extend(records)
        return out


# --------------------------------------------------------------------------
# Aggregation: SweepStats
# --------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an unsorted sequence (0..1)."""
    if not values:
        return 0.0
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0]
    pos = q * (len(vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    frac = pos - lo
    return vals[lo] * (1.0 - frac) + vals[hi] * frac


@dataclass
class _JobTrail:
    """Everything the bus recorded about one (sweep, job) pair."""

    sweep: str
    job: int
    key: str = "?"
    kind: str | None = None  #: "replay" for an alone-replay task
    start: dict | None = None
    end: dict | None = None
    spans: list[dict] = field(default_factory=list)
    outcome: dict | None = None
    attempts: list[tuple[dict | None, dict | None]] = field(
        default_factory=list
    )


def _collate(records: Iterable[dict]) -> dict[tuple[str, int], _JobTrail]:
    """Group raw records into per-job trails (last attempt wins)."""
    trails: dict[tuple[str, int], _JobTrail] = {}

    def trail(rec: dict) -> _JobTrail:
        k = (str(rec.get("sweep")), int(rec.get("job", -1)))
        if k not in trails:
            trails[k] = _JobTrail(sweep=k[0], job=k[1])
        return trails[k]

    for rec in records:
        t = rec.get("t")
        if t == "job_start":
            tr = trail(rec)
            tr.attempts.append((rec, None))
            tr.start = rec
            tr.end = None  # a retry's start supersedes the prior end
            tr.key = rec.get("key", tr.key)
            tr.kind = rec.get("kind", tr.kind)
        elif t == "job_end":
            tr = trail(rec)
            tr.end = rec
            if tr.attempts and tr.attempts[-1][1] is None:
                tr.attempts[-1] = (tr.attempts[-1][0], rec)
            else:
                tr.attempts.append((None, rec))
        elif t == "span":
            trail(rec).spans.append(rec)
        elif t == "outcome":
            tr = trail(rec)
            tr.outcome = rec
            tr.key = rec.get("key", tr.key)
            tr.kind = rec.get("kind", tr.kind)
    return trails


def _dominant_phase(trail: _JobTrail) -> tuple[str, float]:
    """(phase name, seconds) of the job's longest recorded phase: its own
    spans plus the replay-task seconds the parent attributed to it."""
    best, best_s = "simulate", 0.0
    totals: dict[str, float] = {}
    replay_s = float((trail.outcome or {}).get("replay_s") or 0.0)
    if replay_s:
        totals["replay"] = replay_s
    for sp in trail.spans:
        name = sp.get("name", "?")
        args = sp.get("args") or {}
        if name == "replay" and args.get("chased"):
            continue  # what of it the job waited for is in its replay_s
        if name == "replay" and args.get("cached"):
            name = "replay(cached)"
        totals[name] = totals.get(name, 0.0) + float(sp.get("dur", 0.0))
    for name, total in totals.items():
        if total > best_s:
            best, best_s = name, total
    return best, best_s


@dataclass
class SweepStats:
    """Aggregated roll-up of one bus directory (possibly several sweeps).

    ``latency`` percentiles cover *completed* jobs only; crashed jobs —
    a ``job_start`` (or parent ``outcome``) with no ``job_end`` — are
    counted in ``failed``/``incomplete`` and attributed in ``failures``.
    A job's latency is the parent's settled ``duration_s`` — its shared
    run plus the replay-task seconds attributed to it — so latencies sum
    to busy time although replays run outside the jobs.  Replay tasks
    count toward ``busy_s``/``cpu_s``/``phases``/``workers`` load only;
    so do the waits for chased replays (their spans' ``tail_s``), which an
    inline sweep spends between job attempts.
    ``alone_replays`` says how the sweep's alone clocks were obtained:
    ``requested`` by (job, app) pairs, of which ``cached`` came from the
    replay cache, the rest from ``simulated`` trajectories — ``extended``
    of those re-simulated because a count had passed the end of the curve
    the cache held for them, and ``overlapped`` (present when any were) of
    them simulated by a helper process alongside the shared runs that
    asked, off the critical path (their seconds count in ``phases``; only
    what was waited for them counts in ``busy_s``).
    ``cache["est_saved_s"]`` is the hit count times the mean simulated
    seconds per request, minus what the hits cost — the honest economics
    of the alone-replay cache.
    """

    n_jobs: int = 0
    ok: int = 0
    failed: int = 0
    incomplete: int = 0  #: started (or settled) but never wrote job_end
    resumed: int = 0
    wall_s: float = 0.0
    busy_s: float = 0.0
    cpu_s: float = 0.0
    parallel_efficiency: float = 0.0
    latency: dict[str, float] = field(default_factory=dict)
    phases: dict[str, dict[str, float]] = field(default_factory=dict)
    cache: dict[str, float] = field(default_factory=dict)
    alone_replays: dict[str, int] = field(default_factory=dict)
    workers: dict[str, dict[str, float]] = field(default_factory=dict)
    stragglers: list[dict] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)

    @classmethod
    def from_records(cls, records: Iterable[dict]) -> "SweepStats":
        """Aggregate raw bus records (see :func:`read_bus`)."""
        stats = cls()
        trails = _collate(records)
        durations: list[float] = []
        completed: list[_JobTrail] = []
        ts_lo: float | None = None
        ts_hi = 0.0
        for rec in records:
            ts = rec.get("ts")
            if isinstance(ts, (int, float)):
                ts_lo = ts if ts_lo is None else min(ts_lo, ts)
                ts_hi = max(ts_hi, ts)

        simulated_s = cached_s = 0.0
        replays = {"requested": 0, "simulated": 0, "extended": 0,
                   "cached": 0}
        for trail in trails.values():
            is_job = trail.kind != "replay"
            out = trail.outcome or {}
            end = trail.end
            if is_job:
                stats.n_jobs += 1
                ok = out.get("ok", end.get("ok") if end else None)
                if out.get("resumed"):
                    stats.resumed += 1
                if ok:
                    stats.ok += 1
                else:
                    stats.failed += 1
                    stats.failures.append({
                        "job": trail.job,
                        "key": trail.key,
                        "kind": out.get("failure_kind")
                        or (end or {}).get("failure_kind")
                        or ("crash" if trail.start and not end
                            else "exception"),
                        "attempts": out.get("attempts", len(trail.attempts)),
                    })
                if trail.start is not None and end is None:
                    stats.incomplete += 1
                # The settled counters include what replay tasks stored on
                # the job's behalf; the worker's own are the fallback.
                cache = out.get("cache") or (end or {}).get("cache")
                if cache:
                    for k in ("hits", "misses", "stores"):
                        stats.cache[k] = (
                            stats.cache.get(k, 0) + cache.get(k, 0)
                        )
            if end is not None:
                dur = float(end.get("dur", 0.0))
                stats.busy_s += dur
                stats.cpu_s += float(end.get("cpu_s", 0.0))
                w = stats.workers.setdefault(
                    _worker(end),
                    {"jobs": 0, "busy_s": 0.0, "cpu_s": 0.0,
                     "rss_peak_kb": 0},
                )
                w["busy_s"] += dur
                w["cpu_s"] += float(end.get("cpu_s", 0.0))
                w["rss_peak_kb"] = max(
                    w["rss_peak_kb"], end.get("rss_peak_kb", 0))
                if is_job:
                    w["jobs"] += 1
                    durations.append(float(out.get("duration_s") or dur))
                    completed.append(trail)
            for sp in trail.spans:
                name = sp.get("name", "?")
                dur = float(sp.get("dur", 0.0))
                ph = stats.phases.setdefault(
                    name, {"count": 0, "total_s": 0.0})
                ph["count"] += 1
                ph["total_s"] += dur
                if name == "replay":
                    args = sp.get("args") or {}
                    if args.get("cached"):
                        replays["cached"] += 1
                        replays["requested"] += 1
                        cached_s += dur
                    else:
                        replays["simulated"] += 1
                        replays["extended"] += "extended_from" in args
                        replays["requested"] += int(args.get("requests", 1))
                        simulated_s += dur
                        if args.get("chased") and not args.get("fallback"):
                            replays["overlapped"] = (
                                replays.get("overlapped", 0) + 1)
                        if args.get("chased"):
                            # Waited for between attempts, not inside one.
                            tail = float(args.get("tail_s", 0.0))
                            stats.busy_s += tail
                            w = stats.workers.get(_worker(sp))
                            if w is not None:
                                w["busy_s"] += tail
        if replays["requested"]:
            stats.alone_replays = replays

        if durations:
            stats.latency = {
                "p50": percentile(durations, 0.50),
                "p95": percentile(durations, 0.95),
                "p99": percentile(durations, 0.99),
                "mean": sum(durations) / len(durations),
                "max": max(durations),
            }
            p50 = stats.latency["p50"]
            for trail, dur in zip(completed, durations):
                if p50 > 0 and dur > 2.0 * p50:
                    phase, phase_s = _dominant_phase(trail)
                    stats.stragglers.append({
                        "job": trail.job,
                        "key": trail.key,
                        "dur_s": dur,
                        "ratio": dur / p50,
                        "dominant_phase": phase,
                        "phase_s": phase_s,
                    })
            stats.stragglers.sort(key=lambda s: -s["dur_s"])
        if stats.cache:
            probes = stats.cache.get("hits", 0) + stats.cache.get("misses", 0)
            stats.cache["hit_rate"] = (
                stats.cache.get("hits", 0) / probes if probes else 0.0
            )
            served = replays["requested"] - replays["cached"]
            stats.cache["est_saved_s"] = (
                stats.cache.get("hits", 0)
                * (simulated_s / served if served else 0.0)
                - cached_s
            )
        if ts_lo is not None:
            stats.wall_s = max(0.0, ts_hi - ts_lo)
        n_workers = len(stats.workers)
        if stats.wall_s > 0 and n_workers:
            stats.parallel_efficiency = min(
                1.0, stats.busy_s / (stats.wall_s * n_workers))
        return stats

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe ``sweep.json`` payload (schema :data:`SWEEP_SCHEMA`)."""
        return {
            "schema": SWEEP_SCHEMA,
            "n_jobs": self.n_jobs,
            "ok": self.ok,
            "failed": self.failed,
            "incomplete": self.incomplete,
            "resumed": self.resumed,
            "wall_s": self.wall_s,
            "busy_s": self.busy_s,
            "cpu_s": self.cpu_s,
            "parallel_efficiency": self.parallel_efficiency,
            "latency": dict(self.latency),
            "phases": {k: dict(v) for k, v in sorted(self.phases.items())},
            "cache": dict(self.cache),
            "alone_replays": dict(self.alone_replays),
            "workers": {
                k: dict(v) for k, v in sorted(self.workers.items())
            },
            "stragglers": list(self.stragglers),
            "failures": list(self.failures),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SweepStats":
        stats = cls()
        for name in ("n_jobs", "ok", "failed", "incomplete", "resumed",
                     "wall_s", "busy_s", "cpu_s", "parallel_efficiency"):
            setattr(stats, name, d.get(name, getattr(stats, name)))
        stats.latency = dict(d.get("latency", {}))
        stats.phases = {k: dict(v) for k, v in d.get("phases", {}).items()}
        stats.cache = dict(d.get("cache", {}))
        stats.alone_replays = dict(d.get("alone_replays", {}))
        stats.workers = {k: dict(v) for k, v in d.get("workers", {}).items()}
        stats.stragglers = list(d.get("stragglers", []))
        stats.failures = list(d.get("failures", []))
        return stats

    def comparable(self) -> dict[str, Any]:
        """The wall-clock-free projection: identical between an inline
        and a pooled execution of the same job list (the determinism
        contract ``tests/test_bus.py`` enforces)."""
        return {
            "n_jobs": self.n_jobs,
            "ok": self.ok,
            "failed": self.failed,
            "cache": {
                k: self.cache.get(k, 0)
                for k in ("hits", "misses", "stores")
            },
            # How many overlapped is the execution's choice, like the pool.
            "alone_replays": {
                k: v for k, v in self.alone_replays.items()
                if k != "overlapped"
            },
            "phases": {
                k: int(v.get("count", 0))
                for k, v in sorted(self.phases.items())
                # dequeue/serialize only exist when a pool is involved.
                if k in ("simulate", "replay")
            },
        }


# --------------------------------------------------------------------------
# Sweep-level Chrome trace
# --------------------------------------------------------------------------


def _worker(rec: dict) -> str:
    """Which worker wrote a job record: its sweep slot — a pooled sweep
    forks a process per attempt — or, for records without one (inline
    sweeps, older bus files), its pid."""
    return f"slot {rec['slot']}" if "slot" in rec else str(rec.get("pid", "?"))


def sweep_chrome_trace(records: Iterable[dict]) -> dict[str, Any]:
    """Chrome ``trace_event`` payload: one process per worker (slot, or
    pid where there is none), one slice per job attempt (tid 0) with its
    phase spans on tid 1.

    A job whose worker died mid-run (``job_start`` with no ``job_end``)
    still gets a slice: its duration comes from the parent's ``outcome``
    record when one exists (else the last timestamp seen on the bus),
    and its args carry the attributed failure kind — the partial-trace
    contract for crashed sweeps.
    """
    records = list(records)
    trails = _collate(records)
    ts_values = [
        r["ts"] for r in records if isinstance(r.get("ts"), (int, float))
    ]
    t0 = min(ts_values) if ts_values else 0.0
    t_hi = max(ts_values) if ts_values else 0.0

    def us(ts: float) -> float:
        return max(0.0, (ts - t0) * 1e6)

    workers = sorted({
        _worker(r) for r in records
        if r.get("t") in ("job_start", "job_end", "span")
        and (isinstance(r.get("pid"), int) or "slot" in r)
    })
    index = {worker: i for i, worker in enumerate(workers)}

    events: list[dict[str, Any]] = []
    for trail in sorted(trails.values(), key=lambda t: (t.sweep, t.job)):
        out = trail.outcome or {}
        for start, end in (trail.attempts or [(trail.start, trail.end)]):
            anchor = start or end
            if anchor is None:
                continue
            pid = index.get(_worker(anchor), 0)
            if start is not None and end is not None:
                ts, dur = start["ts"], float(end.get("dur", 0.0))
                ok = bool(end.get("ok"))
                args: dict[str, Any] = {
                    "job": trail.job, "sweep": trail.sweep, "ok": ok,
                    "attempt": start.get("attempt", 1),
                }
                if end.get("cache"):
                    args["cache"] = end["cache"]
                name = trail.key if ok else f"{trail.key} (failed)"
            elif start is not None:
                # Crashed or timed-out attempt: synthesize the slice.
                ts = start["ts"]
                dur = float(out.get("duration_s") or 0.0)
                if dur <= 0.0:
                    dur = max(0.0, t_hi - ts)
                kind = out.get("failure_kind") or "crash"
                args = {
                    "job": trail.job, "sweep": trail.sweep, "ok": False,
                    "attempt": start.get("attempt", 1), "failure": kind,
                }
                name = f"{trail.key} ({kind})"
            else:
                continue
            events.append({
                "name": name, "ph": "X", "ts": us(ts),
                "dur": dur * 1e6, "pid": pid, "tid": 0, "args": args,
            })
        for sp in trail.spans:
            pid = index.get(_worker(sp), 0)
            dur = float(sp.get("dur", 0.0))
            args = {"job": trail.job, **(sp.get("args") or {})}
            events.append({
                "name": sp.get("name", "?"), "ph": "X",
                "ts": us(float(sp.get("ts", t0)) - dur),
                "dur": dur * 1e6, "pid": pid, "tid": 1, "args": args,
            })
        if trail.start is not None and trail.end is None:
            pid = index.get(_worker(trail.start), 0)
            events.append({
                "name": "worker lost", "ph": "i",
                "ts": us(trail.start["ts"]), "pid": pid, "tid": 0,
                "args": {"job": trail.job, "key": trail.key},
            })
    events.sort(key=lambda ev: ev["ts"])

    meta: list[dict[str, Any]] = []
    for worker, idx in index.items():
        label = worker if worker.startswith("slot") else f"pid {worker}"
        meta.append({
            "name": "process_name", "ph": "M", "ts": 0.0,
            "pid": idx, "tid": 0,
            "args": {"name": f"worker {idx} ({label})"},
        })
        meta.append({
            "name": "thread_name", "ph": "M", "ts": 0.0,
            "pid": idx, "tid": 0, "args": {"name": "jobs"},
        })
        meta.append({
            "name": "thread_name", "ph": "M", "ts": 0.0,
            "pid": idx, "tid": 1, "args": {"name": "phases"},
        })
    sweeps = sorted({t.sweep for t in trails.values()})
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs.bus",
            "schema": BUS_SCHEMA,
            "clock": "wall time (1 us = 1 us)",
            "sweeps": sweeps,
            "n_jobs": len(trails),
            "n_workers": len(workers),
        },
    }


def validate_sweep_trace(payload: Any) -> None:
    """Structural validation of a sweep Chrome trace; raises ValueError
    on the first malformation (CI loads the emitted file through this).
    """
    if not isinstance(payload, dict) or not isinstance(
        payload.get("traceEvents"), list
    ):
        raise ValueError("payload is not a {'traceEvents': [...]} object")
    seen_pids: set[int] = set()
    named_pids: set[int] = set()
    for n, ev in enumerate(payload["traceEvents"]):
        where = f"traceEvents[{n}]"
        if not isinstance(ev, dict):
            raise ValueError(f"{where} is not an object")
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            raise ValueError(f"{where} has no name")
        ph = ev.get("ph")
        if ph not in CHROME_PHASES:
            raise ValueError(f"{where} has illegal phase {ph!r}")
        if not isinstance(ev.get("ts"), (int, float)) or ev["ts"] < 0:
            raise ValueError(f"{where} has bad ts {ev.get('ts')!r}")
        if not isinstance(ev.get("pid"), int) or not isinstance(
            ev.get("tid"), int
        ):
            raise ValueError(f"{where} has non-integer pid/tid")
        if ph == "X":
            if not isinstance(ev.get("dur"), (int, float)) or ev["dur"] < 0:
                raise ValueError(f"{where} slice has bad dur")
        if ph == "M" and ev["name"] == "process_name":
            named_pids.add(ev["pid"])
        elif ph != "M":
            seen_pids.add(ev["pid"])
    unnamed = seen_pids - named_pids
    if unnamed:
        raise ValueError(f"pids without process_name metadata: {sorted(unnamed)}")


# --------------------------------------------------------------------------
# Per-job profiling: dump in workers, merge in the parent
# --------------------------------------------------------------------------


def profile_path(
    directory: str | os.PathLike, job: int, attempt: int
) -> pathlib.Path:
    """Where a worker dumps one job attempt's pstats inside the bus dir."""
    return pathlib.Path(directory) / f"prof-job{job}-a{attempt}.pstats"


def merge_profiles(directory: str | os.PathLike):
    """Merge every per-job pstats dump under ``directory`` into one
    :class:`pstats.Stats` (None when there are no dumps).  Corrupt dumps
    (a worker killed mid-write) are skipped, not fatal.
    """
    import pstats

    merged = None
    for path in sorted(pathlib.Path(directory).glob("prof-*.pstats")):
        try:
            if merged is None:
                merged = pstats.Stats(str(path))
            else:
                merged.add(str(path))
        except Exception:  # noqa: BLE001 - torn dump from a dead worker
            continue
    return merged


#: Columns of :func:`profile_table`'s rows.
PROFILE_HEADERS = ("ncalls", "tottime", "cumtime", "function")


def profile_table(stats, limit: int = 15) -> list[list[str]]:
    """Top-``limit`` functions of a merged profile by cumulative time:
    rows under :data:`PROFILE_HEADERS`."""
    rows: list[list[str]] = []
    entries = sorted(
        stats.stats.items(), key=lambda kv: -kv[1][3]  # ct, cumulative
    )
    for (filename, lineno, funcname), (cc, nc, tt, ct, _) in entries[:limit]:
        where = f"{os.path.basename(filename)}:{lineno}({funcname})"
        rows.append([str(nc), f"{tt:.3f}", f"{ct:.3f}", where])
    return rows
