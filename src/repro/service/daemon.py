"""The ``repro serve`` daemon: a local HTTP job API over the harness.

One :class:`ReproService` owns four things, and simulates nothing itself:

* a **job table** of deduplicated jobs (keyed by the protocol fingerprint,
  so two tenants asking the same question subscribe to one simulation);
* the **admission queue** (:class:`~repro.service.queue.AdmissionQueue`)
  deciding which tenant's request runs next;
* its **slots** — one scheduler thread per usable CPU (``jobs=None``, the
  default), or exactly one when ``jobs=N`` says how many processes a
  request may use — each draining the queue into a forked **job process**
  of the request's own (:mod:`repro.forked`), which runs it through the
  hardened :func:`~repro.harness.parallel.run_jobs` harness with the
  process budget fixed at admission: ``jobs=N`` as given; otherwise
  ``run_jobs``' own default (alone replays overlapped with the shared runs
  by helper processes) when another slot is idle, and ``n_jobs=1`` (the
  replays run in the job process itself) when every other slot is busy.
  The telemetry bus and sweep checkpoints live under ``state_dir``, so a
  kill -9'd daemon resumes mid-sweep on restart.  The job process sends
  back progress and, last, its result; the journal, the event streams and
  the results store are written here, by this process only.  A job process
  that dies — crashed, OOM-killed, ``os._exit`` — fails its job with the
  signal or exit code in the error and takes nothing else with it;
* a **journal** (``state_dir/journal.jsonl``) of accepted submissions and
  terminal states, replayed on startup to re-enqueue interrupted work.

Endpoints (all JSON; see docs/service.md for the schema):

=======  =========================  ==========================================
POST     /v1/jobs                   submit {tenant, kind, spec}
GET      /v1/jobs                   list known jobs
GET      /v1/jobs/<id>              status / result
GET      /v1/jobs/<id>/stream       JSONL event stream (``?sse=1`` for SSE)
POST     /v1/jobs/<id>/cancel       cancel a queued job
GET      /v1/scenarios              registered + recorded scenarios
GET      /v1/queue                  queue state, fairness metrics, audit
GET      /v1/report                 SweepStats over the daemon's bus
GET      /v1/healthz                liveness
POST     /v1/shutdown               graceful stop
=======  =========================  ==========================================

Misbehaving clients get one-line JSON errors: malformed JSON and protocol
violations are 400, oversized bodies 413, unknown jobs 404 — the daemon
never dies on a bad request.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro import durable, forked
from repro.service import protocol
from repro.service.queue import AdmissionQueue, QueuedRequest

ENDPOINT_FILE = "endpoint.json"
JOURNAL_FILE = "journal.jsonl"

#: Job lifecycle states.
QUEUED, RUNNING, DONE, FAILED, CANCELLED = (
    "queued", "running", "done", "failed", "cancelled"
)
TERMINAL = (DONE, FAILED, CANCELLED)

#: What a job process that has answered gets to exit by itself.
EXIT_GRACE_S = 5.0


class Job:
    """One deduplicated unit of service work and its event history."""

    def __init__(self, job_id: str, kind: str, spec: dict[str, Any]) -> None:
        self.job_id = job_id
        self.kind = kind
        self.spec = spec
        self.state = QUEUED
        self.tenants: list[str] = []
        self.rids: list[str] = []
        self.events: list[dict[str, Any]] = []
        self.result: Any = None
        self.error: str | None = None
        self.record_id: str | None = None
        self.scenario_id: str | None = None
        self.queue_entry: QueuedRequest | None = None
        self.submitted_t = time.time()
        self.finished_t: float | None = None
        self.simulations = 0  # times this job actually executed

    def subscribe(self, tenant: str, rid: str) -> None:
        if tenant not in self.tenants:
            self.tenants.append(tenant)
        self.rids.append(rid)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": protocol.SCHEMA,
            "job": self.job_id,
            "kind": self.kind,
            "spec": self.spec,
            "status": self.state,
            "tenants": list(self.tenants),
            "subscribers": len(self.rids),
            "simulations": self.simulations,
            "result": self.result,
            "error": self.error,
            "record_id": self.record_id,
            "scenario_id": self.scenario_id,
        }


@dataclasses.dataclass
class _Running:
    """One admitted job's process, while it runs."""

    tenant: str
    slot: int
    pid: int
    conn: Any
    admitted_t: float


class _Progress:
    """run_jobs reporter, job-process side: completions go to the daemon,
    which forwards them as stream events."""

    def __init__(self, conn) -> None:
        self.conn = conn
        self.done = 0

    def job_done(self, outcome) -> None:
        self.done += 1
        self.conn.send(("progress", {
            "done": self.done, "key": outcome.job.key, "ok": outcome.ok,
            "resumed": outcome.resumed,
        }))

    def close(self) -> None:
        pass


def _kill_group(pid: int) -> None:
    """SIGKILL a job process and everything it forked (replay helpers,
    sweep job processes): they share the process group it opened."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # all gone already


class ReproService:
    """The daemon: job table + admission queue + slots + HTTP server."""

    def __init__(
        self,
        state_dir: str | os.PathLike,
        *,
        store_dir: str | None = None,
        cache_dir: str | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: int | None = None,
        policy: str = "fair",
        retries: int = 0,
        allow_chaos: bool = False,
    ) -> None:
        self.state_dir = pathlib.Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.store_dir = store_dir
        self.cache_dir = cache_dir or str(self.state_dir / "cache")
        self.host = host
        self._port = port
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.n_jobs = jobs
        self.retries = retries
        self.allow_chaos = allow_chaos
        #: Jobs served at once.  An explicit ``jobs`` already says how many
        #: processes a request may use, so there is one slot; without it
        #: every usable CPU gets a request of its own.
        self.slots = 1 if jobs is not None else forked.usable_cpus()
        self.queue = AdmissionQueue(policy, servers=self.slots)
        self.jobs: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._stopping = False
        self._server: ThreadingHTTPServer | None = None
        self._slot_threads: list[threading.Thread] = []
        self._running: dict[str, _Running] = {}  # by job id
        # Forks are one at a time: a job process must not inherit the far
        # end of a pipe a sibling is being handed at that moment, or that
        # sibling's death would not read as EOF.
        self._spawn_lock = threading.Lock()
        self._store_lock = threading.Lock()  # the store index has one writer
        self._ckpt_dir = str(self.state_dir / "ckpt")
        self._bus_dir = str(self.state_dir / "bus")
        self._chaos_dir = self.state_dir / "chaos"
        self._journal_path = self.state_dir / JOURNAL_FILE
        for d in (self._ckpt_dir, self._bus_dir, self.cache_dir):
            pathlib.Path(d).mkdir(parents=True, exist_ok=True)
        self._recover()

    # ------------------------------------------------------------- journal

    def _journal(self, record: dict[str, Any]) -> None:
        record = dict(record, ts=time.time())
        with durable.open_log(self._journal_path) as log:
            durable.append(log, json.dumps(record, sort_keys=True), fsync=True)

    def _recover(self) -> None:
        """Replay the journal: re-enqueue interrupted jobs, keep tombstones
        of completed ones (their payloads live in the results store).  Torn
        or damaged lines are skipped and counted in ``journal_skipped``."""
        submits: dict[str, dict] = {}
        terminal: dict[str, dict] = {}
        records, self.journal_skipped = durable.read_log(self._journal_path)
        for rec in records:
            try:
                if rec.get("t") == "submit":
                    job_id, tenant, kind, spec = (
                        rec[k] for k in ("job", "tenant", "kind", "spec"))
                    submits.setdefault(
                        job_id, {"kind": kind, "spec": spec, "tenants": []}
                    )["tenants"].append(tenant)
                elif rec.get("t") == "terminal":
                    terminal[rec["job"]] = rec
            except (KeyError, TypeError):
                self.journal_skipped += 1
        for job_id, entry in submits.items():
            job = Job(job_id, entry["kind"], entry["spec"])
            fin = terminal.get(job_id)
            if fin is not None:
                job.state = fin.get("state", DONE)
                job.error = fin.get("error")  # absent in older journals
                job.record_id = fin.get("record_id")
                job.scenario_id = fin.get("scenario_id")
                job.tenants = entry["tenants"]
                job.events.append(protocol.event(
                    "done" if job.state == DONE else job.state,
                    job=job_id, recovered=True, error=job.error,
                    record_id=job.record_id,
                ))
                self.jobs[job_id] = job
                continue
            # Interrupted: re-enqueue under the first tenant; the sweep
            # checkpoint under state_dir restores finished sub-jobs.
            self.jobs[job_id] = job
            for tenant in entry["tenants"]:
                req = self.queue.submit(tenant, job_id)
                job.subscribe(tenant, req.rid)
                if job.queue_entry is None:
                    job.queue_entry = req
            job.events.append(protocol.event(
                "queued", job=job_id, recovered=True,
                tenants=list(job.tenants),
            ))

    # ----------------------------------------------------------- lifecycle

    @property
    def port(self) -> int:
        assert self._server is not None, "service not started"
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> str:
        """Bind the server, start the slots, write the endpoint file."""
        # What a job process runs, imported once, here: a fork inherits it.
        import repro.faults.chaos  # noqa: F401
        import repro.harness.figures  # noqa: F401
        import repro.store  # noqa: F401

        handler = _make_handler(self)
        self._server = ThreadingHTTPServer((self.host, self._port), handler)
        self._server.daemon_threads = True
        for slot in range(self.slots):
            thread = threading.Thread(
                target=self._slot_loop, args=(slot,),
                name=f"repro-serve-slot-{slot}", daemon=True,
            )
            thread.start()
            self._slot_threads.append(thread)
        endpoint = {
            "schema": protocol.SCHEMA,
            "host": self.host,
            "port": self.port,
            "url": self.url,
            "pid": os.getpid(),
        }
        text = json.dumps(endpoint, indent=1, sort_keys=True) + "\n"
        durable.replace_text(self.state_dir / ENDPOINT_FILE, text)
        return self.url

    def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        try:
            self._server.serve_forever(poll_interval=0.2)
        finally:
            self.stop()

    def stop(self) -> None:
        """Stop serving and reap: when this returns every job process group
        is dead and joined and every slot thread has ended.  A job cut short
        here gets no terminal journal record, so the next start re-enqueues
        it — as after a kill -9 of the daemon.  Idempotent."""
        with self._cond:
            self._stopping = True
            for running in self._running.values():
                _kill_group(running.pid)
            self._cond.notify_all()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        for thread in self._slot_threads:
            thread.join()

    # ---------------------------------------------------------- submission

    def submit(self, request: protocol.JobRequest) -> dict[str, Any]:
        """Admit (or dedup) one validated request; returns the receipt."""
        job_id = request.job_id
        with self._cond:
            job = self.jobs.get(job_id)
            fresh = job is None or job.state in (FAILED, CANCELLED)
            if fresh:
                job = Job(job_id, request.kind, request.spec)
                self.jobs[job_id] = job
            req = None
            if fresh:
                req = self.queue.submit(request.tenant, job_id)
                job.queue_entry = req
            rid = req.rid if req is not None else f"sub{len(job.rids) + 1}"
            job.subscribe(request.tenant, rid)
            self._journal({
                "t": "submit", "job": job_id, "tenant": request.tenant,
                "kind": request.kind, "spec": request.spec, "rid": rid,
            })
            self._emit(job, protocol.event(
                "queued", job=job_id, tenant=request.tenant,
                deduped=not fresh, status=job.state,
            ))
            if fresh:
                self._cond.notify_all()
            return {
                "schema": protocol.SCHEMA,
                "job": job_id,
                "status": job.state,
                "deduped": not fresh,
                "tenant": request.tenant,
            }

    def cancel(self, job_id: str) -> dict[str, Any]:
        with self._cond:
            job = self.jobs.get(job_id)
            if job is None:
                raise KeyError(job_id)
            if job.state == QUEUED and job.queue_entry is not None:
                removed = self.queue.cancel(job.queue_entry.rid)
                if removed is not None:
                    job.state = CANCELLED
                    job.finished_t = time.time()
                    self._journal({
                        "t": "terminal", "job": job_id, "state": CANCELLED,
                    })
                    self._emit(job, protocol.event("cancelled", job=job_id))
                    self._cond.notify_all()
            return {
                "schema": protocol.SCHEMA,
                "job": job_id,
                "status": job.state,
                "cancelled": job.state == CANCELLED,
            }

    def _emit(self, job: Job, event: dict[str, Any]) -> None:
        """Append one stream event (caller holds the lock)."""
        job.events.append(event)
        self._cond.notify_all()

    # --------------------------------------------------------------- slots

    def _slot_loop(self, slot: int) -> None:
        while True:
            with self._cond:
                while not self._stopping and len(self.queue) == 0:
                    self._cond.wait(timeout=0.5)
                if self._stopping:
                    return
                entry = self.queue.next()
                if entry is None:  # racing cancel emptied the queue
                    continue
                # Helpers only on an idle CPU: a request admitted while every
                # other slot is busy replays its alone runs itself.
                n_jobs = self.n_jobs
                if n_jobs is None and self.queue.running >= self.slots:
                    n_jobs = 1
                job = self.jobs[entry.job_id]
                job.state = RUNNING
                self._emit(job, protocol.event(
                    "admitted", job=job.job_id, tenant=entry.tenant,
                    slot=slot,
                    waited_s=round(entry.wait_s(entry.start_t or 0.0), 4),
                ))
                self._emit(job, protocol.event("started", job=job.job_id))
            try:
                settled = self._execute(job, entry.tenant, slot, n_jobs)
                if settled is None:
                    return  # stop() cut it short: the next start re-runs it
                job.result, error = settled
            except Exception as exc:  # noqa: BLE001 - fail the job, not the daemon
                error = f"{type(exc).__name__}: {exc}"
            with self._cond:
                self.queue.complete(entry)
                if error is None:
                    job.state = DONE
                else:
                    job.state = FAILED
                    job.error = error
                job.finished_t = time.time()
                self._journal({
                    "t": "terminal", "job": job.job_id, "state": job.state,
                    "error": error, "record_id": job.record_id,
                    "scenario_id": job.scenario_id,
                })
                self._emit(job, protocol.event(
                    "done" if error is None else "failed",
                    job=job.job_id, error=error, record_id=job.record_id,
                ))
            if error is not None:
                last = (error.strip().splitlines() or [""])[-1]
                print(f"repro serve: job {job.job_id[:12]} failed: {last}",
                      file=sys.stderr, flush=True)

    def _execute(self, job: Job, tenant: str, slot: int, n_jobs: int | None):
        """Run ``job`` in a job process of its own with process budget
        ``n_jobs`` (``run_jobs``'), forwarding its progress as stream
        events; returns ``(result, error)`` — or None when
        :meth:`stop` killed it.  A process that dies without answering, or
        answers what will not load, is an error saying so."""
        job.simulations += 1
        with self._spawn_lock:
            proc, conn = forked.spawn(self._job_main, job, n_jobs,
                                      daemon=False)
            pid = proc.pid
            try:
                os.setpgid(pid, pid)  # the child does too; whoever is first
            except OSError:
                pass  # it already has, or is already gone
            with self._cond:
                self._running[job.job_id] = _Running(
                    tenant, slot, pid, conn, time.monotonic())
                if self._stopping:
                    _kill_group(pid)  # stop() came before it was listed
        answer = lost = None
        try:
            answer = self._relay(job, proc, conn)
        except forked.Lost as exc:
            lost = exc
        with self._cond:
            del self._running[job.job_id]
            stopping = self._stopping
        if lost is None or not lost.died:
            proc.join(EXIT_GRACE_S)  # nothing left for it to do but exit
        _kill_group(pid)  # whatever it forked goes with it
        forked.reap(proc, conn)
        if lost is not None:
            if stopping and lost.died:
                return None
            return None, f"job process {lost}"
        result, run, error = answer
        if run is not None and self.store_dir is not None:
            from repro.harness.figures import record_figure

            with self._store_lock:
                rec, spec = record_figure(self.store_dir, run)
            job.record_id = result["record_id"] = rec.record_id
            job.scenario_id = result["scenario_id"] = spec.scenario_id()
        return result, error

    def _relay(self, job: Job, proc, conn):
        """Forward the job process's progress messages until it answers
        (returns the answer); :class:`repro.forked.Lost` when it cannot."""
        while True:
            message = forked.hear(proc, conn)
            if message is None:
                continue
            kind, *body = message
            if kind == "answer":
                return body
            with self._cond:
                self._emit(job, protocol.event(
                    "progress", job=job.job_id, **body[0]))

    # --------------------------------------------- inside the job process

    def _job_main(self, conn, job: Job, n_jobs: int | None) -> None:
        """The job process: run ``job`` down the same path a direct caller
        takes, with ``n_jobs`` as its ``run_jobs`` budget, and answer
        ``(result, figure run to record, error)``.  It
        holds a fork-time copy of the daemon and uses none of it that is
        shared — not the lock, the journal, the job table or the store's
        index; what those need travels back over ``conn``."""
        os.setpgid(0, 0)  # one group: reaped together with what we fork
        self._server.socket.close()  # the daemon's port is the daemon's
        for other in self._running.values():
            other.conn.close()  # a sibling's pipe is not ours to hold open
        run = error = None
        try:
            if job.kind in ("workload", "sweep"):
                job.result = self._run_workloads(job, conn, n_jobs)
            elif job.kind == "scenario":
                job.result, run = self._run_scenario(job, conn, n_jobs)
            else:
                job.result = self._run_chaos(job, conn, n_jobs)
        except Exception as exc:  # noqa: BLE001 - the job's failure, reported
            error = f"{type(exc).__name__}: {exc}"
        try:
            conn.send(("answer", job.result, run, error))
        except OSError:
            pass  # the daemon is gone, and with it the point of answering

    def _outcome_dict(self, outcome) -> dict[str, Any]:
        res = outcome.result
        return {
            "key": outcome.job.key,
            "ok": outcome.ok,
            "attempts": outcome.attempts,
            "resumed": outcome.resumed,
            "failure_kind": outcome.failure_kind,
            "error": (outcome.error or "").strip().splitlines()[-1:] or None,
            "result": res.to_dict() if hasattr(res, "to_dict") else res,
        }

    def _run_workloads(
        self, job: Job, conn, n_jobs: int | None,
    ) -> dict[str, Any]:
        from repro.harness import scaled_config
        from repro.harness.parallel import WorkloadJob, run_jobs

        spec = job.spec
        workloads = (
            [spec["apps"]] if job.kind == "workload" else spec["workloads"]
        )
        seed = spec.get("seed")
        cfg = scaled_config(seed=seed) if seed is not None else None
        wjobs = [
            WorkloadJob(
                apps=tuple(apps), config=cfg,
                shared_cycles=spec.get("cycles"),
                policy=spec.get("policy"), cache_dir=self.cache_dir,
            )
            for apps in workloads
        ]
        outcomes = run_jobs(
            wjobs, n_jobs=n_jobs, progress=_Progress(conn),
            retries=self.retries, checkpoint=self._ckpt_dir,
            bus=self._bus_dir,
        )
        out: dict[str, Any] = {
            "kind": job.kind,
            "outcomes": [self._outcome_dict(o) for o in outcomes],
            "ok": sum(1 for o in outcomes if o.ok),
            "failed": sum(1 for o in outcomes if not o.ok),
        }
        if job.kind == "workload" and outcomes and outcomes[0].ok:
            out["result"] = out["outcomes"][0]["result"]
        if out["failed"]:
            # Keep the partial outcomes visible to subscribers, then fail.
            job.result = out
            raise RuntimeError(
                f"{out['failed']}/{len(outcomes)} workload jobs failed"
            )
        return out

    def _run_scenario(self, job: Job, conn, n_jobs: int | None):
        """``(result, figure run)``: recording the run is the daemon's."""
        from repro.harness.figures import run_figure
        from repro.harness.parallel import (
            set_default_progress,
            set_sweep_defaults,
        )

        resolved = self.resolve_scenario(job.spec)
        params = resolved.get("params") or {}
        # The figure drivers run their own sweeps; route them through the
        # daemon's checkpoint + bus dirs via the ambient sweep defaults
        # (this process's own, and it runs nothing after this job) — the
        # same pattern `repro fig*` uses for --resume-dir/--sweep-trace.
        set_default_progress(lambda total: _Progress(conn))
        set_sweep_defaults(
            retries=self.retries, checkpoint_dir=self._ckpt_dir,
            bus_dir=self._bus_dir,
        )
        run = run_figure(
            resolved["name"], seed=resolved.get("seed"),
            jobs=n_jobs, cache_dir=self.cache_dir, **params,
        )
        out: dict[str, Any] = {
            "kind": "scenario",
            "figure": run.name,
            "payload": run.payload,
        }
        # The live result object stays here: the record is made of the rest.
        return out, dataclasses.replace(run, result=None)

    def _run_chaos(
        self, job: Job, conn, n_jobs: int | None,
    ) -> dict[str, Any]:
        from repro.faults.chaos import ChaosJob
        from repro.harness.parallel import run_jobs

        self._chaos_dir.mkdir(parents=True, exist_ok=True)
        spec = job.spec
        # Modes that kill or corrupt their own process (os._exit, poisoned
        # pickles) are charged to their own sub-job only where run_jobs
        # forks one process per attempt (min(n_jobs, len(jobs)) >= 2);
        # inline they take this job process down, or poison its answer,
        # and the daemon settles the whole job as failed, saying how.
        cjobs = [
            ChaosJob(
                name=f"{job.job_id[:12]}-{i}", mode=entry["mode"],
                payload=entry["payload"],
                state_dir=str(self._chaos_dir),
                flaky_failures=entry["flaky_failures"],
            )
            for i, entry in enumerate(spec["jobs"])
        ]
        outcomes = run_jobs(
            cjobs, n_jobs=n_jobs, progress=_Progress(conn),
            retries=spec["retries"], bus=self._bus_dir,
        )
        out = {
            "kind": "chaos",
            "outcomes": [self._outcome_dict(o) for o in outcomes],
            "ok": sum(1 for o in outcomes if o.ok),
            "failed": sum(1 for o in outcomes if not o.ok),
        }
        if out["failed"]:
            # Same contract as workloads: partial outcomes stay visible to
            # subscribers, the job itself settles as failed.
            job.result = out
            raise RuntimeError(
                f"{out['failed']}/{len(outcomes)} chaos jobs failed"
            )
        return out

    # ------------------------------------------------------------ catalogs

    def _store(self):
        from repro.store import ResultStore

        return ResultStore(self.store_dir) if self.store_dir else None

    def scenario_catalog(self) -> list[dict[str, Any]]:
        """Registered scenario builders (default-parameter ids) plus every
        scenario already recorded in the daemon's store."""
        from repro.store import SCENARIOS, scenario_for

        rows: dict[str, dict[str, Any]] = {}
        for name in sorted(SCENARIOS):
            sid = scenario_for(name).scenario_id()
            rows[sid] = {
                "name": name, "scenario_id": sid, "source": "registry",
                "records": 0,
            }
        store = self._store()
        if store is not None:
            for row in store.scenarios():
                sid = row["scenario_id"]
                entry = rows.setdefault(sid, {
                    "name": row["scenario_name"], "scenario_id": sid,
                    "source": "store", "records": 0,
                })
                entry["records"] = row["records"]
        return sorted(rows.values(), key=lambda r: (r["name"],
                                                    r["scenario_id"]))

    def resolve_scenario(self, spec: dict[str, Any]) -> dict[str, Any]:
        """Resolve a scenario spec (by name or by id prefix) to run_figure
        kwargs.  Ids cover registry defaults and store-recorded scenarios
        whose spec is reproducible from (name, seed) alone."""
        from repro.store import SCENARIOS, scenario_for

        if spec.get("name"):
            return {k: spec.get(k) for k in ("name", "seed", "params")}
        target = spec["id"]
        candidates: dict[str, dict[str, Any]] = {}
        for name in sorted(SCENARIOS):
            sid = scenario_for(name).scenario_id()
            candidates[sid] = {"name": name, "seed": None, "params": {}}
        store = self._store()
        if store is not None:
            for row in store.scenarios():
                sid = row["scenario_id"]
                if sid in candidates:
                    continue
                rec = store.load(f"{row['scenario_name']}@-1")
                sc = rec.scenario
                seeds = list(sc.get("seeds") or ())
                kwargs = {
                    "name": sc.get("name"),
                    "seed": seeds[0] if len(seeds) == 1 else None,
                    "params": {},
                }
                try:
                    rebuilt = scenario_for(
                        kwargs["name"], seed=kwargs["seed"],
                    ).scenario_id()
                except ValueError:
                    continue
                if rebuilt == sid:  # reproducible from defaults
                    candidates[sid] = kwargs
        matches = sorted(
            sid for sid in candidates if sid.startswith(target)
        )
        if not matches:
            raise ValueError(
                f"no servable scenario matches id {target!r} "
                "(see GET /v1/scenarios)"
            )
        if len(matches) > 1:
            raise ValueError(
                f"scenario id {target!r} is ambiguous: "
                f"{', '.join(m[:12] for m in matches)}"
            )
        resolved = dict(candidates[matches[0]])
        if spec.get("seed") is not None:
            resolved["seed"] = spec["seed"]
        if spec.get("params"):
            resolved["params"] = spec["params"]
        return resolved

    def report(self) -> dict[str, Any]:
        """SweepStats over everything the daemon's bus has seen."""
        from repro.obs.bus import SweepStats, read_bus

        records = read_bus(self._bus_dir)
        return SweepStats.from_records(records).to_dict()

    def running(self) -> list[dict[str, Any]]:
        """The jobs in a slot right now (caller holds the lock)."""
        now = time.monotonic()
        return [
            {"job": job_id, "tenant": r.tenant, "slot": r.slot,
             "running_s": round(now - r.admitted_t, 3)}
            for job_id, r in self._running.items()
        ]

    def health(self) -> dict[str, Any]:
        with self._lock:
            running = self.running()
        return {
            "schema": protocol.SCHEMA,
            "ok": True,
            "pid": os.getpid(),
            "jobs": len(self.jobs),
            "pending": len(self.queue),
            "slots": self.slots,
            "running": running,
            "policy": self.queue.policy,
            "store": self.store_dir,
        }


# --------------------------------------------------------------- HTTP layer


def _make_handler(service: ReproService):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-serve/1"

        # ------------------------------------------------------- plumbing
        def log_message(self, fmt, *args):  # noqa: N802 - stdlib name
            pass  # the daemon's own streams are the observable surface

        def _json(self, status: int, payload: dict[str, Any]) -> None:
            body = json.dumps(payload, indent=1, sort_keys=True).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _error(self, status: int, message: str) -> None:
            self._json(status, {"schema": protocol.SCHEMA, "error": message})

        def _body(self) -> Any:
            length = int(self.headers.get("Content-Length") or 0)
            if length > protocol.MAX_BODY_BYTES:
                raise _HttpError(413, "request body too large")
            raw = self.rfile.read(length) if length else b""
            if not raw:
                raise _HttpError(400, "empty request body")
            try:
                return json.loads(raw)
            except json.JSONDecodeError as exc:
                raise _HttpError(400, f"bad JSON: {exc}")

        # --------------------------------------------------------- routes
        def do_GET(self) -> None:  # noqa: N802 - stdlib name
            try:
                path = self.path.split("?", 1)[0].rstrip("/")
                if path == "/v1/healthz":
                    self._json(200, service.health())
                elif path == "/v1/scenarios":
                    self._json(200, {
                        "schema": protocol.SCHEMA,
                        "scenarios": service.scenario_catalog(),
                    })
                elif path == "/v1/queue":
                    with service._lock:
                        snap = service.queue.snapshot()
                        snap["slots"] = service.slots
                        snap["running"] = service.running()
                    self._json(200, snap)
                elif path == "/v1/report":
                    self._json(200, service.report())
                elif path == "/v1/jobs":
                    with service._lock:
                        rows = [
                            {"job": j.job_id, "kind": j.kind,
                             "status": j.state, "tenants": list(j.tenants)}
                            for j in service.jobs.values()
                        ]
                    self._json(200, {"schema": protocol.SCHEMA, "jobs": rows})
                elif path.startswith("/v1/jobs/"):
                    rest = path[len("/v1/jobs/"):]
                    if rest.endswith("/stream"):
                        self._stream(rest[:-len("/stream")])
                    else:
                        with service._lock:
                            job = service.jobs.get(rest)
                            payload = job.to_dict() if job else None
                        if payload is None:
                            self._error(404, f"unknown job {rest!r}")
                        else:
                            self._json(200, payload)
                else:
                    self._error(404, f"unknown path {path!r}")
            except _HttpError as exc:
                self._error(exc.status, exc.message)
            except (BrokenPipeError, ConnectionResetError):
                pass  # client went away mid-response
            except Exception as exc:  # noqa: BLE001 - never kill the daemon
                try:
                    self._error(500, f"{type(exc).__name__}: {exc}")
                except OSError:
                    pass

        def do_POST(self) -> None:  # noqa: N802 - stdlib name
            try:
                path = self.path.split("?", 1)[0].rstrip("/")
                if path == "/v1/jobs":
                    try:
                        request = protocol.parse_submit(
                            self._body(), allow_chaos=service.allow_chaos
                        )
                    except ValueError as exc:
                        raise _HttpError(400, str(exc))
                    self._json(202, service.submit(request))
                elif path.startswith("/v1/jobs/") and path.endswith("/cancel"):
                    job_id = path[len("/v1/jobs/"):-len("/cancel")]
                    try:
                        self._json(200, service.cancel(job_id))
                    except KeyError:
                        self._error(404, f"unknown job {job_id!r}")
                elif path == "/v1/shutdown":
                    self._json(200, {"schema": protocol.SCHEMA,
                                     "stopping": True})
                    threading.Thread(target=service.stop,
                                     daemon=True).start()
                else:
                    self._error(404, f"unknown path {path!r}")
            except _HttpError as exc:
                self._error(exc.status, exc.message)
            except (BrokenPipeError, ConnectionResetError):
                pass
            except Exception as exc:  # noqa: BLE001
                try:
                    self._error(500, f"{type(exc).__name__}: {exc}")
                except OSError:
                    pass

        # ------------------------------------------------------ streaming
        def _stream(self, job_id: str) -> None:
            sse = "sse=1" in (self.path.split("?", 1) + [""])[1]
            with service._lock:
                job = service.jobs.get(job_id)
            if job is None:
                self._error(404, f"unknown job {job_id!r}")
                return
            self.send_response(200)
            self.send_header(
                "Content-Type",
                "text/event-stream" if sse else "application/x-ndjson",
            )
            self.send_header("Cache-Control", "no-cache")
            self.send_header("Connection", "close")
            self.end_headers()
            sent = 0
            while True:
                with service._cond:
                    if (
                        sent >= len(job.events)
                        and job.state not in TERMINAL
                        and not service._stopping
                    ):
                        service._cond.wait(timeout=0.5)
                    batch = job.events[sent:]
                    sent += len(batch)
                    terminal = job.state in TERMINAL or service._stopping
                if not batch and not terminal:
                    # Heartbeat so a blocked client's read never times out:
                    # a blank NDJSON line / an SSE comment, both ignorable.
                    self.wfile.write(b": ping\n\n" if sse else b"\n")
                    self.wfile.flush()
                    continue
                for event in batch:
                    line = json.dumps(event, sort_keys=True)
                    if sse:
                        self.wfile.write(f"data: {line}\n\n".encode())
                    else:
                        self.wfile.write((line + "\n").encode())
                self.wfile.flush()
                if terminal and sent >= len(job.events):
                    return

    return Handler


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
