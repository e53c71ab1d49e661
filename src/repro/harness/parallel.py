"""Process-pool experiment runner, hardened against misbehaving workers.

Figure sweeps are embarrassingly parallel: each shared run is independent
of every other, and the simulator is deterministic, so a workload produces
the same :class:`WorkloadResult` whether it runs inline, in a worker
process, or is reconstructed from cache.  The alone replays are not
independent, though: every pairing that contains an application replays
the *same* alone trajectory, each to the instruction count its own shared
run ended at.  A sweep therefore runs in **phases** — (1) every job's
shared run, which probes the replay cache and defers only the misses;
(2) one :class:`ReplayJob` per alone trajectory, advanced once through
every count asked of it; (3) as each task lands, the jobs it served get
their alone cycles and slowdowns and settle (checkpoint, progress).  A
sweep whose phase 1 deferred nothing — warm cache, checkpoint-restored
jobs, non-workload jobs — has no phase 2.  This module provides the
fan-out machinery:

* :class:`WorkloadJob` — a picklable description of one run (app names or
  :class:`KernelSpec` objects, config, cycles, partition, models, policy
  name, fault plan, cache directory);
* :func:`run_jobs` — execute jobs across a ``ProcessPoolExecutor`` (or
  inline for ``jobs <= 1``), returning :class:`JobOutcome` objects in
  submission order with per-job failures captured instead of aborting the
  sweep;
* :func:`workload_jobs` / :func:`run_workloads` — the convenience
  wrappers figure drivers use.

Policies cross the process boundary by *name* (see :data:`POLICIES`), not
as live objects, because a policy instance holds simulator state.

Hardening (docs/parallel-harness.md): ``run_jobs`` survives workers that
raise, die without unwinding (``os._exit``, SIGKILL, segfault), hang past
a per-job timeout, or return results whose pickle explodes at the parent.
A ``ProcessPoolExecutor`` whose worker dies hard marks *every* pending
future ``BrokenProcessPool`` and becomes unusable, so the pooled path runs
in **generations**: finished jobs settle permanently, unfinished ones
carry over, and a generation that killed a worker or broke its pool hands
the next one a fresh pool (a clean one keeps its workers, into the replay
phase too).  Breadcrumb files
written by the workers (``job-<i>.started`` / ``job-<i>.done``) let the
parent reconstruct *which* job took the pool down:

* ``started`` + ``done`` but the future broke → result transport failed
  (``result-transport``) — charged only when the job ran isolated, since
  in a shared pool the lost result may be a sibling's fault;
* ``started``, no ``done``, killed by the timeout enforcer → ``timeout``;
* ``started``, no ``done``, pool died with no other explanation → crash
  suspect (``crash``), with the worker's stderr tail attached — every
  concurrently-running job is blamed (the pool cannot say which worker
  died), so give crashy sweeps a retry budget;
* never ``started`` → innocent bystander, requeued without spending an
  attempt.

Crash suspects are then **isolated**: the next generations run each
suspect alone in a single-worker pool, so a further break is attributable
to exactly that job and innocent bystanders of the original break finish
their retry solo instead of being taken down by the real crasher again
and again.

Failed attempts retry up to ``retries`` times with exponential backoff +
jitter.  Replay tasks are ``execute()``-style jobs in the same machinery,
so all of the above holds for them; one that stays failed fails exactly
the jobs waiting on it, with its ``failure_kind``.  ``checkpoint`` (a
directory) makes completed jobs durable so an interrupted sweep resumes
instead of restarting (:class:`repro.harness.checkpoint.SweepCheckpoint`);
a job is complete, and checkpointed, only once its replays are in.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import random
import shutil
import signal
import tempfile
import time
import traceback
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.config import GPUConfig
from repro.forked import usable_cpus
from repro.harness.replay_cache import (
    AloneReplayCache,
    config_fingerprint,
    resolve_cache,
    spec_fingerprint,
)
from repro.obs import bus as obs_bus
from repro.harness.runner import (
    AloneClock,
    Chase,
    ReplayRequest,
    WorkloadResult,
    _resolve,
    alone_budget,
    default_shared_cycles,
    replay_alone,
    run_workload,
    scaled_config,
)
from repro.sim.kernel import KernelSpec

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.faults.plan import FaultPlan
    from repro.harness.checkpoint import SweepCheckpoint
    from repro.opensys.schedule import ArrivalSchedule

#: Policies constructible inside a worker process, by name.  Each factory
#: takes the resolved :class:`GPUConfig` of the run.
POLICIES: dict[str, Callable[[GPUConfig], object]] = {}

#: ``JobOutcome.failure_kind`` values.
FAIL_EXCEPTION = "exception"          # job raised; traceback captured
FAIL_CRASH = "crash"                  # worker died without unwinding
FAIL_TIMEOUT = "timeout"              # killed by the per-job timeout
FAIL_TRANSPORT = "result-transport"   # finished, result unpicklable/lost


def _register_policies() -> None:
    # Imported lazily so constructing a WorkloadJob never pulls in the
    # policy stack; only jobs that actually name a policy pay the import.
    from repro.policies import DASEFairPolicy

    POLICIES.setdefault("dase_fair", DASEFairPolicy)


@dataclass(frozen=True)
class WorkloadJob:
    """One picklable unit of sweep work: the arguments of ``run_workload``.

    ``apps`` may mix suite names and frozen :class:`KernelSpec` objects —
    both pickle cleanly.  ``policy`` is a :data:`POLICIES` key or None.
    ``faults`` optionally distorts the counter stream the estimators see
    (:class:`repro.faults.FaultPlan` — frozen, so it fingerprints and
    pickles like every other field).  ``arrivals`` optionally makes the
    run open-system (:class:`repro.opensys.ArrivalSchedule` — likewise
    frozen, fingerprintable, and picklable).
    """

    apps: tuple[KernelSpec | str, ...]
    config: GPUConfig | None = None
    shared_cycles: int | None = None
    sm_partition: tuple[int, ...] | None = None
    models: tuple[str, ...] = ("DASE", "MISE", "ASM")
    policy: str | None = None
    warmup_intervals: int = 1
    cache_dir: str | None = None
    faults: "FaultPlan | None" = None
    arrivals: "ArrivalSchedule | None" = None

    @property
    def key(self) -> str:
        return "+".join(a if isinstance(a, str) else a.name for a in self.apps)


@dataclass
class JobOutcome:
    """Result slot for one job, in submission order.

    Exactly one of ``result``/``error`` is set; ``error`` carries the
    worker-side traceback text so a failed pair diagnoses itself without
    killing the other 104.  ``attempts`` counts executions (1 = first try
    succeeded); ``failure_kind`` classifies the *final* failure (one of
    :data:`FAIL_EXCEPTION`/:data:`FAIL_CRASH`/:data:`FAIL_TIMEOUT`/
    :data:`FAIL_TRANSPORT`); ``stderr_tail`` is the dying worker's last
    stderr output when one could be attributed; ``resumed`` marks results
    restored from a sweep checkpoint rather than executed.

    ``duration_s`` is the job's shared run plus the alone-replay seconds
    attributable to it, so durations still sum to the sweep's busy time
    although replays run as tasks of their own; ``cache`` likewise folds
    in the curve files those tasks wrote for it.  A replay overlapped with
    the shared run costs the job only the wait for it afterwards, which is
    inside the job's own wall time already.
    """

    index: int
    job: WorkloadJob
    result: WorkloadResult | None = None
    error: str | None = None
    duration_s: float = 0.0
    #: Alone-replay cache counters for this job ({"hits", "misses",
    #: "stores"}), or None when the job ran uncached.
    cache: dict | None = None
    attempts: int = 1
    failure_kind: str | None = None
    stderr_tail: str | None = None
    resumed: bool = False
    #: The part of ``duration_s`` spent on alone replays for this job: its
    #: share of each replay task's trajectory segment that ends at one of
    #: its counts, and the wait for its overlapped replays after its shared
    #: run ended; the rest is that shared run.
    replay_s: float = 0.0
    #: Alone replays the shared run left to the sweep's replay phase.
    #: In-flight state: empty on every outcome :func:`run_jobs` returns.
    deferred: list[ReplayRequest] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self) -> WorkloadResult:
        if self.result is None:
            raise RuntimeError(
                f"workload {self.job.key!r} failed:\n{self.error}"
            )
        return self.result


def _run_workload_job(
    job: WorkloadJob,
    deferred: list[ReplayRequest] | None = None,
    chase: Chase | None = None,
) -> tuple[WorkloadResult, dict | None]:
    """Run one job; returns the result plus alone-replay cache counters.

    With ``deferred`` this is a sweep's phase 1: replays the cache cannot
    serve land in the list instead of being simulated — except those in
    ``chase``, which overlap the shared run.
    """
    config = job.config or scaled_config()
    policy = None
    if job.policy is not None:
        _register_policies()
        try:
            factory = POLICIES[job.policy]
        except KeyError:
            raise ValueError(
                f"unknown policy {job.policy!r}; choose from {sorted(POLICIES)}"
            ) from None
        policy = factory(config)
    cache: AloneReplayCache | None = (
        AloneReplayCache(job.cache_dir) if job.cache_dir else None
    )
    result = run_workload(
        list(job.apps),
        config=config,
        shared_cycles=job.shared_cycles,
        sm_partition=list(job.sm_partition) if job.sm_partition else None,
        models=job.models,
        policy=policy,
        warmup_intervals=job.warmup_intervals,
        alone_cache=cache,
        faults=job.faults,
        arrivals=job.arrivals,
        deferred=deferred,
        chase=chase,
    )
    cache_stats = (
        {"hits": cache.hits, "misses": cache.misses, "stores": cache.stores}
        if cache is not None
        else None
    )
    return result, cache_stats


def execute_job(job: WorkloadJob) -> WorkloadResult:
    """Run one job to completion in the current process."""
    return _run_workload_job(job)[0]


@dataclass(frozen=True)
class ReplayJob:
    """Phase 2 of a sweep: one application's alone trajectory, advanced
    through every instruction count the sweep's shared runs ended it at.

    ``counts`` holds one entry per asking (job, app), duplicates included.
    An ``execute()``-style job, so it runs under the same timeout, retry,
    crash-isolation and bus machinery as any other.
    """

    spec: KernelSpec
    stream_id: int
    config: GPUConfig
    counts: tuple[int, ...]
    max_cycles: int
    cache_dir: str | None = None

    #: Bus records of replay tasks carry this, so SweepStats can tell them
    #: from the sweep's own jobs.
    kind = "replay"

    @property
    def key(self) -> str:
        return f"replay:{self.spec.name}#{self.stream_id}"

    def execute(self) -> dict[int, AloneClock]:
        cache = AloneReplayCache(self.cache_dir) if self.cache_dir else None
        return replay_alone(
            self.spec, self.stream_id, self.config, self.counts,
            cache, self.max_cycles,
        )


def _guarded(
    indexed_job: tuple[int, WorkloadJob], private: frozenset[int] = frozenset()
) -> JobOutcome:
    """Top-level (picklable) wrapper: never raises, captures tracebacks.

    A job exposing ``execute()`` (:class:`ReplayJob`,
    :class:`repro.faults.ChaosJob`) runs that; everything else is a
    :class:`WorkloadJob`, run as phase 1 of the sweep — overlapping the
    replays of its ``private`` apps (:func:`_private_replays`).
    """
    index, job = indexed_job
    t0 = time.perf_counter()
    try:
        execute = getattr(job, "execute", None)
        if execute is not None:
            return JobOutcome(index, job, result=execute(),
                              duration_s=time.perf_counter() - t0)
        deferred: list[ReplayRequest] = []
        chase = Chase(private) if private else None
        result, cache_stats = _run_workload_job(job, deferred, chase)
        return JobOutcome(index, job, result=result,
                          duration_s=time.perf_counter() - t0,
                          cache=cache_stats, deferred=deferred,
                          replay_s=chase.tail_s if chase else 0.0)
    except Exception:
        return JobOutcome(index, job, error=traceback.format_exc(),
                          duration_s=time.perf_counter() - t0,
                          failure_kind=FAIL_EXCEPTION)


# --------------------------------------------------------------------------
# Worker-side breadcrumbs: the parent cannot ask a dead worker what it was
# doing, so workers leave evidence on disk *before* doing anything risky.
# --------------------------------------------------------------------------


def _worker_stderr_init(scratch: str) -> None:
    """Pool initializer: tee this worker's OS-level stderr into the sweep
    scratch directory, so a hard death (segfault banner, fatal-error dump,
    anything written to fd 2) survives the process and can be attached to
    the blamed job's outcome."""
    try:
        path = os.path.join(scratch, f"stderr-{os.getpid()}.log")
        fd = os.open(path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
        os.dup2(fd, 2)
        os.close(fd)
    except OSError:  # pragma: no cover - scratch vanished; run uncaptured
        pass


def _observed_run(
    index: int,
    job,
    attempt: int,
    ch: "obs_bus.WorkerChannel | None",
    sweep: str | None,
    profile: bool,
    bus_dir: str | None,
    submit_ts: float | None = None,
    serialize: bool = False,
    private: frozenset[int] = frozenset(),
) -> JobOutcome:
    """Run one guarded attempt, bracketed by bus records when enabled.

    Shared by the inline path and the pooled worker entry so both emit
    the same job_start/span/job_end stream (the inline==pooled SweepStats
    determinism contract).  ``serialize`` additionally times a result
    pickle round — the transport cost a pooled job pays and an inline one
    does not, so it is only recorded in workers.
    """
    if ch is None:
        outcome = _guarded((index, job), private)
        outcome.attempts = attempt
        return outcome
    ch.job_start(
        sweep or "?", index, getattr(job, "key", repr(job)),
        attempt=attempt, submit_ts=submit_ts,
        kind=getattr(job, "kind", None),
    )
    prof = None
    if profile and bus_dir:
        import cProfile

        prof = cProfile.Profile()
        prof.enable()
    try:
        outcome = _guarded((index, job), private)
    finally:
        if prof is not None:
            prof.disable()
            try:
                prof.dump_stats(
                    str(obs_bus.profile_path(bus_dir, index, attempt))
                )
            except OSError:  # pragma: no cover - bus dir vanished
                pass
    outcome.attempts = attempt
    if serialize:
        import pickle

        t0 = time.perf_counter()
        try:
            n_bytes = len(pickle.dumps(outcome))
        except Exception:  # noqa: BLE001 - poison results still get a span
            n_bytes = -1
        ch.span("serialize", time.perf_counter() - t0, n_bytes=n_bytes)
    ch.job_end(
        ok=outcome.ok,
        cache=outcome.cache,
        failure_kind=outcome.failure_kind,
    )
    return outcome


def _tracked(
    index: int,
    job,
    scratch: str,
    attempt: int,
    sweep: str | None = None,
    submit_ts: float | None = None,
    bus_dir: str | None = None,
    profile: bool = False,
) -> JobOutcome:
    """Worker entry point: breadcrumbs around the guarded execution."""
    started = {
        "pid": os.getpid(),
        "t0": time.time(),
        "key": getattr(job, "key", repr(job)),
        "attempt": attempt,
    }
    base = pathlib.Path(scratch)
    try:
        (base / f"job-{index}.started").write_text(json.dumps(started))
    except OSError:  # pragma: no cover - scratch vanished mid-sweep
        pass
    ch = obs_bus.activate(bus_dir) if bus_dir else None
    outcome = _observed_run(
        index, job, attempt, ch, sweep, profile, bus_dir,
        submit_ts=submit_ts, serialize=ch is not None,
    )
    try:
        (base / f"job-{index}.done").write_text("1")
    except OSError:  # pragma: no cover
        pass
    return outcome


def _read_started(scratch: pathlib.Path, index: int) -> dict | None:
    try:
        return json.loads((scratch / f"job-{index}.started").read_text())
    except (OSError, ValueError):
        return None


def _stderr_tail(
    scratch: pathlib.Path, started: dict | None, limit: int = 2000
) -> str | None:
    """Last ``limit`` characters the blamed worker wrote to stderr."""
    if not started:
        return None
    try:
        text = (scratch / f"stderr-{started['pid']}.log").read_text(
            errors="replace"
        )
    except (OSError, KeyError):
        return None
    text = text.strip()
    return text[-limit:] if text else None


# --------------------------------------------------------------------------
# Ambient sweep configuration
# --------------------------------------------------------------------------

#: Ambient progress factory (``total_jobs -> reporter or None``): lets a
#: CLI entry point attach live progress to every sweep an experiment driver
#: runs without threading a kwarg through each driver's signature.
_PROGRESS_FACTORY: Callable[[int], object] | None = None


def set_default_progress(factory: Callable[[int], object] | None) -> None:
    """Install (or clear, with None) the ambient sweep-progress factory.

    The factory is called with the job count of each sweep and returns an
    object with ``job_done(outcome)`` / ``close()`` (duck-typed; see
    :class:`repro.obs.SweepProgress`), or None to skip that sweep.
    """
    global _PROGRESS_FACTORY
    _PROGRESS_FACTORY = factory


_UNSET = object()

#: Ambient resilience defaults, consumed by :func:`run_jobs` when the
#: caller passes None — the same pattern as the progress factory, so the
#: CLI's ``--timeout/--retries/--resume-dir`` flags reach every sweep a
#: figure driver runs without new parameters on each driver.
_SWEEP_DEFAULTS: dict = {
    "timeout_s": None,
    "retries": 0,
    "backoff_s": 0.5,
    "checkpoint_dir": None,
    "bus_dir": None,
    "profile": False,
}

#: Monotone per-process counter distinguishing sweeps that share one bus
#: directory (a figure driver may run several run_jobs calls).
_SWEEP_SEQ = 0


def set_sweep_defaults(
    timeout_s=_UNSET, retries=_UNSET, backoff_s=_UNSET, checkpoint_dir=_UNSET,
    bus_dir=_UNSET, profile=_UNSET,
) -> None:
    """Set ambient defaults for sweep resilience (only the passed ones).

    ``bus_dir`` enables the cross-worker telemetry bus
    (:mod:`repro.obs.bus`) for every subsequent sweep; ``profile``
    additionally cProfiles each job into the bus directory.
    """
    if timeout_s is not _UNSET:
        _SWEEP_DEFAULTS["timeout_s"] = timeout_s
    if retries is not _UNSET:
        if retries is not None and retries < 0:
            raise ValueError("retries must be >= 0")
        _SWEEP_DEFAULTS["retries"] = retries
    if backoff_s is not _UNSET:
        _SWEEP_DEFAULTS["backoff_s"] = backoff_s
    if checkpoint_dir is not _UNSET:
        _SWEEP_DEFAULTS["checkpoint_dir"] = checkpoint_dir
    if bus_dir is not _UNSET:
        _SWEEP_DEFAULTS["bus_dir"] = bus_dir
    if profile is not _UNSET:
        _SWEEP_DEFAULTS["profile"] = bool(profile)


def sweep_defaults() -> dict:
    """A copy of the current ambient sweep defaults."""
    return dict(_SWEEP_DEFAULTS)


def _backoff_sleep(backoff_s: float, generation: int) -> None:
    if backoff_s <= 0:
        return
    delay = min(backoff_s * (2 ** generation), 30.0)
    delay *= 1.0 + 0.25 * (2.0 * random.random() - 1.0)  # ±25% jitter
    time.sleep(delay)


# --------------------------------------------------------------------------
# The sweep loop
# --------------------------------------------------------------------------


@dataclass
class _Pending:
    """Parent-side state for one not-yet-settled job."""

    job: object
    attempts: int = 0            # attempts consumed so far
    last: JobOutcome | None = None
    #: Blamed for an unexplained pool break: next attempt runs isolated
    #: (alone in a single-worker pool) so guilt becomes attributable.
    suspect: bool = False


def run_jobs(
    jobs: Sequence[WorkloadJob],
    n_jobs: int | None = None,
    progress=None,
    *,
    timeout_s: float | None = None,
    retries: int | None = None,
    backoff_s: float | None = None,
    checkpoint: "SweepCheckpoint | str | os.PathLike | None" = None,
    bus: "str | os.PathLike | None" = None,
    profile: bool | None = None,
) -> list[JobOutcome]:
    """Execute ``jobs``, fanning out across ``n_jobs`` worker processes.

    ``n_jobs`` of 1 (or 0) runs inline, strictly in this process (no pool,
    no pickling) — handy for debugging and for callers that just want the
    failure-capturing contract.  None, the default, runs the jobs inline
    too, and where there is a spare CPU to do it on (:func:`_can_overlap`)
    overlaps each job's *private* alone replays — the trajectories no
    other job of the sweep asks for — with that job's own shared run
    (docs/parallel-harness.md, "Overlapped replays"); the results are the
    same.  Outcomes always come back ordered by submission index,
    regardless of which worker finished first, and a job that fails — by
    raising, by killing its worker, by hanging past ``timeout_s``, or by
    returning a result the parent cannot unpickle — is returned as a
    failed :class:`JobOutcome` rather than aborting the rest.

    ``retries`` re-runs failed attempts (any failure kind) up to that many
    extra times, sleeping ``backoff_s · 2^generation`` (±25% jitter)
    between generations.  ``timeout_s`` kills a worker whose job exceeds
    it; a job can only be preempted in a worker, so a sweep with a timeout
    runs through the pool machinery whatever ``n_jobs`` says — with one
    worker where it would have run inline.  ``checkpoint``
    names a directory for partial-sweep durability: completed
    :class:`WorkloadResult`s are restored from it instead of recomputed,
    and newly completed ones are appended to it.  Each of these falls back
    to the ambient default (:func:`set_sweep_defaults`) when None.

    :class:`WorkloadJob` sweeps run in phases (module docstring): shared
    runs first, then one alone replay per application trajectory instead
    of one per pairing, with identical results.  ``timeout_s`` and
    ``retries`` apply to a replay task as to any job.

    ``progress`` (or, if None, the factory installed with
    :func:`set_default_progress`) receives each :class:`JobOutcome` as it
    *settles* (its replays in) — completion order, not submission order —
    via ``job_done``, then ``close()`` when the sweep ends.

    ``bus`` names a :mod:`repro.obs.bus` directory: every worker (and the
    inline path) streams job_start/span/job_end records into its own
    JSONL channel there, and the parent adds sweep + settled-outcome
    records, so crashed jobs still leave an attributable trail.
    ``profile`` (requires ``bus``) cProfiles each job attempt into the
    same directory for a sweep-wide merged hot-function table.  Both fall
    back to the ambient defaults when None.
    """
    global _SWEEP_SEQ
    indexed = list(enumerate(jobs))
    if not indexed:
        return []
    if timeout_s is None:
        timeout_s = _SWEEP_DEFAULTS["timeout_s"]
    if retries is None:
        retries = _SWEEP_DEFAULTS["retries"]
    if backoff_s is None:
        backoff_s = _SWEEP_DEFAULTS["backoff_s"]
    if checkpoint is None:
        checkpoint = _SWEEP_DEFAULTS["checkpoint_dir"]
    if bus is None:
        bus = _SWEEP_DEFAULTS["bus_dir"]
    if profile is None:
        profile = _SWEEP_DEFAULTS["profile"]
    profile = bool(profile)
    bus_dir = os.fspath(bus) if bus is not None else None
    from repro.harness.checkpoint import resolve_checkpoint

    cp = resolve_checkpoint(checkpoint, jobs)

    prog = progress
    if prog is None and _PROGRESS_FACTORY is not None:
        prog = _PROGRESS_FACTORY(len(indexed))

    ch = None
    sweep_id = None
    prev_ch = None
    if bus_dir is not None:
        _SWEEP_SEQ += 1
        sweep_id = f"{os.getpid()}-{_SWEEP_SEQ}"
        prev_ch = obs_bus.current()
        ch = obs_bus.activate(bus_dir)
        ch.record(
            {"t": "sweep", "sweep": sweep_id, "n_jobs": len(indexed),
             "ts": time.time()},
            flush=True,
        )

    outcomes: dict[int, JobOutcome] = {}

    def record_outcome(outcome: JobOutcome) -> None:
        # The parent's settled verdict: the only record a job whose
        # worker died hard gets beyond its job_start, and the source
        # of failure attribution in the sweep trace.
        rec = {"t": "outcome", "sweep": sweep_id, "job": outcome.index,
               "key": getattr(outcome.job, "key", repr(outcome.job)),
               "ok": outcome.ok, "failure_kind": outcome.failure_kind,
               "duration_s": outcome.duration_s,
               "attempts": outcome.attempts,
               "resumed": outcome.resumed, "ts": time.time()}
        kind = getattr(outcome.job, "kind", None)
        if kind is not None:
            rec["kind"] = kind
        if outcome.cache is not None:
            rec["cache"] = outcome.cache
        if outcome.replay_s:
            rec["replay_s"] = outcome.replay_s
        ch.record(rec, flush=True)

    def settle(outcome: JobOutcome) -> None:
        outcomes[outcome.index] = outcome
        if ch is not None:
            record_outcome(outcome)
        if cp is not None and outcome.ok and not outcome.resumed:
            cp.record(outcome)
        if prog is not None:
            prog.job_done(outcome)

    #: Phase-1 outcomes whose result still has alone replays to come.
    waiting: dict[int, JobOutcome] = {}

    def shared_run_done(outcome: JobOutcome) -> None:
        if outcome.ok and outcome.deferred:
            waiting[outcome.index] = outcome
        else:
            settle(outcome)

    n_workers = max(1, min(n_jobs or 1, len(indexed)))
    pooled = n_workers > 1 or timeout_s is not None
    pool = _Workers(n_workers)
    #: Job index → the apps whose alone replay overlaps its shared run.
    private: dict[int, frozenset[int]] = {}

    def run_phase(todo, done) -> None:
        if not pooled:
            _run_inline(
                todo, retries, backoff_s, done, private,
                ch=ch, sweep=sweep_id, profile=profile, bus_dir=bus_dir,
            )
        elif todo:
            _run_pool(
                todo, pool, timeout_s, retries, backoff_s, done,
                sweep=sweep_id, bus_dir=bus_dir, profile=profile,
            )

    try:
        if cp is not None:
            for index, result in sorted(cp.load().items()):
                settle(JobOutcome(
                    index, jobs[index], result=result, resumed=True,
                ))
        # Phase 1: every job's shared run.  Jobs whose replays all came
        # from the cache, or overlapped the shared run, settle here; a
        # warm sweep ends here.
        todo = [(i, job) for i, job in indexed if i not in outcomes]
        if n_jobs is None and not pooled and not profile and _can_overlap():
            private = _private_replays(todo)
        run_phase(todo, shared_run_done)
        if waiting:
            # Phase 2: one task per alone trajectory; phase 3, as each
            # task lands: fill in the jobs it served and settle those that
            # wait for nothing else.  Task indices follow the jobs' so bus
            # records and profile dumps cannot collide with theirs.
            plan = _ReplayPlan(waiting, first_index=len(indexed))

            def replay_done(task: JobOutcome) -> None:
                if ch is not None:
                    record_outcome(task)
                for outcome in plan.deliver(task):
                    settle(outcome)

            run_phase(plan.todo(), replay_done)
        return [outcomes[i] for i in range(len(indexed))]
    finally:
        pool.close()
        if prog is not None:
            prog.close()
        if ch is not None and prev_ch is not ch:
            # We opened this channel for the sweep; hand the previous one
            # (if any) back so nested/sequential sweeps compose.
            obs_bus.deactivate()
            if prev_ch is not None:
                obs_bus.activate(prev_ch.directory)


def _can_overlap() -> bool:
    """Whether this process should fork helpers for overlapped replays: fork
    starts one at no import or pickling cost, there is a second CPU for it
    to run on, and a daemonic process may not have children."""
    method = (multiprocessing.get_start_method(allow_none=True)
              or multiprocessing.get_all_start_methods()[0])
    return (
        method == "fork" and usable_cpus() >= 2
        and not multiprocessing.current_process().daemon
    )


def _trajectory(
    spec: KernelSpec, stream_id: int, config: GPUConfig, max_cycles: int,
    cache_dir: str | None,
) -> tuple:
    """What makes two alone replays one trajectory: the kernel as replayed
    and the semantic config — the replay cache's own ``spec``/``config``
    fingerprints — plus the clock budget and the cache the clocks go to,
    so every asker gets exactly what its own standalone replay would have
    given it."""
    return (
        spec_fingerprint(spec, stream_id), config_fingerprint(config),
        max_cycles, cache_dir,
    )


def _private_replays(
    todo: list[tuple[int, object]]
) -> dict[int, frozenset[int]]:
    """The asker census: per job, the apps (by position) whose alone
    trajectory no other job of the sweep will ask for.

    Those replays gain nothing from waiting for the replay phase, which
    exists to simulate a *shared* trajectory once, so their jobs overlap
    them with the shared run instead.  Counted before anything runs, from
    what :func:`run_workload` will replay: every app of the roster, keyed
    as :class:`_ReplayPlan` keys the requests it is left with.
    """
    askers: dict[tuple, list[tuple[int, int]]] = {}
    for index, job in todo:
        if not isinstance(job, WorkloadJob):
            continue
        config = job.config or scaled_config()
        max_cycles = alone_budget(job.shared_cycles or default_shared_cycles())
        roster = list(job.apps)
        if job.arrivals is not None:
            roster += [a.app for a in job.arrivals.arrivals]
        try:
            specs = [_resolve(a)[1] for a in roster]
        except KeyError:
            continue  # an unknown app: the job fails on its own, in its turn
        for stream_id, spec in enumerate(specs):
            askers.setdefault(
                _trajectory(spec, stream_id, config, max_cycles,
                            job.cache_dir), [],
            ).append((index, stream_id))
    private: dict[int, set[int]] = {}
    for asked_by in askers.values():
        if len(asked_by) == 1:
            index, stream_id = asked_by[0]
            private.setdefault(index, set()).add(stream_id)
    return {index: frozenset(apps) for index, apps in private.items()}


class _ReplayPlan:
    """Which alone trajectories a sweep's deferred replays need, and which
    jobs wait on each (requests grouped by :func:`_trajectory`).
    """

    def __init__(self, waiting: dict[int, JobOutcome], first_index: int):
        self.waiting = waiting
        self.first_index = first_index
        by_trajectory: dict[tuple, list[tuple[int, ReplayRequest]]] = {}
        for index in sorted(waiting):
            cache_dir = getattr(waiting[index].job, "cache_dir", None)
            for req in waiting[index].deferred:
                trajectory = _trajectory(
                    req.spec, req.stream_id, req.config, req.max_cycles,
                    cache_dir,
                )
                by_trajectory.setdefault(trajectory, []).append((index, req))
        #: Per task: the (job index, request) pairs it serves.
        self.askers = list(by_trajectory.values())
        self.tasks = [
            ReplayJob(
                askers[0][1].spec, askers[0][1].stream_id,
                askers[0][1].config,
                tuple(req.instructions for _, req in askers),
                max_cycles, cache_dir,
            )
            for (_, _, max_cycles, cache_dir), askers in by_trajectory.items()
        ]

    def todo(self) -> list[tuple[int, ReplayJob]]:
        return list(enumerate(self.tasks, self.first_index))

    def deliver(self, task: JobOutcome) -> list[JobOutcome]:
        """Apply one finished replay task; returns the jobs it completes
        (or, failed for good, takes down with it), ready to settle."""
        askers = self.askers[task.index - self.first_index]
        done: list[JobOutcome] = []
        if not task.ok:
            for index in dict.fromkeys(i for i, _ in askers):
                outcome = self.waiting.pop(index, None)
                if outcome is None:
                    continue  # already failed by another of its replays
                outcome.result = None
                outcome.deferred = []
                outcome.failure_kind = task.failure_kind
                outcome.stderr_tail = task.stderr_tail
                outcome.error = (
                    f"alone replay {task.job.key} failed after "
                    f"{task.attempts} attempt(s):\n{task.error}"
                )
                done.append(outcome)
            return done
        clocks: dict[int, AloneClock] = task.result
        sharers = Counter(req.instructions for _, req in askers)
        #: Counts whose curve write is still to be credited — to the first
        #: job that asked for the count.
        stored = {n for n, clock in clocks.items() if clock.stored}
        for index, req in askers:
            outcome = self.waiting.get(index)
            if outcome is None:
                continue
            clock = clocks[req.instructions]
            outcome.result.set_alone(req.stream_id, clock.cycles)
            share = clock.seconds / sharers[req.instructions]
            outcome.duration_s += share
            outcome.replay_s += share
            if outcome.cache is not None and req.instructions in stored:
                stored.remove(req.instructions)
                outcome.cache["stores"] += 1
            outcome.deferred.remove(req)
            if not outcome.deferred:
                done.append(self.waiting.pop(index))
        return done


def _run_inline(
    todo: list[tuple[int, object]],
    retries: int,
    backoff_s: float,
    settle: Callable[[JobOutcome], None],
    private: dict[int, frozenset[int]],
    ch: "obs_bus.WorkerChannel | None" = None,
    sweep: str | None = None,
    profile: bool = False,
    bus_dir: str | None = None,
) -> None:
    """The no-pool path: sequential, with the same retry accounting.

    There is no timeout here — no worker to kill without taking the caller
    down with it; :func:`run_jobs` sends a sweep that has one through the
    pool.  ``private`` names, per job, the replays to overlap with its
    shared run.  With a bus enabled the parent's own channel doubles as
    the worker channel (no dequeue/serialize spans — there is no
    transport).
    """
    for index, job in todo:
        attempt = 0
        while True:
            attempt += 1
            outcome = _observed_run(
                index, job, attempt, ch, sweep, profile, bus_dir,
                private=private.get(index, frozenset()),
            )
            if outcome.ok or attempt > retries:
                break
            _backoff_sleep(backoff_s, attempt - 1)
        settle(outcome)


class _Workers:
    """A sweep's worker processes and their scratch directory.

    The executor outlives a generation that ended cleanly, so retries and
    the replay phase land on the same warm workers (and SweepStats sees
    one pid per worker slot for the whole sweep); a generation that killed
    a worker or broke the pool :meth:`retire` drops it, and the next one
    starts fresh.  Nothing is created until the first :meth:`pool` call.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.scratch: pathlib.Path | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._size = 0

    def pool(self, batch: int) -> ProcessPoolExecutor:
        """An executor with room for ``min(workers, batch)`` jobs at once."""
        size = min(self.workers, batch)
        if self._size < size:
            self.retire(wait=True)
        if self._pool is None:
            if self.scratch is None:
                self.scratch = pathlib.Path(
                    tempfile.mkdtemp(prefix="repro-sweep-"))
            self._pool = ProcessPoolExecutor(
                max_workers=size,
                initializer=_worker_stderr_init,
                initargs=(str(self.scratch),),
            )
            self._size = size
        return self._pool

    def retire(self, wait: bool) -> None:
        """Shut the executor down.  ``wait`` joins its (idle) workers, so
        no executor thread is left to trip over closed pipes at interpreter
        exit; after a kill or a break, or with jobs still running, joining
        could block, so those pass False."""
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=True)
        self._pool = None
        self._size = 0

    def close(self) -> None:
        self.retire(wait=True)
        if self.scratch is not None:
            shutil.rmtree(self.scratch, ignore_errors=True)


def _run_pool(
    todo: list[tuple[int, object]],
    workers: _Workers,
    timeout_s: float | None,
    retries: int,
    backoff_s: float,
    settle: Callable[[JobOutcome], None],
    sweep: str | None = None,
    bus_dir: str | None = None,
    profile: bool = False,
) -> None:
    """Generation-based resilient pool execution (module docstring)."""
    pending: dict[int, _Pending] = {
        i: _Pending(job=job) for i, job in todo
    }
    generation = 0
    stalled = 0
    while pending:
        # Crash suspects run one at a time in their own pool: a break
        # there is attributable beyond doubt, and innocents blamed in
        # a shared break get a solo retry the crasher cannot ruin.
        suspects = sorted(i for i in pending if pending[i].suspect)
        batch = suspects[:1] if suspects else sorted(pending)
        pool = workers.pool(len(batch))
        scratch = workers.scratch
        for i in batch:  # clear breadcrumbs from earlier generations
            for suffix in (".started", ".done"):
                try:
                    (scratch / f"job-{i}{suffix}").unlink()
                except OSError:
                    pass
        killed: set[int] = set()
        broken: dict[int, str] = {}
        progressed = 0  # settles + blamed attempts this generation
        broken_on_submit = False

        fut_index = {}
        try:
            for i in batch:
                p = pending[i]
                fut = pool.submit(
                    _tracked, i, p.job, str(scratch), p.attempts + 1,
                    sweep=sweep,
                    submit_ts=time.time() if bus_dir else None,
                    bus_dir=bus_dir, profile=profile,
                )
                fut_index[fut] = i
        except BrokenProcessPool:
            # Pool died while we were still submitting; unsubmitted
            # jobs simply stay pending for the next generation.
            broken_on_submit = True
        not_done = set(fut_index)
        try:
            while not_done:
                done, not_done = wait(
                    not_done, timeout=0.05, return_when=FIRST_COMPLETED
                )
                for fut in done:
                    i = fut_index[fut]
                    try:
                        outcome = fut.result()
                    except BrokenProcessPool:
                        broken[i] = "process pool broken"
                        continue
                    except BaseException as exc:
                        broken[i] = f"{type(exc).__name__}: {exc}"
                        continue
                    p = pending[i]
                    p.attempts += 1
                    p.suspect = False  # it completed; exonerated
                    outcome.attempts = p.attempts
                    progressed += 1
                    if outcome.ok or p.attempts > retries:
                        settle(outcome)
                        del pending[i]
                    else:
                        p.last = outcome  # retry next generation
                if timeout_s is not None and not_done:
                    now = time.time()
                    for i in batch:
                        if i in killed or i in broken or i not in pending:
                            continue
                        if (scratch / f"job-{i}.done").exists():
                            continue
                        info = _read_started(scratch, i)
                        if info and now - info["t0"] > timeout_s:
                            try:
                                os.kill(info["pid"], signal.SIGKILL)
                            except (OSError, KeyError):
                                pass
                            killed.add(i)
        finally:
            if killed or broken or broken_on_submit or not_done:
                workers.retire(wait=False)

        # Post-mortem: assign blame for futures the pool never served.
        # If the breakage has an *explained* cause — a timeout kill or
        # a job that finished but whose result broke transport — then
        # started-but-unfinished jobs are treated as innocent victims
        # of the teardown and requeued for free.  With no explanation,
        # the crasher must be among them, so they all pay an attempt.
        explained = bool(killed) or any(
            (scratch / f"job-{i}.done").exists() for i in broken
        )
        for i, msg in sorted(broken.items()):
            p = pending.get(i)
            if p is None:
                continue
            started = _read_started(scratch, i)
            done = (scratch / f"job-{i}.done").exists()
            if i in killed:
                kind = FAIL_TIMEOUT
                desc = (
                    f"killed after exceeding the per-job timeout "
                    f"of {timeout_s}s"
                )
            elif done:
                if len(batch) > 1:
                    # Ambiguous in a shared pool: this job's finished
                    # result may have been dropped when a *sibling's*
                    # poisonous result broke the transport.  Isolate;
                    # alone, a repeat is attributable beyond doubt.
                    p.suspect = True
                    progressed += 1
                    continue
                kind = FAIL_TRANSPORT
                desc = f"worker finished but the result was lost: {msg}"
            elif started is not None and not explained:
                kind = FAIL_CRASH
                desc = (
                    f"worker (pid {started.get('pid')}) died without "
                    f"unwinding: {msg}"
                )
                p.suspect = True  # isolate its next attempt
            else:
                # Never started, or an innocent victim of an explained
                # teardown: requeue without spending an attempt.
                continue
            p.attempts += 1
            progressed += 1
            tail = _stderr_tail(scratch, started)
            key = getattr(p.job, "key", repr(p.job))
            error = (
                f"[{kind}] job {key!r} attempt {p.attempts}: {desc}"
            )
            if tail:
                error += f"\n--- worker stderr tail ---\n{tail}"
            outcome = JobOutcome(
                i, p.job, error=error, attempts=p.attempts,
                failure_kind=kind, stderr_tail=tail,
            )
            if p.attempts > retries:
                settle(outcome)
                del pending[i]
            else:
                p.last = outcome

        if progressed == 0:
            stalled += 1
            if stalled >= 3:
                # Nothing settles and nothing is even blamable — e.g.
                # the pool dies before any job starts, repeatedly.
                # Fail the remainder rather than spin forever.
                for i in sorted(pending):
                    p = pending.pop(i)
                    key = getattr(p.job, "key", repr(p.job))
                    settle(JobOutcome(
                        i, p.job, attempts=p.attempts,
                        failure_kind=FAIL_CRASH,
                        error=(
                            f"[{FAIL_CRASH}] job {key!r}: worker pool "
                            "died repeatedly before any job made "
                            "progress; giving up on the remainder"
                        ),
                    ))
                break
        else:
            stalled = 0
        if pending:
            _backoff_sleep(backoff_s, generation)
        generation += 1


def workload_jobs(
    workloads: Sequence[Sequence[KernelSpec | str]],
    config: GPUConfig | None = None,
    shared_cycles: int | None = None,
    sm_partition: Sequence[int] | None = None,
    models: Sequence[str] = ("DASE", "MISE", "ASM"),
    policy: str | None = None,
    warmup_intervals: int = 1,
    cache_dir: str | None = None,
    faults: "FaultPlan | None" = None,
    arrivals: "ArrivalSchedule | None" = None,
) -> list[WorkloadJob]:
    """One :class:`WorkloadJob` per workload, sharing every run parameter.

    ``cache_dir`` of None falls back to ``$REPRO_CACHE_DIR`` (see
    :func:`repro.harness.replay_cache.resolve_cache`); pass a path to
    persist alone replays across invocations.  Drivers that compare
    several parameter sets over the same workloads concatenate the lists
    into one :func:`run_jobs` sweep, so each application's alone trajectory
    is simulated once for all of them.
    """
    if cache_dir is not None:
        AloneReplayCache(cache_dir)  # fail fast on an unusable directory
    else:
        resolved = resolve_cache(None)
        cache_dir = str(resolved.directory) if resolved else None
    return [
        WorkloadJob(
            apps=tuple(combo),
            config=config,
            shared_cycles=shared_cycles,
            sm_partition=tuple(sm_partition) if sm_partition else None,
            models=tuple(models),
            policy=policy,
            warmup_intervals=warmup_intervals,
            cache_dir=cache_dir,
            faults=faults,
            arrivals=arrivals,
        )
        for combo in workloads
    ]


def run_workloads(
    workloads: Sequence[Sequence[KernelSpec | str]],
    jobs: int | None = None,
    config: GPUConfig | None = None,
    shared_cycles: int | None = None,
    sm_partition: Sequence[int] | None = None,
    models: Sequence[str] = ("DASE", "MISE", "ASM"),
    policy: str | None = None,
    warmup_intervals: int = 1,
    cache_dir: str | None = None,
    progress=None,
    faults: "FaultPlan | None" = None,
    arrivals: "ArrivalSchedule | None" = None,
    timeout_s: float | None = None,
    retries: int | None = None,
    checkpoint: "SweepCheckpoint | str | os.PathLike | None" = None,
) -> list[JobOutcome]:
    """Sweep many workloads under one shared set of run parameters
    (:func:`workload_jobs`); ``progress``, ``timeout_s``, ``retries`` and
    ``checkpoint`` are forwarded to :func:`run_jobs`."""
    specs = workload_jobs(
        workloads, config=config, shared_cycles=shared_cycles,
        sm_partition=sm_partition, models=models, policy=policy,
        warmup_intervals=warmup_intervals, cache_dir=cache_dir,
        faults=faults, arrivals=arrivals,
    )
    return run_jobs(
        specs, n_jobs=jobs, progress=progress,
        timeout_s=timeout_s, retries=retries, checkpoint=checkpoint,
    )
