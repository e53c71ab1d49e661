"""Sweep runner, hardened against misbehaving jobs.

Figure sweeps are embarrassingly parallel: each shared run is independent
of every other, and the simulator is deterministic, so a workload produces
the same :class:`WorkloadResult` whether it runs inline, in a job process,
or is reconstructed from cache.  The alone replays are not
independent, though: every pairing that contains an application replays
the *same* alone trajectory, each to the instruction count its own shared
run ended at.  A sweep therefore runs in **phases** — (1) every job's
shared run, which probes the replay cache and defers only the misses;
(2) one :class:`ReplayJob` per alone trajectory, advanced once through
every count asked of it; (3) as each task lands, the jobs it served get
their alone cycles and slowdowns and settle (checkpoint, progress).  A
sweep whose phase 1 deferred nothing — warm cache, checkpoint-restored
jobs, non-workload jobs — has no phase 2.  An inline sweep with a spare
CPU takes most trajectories out of phase 2: one whose askers are one
consecutive run of jobs is replayed by a helper process that chases those
shared runs as they go, and phase 1 collects its answers between runs,
settling each job as they land (:func:`_chase_census`, :class:`_Helpers`).
This module provides the fan-out machinery:

* :class:`WorkloadJob` — a picklable description of one run (app names or
  :class:`KernelSpec` objects, config, cycles, partition, models, policy
  name, fault plan, cache directory), its defaults resolved when it is
  built;
* :func:`run_jobs` — execute jobs, each attempt in a forked process of
  its own (or inline for ``jobs <= 1``), returning :class:`JobOutcome`
  objects in submission order with per-job failures captured instead of
  aborting the sweep;
* :func:`workload_jobs` / :func:`run_workloads` — the convenience
  wrappers figure drivers use.

Policies cross the process boundary by *name* (see :data:`POLICIES`), not
as live objects, because a policy instance holds simulator state.

Hardening (docs/parallel-harness.md): ``run_jobs`` survives jobs that
raise, die without unwinding (``os._exit``, SIGKILL, segfault), hang past
a per-job timeout, or return results whose pickle explodes at the parent.
With ``n_jobs >= 2`` or a timeout every job attempt runs in a forked
process of its own (:mod:`repro.forked`), at most ``n_jobs`` at once, so
each failure has exactly one cause and charges exactly one job: the
pickled answer is the outcome; a process dead with nothing to read is a
crash (``crash``, with its signal or exit code and its stderr tail); an
answer that will not unpickle is a lost result (``result-transport``);
an attempt past the timeout is killed (``timeout``).

Failed attempts retry up to ``retries`` times, each after its own
exponential backoff (from :data:`BACKOFF_S`) + jitter while the other jobs
run on.  Replay tasks are ``execute()``-style jobs in the same machinery,
so all of the above holds for them; one that stays failed fails exactly
the jobs waiting on it, with its ``failure_kind``.  ``checkpoint`` (a directory) makes
completed jobs durable so an interrupted sweep resumes instead of
restarting (:class:`repro.harness.checkpoint.SweepCheckpoint`);
a job is complete, and checkpointed, only once its replays are in.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import multiprocessing.connection
import os
import random
import shutil
import tempfile
import time
import traceback
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro import forked
from repro.config import GPUConfig
from repro.harness.replay_cache import (
    AloneReplayCache,
    cache_directory,
    default_cache_dir,
)
from repro.obs import bus as obs_bus
from repro.harness.runner import (
    AloneClock,
    AloneTrajectory,
    ReplayRequest,
    WorkloadResult,
    _Chaser,
    _resolve,
    alone_budget,
    default_shared_cycles,
    profiled,
    replay_alone,
    run_workload,
    scaled_config,
)
from repro.sim.kernel import KernelSpec

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.faults.plan import FaultPlan
    from repro.harness.checkpoint import SweepCheckpoint
    from repro.opensys.schedule import ArrivalSchedule


def _dase_fair(config: GPUConfig) -> object:
    # Imported lazily so constructing a WorkloadJob never pulls in the
    # policy stack; only jobs that actually name a policy pay the import.
    from repro.policies import DASEFairPolicy

    return DASEFairPolicy(config)


#: Policies constructible inside a job process, by name.  Each factory
#: takes the resolved :class:`GPUConfig` of the run.
POLICIES: dict[str, Callable[[GPUConfig], object]] = {"dase_fair": _dase_fair}

#: ``JobOutcome.failure_kind`` values.
FAIL_EXCEPTION = "exception"          # job raised; traceback captured
FAIL_CRASH = "crash"                  # process died without unwinding
FAIL_TIMEOUT = "timeout"              # killed by the per-job timeout
FAIL_TRANSPORT = "result-transport"   # finished, result unpicklable/lost


@dataclass(frozen=True)
class WorkloadJob:
    """One picklable unit of sweep work: the arguments of ``run_workload``,
    resolved once, where the job is built.

    ``config`` of None becomes :func:`scaled_config`, ``shared_cycles`` of
    None :func:`default_shared_cycles` — so a job's fingerprint, and the
    sweep checkpoint named by it, tells the scales apart — and
    ``cache_dir`` of None ``$REPRO_CACHE_DIR`` when that is set (a missing
    or empty directory included: the sweep creates and fills it); a path
    that exists and is not a directory is a ``ValueError`` here.
    ``apps``, ``sm_partition`` and ``models`` become tuples.

    ``apps`` may mix suite names and frozen :class:`KernelSpec` objects —
    both pickle cleanly; a name is looked up only when the job runs, so an
    unknown one fails that job, not the sweep.  ``policy`` is a
    :data:`POLICIES` key or None.  ``faults`` optionally distorts the
    counter stream the estimators see (:class:`repro.faults.FaultPlan` —
    frozen, so it fingerprints and pickles like every other field).
    ``arrivals`` optionally makes the run open-system
    (:class:`repro.opensys.ArrivalSchedule` — likewise frozen,
    fingerprintable, and picklable).
    """

    apps: tuple[KernelSpec | str, ...]
    config: GPUConfig | None = None
    shared_cycles: int | None = None
    sm_partition: tuple[int, ...] | None = None
    models: tuple[str, ...] = ("DASE", "MISE", "ASM")
    policy: str | None = None
    cache_dir: str | None = None
    faults: "FaultPlan | None" = None
    arrivals: "ArrivalSchedule | None" = None

    def __post_init__(self) -> None:
        cache_dir = self.cache_dir or default_cache_dir()
        resolved = {
            "apps": tuple(self.apps),
            "config": self.config or scaled_config(),
            "shared_cycles": self.shared_cycles or default_shared_cycles(),
            "sm_partition": (
                tuple(self.sm_partition) if self.sm_partition else None
            ),
            "models": tuple(self.models),
            "cache_dir": (
                None if cache_dir is None else str(cache_directory(cache_dir))
            ),
        }
        for name, value in resolved.items():
            object.__setattr__(self, name, value)

    @property
    def key(self) -> str:
        return "+".join(a if isinstance(a, str) else a.name for a in self.apps)


@dataclass
class JobOutcome:
    """Result slot for one job, in submission order.

    Exactly one of ``result``/``error`` is set; ``error`` carries the
    job-side traceback text so a failed pair diagnoses itself without
    killing the other 104.  ``attempts`` counts executions (1 = first try
    succeeded); ``failure_kind`` classifies the *final* failure (one of
    :data:`FAIL_EXCEPTION`/:data:`FAIL_CRASH`/:data:`FAIL_TIMEOUT`/
    :data:`FAIL_TRANSPORT`); ``stderr_tail`` is the last stderr output of
    the job process that failed it, when it wrote any; ``resumed`` marks
    results restored from a sweep checkpoint rather than executed.

    ``duration_s`` is the job's shared run plus the alone-replay seconds
    attributable to it, so durations still sum to the sweep's busy time
    although replays run as tasks of their own; ``cache`` likewise folds
    in the curve files those tasks wrote for it.  A replay overlapped with
    the shared runs costs the job only what the sweep still waited for its
    answer.
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
    #: its counts, and the wait for its overlapped replays' answers; the
    #: rest is its shared run.
    replay_s: float = 0.0
    #: Alone replays the shared run left to the sweep's replay phase, or
    #: to its helpers (``chased``).  In-flight state: empty on every
    #: outcome :func:`run_jobs` returns.
    deferred: list[ReplayRequest] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None

    def land(
        self,
        req: ReplayRequest,
        clock: AloneClock | None,
        seconds: float = 0.0,
        credit: bool = False,
        failure: tuple[str, str, str | None] | None = None,
    ) -> bool:
        """Land one of the alone replays this job is owed: its ``clock``,
        the ``seconds`` it cost this job and, ``credit``, the curve file it
        wrote — or the ``failure`` (kind, error, stderr tail) that fails the
        job.  Returns whether the job is settled: failed, or its last clock
        in.  A job already failed takes nothing more."""
        if self.ok:
            self.deferred.remove(req)
            if failure is not None:
                self.result = None
                self.failure_kind, self.error, self.stderr_tail = failure
            else:
                self.result.set_alone(req.trajectory.stream_id, clock.cycles)
                self.duration_s += seconds
                self.replay_s += seconds
                if credit and self.cache is not None:
                    self.cache["stores"] += 1
        if not self.ok:
            self.deferred = []
        return not self.deferred

    def unwrap(self) -> WorkloadResult:
        if self.result is None:
            raise RuntimeError(
                f"workload {self.job.key!r} failed:\n{self.error}"
            )
        return self.result


def _run_workload_job(
    job: WorkloadJob,
    deferred: list[ReplayRequest] | None = None,
    chase: "dict[int, _Chaser] | None" = None,
) -> tuple[WorkloadResult, dict | None]:
    """Run one job; returns the result plus alone-replay cache counters.

    With ``deferred`` this is a sweep's phase 1: replays the cache cannot
    serve land in the list instead of being simulated — those of the apps
    in ``chase`` as asks their helper will answer.
    """
    policy = None
    if job.policy is not None:
        try:
            factory = POLICIES[job.policy]
        except KeyError:
            raise ValueError(
                f"unknown policy {job.policy!r}; choose from {sorted(POLICIES)}"
            ) from None
        policy = factory(job.config)
    cache: AloneReplayCache | None = (
        AloneReplayCache(job.cache_dir) if job.cache_dir else None
    )
    result = run_workload(
        list(job.apps),
        config=job.config,
        shared_cycles=job.shared_cycles,
        sm_partition=job.sm_partition,
        models=job.models,
        policy=policy,
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
    An ``execute()``-style job, so it runs under the same process, timeout,
    retry and bus machinery as any other.
    """

    trajectory: AloneTrajectory
    counts: tuple[int, ...]

    #: Bus records of replay tasks carry this, so SweepStats can tell them
    #: from the sweep's own jobs.
    kind = "replay"

    @property
    def key(self) -> str:
        t = self.trajectory
        return f"replay:{t.spec.name}#{t.stream_id}"

    def execute(self) -> dict[int, AloneClock]:
        t = self.trajectory
        return replay_alone(
            t.spec, t.stream_id, t.config, self.counts, t.cache(),
            t.max_cycles,
        )


def _guarded(
    indexed_job: tuple[int, WorkloadJob],
    chase: "dict[int, _Chaser] | None" = None,
) -> JobOutcome:
    """Top-level (picklable) wrapper: never raises, captures tracebacks.

    A job exposing ``execute()`` (:class:`ReplayJob`,
    :class:`repro.faults.ChaosJob`) runs that; everything else is a
    :class:`WorkloadJob`, run as phase 1 of the sweep — feeding and asking
    the helpers in ``chase`` (:class:`_Helpers`).
    """
    index, job = indexed_job
    t0 = time.perf_counter()
    try:
        execute = getattr(job, "execute", None)
        if execute is not None:
            return JobOutcome(index, job, result=execute(),
                              duration_s=time.perf_counter() - t0)
        deferred: list[ReplayRequest] = []
        result, cache_stats = _run_workload_job(job, deferred, chase)
        return JobOutcome(index, job, result=result,
                          duration_s=time.perf_counter() - t0,
                          cache=cache_stats, deferred=deferred)
    except Exception:
        return JobOutcome(index, job, error=traceback.format_exc(),
                          duration_s=time.perf_counter() - t0,
                          failure_kind=FAIL_EXCEPTION)


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
    chase: "dict[int, _Chaser] | None" = None,
) -> JobOutcome:
    """Run one guarded attempt, bracketed by bus records when enabled.

    Shared by the inline path and the pooled job process so both emit
    the same job_start/span/job_end stream (the inline==pooled SweepStats
    determinism contract).  ``serialize`` additionally times a result
    pickle round — the transport cost a pooled job pays and an inline one
    does not, so it is only recorded in job processes.
    """
    if ch is not None:
        ch.job_start(
            sweep or "?", index, getattr(job, "key", repr(job)),
            attempt=attempt, submit_ts=submit_ts,
            kind=getattr(job, "kind", None),
        )
    dump = (
        str(obs_bus.profile_path(bus_dir, index, attempt))
        if profile and bus_dir else None
    )
    # The dump is made after the outcome is in: a bus dir that vanished
    # meanwhile costs the profile, not the attempt.
    with contextlib.suppress(OSError), profiled(dump):
        outcome = _guarded((index, job), chase)
    outcome.attempts = attempt
    if ch is None:
        return outcome
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


# --------------------------------------------------------------------------
# Ambient sweep configuration
# --------------------------------------------------------------------------

#: Ambient sweep defaults, consumed by :func:`run_jobs` when the caller
#: passes None, so a CLI entry point's ``--progress/--timeout/--retries/
#: --resume-dir/--sweep-trace`` flags reach every sweep a figure driver
#: runs without new parameters on each driver.  ``progress`` is a factory,
#: ``total_jobs -> reporter or None``.
_SWEEP_DEFAULTS: dict = {
    "progress": None,
    "timeout_s": None,
    "retries": 0,
    "checkpoint_dir": None,
    "bus_dir": None,
    "profile": False,
}

#: Monotone per-process counter distinguishing sweeps that share one bus
#: directory (a figure driver may run several run_jobs calls), and the
#: (pid, random token) of the process it counts for.
_SWEEP_SEQ = 0
_SWEEP_PROCESS: tuple[int, str] | None = None


def _next_sweep_id() -> str:
    """``<pid>-<token>-<n>``: the ``n``-th sweep of this process.  The token
    is drawn once per process start (a forked child draws its own), so a pid
    the OS hands out twice — the daemon's job processes come and go — does
    not name a second process's sweeps as the first one's."""
    global _SWEEP_SEQ, _SWEEP_PROCESS
    pid = os.getpid()
    if _SWEEP_PROCESS is None or _SWEEP_PROCESS[0] != pid:
        _SWEEP_PROCESS = (pid, os.urandom(4).hex())
        _SWEEP_SEQ = 0
    _SWEEP_SEQ += 1
    return f"{pid}-{_SWEEP_PROCESS[1]}-{_SWEEP_SEQ}"


def _check_retries(retries: int) -> None:
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")


def set_sweep_defaults(**changes) -> None:
    """Set ambient sweep defaults (only the passed ones): any of the
    :data:`_SWEEP_DEFAULTS` keys.

    ``progress`` is called with the job count of each sweep and returns an
    object with ``job_done(outcome)`` / ``close()`` (duck-typed; see
    :class:`repro.obs.SweepProgress`), or None to skip that sweep.
    ``bus_dir`` enables the cross-worker telemetry bus
    (:mod:`repro.obs.bus`) for every subsequent sweep; ``profile``
    additionally cProfiles each job into the bus directory.
    """
    unknown = changes.keys() - _SWEEP_DEFAULTS.keys()
    if unknown:
        raise TypeError(f"unknown sweep defaults: {sorted(unknown)}")
    if "retries" in changes:
        _check_retries(changes["retries"])
    if "profile" in changes:
        changes["profile"] = bool(changes["profile"])
    _SWEEP_DEFAULTS.update(changes)


def set_default_progress(factory: Callable[[int], object] | None) -> None:
    """``set_sweep_defaults(progress=factory)``: install (or clear, with
    None) the ambient sweep-progress factory."""
    set_sweep_defaults(progress=factory)


def sweep_defaults() -> dict:
    """A copy of the current ambient sweep defaults."""
    return dict(_SWEEP_DEFAULTS)


#: The wait after a job's first failed attempt, in seconds; each later one
#: doubles it (:func:`_backoff_s`).
BACKOFF_S = 0.5


def _backoff_s(attempt: int) -> float:
    """How long a job waits after its failed ``attempt`` before the next:
    ``BACKOFF_S · 2^(attempt−1)``, capped at 30 s, ±25 % jitter."""
    if BACKOFF_S <= 0:
        return 0.0
    delay = min(BACKOFF_S * (2 ** (attempt - 1)), 30.0)
    return delay * (1.0 + 0.25 * (2.0 * random.random() - 1.0))


# --------------------------------------------------------------------------
# The sweep loop
# --------------------------------------------------------------------------


def run_jobs(
    jobs: Sequence[WorkloadJob],
    n_jobs: int | None = None,
    progress=None,
    *,
    timeout_s: float | None = None,
    retries: int | None = None,
    checkpoint: "SweepCheckpoint | str | os.PathLike | None" = None,
    bus: "str | os.PathLike | None" = None,
    profile: bool | None = None,
) -> list[JobOutcome]:
    """Execute ``jobs``, up to ``n_jobs`` at once, each attempt in a forked
    process of its own.

    ``n_jobs`` of 1 (or 0) runs inline, strictly in this process (no fork,
    no pickling, no helper): every alone replay the cache cannot serve runs
    here, in the replay phase, at this process's own priority — handy for
    debugging, for callers that just want the failure-capturing contract,
    and for callers with no CPU to spare (``repro serve`` when every other
    slot is busy).  None, the default, runs the jobs inline too, and where
    there is a spare CPU to do it on (:func:`_can_overlap`) replays each
    alone trajectory whose askers are one consecutive run of jobs in a
    nice-19 helper process that chases their shared runs
    (docs/parallel-harness.md, "Overlapped replays").  Both take the same
    direct-call path, so their results are bit-identical; only where the
    replay CPU time is spent differs.  Outcomes always come back ordered by
    submission index, regardless of which job finished first, and a job
    that fails — by raising, by killing its process, by hanging past
    ``timeout_s``, or by returning a result the parent cannot unpickle — is
    returned as a failed :class:`JobOutcome` rather than aborting the rest.

    ``retries`` (>= 0, else ``ValueError``) re-runs failed attempts (any
    failure kind) up to that many extra times, each after
    ``BACKOFF_S · 2^(attempt−1)`` seconds (:data:`BACKOFF_S`, ±25% jitter,
    capped at 30 s).  ``timeout_s`` kills the process of an attempt that
    exceeds it; only an attempt in a process of its own can be preempted,
    so a sweep with a timeout runs that way whatever ``n_jobs`` says —
    one attempt at a time where it would have run inline.  ``checkpoint``
    names a directory for partial-sweep durability: completed
    :class:`WorkloadResult`s are restored from it instead of recomputed,
    and newly completed ones are appended to it.  Each of these falls back
    to the ambient default (:func:`set_sweep_defaults`) when None.

    :class:`WorkloadJob` sweeps run in phases (module docstring): shared
    runs first, then one alone replay per application trajectory instead
    of one per pairing, with identical results.  Each job runs as it was
    resolved when built — config, window and cache directory included.  ``timeout_s`` and
    ``retries`` apply to a replay task as to any job.

    ``progress`` (or, if None, what the ambient ``progress`` factory
    returns — :func:`set_sweep_defaults`) receives each :class:`JobOutcome`
    as it *settles* (its replays in) — completion order, not submission
    order — via ``job_done``, then ``close()`` when the sweep ends.

    ``bus`` names a :mod:`repro.obs.bus` directory: every job process (and
    the inline path) streams job_start/span/job_end records into its own
    JSONL channel there, and the parent adds sweep + settled-outcome
    records, so crashed jobs still leave an attributable trail.
    ``profile`` (requires ``bus``) cProfiles each job attempt into the
    same directory for a sweep-wide merged hot-function table.  Both fall
    back to the ambient defaults when None.
    """
    if retries is None:
        retries = _SWEEP_DEFAULTS["retries"]
    _check_retries(retries)
    indexed = list(enumerate(jobs))
    if not indexed:
        return []
    if timeout_s is None:
        timeout_s = _SWEEP_DEFAULTS["timeout_s"]
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
    if prog is None and _SWEEP_DEFAULTS["progress"] is not None:
        prog = _SWEEP_DEFAULTS["progress"](len(indexed))

    ch = None
    sweep_id = None
    prev_ch = None
    if bus_dir is not None:
        sweep_id = _next_sweep_id()
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
        # process died hard gets beyond its job_start, and the source
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

    def run_phase(todo, done, chased=()) -> None:
        if not pooled:
            _run_inline(
                todo, retries, done, chased,
                ch=ch, sweep=sweep_id, profile=profile, bus_dir=bus_dir,
            )
        elif todo:
            _run_pool(
                todo, n_workers, timeout_s, retries, done,
                sweep=sweep_id, bus_dir=bus_dir, profile=profile,
            )

    try:
        if cp is not None:
            for index, result in sorted(cp.load().items()):
                settle(JobOutcome(
                    index, jobs[index], result=result, resumed=True,
                ))
        # Phase 1: every job's shared run.  Jobs whose replays all came
        # from the cache, or from helpers, settle here; a warm sweep ends
        # here.
        todo = [(i, job) for i, job in indexed if i not in outcomes]
        chased = []
        if n_jobs is None and not pooled and not profile and _can_overlap():
            chased = _chase_census(todo)
        run_phase(todo, shared_run_done, chased)
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
        method == "fork" and forked.usable_cpus() >= 2
        and not multiprocessing.current_process().daemon
    )


@dataclass
class _Chased:
    """One alone trajectory whose askers are one consecutive run of a
    sweep's jobs (:func:`_chase_census`): what :class:`_Helpers` forks a
    :class:`_Chaser` for."""

    trajectory: AloneTrajectory
    #: The indices of the jobs that ask for it, in turn order.
    askers: list[int] = field(default_factory=list)


def _chase_census(todo: list[tuple[int, object]]) -> list[_Chased]:
    """The asker census: the alone trajectories to replay in helpers.

    A trajectory qualifies when the jobs that will ask for it are one
    consecutive run of ``todo`` — a private trajectory is a run of one — so
    one helper serves them all and lives only as long as the run.  Anything
    else waits for the replay phase: askers apart (fig9's even-then-fair
    order), or an open-system asker (an arrival's residency is not known up
    front).  Counted before anything runs, from what :func:`run_workload`
    will replay: every app of the roster, keyed as :class:`_ReplayPlan` keys
    the requests it is left with.
    """
    #: Trajectory key → its census entry, or None once it cannot be chased.
    found: dict[tuple, _Chased | None] = {}
    #: Trajectory key → the turn of its latest asker.
    latest: dict[tuple, int] = {}
    for turn, (index, job) in enumerate(todo):
        if not isinstance(job, WorkloadJob):
            continue
        roster = list(job.apps)
        open_system = job.arrivals is not None and not job.arrivals.is_null
        if job.arrivals is not None:
            roster += [a.app for a in job.arrivals.arrivals]
        try:
            specs = [_resolve(a)[1] for a in roster]
        except KeyError:
            continue  # an unknown app: the job fails on its own, in its turn
        max_cycles = alone_budget(job.shared_cycles)
        for stream_id, spec in enumerate(specs):
            trajectory = AloneTrajectory(spec, stream_id, job.config,
                                         max_cycles, job.cache_dir)
            key = trajectory.key
            if key not in found:
                found[key] = _Chased(trajectory)
            elif found[key] is None:
                continue
            if open_system or latest.get(key, turn - 1) != turn - 1:
                found[key] = None
                continue
            found[key].askers.append(index)
            latest[key] = turn
    return [entry for entry in found.values() if entry is not None]


class _ReplayPlan:
    """Which alone trajectories a sweep's deferred replays need, and which
    jobs wait on each (requests grouped by :attr:`AloneTrajectory.key`).
    """

    def __init__(self, waiting: dict[int, JobOutcome], first_index: int):
        self.waiting = waiting
        self.first_index = first_index
        by_trajectory: dict[tuple, list[tuple[int, ReplayRequest]]] = {}
        for index in sorted(waiting):
            for req in waiting[index].deferred:
                by_trajectory.setdefault(req.trajectory.key, []).append(
                    (index, req))
        #: Per task: the (job index, request) pairs it serves.
        self.askers = list(by_trajectory.values())
        self.tasks = [
            ReplayJob(askers[0][1].trajectory,
                      tuple(req.instructions for _, req in askers))
            for askers in self.askers
        ]

    def todo(self) -> list[tuple[int, ReplayJob]]:
        return list(enumerate(self.tasks, self.first_index))

    def deliver(self, task: JobOutcome) -> list[JobOutcome]:
        """Apply one finished replay task; returns the jobs it completes
        (or, failed for good, takes down with it), ready to settle.  A
        clock's seconds are shared by the jobs that asked for its count,
        and the curve file it wrote is credited to the first of them."""
        askers = self.askers[task.index - self.first_index]
        failure = None
        clocks: dict[int, AloneClock] = {}
        if task.ok:
            clocks = task.result
        else:
            failure = (
                task.failure_kind,
                f"alone replay {task.job.key} failed after "
                f"{task.attempts} attempt(s):\n{task.error}",
                task.stderr_tail,
            )
        sharers = Counter(req.instructions for _, req in askers)
        #: Counts whose curve write is still to be credited.
        stored = {n for n, clock in clocks.items() if clock.stored}
        done: list[JobOutcome] = []
        for index, req in askers:
            outcome = self.waiting.get(index)
            if outcome is None:
                continue  # already failed by another of its replays
            clock = clocks.get(req.instructions)
            seconds = clock.seconds / sharers[req.instructions] if clock else 0.0
            credit = req.instructions in stored
            stored.discard(req.instructions)
            if outcome.land(req, clock, seconds, credit, failure):
                done.append(self.waiting.pop(index))
        return done


class _Helpers:
    """An inline sweep's :class:`_Chaser`\\ s, and the jobs owed answers.

    A helper is forked when the turn of the first job that asks for its
    trajectory comes — before that job builds its shared machine — and
    reaped once the last one has its answer.  A job whose turn is over
    waits here, in turn order, for the answers it asked for; as they land
    it gets its alone cycles and goes on to ``done``.  Each answer's wait
    is the job's: it adds to ``duration_s`` and ``replay_s``, and the span
    of the trajectory it came from is recorded against the job that
    collected its last answer.
    """

    def __init__(self, chased: Sequence[_Chased], ch, sweep: str | None):
        #: First asker → the trajectories whose helper its turn forks.
        self._first: dict[int, list[_Chased]] = {}
        for entry in chased:
            self._first.setdefault(entry.askers[0], []).append(entry)
        #: Job index → its helpers, by app position.
        self._of_job: dict[int, dict[int, _Chaser]] = {}
        #: Job index → the helpers it is the last to ask.
        self._last: dict[int, list[_Chaser]] = {}
        #: Live helper → what it still owes: each answer asked for and not
        #: collected, and one more until its last asker has had its turn.
        self._owed: Counter = Counter()
        #: (outcome, [(helper, request)]) of jobs owed answers, turn order.
        self._waiting: deque = deque()
        self._ch = ch
        self._sweep = sweep

    def start(self, index: int) -> dict[int, _Chaser]:
        """Fork the helpers job ``index`` is the first to ask; its helpers."""
        for entry in self._first.pop(index, ()):
            chaser = _Chaser(entry.trajectory)
            self._owed[chaser] = 1
            self._last.setdefault(entry.askers[-1], []).append(chaser)
            for asker in entry.askers:
                self._of_job.setdefault(asker, {})[
                    entry.trajectory.stream_id] = chaser
        return self._of_job.get(index, {})

    def ran(self, outcome: JobOutcome) -> None:
        """Job ``outcome.index``'s turn is over: it waits for what it asked."""
        helpers = self._of_job.pop(outcome.index, {})
        asks = [(helpers[req.trajectory.stream_id], req)
                for req in outcome.deferred if req.chased]
        self._owed.update(chaser for chaser, _ in asks)
        self._waiting.append((outcome, asks))
        with self._serving(outcome.index):
            for chaser in self._last.pop(outcome.index, ()):
                self._paid(chaser)

    def collect(self, done: Callable[[JobOutcome], None], keep: int) -> None:
        """Hand the waiting jobs to ``done``, in turn order: all but the
        last ``keep`` once their answers are in, those only if they are."""
        while self._waiting:
            outcome, asks = self._waiting[0]
            if (len(self._waiting) <= keep
                    and not all(chaser.ready() for chaser, _ in asks)):
                return
            self._waiting.popleft()
            with self._serving(outcome.index):
                for chaser, req in asks:
                    self._answer(outcome, chaser, req)
            done(outcome)

    def _answer(self, outcome: JobOutcome, chaser: _Chaser,
                req: ReplayRequest) -> None:
        try:
            clock = chaser.answer(req.instructions)
        except Exception:  # noqa: BLE001 - the replay's own error, as inline
            outcome.land(req, None, failure=(
                FAIL_EXCEPTION, traceback.format_exc(), None))
        else:
            outcome.land(req, clock, clock.seconds, clock.stored)
        finally:
            self._paid(chaser)

    def _paid(self, chaser: _Chaser) -> None:
        """One thing ``chaser`` owed is settled; reap it when it owes none."""
        self._owed[chaser] -= 1
        if not self._owed[chaser]:
            del self._owed[chaser]
            chaser.close(report=True)

    def _serving(self, index: int):
        if self._ch is None:
            return contextlib.nullcontext()
        return self._ch.serving(self._sweep, index)

    def close(self) -> None:
        """Reap every helper still alive (a sweep cut short)."""
        for chaser in self._owed:
            chaser.close()
        self._owed.clear()


def _run_inline(
    todo: list[tuple[int, object]],
    retries: int,
    done: Callable[[JobOutcome], None],
    chased: Sequence[_Chased] = (),
    ch: "obs_bus.WorkerChannel | None" = None,
    sweep: str | None = None,
    profile: bool = False,
    bus_dir: str | None = None,
) -> None:
    """The in-process path: sequential, with the same retry accounting.

    There is no timeout here — no process to kill without taking the caller
    down with it; :func:`run_jobs` forks the attempts of a sweep that has
    one.  ``chased`` (:func:`_chase_census`) are the trajectories replayed
    by helper processes (:class:`_Helpers`).  A job's shared run does not
    wait for the answers the previous one asked for: before each turn only
    those owed to the jobs before the previous one are waited for, so the
    helpers alive at once serve at most two jobs; the rest are waited for
    at the end.  With a bus enabled the parent's own channel doubles as
    the worker channel (no dequeue/serialize spans — there is no
    transport).
    """
    helpers = _Helpers(chased, ch, sweep)
    try:
        for index, job in todo:
            helpers.collect(done, keep=1)
            chase = helpers.start(index)
            attempt = 0
            while True:
                attempt += 1
                outcome = _observed_run(
                    index, job, attempt, ch, sweep, profile, bus_dir,
                    chase=chase,
                )
                if outcome.ok or attempt > retries:
                    break
                time.sleep(_backoff_s(attempt))
            helpers.ran(outcome)
        helpers.collect(done, keep=0)
    finally:
        helpers.close()


def _attempt_main(  # pragma: no cover - runs in the job process
    conn, index: int, job, attempt: int, stderr: str, slot: int,
    sweep: str | None, bus_dir: str | None, profile: bool,
    submit_ts: float | None,
) -> None:
    """A pooled job process: fd 2 into ``stderr`` (what a hard death
    leaves behind), one guarded attempt, and its outcome sent back."""
    fd = os.open(stderr, os.O_CREAT | os.O_WRONLY | os.O_TRUNC, 0o644)
    os.dup2(fd, 2)
    os.close(fd)
    ch = obs_bus.activate(bus_dir) if bus_dir else None
    if ch is not None:
        ch.slot = slot
    outcome = _observed_run(
        index, job, attempt, ch, sweep, profile, bus_dir,
        submit_ts=submit_ts, serialize=ch is not None,
    )
    try:
        conn.send(outcome)
    except Exception as exc:  # noqa: BLE001 - the result will not pickle
        key = getattr(job, "key", repr(job))
        conn.send(JobOutcome(
            index, job, attempts=attempt, failure_kind=FAIL_TRANSPORT,
            duration_s=outcome.duration_s,
            error=f"[{FAIL_TRANSPORT}] job {key!r} attempt {attempt}: "
                  f"the result was lost: {type(exc).__name__}: {exc}",
        ))


@dataclass
class _Attempt:
    """One job attempt's process, while it runs."""

    index: int
    job: object
    attempt: int
    slot: int
    proc: object
    stderr: str
    t0: float = field(default_factory=time.monotonic)

    def failed(self, kind: str, desc: str) -> JobOutcome:
        """The outcome of this attempt, failed by what the parent saw."""
        try:
            with open(self.stderr, errors="replace") as fh:
                tail = fh.read().strip()[-2000:] or None
        except OSError:
            tail = None
        key = getattr(self.job, "key", repr(self.job))
        error = f"[{kind}] job {key!r} attempt {self.attempt}: {desc}"
        if tail:
            error += f"\n--- job process stderr tail ---\n{tail}"
        return JobOutcome(
            self.index, self.job, error=error, attempts=self.attempt,
            failure_kind=kind, stderr_tail=tail,
            duration_s=time.monotonic() - self.t0,
        )

    def verdict(self, conn, timeout_s: float | None) -> JobOutcome | None:
        """The attempt's outcome once it has one; None while it runs."""
        try:
            outcome = forked.hear(self.proc, conn, 0)
        except forked.Lost as lost:
            if lost.died:
                return self.failed(FAIL_CRASH, f"job process (pid "
                                   f"{self.proc.pid}) died without "
                                   f"unwinding: {lost.how}")
            return self.failed(FAIL_TRANSPORT, "job process finished but "
                               f"the result was lost: {lost.how}")
        if outcome is None and timeout_s is not None \
                and time.monotonic() - self.t0 > timeout_s:
            self.proc.kill()
            return self.failed(FAIL_TIMEOUT, "killed after exceeding the "
                               f"per-job timeout of {timeout_s}s")
        return outcome


def _run_pool(
    todo: list[tuple[int, object]],
    n_workers: int,
    timeout_s: float | None,
    retries: int,
    settle: Callable[[JobOutcome], None],
    sweep: str | None = None,
    bus_dir: str | None = None,
    profile: bool = False,
) -> None:
    """Every attempt in a forked process of its own, at most ``n_workers``
    at once, each in a numbered slot (module docstring).  Nothing this
    starts outlives it, whatever it raises."""
    scratch = tempfile.mkdtemp(prefix="repro-sweep-")
    #: (not before, index, job, attempt), in the order they were queued.
    queue = [(0.0, index, job, 1) for index, job in todo]
    running: dict = {}  # the parent's end of its pipe -> _Attempt
    try:
        while queue or running:
            free = sorted(set(range(n_workers))
                          - {a.slot for a in running.values()})
            now = time.monotonic()
            for entry in [e for e in queue if e[0] <= now][:len(free)]:
                queue.remove(entry)
                _, index, job, attempt = entry
                slot = free.pop(0)
                stderr = os.path.join(scratch,
                                      f"stderr-{index}-{attempt}.log")
                proc, conn = forked.spawn(
                    _attempt_main, index, job, attempt, stderr, slot, sweep,
                    bus_dir, profile, time.time() if bus_dir else None,
                    daemon=True,
                )
                running[conn] = _Attempt(index, job, attempt, slot, proc,
                                         stderr)
            multiprocessing.connection.wait(list(running), timeout=0.05)
            for conn, a in list(running.items()):
                outcome = a.verdict(conn, timeout_s)
                if outcome is None:
                    continue
                del running[conn]
                forked.reap(a.proc, conn)
                if outcome.ok or a.attempt > retries:
                    settle(outcome)
                else:
                    queue.append((
                        time.monotonic() + _backoff_s(a.attempt),
                        a.index, a.job, a.attempt + 1,
                    ))
    finally:
        for conn, a in running.items():
            forked.reap(a.proc, conn)
        shutil.rmtree(scratch, ignore_errors=True)


def workload_jobs(
    workloads: Sequence[Sequence[KernelSpec | str]],
    config: GPUConfig | None = None,
    shared_cycles: int | None = None,
    sm_partition: Sequence[int] | None = None,
    models: Sequence[str] = ("DASE", "MISE", "ASM"),
    policy: str | None = None,
    cache_dir: str | None = None,
    faults: "FaultPlan | None" = None,
    arrivals: "ArrivalSchedule | None" = None,
) -> list[WorkloadJob]:
    """One :class:`WorkloadJob` per workload, sharing every run parameter;
    each job resolves what is left None as :class:`WorkloadJob` says —
    ``cache_dir`` to ``$REPRO_CACHE_DIR`` when that is set.  Drivers that
    compare several parameter sets over the same workloads concatenate the
    lists into one :func:`run_jobs` sweep, so each application's alone
    trajectory is simulated once for all of them.
    """
    return [
        WorkloadJob(
            apps=combo, config=config, shared_cycles=shared_cycles,
            sm_partition=sm_partition, models=models, policy=policy,
            cache_dir=cache_dir, faults=faults, arrivals=arrivals,
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
    cache_dir: str | None = None,
    faults: "FaultPlan | None" = None,
    arrivals: "ArrivalSchedule | None" = None,
) -> list[JobOutcome]:
    """Sweep many workloads under one shared set of run parameters
    (:func:`workload_jobs`) through :func:`run_jobs`, whose progress,
    timeout, retries and checkpoint are the ambient sweep defaults.

    ``jobs`` is ``run_jobs``' ``n_jobs``: None overlaps alone replays with
    the shared runs in helper processes where a CPU is spare, 1 runs
    everything in this process, N forks one process per job attempt; the
    results are the same for each."""
    specs = workload_jobs(
        workloads, config=config, shared_cycles=shared_cycles,
        sm_partition=sm_partition, models=models, policy=policy,
        cache_dir=cache_dir, faults=faults, arrivals=arrivals,
    )
    return run_jobs(specs, n_jobs=jobs)
