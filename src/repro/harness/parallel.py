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
  name, fault plan, cache directory);
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
exponential backoff + jitter while the other jobs run on.  Replay tasks
are ``execute()``-style jobs in the same machinery, so all of the above
holds for them; one that stays failed fails exactly the jobs waiting on
it, with its ``failure_kind``.  ``checkpoint`` (a directory) makes
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
    config_fingerprint,
    resolve_cache,
    spec_fingerprint,
)
from repro.obs import bus as obs_bus
from repro.harness.runner import (
    AloneClock,
    ReplayRequest,
    WorkloadResult,
    _Chaser,
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
    config = job.config or scaled_config()
    policy = None
    if job.policy is not None:
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
    An ``execute()``-style job, so it runs under the same process, timeout,
    retry and bus machinery as any other.
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
    if ch is None:
        outcome = _guarded((index, job), chase)
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
        outcome = _guarded((index, job), chase)
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


def _backoff_s(backoff_s: float, attempt: int) -> float:
    """How long a job waits after its failed ``attempt`` before the next:
    ``backoff_s · 2^(attempt−1)``, capped at 30 s, ±25 % jitter."""
    if backoff_s <= 0:
        return 0.0
    delay = min(backoff_s * (2 ** (attempt - 1)), 30.0)
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
    backoff_s: float | None = None,
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

    ``retries`` re-runs failed attempts (any failure kind) up to that many
    extra times, each after ``backoff_s · 2^(attempt−1)`` (±25% jitter,
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
    of one per pairing, with identical results.  ``timeout_s`` and
    ``retries`` apply to a replay task as to any job.

    ``progress`` (or, if None, the factory installed with
    :func:`set_default_progress`) receives each :class:`JobOutcome` as it
    *settles* (its replays in) — completion order, not submission order —
    via ``job_done``, then ``close()`` when the sweep ends.

    ``bus`` names a :mod:`repro.obs.bus` directory: every job process (and
    the inline path) streams job_start/span/job_end records into its own
    JSONL channel there, and the parent adds sweep + settled-outcome
    records, so crashed jobs still leave an attributable trail.
    ``profile`` (requires ``bus``) cProfiles each job attempt into the
    same directory for a sweep-wide merged hot-function table.  Both fall
    back to the ambient defaults when None.
    """
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
                todo, retries, backoff_s, done, chased,
                ch=ch, sweep=sweep_id, profile=profile, bus_dir=bus_dir,
            )
        elif todo:
            _run_pool(
                todo, n_workers, timeout_s, retries, backoff_s, done,
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


@dataclass
class _Chased:
    """One alone trajectory whose askers are one consecutive run of a
    sweep's jobs (:func:`_chase_census`): what :class:`_Helpers` forks a
    :class:`_Chaser` for."""

    spec: KernelSpec
    stream_id: int
    config: GPUConfig
    max_cycles: int
    cache_dir: str | None
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
    #: Trajectory → its census entry, or None once it cannot be chased.
    found: dict[tuple, _Chased | None] = {}
    #: Trajectory → the turn of its latest asker.
    latest: dict[tuple, int] = {}
    for turn, (index, job) in enumerate(todo):
        if not isinstance(job, WorkloadJob):
            continue
        config = job.config or scaled_config()
        max_cycles = alone_budget(job.shared_cycles or default_shared_cycles())
        roster = list(job.apps)
        open_system = job.arrivals is not None and not job.arrivals.is_null
        if job.arrivals is not None:
            roster += [a.app for a in job.arrivals.arrivals]
        try:
            specs = [_resolve(a)[1] for a in roster]
        except KeyError:
            continue  # an unknown app: the job fails on its own, in its turn
        for stream_id, spec in enumerate(specs):
            key = _trajectory(spec, stream_id, config, max_cycles,
                              job.cache_dir)
            if key not in found:
                found[key] = _Chased(spec, stream_id, config, max_cycles,
                                     job.cache_dir)
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
            cache = (AloneReplayCache(entry.cache_dir) if entry.cache_dir
                     else None)
            chaser = _Chaser(entry.spec, entry.stream_id, entry.config,
                             cache, entry.max_cycles)
            self._owed[chaser] = 1
            self._last.setdefault(entry.askers[-1], []).append(chaser)
            for asker in entry.askers:
                self._of_job.setdefault(asker, {})[entry.stream_id] = chaser
        return self._of_job.get(index, {})

    def ran(self, outcome: JobOutcome) -> None:
        """Job ``outcome.index``'s turn is over: it waits for what it asked."""
        helpers = self._of_job.pop(outcome.index, {})
        asks = [(helpers[req.stream_id], req)
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
            if not outcome.ok:
                outcome.deferred = []
            done(outcome)

    def _answer(self, outcome: JobOutcome, chaser: _Chaser,
                req: ReplayRequest) -> None:
        outcome.deferred.remove(req)
        try:
            clock = chaser.answer(req.instructions)
        except Exception:  # noqa: BLE001 - the replay's own error, as inline
            if outcome.ok:
                outcome.result = None
                outcome.failure_kind = FAIL_EXCEPTION
                outcome.error = traceback.format_exc()
        else:
            outcome.duration_s += clock.seconds
            outcome.replay_s += clock.seconds
            if outcome.ok:
                outcome.result.set_alone(req.stream_id, clock.cycles)
                if clock.stored and outcome.cache is not None:
                    outcome.cache["stores"] += 1
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
    backoff_s: float,
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
                time.sleep(_backoff_s(backoff_s, attempt))
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
    backoff_s: float,
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
                        time.monotonic() + _backoff_s(backoff_s, a.attempt),
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
        warmup_intervals=warmup_intervals, cache_dir=cache_dir,
        faults=faults, arrivals=arrivals,
    )
    return run_jobs(specs, n_jobs=jobs)
