"""Matched-instruction evaluation methodology (paper §5).

The paper's procedure, verbatim:

1. run the heterogeneous workload for a fixed cycle window (5M cycles in
   the paper; scaled down by default here — set ``REPRO_FULL=1`` to restore
   paper scale), restarting any application that finishes early;
2. record how many instructions each application completed;
3. replay each application *alone on the full GPU* for exactly that many
   instructions;
4. actual slowdown_i = T_shared / T_alone_i (equivalently
   IPC_alone / IPC_shared over the same instruction count).

Estimator outputs are read from the same shared run, so every estimate is
compared against the ground truth of the execution it observed.
"""

from __future__ import annotations

import contextlib
import os
import time
import traceback
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from repro import forked
from repro.config import GPUConfig
from repro.core import ASM, DASE, MISE, PriorityRotator, SlowdownEstimator
from repro.harness.replay_cache import (
    AloneReplayCache,
    config_fingerprint,
    spec_fingerprint,
)
from repro.metrics import (
    estimation_error,
    gini,
    harmonic_speedup,
    jains_index,
    tail_slowdown,
    unfairness,
)
from repro.obs import bus as obs_bus
from repro.obs.telemetry import Telemetry
from repro.obs.tracer import Observation
from repro.sim.gpu import GPU, LaunchedKernel
from repro.sim.kernel import KernelSpec
from repro.workloads import SUITE

if TYPE_CHECKING:  # pragma: no cover - only the annotations need these
    from repro.faults.inject import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.opensys.schedule import ArrivalSchedule

#: Estimation intervals at the start of a shared run left out of every
#: mean estimate: the first interval is the estimators' warm-up.
WARMUP_INTERVALS = 1


def full_scale() -> bool:
    """True when the environment requests paper-scale cycle budgets."""
    return os.environ.get("REPRO_FULL", "") not in ("", "0")


def default_shared_cycles() -> int:
    """Shared-run window: 5M cycles at paper scale, 120K scaled down."""
    return 5_000_000 if full_scale() else 120_000


def scaled_config(**overrides) -> GPUConfig:
    """Baseline config with the estimation interval scaled to the window.

    The paper uses 50K-cycle intervals under a 5M-cycle window (100
    intervals).  At the scaled-down default window we keep the same
    *number* of intervals per run in the same proportion by shrinking the
    interval to 12K cycles, unless the caller overrides it.
    """
    # benchmarks/ledger/micro.py passes backend="reference" and is frozen by
    # BENCHMARK.json: accept that one literal and drop it.
    if overrides.pop("backend", "reference") != "reference":
        raise ValueError(
            "the simulator has one core: the backend option was removed "
            "(results are unchanged)")
    if "interval_cycles" not in overrides and not full_scale():
        overrides["interval_cycles"] = 12_000
    return GPUConfig(**overrides)


@dataclass
class WorkloadResult:
    """Everything measured for one workload run.

    Open-system runs (``arrivals=`` given) add two per-app lists:
    ``resident_cycles`` — cycles inside the app's residency window (equal
    to ``shared_cycles`` for launch-time apps that never depart; 0 for an
    arrival that was never admitted) — and ``waiting_cycles`` — admission
    latency (arrival → first owned SM).  Both stay empty for closed runs.
    An app's ``actual_slowdowns`` entry is ``None`` (and its
    ``alone_cycles`` 0) when it retired no instruction in the window — a
    never-admitted arrival, or a closed run shorter than its first burst:
    there is nothing to replay alone, so no ground truth exists for it.

    Between the phases of a sweep (``run_workload(deferred=...)``) an app
    whose alone replay is still owed has ``None`` in ``alone_cycles`` and
    ``actual_slowdowns``; :meth:`set_alone` fills both.
    """

    names: list[str]
    sm_partition: list[int]
    shared_cycles: int
    instructions: list[int]
    alone_cycles: list[int | None]
    actual_slowdowns: list[float | None]
    estimates: dict[str, list[float | None]]  # model name → per-app estimate
    bandwidth: dict[str, float] = field(default_factory=dict)
    final_sm_partition: list[int] = field(default_factory=list)
    resident_cycles: list[int] = field(default_factory=list)
    waiting_cycles: list[int] = field(default_factory=list)

    def set_alone(self, app: int, cycles: int) -> None:
        """Record ``app``'s alone replay and the slowdown it determines.

        Closed runs compare against the whole window; open-system runs use
        partial-lifetime accounting — an arrival resident for a third of
        the window is not compared against all of it, its slowdown is
        T_resident / T_alone over the same instructions.
        """
        window = (
            self.resident_cycles[app] if self.resident_cycles
            else self.shared_cycles
        )
        self.alone_cycles[app] = cycles
        self.actual_slowdowns[app] = window / cycles

    @property
    def present_slowdowns(self) -> list[float]:
        """Actual slowdowns of apps that have one (closed runs: all)."""
        return [s for s in self.actual_slowdowns if s is not None]

    @property
    def actual_unfairness(self) -> float:
        return unfairness(self.present_slowdowns)

    @property
    def actual_hspeedup(self) -> float:
        return harmonic_speedup(self.present_slowdowns)

    def fairness_metrics(self) -> dict[str, float]:
        """The multi-metric fairness readout over present slowdowns.

        ``gini_wait`` (only when the run was open-system) measures how
        unevenly admission latency was distributed across the roster.
        These metrics deliberately disagree sometimes — see docs/model.md.
        """
        present = self.present_slowdowns
        out = {
            "unfairness": unfairness(present),
            "jain": jains_index(present),
            "p95": tail_slowdown(present, 0.95),
            "p99": tail_slowdown(present, 0.99),
        }
        if self.waiting_cycles:
            out["gini_wait"] = gini([float(w) for w in self.waiting_cycles])
        return out

    def errors(self, model: str) -> list[float]:
        """Per-app |estimate − actual| / actual for one model.

        Apps whose estimate is ``None`` (the model produced nothing for
        them) — or whose *actual* is ``None`` (never-admitted arrival, no
        ground truth) — are skipped here; :meth:`skipped` reports how many,
        so aggregation over workloads can state the true sample count
        instead of quietly averaging over fewer apps than it claims.
        """
        out = []
        for est, act in zip(self.estimates[model], self.actual_slowdowns):
            if est is not None and act is not None:
                out.append(estimation_error(est, act))
        return out

    def skipped(self, model: str) -> int:
        """Number of apps with no (estimate, actual) pair for ``model``."""
        return sum(
            1
            for est, act in zip(self.estimates[model], self.actual_slowdowns)
            if est is None or act is None
        )

    @property
    def skipped_counts(self) -> dict[str, int]:
        """Per-model count of apps that produced no estimate."""
        return {m: self.skipped(m) for m in self.estimates}

    def mean_error(self, model: str) -> float:
        errs = self.errors(model)
        if not errs:
            raise ValueError(f"model {model!r} produced no estimates")
        return sum(errs) / len(errs)

    def to_dict(self) -> dict:
        """Plain JSON-safe dict at full float precision (cache round trip)."""
        return {
            "names": list(self.names),
            "sm_partition": list(self.sm_partition),
            "shared_cycles": self.shared_cycles,
            "instructions": list(self.instructions),
            "alone_cycles": list(self.alone_cycles),
            "actual_slowdowns": list(self.actual_slowdowns),
            "estimates": {m: list(v) for m, v in self.estimates.items()},
            "bandwidth": dict(self.bandwidth),
            "final_sm_partition": list(self.final_sm_partition),
            "resident_cycles": list(self.resident_cycles),
            "waiting_cycles": list(self.waiting_cycles),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WorkloadResult":
        return cls(
            names=list(d["names"]),
            sm_partition=list(d["sm_partition"]),
            shared_cycles=d["shared_cycles"],
            instructions=list(d["instructions"]),
            alone_cycles=list(d["alone_cycles"]),
            actual_slowdowns=list(d["actual_slowdowns"]),
            estimates={m: list(v) for m, v in d["estimates"].items()},
            bandwidth=dict(d.get("bandwidth", {})),
            final_sm_partition=list(d.get("final_sm_partition", [])),
            resident_cycles=list(d.get("resident_cycles", [])),
            waiting_cycles=list(d.get("waiting_cycles", [])),
        )


def _resolve(spec_or_name: KernelSpec | str) -> tuple[str, KernelSpec]:
    if isinstance(spec_or_name, str):
        return spec_or_name, SUITE[spec_or_name]
    return spec_or_name.name, spec_or_name


# ------------------------------------------------------------- alone replays


class AloneClock(NamedTuple):
    """Where an application's alone run stood at one instruction count.

    ``seconds`` is the host time spent getting there: the cache probe for a
    ``cached`` clock, else the simulation from the previous requested count
    (for the first one: from building the GPU) up to this one, including
    the cache store — for an overlapped replay (:class:`_Chaser`), only
    what was still waited for its answer.  ``stored`` says that store
    wrote a curve file.
    """

    cycles: int
    seconds: float
    cached: bool
    stored: bool = False


@dataclass(frozen=True)
class AloneTrajectory:
    """One application alone on the full GPU: the kernel as replayed
    (``spec``, ``stream_id`` — also the app's position in a result), the
    config, the clock budget and the cache directory its clocks go to.

    Each alone replay a sweep owes — left to a replay task or chased by a
    helper — is one count along such a trajectory.
    """

    spec: KernelSpec
    stream_id: int
    config: GPUConfig
    max_cycles: int
    cache_dir: str | None = None

    @property
    def key(self) -> tuple:
        """What makes two alone replays one trajectory: the replay cache's
        own ``spec``/``config`` fingerprints, plus the clock budget and the
        cache, so every asker gets exactly what its own standalone replay
        would have given it."""
        return (
            spec_fingerprint(self.spec, self.stream_id),
            config_fingerprint(self.config), self.max_cycles, self.cache_dir,
        )

    def cache(self) -> AloneReplayCache | None:
        return AloneReplayCache(self.cache_dir) if self.cache_dir else None


@dataclass(frozen=True)
class ReplayRequest:
    """An alone replay a shared run still owes: the clock at
    ``instructions`` along ``trajectory`` — phase 1 → phase 2 of a sweep,
    or, ``chased``, an answer the trajectory's :class:`_Chaser` owes."""

    trajectory: AloneTrajectory
    instructions: int
    chased: bool = False


def probe_alone(
    cache: "AloneReplayCache | None",
    spec: KernelSpec,
    stream_id: int,
    config: GPUConfig,
    instructions: int,
) -> AloneClock | None:
    """The cached alone clock for one count, or None (miss or no cache).

    Any count up to the end of the stored trajectory is a hit.  A hit is
    one ``replay`` bus span with ``cached=True`` and the ``curve_end`` it
    was served from, so cached vs simulated durations expose the cache's
    economics in SweepStats.
    """
    if cache is None:
        return None
    t0 = time.perf_counter()
    cycles = cache.get(spec, stream_id, config, instructions)
    if cycles is None:
        return None
    seconds = time.perf_counter() - t0
    bus_ch = obs_bus.current()
    if bus_ch is not None:
        bus_ch.span("replay", seconds, app=spec.name, cached=True,
                    instructions=instructions,
                    curve_end=cache.curve(spec, stream_id, config).end)
    return AloneClock(cycles, seconds, True)


def alone_budget(shared_cycles: int) -> int:
    """The clock budget of an alone replay after a ``shared_cycles`` run."""
    return max(4 * shared_cycles, 1_000_000)


class _AloneMachine:
    """One application alone on the full GPU, advanced along its trajectory.

    What :func:`replay_alone` and an overlapped replay's helper process
    (:class:`_Chaser`) both drive, so a clock — and, with a ``cache``, the
    curve file stored at it — is the same whichever of them got there.
    The progress curve is recorded with a ``cache``, or when ``record``.
    """

    def __init__(
        self,
        trajectory: AloneTrajectory,
        cache: AloneReplayCache | None,
        record: bool = False,
    ) -> None:
        self.trajectory = trajectory
        self.cache = cache
        self.gpu = GPU(trajectory.config, [LaunchedKernel(
            trajectory.spec, restart=True, stream_id=trajectory.stream_id,
        )])
        self.curve = (
            self.gpu.record_progress(0) if record or cache is not None
            else None
        )

    def advance(self, count: int, store: bool = True) -> tuple[int, bool]:
        """Run on to ``count`` within the trajectory's clock budget; returns
        the clock and whether a curve file was written (``store``: ask the
        cache to)."""
        t = self.trajectory
        cycles = self.gpu.run_until_instructions(
            0, count, max_cycles=t.max_cycles - self.gpu.engine.now
        )
        stored = store and self.cache is not None and self.cache.put(
            t.spec, t.stream_id, t.config, count, cycles, self.curve
        )
        return cycles, stored

    def close(self) -> None:
        self.gpu.close()


def replay_alone(
    spec: KernelSpec,
    stream_id: int,
    config: GPUConfig,
    counts: Iterable[int],
    cache: AloneReplayCache | None = None,
    max_cycles: int = 1_000_000_000,
) -> dict[int, AloneClock]:
    """Simulate ``spec`` alone on the full GPU; clocks at each of ``counts``.

    An alone run is one deterministic trajectory of (spec, stream, config)
    and cycles-at-count is a curve along it, so one GPU is advanced through
    the distinct counts in ascending order (whatever order, and however
    often, they were asked for) and each clock equals what a fresh replay
    to that count alone returns.  ``max_cycles`` bounds the clock for every
    count, as it would a fresh replay.

    With a ``cache`` the GPU records its progress curve and the curve is
    stored as each count is reached, so the clocks a trajectory got to
    before failing are already on disk, and every count up to the furthest
    one is a later hit.  Nothing is looked up there — callers probe first
    (:func:`probe_alone`) and ask only for what missed; the trajectory
    always starts at cycle 0.

    One ``replay`` bus span (``cached=False``) covers the trajectory:
    ``counts`` distinct clocks serving ``requests`` askers, and
    ``extended_from`` — the end of the stored curve the counts had passed —
    when this is a re-simulation rather than a first one.
    """
    wanted = Counter(counts)
    clocks: dict[int, AloneClock] = {}
    if not wanted:
        return clocks
    started = t0 = time.perf_counter()
    known = cache.curve(spec, stream_id, config) if cache is not None else None
    machine = _AloneMachine(
        AloneTrajectory(spec, stream_id, config, max_cycles), cache
    )
    try:
        for count in sorted(wanted):
            cycles, stored = machine.advance(count)
            t1 = time.perf_counter()
            clocks[count] = AloneClock(cycles, t1 - t0, False, stored)
            t0 = t1
    finally:
        machine.close()
        _simulated_span(
            time.perf_counter() - started, spec, wanted,
            None if known is None else known.end,
        )
    return clocks


def _simulated_span(
    seconds: float, spec: KernelSpec, wanted: Counter,
    known_end: int | None, **extra,
) -> None:
    """The ``replay`` bus span (``cached=False``) of one simulated alone
    trajectory that served the ``wanted`` counts."""
    bus_ch = obs_bus.current()
    if bus_ch is not None:
        if known_end is not None:
            extra = {"extended_from": known_end, **extra}
        bus_ch.span(
            "replay", seconds, app=spec.name, cached=False,
            instructions=max(wanted), counts=len(wanted),
            requests=sum(wanted.values()), **extra,
        )


# -------------------------------------------------------- overlapped replays


def _chase_main(conn, trajectory: AloneTrajectory,
                cache: AloneReplayCache | None, drop=None) -> None:
    """A :class:`_Chaser`'s helper process.

    Messages are ``(count, ask)``.  A *feed* (``ask`` false) says how far a
    shared run has got: the machine runs on to it unless a newer message is
    already waiting.  An *ask* wants the clock at ``count`` and is answered
    with ``(cycles, stored, busy seconds so far)``, in the order asked —
    or, whatever goes wrong, with the traceback as text, after which the
    helper is done.  The machine always records its progress curve, so a
    count it has already run past (an earlier job of the sweep stopped
    further along) is answered from the curve with the clock a fresh replay
    stops at.  The helper runs at the lowest scheduling priority, and
    ``drop`` is called first: a helper forked mid-run inherits a copy of
    the shared machine and lets go of it, so that it too holds one machine.

    ``stored`` is what :func:`replay_alone` over the same counts would say
    for this one.  That replay takes the counts in ascending order and
    writes the curve at each count that stops it further along than the
    previous one.  Where the machine stands is where a replay to any count
    from the one it last ran on to, up to its progress, stops: for such a
    count the store is made and its result is the answer.  A count the
    machine ran past writes nothing now; it is credited unless the next
    smaller count asked has the same clock — two counts that stop in one
    simulated cycle are taken for one stop.
    """
    try:
        # Lowest priority: while a shared run is going it is the critical
        # path and a helper may only use what it leaves idle; once the
        # sweep waits for the helpers, they have the CPUs to themselves.
        os.nice(19)
        if drop is not None:
            drop()
        t0 = time.perf_counter()
        machine = _AloneMachine(trajectory, cache, record=True)
        busy = time.perf_counter() - t0
        #: The count the machine last ran on to; it stands where a replay
        #: to any count from there up to its progress stops.
        stop = 0
        #: Counts answered so far → their clocks.
        clocks: dict[int, int] = {}
        while True:
            count, ask = conn.recv()
            if not ask and conn.poll():
                continue  # a newer message says how far to go
            t0 = time.perf_counter()
            if count > machine.gpu.progress[0].instructions:
                cycles, stored = machine.advance(count, store=ask)
                stop = count
            elif ask and count >= stop:
                cycles, stored = machine.advance(count)
            elif ask:
                cycles = machine.curve.cycle_at(count)
                below = [c for c in clocks if c < count]
                stored = (
                    cache is not None and count not in clocks
                    and (not below or clocks[max(below)] != cycles)
                )
            busy += time.perf_counter() - t0
            if ask:
                clocks[count] = cycles
                conn.send((cycles, stored, busy))
    except EOFError:
        pass  # the sweep is done with this trajectory, or gone
    except Exception:  # noqa: BLE001 - reported; the parent replays in-process
        conn.send(traceback.format_exc())


class _Chaser:
    """One alone trajectory, replayed by a helper process alongside the
    shared runs that ask for it (docs/parallel-harness.md, "Overlapped
    replays").

    An inline sweep makes one for each trajectory whose askers are one
    consecutive run of its jobs, before the first of them builds its shared
    machine, so each process holds one machine.  Every asking shared run
    :meth:`feed`\\ s it the application's instruction count once per
    estimation interval and, when it ends, :meth:`ask`\\ s for the clock at
    its final count; :meth:`answer` collects the clocks in the order asked,
    so the next shared run need not wait for them.  With a curve already
    stored there is nothing to simulate until a count passes its end: the
    helper starts at the first count beyond it, or never (the askers probe
    the cache instead).  A helper that dies, or fails, is replaced by the
    same replay in this process for every answer still owed, which raises
    what there is to raise.
    """

    def __init__(self, trajectory: AloneTrajectory) -> None:
        self.trajectory = trajectory
        self.cache = trajectory.cache()
        known = (
            None if self.cache is None
            else self.cache.curve(trajectory.spec, trajectory.stream_id,
                                  trajectory.config)
        )
        self.known_end = None if known is None else known.end
        self._proc = None
        self._conn = None
        #: Counts asked for and not yet answered, oldest first.
        self._asked: deque[int] = deque()
        #: Why the helper stopped answering: its traceback's last line, ""
        #: when it died without a word; None while it answers.
        self._lost: str | None = None
        #: Counts the helper answered; its busy seconds; what answers waited.
        self.served: Counter = Counter()
        self.busy_s = 0.0
        self.tail_s = 0.0
        if known is None:
            self._start()

    def _start(self, drop=None) -> None:
        self._proc, self._conn = forked.spawn(
            _chase_main, self.trajectory, self.cache, drop, daemon=True,
        )

    def _send(self, count: int, ask: bool, drop=None) -> None:
        if self._proc is None:
            if not ask and count <= self.known_end:
                return
            self._start(drop)
        try:
            self._conn.send((count, ask))
        except OSError:
            pass  # the helper is dead: answer() finds out and replays here

    def feed(self, count: int, drop=None) -> None:
        """Tell the helper how far a shared run has got (``drop``: what a
        helper that starts only now should release first)."""
        self._send(count, False, drop)

    def ask(self, count: int) -> bool:
        """Ask for the clock at ``count``, a shared run's final count; False
        when the stored curve already reaches it (probe the cache)."""
        if self.known_end is not None and count <= self.known_end:
            return False
        self._send(count, True)
        self._asked.append(count)
        return True

    def ready(self) -> bool:
        """Whether :meth:`answer` has something to read without waiting."""
        return self._lost is not None or self._conn.poll()

    def answer(self, count: int) -> AloneClock:
        """The alone clock at ``count``, asked for and owed in turn.

        ``seconds`` is how long this waited.  An answer owed to an ask that
        is nobody's any more (the attempt that made it failed) is read and
        dropped on the way.  Without the helper, one ``replay`` bus span
        (``cached=False, chased=True, fallback=True``) times the in-process
        replay that took its place: ``dur`` the replay, ``tail_s`` the wait.
        """
        t0 = time.perf_counter()
        while True:
            asked = self._asked.popleft()
            reply = self._receive()
            if asked == count:
                break
        if reply is not None:
            cycles, stored, self.busy_s = reply
            self.served[count] += 1
            tail = time.perf_counter() - t0
            self.tail_s += tail
            return AloneClock(cycles, tail, False, stored)
        extra: dict = {"fallback": True}
        if self._lost:
            extra["error"] = self._lost
        started = time.perf_counter()
        machine = _AloneMachine(self.trajectory, self.cache)
        try:
            cycles, stored = machine.advance(count)
        finally:
            machine.close()
            tail = time.perf_counter() - t0
            _simulated_span(
                time.perf_counter() - started, self.trajectory.spec,
                Counter([count]), self.known_end, chased=True, tail_s=tail,
                **extra,
            )
        return AloneClock(cycles, tail, False, stored)

    def _receive(self) -> tuple | None:
        """The helper's next answer, or None once it has stopped giving
        them."""
        if self._lost is None:
            try:
                reply = self._conn.recv()
            except (EOFError, OSError):
                reply = ""  # died without a word
            if isinstance(reply, tuple):
                return reply
            self._lost = reply.strip().splitlines()[-1] if reply else ""
        return None

    def close(self, report: bool = False) -> None:
        """Reap the helper; one still running has nothing left to give.

        ``report``: first emit the trajectory's ``replay`` bus span
        (``cached=False, chased=True``) for what the helper answered —
        ``dur`` its busy seconds, ``requests`` the answers, ``tail_s`` what
        they were waited for."""
        if report and self.served:
            _simulated_span(
                self.busy_s, self.trajectory.spec, self.served,
                self.known_end, chased=True, tail_s=self.tail_s,
            )
        if self._proc is not None:
            forked.reap(self._proc, self._conn)
            self._proc = self._conn = None


@contextlib.contextmanager
def profiled(path: str | None):
    """cProfile the body and dump binary pstats data to ``path`` (nothing
    when None); the dump is made however the body ends."""
    if path is None:
        yield
        return
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        profiler.dump_stats(path)


def run_workload(
    apps: Sequence[KernelSpec | str],
    config: GPUConfig | None = None,
    shared_cycles: int | None = None,
    sm_partition: Sequence[int] | None = None,
    models: Sequence[str] = ("DASE", "MISE", "ASM"),
    policy=None,
    alone_cache: AloneReplayCache | None = None,
    profile_path: str | None = None,
    trace: Observation | None = None,
    faults: "FaultPlan | FaultInjector | None" = None,
    arrivals: "ArrivalSchedule | None" = None,
    deferred: "list[ReplayRequest] | None" = None,
    chase: "Mapping[int, _Chaser] | None" = None,
) -> WorkloadResult:
    """Run one workload through the full methodology.

    ``models`` selects which estimators to attach ("DASE", "MISE", "ASM");
    each estimate is the mean over the run's intervals after the first
    :data:`WARMUP_INTERVALS`.
    ``policy`` optionally attaches an SM-allocation policy (e.g.
    :class:`~repro.policies.DASEFairPolicy`); it may reassign SMs during
    the shared run.  ``alone_cache`` memoises the alone replays (step 3):
    the alone run is deterministic in (spec, stream, config), so the cycle
    a stored trajectory reached a count at is bit-identical to
    re-simulating, for every count up to where it was stored.

    ``deferred`` (a list) makes this phase 1 of a sweep
    (:func:`repro.harness.parallel.run_jobs`): the cache is still probed,
    but a replay it cannot serve is appended to the list as a
    :class:`ReplayRequest` instead of being simulated, and the result holds
    ``None`` for that app until :meth:`WorkloadResult.set_alone` fills it —
    the sweep then simulates each application's trajectory once for every
    pairing that needs it (:func:`replay_alone`).  ``chase`` (app position
    → :class:`_Chaser`, also the sweep's to give, and to reap) names the
    replays that run in helper processes alongside the shared run instead:
    each helper is fed this run's counts and asked for the clock at its
    final one, with the same clocks, curve files and cache counters as the
    sequential path.  With ``deferred`` the ask is appended there as a
    ``chased`` request for the sweep to collect; without, this run waits
    for the answers.  Open-system and profiled runs ignore it.

    ``profile_path`` profiles the whole methodology (shared run + alone
    replays) under :mod:`cProfile` and dumps binary pstats data there —
    load it with ``python -m pstats`` or snakeviz; see docs/performance.md.

    ``trace`` records the *shared run* into a fresh
    :class:`repro.obs.Observation`: the GPU emits structured events, a
    :class:`~repro.obs.Telemetry` over this run's estimators is built on the
    bundle's registry/tracer, and run-level gauges are published at the
    end.  The alone replays are never traced, so the recording describes
    exactly one execution; a bundle that already recorded a run is
    rejected.  Tracing never changes simulation results (see
    docs/observability.md).

    ``faults`` (a :class:`repro.faults.FaultPlan` or a pre-built injector)
    distorts the counter stream the estimators and policy *observe* — the
    simulator's own measurement is untouched.  Without a policy the shared
    run (and hence actual slowdowns, alone replays, and cache keys) is
    bit-identical to an unfaulted run and only the estimates change; with
    a policy, fault-misled migrations feed back into the run, which is the
    unfairness-degradation effect ``fig-degradation`` charts.  A null plan
    resolves to no injector at all (docs/faults.md).

    ``arrivals`` (an :class:`repro.opensys.ArrivalSchedule`) turns the run
    into an open system: the schedule's applications join the roster after
    ``apps`` and arrive/depart on interval boundaries, driven by an
    :class:`repro.opensys.OpenSystemDriver`.  Actual slowdowns are then
    normalised over each app's *residency window* rather than the whole
    run, and the result carries ``resident_cycles``/``waiting_cycles``.  A
    null schedule is the closed-system identity (docs/workloads.md).
    """
    if trace is not None:
        if not isinstance(trace, Observation):
            raise TypeError(f"trace must be an Observation, not {trace!r}")
        if trace.telemetry is not None:
            raise ValueError(
                "this Observation already recorded a run; pass a fresh one"
            )
    obs = trace
    config = config or scaled_config()
    shared_cycles = shared_cycles or default_shared_cycles()
    resolved = [_resolve(a) for a in apps]
    n_base = len(resolved)
    open_sched = None
    if arrivals is not None and not arrivals.is_null:
        open_sched = arrivals
        resolved += [_resolve(a.app) for a in arrivals.arrivals]
    names = [n for n, _ in resolved]
    specs = [s for _, s in resolved]
    kernels = [LaunchedKernel(s, restart=True, stream_id=i) for i, s in enumerate(specs)]

    headroom = 0
    if open_sched is not None and sm_partition is None:
        # Even split over the launch-time apps; arrivals start with no SMs.
        # When arrivals are expected, a small idle reserve lets them be
        # admitted at the next boundary instead of waiting out a full
        # block-drain (docs/workloads.md#open-system-schedules).
        if open_sched.arrivals:
            headroom = min(max(1, config.n_sms // 8), config.n_sms - n_base)
        avail = config.n_sms - headroom
        base_sms = avail // n_base
        extra = avail % n_base
        sm_partition = [
            base_sms + (1 if i < extra else 0) for i in range(n_base)
        ] + [0] * len(open_sched.arrivals)

    max_cycles = alone_budget(shared_cycles)
    cache_dir = None if alone_cache is None else str(alone_cache.directory)
    # An arrival's residency is not known up front, and a helper forked
    # under the profiler would inherit it.
    chasers = (
        {} if open_sched is not None or profile_path is not None
        else chase or {}
    )

    with profiled(profile_path):
        gpu = GPU(
            config, kernels, sm_partition, obs=obs,
            allow_inactive=open_sched is not None,
        )
        initial_partition = gpu.sm_counts()

        injector = None
        if faults is not None:
            from repro.faults.inject import resolve_injector

            injector = resolve_injector(
                faults, len(specs),
                audit=None if obs is None else obs.audit,
            )

        estimators: dict[str, SlowdownEstimator] = {}
        rotator: PriorityRotator | None = None
        for model in models:
            if model == "DASE":
                estimators[model] = DASE(config)
            elif model in ("MISE", "ASM"):
                if rotator is None:
                    rotator = PriorityRotator(config)
                cls = MISE if model == "MISE" else ASM
                estimators[model] = cls(config, rotator)
            else:
                raise ValueError(f"unknown model {model!r}")
        for est in estimators.values():
            if injector is not None:
                est.inject_faults(injector)
            est.attach(gpu)
        if obs is not None:
            # Fold the interval view into the same recording: one Telemetry
            # on the bundle's registry + tracer, attached after the
            # estimators so its samples see this interval's estimates.
            obs.telemetry = Telemetry(
                estimators, registry=obs.registry, tracer=obs.tracer
            )
            obs.telemetry.attach(gpu)
        if policy is not None:
            # A policy that would decide from its own private DASE adopts
            # the harness's instead (DASE is a pure observer, so sharing is
            # bit-identical) — one estimation per interval, one injector,
            # and the audit log carries a single DASE stream instead of two.
            if (
                hasattr(policy, "use_estimator")
                and policy._own_estimator
                and isinstance(estimators.get("DASE"), DASE)
            ):
                policy.use_estimator(estimators["DASE"])
            if injector is not None and hasattr(policy, "inject_faults"):
                policy.inject_faults(injector)
            policy.attach(gpu)
        driver = None
        if open_sched is not None:
            # Attached last: estimators, telemetry, and the policy all see
            # the roster as it was for the interval that just closed;
            # membership changes land before the *next* interval starts.
            from repro.opensys.driver import OpenSystemDriver

            driver = OpenSystemDriver(
                open_sched, n_base, rebalance=policy is None,
                headroom=headroom,
            )
            driver.attach(gpu)
        if chasers:
            # One small message per helper per estimation interval, never
            # per event; attached last, it reads counts and changes nothing.
            def feed(_records) -> None:
                for i, chaser in chasers.items():
                    chaser.feed(gpu.progress[i].instructions, drop=gpu.close)

            gpu.add_interval_listener(feed)

        # One `is None` check per *run* — the simulator's cycle loop is never
        # touched, so the disabled-bus path stays inside the <3% obs budget.
        bus_ch = obs_bus.current()
        if bus_ch is not None:
            t0 = time.perf_counter()
            gpu.run(shared_cycles)
            bus_ch.span("simulate", time.perf_counter() - t0,
                        cycles=shared_cycles)
        else:
            gpu.run(shared_cycles)
        if obs is not None:
            obs.finalize_run(gpu)
            obs.telemetry.detach()
        instructions = [p.instructions for p in gpu.progress]
        bandwidth = {
            n: gpu.bandwidth_utilization(i) for i, n in enumerate(names)
        }
        bandwidth["total"] = gpu.bandwidth_utilization()

        resident_cycles: list[int] = []
        waiting_cycles: list[int] = []
        if driver is not None:
            run_end = gpu.engine.now
            for start, end in driver.windows(run_end):
                resident_cycles.append(0 if start is None else end - start)
            waiting_cycles = driver.waiting(run_end)
        result = WorkloadResult(
            names=list(names),
            sm_partition=list(initial_partition),
            shared_cycles=shared_cycles,
            instructions=instructions,
            alone_cycles=[None] * len(specs),
            actual_slowdowns=[None] * len(specs),
            estimates={
                name: est.mean_estimates(WARMUP_INTERVALS)
                for name, est in estimators.items()
            },
            bandwidth=bandwidth,
            final_sm_partition=gpu.sm_counts(),
            resident_cycles=resident_cycles,
            waiting_cycles=waiting_cycles,
        )
        # Everything is read out: free the shared machine before the alone
        # ones are built, so the two never sit in memory together.
        gpu.close()

        # Alone replays: full GPU, same stream identity, same instruction
        # count.  The chased ones first learn where to stop, so they finish
        # side by side.
        asked = {
            i for i, chaser in chasers.items()
            if instructions[i] and chaser.ask(instructions[i])
        }
        if alone_cache is not None:
            # What the probes these asks stand in for would have counted.
            alone_cache.misses += len(asked)
        for i, spec in enumerate(specs):
            count = instructions[i]
            if count == 0:
                # Retired nothing in the window (an arrival never admitted
                # or drained first, or a closed run shorter than its first
                # burst): there is nothing to replay and no ground-truth
                # slowdown (and no span — no work happened).
                result.alone_cycles[i] = 0
                continue
            if i in asked:
                if deferred is not None:
                    deferred.append(ReplayRequest(
                        chasers[i].trajectory, count, chased=True,
                    ))
                    continue
                clock = chasers[i].answer(count)
                if clock.stored:
                    alone_cache.stores += 1  # the helper's write, for us
            else:
                # (A chaser that was not asked: the stored curve covers it.)
                clock = probe_alone(alone_cache, spec, i, config, count)
            if clock is None:
                if deferred is not None:
                    deferred.append(ReplayRequest(AloneTrajectory(
                        spec, i, config, max_cycles, cache_dir,
                    ), count))
                    continue
                clock = replay_alone(
                    spec, i, config, [count], alone_cache, max_cycles
                )[count]
            result.set_alone(i, clock.cycles)
    return result
