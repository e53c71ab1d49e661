"""Top-level GPU: SMs ↔ crossbar ↔ memory partitions, plus the thread-block
dispatcher, interval statistics, and the SM-migration (draining) mechanism.

A :class:`GPU` instance simulates one run: construct it with the kernels and
an SM partitioning, then :meth:`run` for a cycle budget or
:meth:`run_until_instructions` for a matched-instruction alone replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.config import GPUConfig
from repro.obs.tracer import (
    PID_ICNT_REPLY,
    PID_ICNT_REQUEST,
    PID_SIM,
    Observation,
)
from repro.sim.address import AddressMapper
from repro.sim.dram import MemoryPartition
from repro.sim.engine import Engine
from repro.sim.interconnect import Crossbar
from repro.sim.kernel import (
    KernelProgress,
    KernelSpec,
    ProgressCurve,
    WarpStream,
)
from repro.sim.sm import SM, ThreadBlockRT, WarpRT
from repro.sim.stats import (
    AppMemCounters,
    AppSMCounters,
    IntervalRecord,
    MemoryStats,
)


@dataclass
class LaunchedKernel:
    """A kernel plus its launch-time policy knobs.

    ``stream_id`` fixes the kernel's RNG seed and address-space slice
    independently of its position in the kernel list, so a matched-
    instruction *alone* replay (one kernel) observes exactly the warp
    streams it had in the shared run (where it may have been app #1).
    """

    spec: KernelSpec
    restart: bool = True  # restart the grid when it finishes (paper's method)
    stream_id: int | None = None  # default: position in the kernel list


IntervalListener = Callable[[list[IntervalRecord]], None]


class MemAccess:
    """One in-flight memory access, threaded through the whole path.

    The same object is the request-crossbar payload, the partition callback,
    and the reply-crossbar payload, so the SM → crossbar → partition →
    crossbar → SM round trip allocates exactly one object instead of a chain
    of per-hop closures.
    """

    __slots__ = ("gpu", "part", "addr", "app", "sm", "warp", "wait")

    def __init__(self, gpu, part, addr, app, sm, warp, wait):
        self.gpu = gpu
        self.part = part
        self.addr = addr
        self.app = app
        self.sm = sm
        self.warp = warp
        self.wait = wait

    def deliver(self) -> None:
        """Request-crossbar arrival: hand the access to the partition."""
        self.part.access(self.addr, self.app, self)

    def __call__(self, completion: int) -> None:
        """Partition completion callback: route the reply (if any).

        The reply crossbar carries the SM's ``memory_response`` bound method
        plus the warp directly — no per-reply wrapper hop — so this object's
        last use is here either way: recycle it (see ``GPU._acc_pool``).
        """
        if self.wait:
            self.gpu._xbar_reply_send(
                self.sm.sm_id, self.sm._memory_response_cb, self.warp
            )
        self.gpu._acc_pool.append(self)


class GPU:
    """One simulated GPU executing one or more kernels concurrently."""

    def __init__(
        self,
        config: GPUConfig,
        kernels: Sequence[LaunchedKernel | KernelSpec],
        sm_partition: Sequence[int] | None = None,
        obs: Observation | None = None,
        allow_inactive: bool = False,
    ) -> None:
        """``sm_partition[i]`` = number of SMs initially owned by app ``i``.

        Defaults to the paper's even split.  The partition must sum to at
        most ``config.n_sms``; leftover SMs stay idle.

        ``allow_inactive`` (open-system runs): permits zero-SM entries in
        the partition — those applications start *inactive* (no thread
        blocks are dispatched for them) until :meth:`activate_app` +
        :meth:`grant_sms` admit them.  The closed-system default keeps the
        historical invariant that every application owns at least one SM.

        ``obs``: a fresh :class:`repro.obs.Observation` to record this run
        into; None (the default) records nothing — the free path.
        """
        self.config = config
        self.kernels = [
            k if isinstance(k, LaunchedKernel) else LaunchedKernel(k) for k in kernels
        ]
        n_apps = len(self.kernels)
        if n_apps < 1:
            raise ValueError("need at least one kernel")
        if sm_partition is None:
            base = config.n_sms // n_apps
            extra = config.n_sms % n_apps
            sm_partition = [base + (1 if i < extra else 0) for i in range(n_apps)]
        sm_partition = list(sm_partition)
        if len(sm_partition) != n_apps:
            raise ValueError("sm_partition length must match kernel count")
        if allow_inactive:
            if any(s < 0 for s in sm_partition):
                raise ValueError("SM counts must be non-negative")
            if not any(s > 0 for s in sm_partition):
                raise ValueError("at least one application needs an SM")
        elif any(s < 1 for s in sm_partition):
            raise ValueError("every application needs at least one SM")
        if sum(sm_partition) > config.n_sms:
            raise ValueError("sm_partition exceeds available SMs")
        #: Dispatch gate per application: inactive apps get no new thread
        #: blocks.  Closed-system runs keep every flag True forever.
        self.app_active = [s > 0 or not allow_inactive for s in sm_partition]

        # Observability: resolved once, here — every component stores its own
        # direct tracer reference (or None), so the disabled hot path is a
        # single attribute check and the simulation is bit-identical.
        self.obs = obs
        tracer = obs.tracer if obs is not None else None
        self._trace = tracer

        self.engine = Engine(tracer)
        self.mapper = AddressMapper(config)
        self._decode = self.mapper.decode  # pre-bound: one lookup per access
        self.mem_stats = MemoryStats(n_apps)
        self.partitions = [
            MemoryPartition(self.engine, config, p, n_apps, self.mem_stats,
                            tracer)
            for p in range(config.n_partitions)
        ]
        self.sms = [SM(self.engine, config, i, self) for i in range(config.n_sms)]
        # One crossbar per direction (Table 2): SM→partition and back.
        self.xbar_request = Crossbar(
            self.engine, config.n_partitions, config.icnt_latency,
            config.icnt_packet_cycles, tracer, PID_ICNT_REQUEST,
        )
        self.xbar_reply = Crossbar(
            self.engine, config.n_sms, config.icnt_latency,
            config.icnt_packet_cycles, tracer, PID_ICNT_REPLY,
        )
        if tracer is not None:
            tracer.set_topology(
                n_apps=n_apps,
                n_sms=config.n_sms,
                n_partitions=config.n_partitions,
                n_banks=config.n_banks,
                app_names=[k.spec.name for k in self.kernels],
            )
        # Cached bound methods for the per-request path.
        self._xbar_req_send = self.xbar_request.send
        self._xbar_reply_send = self.xbar_reply.send
        # Free-list of MemAccess objects (allocation and __init__ are
        # measurable at one object per memory access).
        self._acc_pool: list[MemAccess] = []
        self.sm_counters = [AppSMCounters() for _ in range(n_apps)]
        self.progress = [KernelProgress(k.spec) for k in self.kernels]
        self.blocks_inflight = [0] * n_apps

        # Initial ownership: app i gets the next sm_partition[i] SMs in order
        # (matches the paper's "first app gets the first half").
        cursor = 0
        for app, count in enumerate(sm_partition):
            for sm in self.sms[cursor : cursor + count]:
                sm.assign_app(app)
            cursor += count

        self._interval_listeners: list[IntervalListener] = []
        self.interval_history: list[list[IntervalRecord]] = []
        self._last_interval_end = 0
        self._mem_snap = [AppMemCounters() for _ in range(n_apps)]
        self._sm_snap = [AppSMCounters() for _ in range(n_apps)]
        self._sm_time_last = 0

        self._inst_target: tuple[int, int] | None = None  # (app, instructions)
        self._curve: tuple[int, ProgressCurve] | None = None  # (app, curve)
        self._started = False
        self._closed = False

    # ------------------------------------------------------------ topology

    @property
    def n_apps(self) -> int:
        return len(self.kernels)

    def sms_of(self, app: int) -> list[SM]:
        return [sm for sm in self.sms if sm.app == app]

    def sm_counts(self) -> list[int]:
        counts = [0] * self.n_apps
        for sm in self.sms:
            if sm.app is not None:
                counts[sm.app] += 1
        return counts

    # ------------------------------------------------------------- dispatch

    def _make_streams(self, app: int, block_id: int) -> list[WarpStream]:
        kernel = self.kernels[app]
        spec = kernel.spec
        sid = kernel.stream_id if kernel.stream_id is not None else app
        return [
            WarpStream(
                spec, sid, block_id, w, self.config.seed, self.config.l2.line_bytes
            )
            for w in range(spec.warps_per_block)
        ]

    def _fill_sm(self, sm: SM) -> None:
        app = sm.app
        if app is None:
            return
        if not self.app_active[app]:
            return
        kernel = self.kernels[app]
        spec = kernel.spec
        prog = self.progress[app]
        while sm.can_accept_block(spec.warps_per_block, spec.max_resident_blocks):
            if not kernel.restart and prog.blocks_remaining <= 0:
                break
            block_id = prog.next_block_id()
            block = ThreadBlockRT(app, block_id, spec.warps_per_block)
            self.blocks_inflight[app] += 1
            sm.add_block(block, self._make_streams(app, block_id))

    def block_finished(self, sm: SM, block: ThreadBlockRT) -> None:
        """SM callback: a resident thread block retired."""
        app = block.app
        self.blocks_inflight[app] -= 1
        self.progress[app].blocks_finished += 1
        if not sm.draining:
            self._fill_sm(sm)

    # ---------------------------------------------------------- memory path

    def issue_memory_request(
        self, sm: SM, warp: WarpRT, addr: int, wait: bool = True
    ) -> None:
        """Route one memory access: SM → crossbar → partition → back.

        ``wait=False`` (stores): the access still occupies the memory
        system, but no response is routed back and the warp is not woken.
        """
        decoded = self._decode(addr)
        app = sm.app
        if app is None:
            app = warp.block.app
        part = decoded.partition
        pool = self._acc_pool
        if pool:
            acc = pool.pop()
            acc.part = self.partitions[part]
            acc.addr = decoded
            acc.app = app
            acc.sm = sm
            acc.warp = warp
            acc.wait = wait
        else:
            acc = MemAccess(
                self, self.partitions[part], decoded, app, sm, warp, wait
            )
        self._xbar_req_send(part, MemAccess.deliver, acc)

    # ------------------------------------------------------------ intervals

    def add_interval_listener(self, listener: IntervalListener) -> None:
        self._interval_listeners.append(listener)

    def remove_interval_listener(self, listener: IntervalListener) -> None:
        """Detach a listener added with :meth:`add_interval_listener`."""
        self._interval_listeners.remove(listener)

    def _account_sm_time(self, now: int) -> None:
        dt = now - self._sm_time_last
        if dt <= 0:
            return
        self._sm_time_last = now
        for sm in self.sms:
            sm.account_wall_time(now)
            if sm.app is not None:
                self.sm_counters[sm.app].sm_time += dt

    def _interval_tick(self) -> None:
        now = self.engine.now
        self._account_sm_time(now)
        self.mem_stats.advance(now)
        records: list[IntervalRecord] = []
        counts = self.sm_counts()
        for app in range(self.n_apps):
            mem_now = self.mem_stats.apps[app]
            sm_now = self.sm_counters[app]
            ellc = sum(
                p.atds[app].estimated_contention_misses() for p in self.partitions
            )
            prog = self.progress[app]
            dispatched_total = (
                prog.restarts * prog.spec.blocks_total + prog.blocks_dispatched
            )
            inflight = dispatched_total - prog.blocks_finished
            unfinished = prog.blocks_remaining + inflight
            records.append(
                IntervalRecord(
                    app=app,
                    start=self._last_interval_end,
                    end=now,
                    mem=mem_now.delta(self._mem_snap[app]),
                    sm=sm_now.delta(self._sm_snap[app]),
                    ellc_miss=ellc,
                    sm_count=counts[app],
                    sm_total=self.config.n_sms,
                    tb_running=inflight,
                    tb_unfinished=unfinished,
                )
            )
            self._mem_snap[app] = mem_now.snapshot()
            self._sm_snap[app] = sm_now.snapshot()
        for p in self.partitions:
            for atd in p.atds:
                atd.reset_counters()
        self._last_interval_end = now
        self.interval_history.append(records)
        if self._trace is not None:
            self._trace.instant(
                "interval", now, PID_SIM, 0,
                {"index": len(self.interval_history) - 1},
            )
        for listener in self._interval_listeners:
            listener(records)
        self.engine.schedule(self.config.interval_cycles, self._interval_tick)

    # ---------------------------------------------------------- run control

    def _start(self) -> None:
        if self._closed:
            raise RuntimeError("this GPU was closed; build a new one to run")
        if self._started:
            return
        self._started = True
        for sm in self.sms:
            self._fill_sm(sm)
        self.engine.schedule(self.config.interval_cycles, self._interval_tick)

    def note_instructions(self, app: int) -> None:
        """Hook for the instruction-target stop condition (and the progress
        curve, which is therefore recorded in alone-replay mode only)."""
        if self._inst_target is None:
            return
        count = self.progress[app].instructions
        if self._curve is not None and self._curve[0] == app:
            self._curve[1].note(self.engine.now, count)
        tapp, target = self._inst_target
        if app == tapp and count >= target:
            self.engine.stop()

    def record_progress(self, app: int = 0) -> ProgressCurve:
        """Record ``app``'s :class:`ProgressCurve` from cycle 0 on.

        Call before the first run and advance the GPU with
        :meth:`run_until_instructions` only: the curve then answers, for
        every count up to its end, the clock a fresh GPU running to that
        count stops at.  The returned curve grows as the GPU advances.
        """
        if self._started:
            raise RuntimeError("progress is recorded from cycle 0 only")
        curve = ProgressCurve()
        self._curve = (app, curve)
        return curve

    def run(self, cycles: int) -> int:
        """Simulate ``cycles`` more core cycles; returns the clock."""
        if self._curve is not None:
            raise RuntimeError(
                "a GPU recording progress advances by "
                "run_until_instructions only"
            )
        self._start()
        end = self.engine.now + cycles
        self.engine.run(until=end)
        self._account_sm_time(self.engine.now)
        self.mem_stats.advance(self.engine.now)
        return self.engine.now

    def run_until_instructions(
        self, app: int, instructions: int, max_cycles: int = 1_000_000_000
    ) -> int:
        """Run until ``app`` has issued ``instructions`` (alone-replay mode).

        Resumable: the engine requeues the unprocessed tail of the cycle it
        stopped in, so calling this again with a larger count continues the
        same trajectory and lands on the clock a fresh GPU would reach for
        that count (``tests/test_gpu.py``).  A count already reached returns
        the current clock.  ``max_cycles`` is the budget for *this* call.
        """
        self._start()
        if self.progress[app].instructions >= instructions:
            return self.engine.now
        self._inst_target = (app, instructions)
        try:
            self.engine.run(until=self.engine.now + max_cycles)
        finally:
            self._inst_target = None
        self._account_sm_time(self.engine.now)
        self.mem_stats.advance(self.engine.now)
        if self.progress[app].instructions < instructions:
            raise RuntimeError(
                f"app {app} issued only {self.progress[app].instructions} of "
                f"{instructions} instructions within {max_cycles} cycles"
            )
        return self.engine.now

    def close(self) -> None:
        """Release the simulated machine once the run is over.

        SMs, partitions and queued events hold each other through cached
        bound methods and back-references, and :meth:`Engine.run` suspends
        the cyclic collector, so a finished GPU would otherwise sit in
        memory until some later collection.  This drops the event queue,
        the interval listeners and those references, which lets reference
        counting free the caches and warp streams as soon as the caller
        lets go.  Counters and readouts (``progress``, ``mem_stats``,
        ``sm_counts()``, bandwidth figures, ``interval_history``) stay
        valid; the GPU cannot run again.
        """
        self._closed = True
        self.engine.clear()
        self._interval_listeners.clear()
        self._acc_pool.clear()
        for sm in self.sms:
            sm.close()
        for part in self.partitions:
            part.close()

    # -------------------------------------------------------------- control

    def set_priority_app(self, app: int | None) -> None:
        """Give one app highest memory priority everywhere (MISE/ASM epochs)."""
        for p in self.partitions:
            p.set_priority(app)

    def activate_app(self, app: int) -> None:
        """Open the dispatch gate for ``app`` (open-system arrival)."""
        self.app_active[app] = True

    def deactivate_app(
        self, app: int, on_idle: Callable[[SM], None] | None = None
    ) -> None:
        """Close the dispatch gate for ``app`` and drain its SMs to idle.

        Graceful departure: resident thread blocks retire normally, then
        each SM ends up unowned (``sm.app is None``).  ``on_idle`` fires per
        SM at the exact drain-completion cycle so callers can time-stamp the
        application's last resident cycle.
        """
        self.app_active[app] = False

        def on_drained(sm: SM) -> None:
            self._account_sm_time(self.engine.now)
            if self._trace is not None:
                self._trace.instant(
                    "sm.detach", self.engine.now, PID_SIM, sm.sm_id,
                    {"sm": sm.sm_id, "from": app},
                )
            if on_idle is not None:
                on_idle(sm)

        for sm in self.sms_of(app):
            if not sm.draining:
                self._account_sm_time(self.engine.now)
                sm.start_draining(on_drained)

    def grant_sms(self, app: int, count: int) -> int:
        """Assign up to ``count`` idle SMs to ``app``; returns how many."""
        granted = 0
        for sm in self.sms:
            if granted >= count:
                break
            if sm.app is None and not sm.draining and not sm.blocks:
                self._account_sm_time(self.engine.now)
                sm.assign_app(app)
                self._fill_sm(sm)
                granted += 1
        return granted

    def reclaim_idle_sms(self) -> None:
        """Unassign SMs still owned by inactive apps once they sit empty.

        A departed app's SMs normally go idle via the drain callback, but an
        SM whose blocks all retired *before* ``start_draining`` was called
        (or that never drained because draining was already in flight for a
        migration) can keep stale ownership.  Sweeping on interval
        boundaries keeps the idle pool accurate for admission.
        """
        for sm in self.sms:
            app = sm.app
            if (
                app is not None
                and not self.app_active[app]
                and not sm.draining
                and not sm.blocks
            ):
                self._account_sm_time(self.engine.now)
                sm.assign_app(None)

    def migrate_sms(
        self,
        from_app: int,
        to_app: int,
        count: int,
        on_each: Callable[[SM], None] | None = None,
    ) -> None:
        """Move ``count`` SMs from one app to another via draining.

        Non-blocking: donor SMs stop accepting blocks now and switch owners
        when their resident blocks retire, as in the paper's SM Draining.
        ``on_each`` fires per SM right after the ownership switch (open-
        system admission time-stamps).
        """
        donors = [sm for sm in self.sms_of(from_app) if not sm.draining]
        count = min(count, len(donors) - 1)  # never drain an app's last SM
        if count <= 0:
            return
        now_fill = self._fill_sm

        def on_drained(sm: SM) -> None:
            self._account_sm_time(self.engine.now)
            if self._trace is not None:
                self._trace.instant(
                    "sm.drained", self.engine.now, PID_SIM, sm.sm_id,
                    {"sm": sm.sm_id, "to": to_app},
                )
            sm.assign_app(to_app)
            now_fill(sm)
            if on_each is not None:
                on_each(sm)

        for sm in donors[:count]:
            self._account_sm_time(self.engine.now)
            if self._trace is not None:
                self._trace.instant(
                    "sm.migrate", self.engine.now, PID_SIM, sm.sm_id,
                    {"sm": sm.sm_id, "from": from_app, "to": to_app},
                )
            sm.start_draining(on_drained)

    # ------------------------------------------------------------- readouts

    def ipc(self, app: int) -> float:
        """Aggregate instructions per cycle for ``app`` so far."""
        now = self.engine.now
        return self.progress[app].instructions / now if now else 0.0

    def bandwidth_utilization(self, app: int | None = None) -> float:
        """Fraction of total data-bus capacity used (by one app or all)."""
        now = self.engine.now
        if now == 0:
            return 0.0
        capacity = now * self.config.n_partitions
        if app is None:
            used = sum(a.data_bus_time for a in self.mem_stats.apps)
        else:
            used = self.mem_stats.apps[app].data_bus_time
        return used / capacity

    def bandwidth_breakdown(self) -> dict[str, float]:
        """Fig. 2b decomposition: per-app data, wasted, and idle fractions."""
        now = self.engine.now
        capacity = now * self.config.n_partitions
        if capacity == 0:
            return {"idle": 1.0, "wasted": 0.0}
        busy = sum(p.busy_time for p in self.partitions)
        out: dict[str, float] = {}
        data_total = 0
        for app in range(self.n_apps):
            d = self.mem_stats.apps[app].data_bus_time
            out[f"app{app}"] = d / capacity
            data_total += d
        out["wasted"] = max(0.0, (busy - data_total) / capacity)
        out["idle"] = max(0.0, (capacity - busy) / capacity)
        return out
