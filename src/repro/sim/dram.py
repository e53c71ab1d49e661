"""Memory partition: L2 slice + FR-FCFS DRAM controller.

Models every interference mechanism the DASE model charges for:

* **bank conflicts** — one request occupies a bank from scheduling until its
  data leaves the bus; requests to a busy bank wait (Eq. 9's source);
* **row-buffer interference** — each bank has an open row; a co-runner
  closing it costs tRP + tRCD on the victim's next access (Eq. 10); the
  per-(app, bank) last-row registers of Table 1 detect exactly this;
* **shared-cache contention** — the L2 slice is shared; per-app ATDs flag
  contention misses (Eq. 11);
* **data-bus serialization** — one shared data bus per partition; transfers
  are serialized even when banks operate in parallel;
* **FR-FCFS** — row hits first, then oldest-first, per bank, with an
  optional highest-priority application hook used by the MISE/ASM sampling
  epochs.

Scheduling is event-driven with *per-bank* queues: a request is considered
the moment its bank frees (or the moment it arrives at a free bank), so the
controller never scans a global queue.  Cross-bank arbitration conflicts on
the command bus are not modelled (consistent with folding all command timing
into the per-request service latency).
"""

from __future__ import annotations

from typing import Callable

from repro.config import GPUConfig
from repro.obs.tracer import TID_BANK_BASE, TID_PART_BASE
from repro.sim.address import DecodedAddress
from repro.sim.atd import AuxTagDirectory
from repro.sim.cache import SetAssocCache
from repro.sim.engine import Engine
from repro.sim.stats import MemoryStats


class DramRequest:
    """One outstanding DRAM read on behalf of an application."""

    __slots__ = ("app", "addr", "arrival", "callback", "seq")

    def __init__(
        self,
        app: int,
        addr: DecodedAddress,
        arrival: int,
        callback: Callable[[int], None],
        seq: int,
    ) -> None:
        self.app = app
        self.addr = addr
        self.arrival = arrival
        self.callback = callback
        self.seq = seq


class MemoryPartition:
    """One of the GPU's memory partitions (L2 slice + DRAM channel)."""

    def __init__(
        self,
        engine: Engine,
        config: GPUConfig,
        partition_id: int,
        n_apps: int,
        stats: MemoryStats,
        tracer=None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.pid = partition_id
        self.n_apps = n_apps
        self.stats = stats
        # Observability (repro.obs.EventTracer or None): the disabled path
        # is one attribute check per instrumented site.  Thread-id tracks
        # are precomputed so the enabled path does no arithmetic chains.
        self._trace = tracer
        self._part_tid = TID_PART_BASE + partition_id
        self._bank_tid_base = TID_BANK_BASE + partition_id * config.n_banks

        self.l2 = SetAssocCache(config.l2)
        self.atds = [
            AuxTagDirectory(config.l2.n_sets, config.l2.assoc, config.atd_sample_sets)
            for _ in range(n_apps)
        ]

        nb = config.n_banks
        self.bank_open_row: list[int] = [-1] * nb
        self.bank_busy: list[bool] = [False] * nb
        self.bank_queues: list[list[DramRequest]] = [[] for _ in range(nb)]
        self.bus_free_at: int = 0
        # Last-row registers, per (app, bank) — Table 1's detection hardware.
        self.last_row = [[-1] * nb for _ in range(n_apps)]
        # Distinct-bank demand tracking for the BLP integrals.
        self._bank_demand = [[0] * nb for _ in range(n_apps)]
        # Queued-request counts per (bank, app) for O(1) priority checks.
        self._queued_per_app = [[0] * n_apps for _ in range(nb)]
        # Highest-priority application (None = plain FR-FCFS).
        self.priority_app: int | None = None
        # Application-aware round-robin pointer (mc_scheduler == "rr").
        self._rr_next = 0

        self._seq = 0
        self._req_pool: list[DramRequest] = []  # DramRequest free-list
        # Controller issue-slot management (mc_issue_gap).
        self.next_issue_at = 0
        self._pending_banks: set[int] = set()
        self._issue_event_at = -1
        # Partition busy-time integration (any bank active) for Fig. 2b.
        self._busy_active = 0
        self._busy_last = 0
        self.busy_time = 0
        # Pre-resolve hot-path config scalars (attribute-chase removal).
        self._l2_latency = config.l2_latency
        self._issue_gap = config.mc_issue_gap
        self._rr_mode = config.mc_scheduler == "rr"
        # Pre-convert timings to core cycles.
        d = config.dram
        self._t_hit = config.dram_cycles_to_core(d.tCL)
        self._t_miss = config.dram_cycles_to_core(d.tCL + d.tRP + d.tRCD)
        self._t_burst = config.dram_cycles_to_core(d.tBurst)
        self._t_faw = config.dram_cycles_to_core(d.tFAW)
        # Timestamps of the last four row activations (tFAW enforcement).
        self._activates: list[int] = []
        # Cached bound methods: attribute lookup on ``self`` allocates a
        # fresh bound-method object per call; these run ~100k times/run.
        self._schedule = engine.schedule
        self._arrive_cb = self._arrive
        self._complete_cb = self._complete
        self._issue_cb = self._issue_event

    # ------------------------------------------------------------------ L2

    def access(
        self, addr: DecodedAddress, app: int, callback: Callable[[int], None]
    ) -> None:
        """Handle one memory access arriving at this partition.

        ``callback(completion_cycle)`` fires when the data is ready to leave
        the partition (the caller adds return-network latency).
        """
        now = self.engine.now
        stats = self.stats
        mem = stats.apps[app]
        cache_set = addr.cache_set
        tag = addr.tag
        # Inlined SetAssocCache.access (L2 probe/fill): this is the hottest
        # memory-path function and the call layer is measurable.
        l2 = self.l2
        s = l2._sets[cache_set]
        if tag in s:
            s.move_to_end(tag)
            s[tag] = app
            hit = True
        else:
            if len(s) >= l2._assoc:
                s.popitem(last=False)
            s[tag] = app
            hit = False
        atd = self.atds[app]
        if cache_set in atd._sampled:  # most sets are unsampled: skip call
            atd.observe(cache_set, tag, hit)
        if self._trace is not None:
            self._trace.instant(
                "l2.probe", now, app, self._part_tid, {"hit": 1 if hit else 0}
            )
        l2_latency = self._l2_latency
        if hit:
            mem.l2_hits += 1
            self._schedule(l2_latency, callback, now + l2_latency)
            return
        mem.l2_misses += 1
        self._seq += 1
        pool = self._req_pool
        if pool:
            req = pool.pop()
            req.app = app
            req.addr = addr
            req.arrival = now + l2_latency
            req.callback = callback
            req.seq = self._seq
        else:
            req = DramRequest(app, addr, now + l2_latency, callback, self._seq)
        bank = addr.bank
        d = self._bank_demand[app]
        v = d[bank]
        d[bank] = v + 1
        # advance + outstanding/demanded bookkeeping in one call.
        stats.on_enqueue(now, app, v == 0)
        self._schedule(l2_latency, self._arrive_cb, req)

    # ----------------------------------------------------------------- DRAM

    def _arrive(self, req: DramRequest) -> None:
        bank = req.addr.bank
        self.bank_queues[bank].append(req)
        self._queued_per_app[bank][req.app] += 1
        if self._trace is not None:
            self._trace.instant(
                "dram.enqueue", self.engine.now, req.app, self._part_tid,
                {"bank": bank},
            )
        if not self.bank_busy[bank]:
            pending = self._pending_banks
            if not pending:
                # Fast path: the arbiter's pending set would hold only this
                # bank, so _try_issue's choose-discard round is a no-op.
                now = self.engine.now
                if now >= self.next_issue_at:
                    self.next_issue_at = now + self._issue_gap
                    self._dispatch_bank(bank)
                    return
            pending.add(bank)
            self._try_issue()

    def _try_issue(self) -> None:
        """Issue requests to free banks, one per ``mc_issue_gap`` cycles."""
        now = self.engine.now
        pending = self._pending_banks
        while pending:
            if now < self.next_issue_at:
                t = self.next_issue_at
                if self._issue_event_at != t:
                    # Supersedes any stale scheduled wake-up: the token makes
                    # old events no-ops instead of letting them re-arm.
                    self._issue_event_at = t
                    self._schedule(t - now, self._issue_cb, t)
                return
            bank = self._choose_bank()
            if bank is None:
                return
            pending.discard(bank)
            self.next_issue_at = now + self._issue_gap
            self._dispatch_bank(bank)

    def _issue_event(self, token: int) -> None:
        if token != self._issue_event_at:
            return  # superseded wake-up
        self._issue_event_at = -1
        self._try_issue()

    def _choose_bank(self) -> int | None:
        """Among banks wanting service, pick the one holding the best request
        (priority app first, then the oldest request across banks).

        Bank queues are FIFO by arrival, so ``queue[0].seq`` is each bank's
        oldest request; per-(bank, app) counters make the priority check O(1).
        """
        pending = self._pending_banks
        if len(pending) == 1:
            # Fast path: a single candidate needs no arbitration key.
            (bank,) = pending
            if self.bank_busy[bank] or not self.bank_queues[bank]:
                return None
            return bank
        busy = self.bank_busy
        queues = self.bank_queues
        prio = self.priority_app
        if prio is None:
            # Common case (plain FR-FCFS): oldest head request wins, no
            # priority bit — skip the tuple-key construction entirely.
            best_bank = None
            best_seq = 0
            for bank in pending:
                if busy[bank]:
                    continue
                queue = queues[bank]
                if not queue:
                    continue
                seq = queue[0].seq
                if best_bank is None or seq < best_seq:
                    best_seq, best_bank = seq, bank
            return best_bank
        best_bank = None
        best_key: tuple[int, int] | None = None
        queued_per_app = self._queued_per_app
        for bank in pending:
            queue = queues[bank]
            if busy[bank] or not queue:
                continue
            key = (0 if queued_per_app[bank][prio] else 1, queue[0].seq)
            if best_key is None or key < best_key:
                best_key, best_bank = key, bank
        return best_bank

    def _pick(self, bank: int) -> DramRequest:
        """Select within one bank under the configured scheduler.

        frfcfs: priority app, then row hit, then oldest.
        rr:     priority app, then the round-robin turn-holder's requests,
                then row hit, then oldest (Jog et al.'s application-aware
                scheduling, which trades row locality for inter-application
                fairness).
        """
        queue = self.bank_queues[bank]
        open_row = self.bank_open_row[bank]
        prio = self.priority_app
        if self._rr_mode:
            return self._pick_rr(bank, queue, open_row, prio)
        # FR-FCFS.  ``queue`` stays sorted by ``seq`` (appends are in seq
        # order; pops never reorder), so "oldest" is a positional scan and
        # the first row hit in queue order is the best row hit — the scan
        # can stop at the first match instead of keying every entry.
        if prio is not None and self._queued_per_app[bank][prio]:
            best_i = None
            for i, r in enumerate(queue):
                if r.app == prio:
                    if r.addr.row == open_row:
                        best_i = i
                        break
                    if best_i is None:
                        best_i = i  # oldest priority request so far
        else:
            # Streaming workloads hit the open row at the queue head almost
            # every time; check it before setting up the scan.
            if queue[0].addr.row == open_row:
                return queue.pop(0)
            best_i = 0
            for i, r in enumerate(queue):
                if r.addr.row == open_row:
                    best_i = i
                    break
        return queue.pop(best_i)

    def _pick_rr(
        self, bank: int, queue: list[DramRequest], open_row: int, prio: int | None
    ) -> DramRequest:
        best_i = 0
        best_key = None
        for i, r in enumerate(queue):
            key = (
                0 if (prio is not None and r.app == prio) else 1,
                0 if r.app == self._rr_next else 1,
                0 if r.addr.row == open_row else 1,
                r.seq,
            )
            if best_key is None or key < best_key:
                best_key, best_i = key, i
        picked = queue.pop(best_i)
        self._rr_next = (picked.app + 1) % self.n_apps
        return picked

    def _dispatch_bank(self, bank: int) -> None:
        """Start servicing the best queued request for a free bank."""
        queue = self.bank_queues[bank]
        if not queue or self.bank_busy[bank]:
            return
        req = self._pick(bank)
        app = req.app
        addr = req.addr
        row = addr.row
        self._queued_per_app[bank][app] -= 1
        now = self.engine.now
        stats = self.stats
        mem = stats.apps[app]
        last_row_app = self.last_row[app]
        activate_at = now
        if self.bank_open_row[bank] == row:
            mem.row_hits += 1
            latency = self._t_hit
            row_hit = True
        else:
            mem.row_misses += 1
            latency = self._t_miss
            row_hit = False
            # tFAW: the activation may have to wait for the four-activate
            # window to roll past.
            activates = self._activates
            if len(activates) >= 4:
                window_open = activates[-4] + self._t_faw
                if window_open > now:
                    activate_at = window_open
            activates.append(activate_at)
            if len(activates) > 4:
                activates.pop(0)
            # Row-buffer interference detection (paper §4.2.1): the row we
            # must re-open is the one this app opened last in this bank —
            # a co-runner closed it in between.
            if last_row_app[bank] == row:
                mem.erb_miss += 1
        last_row_app[bank] = row

        t_burst = self._t_burst
        data_ready = activate_at + latency
        bus_free = self.bus_free_at
        bus_start = data_ready if data_ready > bus_free else bus_free
        completion = bus_start + t_burst
        self.bus_free_at = completion
        self.bank_open_row[bank] = row
        self.bank_busy[bank] = True

        mem.time_request += completion - now
        mem.data_bus_time += t_burst

        # advance + executing-bank bookkeeping in one call.
        stats.on_bank_start(now, app)
        if self._busy_active > 0:
            self.busy_time += now - self._busy_last
        self._busy_last = now
        self._busy_active += 1
        if self._trace is not None:
            self._trace.complete(
                "dram.service", now, completion - now, app,
                self._bank_tid_base + bank,
                {"row_hit": 1 if row_hit else 0, "part": self.pid,
                 "bank": bank},
            )
        self._schedule(completion - now, self._complete_cb, req)

    def _complete(self, req: DramRequest) -> None:
        completion = self.engine.now  # the event fires exactly at completion
        app = req.app
        bank = req.addr.bank
        stats = self.stats
        d = self._bank_demand[app]
        v = d[bank]
        d[bank] = v - 1
        # advance + executing/outstanding/demanded bookkeeping +
        # requests_served in one call.
        stats.on_complete(completion, app, v == 1)
        if self._busy_active > 0:
            self.busy_time += completion - self._busy_last
        self._busy_last = completion
        self._busy_active -= 1
        self.bank_busy[bank] = False
        if self._trace is not None:
            self._trace.instant(
                "dram.reply", completion, app, self._part_tid, {"bank": bank}
            )
        req.callback(completion)
        self._req_pool.append(req)  # last use: recycle
        if self.bank_queues[bank]:
            pending = self._pending_banks
            if not pending and completion >= self.next_issue_at:
                # Fast path mirroring _arrive: sole candidate, slot open.
                self.next_issue_at = completion + self._issue_gap
                self._dispatch_bank(bank)
                return
            pending.add(bank)
            self._try_issue()

    # ------------------------------------------------------------- controls

    def set_priority(self, app: int | None) -> None:
        """Give one application's requests highest priority (MISE/ASM)."""
        self.priority_app = app

    def queue_length(self) -> int:
        """Waiting requests across all bank queues (0 after :meth:`close`)."""
        return sum(map(len, self.bank_queues))

    def close(self) -> None:
        """Drop queued requests and the cached bound methods that make this
        partition reference itself (see :meth:`GPU.close`); ``busy_time``
        and the per-app counters in ``stats`` stay readable."""
        for queue in self.bank_queues:
            queue.clear()
        self._req_pool.clear()
        self._arrive_cb = self._complete_cb = self._issue_cb = None
