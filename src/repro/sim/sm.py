"""Streaming Multiprocessor model.

Warps resident on an SM alternate compute bursts and memory instructions.
Ready warps share the SM's issue bandwidth equally — a processor-sharing
queue, simulated exactly with the classic virtual-time construction so the
engine only sees one event per burst completion instead of one per cycle.

The SM stalls (the paper's α) when *every* resident warp is blocked on
memory: that is precisely when TLP fails to hide memory latency, the
condition DASE's Eq. 15 models.
"""

from __future__ import annotations

import enum
import heapq
from typing import TYPE_CHECKING, Callable

from repro.config import GPUConfig
from repro.sim.cache import SetAssocCache
from repro.sim.engine import Engine
from repro.sim.kernel import WarpStream

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.gpu import GPU


class WarpState(enum.Enum):
    READY = "ready"  # executing a compute burst (sharing issue slots)
    BLOCKED = "blocked"  # waiting on outstanding memory requests
    DONE = "done"


class WarpRT:
    """Run-time state of one resident warp."""

    __slots__ = ("stream", "block", "state", "pending", "work", "vfinish")

    def __init__(self, stream: WarpStream, block: "ThreadBlockRT") -> None:
        self.stream = stream
        self.block = block
        self.state = WarpState.BLOCKED  # set READY on first burst
        self.pending = 0  # outstanding memory responses
        self.work = 0  # instructions in the current burst (incl. mem inst)
        self.vfinish = 0.0


class ThreadBlockRT:
    """Run-time state of one resident thread block."""

    __slots__ = ("app", "block_id", "warps_total", "warps_done")

    def __init__(self, app: int, block_id: int, warps_total: int) -> None:
        self.app = app
        self.block_id = block_id
        self.warps_total = warps_total
        self.warps_done = 0

    @property
    def done(self) -> bool:
        return self.warps_done >= self.warps_total


class SM:
    """One streaming multiprocessor.

    Owned by at most one application at a time; ownership changes only
    through the draining protocol (:meth:`start_draining` →
    ``on_drained`` callback → reassignment by the dispatcher).
    """

    def __init__(self, engine: Engine, config: GPUConfig, sm_id: int, gpu: "GPU") -> None:
        self.engine = engine
        self.config = config
        self.sm_id = sm_id
        self.gpu = gpu
        # Direct tracer reference (or None): the GPU resolves observability
        # once at construction; the disabled path is one attribute check.
        self._trace = gpu._trace

        self.app: int | None = None
        self.blocks: list[ThreadBlockRT] = []
        self.draining = False
        self.on_drained: Callable[["SM"], None] | None = None

        # Hot-path config scalars.
        self._issue_width = config.issue_width
        self._l1_latency = config.l1_latency

        # Processor-sharing state.
        self._V = 0.0  # virtual time
        self._t_last = 0  # real time of last advance
        self._n_active = 0
        self._heap: list[tuple[float, int, WarpRT]] = []
        self._seq = 0
        self._gen = 0  # generation token for lazy event invalidation
        self._blocked = 0  # resident warps waiting on memory

        # Private L1 data cache (Table 2), invalidated on ownership change.
        self.l1: SetAssocCache | None = (
            SetAssocCache(config.l1) if config.l1_enabled else None
        )
        line = config.l2.line_bytes
        self._l1_line_shift = line.bit_length() - 1
        self._l1_set_mask = config.l1.n_sets - 1
        self._l1_set_bits = config.l1.n_sets.bit_length() - 1

        # Cached bound methods (see MemoryPartition.__init__).
        self._schedule = engine.schedule
        self._on_completion_cb = self._on_completion
        self._memory_response_cb = self.memory_response

    # ------------------------------------------------------------- capacity

    def max_resident_blocks(
        self, warps_per_block: int, kernel_limit: int | None = None
    ) -> int:
        by_warps = self.config.max_warps_per_sm // warps_per_block
        limit = min(self.config.max_blocks_per_sm, by_warps)
        if kernel_limit is not None:
            limit = min(limit, kernel_limit)
        return max(0, limit)

    def can_accept_block(
        self, warps_per_block: int, kernel_limit: int | None = None
    ) -> bool:
        if self.draining or self.app is None:
            return False
        return len(self.blocks) < self.max_resident_blocks(
            warps_per_block, kernel_limit
        )

    # --------------------------------------------------------------- timing

    def _advance(self, now: int) -> None:
        dt = now - self._t_last
        if dt <= 0:
            return
        if self._n_active > 0:
            self._V += dt * self._issue_width / self._n_active
            if self.app is not None:
                self.gpu.sm_counters[self.app].busy_time += dt
        elif self._blocked > 0:
            if self.app is not None:
                self.gpu.sm_counters[self.app].stall_time += dt
                if self._trace is not None:
                    # The whole [t_last, now) slice was an all-warps-blocked
                    # stall — exactly the α window of DASE's Eq. 15.
                    self._trace.complete(
                        "sm.stall", self._t_last, dt, self.app, self.sm_id
                    )
        self._t_last = now

    def _reschedule(self) -> None:
        """Re-arm the burst-completion event after any state change."""
        self._gen += 1
        if not self._heap or self._n_active == 0:
            return
        vfirst = self._heap[0][0]
        dt = (vfirst - self._V) * self._n_active / self._issue_width
        fire_at = self._t_last + max(0, int(dt + 0.999999))
        now = self.engine.now
        self._schedule(
            fire_at - now if fire_at > now else 0, self._on_completion_cb, self._gen
        )

    def _on_completion(self, gen: int) -> None:
        if gen != self._gen:
            return  # stale event: state changed since scheduling
        now = self.engine.now
        self._advance(now)
        # Pop-and-dispatch in one pass: _burst_done never touches the heap,
        # _V, or _n_active, so interleaving is equivalent to the two-phase
        # collect-then-dispatch form but skips the intermediate list.
        limit = self._V + 1e-7 * max(1.0, abs(self._V))
        heap = self._heap
        heappop = heapq.heappop
        while heap and heap[0][0] <= limit:
            warp = heappop(heap)[2]
            self._n_active -= 1
            self._burst_done(warp)
        self._reschedule()

    # ----------------------------------------------------------- warp logic

    def add_block(self, block: ThreadBlockRT, streams: list[WarpStream]) -> None:
        if self.app is None or block.app != self.app:
            raise RuntimeError("block dispatched to an SM owned by another app")
        self.blocks.append(block)
        now = self.engine.now
        self._advance(now)
        for stream in streams:
            warp = WarpRT(stream, block)
            self._start_burst(warp)
        self._reschedule()

    def _start_burst(self, warp: WarpRT) -> None:
        """Begin the warp's next compute burst (caller advanced the clock)."""
        burst = warp.stream.next_compute_burst()
        warp.work = burst + 1  # +1: the memory instruction itself
        warp.state = WarpState.READY
        warp.vfinish = self._V + warp.work
        self._seq += 1
        heapq.heappush(self._heap, (warp.vfinish, self._seq, warp))
        self._n_active += 1

    def _burst_done(self, warp: WarpRT) -> None:
        """A warp finished its compute burst + memory instruction issue."""
        gpu = self.gpu
        app = self.app
        if app is not None:
            gpu.sm_counters[app].instructions += warp.work
            gpu.progress[app].instructions += warp.work
            if gpu._inst_target is not None:
                gpu.note_instructions(app)
        else:
            app = warp.block.app
        addresses, is_store = warp.stream.next_mem_access()
        if is_store:
            # Write-through, no-allocate: the store consumes memory-system
            # bandwidth but the warp does not wait for it — one wake-up
            # event regardless of how many lines the store touches.
            for addr in addresses:
                gpu.issue_memory_request(self, warp, addr, wait=False)
            warp.state = WarpState.BLOCKED
            warp.pending = 1
            self._blocked += 1
            self._schedule(self._l1_latency, self._memory_response_cb, warp)
            return
        l1 = self.l1
        if l1 is None:
            misses = addresses
        else:
            # Inlined SetAssocCache.access (L1 probe/fill) — runs once per
            # address of every load burst.
            counters = gpu.sm_counters[app]
            line_shift = self._l1_line_shift
            set_mask = self._l1_set_mask
            set_bits = self._l1_set_bits
            l1_sets = l1._sets
            assoc = l1._assoc
            misses = []
            for addr in addresses:
                line = addr >> line_shift
                s = l1_sets[line & set_mask]
                tag = line >> set_bits
                if tag in s:
                    s.move_to_end(tag)
                    s[tag] = app
                    counters.l1_hits += 1
                else:
                    if len(s) >= assoc:
                        s.popitem(last=False)
                    s[tag] = app
                    counters.l1_misses += 1
                    misses.append(addr)
        warp.state = WarpState.BLOCKED
        self._blocked += 1
        if not misses:
            # Every line hit in the L1: the warp resumes after the hit
            # latency without touching the shared memory system — a single
            # event for the whole all-hits burst.
            warp.pending = 1
            self._schedule(self._l1_latency, self._memory_response_cb, warp)
            return
        warp.pending = len(misses)
        issue = gpu.issue_memory_request
        for addr in misses:
            issue(self, warp, addr)

    def memory_response(self, warp: WarpRT) -> None:
        """One of the warp's outstanding requests returned."""
        warp.pending -= 1
        if warp.pending > 0:
            return
        now = self.engine.now
        self._advance(now)
        self._blocked -= 1
        if warp.stream.done:
            warp.state = WarpState.DONE
            self._warp_finished(warp)
        else:
            self._start_burst(warp)
            self._reschedule()

    def _warp_finished(self, warp: WarpRT) -> None:
        block = warp.block
        block.warps_done += 1
        if block.done:
            self.blocks.remove(block)
            self.gpu.block_finished(self, block)
            if self.draining and not self.blocks:
                self._drained()

    # ------------------------------------------------------------- draining

    def start_draining(self, on_drained: Callable[["SM"], None]) -> None:
        """Stop accepting blocks; call back once resident work finishes."""
        self.draining = True
        self.on_drained = on_drained
        if not self.blocks:
            self._drained()

    def _drained(self) -> None:
        self.draining = False
        cb, self.on_drained = self.on_drained, None
        self.app = None
        if cb is not None:
            cb(self)

    def assign_app(self, app: int | None) -> None:
        if self.blocks:
            raise RuntimeError("cannot reassign an SM with resident blocks")
        if self.l1 is not None and app != self.app:
            self.l1.flush()  # no cross-application L1 leakage
        self.app = app

    def close(self) -> None:
        """Drop resident work and the references that tie this SM to the
        GPU and to itself (see :meth:`GPU.close`); ``app`` stays readable."""
        self.blocks.clear()
        self._heap.clear()
        self.on_drained = None
        self.gpu = None
        self._on_completion_cb = self._memory_response_cb = None

    # ------------------------------------------------------------ wall time

    def account_wall_time(self, now: int) -> None:
        """Fold elapsed time into counters (interval boundaries, run end)."""
        self._advance(now)
