"""Deterministic discrete-event engine.

A single global clock in core cycles.  Components schedule callbacks at
future cycles; ties are broken by insertion order so runs are reproducible.
Stale events (e.g. an SM completion superseded by a state change) are handled
by lazy invalidation: callers schedule with a *generation* token and the
callback decides whether it is still current.

The queue is a *bucket queue*: a binary heap of distinct cycle numbers plus
one FIFO list of events per cycle.  Within a cycle, append order equals
schedule order, so the total order is the same ``(cycle, sequence)`` order a
per-event heap would give — but a cycle with many events costs one heap
operation instead of one per event.  Buckets are popped before draining, so
an event scheduled for the cycle *currently being processed* starts a fresh
bucket that the run loop drains in the same pass, immediately after the
current one — same firing order, no mid-drain growth to track.

Events are ``(callback, arg)`` pairs.  Hot paths pass a bound method plus its
payload argument instead of allocating a fresh closure per event; zero-arg
callbacks are supported with a sentinel so existing callers are unchanged.

Bucketing pays for itself only when cycles actually carry several events;
a sparse schedule (≈1 event/cycle) pays the dict+bucket machinery on top
of the heap and runs *slower* than a plain per-event heap.  The engine
therefore starts bucketed and watches occupancy over a probation window of
events in the untraced run loop: if the mean bucket occupancy stays below
:data:`_SPARSE_RATIO`, it converts — once, irreversibly — to a per-event
``(cycle, seq)`` heap.  The conversion preserves the exact total order, so
firing order is bit-identical whether or not (and whenever) the switch
happens.
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from typing import Any, Callable

#: Sentinel distinguishing "no payload" from an explicit ``None`` payload.
_NO_ARG: Any = object()

#: Probation: events observed by the untraced run loop before deciding
#: whether bucketing is worth keeping.  Short enough that a sparse
#: schedule pays the bucket overhead only briefly; every suite workload
#: holds occupancy ≥1.5 over this window (runs start bursty — all warps
#: issue near cycle 0), so real simulations never convert.
_PROBATION_EVENTS = 1024
#: Mean events-per-bucket below which the per-event heap wins (measured:
#: the bucket queue needs ≥~1.3 events/cycle to amortize its dict traffic).
_SPARSE_RATIO = 1.3


class Engine:
    """Event queue + simulation clock.

    Scheduling order is total and deterministic: events fire in ``(cycle,
    schedule order)``.  ``schedule(delay, fn, arg)`` runs ``fn(arg)`` —
    callers on the hot path pass a bound method and a payload instead of a
    lambda; ``schedule(delay, fn)`` runs ``fn()`` as before.
    """

    __slots__ = ("now", "_heap", "_buckets", "_bucket_get", "_stopped",
                 "_trace", "_sparse", "_seq", "_probing", "_probe_left",
                 "_probe_buckets")

    def __init__(self, tracer: Any = None) -> None:
        self.now: int = 0
        self._heap: list = []  # bucketed: distinct cycles with pending
        # events; sparse: (cycle, seq, callback, arg) per-event entries
        # Flat per-cycle FIFOs: [cb0, arg0, cb1, arg1, ...].  Interleaving
        # callback and payload in one list avoids a tuple allocation per
        # event — measurable at ~100k events per simulated run.
        self._buckets: dict[int, list] = {}
        self._bucket_get = self._buckets.get  # pre-bound: hottest lookup
        self._stopped = False
        # Occupancy probation (see module docstring): runs once, in the
        # untraced run loop, and may flip the queue to per-event mode.
        self._sparse = False
        self._seq = 0  # sparse-mode tiebreaker: schedule order
        self._probing = True
        self._probe_left = _PROBATION_EVENTS
        self._probe_buckets = 0
        # Observability hook (repro.obs.EventTracer or None).  The run loop
        # checks it ONCE per run() call — the disabled dispatch path is
        # byte-for-byte the pre-observability loop, so tracing costs nothing
        # when off.  The traced loop only bumps tracer-side counters; it
        # never perturbs event order or simulator state.
        self._trace = tracer

    def schedule(
        self, delay: int, callback: Callable, arg: Any = _NO_ARG
    ) -> None:
        """Run ``callback(arg)`` (or ``callback()``) ``delay`` cycles from now.

        ``delay`` must be a non-negative integer number of cycles.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        cycle = self.now + delay
        if self._sparse:
            seq = self._seq
            self._seq = seq + 1
            heappush(self._heap, (cycle, seq, callback, arg))
            return
        bucket = self._bucket_get(cycle)
        if bucket is None:
            self._buckets[cycle] = [callback, arg]
            heappush(self._heap, cycle)
        else:
            bucket.append(callback)
            bucket.append(arg)

    def _to_sparse(self) -> None:
        """Convert the bucket queue to a per-event heap, preserving order.

        Entries are emitted in ascending ``(cycle, in-bucket position)``
        with a strictly increasing ``seq``, so the sorted list is already a
        valid heap *and* reproduces the exact firing order the buckets
        would have produced.  ``(cycle, seq)`` is unique, so heap
        comparisons never reach the callback.
        """
        entries: list = []
        seq = 0
        buckets = self._buckets
        for cycle in sorted(buckets):
            it = iter(buckets[cycle])
            for callback, arg in zip(it, it):
                entries.append((cycle, seq, callback, arg))
                seq += 1
        buckets.clear()
        self._heap = entries
        self._seq = seq
        self._sparse = True
        self._probing = False

    def at(self, cycle: int, callback: Callable, arg: Any = _NO_ARG) -> None:
        """Run ``callback`` at absolute ``cycle`` (>= now)."""
        self.schedule(int(cycle) - self.now, callback, arg)

    def stop(self) -> None:
        """Halt the run loop after the current event returns."""
        self._stopped = True

    def clear(self) -> None:
        """Drop every queued event (the clock keeps its value)."""
        self._heap.clear()
        self._buckets.clear()

    @property
    def pending(self) -> int:
        """Number of events still queued (including possibly stale ones)."""
        if self._sparse:
            return len(self._heap)
        return sum(len(b) for b in self._buckets.values()) // 2

    def run(self, until: int | None = None) -> int:
        """Process events in order until the queue drains or ``until`` cycles.

        Returns the final clock value.  When ``until`` is given the clock is
        advanced to exactly ``until`` even if the queue drained earlier, so
        callers can account wall-clock-style statistics over a fixed window.
        """
        if self._trace is not None:
            return self._run_traced(until)
        if self._sparse:
            return self._run_sparse(until)
        self._stopped = False
        heap = self._heap
        buckets = self._buckets
        no_arg = _NO_ARG
        limit = until if until is not None else None
        # The event loop allocates short-lived tuples/lists at a rate that
        # keeps the cyclic collector's gen-0 threshold firing constantly, yet
        # per-event garbage is acyclic and refcount-freed.  Suspending the
        # collector for the duration of the loop is observationally pure.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while heap and not self._stopped:
                if self._probing and self._probe_left <= 0:
                    self._probing = False
                    seen = _PROBATION_EVENTS - self._probe_left
                    if seen < _SPARSE_RATIO * self._probe_buckets:
                        # Bucket occupancy too low to pay for the dict
                        # traffic — convert and finish on the per-event
                        # heap.  (The nested gc.disable in _run_sparse is
                        # a no-op; the finally below re-enables.)
                        self._to_sparse()
                        return self._run_sparse(until)
                cycle = heap[0]
                if limit is not None and cycle > limit:
                    break
                self.now = cycle
                # The bucket is *popped* before draining, so it can never
                # grow mid-drain: a same-cycle schedule starts a fresh bucket
                # (and re-pushes the cycle), which this loop picks up on its
                # next iteration — firing order is identical to appending,
                # but the inner loop needs no per-event growth re-check.
                heappop(heap)
                bucket = buckets.pop(cycle)
                if self._probing:
                    self._probe_left -= len(bucket) >> 1
                    self._probe_buckets += 1
                if len(bucket) == 2:
                    # Singleton bucket: skip the iterator machinery (the
                    # while-condition re-checks the stop flag, and a fully
                    # drained bucket leaves nothing to requeue).
                    callback = bucket[0]
                    arg = bucket[1]
                    if arg is no_arg:
                        callback()
                    else:
                        callback(arg)
                    continue
                it = iter(bucket)
                # zip(it, it) walks (callback, arg) pairs at C speed; CPython
                # reuses the result tuple, so the iteration allocates nothing.
                for callback, arg in zip(it, it):
                    if arg is no_arg:
                        callback()
                    else:
                        callback(arg)
                    if self._stopped:
                        # Stopped mid-cycle: the iterator holds exactly the
                        # unprocessed tail.  Requeue it *ahead of* any
                        # same-cycle events scheduled while draining.
                        leftover = list(it)
                        if leftover:
                            appended = buckets.get(cycle)
                            if appended is not None:
                                leftover.extend(appended)
                            else:
                                heappush(heap, cycle)
                            buckets[cycle] = leftover
                        break
        finally:
            if gc_was_enabled:
                gc.enable()
        if until is not None and self.now < until and not self._stopped:
            self.now = until
        return self.now

    def _run_sparse(self, until: int | None = None) -> int:
        """The run loop over the per-event heap (post-conversion).

        Same stop/``until`` semantics as :meth:`run`.  A stop leaves the
        unprocessed events exactly where they are — nothing is popped
        without being dispatched, so there is no leftover to requeue.
        """
        self._stopped = False
        heap = self._heap
        no_arg = _NO_ARG
        limit = until if until is not None else None
        pop = heappop
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while heap and not self._stopped:
                cycle = heap[0][0]
                if limit is not None and cycle > limit:
                    break
                entry = pop(heap)
                self.now = cycle
                callback = entry[2]
                arg = entry[3]
                if arg is no_arg:
                    callback()
                else:
                    callback(arg)
        finally:
            if gc_was_enabled:
                gc.enable()
        if until is not None and self.now < until and not self._stopped:
            self.now = until
        return self.now

    def _run_traced(self, until: int | None = None) -> int:
        """The run loop with dispatch accounting for an attached tracer.

        Identical firing order and stop semantics to :meth:`run` — the only
        additions are the per-bucket ``engine_events``/``engine_max_bucket``
        updates on the tracer (the general ``zip`` drain handles singleton
        buckets too, so the fast path isn't duplicated here).
        """
        trace = self._trace
        self._stopped = False
        heap = self._heap
        buckets = self._buckets
        no_arg = _NO_ARG
        limit = until if until is not None else None
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while heap and not self._stopped:
                cycle = heap[0]
                if limit is not None and cycle > limit:
                    break
                self.now = cycle
                heappop(heap)
                bucket = buckets.pop(cycle)
                n_events = len(bucket) >> 1
                trace.engine_events += n_events
                if n_events > trace.engine_max_bucket:
                    trace.engine_max_bucket = n_events
                it = iter(bucket)
                for callback, arg in zip(it, it):
                    if arg is no_arg:
                        callback()
                    else:
                        callback(arg)
                    if self._stopped:
                        leftover = list(it)
                        if leftover:
                            appended = buckets.get(cycle)
                            if appended is not None:
                                leftover.extend(appended)
                            else:
                                heappush(heap, cycle)
                            buckets[cycle] = leftover
                        break
        finally:
            if gc_was_enabled:
                gc.enable()
        if until is not None and self.now < until and not self._stopped:
            self.now = until
        return self.now
