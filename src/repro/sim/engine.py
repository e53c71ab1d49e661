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
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from typing import Any, Callable

#: Sentinel distinguishing "no payload" from an explicit ``None`` payload.
_NO_ARG: Any = object()


class Engine:
    """Event queue + simulation clock.

    Scheduling order is total and deterministic: events fire in ``(cycle,
    schedule order)``.  ``schedule(delay, fn, arg)`` runs ``fn(arg)`` —
    callers on the hot path pass a bound method and a payload instead of a
    lambda; ``schedule(delay, fn)`` runs ``fn()`` as before.
    """

    __slots__ = ("now", "_heap", "_buckets", "_bucket_get", "_stopped",
                 "_trace")

    def __init__(self, tracer: Any = None) -> None:
        self.now: int = 0
        self._heap: list[int] = []  # distinct cycles with pending events
        # Flat per-cycle FIFOs: [cb0, arg0, cb1, arg1, ...].  Interleaving
        # callback and payload in one list avoids a tuple allocation per
        # event — measurable at ~100k events per simulated run.
        self._buckets: dict[int, list] = {}
        self._bucket_get = self._buckets.get  # pre-bound: hottest lookup
        self._stopped = False
        # Observability hook (repro.obs.EventTracer or None).  The run loop
        # checks it once per bucket and only bumps tracer-side counters; it
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
        bucket = self._bucket_get(cycle)
        if bucket is None:
            self._buckets[cycle] = [callback, arg]
            heappush(self._heap, cycle)
        else:
            bucket.append(callback)
            bucket.append(arg)

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
        return sum(len(b) for b in self._buckets.values()) // 2

    def run(self, until: int | None = None) -> int:
        """Process events in order until the queue drains or ``until`` cycles.

        Returns the final clock value.  When ``until`` is given the clock is
        advanced to exactly ``until`` even if the queue drained earlier, so
        callers can account wall-clock-style statistics over a fixed window.
        An attached tracer counts the events dispatched
        (``engine_events``) and the largest same-cycle group
        (``engine_max_bucket``).
        """
        trace = self._trace
        self._stopped = False
        heap = self._heap
        buckets = self._buckets
        no_arg = _NO_ARG
        # The event loop allocates short-lived tuples/lists at a rate that
        # keeps the cyclic collector's gen-0 threshold firing constantly, yet
        # per-event garbage is acyclic and refcount-freed.  Suspending the
        # collector for the duration of the loop is observationally pure.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while heap and not self._stopped:
                cycle = heap[0]
                if until is not None and cycle > until:
                    break
                self.now = cycle
                # The bucket is *popped* before draining, so it can never
                # grow mid-drain: a same-cycle schedule starts a fresh bucket
                # (and re-pushes the cycle), which this loop picks up on its
                # next iteration — firing order is identical to appending,
                # but the inner loop needs no per-event growth re-check.
                heappop(heap)
                bucket = buckets.pop(cycle)
                if trace is not None:
                    n_events = len(bucket) >> 1
                    trace.engine_events += n_events
                    if n_events > trace.engine_max_bucket:
                        trace.engine_max_bucket = n_events
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
                            if trace is not None:
                                # Counted again when the tail is dispatched.
                                trace.engine_events -= len(leftover) >> 1
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
