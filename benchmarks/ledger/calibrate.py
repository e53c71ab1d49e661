"""Host-speed calibration for the performance ledger.

This sandbox's speed drifts: the same deterministic 0.3 s simulation was
measured between 0.27 s and 0.6 s within one minute, partly call to call
and partly in regimes that last tens of seconds, so raw seconds from two
runs a few minutes apart differ by more than any bound a benchmark could
usefully set (ten runs of one workload: raw pass seconds with quartiles
20 % apart, in one bad quarter of an hour 54 %).  Two things slow it:
contention, which inflates CPU time and which both cores see together, and
the hypervisor taking the CPUs away, which adds wall time on top
(``steal`` in ``/proc/stat``; wall − CPU of a single-threaded run equals it).

The ledger therefore runs a :class:`Sampler` beside every measurement: a
child process that executes a fixed interpreter-bound kernel four times a
second and records each slice's CPU time and the kernel's busy and stolen
tick counters.  A region's *host factor* is the mean slice CPU time inside
it over :data:`CAL_REF_S`, times (busy + stolen) ÷ busy ticks across it, and
the ledger reports *calibrated seconds*: raw seconds divided by that
factor.  The same ten runs, calibrated, had quartiles 3–6 % apart.

What did not work: timing blocks of the kernel in the measuring process
before and after each pass (too few samples for how fast the host changes:
worse than raw); a sampling thread's CPU clock (halved the spread only);
the slices' wall time (the scheduler wakes the child on the busy core, so
it measures the ledger's own load).  A warm-up slice before the timed one,
smaller slices more often and pinning the child to one CPU changed nothing.
What remains is what one core suffers alone (a busy hyperthread sibling
slows the kernel 1.5× from one second to the next): the sampler cannot see
the workload's core, so in a quiet hour calibrated runs spread as raw ones
do, and about one run in a hundred is off by 20 %.

The kernel is a toy heap-driven event loop (objects, deques, dicts, bound
calls, small allocations).  It shares no code with ``src/``, so a faster
simulator lowers every calibrated time, while a faster interpreter or host
moves kernel and simulator together.  The sampler costs about 7 % of one
core, the same on every run.
"""

from __future__ import annotations

import heapq
import json
import random
import select
import statistics
import subprocess
import sys
import time
from collections import deque

#: CPU seconds of one kernel slice on the reference host (this sandbox in
#: its usual state).  Calibrated seconds equal raw seconds when slices take
#: this long.
CAL_REF_S = 0.017

#: Seconds the sampler sleeps between slices.
PERIOD_S = 0.25

#: A region shorter than this many samples borrows the nearest ones.
MIN_SAMPLES = 4


class _Node:
    __slots__ = ("queue", "served", "peers", "table")

    def __init__(self) -> None:
        self.queue: deque[int] = deque()
        self.served = 0
        self.peers: list[_Node] = []
        self.table: dict[int, float] = {}


def _build(nodes: int = 2048, seed: int = 7) -> list[_Node]:
    rng = random.Random(seed)
    net = [_Node() for _ in range(nodes)]
    for node in net:
        node.peers = [net[rng.randrange(nodes)] for _ in range(4)]
        node.table = {i: rng.random() for i in range(64)}
    return net


def kernel(net: list[_Node], events: int = 10_000) -> int:
    """One calibration slice: ``events`` pops of a toy event queue."""
    heap: list[tuple[int, int, _Node]] = []
    push, pop = heapq.heappush, heapq.heappop
    seq = 0
    for node in net[:64]:
        push(heap, (seq & 7, seq, node))
        seq += 1
    now = 0
    for _ in range(events):
        now, _, node = pop(heap)
        node.served += 1
        node.queue.append(now)
        if len(node.queue) > 8:
            node.queue.popleft()
        k = node.served & 63
        node.table[k] = node.table.get(k, 0.0) * 0.5 + now
        push(heap, (now + 1 + (k & 7), seq, node.peers[node.served & 3]))
        seq += 1
    return now


def _sample_until_eof() -> None:
    """The child: one slice per period until stdin closes (the parent
    stopped, or died), then every sample as JSON."""
    net = _build()
    kernel(net)  # the first slice pays for the kernel's own warm-up
    samples: list[tuple[float, float, int, int]] = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        cpu = time.process_time()
        kernel(net)
        cpu = time.process_time() - cpu
        # perf_counter is CLOCK_MONOTONIC here: one clock for both processes.
        samples.append((time.perf_counter(), cpu, *_busy_and_stolen()))
    json.dump(samples, sys.stdout)


def _busy_and_stolen() -> tuple[int, int]:
    """Ticks all CPUs have spent running (user, nice, system, irq, softirq)
    and waiting for the hypervisor (steal) since boot; zeros off Linux."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return sum(ticks[:3]) + sum(ticks[5:7]), ticks[7]


class Sampler:
    """Samples host speed from a child process while the ledger measures."""

    def __init__(self) -> None:
        #: (clock, slice CPU seconds, busy ticks, stolen ticks) per slice.
        self.samples: list[tuple[float, float, int, int]] = []
        self._proc: subprocess.Popen | None = None

    def start(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )

    def stop(self) -> None:
        """End the child, wait for it and keep its samples."""
        if self._proc is None:
            return
        proc, self._proc = self._proc, None
        out, _ = proc.communicate("", timeout=30)
        if proc.returncode != 0:
            raise RuntimeError(f"calibration sampler exited {proc.returncode}")
        self.samples = [tuple(s) for s in json.loads(out)]

    def factor(self, start: float, end: float) -> float:
        """How much slower than the reference the host ran between two
        ``perf_counter`` readings (1.0 = reference speed)."""
        if len(self.samples) < MIN_SAMPLES:
            raise RuntimeError("too few calibration samples "
                               f"({len(self.samples)})")
        inside = [s for s in self.samples if start <= s[0] <= end]
        if len(inside) < MIN_SAMPLES:
            nearest = sorted(
                self.samples,
                key=lambda s: max(start - s[0], s[0] - end, 0.0),
            )
            inside = sorted(nearest[:MIN_SAMPLES])
        slowdown = statistics.fmean(s[1] for s in inside) / CAL_REF_S
        busy = inside[-1][2] - inside[0][2]
        stolen = inside[-1][3] - inside[0][3]
        return slowdown * (1.0 + stolen / busy) if busy else slowdown


if __name__ == "__main__":
    _sample_until_eof()
