"""Synthetic GPGPU kernel descriptions and their address streams.

The paper drives GPGPU-Sim with 15 real CUDA kernels; we substitute
parameterized synthetic kernels (see DESIGN.md §2).  A :class:`KernelSpec`
captures exactly the characteristics the DASE model is sensitive to:

* **memory intensity** — mean compute instructions between memory
  instructions per warp (``compute_per_mem``);
* **locality** — row-buffer-friendly streaming vs random access, and cache
  reuse via a per-application hot working set (``reuse_fraction`` /
  ``working_set_lines``);
* **TLP** — warps per block and the total number of thread blocks
  (Eq. 24's TB_sum limit);
* **coalescing** — memory requests generated per memory instruction.

Each application owns a disjoint slice of the address space so concurrent
kernels never share data, only hardware.
"""

from __future__ import annotations

import enum
import functools
import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Iterator


class AccessPattern(enum.Enum):
    """Spatial behaviour of the non-reuse part of the address stream."""

    STREAM = "stream"  # sequential lines: high row locality, high BLP
    STRIDED = "strided"  # fixed stride in lines: moderate row locality
    RANDOM = "random"  # uniform over the working set: poor row locality


#: Address-space slice reserved per application, in cache lines (512 MB).
APP_SPACE_LINES = 1 << 22


@dataclass(frozen=True)
class KernelPhase:
    """One phase of a phase-shifting kernel (open-system nonstationarity).

    A phase covers ``insts`` instructions of every warp's budget and may
    override the compute/memory mix knobs for that span; ``None`` fields
    inherit the enclosing :class:`KernelSpec`.  Phase boundaries are
    *declared instruction boundaries*: a step (compute burst + memory
    instruction) never straddles them, so the per-warp instruction total is
    conserved exactly regardless of how the budget is split into phases
    (property-tested in ``tests/test_opensys.py``).
    """

    insts: int
    compute_per_mem: float | None = None
    store_fraction: float | None = None
    wide_fraction: float | None = None
    reuse_fraction: float | None = None
    pattern: AccessPattern | None = None

    def __post_init__(self) -> None:
        if self.insts < 1:
            raise ValueError("a phase covers at least one instruction")
        if self.compute_per_mem is not None and self.compute_per_mem < 0:
            raise ValueError("compute_per_mem must be non-negative")
        for name in ("store_fraction", "wide_fraction", "reuse_fraction"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")


@dataclass(frozen=True)
class KernelSpec:
    """Static description of one synthetic GPGPU application."""

    name: str
    compute_per_mem: float  # mean compute instructions per memory instruction
    pattern: AccessPattern = AccessPattern.STREAM
    warps_per_block: int = 6
    blocks_total: int = 10_000  # total thread blocks the grid launches
    insts_per_warp: int = 4_000  # instruction budget per warp
    accesses_per_mem_inst: int = 1  # >1 models uncoalesced accesses
    wide_fraction: float = 0.0  # fraction of accesses touching TWO
    # consecutive lines (one 256 B granule: same partition, same DRAM row,
    # in flight together) — this is where coalesced kernels get their
    # row-buffer locality, so it controls the saturated DRAM efficiency
    store_fraction: float = 0.0  # fraction of memory instructions that are
    # stores: they consume memory-system bandwidth but do not block the
    # warp (write-through, no write-allocate, fire-and-forget)
    working_set_lines: int = 1 << 16  # footprint of RANDOM / reuse accesses
    reuse_fraction: float = 0.0  # fraction of accesses to the hot set
    hot_set_lines: int = 2_048  # size of the cache-resident hot set
    stride_lines: int = 1  # stride for STRIDED pattern
    burst_jitter: float = 0.3  # relative jitter on compute burst lengths
    max_resident_blocks: int | None = None  # per-SM occupancy limit (models
    # register/shared-memory pressure; low values make the kernel
    # latency-sensitive because TLP can no longer hide memory time)
    phases: tuple[KernelPhase, ...] = ()  # phase schedule partitioning
    # insts_per_warp; empty = stationary, one implicit phase (see schedule)

    def __post_init__(self) -> None:
        if self.compute_per_mem < 0:
            raise ValueError("compute_per_mem must be non-negative")
        if not 0.0 <= self.reuse_fraction <= 1.0:
            raise ValueError("reuse_fraction must be in [0, 1]")
        if not 0.0 <= self.wide_fraction <= 1.0:
            raise ValueError("wide_fraction must be in [0, 1]")
        if not 0.0 <= self.store_fraction <= 1.0:
            raise ValueError("store_fraction must be in [0, 1]")
        if self.warps_per_block < 1 or self.blocks_total < 1:
            raise ValueError("kernel needs at least one block of one warp")
        if self.insts_per_warp < 2:
            raise ValueError("warps must run at least two instructions")
        if self.accesses_per_mem_inst < 1:
            raise ValueError("memory instructions touch at least one line")
        if self.working_set_lines < 1 or self.hot_set_lines < 1:
            raise ValueError("working sets must be non-empty")
        if self.phases:
            object.__setattr__(self, "phases", tuple(self.phases))
            covered = sum(p.insts for p in self.phases)
            if covered != self.insts_per_warp:
                raise ValueError(
                    f"phases cover {covered} instructions but the warp "
                    f"budget is {self.insts_per_warp}"
                )

    @functools.cached_property
    def schedule(self) -> tuple[KernelPhase, ...]:
        """The phases a warp steps through: ``phases``, or one implicit
        phase covering the whole budget.  Built once per spec."""
        return self.phases or (KernelPhase(self.insts_per_warp),)

    @property
    def mem_fraction(self) -> float:
        """Fraction of instructions that are memory instructions."""
        return 1.0 / (1.0 + self.compute_per_mem)


def stream_seed(seed: int, app_index: int, block_id: int, warp_id: int) -> str:
    """RNG seed string for one warp stream."""
    return f"{seed}/{app_index}/{block_id}/{warp_id}"


def stream_bases(
    spec: KernelSpec, app_index: int, block_id: int, warp_id: int
) -> tuple[int, int]:
    """(hot-set base line, granule-aligned streaming-region base line).

    One disjoint streaming region per warp, sized to its worst-case
    footprint.
    """
    base = app_index * APP_SPACE_LINES
    footprint = max(
        2,
        spec.insts_per_warp
        * spec.accesses_per_mem_inst
        * max(spec.stride_lines, 2),
    )
    warp_global = block_id * spec.warps_per_block + warp_id
    region = base + spec.hot_set_lines + (warp_global * footprint) % (
        APP_SPACE_LINES - spec.hot_set_lines - footprint
    )
    return base, region & ~1


def _steps(
    spec: KernelSpec, rng: random.Random, hot_base: int, region_base: int,
    line_bytes: int,
) -> Iterator[tuple[int, list[int], bool]]:
    """Endless (burst, byte addresses, is_store) steps of one warp.

    The mix knobs come from the phase owning the step and are bound to
    locals once per phase, so a step costs little beyond its RNG draws.
    Each compute burst is capped by the instructions its phase has left,
    so the step's memory instruction stays inside the phase: a step never
    straddles a declared phase boundary, which is what conserves the
    per-warp instruction total exactly for every split of the budget.  The
    last phase's remainder is the warp's; past it the cap holds every
    burst at zero.
    """
    uniform = rng.uniform
    rand = rng.random
    randrange = rng.randrange
    jitter = spec.burst_jitter
    n_acc = spec.accesses_per_mem_inst
    hot_lines = spec.hot_set_lines
    ws_lines = spec.working_set_lines
    stride = spec.stride_lines
    cursor = 0
    phases = spec.schedule
    last = len(phases) - 1

    for i, ph in enumerate(phases):
        mean = (spec.compute_per_mem if ph.compute_per_mem is None
                else ph.compute_per_mem)
        draw_burst = mean > 0
        lo = max(0.0, mean * (1.0 - jitter))
        hi = mean * (1.0 + jitter)
        sf = spec.store_fraction if ph.store_fraction is None else ph.store_fraction
        wf = spec.wide_fraction if ph.wide_fraction is None else ph.wide_fraction
        rf = spec.reuse_fraction if ph.reuse_fraction is None else ph.reuse_fraction
        pattern = spec.pattern if ph.pattern is None else ph.pattern
        pattern_random = pattern is AccessPattern.RANDOM
        final = i == last
        left = ph.insts

        while left > 0 or final:
            # Compute burst: drawn, then capped to leave room for the
            # memory instruction that ends the step.
            if draw_burst:
                burst = int(round(uniform(lo, hi)))
            else:
                burst = 0
            cap = left - 1
            if cap < 0:
                cap = 0
            if burst > cap:
                burst = cap
            left -= burst + 1
            # Memory instruction: store flag, then one or more addresses.
            # A *wide* access (``wide_fraction``) touches two consecutive
            # lines aligned to one interleave granule, so both land in the
            # same partition and DRAM row and are outstanding together —
            # the FR-FCFS controller then serves the second as a row hit.
            is_store = sf > 0.0 and rand() < sf
            out: list[int] = []
            for _ in range(n_acc):
                wide = wf > 0.0 and rand() < wf
                if rf > 0.0 and rand() < rf:
                    line = hot_base + randrange(hot_lines)
                    wide = False  # hot-set lines are cache-resident singles
                elif pattern_random:
                    line = region_base + randrange(ws_lines)
                    if wide:
                        line &= ~1
                else:  # STREAM / STRIDED
                    if wide:
                        cursor = (cursor + 1) & ~1  # granule-align
                    line = region_base + cursor
                    cursor += 2 if wide else stride
                out.append(line * line_bytes)
                if wide:
                    out.append((line + 1) * line_bytes)
            yield burst, out, is_store


class WarpStream:
    """Deterministic per-warp instruction/address generator.

    A warp alternates compute bursts and memory instructions until its
    instruction budget is spent.  Streams are reproducible: the RNG is seeded
    from ``(app seed, block id, warp id)`` so a shared run and its
    matched-instruction alone replay see identical behaviour.

    A step — compute burst, then one memory instruction — is generated only
    when the SM asks for it, by one generator per warp
    (:func:`_steps`): :meth:`next_compute_burst` pulls the next step and
    :meth:`next_mem_access` consumes it.  A warp cut off by the end of a run
    window has drawn at most the step it was issuing, and the stream of
    (burst, addresses, is_store) values is the draw-for-draw stepwise
    sequence.
    Off the SM's strict alternation, two bursts in a row return the same
    burst (each subtracts it), a memory access with no burst before it
    consumes the next step, and a warp past :attr:`done` keeps yielding
    zero-burst steps.
    """

    __slots__ = ("spec", "remaining_insts", "_steps", "_step")

    def __init__(
        self,
        spec: KernelSpec,
        app_index: int,
        block_id: int,
        warp_id: int,
        seed: int,
        line_bytes: int,
    ) -> None:
        self.spec = spec
        self.remaining_insts = spec.insts_per_warp
        # Streaming regions start past the hot set (see stream_bases).
        self._steps = _steps(
            spec,
            random.Random(stream_seed(seed, app_index, block_id, warp_id)),
            *stream_bases(spec, app_index, block_id, warp_id),
            line_bytes,
        )
        # The step a burst was pulled for, until its memory access.
        self._step: tuple[int, list[int], bool] | None = None

    @property
    def done(self) -> bool:
        return self.remaining_insts <= 0

    def next_compute_burst(self) -> int:
        """Length of the next compute burst, in instructions (may be 0)."""
        step = self._step
        if step is None:
            step = self._step = next(self._steps)
        burst = step[0]
        self.remaining_insts -= burst
        return burst

    def next_mem_access(self) -> tuple[list[int], bool]:
        """(byte addresses, is_store) for the next memory instruction."""
        step = self._step
        if step is None:
            step = next(self._steps)
        else:
            self._step = None
        self.remaining_insts -= 1
        return step[1], step[2]

    def next_mem_addresses(self) -> list[int]:
        """Byte addresses touched by the next memory instruction."""
        return self.next_mem_access()[0]


@dataclass
class KernelProgress:
    """Mutable run-time bookkeeping for one launched kernel."""

    spec: KernelSpec
    blocks_dispatched: int = 0
    blocks_finished: int = 0
    restarts: int = 0
    instructions: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def blocks_remaining(self) -> int:
        return self.spec.blocks_total - self.blocks_dispatched

    def next_block_id(self) -> int:
        """Dispatch the next thread block, restarting the grid if exhausted.

        The paper's methodology restarts an application that finishes before
        the 5M-cycle window closes; restarting the grid reproduces that.
        """
        if self.blocks_remaining <= 0:
            self.restarts += 1
            self.blocks_dispatched = 0
        bid = self.blocks_dispatched
        self.blocks_dispatched += 1
        return bid + self.restarts * self.spec.blocks_total


class ProgressCurve:
    """One application's progress along a run: ``(cycle, cumulative
    instructions)`` at every cycle in which one of its bursts retired.

    Both sequences are strictly increasing and held as typed arrays.  The
    curve answers the question a matched-instruction replay asks — *at
    which cycle does the count reach N?* — for every N up to :attr:`end`:
    the first recorded cycle whose cumulative count is ≥ N, which is the
    clock a fresh :meth:`GPU.run_until_instructions` to N stops at.

    A run stopped inside a cycle leaves that cycle's entry *partial*: the
    cycle is right, the count is what had retired when the run stopped.
    Every count up to it is still answered exactly; resuming the run
    raises the entry to the cycle's full count.  So two curves taken from
    one trajectory agree entry for entry, except that the shorter one's
    last count may be lower (:meth:`same_trajectory`).
    """

    __slots__ = ("cycles", "instructions")

    def __init__(
        self, cycles: Iterable[int] = (), instructions: Iterable[int] = ()
    ) -> None:
        self.cycles = array("q", cycles)
        self.instructions = array("q", instructions)
        if len(self.cycles) != len(self.instructions):
            raise ValueError("one cumulative count per recorded cycle")

    def __len__(self) -> int:
        return len(self.cycles)

    @property
    def end(self) -> int:
        """The furthest instruction count this curve answers."""
        return self.instructions[-1] if self.instructions else 0

    def note(self, cycle: int, instructions: int) -> None:
        """Record the cumulative count after a burst retired at ``cycle``."""
        if self.cycles and self.cycles[-1] == cycle:
            self.instructions[-1] = instructions
        else:
            self.cycles.append(cycle)
            self.instructions.append(instructions)

    def cycle_at(self, instructions: int) -> int | None:
        """Clock at which the count first reached ``instructions``; None
        past :attr:`end`."""
        if instructions <= 0:
            return 0
        if instructions > self.end:
            return None
        return self.cycles[bisect_left(self.instructions, instructions)]

    def copy(self) -> "ProgressCurve":
        return ProgressCurve(self.cycles, self.instructions)

    def same_trajectory(self, other: "ProgressCurve") -> bool:
        """True when both curves are prefixes of one trajectory."""
        short, long = sorted((self, other), key=len)
        n = len(short)
        if n == 0:
            return True
        return (
            short.cycles == long.cycles[:n]
            and short.instructions[:n - 1] == long.instructions[:n - 1]
            and (short.instructions[-1] <= long.instructions[n - 1]
                 or len(long) == n)
        )
