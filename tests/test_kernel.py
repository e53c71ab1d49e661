"""Unit tests for kernel specs and warp address streams."""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.kernel import (
    APP_SPACE_LINES,
    AccessPattern,
    KernelPhase,
    KernelProgress,
    KernelSpec,
    WarpStream,
)
from repro.workloads import SUITE

LINE = 128


def stream(spec, app=0, block=0, warp=0, seed=1):
    return WarpStream(spec, app, block, warp, seed, LINE)


class TestKernelSpecValidation:
    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec("x", compute_per_mem=-1)

    def test_bad_reuse_fraction_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec("x", compute_per_mem=1, reuse_fraction=1.5)

    def test_zero_warps_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec("x", compute_per_mem=1, warps_per_block=0)

    def test_tiny_inst_budget_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec("x", compute_per_mem=1, insts_per_warp=1)

    def test_mem_fraction(self):
        assert KernelSpec("x", compute_per_mem=3).mem_fraction == 0.25


class TestWarpStream:
    def test_deterministic_replay(self):
        spec = KernelSpec("x", compute_per_mem=10, pattern=AccessPattern.RANDOM)
        a, b = stream(spec), stream(spec)
        for _ in range(50):
            assert a.next_compute_burst() == b.next_compute_burst()
            assert a.next_mem_addresses() == b.next_mem_addresses()

    def test_different_warps_differ(self):
        spec = KernelSpec("x", compute_per_mem=10, pattern=AccessPattern.RANDOM)
        a, b = stream(spec, warp=0), stream(spec, warp=1)
        seq_a = [tuple(a.next_mem_addresses()) for _ in (a.next_compute_burst(),) * 5]
        seq_b = [tuple(b.next_mem_addresses()) for _ in (b.next_compute_burst(),) * 5]
        assert seq_a != seq_b

    def test_instruction_budget_exhausted(self):
        spec = KernelSpec("x", compute_per_mem=4, insts_per_warp=100)
        s = stream(spec)
        total = 0
        while not s.done:
            burst = s.next_compute_burst()
            addrs = s.next_mem_addresses()
            total += burst + 1
            assert len(addrs) == 1
        assert total == 100

    def test_always_ends_with_memory_instruction(self):
        spec = KernelSpec("x", compute_per_mem=7, insts_per_warp=50)
        s = stream(spec)
        while not s.done:
            s.next_compute_burst()
            assert s.remaining_insts >= 1  # burst reserved the mem inst
            s.next_mem_addresses()
        assert s.remaining_insts == 0

    def test_zero_compute_kernel(self):
        spec = KernelSpec("x", compute_per_mem=0, insts_per_warp=10)
        s = stream(spec)
        assert s.next_compute_burst() == 0

    def test_streaming_addresses_are_sequential_lines(self):
        spec = KernelSpec(
            "x", compute_per_mem=1, pattern=AccessPattern.STREAM, burst_jitter=0
        )
        s = stream(spec)
        lines = []
        for _ in range(10):
            s.next_compute_burst()
            lines.append(s.next_mem_addresses()[0] // LINE)
        assert lines == list(range(lines[0], lines[0] + 10))

    def test_strided_addresses(self):
        spec = KernelSpec(
            "x", compute_per_mem=1, pattern=AccessPattern.STRIDED, stride_lines=5
        )
        s = stream(spec)
        lines = []
        for _ in range(5):
            s.next_compute_burst()
            lines.append(s.next_mem_addresses()[0] // LINE)
        assert [b - a for a, b in zip(lines, lines[1:])] == [5] * 4

    def test_random_addresses_stay_in_working_set(self):
        spec = KernelSpec(
            "x", compute_per_mem=1, pattern=AccessPattern.RANDOM,
            working_set_lines=64, hot_set_lines=16,
        )
        s = stream(spec, app=2)
        base = 2 * APP_SPACE_LINES
        for _ in range(100):
            s.next_compute_burst()
            line = s.next_mem_addresses()[0] // LINE
            assert base <= line < base + 16 + 64 + 100_000

    def test_reuse_hits_hot_set(self):
        spec = KernelSpec(
            "x", compute_per_mem=1, pattern=AccessPattern.STREAM,
            reuse_fraction=1.0, hot_set_lines=8,
        )
        s = stream(spec, app=1)
        base = APP_SPACE_LINES
        for _ in range(50):
            s.next_compute_burst()
            line = s.next_mem_addresses()[0] // LINE
            assert base <= line < base + 8

    def test_apps_have_disjoint_address_spaces(self):
        spec = KernelSpec("x", compute_per_mem=1, pattern=AccessPattern.RANDOM)
        s0, s1 = stream(spec, app=0), stream(spec, app=1)
        for _ in range(20):
            s0.next_compute_burst()
            s1.next_compute_burst()
            a0 = s0.next_mem_addresses()[0] // LINE
            a1 = s1.next_mem_addresses()[0] // LINE
            assert a0 < APP_SPACE_LINES <= a1 < 2 * APP_SPACE_LINES

    def test_uncoalesced_generates_multiple_addresses(self):
        spec = KernelSpec("x", compute_per_mem=1, accesses_per_mem_inst=4)
        s = stream(spec)
        s.next_compute_burst()
        assert len(s.next_mem_addresses()) == 4

    @given(st.integers(min_value=0, max_value=60), st.integers(2, 500))
    @settings(max_examples=30, deadline=None)
    def test_property_burst_respects_budget(self, cpm, budget):
        spec = KernelSpec("x", compute_per_mem=cpm, insts_per_warp=budget)
        s = stream(spec)
        issued = 0
        while not s.done:
            b = s.next_compute_burst()
            assert b >= 0
            s.next_mem_addresses()
            issued += b + 1
        assert issued == budget


class TestKernelProgress:
    def test_sequential_dispatch(self):
        prog = KernelProgress(KernelSpec("x", compute_per_mem=1, blocks_total=3))
        assert [prog.next_block_id() for _ in range(3)] == [0, 1, 2]
        assert prog.blocks_remaining == 0

    def test_restart_after_exhaustion(self):
        prog = KernelProgress(KernelSpec("x", compute_per_mem=1, blocks_total=2))
        ids = [prog.next_block_id() for _ in range(5)]
        assert ids == [0, 1, 2, 3, 4]  # globally unique across restarts
        assert prog.restarts == 2

    def test_blocks_remaining_within_grid(self):
        prog = KernelProgress(KernelSpec("x", compute_per_mem=1, blocks_total=4))
        prog.next_block_id()
        assert prog.blocks_remaining == 3


#: (app index, block id, warp id, seed) points every SUITE stream is pinned
#: at: the first warp of the first app, a mid-grid warp, and a block id past
#: a grid restart.
DIGEST_POINTS = ((0, 0, 0, 1), (1, 37, 5, 2016), (3, 10_123, 2, 9401))

#: A phased spec touching every override: a compute-free phase, a random
#: phase with stores and reuse, and one that inherits everything.
PHASED = KernelSpec(
    "phased", compute_per_mem=6, pattern=AccessPattern.STREAM,
    wide_fraction=0.3, insts_per_warp=500, reuse_fraction=0.1,
    phases=(
        KernelPhase(insts=90, compute_per_mem=0.0, wide_fraction=1.0),
        KernelPhase(insts=170, compute_per_mem=11.0, store_fraction=0.4,
                    reuse_fraction=0.5, pattern=AccessPattern.RANDOM),
        KernelPhase(insts=240),
    ),
)

#: sha256 (first 16 hex digits) of every step each stream yields, drained
#: in the SM's burst/memory alternation and three steps past done.
STREAM_DIGESTS = {
    "AA": "b68a646913a54236", "AT": "99ebe7e6c0ee7208",
    "BG": "5d0cd7db140fcd89", "BS": "ed5cfb14d37840bd",
    "CS": "c6ada762adfa848c", "CT": "1e970699b555ec94",
    "NN": "c5b7adcf556f121b", "QR": "3cc9761b3af7fe7b",
    "SA": "ff3e42ed0bce8d97", "SB": "0428a76854cf319a",
    "SC": "6466c43e2ca43beb", "SD": "6ae8adb5b285a160",
    "SN": "f5660f16a0d1a093", "SP": "5ea2d1cd7ab7331d",
    "VA": "23d96b473a865c07",
}
PHASED_DIGEST = "5d21878c61138851"
OFF_PATTERN_DIGESTS = {
    "NN": "350756c15714f845", "SB": "41480118dfffb640",
    "SD": "35a5c9b7768c2f3d", "phased": "e7aaef00da6ee85a",
}

#: Call orders the SM never makes: two bursts in a row, a memory access with
#: no burst before it, and the addresses-only form.  ``b`` is
#: next_compute_burst, ``m`` next_mem_access, ``a`` next_mem_addresses.
OFF_PATTERN_OPS = "bbm" "m" "bm" "a" "bbbm" "mm" "ba" "bm"


def _record(s: WarpStream, ops: str) -> list:
    calls = {"b": s.next_compute_burst, "m": s.next_mem_access,
             "a": s.next_mem_addresses}
    out = []
    for op in ops:
        out.append([op, calls[op](), s.remaining_insts, s.done])
    return out


def _stream_digest(spec: KernelSpec, ops: str = "") -> str:
    steps = []
    for app, block, warp, seed in DIGEST_POINTS:
        s = stream(spec, app, block, warp, seed)
        steps.append(_record(s, ops))
        while not s.done:
            steps.append(_record(s, "bm"))
        steps.append(_record(s, "bm" * 3))
    blob = json.dumps(steps, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class TestStreamDigest:
    """Every warp stream, byte for byte: the unit-level guard beside the
    end-to-end goldens for any change to how steps are generated."""

    @pytest.mark.parametrize("name", sorted(SUITE))
    def test_suite_stream(self, name):
        assert _stream_digest(SUITE[name]) == STREAM_DIGESTS[name]

    def test_phased_stream(self):
        assert _stream_digest(PHASED) == PHASED_DIGEST

    @pytest.mark.parametrize("name", sorted(OFF_PATTERN_DIGESTS))
    def test_off_pattern_call_orders(self, name):
        spec = PHASED if name == "phased" else SUITE[name]
        assert _stream_digest(spec, OFF_PATTERN_OPS) == (
            OFF_PATTERN_DIGESTS[name]
        )

    def test_two_bursts_in_a_row_repeat_and_subtract(self):
        s = stream(SUITE["SD"])
        first = s.next_compute_burst()
        assert s.next_compute_burst() == first
        assert s.remaining_insts == SUITE["SD"].insts_per_warp - 2 * first

    def test_steps_past_done_have_no_burst(self):
        s = stream(SUITE["SB"])
        while not s.done:
            s.next_compute_burst()
            s.next_mem_access()
        for _ in range(3):
            assert s.next_compute_burst() == 0
            assert len(s.next_mem_access()[0]) >= 1
        assert s.remaining_insts == -3
