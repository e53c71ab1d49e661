"""GPU configuration (paper Table 2).

Every structural and timing parameter of the simulated GPU lives here so
experiments can reproduce the paper's GTX480-like baseline or deviate from it
(e.g. Figure 8b varies the SM count).  All timings are expressed in *GPU core
cycles*; DRAM-domain timings from the paper (924 MHz) are converted with
:attr:`GPUConfig.dram_clock_ratio`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class DRAMTimings:
    """DRAM timing constraints, in DRAM-clock cycles (paper Table 2).

    ``tRP``/``tRCD`` are the precharge and row-activate delays the paper's
    row-buffer-interference term charges (Eq. 10).  ``tCL`` is column access
    latency and ``tBurst`` the data-bus occupancy of one 128 B line transfer.
    """

    tRP: int = 12
    tRCD: int = 12
    tCL: int = 12
    tBurst: int = 4
    tFAW: int = 44  # four-activate window: at most 4 row activations per
    # rolling tFAW; binds row-miss-heavy (random/strided) traffic well below
    # the data-bus peak, as on real GDDR

    @property
    def row_miss_penalty(self) -> int:
        """Extra cycles a row-buffer miss costs over a hit (tRP + tRCD)."""
        return self.tRP + self.tRCD


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one L2 cache slice (one per memory partition)."""

    size_bytes: int = 128 * 1024  # 768 KB total / 6 partitions
    line_bytes: int = 128
    assoc: int = 8

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.assoc)

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_bytes * self.assoc):
            raise ValueError("cache size must be a multiple of line*assoc")
        n = self.size_bytes // (self.line_bytes * self.assoc)
        if n & (n - 1):
            raise ValueError(f"number of sets must be a power of two, got {n}")


@dataclass(frozen=True)
class GPUConfig:
    """Full simulated-GPU configuration.  Defaults follow paper Table 2.

    The paper's GTX480-like baseline: 16 SMs at 1400 MHz (max 48 warps each),
    6 memory controllers behind one crossbar, FR-FCFS scheduling over
    16 DRAM banks per controller at 924 MHz, 128 B cache lines.
    """

    # --- SMs -------------------------------------------------------------
    n_sms: int = 16
    max_warps_per_sm: int = 48
    max_blocks_per_sm: int = 8
    issue_width: int = 1  # instructions issued per SM cycle

    # --- Memory system ---------------------------------------------------
    # --- Per-SM L1 data cache (Table 2: 16 KB, 4-way) ---------------------
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=16 * 1024, assoc=4)
    )
    l1_enabled: bool = True
    l1_latency: int = 1  # L1 hit turnaround, core cycles

    n_partitions: int = 6
    n_banks: int = 16
    interleave_lines: int = 2  # cache lines per partition-interleave granule
    # (2 × 128 B = 256 B, as on real GPUs) — wide two-line accesses stay in
    # one partition and hit the same DRAM row
    l2: CacheConfig = field(default_factory=CacheConfig)
    dram: DRAMTimings = field(default_factory=DRAMTimings)
    row_bytes: int = 2048  # DRAM row-buffer size
    mc_queue_depth: int = 64  # outstanding requests per memory controller
    mc_issue_gap: int = 10  # min core cycles between request issues per MC;
    # folds command-bus occupancy / tCCD / tFAW into one knob and caps DRAM
    # data-bus efficiency near the ~60-70% real controllers reach (the same
    # effect the paper's 0.6 factor in Eq. 20 accounts for)

    # --- Clocks ----------------------------------------------------------
    core_clock_mhz: float = 1400.0
    dram_clock_mhz: float = 924.0

    # --- Interconnect ----------------------------------------------------
    icnt_latency: int = 20  # crossbar one-way wire latency, core cycles
    icnt_packet_cycles: int = 2  # per-port serialization per packet
    l2_latency: int = 10  # L2 hit lookup latency, core cycles

    mc_scheduler: str = "frfcfs"  # "frfcfs" (baseline) or "rr":
    # application-aware round-robin à la Jog et al. [11], which serves
    # applications' requests in turn to curb starvation (related-work
    # comparison; see benchmarks/test_memsched_comparison.py)

    # --- Estimation ------------------------------------------------------
    interval_cycles: int = 50_000  # DASE sampling interval (paper §4.4)
    atd_sample_sets: int = 8  # sampled ATD sets (paper §6)
    reqmax_factor: float = 0.6  # empirical factor in Eq. 20
    alpha_clamp: float = 0.3  # α above this is treated as 1 (paper §4.2.1:
    # "setting α to 1 makes DASE more accurate when α is large"; with the
    # interference time already capped at α·T, a stalled-at-all SM is best
    # modelled by the undamped ratio — see test_ablation_alpha_clamp in
    # benchmarks/test_ablations.py)

    # --- Reproducibility ---------------------------------------------------
    seed: int = 12345

    @property
    def dram_clock_ratio(self) -> float:
        """Core cycles per DRAM cycle (>1: DRAM is slower than the core)."""
        return self.core_clock_mhz / self.dram_clock_mhz

    def dram_cycles_to_core(self, dram_cycles: float) -> int:
        """Convert a DRAM-domain delay into (rounded-up) core cycles."""
        return int(math.ceil(dram_cycles * self.dram_clock_ratio))

    @property
    def time_per_request(self) -> int:
        """T_perReq of Eq. 20: core cycles of data-bus time per served request."""
        return self.dram_cycles_to_core(self.dram.tBurst)

    @property
    def lines_per_row(self) -> int:
        return self.row_bytes // self.l2.line_bytes

    def with_sms(self, n_sms: int) -> "GPUConfig":
        """A copy of this config with a different SM count (Figure 8b)."""
        return replace(self, n_sms=n_sms)

    def __post_init__(self) -> None:
        if self.n_sms < 1:
            raise ValueError("need at least one SM")
        if self.n_partitions < 1:
            raise ValueError("need at least one memory partition")
        if self.n_banks & (self.n_banks - 1):
            raise ValueError("bank count must be a power of two")
        if self.row_bytes % self.l2.line_bytes:
            raise ValueError("row size must be a multiple of the line size")
        if not 0.0 < self.reqmax_factor <= 1.0:
            raise ValueError("reqmax_factor must be in (0, 1]")
        if self.mc_scheduler not in ("frfcfs", "rr"):
            raise ValueError("mc_scheduler must be 'frfcfs' or 'rr'")
        if self.interleave_lines & (self.interleave_lines - 1):
            raise ValueError("interleave_lines must be a power of two")


#: The paper's baseline configuration (Table 2).
BASELINE = GPUConfig()
