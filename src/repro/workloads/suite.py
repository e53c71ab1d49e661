"""The 15 evaluated applications (paper Table 3), as synthetic kernels.

Each :class:`~repro.sim.kernel.KernelSpec` is calibrated so that, running
*alone* on the full baseline GPU, its DRAM bandwidth utilization lands near
the value Table 3 reports for the real CUDA kernel it stands in for.
Beyond bandwidth, the specs diversify along every axis the DASE model is
sensitive to: access pattern (row-buffer locality), cache reuse, thread-level
parallelism, and coalescing — e.g. SD (srad) is the random-access,
cache-sensitive victim the paper's motivation section studies, and SB
(sobol) is the bandwidth-hog MBB aggressor of Figure 4.

Calibration is measured in one place, ``repro table3``
(:func:`repro.harness.experiments.table3_bw_utilization`), and checked
against the ``table3`` claims of :mod:`repro.figure_table` by
``tests/test_suite_calibration.py``.
"""

from __future__ import annotations

import itertools
import random

from repro.sim.kernel import AccessPattern, KernelSpec

#: Paper Table 3 — attained DRAM bandwidth utilization running alone.
TABLE3_BW_UTILIZATION: dict[str, float] = {
    "BS": 0.65, "AA": 0.61, "CT": 0.16, "CS": 0.32, "QR": 0.14,
    "VA": 0.60, "SB": 0.68, "SA": 0.58, "SP": 0.55, "AT": 0.47,
    "SN": 0.20, "SC": 0.53, "BG": 0.21, "NN": 0.56, "SD": 0.40,
}

_S = AccessPattern.STREAM
_T = AccessPattern.STRIDED
_R = AccessPattern.RANDOM

#: The synthetic suite.  ``compute_per_mem`` values are tuned empirically
#: against the baseline config; everything else encodes the qualitative
#: character of the original kernel.
SUITE: dict[str, KernelSpec] = {
    # blackScholes: streaming, memory-bound, mixed-width accesses.
    "BS": KernelSpec(
        "BS", compute_per_mem=8, pattern=_S, warps_per_block=8,
        wide_fraction=0.56, insts_per_warp=400,
    ),
    # asyncAPI: streaming copy-like behaviour, memory-bound.
    "AA": KernelSpec(
        "AA", compute_per_mem=8, pattern=_S, warps_per_block=6,
        wide_fraction=0.46, insts_per_warp=400,
    ),
    # convolutionTexture: heavy reuse through the texture cache.
    "CT": KernelSpec(
        "CT", compute_per_mem=58, pattern=_T, stride_lines=2,
        reuse_fraction=0.55, hot_set_lines=1024, warps_per_block=8,
        insts_per_warp=1200,
    ),
    # convolutionSeparable: moderate reuse, moderate bandwidth.
    "CS": KernelSpec(
        "CS", compute_per_mem=37, pattern=_S, reuse_fraction=0.35,
        hot_set_lines=1536, warps_per_block=8, insts_per_warp=1200,
    ),
    # quasirandomGenerator: compute-bound, few memory requests.
    "QR": KernelSpec(
        "QR", compute_per_mem=126, pattern=_S, warps_per_block=8,
        insts_per_warp=1200,
    ),
    # vectorAdd: pure streaming, memory-bound.
    "VA": KernelSpec(
        "VA", compute_per_mem=8, pattern=_S, warps_per_block=6,
        wide_fraction=0.44, insts_per_warp=400,
    ),
    # sobol: the bandwidth-bound aggressor (Fig. 4's MBB example) —
    # fully coalesced wide accesses reach the best saturated efficiency.
    "SB": KernelSpec(
        "SB", compute_per_mem=3, pattern=_S, warps_per_block=6,
        wide_fraction=1.0, insts_per_warp=300,
    ),
    # scan: streaming with a touch of reuse, memory-bound.
    "SA": KernelSpec(
        "SA", compute_per_mem=8, pattern=_S, reuse_fraction=0.1,
        hot_set_lines=1024, warps_per_block=6, wide_fraction=0.39,
        insts_per_warp=400,
    ),
    # scalarProd: streaming reduction, memory-bound.
    "SP": KernelSpec(
        "SP", compute_per_mem=8, pattern=_S, warps_per_block=8,
        wide_fraction=0.32, insts_per_warp=400,
    ),
    # alignedTypes: aligned copies, mostly narrow accesses.
    "AT": KernelSpec(
        "AT", compute_per_mem=8, pattern=_S, warps_per_block=6,
        wide_fraction=0.13, insts_per_warp=400,
    ),
    # sortingNetworks: shared-memory heavy, cache friendly, low bandwidth.
    "SN": KernelSpec(
        "SN", compute_per_mem=41, pattern=_S, reuse_fraction=0.6,
        hot_set_lines=1024, warps_per_block=8, insts_per_warp=1200,
    ),
    # stencil (Parboil): streaming with neighbourhood reuse, memory-bound.
    "SC": KernelSpec(
        "SC", compute_per_mem=8, pattern=_S, reuse_fraction=0.15,
        hot_set_lines=2048, warps_per_block=8, wide_fraction=0.27,
        insts_per_warp=400,
    ),
    # BICG (PolyBench): low TLP, reuse on one operand.
    "BG": KernelSpec(
        "BG", compute_per_mem=46, pattern=_S, reuse_fraction=0.55,
        hot_set_lines=1536, warps_per_block=4, blocks_total=64,
        max_resident_blocks=2,
    ),
    # nn (Rodinia): random lookups at high rate, occupancy-limited.
    "NN": KernelSpec(
        "NN", compute_per_mem=8, pattern=_R, working_set_lines=1 << 17,
        warps_per_block=6, max_resident_blocks=2, wide_fraction=0.34,
        insts_per_warp=400,
    ),
    # srad (Rodinia): the interference-sensitive victim of Fig. 2 — random
    # access over a large footprint with real cache reuse to lose.
    "SD": KernelSpec(
        "SD", compute_per_mem=46, pattern=_R, working_set_lines=1 << 15,
        reuse_fraction=0.3, hot_set_lines=4096, warps_per_block=6,
        max_resident_blocks=2, wide_fraction=0.15, insts_per_warp=1200,
    ),
}

APP_NAMES: list[str] = list(SUITE)
ALL_APPS: list[KernelSpec] = list(SUITE.values())


def app(name: str) -> KernelSpec:
    """Look up one suite application by its Table 3 abbreviation."""
    try:
        return SUITE[name]
    except KeyError:
        raise KeyError(f"unknown application {name!r}; choose from {APP_NAMES}") from None


def two_app_workloads(names: list[str] | None = None) -> list[tuple[str, str]]:
    """All unordered two-application combinations (paper: 'all possible')."""
    names = names or APP_NAMES
    return list(itertools.combinations(names, 2))


def four_app_workloads(
    count: int = 30, seed: int = 2016, names: list[str] | None = None
) -> list[tuple[str, str, str, str]]:
    """``count`` distinct random four-application combinations (paper: 30)."""
    names = names or APP_NAMES
    rng = random.Random(seed)
    combos = list(itertools.combinations(names, 4))
    if count > len(combos):
        raise ValueError(f"only {len(combos)} four-app combinations exist")
    return rng.sample(combos, count)
