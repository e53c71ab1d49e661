"""One driver per paper figure/table (see DESIGN.md §4 for the index).

Every driver returns a plain data structure with the same rows/series the
paper reports; its ``to_dict()`` is the payload ``--store`` records and the
claims of :mod:`repro.figure_table` are checked against.  Cycle budgets
honour ``REPRO_FULL`` (see :mod:`repro.harness.runner`).
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass, field

from repro.config import GPUConfig
from repro.faults import noise_plan
from repro.harness.parallel import (
    WorkloadJob,
    run_jobs,
    run_workloads,
    workload_jobs,
)
from repro.harness.runner import (
    WorkloadResult,
    default_shared_cycles,
    full_scale,
    run_workload,
    scaled_config,
)
from repro.hwcost import HardwareCost, dase_hardware_cost, table1_rows
from repro.metrics import error_distribution, mean
from repro.sim.gpu import GPU, LaunchedKernel
from repro.sim.kernel import AccessPattern, KernelSpec
from repro.workloads import (
    SUITE,
    TABLE3_BW_UTILIZATION,
    four_app_workloads,
    two_app_workloads,
)

#: Default subset of pairs used when a full 105-pair sweep would take too
#: long; chosen to span victim/aggressor/compute-bound mixes.
DEFAULT_PAIRS: list[tuple[str, str]] = [
    ("SD", "SB"), ("SD", "SA"), ("SD", "VA"), ("SD", "QR"), ("BS", "SB"),
    ("QR", "SB"), ("NN", "VA"), ("CT", "QR"), ("CS", "SC"), ("SN", "SP"),
]


#: Fixed sweep axes, stated once: the drivers fall back to them and the
#: figure table builds scenario identities from them.  Fig. 2 pairs SD
#: with aggressive co-runners; Fig. 4 pairs SB with these partners.
FIG2_COMBOS = (("SD", "SB"), ("SD", "VA"), ("SD", "SA"))
FIG4_PARTNERS = ("SA", "VA", "QR")
FIG8A_SPLITS = ((4, 12), (8, 8), (12, 4))
FIG8B_SM_COUNTS = (8, 16)


def pair_list(limit: int | None = None) -> list[tuple[str, str]]:
    """Pairs to sweep: all 105 at full scale, the default subset otherwise."""
    if full_scale():
        pairs = two_app_workloads()
    else:
        pairs = list(DEFAULT_PAIRS)
    return pairs[:limit] if limit else pairs


def four_app_list(count: int | None = None) -> list[tuple[str, ...]]:
    """Four-app workloads to sweep: 30 at full scale, 4 otherwise."""
    n = count if count is not None else (30 if full_scale() else 4)
    return four_app_workloads(n)


# ------------------------------------------------------------ Tables 1 and 3


#: Co-running applications Table 1 is stated for.
TABLE1_APPS = 4


@dataclass
class Table1Result:
    """The counters DASE adds for ``apps`` co-runners, and what they cost."""

    apps: int
    rows: list[tuple[str, str]]  # (component, cost) as the paper prints them
    cost: HardwareCost

    def to_dict(self) -> dict:
        return {
            "apps": self.apps,
            "rows": [list(r) for r in self.rows],
            "per_partition_bytes": self.cost.per_partition_bytes,
            "per_sm_bits": self.cost.per_sm_bits,
            "global_bits": self.cost.global_bits,
            "fraction_of_l2": self.cost.fraction_of_l2(),
        }


def table1_hwcost(
    apps: int = TABLE1_APPS, config: GPUConfig | None = None
) -> Table1Result:
    """Table 1: DASE's storage per memory partition, per SM and globally."""
    config = config or GPUConfig()
    return Table1Result(apps, table1_rows(config, apps),
                        dase_hardware_cost(config, apps))


def table3_cycles() -> int:
    """How long each application runs alone for Table 3."""
    return max(60_000, default_shared_cycles() // 4)


@dataclass
class Table3Result:
    """Each suite application alone on the whole GPU: its DRAM bandwidth
    utilization (against paper Table 3) plus the stall fraction α and IPC
    that place it as aggressor, victim or compute-bound."""

    cycles: int
    paper: dict[str, float] = field(
        default_factory=lambda: dict(TABLE3_BW_UTILIZATION))
    measured: dict[str, float] = field(default_factory=dict)
    alpha: dict[str, float] = field(default_factory=dict)
    ipc: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "cycles": self.cycles,
            "paper": dict(self.paper),
            "measured": dict(self.measured),
            "alpha": dict(self.alpha),
            "ipc": dict(self.ipc),
        }


def table3_bw_utilization(
    config: GPUConfig | None = None, cycles: int | None = None
) -> Table3Result:
    """Table 3: alone DRAM bandwidth utilization of the 15 applications —
    the one place the suite's calibration is measured."""
    config = config or scaled_config()
    out = Table3Result(cycles or table3_cycles())
    for name, spec in SUITE.items():
        with closing(GPU(config, [spec])) as gpu:
            gpu.run(out.cycles)
            out.measured[name] = gpu.bandwidth_utilization(0)
            out.alpha[name] = gpu.sm_counters[0].alpha
            out.ipc[name] = gpu.ipc(0)
    return out


# --------------------------------------------------------------------- Fig 2


@dataclass
class Fig2Result:
    """Unfairness of two-app combos + DRAM bandwidth decomposition."""

    combos: list[tuple[str, str]]
    unfairness: dict[str, float]  # "SD+SB" → unfairness
    slowdowns: dict[str, list[float]]
    breakdown: dict[str, dict[str, float]]  # combo → {app0, app1, wasted, idle}
    sd_alone_bw: float = 0.0

    def to_dict(self) -> dict:
        return {
            "combos": [list(c) for c in self.combos],
            "unfairness": dict(self.unfairness),
            "slowdowns": {k: list(v) for k, v in self.slowdowns.items()},
            "breakdown": {k: dict(v) for k, v in self.breakdown.items()},
            "sd_alone_bw": self.sd_alone_bw,
        }


def fig2_unfairness(
    combos: list[tuple[str, str]] | None = None,
    config: GPUConfig | None = None,
    shared_cycles: int | None = None,
    jobs: int | None = None,
    cache_dir: str | None = None,
) -> Fig2Result:
    """Fig. 2: unfairness of SD paired with aggressive co-runners, and the
    bandwidth decomposition explaining it."""
    combos = combos or list(FIG2_COMBOS)
    config = config or scaled_config()
    shared_cycles = shared_cycles or default_shared_cycles()
    out = Fig2Result(combos=combos, unfairness={}, slowdowns={}, breakdown={})
    outcomes = run_workloads(
        combos, jobs=jobs, config=config, shared_cycles=shared_cycles,
        models=(), cache_dir=cache_dir,
    )
    for pair, outcome in zip(combos, outcomes):
        key = "+".join(pair)
        res = outcome.unwrap()
        out.unfairness[key] = res.actual_unfairness
        out.slowdowns[key] = res.actual_slowdowns
        # Re-run the shared execution to collect the bus decomposition
        # (cheap relative to the alone replays above).
        with closing(GPU(config, [
            LaunchedKernel(SUITE[n], stream_id=i) for i, n in enumerate(pair)
        ])) as gpu:
            gpu.run(shared_cycles)
            bd = gpu.bandwidth_breakdown()
        out.breakdown[key] = {
            pair[0]: bd["app0"], pair[1]: bd["app1"],
            "wasted": bd["wasted"], "idle": bd["idle"],
        }
    with closing(GPU(config, [SUITE["SD"]])) as alone:
        alone.run(shared_cycles // 2)
        out.sd_alone_bw = alone.bandwidth_utilization(0)
    return out


# --------------------------------------------------------------------- Fig 3


@dataclass
class Fig3Result:
    """IPC vs memory request service rate for one app at varying intensity."""

    points: list[tuple[float, float]]  # (requests/kcycle, IPC)
    correlation: float

    def to_dict(self) -> dict:
        return {
            "points": [list(p) for p in self.points],
            "correlation": self.correlation,
        }


def fig3_service_rate(
    config: GPUConfig | None = None, cycles: int | None = None
) -> Fig3Result:
    """Fig. 3: a memory-intensive kernel's performance is proportional to
    its request service rate.  We sweep memory intensity and measure both."""
    config = config or scaled_config()
    cycles = cycles or max(40_000, default_shared_cycles() // 6)
    points: list[tuple[float, float]] = []
    for cpm in (0, 1, 2, 4, 8, 16, 32):
        spec = KernelSpec(
            "sweep", compute_per_mem=cpm, pattern=AccessPattern.STREAM,
            warps_per_block=6, max_resident_blocks=2,
        )
        with closing(GPU(config, [spec])) as gpu:
            gpu.run(cycles)
            rate = gpu.mem_stats.apps[0].requests_served / cycles * 1000
            # "Performance" for a memory kernel = memory instructions
            # retired; measure it as request throughput-normalized IPC of
            # memory ops.
            mem_ipc = gpu.progress[0].instructions / cycles / (cpm + 1)
        points.append((rate, mem_ipc))
    xs, ys = zip(*points)
    mx, my = mean(xs), mean(ys)
    cov = sum((x - mx) * (y - my) for x, y in points)
    vx = sum((x - mx) ** 2 for x in xs) ** 0.5
    vy = sum((y - my) ** 2 for y in ys) ** 0.5
    corr = cov / (vx * vy) if vx > 0 and vy > 0 else 0.0
    return Fig3Result(points=points, correlation=corr)


# --------------------------------------------------------------------- Fig 4


@dataclass
class Fig4Result:
    """Served requests: SB alone vs the sum when SB shares the GPU."""

    alone_rate: float  # SB alone, requests per kcycle
    shared_rates: dict[str, tuple[float, float]]  # partner → (SB, partner)

    def to_dict(self) -> dict:
        return {
            "alone_rate": self.alone_rate,
            "shared_rates": {k: list(v) for k, v in self.shared_rates.items()},
        }


def fig4_mbb_requests(
    partners: list[str] | None = None,
    config: GPUConfig | None = None,
    cycles: int | None = None,
) -> Fig4Result:
    """Fig. 4: a memory-bandwidth-bound app alone serves ≈ as many requests
    as the *sum* of all apps when it runs with others."""
    partners = partners or list(FIG4_PARTNERS)
    config = config or scaled_config()
    cycles = cycles or max(60_000, default_shared_cycles() // 3)
    with closing(GPU(config, [SUITE["SB"]])) as alone:
        alone.run(cycles)
        alone_rate = alone.mem_stats.apps[0].requests_served / cycles * 1000
    shared: dict[str, tuple[float, float]] = {}
    for p in partners:
        with closing(GPU(config, [
            LaunchedKernel(SUITE["SB"], stream_id=0),
            LaunchedKernel(SUITE[p], stream_id=1),
        ])) as gpu:
            gpu.run(cycles)
            shared[p] = (
                gpu.mem_stats.apps[0].requests_served / cycles * 1000,
                gpu.mem_stats.apps[1].requests_served / cycles * 1000,
            )
    return Fig4Result(alone_rate=alone_rate, shared_rates=shared)


# ---------------------------------------------------------------- Figs 5 - 7


@dataclass
class AccuracyResult:
    """Per-model estimation errors over a set of workloads (Figs. 5/6/7).

    ``skipped`` counts apps whose estimate was ``None`` per model, so the
    reported means state their true sample size; ``failures`` maps combo
    keys to worker tracebacks for workloads that crashed (they contribute
    nothing to the error pools and are absent from ``per_workload``).
    """

    workloads: list[tuple[str, ...]]
    per_workload: dict[str, dict[str, float]]  # combo key → model → mean err
    errors: dict[str, list[float]]  # model → all per-app errors
    results: list[WorkloadResult] = field(default_factory=list)
    skipped: dict[str, int] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)

    def mean_error(self, model: str) -> float:
        return mean(self.errors[model])

    def distribution(self, model: str) -> dict[str, float]:
        return error_distribution(self.errors[model])

    def sample_count(self, model: str) -> int:
        """Number of per-app errors actually pooled for ``model``."""
        return len(self.errors[model])

    def to_dict(self) -> dict:
        def clean(v: float) -> float | None:
            return None if v != v else v  # NaN → null in JSON records

        return {
            "workloads": [list(w) for w in self.workloads],
            "per_workload": {
                k: {m: clean(e) for m, e in row.items()}
                for k, row in self.per_workload.items()
            },
            "mean_error": {
                m: (mean(errs) if errs else None)
                for m, errs in self.errors.items()
            },
            "distribution": {
                m: self.distribution(m)
                for m in self.errors if self.errors[m]
            },
            "samples": {m: len(errs) for m, errs in self.errors.items()},
            "skipped": dict(self.skipped),
            "failures": dict(self.failures),
        }


def estimation_accuracy(
    workloads: list[tuple[str, ...]],
    config: GPUConfig | None = None,
    shared_cycles: int | None = None,
    models: tuple[str, ...] = ("DASE", "MISE", "ASM"),
    sm_partition=None,
    jobs: int | None = None,
    cache_dir: str | None = None,
) -> AccuracyResult:
    """Shared driver for Figs. 5, 6 and 7.

    ``jobs`` fans the workloads out across that many worker processes
    (see :mod:`repro.harness.parallel`); ``cache_dir`` memoises the alone
    replays on disk across invocations.
    """
    out = AccuracyResult(
        workloads=list(workloads),
        per_workload={},
        errors={m: [] for m in models},
        skipped={m: 0 for m in models},
    )
    outcomes = run_workloads(
        workloads, jobs=jobs, config=config, shared_cycles=shared_cycles,
        models=models, sm_partition=sm_partition, cache_dir=cache_dir,
    )
    for combo, outcome in zip(workloads, outcomes):
        key = "+".join(combo)
        if not outcome.ok:
            out.failures[key] = outcome.error or "unknown failure"
            continue
        res = outcome.result
        out.per_workload[key] = {}
        for m in models:
            errs = res.errors(m)
            out.errors[m].extend(errs)
            out.skipped[m] += res.skipped(m)
            out.per_workload[key][m] = mean(errs) if errs else float("nan")
        out.results.append(res)
    return out


def fig7_error_distribution(
    acc: AccuracyResult,
) -> dict[str, dict[str, float]]:
    """Fig. 7: error histogram per model, pooled over ``acc``'s workloads."""
    return {model: acc.distribution(model) for model in acc.errors}


# --------------------------------------------------------------------- Fig 8


@dataclass
class SensitivityResult:
    labels: list[str]
    dase_errors: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "dase_errors": dict(self.dase_errors),
        }


def sensitivity_pairs() -> list[tuple[str, str]]:
    """Pairs both Fig. 8 sweeps run at every point of their axis."""
    return pair_list(30 if full_scale() else 3)


def fig8a_sm_allocation_sensitivity(
    splits: list[tuple[int, int]] | None = None,
    pairs: list[tuple[str, str]] | None = None,
    **kw,
) -> SensitivityResult:
    """Fig. 8a: DASE accuracy under uneven launch-time SM splits."""
    splits = splits or list(FIG8A_SPLITS)
    pairs = pairs or sensitivity_pairs()
    labels, errs = [], {}
    for a, b in splits:
        label = f"{a}+{b}"
        acc = estimation_accuracy(
            pairs, models=("DASE",), sm_partition=[a, b], **kw
        )
        labels.append(label)
        errs[label] = acc.mean_error("DASE")
    return SensitivityResult(labels=labels, dase_errors=errs)


def fig8b_sm_count_sensitivity(
    sm_counts: list[int] | None = None,
    pairs: list[tuple[str, str]] | None = None,
    config: GPUConfig | None = None,
    **kw,
) -> SensitivityResult:
    """Fig. 8b: DASE accuracy when the GPU itself has fewer/more SMs."""
    sm_counts = sm_counts or list(FIG8B_SM_COUNTS)
    pairs = pairs or sensitivity_pairs()
    config = config or scaled_config()
    labels, errs = [], {}
    for n in sm_counts:
        acc = estimation_accuracy(
            pairs, config=config.with_sms(n), models=("DASE",), **kw
        )
        label = f"{n}SMs"
        labels.append(label)
        errs[label] = acc.mean_error("DASE")
    return SensitivityResult(labels=labels, dase_errors=errs)


# --------------------------------------------------------------------- Fig 9


@dataclass
class Fig9Result:
    """DASE-Fair vs the even split."""

    workloads: list[str]
    unfairness_even: dict[str, float]
    unfairness_fair: dict[str, float]
    hspeedup_even: dict[str, float]
    hspeedup_fair: dict[str, float]

    @property
    def mean_unfairness_improvement(self) -> float:
        """Mean relative reduction in unfairness (paper: >16.1%)."""
        vals = [
            1.0 - self.unfairness_fair[k] / self.unfairness_even[k]
            for k in self.workloads
        ]
        return mean(vals)

    @property
    def mean_hspeedup_improvement(self) -> float:
        """Mean relative H-speedup gain (paper: >3.7%)."""
        vals = [
            self.hspeedup_fair[k] / self.hspeedup_even[k] - 1.0
            for k in self.workloads
        ]
        return mean(vals)

    def to_dict(self) -> dict:
        return {
            "workloads": list(self.workloads),
            "unfairness_even": dict(self.unfairness_even),
            "unfairness_fair": dict(self.unfairness_fair),
            "hspeedup_even": dict(self.hspeedup_even),
            "hspeedup_fair": dict(self.hspeedup_fair),
            "mean_unfairness_improvement": self.mean_unfairness_improvement,
            "mean_hspeedup_improvement": self.mean_hspeedup_improvement,
        }


def fig9_pairs() -> list[tuple[str, str]]:
    """The swept pairs minus kernels the paper calls 'unfit' (too few
    thread blocks — here BG), excluded as in the paper."""
    return [p for p in pair_list() if "BG" not in p]


def fig9_dase_fair(
    pairs: list[tuple[str, str]] | None = None,
    config: GPUConfig | None = None,
    shared_cycles: int | None = None,
    jobs: int | None = None,
    cache_dir: str | None = None,
) -> Fig9Result:
    """Fig. 9: run each workload under the even policy and under DASE-Fair.

    The even and DASE-Fair runs of every pair are independent, so all 2·N
    runs fan out together under ``jobs`` as one sweep, and each
    application's alone trajectory serves both policies.
    """
    if pairs is None:
        pairs = fig9_pairs()
    config = config or scaled_config()
    out = Fig9Result([], {}, {}, {}, {})
    runs = run_jobs(
        [
            job
            for policy in (None, "dase_fair")
            for job in workload_jobs(
                pairs, config=config, shared_cycles=shared_cycles,
                models=(), policy=policy, cache_dir=cache_dir,
            )
        ],
        n_jobs=jobs,
    )
    even_runs, fair_runs = runs[:len(pairs)], runs[len(pairs):]
    for pair, even_o, fair_o in zip(pairs, even_runs, fair_runs):
        key = "+".join(pair)
        even, fair = even_o.unwrap(), fair_o.unwrap()
        out.workloads.append(key)
        out.unfairness_even[key] = even.actual_unfairness
        out.unfairness_fair[key] = fair.actual_unfairness
        out.hspeedup_even[key] = even.actual_hspeedup
        out.hspeedup_fair[key] = fair.actual_hspeedup
    return out


# --------------------------------------------------- degradation under faults


#: Default counter-noise intensities for the degradation sweep.  σ = 0 is
#: the exact-counter anchor; the top value is already "a counter you
#: shouldn't trust" (±~55% at one standard deviation).
DEFAULT_SIGMAS: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.4)

#: Default workload degraded, and the fault seed every σ shares.
DEGRADATION_PAIR: tuple[str, str] = ("SD", "SB")
DEGRADATION_SEED = 7


@dataclass
class DegradationResult:
    """DASE accuracy and DASE-Fair fairness vs counter-fault intensity.

    One point per noise σ, all sharing ``seed`` so the curve is a
    continuous deformation of a single noise realization (the injector's
    common-random-numbers contract, docs/faults.md): ``dase_error`` from
    policy-free runs (estimation degradation in isolation), ``unfairness``
    from DASE-Fair runs of the same workload (fault-misled migrations
    feeding back into the execution).
    """

    pair: tuple[str, ...]
    sigmas: list[float]
    seed: int
    dase_error: dict[float, float]  # σ → mean DASE relative error
    unfairness: dict[float, float]  # σ → actual unfairness under DASE-Fair
    failures: dict[str, str] = field(default_factory=dict)

    def error_curve(self) -> list[tuple[float, float]]:
        return [(s, self.dase_error[s]) for s in self.sigmas
                if s in self.dase_error]

    def unfairness_curve(self) -> list[tuple[float, float]]:
        return [(s, self.unfairness[s]) for s in self.sigmas
                if s in self.unfairness]

    def error_is_monotone(self, tolerance: float = 0.0) -> bool:
        """Whether DASE error is non-decreasing in σ (± ``tolerance``)."""
        curve = self.error_curve()
        return all(
            b[1] >= a[1] - tolerance for a, b in zip(curve, curve[1:])
        )

    def to_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "sigmas": list(self.sigmas),
            "seed": self.seed,
            "dase_error": {str(s): e for s, e in self.dase_error.items()},
            "unfairness": {str(s): u for s, u in self.unfairness.items()},
            "error_monotone": self.error_is_monotone(),
            "failures": dict(self.failures),
        }


def fig_degradation(
    pair: tuple[str, str] | None = None,
    sigmas: tuple[float, ...] | None = None,
    seed: int = DEGRADATION_SEED,
    config: GPUConfig | None = None,
    shared_cycles: int | None = None,
    jobs: int | None = None,
    cache_dir: str | None = None,
) -> DegradationResult:
    """Degradation curves: estimate error and unfairness vs counter noise.

    For each σ, two independent runs of the same pair: one policy-free
    (DASE accuracy under distorted counters) and one under DASE-Fair (how
    much fairness the scheduler loses when its estimator is misled).  All
    2·N runs fan out together under ``jobs``; every σ shares the same
    fault seed, so points differ only in intensity, never in realization.

    The σ = 0 anchors are bit-identical to unfaulted runs (a null plan
    creates no injector), so the curve's origin doubles as a golden check.
    """
    pair = tuple(pair or DEGRADATION_PAIR)
    sigmas = tuple(sigmas if sigmas is not None else DEFAULT_SIGMAS)
    for sigma in sigmas:
        if not 0 <= sigma < math.inf:
            raise ValueError(
                f"noise_sigma must be >= 0 and finite, got {sigma!r}")
    shared_cycles = shared_cycles or default_shared_cycles()
    job_list: list[WorkloadJob] = []
    for policy in (None, "dase_fair"):
        for sigma in sigmas:
            job_list.append(WorkloadJob(
                apps=pair,
                config=config,
                shared_cycles=shared_cycles,
                models=("DASE",),
                policy=policy,
                cache_dir=cache_dir,
                faults=noise_plan(sigma, seed=seed) if sigma > 0 else None,
            ))
    outcomes = run_jobs(job_list, n_jobs=jobs)
    out = DegradationResult(
        pair=pair, sigmas=list(sigmas), seed=seed,
        dase_error={}, unfairness={},
    )
    n = len(sigmas)
    for sigma, outcome in zip(sigmas, outcomes[:n]):
        if not outcome.ok:
            out.failures[f"accuracy@{sigma}"] = outcome.error or "failed"
            continue
        out.dase_error[sigma] = outcome.result.mean_error("DASE")
    for sigma, outcome in zip(sigmas, outcomes[n:]):
        if not outcome.ok:
            out.failures[f"fair@{sigma}"] = outcome.error or "failed"
            continue
        out.unfairness[sigma] = outcome.result.actual_unfairness
    return out
