"""``repro fig-churn``: estimator accuracy and fairness under churn.

Reproduction-specific extension (no paper counterpart): the paper
evaluates DASE and DASE-Fair on closed workloads — every application
present from cycle 0 to the end.  This study sweeps the *arrival rate* of
an open system (Poisson arrivals drawn from a pool, exponential
lifetimes) and asks two questions the closed setting cannot:

1. how fast does DASE's estimate degrade as residency windows shrink and
   interval histories fragment, and
2. do the fairness metrics — max/min unfairness (Eq. 2), Jain's index,
   p95/p99 tail slowdown, waiting-time Gini — still agree on *which
   policy is fairer* once the roster is nonstationary?

Each rate runs the same seeded schedule twice: policy-free (the driver's
even rebalancing) and under DASE-Fair.  A "disagreement" is a rate where
at least two metrics pick opposite winners; docs/model.md discusses why
these are expected rather than a bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import GPUConfig
from repro.harness.parallel import WorkloadJob, run_jobs
from repro.harness.runner import default_shared_cycles
from repro.opensys.schedule import ArrivalSchedule, poisson_schedule

#: Default arrival rates, in arrivals per kilocycle.  The top rate churns
#: the roster several times per estimation window at the scaled default.
DEFAULT_RATES: tuple[float, ...] = (0.05, 0.1, 0.2)

#: Default resident workload, arrival pool, arrival-schedule seed shared by
#: every rate, and mean exponential lifetime of a dynamic app (cycles).
DEFAULT_BASE: tuple[str, ...] = ("SD", "SB")
DEFAULT_POOL: tuple[str, ...] = ("NN", "VA", "SC")
DEFAULT_SEED = 2016
DEFAULT_LIFETIME = 40_000

#: Verdict direction per metric: True = smaller is fairer.
LOWER_IS_FAIRER: dict[str, bool] = {
    "unfairness": True,
    "jain": False,
    "p95": True,
    "p99": True,
    "gini_wait": True,
}


@dataclass
class ChurnResult:
    """The fig-churn readout: one point per (arrival rate, policy).

    ``metrics[policy][rate]`` maps metric name → value;
    ``dase_error[policy][rate]`` is DASE's mean relative error over apps
    with both an estimate and a ground-truth slowdown.  Policies are
    labelled ``"even"`` (driver rebalancing only) and ``"fair"``
    (DASE-Fair).
    """

    base: tuple[str, ...]
    pool: tuple[str, ...]
    rates: list[float]
    seed: int
    mean_lifetime: int
    shared_cycles: int
    n_arrivals: dict[float, int] = field(default_factory=dict)
    schedule_digests: dict[float, str] = field(default_factory=dict)
    dase_error: dict[str, dict[float, float]] = field(default_factory=dict)
    metrics: dict[str, dict[float, dict[str, float]]] = field(
        default_factory=dict
    )
    failures: dict[str, str] = field(default_factory=dict)

    def verdicts(self) -> dict[float, dict[str, str]]:
        """Per rate, per metric: which policy it calls fairer.

        ``"even"`` / ``"fair"`` / ``"tie"``; metrics missing from either
        run are skipped for that rate.
        """
        out: dict[float, dict[str, str]] = {}
        for rate in self.rates:
            even = self.metrics.get("even", {}).get(rate)
            fair = self.metrics.get("fair", {}).get(rate)
            if even is None or fair is None:
                continue
            row: dict[str, str] = {}
            for name, lower in LOWER_IS_FAIRER.items():
                if name not in even or name not in fair:
                    continue
                a, b = even[name], fair[name]
                if a == b:
                    row[name] = "tie"
                elif (b < a) == lower:
                    row[name] = "fair"
                else:
                    row[name] = "even"
            out[rate] = row
        return out

    def disagreements(self) -> list[dict]:
        """Rates where the fairness metrics pick opposite winners."""
        out: list[dict] = []
        for rate, row in self.verdicts().items():
            winners = {v for v in row.values() if v != "tie"}
            if len(winners) > 1:
                out.append({"rate": rate, "verdicts": dict(row)})
        return out

    def to_dict(self) -> dict:
        return {
            "base": list(self.base),
            "pool": list(self.pool),
            "rates": list(self.rates),
            "seed": self.seed,
            "mean_lifetime": self.mean_lifetime,
            "shared_cycles": self.shared_cycles,
            "n_arrivals": {str(r): n for r, n in self.n_arrivals.items()},
            "schedule_digests": {
                str(r): d for r, d in self.schedule_digests.items()
            },
            "dase_error": {
                pol: {str(r): e for r, e in curve.items()}
                for pol, curve in self.dase_error.items()
            },
            "metrics": {
                pol: {str(r): dict(m) for r, m in per_rate.items()}
                for pol, per_rate in self.metrics.items()
            },
            "verdicts": {
                str(r): row for r, row in self.verdicts().items()
            },
            "disagreements": self.disagreements(),
            "failures": dict(self.failures),
        }


def churn_schedule(
    rate: float,
    seed: int,
    shared_cycles: int,
    pool: tuple[str, ...],
    mean_lifetime: int,
) -> ArrivalSchedule:
    """The schedule fig-churn uses for one rate (shared by both policies)."""
    return poisson_schedule(
        rate, horizon=shared_cycles, seed=seed, pool=pool,
        mean_lifetime=mean_lifetime,
    )


def fig_churn(
    base: tuple[str, ...] | None = None,
    pool: tuple[str, ...] | None = None,
    rates: tuple[float, ...] | None = None,
    seed: int = DEFAULT_SEED,
    mean_lifetime: int = DEFAULT_LIFETIME,
    config: GPUConfig | None = None,
    shared_cycles: int | None = None,
    jobs: int | None = None,
    cache_dir: str | None = None,
) -> ChurnResult:
    """Sweep arrival rate; chart DASE error and the fairness readout.

    For each rate one :func:`poisson_schedule` is built and *shared* by
    the policy-free and DASE-Fair runs, so the two executions differ only
    in scheduling — same arrivals, same lifetimes, same seeds.  All
    2·N runs fan out together under ``jobs``.
    """
    base = tuple(base or DEFAULT_BASE)
    pool = tuple(pool or DEFAULT_POOL)
    rates = tuple(rates if rates is not None else DEFAULT_RATES)
    shared_cycles = shared_cycles or default_shared_cycles()
    schedules = {
        rate: churn_schedule(rate, seed, shared_cycles, pool, mean_lifetime)
        for rate in rates
    }
    job_list: list[WorkloadJob] = []
    for policy in (None, "dase_fair"):
        for rate in rates:
            job_list.append(WorkloadJob(
                apps=base,
                config=config,
                shared_cycles=shared_cycles,
                models=("DASE",),
                policy=policy,
                cache_dir=cache_dir,
                arrivals=schedules[rate],
            ))
    outcomes = run_jobs(job_list, n_jobs=jobs)
    out = ChurnResult(
        base=base, pool=pool, rates=list(rates), seed=seed,
        mean_lifetime=mean_lifetime, shared_cycles=shared_cycles,
        n_arrivals={r: len(schedules[r].arrivals) for r in rates},
        schedule_digests={r: schedules[r].digest() for r in rates},
        dase_error={"even": {}, "fair": {}},
        metrics={"even": {}, "fair": {}},
    )
    n = len(rates)
    for label, chunk in (("even", outcomes[:n]), ("fair", outcomes[n:])):
        for rate, outcome in zip(rates, chunk):
            if not outcome.ok:
                out.failures[f"{label}@{rate}"] = outcome.error or "failed"
                continue
            res = outcome.result
            errs = res.errors("DASE")
            if errs:
                out.dase_error[label][rate] = sum(errs) / len(errs)
            out.metrics[label][rate] = res.fairness_metrics()
    return out
