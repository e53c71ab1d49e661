"""The figure table: every table and figure of the paper, described once.

Everything else that knows about them is derived from
:data:`FIGURE_TABLE`: ``run_figure``/``FIGURES``, the store's ``SCENARIOS``/
``scenario_for``/``PAYLOAD_SCHEMAS``/``EXTRACTORS``, the ``repro table*`` /
``repro fig*`` subcommands, ``repro list`` and the service's scenario
validation and catalog.  Adding one is a driver plus an entry here.

**The paper's claims live here too.**  Each entry carries the statements the
paper makes about it as :class:`Claim` objects over the *recorded payload*;
``benchmarks/test_figures.py`` (default scale), ``tests/test_paper_claims.py``
(small budget) and ``repro summarize --store`` evaluate those same objects
and nothing else restates them.

**Identity = resolved inputs.**  :meth:`FigureDef.resolve` fills every
default in once and its result feeds both the driver call and the spec, so
``scenario_for(name)`` *is* the spec a default run records, at any scale.
Defaults live with the drivers and are read from there, never retyped.
Drivers and renderers are reached lazily: importing this module imports
neither :mod:`repro.harness.experiments` nor the store.
"""

from __future__ import annotations

import math
import operator
from argparse import ArgumentTypeError
from dataclasses import dataclass
from functools import partial
from importlib import import_module
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.config import GPUConfig
from repro.metrics import mean
from repro.workloads import APP_NAMES

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.store.registry import ScenarioSpec

_ex = partial(import_module, "repro.harness.experiments")
_churn = partial(import_module, "repro.opensys.churn")
_obs = partial(import_module, "repro.obs.report")


# ------------------------------------------------- trajectory extractors


def scalar_metrics(p: Any) -> dict[str, float]:
    """A payload's top-level numbers — Table 1's series, and the fallback
    for records whose schema no entry claims."""
    if not isinstance(p, dict):
        return {}
    return {
        k: float(v) for k, v in p.items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    }


def _metrics_table3(p: dict) -> dict[str, float]:
    paper, measured = p.get("paper") or {}, p.get("measured") or {}
    devs = [abs(measured[a] - paper[a]) for a in paper if a in measured]
    return {"deviation.max": max(devs)} if devs else {}


def _metrics_fig2(p: dict) -> dict[str, float]:
    out: dict[str, float] = {}
    unf = [v for v in (p.get("unfairness") or {}).values()
           if isinstance(v, (int, float))]
    if unf:
        out["unfairness.mean"] = mean(unf)
        out["unfairness.max"] = max(unf)
    if isinstance(p.get("sd_alone_bw"), (int, float)):
        out["sd_alone_bw"] = p["sd_alone_bw"]
    return out


def _metrics_fig3(p: dict) -> dict[str, float]:
    out = {}
    if isinstance(p.get("correlation"), (int, float)):
        out["correlation"] = p["correlation"]
    return out


def _metrics_fig4(p: dict) -> dict[str, float]:
    out: dict[str, float] = {}
    alone = p.get("alone_rate")
    if isinstance(alone, (int, float)):
        out["alone_rate"] = alone
        ratios = [
            sum(pair) / alone
            for pair in (p.get("shared_rates") or {}).values()
            if alone and isinstance(pair, list) and len(pair) == 2
        ]
        if ratios:  # conservation: shared-sum ÷ alone ≈ 1.0
            out["conservation.mean"] = mean(ratios)
    return out


def _metrics_accuracy(p: dict) -> dict[str, float]:
    return {
        f"error.{m}": v
        for m, v in (p.get("mean_error") or {}).items()
        if isinstance(v, (int, float))
    }


def _metrics_distribution(p: dict) -> dict[str, float]:
    # fig7 payload: model → {bin label → fraction}; the headline
    # longitudinal signal is the best-bin mass (fraction of estimates
    # within 10% of the measured slowdown).
    out: dict[str, float] = {}
    for model, bins in p.items():
        if isinstance(bins, dict) and bins:
            first = next(iter(sorted(bins)))
            for label, frac in bins.items():
                if label.startswith("<"):
                    first = label
                    break
            if isinstance(bins.get(first), (int, float)):
                out[f"{model}.{first}"] = bins[first]
    return out


def _metrics_sensitivity(p: dict) -> dict[str, float]:
    return {
        f"error.{label}": v
        for label, v in (p.get("dase_errors") or {}).items()
        if isinstance(v, (int, float))
    }


def _metrics_fig9(p: dict) -> dict[str, float]:
    out = {}
    for k in ("mean_unfairness_improvement", "mean_hspeedup_improvement"):
        if isinstance(p.get(k), (int, float)):
            out[k.removeprefix("mean_")] = p[k]
    return out


def _metrics_degradation(p: dict) -> dict[str, float]:
    out: dict[str, float] = {}
    errs = {float(s): v for s, v in (p.get("dase_error") or {}).items()}
    unfs = {float(s): v for s, v in (p.get("unfairness") or {}).items()}
    if errs:
        top = max(errs)
        out["error.clean"] = errs.get(0.0, errs[min(errs)])
        out[f"error.sigma{top:g}"] = errs[top]
    if unfs:
        top = max(unfs)
        out[f"unfairness.sigma{top:g}"] = unfs[top]
    if "error_monotone" in p:
        out["error_monotone"] = 1.0 if p["error_monotone"] else 0.0
    return out


def _metrics_churn(p: dict) -> dict[str, float]:
    out: dict[str, float] = {}
    for policy, curve in (p.get("dase_error") or {}).items():
        vals = [v for v in curve.values() if isinstance(v, (int, float))]
        if vals:
            out[f"error.{policy}"] = mean(vals)
    if isinstance(p.get("disagreements"), list):
        out["metric_disagreements"] = float(len(p["disagreements"]))
    return out


# ------------------------------------------------------------ the schema


_OPS = {"<": operator.lt, ">": operator.gt, "==": operator.eq}


@dataclass(frozen=True)
class Claim:
    """One statement of the paper, checkable against a recorded payload.

    ``measure(payload)`` reads one number out of the dict ``--store``
    records and the claim holds when ``measure(payload) <op> bound``;
    ``paper`` is what the paper reports for that quantity and ``fmt`` how
    both numbers print.  A payload that does not carry the quantity (a
    failed workload's null mean, no pair to compare) fails the claim.
    """

    name: str
    paper: str
    measure: Callable[[Any], float]
    op: str
    bound: float
    fmt: str = ".3g"

    def measured(self, payload: Any) -> float | None:
        try:
            return self.measure(payload)
        except (KeyError, IndexError, TypeError, ValueError,
                ZeroDivisionError):
            return None

    def holds(self, payload: Any) -> bool:
        value = self.measured(payload)
        return value is not None and _OPS[self.op](value, self.bound)

    def row(self, payload: Any) -> tuple[str, str, str, str, str]:
        """``(claim, paper, measured, wanted, verdict)`` as text."""
        value = self.measured(payload)
        return (
            self.name, self.paper,
            "-" if value is None else format(value, self.fmt),
            f"{self.op} {format(self.bound, self.fmt)}",
            "ok" if self.holds(payload) else "FAILED",
        )


@dataclass(frozen=True)
class FigureDef:
    """One table or figure of the paper (or an extension sweep).

    ``args`` are its extra arguments as ``(name, argparse kwargs)``; not
    given means the driver's default.  ``inputs(**args)`` turns them into
    the driver's keyword arguments, every default filled in, and
    ``spec(inputs)`` maps those to ScenarioSpec fields.  ``--seed`` seeds
    what ``seed_role`` names: the GPUConfig the driver runs on (``config``,
    passed as ``config=``) or the injector / arrival schedule (``fault`` /
    ``arrival``, passed as ``seed=``; the config seed keeps its default).
    A driver that ``sweeps`` also takes ``jobs``/``cache_dir``.
    ``--out DIR`` writes ``report`` = ``(stem, export(path, result))`` as
    ``stem.json`` + ``report.html``.  ``claims`` are what the paper says
    about the entry, each a predicate over ``payload(result)``.
    """

    name: str
    help: str
    kind: str
    schema: str
    driver: Callable[..., Any]
    render: Callable[[Any], str]
    extract: Callable[[Any], dict[str, float]]
    inputs: Callable[..., dict[str, Any]] = dict
    spec: Callable[[dict[str, Any]], dict[str, Any]] = lambda inputs: {}
    args: tuple[tuple[str, dict[str, Any]], ...] = ()
    seed_role: str = "config"
    seed_default: Callable[[], int] | None = None
    sweeps: bool = True
    payload: Callable[[Any], Any] = lambda result: result.to_dict()
    report: tuple[str, Callable[[Any, Any], Any]] | None = None
    claims: tuple[Claim, ...] = ()

    def claim(self, name: str) -> Claim:
        return next(c for c in self.claims if c.name == name)

    def resolve(
        self, seed: int | None, given: Mapping[str, Any]
    ) -> tuple[int | None, dict[str, Any], "ScenarioSpec"]:
        """Fill in every default once: ``(seed, driver inputs, spec)``.  A
        None seed survives only where it means the GPUConfig default."""
        from repro.store.registry import ScenarioSpec

        names = [name for name, _ in self.args]
        unknown = sorted(set(given).difference(names))
        if unknown:
            raise ValueError(f"{self.name} takes no argument {unknown[0]!r} "
                             f"(it takes: {', '.join(names) or 'none'})")
        if seed is None and self.seed_default is not None:
            seed = self.seed_default()
        inputs = self.inputs(**{n: given.get(n) for n in names})
        spec = ScenarioSpec(
            name=self.name, kind=self.kind,
            seeds=(GPUConfig.seed if seed is None else seed,),
            **self.spec(inputs),
        )
        return seed, inputs, spec


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(s) for s in text.split(",") if s)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_floats(text: str) -> tuple[float, ...]:
    values = _floats(text)
    for v in values:
        if not v > 0:
            raise ArgumentTypeError(f"must be > 0, got {v:g}")
    return values


def _noise_sigmas(text: str) -> tuple[float, ...]:
    values = _floats(text)
    for v in values:
        if not 0 <= v < math.inf:
            raise ArgumentTypeError(f"must be finite and >= 0, got {v:g}")
    return values


LIMIT = ("limit", {"type": positive_int,
                   "help": "limit the number of workloads swept"})
_TWO_APPS = {"nargs": 2, "choices": APP_NAMES, "metavar": ("APP1", "APP2")}


# ---------------------------------------------------------- claim measures


def _error(model: str) -> Callable[[dict], float]:
    return lambda p: p["mean_error"][model]


def _dase_over(model: str) -> Callable[[dict], float]:
    """DASE's mean error as a fraction of a CPU baseline's."""
    return lambda p: p["mean_error"]["DASE"] / p["mean_error"][model]


def _largest_drop(p: dict) -> float:
    """Fig. 3, points ordered by service rate: the largest ratio of one
    point's performance to the next one's (monotone: never above 1)."""
    pts = sorted(p["points"])
    return max(a[1] / b[1] for a, b in zip(pts, pts[1:]))


def _fair_over_even(p: dict) -> list[tuple[float, float]]:
    """Fig. 9, per workload: (unfairness under the even split, DASE-Fair's
    unfairness as a fraction of it)."""
    return [(p["unfairness_even"][k],
             p["unfairness_fair"][k] / p["unfairness_even"][k])
            for k in p["workloads"]]


def _table3_gap(app: str, pick: Callable) -> Callable[[dict], float]:
    """``app``'s alone bandwidth minus the highest/lowest of the others."""
    return lambda p: p["measured"][app] - pick(
        v for a, v in p["measured"].items() if a != app)


_ERRORS_BOUNDED = Claim(
    "dase-error-everywhere", "robust", lambda p: max(p["dase_errors"].values()),
    "<", 0.25, ".1%")


# --------------------------------------------------------------- the table


#: name → :class:`FigureDef`, in presentation order.
FIGURE_TABLE: dict[str, FigureDef] = {fig.name: fig for fig in (
    FigureDef(
        # A static calculation: no simulation, the seed changes nothing.
        name="table1",
        help="DASE hardware cost",
        kind="hardware-cost",
        schema="repro.store.table1/1",
        driver=lambda **kw: _ex().table1_hwcost(**kw),
        sweeps=False,
        args=(("apps", {"type": int,
                        "help": "co-running applications (default: 4)"}),),
        inputs=lambda apps: {"apps": apps or _ex().TABLE1_APPS},
        spec=lambda i: {"params": {"apps": i["apps"]}},
        render=lambda r: _obs().render_table1(r),
        extract=scalar_metrics,
        claims=(
            Claim("per-partition-bytes", "< 0.4 KB",
                  lambda p: p["per_partition_bytes"], "<", 0.4 * 1024, ".0f"),
            Claim("l2-slice-fraction", "< 0.625%",
                  lambda p: p["fraction_of_l2"], "<", 0.00625, ".3%"),
            Claim("per-sm-bits", "32", lambda p: p["per_sm_bits"],
                  "==", 32, "d"),
        ),
    ),
    FigureDef(
        name="table3",
        help="alone DRAM bandwidth utilization of the suite",
        kind="alone-bandwidth",
        schema="repro.store.table3/1",
        driver=lambda **kw: _ex().table3_bw_utilization(**kw),
        sweeps=False,
        args=(("cycles", {"type": int,
                          "help": "cycles each application runs alone "
                                  "(default: a quarter of the shared "
                                  "window, at least 60000)"}),),
        inputs=lambda cycles: {"cycles": cycles or _ex().table3_cycles()},
        spec=lambda i: {"workloads": [(a,) for a in APP_NAMES],
                        "cycles": i["cycles"]},
        render=lambda r: _obs().render_table3(r),
        extract=_metrics_table3,
        claims=(
            # The suite's calibration contract (tests/test_suite_calibration).
            Claim("within-2pp", "Table 3",
                  lambda p: max(abs(p["measured"][a] - p["paper"][a])
                                for a in p["paper"]), "<", 0.02, ".1%"),
            Claim("sb-highest", "68%, +3pp over BS", _table3_gap("SB", max),
                  ">", 0, ".1%"),
            Claim("qr-lowest", "14%, -2pp under CT", _table3_gap("QR", min),
                  "<", 0.05, ".1%"),
        ),
    ),
    FigureDef(
        name="fig2",
        help="unfairness + bandwidth decomposition (motivation)",
        kind="unfairness-baseline",
        schema="repro.store.fig2/1",
        driver=lambda **kw: _ex().fig2_unfairness(**kw),
        inputs=lambda: {"combos": list(_ex().FIG2_COMBOS)},
        spec=lambda i: {"workloads": i["combos"]},
        render=lambda r: _obs().render_fig2(r),
        extract=_metrics_fig2,
        claims=(
            Claim("sd-sb-unfairness", "2.51",
                  lambda p: p["unfairness"]["SD+SB"], ">", 1.8, ".2f"),
            Claim("sd-slowed-more-than-sb", "3.44 / 1.37",
                  lambda p: p["slowdowns"]["SD+SB"][0]
                  / p["slowdowns"]["SD+SB"][1], ">", 1, ".2f"),
            Claim("sd-bandwidth-collapse", "13% / 40.5% alone",
                  lambda p: p["breakdown"]["SD+SB"]["SD"] / p["sd_alone_bw"],
                  "<", 0.6, ".2f"),
            Claim("decomposition-sums-to-one", "100%",
                  lambda p: max(abs(sum(bd.values()) - 1)
                                for bd in p["breakdown"].values()),
                  "<", 1e-6),
        ),
    ),
    FigureDef(
        # Single synthetic kernel swept over memory intensity — no suite
        # workloads; the cpm sweep axis is fixed by the driver.
        name="fig3",
        help="performance vs request service rate",
        kind="service-rate-correlation",
        schema="repro.store.fig3/1",
        driver=lambda **kw: _ex().fig3_service_rate(**kw),
        sweeps=False,
        render=lambda r: _obs().render_fig3(r),
        extract=_metrics_fig3,
        claims=(
            Claim("rate-correlation", "linear", lambda p: p["correlation"],
                  ">", 0.98),
            # Saturated sweep points nearly tie: 3% slack.
            Claim("monotone-in-rate", "monotone", _largest_drop, "<", 1.03),
        ),
    ),
    FigureDef(
        name="fig4",
        help="MBB served-request conservation",
        kind="mbb-request-conservation",
        schema="repro.store.fig4/1",
        driver=lambda **kw: _ex().fig4_mbb_requests(**kw),
        sweeps=False,
        inputs=lambda: {"partners": list(_ex().FIG4_PARTNERS)},
        spec=lambda i: {
            "workloads": [("SB", p) for p in sorted(i["partners"])],
        },
        render=lambda r: _obs().render_fig4(r),
        extract=_metrics_fig4,
        claims=(
            # 25%: beside a compute-bound partner SB runs latency-limited on
            # its half of the SMs and the pooled rate dips below saturation.
            Claim("served-request-conservation", "420 vs 439 (4.5%)",
                  lambda p: max(abs(sum(pair) / p["alone_rate"] - 1)
                                for pair in p["shared_rates"].values()),
                  "<", 0.25, ".1%"),
            Claim("sb-never-accelerated", "throttled",
                  lambda p: max(pair[0] for pair in p["shared_rates"].values())
                  / p["alone_rate"], "<", 1, ".2f"),
        ),
    ),
    FigureDef(
        name="fig5",
        help="two-app estimation accuracy (DASE vs MISE vs ASM)",
        kind="two-app-accuracy",
        schema="repro.store.accuracy/1",
        driver=lambda **kw: _ex().estimation_accuracy(**kw),
        args=(LIMIT,),
        inputs=lambda limit: {"workloads": _ex().pair_list(limit)},
        spec=lambda i: {"workloads": i["workloads"]},
        render=lambda r: _obs().render_accuracy(
            r, "Fig 5 — two-application error"),
        extract=_metrics_accuracy,
        claims=(
            Claim("dase-error", "8.8%", _error("DASE"), "<", 0.15, ".1%"),
            Claim("mise-error", "36.3%", _error("MISE"), ">", 0.2, ".1%"),
            Claim("asm-error", "32.8%", _error("ASM"), ">", 0.2, ".1%"),
            Claim("dase-below-half-mise", "0.24x", _dase_over("MISE"),
                  "<", 0.5, ".2f"),
            Claim("dase-below-half-asm", "0.27x", _dase_over("ASM"),
                  "<", 0.5, ".2f"),
        ),
    ),
    FigureDef(
        name="fig6",
        help="four-app estimation accuracy",
        kind="four-app-accuracy",
        schema="repro.store.accuracy/1",
        driver=lambda **kw: _ex().estimation_accuracy(**kw),
        args=(LIMIT,),
        inputs=lambda limit: {"workloads": _ex().four_app_list(limit)},
        spec=lambda i: {"workloads": i["workloads"]},
        render=lambda r: _obs().render_accuracy(
            r, "Fig 6 — four-application error"),
        extract=_metrics_accuracy,
        claims=(
            Claim("dase-error", "11.4%", _error("DASE"), "<", 0.25, ".1%"),
            # Four-way sharing hides a 4x alone speed-up from the CPU models.
            Claim("mise-error", "62.6%", _error("MISE"), ">", 0.4, ".1%"),
            Claim("dase-below-half-mise", "0.18x", _dase_over("MISE"),
                  "<", 0.5, ".2f"),
            Claim("dase-below-half-asm", "0.20x (ASM 58%)", _dase_over("ASM"),
                  "<", 0.5, ".2f"),
        ),
    ),
    FigureDef(
        name="fig7",
        help="error distribution",
        kind="error-distribution",
        schema="repro.store.distribution/1",
        driver=lambda workloads, **kw: _ex().fig7_error_distribution(
            _ex().estimation_accuracy(workloads, **kw)),
        args=(LIMIT,),
        inputs=lambda limit: {"workloads": _ex().pair_list(limit)},
        spec=lambda i: {"workloads": i["workloads"]},
        payload=lambda dists: dists,
        render=lambda r: _obs().render_distribution(r),
        extract=_metrics_distribution,
        claims=(
            Claim("dase-under-10pct", "70.2%", lambda p: p["DASE"]["<10%"],
                  ">", 0.6, ".1%"),
            Claim("dase-under-20pct", "90.9%",
                  lambda p: p["DASE"]["<10%"] + p["DASE"]["10%-20%"],
                  ">", 0.8, ".1%"),
            Claim("dase-above-mise", "70.2% - 4.2%",
                  lambda p: p["DASE"]["<10%"] - p["MISE"]["<10%"],
                  ">", 0, ".1%"),
            Claim("dase-above-asm", "70.2% - 6.2%",
                  lambda p: p["DASE"]["<10%"] - p["ASM"]["<10%"],
                  ">", 0, ".1%"),
        ),
    ),
    FigureDef(
        name="fig8a",
        help="sensitivity to the SM split",
        kind="smsplit-sensitivity",
        schema="repro.store.sensitivity/1",
        driver=lambda **kw: _ex().fig8a_sm_allocation_sensitivity(**kw),
        inputs=lambda: {"splits": list(_ex().FIG8A_SPLITS),
                        "pairs": _ex().sensitivity_pairs()},
        spec=lambda i: {"workloads": i["pairs"],
                        "params": (("splits", i["splits"]),)},
        render=lambda r: _obs().render_sensitivity(r, "Fig 8a — SM split"),
        extract=_metrics_sensitivity,
        claims=(
            _ERRORS_BOUNDED,
            Claim("spread-across-splits", "robust",
                  lambda p: max(p["dase_errors"].values())
                  - min(p["dase_errors"].values()), "<", 0.15, ".1%"),
        ),
    ),
    FigureDef(
        name="fig8b",
        help="sensitivity to the SM count",
        kind="smcount-sensitivity",
        schema="repro.store.sensitivity/1",
        driver=lambda **kw: _ex().fig8b_sm_count_sensitivity(**kw),
        inputs=lambda: {"sm_counts": list(_ex().FIG8B_SM_COUNTS),
                        "pairs": _ex().sensitivity_pairs()},
        spec=lambda i: {"workloads": i["pairs"],
                        "params": (("sm_counts", i["sm_counts"]),)},
        render=lambda r: _obs().render_sensitivity(r, "Fig 8b — SM count"),
        extract=_metrics_sensitivity,
        claims=(_ERRORS_BOUNDED,),
    ),
    FigureDef(
        name="fig9",
        help="DASE-Fair vs even split",
        kind="fairness-policy",
        schema="repro.store.fig9/1",
        driver=lambda **kw: _ex().fig9_dase_fair(**kw),
        inputs=lambda: {"pairs": _ex().fig9_pairs()},
        spec=lambda i: {"workloads": i["pairs"], "policy": "dase_fair"},
        render=lambda r: _obs().render_fig9(r),
        extract=_metrics_fig9,
        claims=(
            Claim("unfairness-improvement", "> 16.1%",
                  lambda p: p["mean_unfairness_improvement"], ">", 0, ".1%"),
            # The policy must substantially help where the even split is
            # unfair (> 1.5) ...
            Claim("best-unfair-pair-gain", "-",
                  lambda p: max(1 - frac for even, frac in _fair_over_even(p)
                                if even > 1.5), ">", 0.10, ".1%"),
            # ... without tanking performance or any one workload.
            Claim("hspeedup-improvement", "> 3.7%",
                  lambda p: p["mean_hspeedup_improvement"], ">", -0.05, ".1%"),
            Claim("no-pair-much-worse", "-",
                  lambda p: max(frac for _, frac in _fair_over_even(p)),
                  "<", 1.25, ".2f"),
        ),
    ),
    FigureDef(
        name="fig-degradation",
        help="degradation curves: DASE error + DASE-Fair fairness vs "
             "injected counter noise (repro.faults)",
        kind="fault-degradation",
        schema="repro.store.degradation/1",
        driver=lambda **kw: _ex().fig_degradation(**kw),
        seed_role="fault",
        seed_default=lambda: _ex().DEGRADATION_SEED,
        args=(
            ("pair", {**_TWO_APPS, "help": "workload pair to degrade"}),
            ("sigmas", {"type": _noise_sigmas, "metavar": "S1,S2,..",
                        "help": "comma-separated counter-noise intensities"}),
        ),
        inputs=lambda pair, sigmas: {
            "pair": tuple(pair or _ex().DEGRADATION_PAIR),
            "sigmas": tuple(sigmas or _ex().DEFAULT_SIGMAS),
        },
        spec=lambda i: {"workloads": (i["pair"],), "faults": i["sigmas"]},
        render=lambda r: _obs().render_degradation(r),
        extract=_metrics_degradation,
        report=("degradation", lambda path, r:
                _obs().export_degradation_report(path, r)),
    ),
    FigureDef(
        name="fig-churn",
        help="open-system churn sweep: DASE error + multi-metric fairness "
             "vs arrival rate (repro.opensys)",
        kind="open-system-churn",
        schema="repro.store.churn/1",
        driver=lambda **kw: _churn().fig_churn(**kw),
        seed_role="arrival",
        seed_default=lambda: _churn().DEFAULT_SEED,
        args=(
            ("base", {**_TWO_APPS, "help": "resident base workload"}),
            ("pool", {"nargs": "+", "choices": APP_NAMES, "metavar": "APP",
                      "help": "arrival pool apps"}),
            ("rates", {"type": _positive_floats, "metavar": "R1,R2,..",
                       "help": "comma-separated arrival rates per kilocycle"}),
            ("mean_lifetime", {"type": int, "metavar": "CYCLES",
                               "help": "mean exponential lifetime of a "
                                       "dynamic app"}),
            ("cycles", {"type": int,
                        "help": "shared-run horizon in cycles (default: "
                                "scaled config default)"}),
        ),
        inputs=lambda base, pool, rates, mean_lifetime, cycles: {
            "base": tuple(base or _churn().DEFAULT_BASE),
            "pool": tuple(pool or _churn().DEFAULT_POOL),
            "rates": tuple(rates or _churn().DEFAULT_RATES),
            "mean_lifetime": (mean_lifetime if mean_lifetime is not None
                              else _churn().DEFAULT_LIFETIME),
            "shared_cycles": cycles,
        },
        spec=lambda i: {
            "workloads": (i["base"], i["pool"]), "arrivals": i["rates"],
            "cycles": i["shared_cycles"],
            # Absent at its default: a default run keeps the id it always had.
            "params": {} if i["mean_lifetime"] == _churn().DEFAULT_LIFETIME
            else {"mean_lifetime": i["mean_lifetime"]},
        },
        render=lambda r: _obs().render_churn(r),
        extract=_metrics_churn,
        report=("churn", lambda path, r:
                _obs().export_churn_report(path, r)),
    ),
)}


def figure(name: str) -> FigureDef:
    """The entry for ``name``, or a one-line :class:`ValueError`."""
    try:
        return FIGURE_TABLE[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r} "
            f"(registered: {', '.join(FIGURE_TABLE)})"
        ) from None
