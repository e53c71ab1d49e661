"""Plain-text rendering of experiment results, row-for-row with the paper."""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.harness.experiments import (
    AccuracyResult,
    DegradationResult,
    Fig2Result,
    Fig3Result,
    Fig4Result,
    Fig9Result,
    SensitivityResult,
    Table1Result,
    Table3Result,
)
from repro.opensys.churn import ChurnResult


def table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an ASCII table with right-padded columns."""
    rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    sep = "  ".join("-" * w for w in widths)
    return "\n".join([line(headers), sep] + [line(r) for r in rows])


def pct(x: float) -> str:
    return f"{100 * x:.1f}%"


def render_table1(res: Table1Result) -> str:
    return (
        f"Table 1 — DASE hardware cost ({res.apps} applications):\n"
        + table(["component", "cost"], res.rows)
        + f"\n\nper partition: {res.cost.per_partition_bytes:.0f} B "
        f"({100 * res.cost.fraction_of_l2():.3f}% of a 64 KB L2 slice)"
    )


def render_table3(res: Table3Result) -> str:
    rows = [
        [name, pct(res.paper[name]), pct(bw),
         f"{100 * (bw - res.paper[name]):+.1f}pp",
         f"{res.alpha[name]:.2f}", f"{res.ipc[name]:.1f}"]
        for name, bw in res.measured.items()
    ]
    return (
        f"Table 3 — alone DRAM bandwidth utilization ({res.cycles} cycles):\n"
        + table(["app", "paper", "measured", "diff", "α", "IPC"], rows)
    )


def render_claims(rows: Iterable[Sequence[str]]) -> str:
    """Paper vs measured, one row per claim of the figure table."""
    return table(
        ["entry", "claim", "paper", "measured", "wanted", "verdict"], rows)


def render_fig2(res: Fig2Result) -> str:
    rows = []
    for key in res.unfairness:
        slow = res.slowdowns[key]
        rows.append([key, f"{res.unfairness[key]:.2f}"]
                    + [f"{s:.2f}" for s in slow])
    part1 = table(["workload", "unfairness", "slowdown(1st)", "slowdown(2nd)"], rows)
    rows2 = []
    for key, bd in res.breakdown.items():
        rows2.append([key] + [pct(v) for v in bd.values()])
    first = next(iter(res.breakdown.values()))
    part2 = table(["workload"] + list(first.keys()), rows2)
    tail = f"SD alone attains {pct(res.sd_alone_bw)} of DRAM bandwidth"
    return "\n\n".join(["Fig 2a — unfairness:", part1,
                        "Fig 2b — DRAM bandwidth decomposition:", part2, tail])


def render_fig3(res: Fig3Result) -> str:
    rows = [[f"{r:.1f}", f"{ipc:.3f}"] for r, ipc in res.points]
    body = table(["requests/kcycle", "memory IPC"], rows)
    return (
        "Fig 3 — performance vs request service rate:\n"
        f"{body}\nPearson correlation: {res.correlation:.3f}"
    )


def render_fig4(res: Fig4Result) -> str:
    rows = []
    for partner, (sb, other) in res.shared_rates.items():
        rows.append([
            f"SB+{partner}", f"{sb:.0f}", f"{other:.0f}", f"{sb + other:.0f}",
            f"{res.alone_rate:.0f}",
        ])
    body = table(
        ["workload", "SB served/kcyc", "partner", "sum", "SB alone"], rows
    )
    return "Fig 4 — MBB served-request conservation:\n" + body


def render_accuracy(res: AccuracyResult, title: str) -> str:
    models = list(res.errors)
    rows = [
        [key] + [pct(res.per_workload[key][m]) for m in models]
        for key in res.per_workload
    ]
    rows.append(
        ["MEAN"]
        + [pct(res.mean_error(m)) if res.errors[m] else "-" for m in models]
    )
    out = f"{title}:\n" + table(["workload"] + models, rows)
    samples = "  ".join(f"{m}: n={res.sample_count(m)}" for m in models)
    out += f"\nsamples pooled per model — {samples}"
    skipped = {m: n for m, n in res.skipped.items() if n}
    if skipped:
        out += "\nskipped (no estimate): " + "  ".join(
            f"{m}: {n}" for m, n in skipped.items()
        )
    if res.failures:
        out += "\nFAILED workloads: " + ", ".join(sorted(res.failures))
    return out


def render_distribution(dists: dict[str, dict[str, float]]) -> str:
    models = list(dists)
    bins = list(next(iter(dists.values())))
    rows = [[b] + [pct(dists[m][b]) for m in models] for b in bins]
    return "Fig 7 — error distribution:\n" + table(["error range"] + models, rows)


def render_sensitivity(res: SensitivityResult, title: str) -> str:
    rows = [[lab, pct(res.dase_errors[lab])] for lab in res.labels]
    return f"{title}:\n" + table(["configuration", "DASE error"], rows)


def render_fig9(res: Fig9Result) -> str:
    rows = []
    for key in res.workloads:
        rows.append([
            key,
            f"{res.unfairness_even[key]:.2f}",
            f"{res.unfairness_fair[key]:.2f}",
            f"{res.hspeedup_even[key]:.3f}",
            f"{res.hspeedup_fair[key]:.3f}",
        ])
    body = table(
        ["workload", "unf(even)", "unf(DASE-Fair)", "hsp(even)", "hsp(DASE-Fair)"],
        rows,
    )
    return (
        "Fig 9 — DASE-Fair vs even SM split:\n" + body +
        f"\nmean unfairness improvement: {pct(res.mean_unfairness_improvement)}"
        f"\nmean H-speedup improvement:  {pct(res.mean_hspeedup_improvement)}"
    )


def render_degradation(res: DegradationResult) -> str:
    rows = []
    for sigma in res.sigmas:
        err = res.dase_error.get(sigma)
        unf = res.unfairness.get(sigma)
        rows.append([
            f"{sigma:g}",
            "-" if err is None else pct(err),
            "-" if unf is None else f"{unf:.2f}",
        ])
    body = table(["noise σ", "DASE error", "unfairness (DASE-Fair)"], rows)
    verdict = (
        "monotone non-decreasing" if res.error_is_monotone()
        else "NOT monotone"
    )
    out = (
        f"Degradation under counter faults — {'+'.join(res.pair)} "
        f"(seed {res.seed}):\n" + body +
        f"\nDASE error vs σ: {verdict}"
    )
    if res.failures:
        out += "\nfailed runs:\n" + "\n".join(
            f"  {k}: {v}" for k, v in sorted(res.failures.items())
        )
    return out


def render_churn(res: ChurnResult) -> str:
    metric_names = ("unfairness", "jain", "p95", "p99", "gini_wait")
    rows = []
    for rate in res.rates:
        for label in ("even", "fair"):
            m = res.metrics.get(label, {}).get(rate, {})
            err = res.dase_error.get(label, {}).get(rate)
            rows.append(
                [f"{rate:g}", label, res.n_arrivals.get(rate, "-"),
                 "-" if err is None else pct(err)]
                + [
                    "-" if name not in m else f"{m[name]:.3f}"
                    for name in metric_names
                ]
            )
    body = table(
        ["rate/kcyc", "policy", "arrivals", "DASE err"] + list(metric_names),
        rows,
    )
    out = (
        f"Open-system churn — base {'+'.join(res.base)}, pool "
        f"{'+'.join(res.pool)} (seed {res.seed}):\n" + body
    )
    verdicts = res.verdicts()
    disagree = {d["rate"] for d in res.disagreements()}
    if verdicts:
        vrows = [
            [f"{rate:g}" + (" ⚠" if rate in disagree else "")]
            + [verdicts[rate].get(name, "-") for name in metric_names]
            for rate in res.rates if rate in verdicts
        ]
        out += "\n\nfairer policy per metric (⚠ = metrics disagree):\n"
        out += table(["rate/kcyc"] + list(metric_names), vrows)
    if res.failures:
        out += "\nfailed runs:\n" + "\n".join(
            f"  {k}: {v}" for k, v in sorted(res.failures.items())
        )
    return out
