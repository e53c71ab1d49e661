"""Every table repro emits, and the self-contained HTML reports.

A table is a ``(headers, rows)`` pair of strings, built once by the code
that owns the data and rendered by one function per format: :func:`table`
(aligned text for terminals and CI logs), :func:`csv_table` and
:func:`html_table`.  Where two views show the same data — ``repro
inspect`` and the HTML report of a run or sweep, a figure's text rendering
and its HTML panel — both render the rows of one builder.

The HTML reports are one file each, no external assets, no JavaScript:
inline SVG time-series charts (per-app IPC, α, slowdown estimates per
model vs the measured slowdown, SM-partition timeline), a DRAM bank-heat
matrix, the event taxonomy, and a table view of every series.  Light and
dark mode are both styled via CSS custom properties (the dark values are
selected steps of the same hues, not an automatic flip).

Charts follow the repo's charting conventions: one categorical hue per
*application* in fixed slot order everywhere (an app keeps its color
across every chart; models are distinguished by small multiples, not
hues), a single y axis per chart, thin 2px lines with hoverable sample
markers, recessive grid, legends plus direct end-labels, and a sequential
one-hue ramp for the bank-heat magnitudes.
"""

from __future__ import annotations

import csv
import html as _html
import io
import os
from string import Template
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro import durable

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
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
    from repro.harness.runner import WorkloadResult
    from repro.opensys.churn import ChurnResult
    from repro.obs.audit import AuditLog, DecisionAudit
    from repro.obs.tracer import EventTracer, Observation

#: A table: header cells and rows of cells.
Table = tuple[Sequence[str], Sequence[Sequence[Any]]]


# ------------------------------------------------------------------ renderers


def table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Aligned text: each column padded to its widest cell, a dash rule
    under the headers."""
    rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    return "\n".join([line(headers), line(["-" * w for w in widths])]
                     + [line(r) for r in rows])


def csv_table(headers: Sequence[str],
              rows: Iterable[Sequence[object]]) -> str:
    """CSV text, ``\\n``-terminated; ``None`` cells are empty."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(headers)
    w.writerows(rows)
    return buf.getvalue()


def html_table(headers: Sequence[str],
               rows: Iterable[Sequence[object]]) -> str:
    """An HTML table, every cell escaped."""
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(c)}</td>" for c in row) + "</tr>"
        for row in rows
    )
    return (f"<table><thead><tr>{head}</tr></thead>"
            f"<tbody>{body}</tbody></table>")


def pct(x: float) -> str:
    return f"{100 * x:.1f}%"


def _esc(s: object) -> str:
    return _html.escape(str(s))


# ------------------------------------------------- shared table builders


def workload_table(wl: dict[str, Any]) -> Table:
    """Per-app rows of a workload result's dict form
    (:meth:`~repro.harness.runner.WorkloadResult.to_dict`)."""
    names = wl.get("names", [])
    slowdowns = wl.get("actual_slowdowns", [])
    parts = wl.get("sm_partition", [])
    estimates = wl.get("estimates", {})
    models = sorted(estimates)

    def num(v: float | None) -> str:
        return "-" if v is None else f"{v:.3f}"

    rows = [
        [name, str(parts[i]) if i < len(parts) else "-",
         num(slowdowns[i]) if i < len(slowdowns) else "-"]
        + [num(estimates[m][i]) for m in models]
        for i, name in enumerate(names)
    ]
    return ["app", "SMs", "actual"] + models, rows


def event_table(by_name: dict[str, int]) -> Table:
    """Retained events per name, most frequent first."""
    return ["event", "retained"], [
        [name, str(n)]
        for name, n in sorted(by_name.items(), key=lambda kv: -kv[1])
    ]


def metrics_table(snapshot: dict[str, dict[str, Any]]) -> Table:
    """One row per instrument of a registry snapshot
    (:meth:`~repro.obs.registry.MetricsRegistry.snapshot`)."""
    rows = []
    for name, snap in sorted(snapshot.items()):
        if snap.get("type") == "histogram":
            val = f"count={snap['count']} mean={snap['mean']:.4g}"
        else:
            v = snap.get("value", 0)
            val = f"{v:.6g}" if isinstance(v, float) else str(v)
        rows.append([name, snap.get("type", "?"), val])
    return ["metric", "type", "value"], rows


def audit_lines(summary: dict[str, Any]) -> list[str]:
    """The audit block of ``repro inspect`` (:meth:`AuditLog.summary`)."""
    out = [
        f"audit: {summary.get('model_records', 0)} model records, "
        f"{summary.get('decision_records', 0)} decision records"
    ]
    per_model = summary.get("per_model") or {}
    if per_model:
        out.append(table(
            ["model", "records", "skipped"],
            [[m, row.get("records", 0), row.get("skipped", 0)]
             for m, row in sorted(per_model.items())],
        ))
    for label, key in (("decisions", "decision_actions"),
                       ("reasons", "decision_reasons")):
        counts = summary.get(key) or {}
        if counts:
            out.append(f"{label}: " + ", ".join(
                f"{k}={v}" for k, v in sorted(counts.items())))
    return out


def sweep_tables(stats: dict[str, Any]) -> dict[str, Table]:
    """The tables of a sweep-stats payload (``sweep.json``) by section —
    latency, phases, workers, stragglers, failures — each present only
    when the stats carry it."""
    out: dict[str, Table] = {}
    lat = stats.get("latency") or {}
    keys = [k for k in ("p50", "p95", "p99", "mean", "max") if k in lat]
    if keys:
        out["latency"] = keys, [[f"{lat[k]:.2f}s" for k in keys]]
    phases = stats.get("phases") or {}
    if phases:
        out["phases"] = ["phase", "count", "total_s"], [
            [name, str(int(row.get("count", 0))),
             f"{row.get('total_s', 0.0):.2f}"]
            for name, row in sorted(
                phases.items(), key=lambda kv: -kv[1].get("total_s", 0))
        ]
    workers = stats.get("workers") or {}
    if workers:
        out["workers"] = ["worker", "jobs", "busy_s", "cpu_s",
                          "rss_peak_kb"], [
            [name, str(int(w.get("jobs", 0))), f"{w.get('busy_s', 0.0):.2f}",
             f"{w.get('cpu_s', 0.0):.2f}", str(int(w.get("rss_peak_kb", 0)))]
            for name, w in sorted(workers.items())
        ]
    stragglers = stats.get("stragglers") or []
    if stragglers:
        out["stragglers"] = ["job", "key", "dur_s", "x p50",
                             "dominant phase"], [
            [str(s.get("job")), s.get("key", "?"),
             f"{s.get('dur_s', 0.0):.2f}", f"{s.get('ratio', 0.0):.1f}",
             f"{s.get('dominant_phase', '?')} ({s.get('phase_s', 0.0):.2f}s)"]
            for s in stragglers
        ]
    failures = stats.get("failures") or []
    if failures:
        out["failures"] = ["failed job", "key", "kind", "attempts"], [
            [str(f.get("job")), f.get("key", "?"), f.get("kind", "?"),
             str(f.get("attempts", 1))]
            for f in failures
        ]
    return out


def failures_table(failures: dict[str, str]) -> Table:
    """Failed runs of a figure sweep, by run key."""
    return ["run", "error"], [[k, v] for k, v in sorted(failures.items())]


def degradation_table(res: "DegradationResult") -> Table:
    rows = []
    for sigma in res.sigmas:
        err, unf = res.dase_error.get(sigma), res.unfairness.get(sigma)
        rows.append([f"{sigma:g}", "-" if err is None else pct(err),
                     "-" if unf is None else f"{unf:.2f}"])
    return ["noise σ", "DASE error", "unfairness (DASE-Fair)"], rows


#: The fairness readout of one churn point, in column order.
CHURN_METRICS = ("unfairness", "jain", "p95", "p99", "gini_wait")


def churn_verdict_table(res: "ChurnResult") -> Table:
    """Which policy each metric calls fairer, per rate (⚠ = the metrics
    disagree)."""
    verdicts = res.verdicts()
    disagree = {d["rate"] for d in res.disagreements()}
    return ["rate/kcyc", *CHURN_METRICS], [
        [f"{rate:g}" + (" ⚠" if rate in disagree else "")]
        + [verdicts[rate].get(name, "-") for name in CHURN_METRICS]
        for rate in res.rates if rate in verdicts
    ]


# ------------------------------------------------------ paper tables (text)


def render_table1(res: "Table1Result") -> str:
    return (
        f"Table 1 — DASE hardware cost ({res.apps} applications):\n"
        + table(["component", "cost"], res.rows)
        + f"\n\nper partition: {res.cost.per_partition_bytes:.0f} B "
        f"({100 * res.cost.fraction_of_l2():.3f}% of a 64 KB L2 slice)"
    )


def render_table3(res: "Table3Result") -> str:
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


def render_fig2(res: "Fig2Result") -> str:
    rows = [
        [key, f"{unf:.2f}"] + [f"{s:.2f}" for s in res.slowdowns[key]]
        for key, unf in res.unfairness.items()
    ]
    part1 = table(
        ["workload", "unfairness", "slowdown(1st)", "slowdown(2nd)"], rows)
    rows2 = [[key] + [pct(v) for v in bd.values()]
             for key, bd in res.breakdown.items()]
    first = next(iter(res.breakdown.values()))
    part2 = table(["workload"] + list(first.keys()), rows2)
    tail = f"SD alone attains {pct(res.sd_alone_bw)} of DRAM bandwidth"
    return "\n\n".join(["Fig 2a — unfairness:", part1,
                        "Fig 2b — DRAM bandwidth decomposition:", part2, tail])


def render_fig3(res: "Fig3Result") -> str:
    rows = [[f"{r:.1f}", f"{ipc:.3f}"] for r, ipc in res.points]
    body = table(["requests/kcycle", "memory IPC"], rows)
    return (
        "Fig 3 — performance vs request service rate:\n"
        f"{body}\nPearson correlation: {res.correlation:.3f}"
    )


def render_fig4(res: "Fig4Result") -> str:
    rows = [
        [f"SB+{partner}", f"{sb:.0f}", f"{other:.0f}", f"{sb + other:.0f}",
         f"{res.alone_rate:.0f}"]
        for partner, (sb, other) in res.shared_rates.items()
    ]
    body = table(
        ["workload", "SB served/kcyc", "partner", "sum", "SB alone"], rows
    )
    return "Fig 4 — MBB served-request conservation:\n" + body


def render_accuracy(res: "AccuracyResult", title: str) -> str:
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


def render_sensitivity(res: "SensitivityResult", title: str) -> str:
    rows = [[lab, pct(res.dase_errors[lab])] for lab in res.labels]
    return f"{title}:\n" + table(["configuration", "DASE error"], rows)


def render_fig9(res: "Fig9Result") -> str:
    rows = [
        [key,
         f"{res.unfairness_even[key]:.2f}", f"{res.unfairness_fair[key]:.2f}",
         f"{res.hspeedup_even[key]:.3f}", f"{res.hspeedup_fair[key]:.3f}"]
        for key in res.workloads
    ]
    body = table(
        ["workload", "unf(even)", "unf(DASE-Fair)", "hsp(even)", "hsp(DASE-Fair)"],
        rows,
    )
    return (
        "Fig 9 — DASE-Fair vs even SM split:\n" + body +
        f"\nmean unfairness improvement: {pct(res.mean_unfairness_improvement)}"
        f"\nmean H-speedup improvement:  {pct(res.mean_hspeedup_improvement)}"
    )


def _failed_runs(failures: dict[str, str]) -> str:
    if not failures:
        return ""
    return "\nfailed runs:\n" + "\n".join(
        f"  {k}: {v}" for k, v in failures_table(failures)[1])


def render_degradation(res: "DegradationResult") -> str:
    verdict = (
        "monotone non-decreasing" if res.error_is_monotone()
        else "NOT monotone"
    )
    return (
        f"Degradation under counter faults — {'+'.join(res.pair)} "
        f"(seed {res.seed}):\n" + table(*degradation_table(res))
        + f"\nDASE error vs σ: {verdict}" + _failed_runs(res.failures)
    )


def render_churn(res: "ChurnResult") -> str:
    rows = []
    for rate in res.rates:
        for label in ("even", "fair"):
            m = res.metrics.get(label, {}).get(rate, {})
            err = res.dase_error.get(label, {}).get(rate)
            rows.append(
                [f"{rate:g}", label, res.n_arrivals.get(rate, "-"),
                 "-" if err is None else pct(err)]
                + [f"{m[name]:.3f}" if name in m else "-"
                   for name in CHURN_METRICS]
            )
    out = (
        f"Open-system churn — base {'+'.join(res.base)}, pool "
        f"{'+'.join(res.pool)} (seed {res.seed}):\n"
        + table(["rate/kcyc", "policy", "arrivals", "DASE err",
                 *CHURN_METRICS], rows)
    )
    verdicts = churn_verdict_table(res)
    if verdicts[1]:
        out += ("\n\nfairer policy per metric (⚠ = metrics disagree):\n"
                + table(*verdicts))
    return out + _failed_runs(res.failures)


# --------------------------------------------------------------- HTML reports

# Categorical app colors — fixed slot order, light / dark steps of the same
# hues (validated order: adjacent pairs clear CVD and normal-vision gates).
_APP_COLORS_LIGHT = ("#2a78d6", "#eb6834", "#1baf7a", "#eda100")
_APP_COLORS_DARK = ("#3987e5", "#d95926", "#199e70", "#c98500")

# Sequential blue ramp (light→dark) for the bank-heat magnitudes.
_SEQ_RAMP = (
    "#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec", "#5598e7",
    "#3987e5", "#2a78d6", "#256abf", "#1c5cab", "#184f95", "#104281",
    "#0d366b",
)

_W, _H = 640, 230
_ML, _MR, _MT, _MB = 52, 110, 14, 30  # right margin hosts direct labels


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e6:
        return str(int(v))
    return f"{v:.3g}" if abs(v) >= 0.01 else f"{v:.2e}"


def _ticks(lo: float, hi: float, n: int = 4) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / n
    return [lo + i * step for i in range(n + 1)]


def line_chart(
    title: str,
    series: Sequence[dict],
    y_label: str = "",
    x_label: str = "cycle",
) -> str:
    """One SVG line chart — every report, the store's trajectory dashboard
    included, draws with this one.

    ``series``: dicts with ``label``, ``slot`` (app color slot), ``points``
    (list of (x, y)), optional ``dash`` (True → dashed reference series).
    """
    pts_all = [p for s in series for p in s["points"]]
    if not pts_all:
        return ""
    xs = [p[0] for p in pts_all]
    ys = [p[1] for p in pts_all]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if y1 <= y0:
        y1 = y0 + 1.0
    pad = 0.08 * (y1 - y0)
    y0 = min(y0, 0.0) if y0 >= 0 and y0 < 0.25 * y1 else y0 - pad
    y1 = y1 + pad
    if x1 <= x0:
        x1 = x0 + 1
    iw = _W - _ML - _MR
    ih = _H - _MT - _MB

    def sx(x: float) -> float:
        return _ML + (x - x0) / (x1 - x0) * iw

    def sy(y: float) -> float:
        return _MT + ih - (y - y0) / (y1 - y0) * ih

    parts = [
        f'<svg viewBox="0 0 {_W} {_H}" role="img" '
        f'aria-label="{_esc(title)}">'
    ]
    # Recessive grid + y ticks.
    for ty in _ticks(y0, y1):
        gy = sy(ty)
        parts.append(
            f'<line x1="{_ML}" y1="{gy:.1f}" x2="{_W - _MR}" y2="{gy:.1f}" '
            f'class="grid"/>'
            f'<text x="{_ML - 6}" y="{gy + 3.5:.1f}" class="tick" '
            f'text-anchor="end">{_fmt(ty)}</text>'
        )
    for tx in _ticks(x0, x1):
        gx = sx(tx)
        parts.append(
            f'<text x="{gx:.1f}" y="{_H - 8}" class="tick" '
            f'text-anchor="middle">{_fmt(tx)}</text>'
        )
    parts.append(
        f'<line x1="{_ML}" y1="{_MT + ih}" x2="{_W - _MR}" '
        f'y2="{_MT + ih}" class="axis"/>'
    )
    # Series lines, markers, direct end-labels (nudged apart).
    ends: list[tuple[float, int]] = []
    for i, s in enumerate(series):
        pts = s["points"]
        if not pts:
            continue
        color = f"var(--series-{s['slot'] % len(_APP_COLORS_LIGHT) + 1})"
        dash = ' stroke-dasharray="5 4"' if s.get("dash") else ""
        poly = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
        parts.append(
            f'<polyline points="{poly}" fill="none" stroke="{color}" '
            f'stroke-width="2"{dash}/>'
        )
        if not s.get("dash"):
            for x, y in pts:
                parts.append(
                    f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="2.6" '
                    f'fill="{color}"><title>{_esc(s["label"])} @ '
                    f'{_fmt(x)}: {_fmt(y)}</title></circle>'
                )
        ends.append((sy(pts[-1][1]), i))
    ends.sort()
    prev = -1e9
    for ey, i in ends:
        s = series[i]
        ly = max(ey, prev + 12)
        prev = ly
        parts.append(
            f'<text x="{_W - _MR + 6}" y="{ly + 3.5:.1f}" '
            f'class="dlabel">{_esc(s["label"])}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="{_ML}" y="{_MT - 2}" class="tick">{_esc(y_label)}'
            "</text>"
        )
    parts.append("</svg>")
    legend = "".join(
        f'<span class="chip"><span class="swatch" style="background:'
        f'var(--series-{s["slot"] % len(_APP_COLORS_LIGHT) + 1})'
        f'{";border-radius:0;height:2px;margin-bottom:4px" if s.get("dash") else ""}'
        f'"></span>{_esc(s["label"])}</span>'
        for s in series
        if s["points"]
    )
    return (
        f'<figure><figcaption>{_esc(title)}</figcaption>'
        f"{''.join(parts)}<div class=\"legend\">{legend}</div></figure>"
    )


def _summary_section(result: "WorkloadResult") -> str:
    return (
        html_table(*workload_table(result.to_dict()))
        + f"<p class='note'>shared window {result.shared_cycles} cycles · "
        f"unfairness {result.actual_unfairness:.3f} · harmonic speedup "
        f"{result.actual_hspeedup:.4f}</p>"
    )


def _bank_heat_section(tracer: "EventTracer") -> str:
    # Imported here: repro.obs.export renders its CSV with this module.
    from repro.obs.export import bank_heat

    heat = bank_heat(tracer)
    if not heat:
        return ""
    n_parts = max(p for p, _ in heat) + 1
    n_banks = max(b for _, b in heat) + 1
    peak = max(heat.values())
    rows = []
    for p in range(n_parts):
        cells = [f'<th scope="row">part{p}</th>']
        for b in range(n_banks):
            v = heat.get((p, b), 0)
            idx = 0 if peak == 0 else round(v / peak * (len(_SEQ_RAMP) - 1))
            fg = "#ffffff" if idx >= 7 else "#0b0b0b"
            cells.append(
                f'<td style="background:{_SEQ_RAMP[idx]};color:{fg}" '
                f'title="part{p}/bank{b}: {v} requests">{v}</td>'
            )
        rows.append("<tr>" + "".join(cells) + "</tr>")
    head = "<th></th>" + "".join(f"<th>b{b}</th>" for b in range(n_banks))
    note = (
        "serviced DRAM requests per (partition, bank) — from the "
        "<code>dram.service</code> events retained in the trace ring"
    )
    if tracer.dropped:
        note += f" ({tracer.dropped} oldest events overwritten)"
    return (
        "<h2>DRAM bank heat</h2>"
        f'<table class="heat"><thead><tr>{head}</tr></thead>'
        f"<tbody>{''.join(rows)}</tbody></table>"
        f"<p class='note'>{note}</p>"
    )


def _taxonomy_section(tracer: "EventTracer") -> str:
    from repro.obs.export import trace_summary

    summary = trace_summary(tracer)
    return (
        "<h2>Recorded events</h2>"
        + html_table(*event_table(summary["by_name"]))
        + f"<p class='note'>{summary['events_emitted']} emitted · "
        f"{summary['events_retained']} retained · "
        f"{summary['events_dropped']} dropped (ring capacity "
        f"{summary['capacity']}) · engine dispatched "
        f"{summary['engine']['events_dispatched']} events</p>"
    )


def _error_section(
    audit: "AuditLog", result: "WorkloadResult", label
) -> str:
    """Per-model estimate-vs-actual relative-error timelines."""
    charts: list[str] = []
    for model in audit.models():
        series = []
        for a in range(len(result.names)):
            pts = audit.error_series(model, a, result.actual_slowdowns[a])
            series.append({"label": label(a), "slot": a, "points": pts})
        chart = line_chart(
            f"{model} relative error per interval", series,
            y_label="|est − actual| / actual",
        )
        if chart:
            charts.append(chart)
    if not charts:
        return ""
    return (
        "<h2>Estimate-vs-actual error</h2>"
        "<p class='note'>per-interval estimate against the run-level "
        "measured slowdown (matched-instruction alone replay) — from the "
        "<code>audit.model</code> records</p>" + "".join(charts)
    )


def _fmt_part(part: Sequence[int] | None) -> str:
    return "—" if part is None else "+".join(str(p) for p in part)


def _fmt_opt(v: float | None) -> str:
    return "—" if v is None else f"{v:.4f}"


def _candidate_details(d: "DecisionAudit", label) -> str:
    """Expandable candidate-score table for one scored decision."""
    ranked = sorted(d.candidates, key=lambda cu: cu[1])
    shown = ranked[:15]
    more = (
        f"<p class='note'>… {len(ranked) - len(shown)} more candidates "
        "omitted (full list in audit.json)</p>"
        if len(ranked) > len(shown) else ""
    )
    interp = ""
    if d.interpolation and d.reciprocals:
        interp = html_table(
            ["app", "reciprocal (Eq. 28)",
             "predicted at target (Eqs. 29-30)"],
            [[label(a), f"{d.reciprocals[a]:.4f}",
              f"{d.interpolation[a][d.target[a] - 1]:.4f}"]
             for a in range(len(d.interpolation))],
        )
    return (
        f"<details><summary>cycle {d.cycle}: {len(ranked)} candidate "
        f"partitions scored — chosen {_fmt_part(d.target)} "
        f"(predicted unfairness {d.predicted_unfairness:.4f})</summary>"
        + interp
        + html_table(
            ["partition", "predicted unfairness"],
            [[_fmt_part(part),
              f"{unf:.4f}" + (" ←" if part == d.target else "")]
             for part, unf in shown],
        )
        + f"{more}</details>"
    )


def _decision_section(audit: "AuditLog", label) -> str:
    """DASE-Fair decision timeline: every evaluation, with its scores."""
    decisions = audit.decision_audits
    if not decisions:
        return ""
    body: list[str] = ["<h2>DASE-Fair decision timeline</h2>"]
    # Unfairness trajectory: measured-now vs predicted-at-target.
    cur_pts = [
        (d.cycle, d.current_unfairness)
        for d in decisions if d.current_unfairness is not None
    ]
    pred_pts = [
        (d.cycle, d.predicted_unfairness)
        for d in decisions if d.predicted_unfairness is not None
    ]
    chart = line_chart(
        "Estimated unfairness at each decision",
        [
            {"label": "current partition", "slot": 0, "points": cur_pts},
            {"label": "best candidate", "slot": 1, "points": pred_pts},
        ],
        y_label="unfairness",
    )
    if chart:
        body.append(chart)
    rows = [
        [d.cycle, d.action, d.reason, _fmt_part(d.current),
         _fmt_part(d.target), _fmt_opt(d.current_unfairness),
         _fmt_opt(d.predicted_unfairness),
         "; ".join(f"{label(f)}→{label(t)}×{k}" for f, t, k in d.plan)
         if d.plan else "—"]
        for d in decisions
    ]
    body.append(
        html_table(["cycle", "action", "reason", "partition", "target",
                    "unfairness", "predicted", "plan"], rows)
        + "<p class='note'>one row per interval evaluation; "
        "<code>recommend</code> = dry-run (shadow) decision that did not "
        "move SMs</p>"
    )
    for d in decisions:
        if d.candidates:
            body.append(_candidate_details(d, label))
    return "".join(body)


_PAGE = Template("""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>${title}</title>
<style>
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --grid: #e8e7e3;
  --series-1: #2a78d6;
  --series-2: #eb6834;
  --series-3: #1baf7a;
  --series-4: #eda100;
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --grid: #383835;
    --series-1: #3987e5;
    --series-2: #d95926;
    --series-3: #199e70;
    --series-4: #c98500;
  }
}
body { margin: 0; }
.viz-root {
  background: var(--surface-1); color: var(--text-primary);
  font: 14px/1.45 system-ui, sans-serif;
  max-width: 880px; margin: 0 auto; padding: 24px 16px 64px;
}
h1 { font-size: 20px; } h2 { font-size: 16px; margin-top: 28px; }
figure { margin: 20px 0 8px; }
figcaption { font-weight: 600; margin-bottom: 6px; }
svg { width: 100%; height: auto; display: block; }
svg .grid { stroke: var(--grid); stroke-width: 1; }
svg .axis { stroke: var(--text-secondary); stroke-width: 1; }
svg .tick { fill: var(--text-secondary); font-size: 10px; }
svg .dlabel { fill: var(--text-secondary); font-size: 11px; }
.legend { display: flex; gap: 14px; flex-wrap: wrap; margin-top: 4px;
  color: var(--text-secondary); font-size: 12px; }
.chip { display: inline-flex; align-items: center; gap: 5px; }
.swatch { width: 10px; height: 10px; border-radius: 3px;
  display: inline-block; }
table { border-collapse: collapse; margin: 8px 0; font-size: 13px; }
th, td { padding: 3px 10px; text-align: right;
  border-bottom: 1px solid var(--grid); }
th:first-child, td:first-child { text-align: left; }
table.heat td { text-align: center; padding: 3px 6px; min-width: 30px; }
.note { color: var(--text-secondary); font-size: 12px; }
code { font-size: 12px; }
details summary { cursor: pointer; margin-top: 20px;
  color: var(--text-secondary); }
</style>
</head>
<body><div class="viz-root">
<h1>${title}</h1>
<p class="note">${subtitle}</p>
${body}
</div></body>
</html>
""")


def render_page(title: str, subtitle: str, body: str) -> str:
    """Wrap pre-built ``body`` HTML in the repo's standard self-contained
    page shell (inline CSS, light/dark via custom properties, no JS)."""
    return _PAGE.substitute(title=_esc(title), subtitle=_esc(subtitle),
                            body=body)


def render_html_report(
    obs: "Observation", result: "WorkloadResult", title: str
) -> str:
    """Build the full report of one recorded run: ``obs`` is the bundle
    :func:`~repro.harness.run_workload` recorded ``result`` into."""
    telemetry, tracer, audit = obs.telemetry, obs.tracer, obs.audit
    app_names = list(result.names)
    body = ["<h2>Run summary</h2>", _summary_section(result)]

    def label(a: int) -> str:
        return app_names[a] if a < len(app_names) else f"app{a}"

    if telemetry.samples:
        apps = sorted({s.app for s in telemetry.samples})

        def app_series(fieldname: str) -> list[dict]:
            return [
                {
                    "label": label(a),
                    "slot": a,
                    "points": list(
                        zip(telemetry.cycles_of(a), telemetry.series(a, fieldname))
                    ),
                }
                for a in apps
            ]

        body.append("<h2>Per-application time series</h2>")
        body.append(line_chart("IPC per interval", app_series("ipc"),
                                y_label="IPC"))
        body.append(line_chart(
            "Memory-stall fraction α", app_series("alpha"), y_label="α"))
        est_names = sorted(telemetry.estimators)
        if est_names:
            body.append("<h2>Slowdown estimates (solid) vs measured "
                        "slowdown (dashed)</h2>")
        for model in est_names:
            series: list[dict] = []
            for a in apps:
                pts = [
                    (c, v)
                    for c, v in zip(
                        telemetry.cycles_of(a), telemetry.series(a, model)
                    )
                    if v is not None
                ]
                series.append(
                    {"label": label(a), "slot": a, "points": pts}
                )
                if pts:
                    actual = result.actual_slowdowns[a]
                    series.append({
                        "label": f"{label(a)} actual",
                        "slot": a,
                        "dash": True,
                        "points": [
                            (pts[0][0], actual), (pts[-1][0], actual)
                        ],
                    })
            body.append(line_chart(
                f"{model} slowdown estimate", series, y_label="slowdown"))
        body.append(line_chart(
            "SM partition timeline", app_series("sm_count"), y_label="SMs"))

    if audit is not None:
        if audit.model_audits:
            body.append(_error_section(audit, result, label))
        body.append(_decision_section(audit, label))

    body.append(_bank_heat_section(tracer))
    body.append(_taxonomy_section(tracer))

    run = {n: inst.snapshot()
           for n, inst in obs.registry.subtree("run").items()}
    if run:
        body.append("<h2>Run metrics</h2>" + html_table(*metrics_table(run)))

    if telemetry.samples:
        body.append(
            "<details><summary>Table view (all interval samples)</summary>"
            + html_table(*telemetry.table()) + "</details>"
        )

    subtitle = (" + ".join(result.names)
                + " · generated by repro.obs — interval telemetry + event "
                "trace")
    return render_page(title, subtitle, "\n".join(body))


def export_html_report(
    path: str | os.PathLike,
    obs: "Observation",
    result: "WorkloadResult",
    title: str,
) -> str:
    html = render_html_report(obs, result, title)
    durable.replace_text(path, html)
    return html


def _sweep_gantt(trace_payload: dict) -> str:
    """Per-worker gantt of job slices from a sweep Chrome-trace payload."""
    slices = [
        ev for ev in trace_payload.get("traceEvents", [])
        if ev.get("ph") == "X" and ev.get("tid") == 0
    ]
    if not slices:
        return ""
    pids = sorted({ev["pid"] for ev in slices})
    t_hi = max(ev["ts"] + ev.get("dur", 0.0) for ev in slices) or 1.0
    row_h, gap, left = 26, 6, 110
    width = 760
    height = len(pids) * (row_h + gap) + 24
    iw = width - left - 12
    parts = [
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="per-worker job timeline">'
    ]
    for row, pid in enumerate(pids):
        y = row * (row_h + gap)
        parts.append(
            f'<text x="{left - 8}" y="{y + row_h / 2 + 4:.1f}" '
            f'class="tick" text-anchor="end">worker {pid}</text>'
        )
        for ev in slices:
            if ev["pid"] != pid:
                continue
            x = left + ev["ts"] / t_hi * iw
            w = max(1.5, ev.get("dur", 0.0) / t_hi * iw)
            ok = (ev.get("args") or {}).get("ok", True)
            color = "var(--series-1)" if ok else "var(--series-2)"
            dur_s = ev.get("dur", 0.0) / 1e6
            parts.append(
                f'<rect x="{x:.1f}" y="{y}" width="{w:.1f}" '
                f'height="{row_h}" rx="3" fill="{color}" opacity="0.85">'
                f'<title>{_esc(ev.get("name", "?"))}: {dur_s:.2f}s</title>'
                "</rect>"
            )
    parts.append(
        f'<text x="{left}" y="{height - 6}" class="tick">0s</text>'
        f'<text x="{width - 12}" y="{height - 6}" class="tick" '
        f'text-anchor="end">{t_hi / 1e6:.1f}s</text>'
    )
    parts.append("</svg>")
    return (
        "<figure><figcaption>Per-worker job timeline "
        "(red = failed slice)</figcaption>" + "".join(parts) + "</figure>"
    )


def render_sweep_report(
    stats: dict,
    trace_payload: dict | None = None,
    profile_rows: "Sequence[Sequence[str]] | None" = None,
    title: str = "repro sweep report",
) -> str:
    """Sweep-scope HTML report from a ``sweep.json`` stats payload
    (:meth:`repro.obs.bus.SweepStats.to_dict`), optionally with the sweep
    Chrome-trace payload (per-worker gantt) and a merged-profile table.
    Its tables are the ones ``repro inspect`` prints
    (:func:`sweep_tables`).
    """
    from repro.obs.bus import PROFILE_HEADERS

    tables = sweep_tables(stats)
    body: list[str] = []
    body.append("<h2>Sweep summary</h2>")
    body.append(html_table(
        ["jobs", "ok", "failed", "resumed", "wall", "busy", "cpu",
         "workers", "efficiency"],
        [[stats.get("n_jobs", 0), stats.get("ok", 0), stats.get("failed", 0),
          stats.get("resumed", 0), f"{stats.get('wall_s', 0.0):.1f}s",
          f"{stats.get('busy_s', 0.0):.1f}s",
          f"{stats.get('cpu_s', 0.0):.1f}s",
          len(stats.get("workers") or {}),
          f"{stats.get('parallel_efficiency', 0.0):.0%}"]],
    ))
    if "latency" in tables:
        body.append("<h2>Job latency</h2>" + html_table(*tables["latency"]))
    if trace_payload is not None:
        gantt = _sweep_gantt(trace_payload)
        if gantt:
            body.append("<h2>Worker timeline</h2>")
            body.append(gantt)
    if "phases" in tables:
        body.append("<h2>Phase breakdown</h2>"
                    + html_table(*tables["phases"]))
    cache = stats.get("cache") or {}
    if cache:
        body.append(
            "<h2>Replay-cache economics</h2>"
            f"<p class='note'>{cache.get('hits', 0)} hits / "
            f"{cache.get('misses', 0)} misses "
            f"(hit rate {cache.get('hit_rate', 0.0):.0%}) — "
            f"≈{cache.get('est_saved_s', 0.0):.1f}s of alone-replay time "
            "saved (hits × mean simulated seconds per request − time spent "
            "on cached probes)</p>"
        )
    replays = stats.get("alone_replays") or {}
    if replays:
        body.append(
            "<h2>Alone replays</h2>"
            f"<p class='note'>{replays.get('requested', 0)} alone clocks "
            f"requested: {replays.get('cached', 0)} served by the replay "
            f"cache, the rest by {replays.get('simulated', 0)} simulated "
            "trajectories (one per application, advanced through every "
            f"count asked of it; {replays.get('extended', 0)} of them "
            "re-simulated past the end of a stored curve, "
            f"{replays.get('overlapped', 0)} overlapped with the shared "
            "run that asked)</p>"
        )
    for key, heading in (("workers", "Workers"),
                         ("stragglers", "Stragglers (&gt; 2× p50)"),
                         ("failures", "Failures")):
        if key in tables:
            body.append(f"<h2>{heading}</h2>" + html_table(*tables[key]))
    if profile_rows:
        body.append(
            "<h2>Sweep-wide hot functions (merged cProfile)</h2>"
            + html_table(PROFILE_HEADERS, profile_rows)
        )
    return render_page(
        title, "generated by repro.obs.bus — cross-worker sweep telemetry",
        "\n".join(body),
    )


def export_sweep_report(
    path: str | os.PathLike,
    stats: dict,
    trace_payload: dict | None = None,
    profile_rows: "Sequence[Sequence[str]] | None" = None,
    title: str = "repro sweep report",
) -> str:
    html = render_sweep_report(
        stats, trace_payload=trace_payload, profile_rows=profile_rows,
        title=title,
    )
    durable.replace_text(path, html)
    return html


def _failures_section(failures: dict[str, str]) -> str:
    if not failures:
        return ""
    return "<h2>Failed runs</h2>" + html_table(*failures_table(failures))


def render_degradation_report(result: "DegradationResult") -> str:
    """Degradation panel: DASE error and DASE-Fair unfairness vs noise σ.

    Charts the two curves of a :class:`~repro.harness.experiments.
    DegradationResult` — estimation error from the policy-free runs and
    achieved unfairness from the DASE-Fair runs — against the injected
    counter-noise intensity, plus the point table ``repro
    fig-degradation`` prints and the monotonicity verdict the chaos suite
    enforces.
    """
    body: list[str] = []
    pair = "+".join(result.pair)
    body.append("<h2>Estimation accuracy under counter faults</h2>")
    err = result.error_curve()
    if err:
        body.append(line_chart(
            f"DASE mean relative error vs noise σ ({pair})",
            [{"label": "DASE error", "slot": 0, "points": err}],
            y_label="mean |est − actual| / actual", x_label="noise σ",
        ))
    unf = result.unfairness_curve()
    if unf:
        body.append(line_chart(
            f"DASE-Fair achieved unfairness vs noise σ ({pair})",
            [{"label": "unfairness", "slot": 1, "points": unf}],
            y_label="unfairness", x_label="noise σ",
        ))
    body.append(html_table(*degradation_table(result)))
    verdict = (
        "error curve is monotone non-decreasing in σ"
        if result.error_is_monotone()
        else "error curve is NOT monotone in σ"
    )
    body.append(f"<p class=\"note\">{_esc(verdict)} · seed "
                f"{result.seed} · same seed at every σ (common random "
                "numbers), so points differ only in intensity.</p>")
    body.append(_failures_section(result.failures))
    return render_page(
        f"fault degradation — {pair}",
        "generated by repro fig-degradation — repro.faults counter-noise "
        "sweep",
        "\n".join(body),
    )


def export_degradation_report(
    path: str | os.PathLike, result: "DegradationResult"
) -> str:
    html = render_degradation_report(result)
    durable.replace_text(path, html)
    return html


def render_churn_report(result: "ChurnResult") -> str:
    """Churn panels: DASE error and the fairness readout vs arrival rate.

    Three views of a :class:`~repro.opensys.churn.ChurnResult`: estimator
    error per policy, each fairness metric's even/fair ratio (so the five
    metrics share one axis), and the per-rate verdict table ``repro
    fig-churn`` prints, disagreements marked ⚠ — the chart the
    nonstationarity test layer pins (docs/model.md on why the metrics may
    disagree).
    """
    body: list[str] = []
    base = "+".join(result.base)
    rates = result.rates
    body.append("<h2>Estimation accuracy under churn</h2>")
    err_series = []
    for slot, label in enumerate(("even", "fair")):
        curve = result.dase_error.get(label, {})
        pts = [(r, curve[r]) for r in rates if r in curve]
        if pts:
            err_series.append({"label": label, "slot": slot, "points": pts})
    if err_series:
        body.append(line_chart(
            f"DASE mean relative error vs arrival rate ({base})",
            err_series,
            y_label="mean |est − actual| / actual",
            x_label="arrivals per kilocycle",
        ))

    body.append("<h2>Fairness metrics vs arrival rate</h2>")
    ratio_series = []
    for slot, name in enumerate(CHURN_METRICS):
        pts = []
        for r in rates:
            even = result.metrics.get("even", {}).get(r, {})
            fair = result.metrics.get("fair", {}).get(r, {})
            if name in even and name in fair and even[name] != 0:
                pts.append((r, fair[name] / even[name]))
        if pts:
            ratio_series.append({"label": name, "slot": slot, "points": pts})
    if ratio_series:
        body.append(line_chart(
            f"DASE-Fair / even ratio per metric ({base})",
            ratio_series,
            y_label="fair ÷ even (1.0 = no difference)",
            x_label="arrivals per kilocycle",
        ))
        body.append(
            "<p class=\"note\">Below 1.0 DASE-Fair improved the metric for "
            "lower-is-fairer metrics (unfairness, p95, p99, gini_wait); for "
            "Jain's index <em>above</em> 1.0 is the improvement.</p>"
        )

    body.append("<h2>Which policy is fairer, per metric</h2>"
                + html_table(*churn_verdict_table(result)))
    if result.disagreements():
        body.append(
            "<p class=\"note\">Rates marked ⚠ are scenarios where the "
            "fairness metrics pick opposite winners — the readout is "
            "multi-metric precisely because no single scalar captures "
            "open-system fairness (docs/model.md).</p>"
        )
    body.append(_failures_section(result.failures))
    body.append(
        f"<p class=\"note\">seed {result.seed} · pool "
        f"{_esc('+'.join(result.pool))} · mean lifetime "
        f"{result.mean_lifetime} cycles · window {result.shared_cycles} "
        "cycles · each rate replays one schedule under both policies.</p>"
    )
    return render_page(
        f"open-system churn — {base}",
        "generated by repro fig-churn — repro.opensys arrival-rate sweep",
        "\n".join(body),
    )


def export_churn_report(path: str | os.PathLike, result: "ChurnResult") -> str:
    html = render_churn_report(result)
    durable.replace_text(path, html)
    return html
