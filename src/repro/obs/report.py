"""Self-contained HTML run report.

One file, no external assets, no JavaScript: inline SVG time-series charts
(per-app IPC, α, slowdown estimates per model vs the measured slowdown,
SM-partition timeline), a DRAM bank-heat matrix, the event taxonomy, and a
plain table view of every series.  Light and dark mode are both styled via
CSS custom properties (the dark values are selected steps of the same
hues, not an automatic flip).

Charts follow the repo's charting conventions: one categorical hue per
*application* in fixed slot order everywhere (an app keeps its color
across every chart; models are distinguished by small multiples, not
hues), a single y axis per chart, thin 2px lines with hoverable sample
markers, recessive grid, legends plus direct end-labels, and a sequential
one-hue ramp for the bank-heat magnitudes.
"""

from __future__ import annotations

import html as _html
import os
from string import Template
from typing import TYPE_CHECKING, Sequence

from repro.obs.export import bank_heat, trace_summary
from repro.obs.tracer import EventTracer

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.harness.experiments import DegradationResult
    from repro.harness.runner import WorkloadResult
    from repro.opensys.churn import ChurnResult
    from repro.obs.audit import AuditLog, DecisionAudit
    from repro.obs.registry import MetricsRegistry
    from repro.obs.telemetry import Telemetry

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


def _esc(s: object) -> str:
    return _html.escape(str(s))


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e6:
        return str(int(v))
    return f"{v:.3g}" if abs(v) >= 0.01 else f"{v:.2e}"


def _ticks(lo: float, hi: float, n: int = 4) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / n
    return [lo + i * step for i in range(n + 1)]


def _line_chart(
    title: str,
    series: Sequence[dict],
    y_label: str = "",
    x_label: str = "cycle",
) -> str:
    """One SVG line chart.

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


def _summary_table(result: "WorkloadResult") -> str:
    models = sorted(result.estimates)
    head = "".join(
        f"<th>{_esc(h)}</th>"
        for h in ["app", "SMs", "actual slowdown"] + [f"{m} est." for m in models]
    )
    rows = []
    for i, name in enumerate(result.names):
        act = result.actual_slowdowns[i]
        cells = [
            f"<td>{_esc(name)}</td>",
            f"<td>{result.sm_partition[i]}</td>",
            f"<td>{'—' if act is None else f'{act:.3f}'}</td>",
        ]
        for m in models:
            e = result.estimates[m][i]
            cells.append(f"<td>{'—' if e is None else f'{e:.3f}'}</td>")
        rows.append("<tr>" + "".join(cells) + "</tr>")
    return (
        f"<table><thead><tr>{head}</tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
        f"<p class='note'>shared window {result.shared_cycles} cycles · "
        f"unfairness {result.actual_unfairness:.3f} · harmonic speedup "
        f"{result.actual_hspeedup:.4f}</p>"
    )


def _bank_heat_section(tracer: EventTracer) -> str:
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


def _taxonomy_section(tracer: EventTracer) -> str:
    summary = trace_summary(tracer)
    rows = "".join(
        f"<tr><td><code>{_esc(n)}</code></td><td>{c}</td></tr>"
        for n, c in summary["by_name"].items()
    )
    return (
        "<h2>Recorded events</h2>"
        "<table><thead><tr><th>event</th><th>retained</th></tr></thead>"
        f"<tbody>{rows}</tbody></table>"
        f"<p class='note'>{summary['events_emitted']} emitted · "
        f"{summary['events_retained']} retained · "
        f"{summary['events_dropped']} dropped (ring capacity "
        f"{summary['capacity']}) · engine dispatched "
        f"{summary['engine']['events_dispatched']} events</p>"
    )


def _table_view(telemetry: "Telemetry") -> str:
    """Accessible table view of every plotted series."""
    csv_text = telemetry.to_csv()
    lines = csv_text.strip().splitlines()
    if len(lines) < 2:
        return ""
    head = "".join(f"<th>{_esc(c)}</th>" for c in lines[0].split(","))
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(c)}</td>" for c in ln.split(",")) + "</tr>"
        for ln in lines[1:]
    )
    return (
        "<details><summary>Table view (all interval samples)</summary>"
        f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"
        "</details>"
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
        chart = _line_chart(
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


def _candidate_details(d: "DecisionAudit", label) -> str:
    """Expandable candidate-score table for one scored decision."""
    ranked = sorted(d.candidates, key=lambda cu: cu[1])
    shown = ranked[:15]
    rows = []
    for part, unf in shown:
        mark = " ←" if part == d.target else ""
        rows.append(
            f"<tr><td>{_fmt_part(part)}</td><td>{unf:.4f}{mark}</td></tr>"
        )
    more = (
        f"<p class='note'>… {len(ranked) - len(shown)} more candidates "
        "omitted (full list in audit.json)</p>"
        if len(ranked) > len(shown) else ""
    )
    interp = ""
    if d.interpolation and d.reciprocals:
        cells = "".join(
            f"<tr><td>{label(a)}</td><td>{d.reciprocals[a]:.4f}</td>"
            f"<td>{d.interpolation[a][d.target[a] - 1]:.4f}</td></tr>"
            for a in range(len(d.interpolation))
        )
        interp = (
            "<table><thead><tr><th>app</th><th>reciprocal (Eq. 28)</th>"
            "<th>predicted at target (Eqs. 29-30)</th></tr></thead>"
            f"<tbody>{cells}</tbody></table>"
        )
    return (
        f"<details><summary>cycle {d.cycle}: {len(ranked)} candidate "
        f"partitions scored — chosen {_fmt_part(d.target)} "
        f"(predicted unfairness {d.predicted_unfairness:.4f})</summary>"
        f"{interp}"
        "<table><thead><tr><th>partition</th><th>predicted unfairness</th>"
        f"</tr></thead><tbody>{''.join(rows)}</tbody></table>{more}"
        "</details>"
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
    chart = _line_chart(
        "Estimated unfairness at each decision",
        [
            {"label": "current partition", "slot": 0, "points": cur_pts},
            {"label": "best candidate", "slot": 1, "points": pred_pts},
        ],
        y_label="unfairness",
    )
    if chart:
        body.append(chart)
    head = "".join(
        f"<th>{h}</th>"
        for h in ["cycle", "action", "reason", "partition", "target",
                  "unfairness", "predicted", "plan"]
    )
    rows = []
    for d in decisions:
        plan = (
            "—" if not d.plan else "; ".join(
                f"{label(f)}→{label(t)}×{k}" for f, t, k in d.plan
            )
        )
        rows.append(
            "<tr>"
            f"<td>{d.cycle}</td><td>{_esc(d.action)}</td>"
            f"<td>{_esc(d.reason)}</td>"
            f"<td>{_fmt_part(d.current)}</td><td>{_fmt_part(d.target)}</td>"
            f"<td>{'—' if d.current_unfairness is None else f'{d.current_unfairness:.4f}'}</td>"
            f"<td>{'—' if d.predicted_unfairness is None else f'{d.predicted_unfairness:.4f}'}</td>"
            f"<td>{_esc(plan)}</td>"
            "</tr>"
        )
    body.append(
        f"<table><thead><tr>{head}</tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
        "<p class='note'>one row per interval evaluation; "
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


def line_chart(
    title: str,
    series: Sequence[dict],
    y_label: str = "",
    x_label: str = "cycle",
) -> str:
    """Public entry to the repo's standard SVG line chart (see
    :func:`_line_chart` for the series dict shape) — used by the store's
    trajectory dashboard so every scope shares one charting idiom."""
    return _line_chart(title, series, y_label=y_label, x_label=x_label)


def render_page(title: str, subtitle: str, body: str) -> str:
    """Wrap pre-built ``body`` HTML in the repo's standard self-contained
    page shell (inline CSS, light/dark via custom properties, no JS)."""
    return _PAGE.substitute(title=_esc(title), subtitle=_esc(subtitle),
                            body=body)


def render_html_report(
    result: "WorkloadResult | None" = None,
    telemetry: "Telemetry | None" = None,
    tracer: EventTracer | None = None,
    registry: "MetricsRegistry | None" = None,
    audit: "AuditLog | None" = None,
    title: str = "repro run report",
) -> str:
    """Build the full report; every argument is optional and independent."""
    body: list[str] = []
    app_names: list[str] = []
    if result is not None:
        app_names = list(result.names)
        body.append("<h2>Run summary</h2>")
        body.append(_summary_table(result))
    elif tracer is not None:
        app_names = list(tracer.topology.get("app_names", []))

    def label(a: int) -> str:
        return app_names[a] if a < len(app_names) else f"app{a}"

    if telemetry is not None and telemetry.samples:
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
        body.append(_line_chart("IPC per interval", app_series("ipc"),
                                y_label="IPC"))
        body.append(_line_chart(
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
                if result is not None and pts:
                    actual = result.actual_slowdowns[a]
                    series.append({
                        "label": f"{label(a)} actual",
                        "slot": a,
                        "dash": True,
                        "points": [
                            (pts[0][0], actual), (pts[-1][0], actual)
                        ],
                    })
            body.append(_line_chart(
                f"{model} slowdown estimate", series, y_label="slowdown"))
        body.append(_line_chart(
            "SM partition timeline", app_series("sm_count"), y_label="SMs"))

    if audit is not None:
        if result is not None and audit.model_audits:
            body.append(_error_section(audit, result, label))
        body.append(_decision_section(audit, label))

    if tracer is not None:
        body.append(_bank_heat_section(tracer))
        body.append(_taxonomy_section(tracer))

    if registry is not None and len(registry):
        rows = "".join(
            f"<tr><td><code>{_esc(n)}</code></td><td>{_esc(inst.kind)}</td>"
            f"<td>{_fmt(inst.value) if hasattr(inst, 'value') else _fmt(inst.mean)}"
            "</td></tr>"
            for n, inst in sorted(registry.subtree("run").items())
        )
        if rows:
            body.append(
                "<h2>Run metrics</h2>"
                "<table><thead><tr><th>metric</th><th>type</th>"
                f"<th>value</th></tr></thead><tbody>{rows}</tbody></table>"
            )

    if telemetry is not None and telemetry.samples:
        body.append(_table_view(telemetry))

    subtitle = "generated by repro.obs — interval telemetry + event trace"
    if result is not None:
        subtitle = (
            " + ".join(_esc(n) for n in result.names) + " · " + subtitle
        )
    return _PAGE.substitute(
        title=_esc(title), subtitle=subtitle, body="\n".join(body)
    )


def export_html_report(path: str | os.PathLike, **kw) -> str:
    html = render_html_report(**kw)
    with open(path, "w") as fh:
        fh.write(html)
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
    """
    body: list[str] = []
    body.append("<h2>Sweep summary</h2>")
    lat = stats.get("latency") or {}
    body.append(
        "<table><thead><tr><th>jobs</th><th>ok</th><th>failed</th>"
        "<th>resumed</th><th>wall</th><th>busy</th><th>cpu</th>"
        "<th>workers</th><th>efficiency</th></tr></thead><tbody><tr>"
        f"<td>{stats.get('n_jobs', 0)}</td><td>{stats.get('ok', 0)}</td>"
        f"<td>{stats.get('failed', 0)}</td>"
        f"<td>{stats.get('resumed', 0)}</td>"
        f"<td>{stats.get('wall_s', 0.0):.1f}s</td>"
        f"<td>{stats.get('busy_s', 0.0):.1f}s</td>"
        f"<td>{stats.get('cpu_s', 0.0):.1f}s</td>"
        f"<td>{len(stats.get('workers') or {})}</td>"
        f"<td>{stats.get('parallel_efficiency', 0.0):.0%}</td>"
        "</tr></tbody></table>"
    )
    if lat:
        cells = "".join(
            f"<td>{lat[k]:.2f}s</td>"
            for k in ("p50", "p95", "p99", "mean", "max") if k in lat
        )
        heads = "".join(
            f"<th>{k}</th>"
            for k in ("p50", "p95", "p99", "mean", "max") if k in lat
        )
        body.append(
            "<h2>Job latency</h2>"
            f"<table><thead><tr>{heads}</tr></thead>"
            f"<tbody><tr>{cells}</tr></tbody></table>"
        )
    if trace_payload is not None:
        gantt = _sweep_gantt(trace_payload)
        if gantt:
            body.append("<h2>Worker timeline</h2>")
            body.append(gantt)
    phases = stats.get("phases") or {}
    if phases:
        rows = "".join(
            f"<tr><td><code>{_esc(n)}</code></td>"
            f"<td>{int(row.get('count', 0))}</td>"
            f"<td>{row.get('total_s', 0.0):.2f}s</td></tr>"
            for n, row in sorted(
                phases.items(), key=lambda kv: -kv[1].get("total_s", 0)
            )
        )
        body.append(
            "<h2>Phase breakdown</h2>"
            "<table><thead><tr><th>phase</th><th>count</th>"
            f"<th>total</th></tr></thead><tbody>{rows}</tbody></table>"
        )
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
    workers = stats.get("workers") or {}
    if workers:
        rows = "".join(
            f"<tr><td>{_esc(pid)}</td><td>{int(w.get('jobs', 0))}</td>"
            f"<td>{w.get('busy_s', 0.0):.2f}s</td>"
            f"<td>{w.get('cpu_s', 0.0):.2f}s</td>"
            f"<td>{int(w.get('rss_peak_kb', 0))}</td></tr>"
            for pid, w in sorted(workers.items())
        )
        body.append(
            "<h2>Workers</h2>"
            "<table><thead><tr><th>worker</th><th>jobs</th><th>busy</th>"
            f"<th>cpu</th><th>peak RSS (kB)</th></tr></thead>"
            f"<tbody>{rows}</tbody></table>"
        )
    stragglers = stats.get("stragglers") or []
    if stragglers:
        rows = "".join(
            f"<tr><td>{s.get('job')}</td><td>{_esc(s.get('key', '?'))}</td>"
            f"<td>{s.get('dur_s', 0.0):.2f}s</td>"
            f"<td>{s.get('ratio', 0.0):.1f}×</td>"
            f"<td><code>{_esc(s.get('dominant_phase', '?'))}</code> "
            f"({s.get('phase_s', 0.0):.2f}s)</td></tr>"
            for s in stragglers
        )
        body.append(
            "<h2>Stragglers (&gt; 2× p50)</h2>"
            "<table><thead><tr><th>job</th><th>key</th><th>duration</th>"
            f"<th>× p50</th><th>dominant phase</th></tr></thead>"
            f"<tbody>{rows}</tbody></table>"
        )
    failures = stats.get("failures") or []
    if failures:
        rows = "".join(
            f"<tr><td>{f.get('job')}</td><td>{_esc(f.get('key', '?'))}</td>"
            f"<td>{_esc(f.get('kind', '?'))}</td>"
            f"<td>{f.get('attempts', 1)}</td></tr>"
            for f in failures
        )
        body.append(
            "<h2>Failures</h2>"
            "<table><thead><tr><th>job</th><th>key</th><th>kind</th>"
            f"<th>attempts</th></tr></thead><tbody>{rows}</tbody></table>"
        )
    if profile_rows:
        rows = "".join(
            "<tr>" + "".join(f"<td>{_esc(c)}</td>" for c in r) + "</tr>"
            for r in profile_rows
        )
        body.append(
            "<h2>Sweep-wide hot functions (merged cProfile)</h2>"
            "<table><thead><tr><th>calls</th><th>tottime</th>"
            f"<th>cumtime</th><th>function</th></tr></thead>"
            f"<tbody>{rows}</tbody></table>"
        )
    return _PAGE.substitute(
        title=_esc(title),
        subtitle="generated by repro.obs.bus — cross-worker sweep telemetry",
        body="\n".join(body),
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
    with open(path, "w") as fh:
        fh.write(html)
    return html


def render_degradation_report(result: "DegradationResult") -> str:
    """Degradation panel: DASE error and DASE-Fair unfairness vs noise σ.

    Charts the two curves of a :class:`~repro.harness.experiments.
    DegradationResult` — estimation error from the policy-free runs and
    achieved unfairness from the DASE-Fair runs — against the injected
    counter-noise intensity, plus a point table and the monotonicity
    verdict the chaos suite enforces.
    """
    body: list[str] = []
    pair = "+".join(result.pair)
    body.append("<h2>Estimation accuracy under counter faults</h2>")
    err = result.error_curve()
    if err:
        body.append(_line_chart(
            f"DASE mean relative error vs noise σ ({pair})",
            [{"label": "DASE error", "slot": 0, "points": err}],
            y_label="mean |est − actual| / actual", x_label="noise σ",
        ))
    unf = result.unfairness_curve()
    if unf:
        body.append(_line_chart(
            f"DASE-Fair achieved unfairness vs noise σ ({pair})",
            [{"label": "unfairness", "slot": 1, "points": unf}],
            y_label="unfairness", x_label="noise σ",
        ))
    rows = "".join(
        f"<tr><td>{_fmt(s)}</td>"
        f"<td>{_fmt(result.dase_error[s]) if s in result.dase_error else '-'}"
        "</td>"
        f"<td>{_fmt(result.unfairness[s]) if s in result.unfairness else '-'}"
        "</td></tr>"
        for s in result.sigmas
    )
    body.append(
        "<table><thead><tr><th>σ</th><th>DASE error</th>"
        f"<th>unfairness</th></tr></thead><tbody>{rows}</tbody></table>"
    )
    verdict = (
        "error curve is monotone non-decreasing in σ"
        if result.error_is_monotone()
        else "error curve is NOT monotone in σ"
    )
    body.append(f"<p class=\"note\">{_esc(verdict)} · seed "
                f"{result.seed} · same seed at every σ (common random "
                "numbers), so points differ only in intensity.</p>")
    if result.failures:
        items = "".join(
            f"<tr><td><code>{_esc(k)}</code></td><td>{_esc(v)}</td></tr>"
            for k, v in sorted(result.failures.items())
        )
        body.append(
            "<h2>Failed runs</h2><table><thead><tr><th>run</th>"
            f"<th>error</th></tr></thead><tbody>{items}</tbody></table>"
        )
    return _PAGE.substitute(
        title=_esc(f"fault degradation — {pair}"),
        subtitle="generated by repro fig-degradation — "
                 "repro.faults counter-noise sweep",
        body="\n".join(body),
    )


def export_degradation_report(
    path: str | os.PathLike, result: "DegradationResult"
) -> str:
    html = render_degradation_report(result)
    with open(path, "w") as fh:
        fh.write(html)
    return html


def render_churn_report(result: "ChurnResult") -> str:
    """Churn panels: DASE error and the fairness readout vs arrival rate.

    Three views of a :class:`~repro.opensys.churn.ChurnResult`: estimator
    error per policy, each fairness metric's even/fair ratio (so the five
    metrics share one axis), and the per-rate verdict table with
    disagreements called out — the chart the nonstationarity test layer
    pins (docs/model.md on why the metrics may disagree).
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
        body.append(_line_chart(
            f"DASE mean relative error vs arrival rate ({base})",
            err_series,
            y_label="mean |est − actual| / actual",
            x_label="arrivals per kilocycle",
        ))

    body.append("<h2>Fairness metrics vs arrival rate</h2>")
    metric_names = ("unfairness", "jain", "p95", "p99", "gini_wait")
    ratio_series = []
    for slot, name in enumerate(metric_names):
        pts = []
        for r in rates:
            even = result.metrics.get("even", {}).get(r, {})
            fair = result.metrics.get("fair", {}).get(r, {})
            if name in even and name in fair and even[name] != 0:
                pts.append((r, fair[name] / even[name]))
        if pts:
            ratio_series.append({"label": name, "slot": slot, "points": pts})
    if ratio_series:
        body.append(_line_chart(
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

    verdicts = result.verdicts()
    disagree_rates = {d["rate"] for d in result.disagreements()}
    rows = []
    for r in rates:
        row = verdicts.get(r, {})
        cells = "".join(
            f"<td>{_esc(row.get(name, '-'))}</td>" for name in metric_names
        )
        mark = " ⚠ disagree" if r in disagree_rates else ""
        rows.append(f"<tr><td>{_fmt(r)}{_esc(mark)}</td>{cells}</tr>")
    heads = "".join(f"<th>{_esc(n)}</th>" for n in metric_names)
    body.append(
        "<h2>Which policy is fairer, per metric</h2>"
        f"<table><thead><tr><th>rate</th>{heads}</tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )
    if disagree_rates:
        body.append(
            "<p class=\"note\">Rates marked ⚠ are scenarios where the "
            "fairness metrics pick opposite winners — the readout is "
            "multi-metric precisely because no single scalar captures "
            "open-system fairness (docs/model.md).</p>"
        )
    if result.failures:
        items = "".join(
            f"<tr><td><code>{_esc(k)}</code></td><td>{_esc(v)}</td></tr>"
            for k, v in sorted(result.failures.items())
        )
        body.append(
            "<h2>Failed runs</h2><table><thead><tr><th>run</th>"
            f"<th>error</th></tr></thead><tbody>{items}</tbody></table>"
        )
    body.append(
        f"<p class=\"note\">seed {result.seed} · pool "
        f"{_esc('+'.join(result.pool))} · mean lifetime "
        f"{result.mean_lifetime} cycles · window {result.shared_cycles} "
        "cycles · each rate replays one schedule under both policies.</p>"
    )
    return _PAGE.substitute(
        title=_esc(f"open-system churn — {base}"),
        subtitle="generated by repro fig-churn — repro.opensys arrival-rate "
                 "sweep",
        body="\n".join(body),
    )


def export_churn_report(path: str | os.PathLike, result: "ChurnResult") -> str:
    html = render_churn_report(result)
    with open(path, "w") as fh:
        fh.write(html)
    return html
