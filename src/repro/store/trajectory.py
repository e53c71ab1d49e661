"""Cross-run trajectory views over a :class:`~repro.store.records.ResultStore`.

The longitudinal surface of the observability stack: where ``repro
inspect`` summarizes one recording and ``repro diff`` compares two, a
trajectory walks *every* recording of each scenario in index order and
extracts the headline metrics the paper defends — DASE estimation error,
unfairness, harmonic speedup — into per-scenario series.  Rendered two
ways:

* :func:`trajectory_table` — a text table per scenario (one row per
  recording, one column per metric) for terminals and CI logs;
* :func:`render_trajectory_report` — a self-contained HTML dashboard
  (inline SVG sparklines in the repo's standard charting idiom, via
  :mod:`repro.obs.report`), optionally folding in the committed
  ``BENCH_trajectory.json`` perf history so accuracy/fairness trends and
  benchmark trends read off one page.

Metric extraction is keyed by ``payload_schema`` (:data:`EXTRACTORS`);
unknown schemas fall back to the payload's top-level numeric scalars, so
records tagged ``repro.store.legacy/1`` still chart.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Callable

from repro import durable
from repro.figure_table import FIGURE_TABLE, scalar_metrics
from repro.obs.report import html_table, line_chart, render_page, table
from repro.store.records import ResultStore, StoreRecord, iter_payloads


#: payload schema tag → extractor(payload) → {metric name: value}, one per
#: payload schema of the figure table.
EXTRACTORS: dict[str, Callable[[Any], dict[str, float]]] = {
    fig.schema: fig.extract for fig in FIGURE_TABLE.values()
}


def metrics_of(record: StoreRecord) -> dict[str, float]:
    """Headline metrics of one record, per its payload schema."""
    extractor = EXTRACTORS.get(record.payload_schema, scalar_metrics)
    try:
        return extractor(record.payload)
    except (TypeError, ValueError, KeyError):
        return {}


def trajectory(
    store: ResultStore, scenario: str | None = None
) -> dict[str, dict[str, Any]]:
    """Per-scenario metric series over the store's recording log.

    Series are grouped by scenario *name* (the registry key), not exact
    scenario id, so replications with different seeds chart as one
    trajectory; the per-point ``scenario_id`` stays available for drill-
    down.  Returns ``{name: {"points": [...], "metrics": {metric:
    [(recording#, value)]}}}``.
    """
    out: dict[str, dict[str, Any]] = {}
    for entry, rec in iter_payloads(store, scenario):
        name = entry.get("scenario_name", "?")
        row = out.setdefault(name, {"points": [], "metrics": {}})
        idx = len(row["points"])
        metrics = metrics_of(rec)
        row["points"].append({
            "record_id": rec.record_id,
            "scenario_id": rec.scenario_id,
            "created_at": entry.get("created_at"),
            "git_rev": entry.get("git_rev"),
            "metrics": metrics,
        })
        for m, v in metrics.items():
            row["metrics"].setdefault(m, []).append((idx, v))
    return out


def trajectory_table(
    store: ResultStore, scenario: str | None = None
) -> str:
    """Text view: one block per scenario, one row per recording."""
    traj = trajectory(store, scenario)
    if not traj:
        return "store holds no recordings" + (
            f" of scenario {scenario!r}" if scenario else ""
        )
    blocks: list[str] = []
    for name, row in traj.items():
        metric_names = sorted(row["metrics"])
        heads = ["#", "record", "rev"] + metric_names
        rows = []
        for i, pt in enumerate(row["points"]):
            rev = (pt.get("git_rev") or "-")[:9]
            cells = [str(i), pt["record_id"][:12], rev]
            for m in metric_names:
                v = pt["metrics"].get(m)
                cells.append("-" if v is None else f"{v:.4g}")
            rows.append(cells)
        blocks.append(
            f"scenario {name} ({len(rows)} recording"
            f"{'s' if len(rows) != 1 else ''})\n" + table(heads, rows)
        )
    return "\n\n".join(blocks)


def load_bench_trajectory(
    path: str | os.PathLike,
) -> dict[str, list[tuple[int, float]]]:
    """Series from the committed ``BENCH_trajectory.json`` perf history:
    bench name → [(record#, normalized seconds)]."""
    p = pathlib.Path(path)
    if not p.is_file():
        return {}
    try:
        with p.open() as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, OSError):
        return {}
    series: dict[str, list[tuple[int, float]]] = {}
    for i, rec in enumerate(payload.get("records") or []):
        for bench, row in (rec.get("benches") or {}).items():
            v = row.get("normalized", row.get("seconds"))
            if isinstance(v, (int, float)):
                series.setdefault(bench, []).append((i, float(v)))
    return series


def render_trajectory_report(
    store: ResultStore,
    scenario: str | None = None,
    bench_path: str | os.PathLike | None = None,
    title: str = "repro longitudinal trajectory",
) -> str:
    """Self-contained HTML dashboard: per-scenario metric sparklines plus
    (when available) the committed benchmark perf history."""
    traj = trajectory(store, scenario)
    body: list[str] = []
    for name, row in traj.items():
        n = len(row["points"])
        body.append(
            f"<h2>scenario {name}</h2>"
            f"<p class='note'>{n} recording{'s' if n != 1 else ''} · "
            f"scenario ids {', '.join(sorted({pt['scenario_id'][:12] for pt in row['points']}))}"
            "</p>"
        )
        for slot, (metric, points) in enumerate(sorted(row["metrics"].items())):
            chart = line_chart(
                f"{name} · {metric}",
                [{"label": metric, "slot": slot, "points": points}],
                y_label=metric, x_label="recording #",
            )
            if chart:
                body.append(chart)
        # Point provenance table under each scenario.
        body.append(
            "<details><summary>recordings</summary>"
            + html_table(["#", "record", "rev", "recorded"], [
                [i, pt["record_id"][:12], (pt.get("git_rev") or "-")[:9],
                 pt.get("created_at") or "-"]
                for i, pt in enumerate(row["points"])
            ])
            + "</details>"
        )
    if not traj:
        body.append("<p class='note'>store holds no recordings yet</p>")
    bench = load_bench_trajectory(bench_path) if bench_path else {}
    if bench:
        body.append("<h2>benchmark perf history (BENCH_trajectory.json)</h2>")
        series = [
            {"label": bench_name, "slot": slot, "points": points}
            for slot, (bench_name, points) in enumerate(sorted(bench.items()))
        ]
        chart = line_chart(
            "normalized benchmark seconds per committed record",
            series, y_label="normalized s", x_label="record #",
        )
        if chart:
            body.append(chart)
    return render_page(
        title,
        "generated by repro trajectory — hash-addressed results store, "
        "longitudinal scope",
        "\n".join(body),
    )


def export_trajectory_report(
    path: str | os.PathLike,
    store: ResultStore,
    scenario: str | None = None,
    bench_path: str | os.PathLike | None = None,
    title: str = "repro longitudinal trajectory",
) -> str:
    html = render_trajectory_report(
        store, scenario=scenario, bench_path=bench_path, title=title
    )
    durable.replace_text(path, html)
    return html
