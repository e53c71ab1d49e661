"""Byte-pinned text output: every table repro prints, over inputs that carry
no wall-clock time.

Each case renders one text view — a figure table, a ``repro inspect``
summary, a CLI listing, a CSV export — and compares it with the file of the
same name under ``tests/golden/render/``.  The inputs are hand-built result
objects, the committed ``tests/golden/durable/`` fixtures, and one short
traced SD+SB run with audit on (the simulator is deterministic).  The HTML
reports may change their markup; their section headings are pinned by the
``test_*_report_headings`` tests below.

Regenerate after an intentional rendering change and review the diff::

    PYTHONPATH=src python tests/test_render_golden.py --regen
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys
import tempfile
from functools import lru_cache
from typing import Callable

import pytest

from repro.harness.experiments import (
    AccuracyResult,
    DegradationResult,
    Fig2Result,
    Fig3Result,
    Fig4Result,
    Fig9Result,
    SensitivityResult,
    Table3Result,
    table1_hwcost,
)
from repro.obs.report import (
    render_accuracy,
    render_churn,
    render_claims,
    render_degradation,
    render_distribution,
    render_fig2,
    render_fig3,
    render_fig4,
    render_fig9,
    render_sensitivity,
    render_table1,
    render_table3,
    table,
)
from repro.obs import inspect as ins
from repro.obs.bus import SweepStats, read_bus, sweep_chrome_trace
from repro.obs.diff import diff_paths
from repro.opensys.churn import ChurnResult
from repro.store import ResultStore, trajectory_table

HERE = pathlib.Path(__file__).parent
GOLDEN = HERE / "golden" / "render"
DURABLE = HERE / "golden" / "durable"
STORE = DURABLE / "store"
BUS = DURABLE / "bus"

TRACED_CYCLES = 20_000
#: Ring capacity of the traced run: keeps events.csv small, and the
#: summary shows overwritten events.
TRACED_CAPACITY = 1000
#: What :func:`traced` renders from its one run.
TRACED = ("telemetry.csv", "metrics.csv", "model_audits.csv",
          "decision_audits.csv", "events.csv", "summarize_run.txt",
          "summarize_audit.txt")


def degradation() -> DegradationResult:
    return DegradationResult(
        pair=("SD", "SB"), sigmas=[0.0, 0.1, 0.25, 0.5], seed=7,
        dase_error={0.0: 0.05, 0.1: 0.125, 0.5: 0.0875},
        unfairness={0.0: 2.5, 0.1: 2.75, 0.25: 3.0},
        failures={"sigma=0.5/fair": "RuntimeError: boom",
                  "sigma=0.25/none": "TimeoutError: 1.0s"},
    )


def churn() -> ChurnResult:
    even = {"unfairness": 2.0, "jain": 0.8, "p95": 1.5, "p99": 2.5,
            "gini_wait": 0.25}
    return ChurnResult(
        base=("SD", "SB"), pool=("QR", "CT"), rates=[0.5, 1.0, 2.0],
        seed=3, mean_lifetime=4000, shared_cycles=20000,
        n_arrivals={0.5: 2, 1.0: 5},
        dase_error={"even": {0.5: 0.0625, 1.0: 0.1},
                    "fair": {0.5: 0.05}},
        metrics={
            "even": {0.5: dict(even), 1.0: dict(even)},
            "fair": {
                0.5: {"unfairness": 1.5, "jain": 0.9, "p95": 1.25,
                      "p99": 2.0, "gini_wait": 0.125},
                1.0: {"unfairness": 1.75, "jain": 0.75, "p95": 1.5,
                      "p99": 3.0},
            },
        },
        failures={"rate=2/fair": "RuntimeError: boom"},
    )


#: A hand-built sweep-stats payload with every block the summary shows.
SWEEP_STATS = {
    "schema": "repro.obs.sweep/1",
    "n_jobs": 4, "ok": 3, "failed": 1, "resumed": 1, "incomplete": 1,
    "wall_s": 12.5, "busy_s": 20.25, "cpu_s": 19.75,
    "parallel_efficiency": 0.81,
    "latency": {"p50": 4.5, "p95": 9.25, "p99": 9.75, "mean": 5.0,
                "max": 10.0},
    "phases": {"simulate": {"count": 4, "total_s": 15.5},
               "alone_replay": {"count": 6, "total_s": 3.25},
               "dequeue": {"count": 4, "total_s": 0.125}},
    "cache": {"hits": 3, "misses": 1, "hit_rate": 0.75, "est_saved_s": 6.5},
    "alone_replays": {"requested": 8, "simulated": 3, "extended": 1,
                      "cached": 3, "overlapped": 2},
    "workers": {"101": {"jobs": 2, "busy_s": 10.5, "cpu_s": 10.25,
                        "rss_peak_kb": 51200},
                "102": {"jobs": 2, "busy_s": 9.75, "cpu_s": 9.5,
                        "rss_peak_kb": 49152}},
    "stragglers": [{"job": 3, "key": "SD+QR", "dur_s": 10.0, "ratio": 2.2,
                    "dominant_phase": "simulate", "phase_s": 8.5}],
    "failures": [{"job": 2, "key": "SB+CT", "kind": "timeout",
                  "attempts": 2}],
}


def _stdout(fn, *args) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        fn(*args)
    return buf.getvalue()


@lru_cache(maxsize=None)
def traced() -> dict[str, str]:
    """One short audited SD+SB run: the five CSVs and its summaries."""
    from repro.harness import run_workload, scaled_config
    from repro.obs import Observation
    from repro.obs.export import events_csv
    from repro.policies import DASEFairPolicy

    obs = Observation(audit=True, trace_capacity=TRACED_CAPACITY)
    res = run_workload(
        ["SD", "SB"], shared_cycles=TRACED_CYCLES,
        models=("DASE", "MISE", "ASM"),
        policy=DASEFairPolicy(scaled_config(), dry_run=True), trace=obs,
    )
    manifest = json.loads(json.dumps(ins.run_manifest(obs, res, {
        "chrome": "trace.json", "csv": "events.csv", "html": "report.html",
        "audit": "audit.json"})))
    audit = json.loads(json.dumps(obs.audit.to_dict()))
    return {
        "telemetry.csv": obs.telemetry.to_csv(),
        "metrics.csv": obs.registry.to_csv(),
        "model_audits.csv": obs.audit.model_audits_csv(),
        "decision_audits.csv": obs.audit.decision_audits_csv(),
        "events.csv": events_csv(obs.tracer),
        "summarize_run.txt": ins.summarize_run(manifest),
        "summarize_audit.txt": ins.summarize_audit(audit),
    }


def _diff():
    a, b = sorted((STORE / "records").glob("*.json"))
    return diff_paths(a, b)


def _inspect_saved_diff() -> str:
    """``repro inspect`` on a saved diff verdict."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "verdict.json"
        path.write_text(json.dumps(_diff().to_dict()))
        return ins.inspect_path(str(path))


def _cases() -> dict[str, Callable[[], str]]:
    from repro import cli

    bus = read_bus(BUS)
    records = sorted((STORE / "records").glob("*.json"))
    index = json.loads((STORE / "index.json").read_text())
    cases = {
        "table.txt": lambda: table(
            ["a", "bbbb"], [["xx", "y"], ["1", "22222"]]),
        "table1.txt": lambda: render_table1(table1_hwcost(apps=2)),
        "table3.txt": lambda: render_table3(Table3Result(
            cycles=1000, measured={"SB": 0.7, "QR": 0.125},
            alpha={"SB": 0.9, "QR": 0.05}, ipc={"SB": 3.0, "QR": 14.0})),
        "claims.txt": lambda: render_claims([
            ("fig5", "dase-error", "8.8%", "6.6%", "< 15.0%", "ok"),
            ("fig9", "unfairness-drop", "62.5%", "12.0%", "> 20.0%",
             "FAILED"),
        ]),
        "fig2.txt": lambda: render_fig2(Fig2Result(
            combos=[("SD", "SB")], unfairness={"SD+SB": 2.5},
            slowdowns={"SD+SB": [3.4, 1.4]},
            breakdown={"SD+SB": {"SD": 0.1, "SB": 0.5, "wasted": 0.3,
                                 "idle": 0.1}},
            sd_alone_bw=0.4)),
        "fig3.txt": lambda: render_fig3(Fig3Result(
            points=[(10.0, 0.1), (20.0, 0.2)], correlation=0.999)),
        "fig4.txt": lambda: render_fig4(Fig4Result(
            alone_rate=420.0, shared_rates={"SA": (300.0, 139.0),
                                            "QR": (280.5, 150.25)})),
        "accuracy.txt": lambda: render_accuracy(AccuracyResult(
            workloads=[("SD", "SB"), ("QR", "CT")],
            per_workload={"SD+SB": {"DASE": 0.05, "MISE": 0.4, "ASM": 0.3},
                          "QR+CT": {"DASE": 0.1, "MISE": 0.2, "ASM": 0.25}},
            errors={"DASE": [0.05, 0.1], "MISE": [0.4, 0.2], "ASM": []},
            skipped={"DASE": 0, "ASM": 2},
            failures={"SA+VA": "RuntimeError", "NN+SD": "timeout"}),
            "Fig 5 — estimation error"),
        "distribution.txt": lambda: render_distribution({
            "DASE": {"<10%": 0.7, "10-20%": 0.2, ">20%": 0.1},
            "MISE": {"<10%": 0.3, "10-20%": 0.3, ">20%": 0.4}}),
        "sensitivity.txt": lambda: render_sensitivity(SensitivityResult(
            labels=["6+10", "8+8"], dase_errors={"6+10": 0.08, "8+8": 0.055}),
            "Fig 8a — SM split"),
        "fig9.txt": lambda: render_fig9(Fig9Result(
            workloads=["SD+SB", "QR+CT"],
            unfairness_even={"SD+SB": 2.5, "QR+CT": 1.5},
            unfairness_fair={"SD+SB": 1.5, "QR+CT": 1.25},
            hspeedup_even={"SD+SB": 0.5, "QR+CT": 0.75},
            hspeedup_fair={"SD+SB": 0.55, "QR+CT": 0.75})),
        "degradation.txt": lambda: render_degradation(degradation()),
        "churn.txt": lambda: render_churn(churn()),
        "summarize_bus.txt": lambda: ins.summarize_bus(bus),
        "summarize_sweep_bus.txt": lambda: ins.summarize_sweep(
            SweepStats.from_records(bus).to_dict()),
        "summarize_sweep_full.txt": lambda: ins.summarize_sweep(SWEEP_STATS),
        "summarize_chrome.txt": lambda: ins.summarize_chrome(
            sweep_chrome_trace(bus)),
        "summarize_store_index.txt": lambda: ins.summarize_store_index(index),
        "inspect_store.txt": lambda: ins.inspect_path(str(STORE)),
        "inspect_bus.txt": lambda: ins.inspect_path(str(BUS)),
        "store_list.txt": lambda: _stdout(
            cli.main, ["store", "list", "--store", str(STORE)]),
        "trajectory.txt": lambda: trajectory_table(ResultStore(STORE)),
        "run.txt": lambda: _stdout(
            cli.main, ["run", "SD", "SB", "--cycles", str(TRACED_CYCLES)]),
        "diff_render.txt": lambda: _diff().render(),
        "summarize_diff.txt": _inspect_saved_diff,
    }
    for n, path in enumerate(records):
        payload = json.loads(path.read_text())
        cases[f"summarize_store_record{n}.txt"] = (
            lambda payload=payload: ins.summarize_store_record(payload))
        cases[f"store_show{n}.txt"] = (
            lambda ref=path.stem[:12]: _stdout(
                cli.main, ["inspect", ref, "--store", str(STORE)]))
    for name in TRACED:
        cases[name] = lambda name=name: traced()[name]
    return cases


def _render(name: str) -> str:
    # Fixture paths differ between checkouts: golden files carry them as
    # ``<durable>``.
    return _cases()[name]().replace(str(DURABLE), "<durable>")


CASE_NAMES = sorted(_cases())


@pytest.mark.parametrize("name", CASE_NAMES)
def test_render_matches_golden(name):
    assert _render(name) == (GOLDEN / name).read_text()


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == CASE_NAMES


# ------------------------------------------------------------ HTML headings


def _h2(html: str) -> list[str]:
    import re

    return re.findall(r"<h2>(.*?)</h2>", html)


def test_run_report_headings():
    from repro.harness import run_workload, scaled_config
    from repro.obs import Observation
    from repro.obs.report import render_html_report
    from repro.policies import DASEFairPolicy

    obs = Observation(audit=True)
    res = run_workload(
        ["SD", "SB"], shared_cycles=TRACED_CYCLES,
        models=("DASE", "MISE", "ASM"),
        policy=DASEFairPolicy(scaled_config(), dry_run=True), trace=obs,
    )
    html = render_html_report(obs, res, "SD+SB")
    assert _h2(html) == [
        "Run summary",
        "Per-application time series",
        "Slowdown estimates (solid) vs measured slowdown (dashed)",
        "Estimate-vs-actual error",
        "DASE-Fair decision timeline",
        "DRAM bank heat",
        "Recorded events",
        "Run metrics",
    ]
    assert "Table view (all interval samples)" in html


def test_sweep_report_headings():
    from repro.obs.report import render_sweep_report

    html = render_sweep_report(
        SWEEP_STATS, trace_payload=sweep_chrome_trace(read_bus(BUS)),
        profile_rows=[["3", "0.125", "0.5", "sim.py:10(step)"]],
    )
    assert _h2(html) == [
        "Sweep summary",
        "Job latency",
        "Worker timeline",
        "Phase breakdown",
        "Replay-cache economics",
        "Alone replays",
        "Workers",
        "Stragglers (&gt; 2× p50)",
        "Failures",
        "Sweep-wide hot functions (merged cProfile)",
    ]


def test_degradation_report_headings():
    from repro.obs.report import render_degradation_report

    html = render_degradation_report(degradation())
    assert _h2(html) == [
        "Estimation accuracy under counter faults",
        "Failed runs",
    ]
    assert "error curve is NOT monotone in σ" in html


def test_churn_report_headings():
    from repro.obs.report import render_churn_report

    html = render_churn_report(churn())
    assert _h2(html) == [
        "Estimation accuracy under churn",
        "Fairness metrics vs arrival rate",
        "Which policy is fairer, per metric",
        "Failed runs",
    ]
    assert "⚠" in html


def test_trajectory_report_headings():
    from repro.store import render_trajectory_report

    html = render_trajectory_report(
        ResultStore(STORE), bench_path=HERE.parent / "BENCH_trajectory.json")
    assert _h2(html) == [
        "scenario durable-golden",
        "benchmark perf history (BENCH_trajectory.json)",
    ]
    assert "<summary>recordings</summary>" in html


def regenerate() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in CASE_NAMES:
        (GOLDEN / name).write_text(_render(name))
        print((GOLDEN / name))


if __name__ == "__main__":
    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
        sys.exit(2)
