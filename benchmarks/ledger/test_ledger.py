"""Smoke test of the performance ledger (≈ 1.5 min; outside ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py

Runs ``run.py --quick --trace`` once and checks that what it prints is what
``BENCHMARK.json`` declares — no metric missing, none undeclared.
"""

import json
import pathlib
import re
import subprocess
import sys

LEDGER = pathlib.Path(__file__).resolve().parent
ROOT = LEDGER.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def test_declared_metrics_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert m["unit"] and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert SPEC["paths"] == ["benchmarks/ledger"]


def test_quick_run_prints_exactly_the_declared_metrics(tmp_path):
    out = tmp_path / "ledger.json"
    proc = subprocess.run(
        [sys.executable, str(LEDGER / "run.py"), "--quick", "--trace",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    report = json.loads(out.read_text())
    assert {"seed", "nproc", "python", "git_rev", "workloads"} <= set(
        report["provenance"])
    for w in SPEC["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = report["runs"][f"{w['name']}/trace{trace}"]["result"]
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            declared = {m["name"]: m["unit"] for m in SPEC[kind]}
            assert set(result["metrics"]) == set(declared)
            for name, entry in result["metrics"].items():
                assert entry["unit"] == declared[name]
                if kind == "end_to_end":
                    assert entry["value"] > 0, name
        trace_file = ROOT / report["runs"][f"{w['name']}/trace1"]["detail"][
            "trace_file"]
        events = json.loads(trace_file.read_text())["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
