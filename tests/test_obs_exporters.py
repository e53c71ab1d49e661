"""Structural tests for the trace exporters: Chrome trace_event JSON,
events CSV, the HTML run report, and the inspection tooling."""

import csv
import io
import json
import pathlib

import pytest

from repro.config import GPUConfig
from repro.harness import run_workload
from repro.obs import (
    Observation,
    chrome_trace_events,
    events_csv,
    export_chrome_trace,
    export_events_csv,
    export_html_report,
    render_html_report,
    to_chrome_trace,
    trace_summary,
)
from repro.obs.export import CHROME_PHASES, CSV_HEADER, bank_heat
from repro.obs.inspect import (
    RUN_SCHEMA,
    inspect_path,
    summarize_chrome,
    summarize_run,
)

APPS = ["SD", "SB"]


@pytest.fixture(scope="module")
def recording():
    """One traced SD+SB run shared by every exporter test."""
    obs = Observation()
    res = run_workload(
        APPS, config=GPUConfig(interval_cycles=5_000),
        shared_cycles=15_000, models=("DASE", "MISE", "ASM"), trace=obs,
    )
    return obs, res


# ------------------------------------------------------------- chrome trace


class TestChromeExport:
    def test_structure(self, recording):
        obs, _ = recording
        events = chrome_trace_events(obs.tracer)
        assert events, "no events exported"
        for ev in events:
            assert set(ev) >= {"name", "ph", "ts", "pid", "tid"}
            assert ev["ph"] in CHROME_PHASES
            assert isinstance(ev["ts"], float)
            if ev["ph"] == "X":
                assert ev["dur"] >= 0.0
            if ev["ph"] == "C":
                assert ev["args"], "counter event without a value"

    def test_metadata_first_then_sorted_by_ts(self, recording):
        obs, _ = recording
        events = chrome_trace_events(obs.tracer)
        phases = [ev["ph"] for ev in events]
        n_meta = phases.count("M")
        assert n_meta > 0
        assert all(ph == "M" for ph in phases[:n_meta])
        ts = [ev["ts"] for ev in events[n_meta:]]
        assert ts == sorted(ts)

    def test_process_names_cover_every_pid(self, recording):
        obs, _ = recording
        events = chrome_trace_events(obs.tracer)
        named = {
            ev["pid"] for ev in events
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        used = {ev["pid"] for ev in events if ev["ph"] != "M"}
        assert used <= named
        names = {
            ev["pid"]: ev["args"]["name"] for ev in events
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        assert names[0] == "app0 (SD)"
        assert names[1] == "app1 (SB)"

    def test_payload_and_file_round_trip(self, recording, tmp_path):
        obs, _ = recording
        payload = to_chrome_trace(obs.tracer)
        assert payload["otherData"]["events_emitted"] == obs.tracer.n_emitted
        path = tmp_path / "trace.json"
        export_chrome_trace(obs.tracer, path)
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"] == json.loads(
            json.dumps(payload["traceEvents"])
        )
        assert loaded["otherData"]["topology"]["app_names"] == APPS


# ---------------------------------------------------------------------- CSV


class TestCsvExport:
    def test_round_trips_through_csv_reader(self, recording, tmp_path):
        obs, _ = recording
        path = tmp_path / "events.csv"
        export_events_csv(obs.tracer, path)
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == CSV_HEADER
        assert len(rows) - 1 == len(obs.tracer)
        for row in rows[1:]:
            assert len(row) == len(CSV_HEADER)
            int(row[0])  # ts
            assert row[1] in ("i", "X", "C")
            if row[6]:
                assert isinstance(json.loads(row[6]), dict)

    def test_sorted_by_timestamp(self, recording):
        obs, _ = recording
        rows = list(csv.reader(io.StringIO(events_csv(obs.tracer))))[1:]
        ts = [int(r[0]) for r in rows]
        assert ts == sorted(ts)


# --------------------------------------------------------------- HTML report


class TestHtmlReport:
    def test_report_complete_and_placeholder_free(self, recording, tmp_path):
        obs, res = recording
        html = render_html_report(obs, res, "SD+SB")
        assert "${" not in html, "unresolved template placeholder"
        for needle in ("SD", "SB", "DASE", "MISE", "ASM", "DRAM bank heat",
                       "<svg", "</html>"):
            assert needle in html
        path = tmp_path / "report.html"
        export_html_report(path, obs, res, "SD+SB")
        assert path.read_text() == html


# ------------------------------------------------------- summaries / inspect


class TestSummaries:
    def test_trace_summary(self, recording):
        obs, _ = recording
        s = trace_summary(obs.tracer)
        json.dumps(s)  # JSON-safe
        assert s["events_retained"] == len(obs.tracer)
        assert s["events_emitted"] == obs.tracer.n_emitted
        assert s["span_cycles"][0] <= s["span_cycles"][1]
        assert s["by_name"]["dram.service"] > 0
        assert s["engine"]["events_dispatched"] > 0

    def test_bank_heat(self, recording):
        obs, _ = recording
        heat = bank_heat(obs.tracer)
        assert heat
        cfg = GPUConfig()
        for (part, bank), count in heat.items():
            assert 0 <= part < cfg.n_partitions
            assert 0 <= bank < cfg.n_banks
            assert count > 0
        assert sum(heat.values()) == obs.tracer.counts_by_name()[
            "dram.service"
        ]

    def _manifest(self, recording):
        obs, res = recording
        return {
            "schema": RUN_SCHEMA,
            "workload": res.to_dict(),
            "trace": trace_summary(obs.tracer),
            "metrics": obs.registry.snapshot(),
            "files": {"chrome": "trace.json"},
        }

    def test_summarize_run(self, recording):
        text = summarize_run(self._manifest(recording))
        assert "workload: SD+SB" in text
        assert "DASE" in text and "actual" in text
        assert "events emitted" in text
        assert "chrome=trace.json" in text

    def test_summarize_chrome(self, recording):
        obs, _ = recording
        text = summarize_chrome(to_chrome_trace(obs.tracer))
        assert "chrome trace:" in text
        assert "dram.service" in text

    def test_inspect_path_dispatch(self, recording, tmp_path):
        obs, _ = recording
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "run.json").write_text(
            json.dumps(self._manifest(recording))
        )
        # Directory and manifest file resolve to the run summary...
        assert "workload: SD+SB" in inspect_path(str(run_dir))
        assert "workload: SD+SB" in inspect_path(str(run_dir / "run.json"))
        # ...a raw Chrome trace to the trace summary.
        trace_path = tmp_path / "trace.json"
        export_chrome_trace(obs.tracer, trace_path)
        assert "chrome trace:" in inspect_path(str(trace_path))

    def test_inspect_path_rejects_unrecognized(self, tmp_path):
        junk = tmp_path / "junk.json"
        junk.write_text('{"hello": 1}')
        with pytest.raises(ValueError, match="no schema tag"):
            inspect_path(str(junk))
        tagged = tmp_path / "tagged.json"
        tagged.write_text('{"schema": "acme.mystery/9"}')
        with pytest.raises(ValueError, match="unrecognized schema"):
            inspect_path(str(tagged))
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ValueError, match="no run.json"):
            inspect_path(str(empty))
