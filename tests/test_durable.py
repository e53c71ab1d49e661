"""The durable-file leaf (:mod:`repro.durable`): its three algorithms, the
byte-identity of every file format written through it against fixtures the
commit before it wrote, and the guard that keeps it the only write path."""

import json
import pathlib
import re
import shutil

import pytest

from repro import durable
from repro.harness import AloneReplayCache, SweepCheckpoint, scaled_config
from repro.harness.parallel import JobOutcome
from repro.obs.bus import read_bus
from repro.service import ReproService
from repro.store import ResultStore
from repro.workloads import SUITE
from tests import durable_fixtures as fx

GOLDEN = pathlib.Path(__file__).parent / "golden" / "durable"
SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"


def _temps(directory):
    return [p.name for p in directory.iterdir() if p.name.endswith(".tmp")]


class TestReplaceText:
    def test_success_leaves_the_text_and_no_temp(self, tmp_path):
        path = durable.replace_text(tmp_path / "sub" / "x.json", "{}\n")
        assert path.read_text() == "{}\n"
        durable.replace_text(path, "[1]\n")
        assert path.read_text() == "[1]\n"
        assert _temps(path.parent) == []

    def test_failed_write_keeps_the_old_file_and_no_temp(self, tmp_path):
        path = durable.replace_text(tmp_path / "x.json", "old\n")
        with pytest.raises(TypeError):
            durable.replace_text(path, b"not text")
        # Callers serialise before they call: a raising serialiser never
        # gets as far as a temp file.
        with pytest.raises(TypeError):
            durable.replace_text(path, json.dumps(object()))
        assert path.read_text() == "old\n"
        assert _temps(tmp_path) == []

    def test_failed_export_keeps_the_previous_artifact(self, tmp_path):
        from repro.obs import EventTracer, export_chrome_trace

        tracer = EventTracer()
        tracer.instant("ok", 1, 0, 0, {"n": 1})
        path = tmp_path / "trace.json"
        export_chrome_trace(tracer, path)
        first = path.read_bytes()
        json.loads(first)
        tracer.instant("bad", 2, 0, 0, {"arg": object()})
        with pytest.raises(TypeError):
            export_chrome_trace(tracer, path)
        assert path.read_bytes() == first
        assert _temps(tmp_path) == []


class TestLineLog:
    def test_append_creates_the_file_and_its_directory(self, tmp_path):
        path = tmp_path / "logs" / "a.jsonl"
        with durable.open_log(path) as log:
            durable.append(log, "one")
            assert path.read_text() == ""  # buffered
            durable.append(log, "two", flush=True)
            assert path.read_text() == "one\ntwo\n"
            durable.append(log, "three", fsync=True)
            assert path.read_text() == "one\ntwo\nthree\n"

    def test_torn_tail_is_terminated_once(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text('{"n":1}\n{"n":2')
        with durable.open_log(path) as log:
            durable.append(log, '{"n":3}')
            durable.append(log, '{"n":4}')
        assert path.read_text() == '{"n":1}\n{"n":2\n{"n":3}\n{"n":4}\n'
        # A log that ends in a newline is appended to and nothing else,
        # however often it is opened.
        durable.open_log(path).close()
        with durable.open_log(path) as log:
            durable.append(log, '{"n":5}')
        assert path.read_text() == (
            '{"n":1}\n{"n":2\n{"n":3}\n{"n":4}\n{"n":5}\n')
        assert durable.read_log(path) == (
            [{"n": 1}, {"n": 3}, {"n": 4}, {"n": 5}], 1)


class TestReaders:
    def test_read_log_skips_and_counts_what_is_not_an_object(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text('{"a":1}\n\nnot json\n[1]\n7\n  {"b":2}  \n{"c":')
        assert durable.read_log(path) == ([{"a": 1}, {"b": 2}], 4)
        assert durable.read_log(tmp_path / "missing.jsonl") == ([], 0)

    def test_tail_log_consumes_complete_lines_only(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text('{"a":"é"}\n{"b":')
        records, offset = durable.tail_log(path, 0)
        assert records == [{"a": "é"}]
        assert offset == len('{"a":"é"}\n'.encode())
        assert durable.tail_log(path, offset) == ([], offset)
        with path.open("a") as fh:
            fh.write('2}\nbroken\n')
        records, offset = durable.tail_log(path, offset)
        assert records == [{"b": 2}]
        assert offset == path.stat().st_size


def test_quarantine_moves_the_file_aside(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert durable.quarantine(bad)
    assert (tmp_path / "quarantine" / "bad.json").read_text() == "{"
    assert not bad.exists()
    assert not durable.quarantine(bad)  # nothing left to move


def test_checkpoint_loses_only_the_torn_job(tmp_path):
    """Job 0 recorded, job 1's line torn by a kill, job 2 recorded by the
    resumed sweep: the reload has 0 and 2 (before the tail repair, job 2
    was glued onto the fragment and lost with it)."""
    jobs = ["a", "b", "c"]
    cp = SweepCheckpoint(tmp_path, jobs)
    cp.record(JobOutcome(0, jobs[0], result=fx.RESULT))
    cp.record(JobOutcome(1, jobs[1], result=fx.RESULT))
    text = cp.path.read_text()
    cp.path.write_text(text[:-40])
    SweepCheckpoint(tmp_path, jobs).record(
        JobOutcome(2, jobs[2], result=fx.RESULT))
    again = SweepCheckpoint(tmp_path, jobs)
    assert sorted(again.load()) == [0, 2]
    assert again.skipped_lines == 1


# --------------------------------------------------------------------------
# Byte identity with the files the commit before repro.durable wrote
# --------------------------------------------------------------------------


@pytest.fixture
def golden(tmp_path):
    """A scratch copy: loading may create directories beside the files."""
    return pathlib.Path(shutil.copytree(GOLDEN, tmp_path / "golden"))


class TestGoldenFiles:
    @pytest.mark.parametrize("kind", sorted(fx.WRITERS))
    def test_rewriting_reproduces_the_bytes(self, kind, tmp_path):
        expected = fx.fixture_files(GOLDEN, kind)
        assert expected, f"no golden {kind} files"
        fx.WRITERS[kind](tmp_path / kind)
        assert fx.fixture_files(tmp_path, kind) == expected

    def test_curve_loads(self, golden):
        cache = AloneReplayCache(golden / "cache")
        cfg = scaled_config()
        assert cache.get(SUITE["QR"], 0, cfg, fx.CURVE_AT[0]) == fx.CURVE_AT[1]
        assert cache.get(SUITE["QR"], 0, cfg, 1010) == 777
        assert cache.quarantined == 0

    def test_store_loads(self, golden):
        store = ResultStore(golden / "store")
        assert [e["seq"] for e in store.index()] == [0, 1]
        loaded = [store.load(e["record_id"]).payload for e in store.index()
                  if e["scenario_name"] == "durable-golden"]
        assert loaded == list(fx.PAYLOADS)

    def test_legacy_tagged_records_still_inspect_and_chart(self, golden,
                                                           capsys):
        # Tagged repro.store.legacy/1, as `repro store import` (removed)
        # wrote them: no entry of the figure table claims that schema.
        from repro.cli import main
        from repro.store import LEGACY_SCHEMA, trajectory

        store = ResultStore(golden / "store")
        rec = store.load("durable-golden@-1")
        assert rec.payload_schema == LEGACY_SCHEMA
        assert main(["inspect", str(store.record_path(rec.record_id))]) == 0
        assert "durable-golden" in capsys.readouterr().out
        assert len(trajectory(store)["durable-golden"]["points"]) == 2
        assert main(["trajectory", "--store", str(store.directory)]) == 0
        assert "2 recordings" in capsys.readouterr().out
        assert main(["summarize", "--store", str(store.directory)]) == 0
        assert "holds no record of a table entry" in capsys.readouterr().out

    def test_checkpoint_loads(self, golden):
        cp = SweepCheckpoint(golden / "ckpt", fx.JOBS)
        assert cp.load() == {0: fx.RESULT, 1: fx.RESULT}
        assert cp.skipped_lines == 0

    def test_journal_recovers(self, golden):
        service = ReproService(golden / "service")
        assert service.jobs[fx.JOB_ID].state == "done"
        assert service.jobs[fx.JOB_ID].tenants == ["alice"]
        assert service.journal_skipped == 0

    def test_bus_channel_loads(self, golden):
        records = read_bus(golden / "bus")
        assert [r["t"] for r in records] == [
            "meta", "job_start", "span", "span", "outcome"]


# --------------------------------------------------------------------------
# Tooling guard
# --------------------------------------------------------------------------

#: What only repro.durable may do: rename over a file, fsync, make a temp
#: file, open for append.
_LEAF_ONLY = re.compile(
    r"""os\.replace\(|os\.fsync\(|mkstemp\(|O_APPEND"""
    r"""|open\([^)]*["']a[bt+]*["']"""
)
#: How no module writes a file: in place, where a failed write leaves it torn.
_PLAIN_WRITE = re.compile(r"""write_text\(|open\([^)]*["']w[bt+]*["']""")

#: Exceptions to the census (none: each job process's stderr capture file
#: has one writer and is truncated, not appended to).
_ALLOWED: set[tuple[str, str]] = set()


def test_one_write_path():
    offences = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == "durable.py":
            continue
        text = path.read_text()
        found = _LEAF_ONLY.findall(text) + _PLAIN_WRITE.findall(text)
        offences += [
            (rel, hit) for hit in found if (rel, hit) not in _ALLOWED
        ]
    assert offences == []
    appenders = [path.relative_to(SRC).as_posix()
                 for path in sorted(SRC.rglob("*.py"))
                 if "O_APPEND" in path.read_text()]
    assert appenders == ["durable.py"]


#: The second results path (``results/<name>.json`` beside the store) and
#: what read it back.  Results have one home: ``record_figure`` → the store.
_SECOND_RESULTS_PATH = re.compile(
    r"save_result|load_result|REPRO_RESULTS_DIR|import_legacy|repro\.analysis")


def test_one_results_path():
    root = SRC.parents[1]
    offences = [
        (path.relative_to(root).as_posix(), hit)
        for top in ("src", "benchmarks", "examples")
        for path in sorted((root / top).rglob("*.py"))
        for hit in _SECOND_RESULTS_PATH.findall(path.read_text())
    ]
    assert offences == []
    assert not (SRC / "analysis.py").exists()
    assert not (SRC / "harness" / "persist.py").exists()
