"""Unit tests for cross-run differential reports (repro.obs.diff)."""

import json

import pytest

from repro.obs.diff import (
    DEFAULT_IGNORE,
    DIFF_SCHEMA,
    diff_paths,
    diff_payloads,
    navigate,
)
from repro.obs.inspect import read_artifact


def test_identical_payloads():
    payload = {"x": 1.0, "nested": {"y": [1, 2, 3], "s": "ok"}}
    res = diff_payloads(payload, json.loads(json.dumps(payload)))
    assert res.identical
    assert res.compared == 5
    assert res.to_dict()["schema"] == DIFF_SCHEMA
    assert "IDENTICAL" in res.render()


def test_numeric_drift_and_tolerance():
    a = {"v": 100.0}
    b = {"v": 101.0}
    res = diff_payloads(a, b)
    assert not res.identical
    d = res.drifts[0]
    assert d.path == "v" and d.note == "value"
    assert d.rel == pytest.approx(1.0 / 101.0)
    # Within tolerance → clean.
    assert diff_payloads(a, b, rel_tol=0.02).identical
    # int-vs-float compares by value, not type.
    assert diff_payloads({"v": 2}, {"v": 2.0}).identical


def test_bool_never_compares_by_tolerance():
    # bool is an int subclass; True vs 1 must still be flagged.
    res = diff_payloads({"ok": True}, {"ok": 1}, rel_tol=1.0)
    assert not res.identical
    assert res.drifts[0].note == "type"
    assert diff_payloads({"ok": True}, {"ok": True}).identical


def test_structural_drift():
    res = diff_payloads({"a": 1, "b": 2}, {"b": 2, "c": 3})
    notes = {d.path: d.note for d in res.drifts}
    assert notes == {"a": "missing-in-b", "c": "missing-in-a"}

    res = diff_payloads({"xs": [1, 2]}, {"xs": [1, 2, 3]})
    assert res.drifts[0].note == "length"
    assert res.drifts[0].path == "xs"

    res = diff_payloads({"x": "s"}, {"x": 3})
    assert res.drifts[0].note == "type"


def test_nested_paths_and_render():
    a = {"workload": {"estimates": {"DASE": [2.0, 1.1]}}}
    b = {"workload": {"estimates": {"DASE": [2.0, 1.3]}}}
    res = diff_payloads(a, b)
    assert res.drifts[0].path == "workload.estimates.DASE[1]"
    rendered = res.render()
    assert "DRIFT" in rendered and "workload.estimates.DASE[1]" in rendered


def test_ignore_keys():
    a = {"ts": 1.0, "cache": {"hits": 3}, "real": 5}
    b = {"ts": 9.0, "cache": {"hits": 0}, "real": 5}
    res = diff_payloads(a, b)  # DEFAULT_IGNORE covers ts and cache
    assert res.identical and res.ignored == 2
    res = diff_payloads(a, b, ignore=frozenset())
    assert {d.path for d in res.drifts} == {"ts", "cache.hits"}
    assert "ts" in DEFAULT_IGNORE and "cache" in DEFAULT_IGNORE


def test_nan_equals_nan():
    assert diff_payloads({"v": float("nan")}, {"v": float("nan")}).identical


def test_navigate():
    payload = {"workload": {"estimates": {"DASE": [2.0, 1.1]}}}
    assert navigate(payload, "workload.estimates.DASE") == [2.0, 1.1]
    assert navigate(payload, "workload.estimates.DASE.1") == 1.1
    assert navigate(payload, "") is payload
    with pytest.raises(ValueError, match="bogus"):
        navigate(payload, "workload.bogus")
    with pytest.raises(ValueError, match="out of range"):
        navigate(payload, "workload.estimates.DASE.7")


def test_read_artifact_kinds(tmp_path, capsys):
    # Directory → its run.json (sweep.json first under prefer="sweep").
    run = tmp_path / "run"
    run.mkdir()
    (run / "run.json").write_text('{"schema": "repro.obs.run/1"}')
    p, payload = read_artifact(run)
    assert p == run / "run.json" and payload["schema"] == "repro.obs.run/1"
    (run / "sweep.json").write_text('{"schema": "repro.obs.sweep/1"}')
    assert read_artifact(run)[1]["schema"] == "repro.obs.run/1"
    assert read_artifact(run, prefer="sweep")[0] == run / "sweep.json"

    # Plain JSON file.
    f = tmp_path / "x.json"
    f.write_text("[1, 2]")
    assert read_artifact(f) == (f, [1, 2])

    # JSONL → its records, torn lines skipped on stderr; diff keys them by
    # record "key", so order does not matter.
    log = tmp_path / "sweep.jsonl"
    log.write_text(
        '{"key": "SD+SB", "ok": true}\n\n{"key": "NN+CS", "ok": true}\n'
    )
    assert [r["key"] for r in read_artifact(log)[1]] == ["SD+SB", "NN+CS"]
    flipped = tmp_path / "flipped.jsonl"
    flipped.write_text(
        '{"key": "NN+CS", "ok": true}\n{"key": "SD+SB", "ok": true}\n{"ke'
    )
    res = diff_paths(log, flipped)
    assert res.identical and res.compared == 4
    assert "1 torn line(s) skipped" in capsys.readouterr().err

    # A directory of bus channels reads only where inspect asks for it.
    bus_dir = tmp_path / "bus"
    bus_dir.mkdir()
    (bus_dir / "bus-1.jsonl").write_text(
        '{"schema": "repro.obs.bus/1", "t": "meta", "pid": 1, "ts": 0}\n'
    )
    assert read_artifact(bus_dir, bus_dirs=True) == (
        bus_dir, [{"schema": "repro.obs.bus/1", "t": "meta", "pid": 1,
                   "ts": 0}])
    with pytest.raises(ValueError, match=r"sweep\.json, or index\.json "):
        read_artifact(bus_dir)
    with pytest.raises(ValueError, match="no run.json"):
        diff_paths(bus_dir, bus_dir)

    # Errors are one-line ValueErrors, not tracebacks.
    with pytest.raises(ValueError, match="does not exist"):
        read_artifact(tmp_path / "nope.json")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ValueError, match="index.json, or bus-"):
        read_artifact(empty, bus_dirs=True)
    (empty / "records").mkdir()
    with pytest.raises(ValueError, match="restore the index"):
        read_artifact(empty)
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(ValueError, match="not valid JSON"):
        read_artifact(bad)


def test_diff_paths_with_only(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(
        {"workload": {"slow": [1.5, 2.0]}, "trace": {"events": 10}}
    ))
    b.write_text(json.dumps(
        {"workload": {"slow": [1.5, 2.0]}, "trace": {"events": 99}}
    ))
    assert not diff_paths(a, b).identical
    res = diff_paths(a, b, only="workload")
    assert res.identical
    assert "workload" in res.path_a


def test_jsonl_diff_pairs_by_key(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    # Same records, different completion order and wall-clock noise.
    a.write_text(
        '{"key": "SD+SB", "ok": true, "ts": 1.0, "index": 0}\n'
        '{"key": "NN+CS", "ok": true, "ts": 2.0, "index": 1}\n'
    )
    b.write_text(
        '{"key": "NN+CS", "ok": true, "ts": 7.0, "index": 0}\n'
        '{"key": "SD+SB", "ok": true, "ts": 9.0, "index": 1}\n'
    )
    assert diff_paths(a, b).identical
    # A log whose writer was killed mid-line compares by what is readable.
    with b.open("a") as fh:
        fh.write('{"key": "QR+CT", "ok": tr')
    capsys.readouterr()
    assert diff_paths(a, b).identical
    assert f"{b}: 1 torn line(s) skipped" in capsys.readouterr().err
    # A flipped outcome is caught.
    b.write_text(
        '{"key": "NN+CS", "ok": false, "ts": 7.0, "index": 0}\n'
        '{"key": "SD+SB", "ok": true, "ts": 9.0, "index": 1}\n'
    )
    res = diff_paths(a, b)
    assert [d.path for d in res.drifts] == ["NN+CS.ok"]


# ---------------------------------------------------- sweep-stats diffing


def _sweep_payload(**over):
    base = {
        "schema": "repro.obs.sweep/1",
        "n_jobs": 4, "ok": 4, "failed": 0, "incomplete": 0, "resumed": 0,
        "wall_s": 10.0, "busy_s": 18.0, "cpu_s": 17.0,
        "parallel_efficiency": 0.9,
        "latency": {"p50": 4.0, "p95": 6.0, "p99": 6.4,
                    "mean": 4.5, "max": 6.5},
        "phases": {"replay": {"count": 8, "total_s": 9.0},
                   "simulate": {"count": 4, "total_s": 8.0}},
        "cache": {"hits": 6, "misses": 2, "stores": 2,
                  "hit_rate": 0.75, "est_saved_s": 5.0},
        "workers": {"101": {"jobs": 4, "busy_s": 18.0, "cpu_s": 17.0,
                            "rss_peak_kb": 40000}},
        "stragglers": [], "failures": [],
    }
    base.update(over)
    return base


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return path


def test_sweep_diff_ignores_wallclock_and_worker_noise(tmp_path):
    # Same sweep re-run: different pids, wall time, efficiency, RSS —
    # none of which is drift between two sweep-stats manifests.  Nor is
    # the per-backend table a manifest from before the one-core change has.
    a = _write(tmp_path / "a.json", _sweep_payload(
        backends={"reference": {"jobs": 4, "total_s": 18.0}}))
    b = _write(tmp_path / "b.json", _sweep_payload(
        wall_s=20.0, busy_s=19.5, cpu_s=18.0, parallel_efficiency=0.5,
        workers={"202": {"jobs": 2, "busy_s": 9.0, "cpu_s": 8.5,
                         "rss_peak_kb": 39000},
                 "203": {"jobs": 2, "busy_s": 10.5, "cpu_s": 9.5,
                         "rss_peak_kb": 41000}},
    ))
    res = diff_paths(a, b, rel_tol=0.2)
    assert res.identical, [d.path for d in res.drifts]


def test_sweep_diff_catches_latency_and_cache_drift(tmp_path):
    a = _write(tmp_path / "a.json", _sweep_payload())
    # p95 regressed 3x and the cache hit rate collapsed: both must trip
    # even though ordinary run diffs ignore the "cache" subtree.
    b = _write(tmp_path / "b.json", _sweep_payload(
        latency={"p50": 4.1, "p95": 18.0, "p99": 19.0,
                 "mean": 7.0, "max": 20.0},
        cache={"hits": 1, "misses": 7, "stores": 7,
               "hit_rate": 0.125, "est_saved_s": 0.4},
    ))
    res = diff_paths(a, b, rel_tol=0.2)
    assert not res.identical
    paths = {d.path for d in res.drifts}
    assert "latency.p95" in paths
    assert "cache.hit_rate" in paths
    assert "latency.p50" not in paths  # within the 20% tolerance


def test_sweep_diff_custom_ignore_disables_auto_switch(tmp_path):
    a = _write(tmp_path / "a.json", _sweep_payload())
    b = _write(tmp_path / "b.json", _sweep_payload(wall_s=99.0))
    # An explicit ignore set is respected verbatim: wall_s now drifts.
    res = diff_paths(a, b, ignore=frozenset({"ts"}))
    assert not res.identical
    assert {d.path for d in res.drifts} == {"wall_s"}


def test_sweep_diff_counts_are_exact(tmp_path):
    a = _write(tmp_path / "a.json", _sweep_payload())
    b = _write(tmp_path / "b.json", _sweep_payload(ok=3, failed=1))
    res = diff_paths(a, b, rel_tol=0.2)
    assert not res.identical
    assert {d.path for d in res.drifts} >= {"ok", "failed"}
