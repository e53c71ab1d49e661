"""Tests for the longitudinal results store: scenario identity,
hash-addressed records, and trajectories."""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.durable import TMP_SWEEP_AGE_S
from repro.figure_table import FIGURE_TABLE
from repro.store import (
    EXTRACTORS,
    INDEX_SCHEMA,
    LEGACY_SCHEMA,
    PAYLOAD_SCHEMAS,
    RECORD_SCHEMA,
    SCENARIOS,
    ResultStore,
    ScenarioSpec,
    canonical_json,
    content_id,
    iter_payloads,
    metrics_of,
    scenario_for,
    trajectory,
)

PAYLOAD = {"combos": ["SD+SB"], "unfairness": {"SD+SB": 2.5}, "sd_alone_bw": 0.4}


def spec(**overrides):
    base = dict(
        name="fig2", kind="unfairness-baseline",
        workloads=(("SD", "SB"),), policy=None, faults=(), arrivals=(),
        seeds=(1, 2), cycles=240_000, params=(("x", 1),),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


# ------------------------------------------------------------ scenario ids


class TestScenarioIdentity:
    def test_same_spec_same_id(self):
        assert spec().scenario_id() == spec().scenario_id()

    def test_id_is_sha256_hex(self):
        sid = spec().scenario_id()
        assert len(sid) == 64
        int(sid, 16)  # must not raise

    def test_canonical_round_trips(self):
        s = spec()
        again = ScenarioSpec.from_canonical(s.canonical())
        assert again == s
        assert again.scenario_id() == s.scenario_id()

    def test_id_of_matches_scenario_id(self):
        s = spec()
        assert ScenarioSpec.id_of(s.canonical()) == s.scenario_id()

    def test_params_order_immaterial(self):
        a = spec(params=(("a", 1), ("b", 2)))
        b = spec(params=(("b", 2), ("a", 1)))
        assert a.scenario_id() == b.scenario_id()

    def test_with_seed(self):
        s = spec().with_seed(9)
        assert s.seeds == (9,)
        assert s.scenario_id() != spec().scenario_id()

    def test_scenario_for_unknown_is_one_line_error(self):
        with pytest.raises(ValueError, match="unknown scenario 'nope'"):
            scenario_for("nope")

    def test_registered_builders_are_deterministic(self):
        for name in SCENARIOS:
            a = scenario_for(name, seed=3)
            b = scenario_for(name, seed=3)
            assert a.scenario_id() == b.scenario_id(), name
            assert a.name == name


# ----------------------------------------------------------- figure table


#: (default run, seed=3 run) scenario ids.  The first nine were computed at
#: the commit before the figure table (what `repro figX --store` recorded
#: there, default scale): they must never move.  fig8a/fig8b changed once,
#: when their specs started listing the pairs actually swept.  table1/table3
#: are pinned from the commit that made them table entries.
RECORDED_IDS = {
    "fig2": (
        "06f6870555b3b64a1e7a4b8c7b451d4a1a14f45e4bcd38cac52210d5393503d8",
        "7fdef15d585d5de0779f0ab4aa7b67ee148fb9ec4b85a84d398eba803a6b2f85",
    ),
    "fig3": (
        "c87d012a503ecdf3c29fea3bd5ae23980b5c0d1d2c5e29bcd1758e691f96ac4c",
        "3d16d9058744cb78d75e19f7cebe86b5ac18711dbc5c724dc700f92043843986",
    ),
    "fig4": (
        "ff1e8793ff0f107fbc73c5fb8da9dbcb0275c21925c837f8961e2e42fa914b08",
        "225df1e8a1fb1dee6d8421a8fd77e5c84dc8c1b592326778773600bee04c8c28",
    ),
    "fig5": (
        "9ab266f0c5647f8f9c381f952642897c27e7080f83520eca97aa1e94ad86eef2",
        "50261d593833a58d14197e8d7469f6df267bf4c3d315a417af7b470ac33574c7",
    ),
    "fig6": (
        "0ae44b54a3524b19bc6667e18d457438a72ef5a730cb95832186ce0eb903cbd3",
        "cea9aed8be45fd90486842b5722c33314975b5c7d7bddee22ee4add50e205df7",
    ),
    "fig7": (
        "32b2e46019428ab54e8db505d699066dc3b070f577c9771a472fa55d13439d58",
        "4848e032627d209709a8ba04efff6a3d321be88c258b5a0af7ad4936c51467d8",
    ),
    "fig9": (
        "49bbc0470ed77619021dddf2890b6fde926af3b7a16376a3b61b15b074b99e88",
        "a10a56c31154f97732919c6849b819cb8a9218edf42fe3d63cf11ee35b814fd2",
    ),
    "fig-degradation": (
        "0e38dcc30238019f237c316a402b48801bd07225af87fb1b27741e94e7e94a7a",
        "8a3fe309f5bcd4bf6d1f6f2a2d94613a53ba66899c1a69625c3a00dc14e686e3",
    ),
    "fig-churn": (
        "d7eb3a0eadb83e0132e4f2fc40d188d1d86d3d7aa1c211fcb3b18f928d56cbab",
        "15c04349c8f932a5b2c3a4f003de9ee89e1309861bf0a506649aca6128414d29",
    ),
    "fig8a": (
        "aa2ebf4ff477c01b296ffa6bf51debf68028b5c6b0338ebf64d10f0214ef7b93",
        "044fde7f71f293c5f105049ea04307d665bedac601f53c8840ec8fc114b3e1a2",
    ),
    "fig8b": (
        "8165f7f6d1b5c5e23b25c66a283b3c2b8b8a8017ef8ccbb509b06c2139f87b5e",
        "2b0e69e5d33873c1bb63a65b6f7bacd05ef68d64e007af5ba1515ef62dd56139",
    ),
    "table1": (
        "215b4bf3ed6ef1be830ed105a6c89e70abd1bec50fb5000a68fb990563c5b18b",
        "2e94c0aad13d6dc8944e7eec3195dbfdc29b1bb440bf76375f7670a71e06492f",
    ),
    "table3": (
        "56276d988e8d7f02302a706cab253b7382d58b992fefd94a1ee664ed0ca55e77",
        "7957fc0280e8a14d1d984721d59f291043ada741a3ff88de8c9411f93a19ead3",
    ),
}


class _Stub:
    """A driver result nothing reads: the table test runs no simulation."""

    def to_dict(self):
        return {}


def _stub_run(monkeypatch, name, **run_kw):
    """run_figure(name) with the driver stubbed out: returns the FigureRun
    and the keyword arguments the driver was called with."""
    import dataclasses

    from repro.harness.figures import run_figure

    calls = []
    monkeypatch.setitem(FIGURE_TABLE, name, dataclasses.replace(
        FIGURE_TABLE[name],
        driver=lambda **kw: calls.append(kw) or _Stub(),
        render=lambda res: "", payload=lambda res: {},
    ))
    run = run_figure(name, **run_kw)
    return run, calls[0]


class TestFigureTable:
    def test_recorded_ids_cover_the_table(self):
        assert set(RECORDED_IDS) == set(FIGURE_TABLE)

    @pytest.mark.parametrize("name", sorted(RECORDED_IDS))
    def test_recorded_scenario_ids_are_pinned(self, name, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        default, seeded = RECORDED_IDS[name]
        assert _stub_run(monkeypatch, name)[0].spec.scenario_id() == default
        assert (_stub_run(monkeypatch, name, seed=3)[0].spec.scenario_id()
                == seeded)

    @pytest.mark.parametrize("full", ["", "1"])
    @pytest.mark.parametrize("name", sorted(FIGURE_TABLE))
    def test_catalog_id_is_the_id_a_default_run_records(
        self, name, full, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FULL", full)
        run, _ = _stub_run(monkeypatch, name)
        assert run.spec == scenario_for(name)
        assert run.spec.scenario_id() == scenario_for(name).scenario_id()

    @pytest.mark.parametrize("full, n_pairs", [("", 3), ("1", 30)])
    @pytest.mark.parametrize("name", ["fig8a", "fig8b"])
    def test_fig8_specs_list_the_pairs_swept(
        self, name, full, n_pairs, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FULL", full)
        run, driver_kw = _stub_run(monkeypatch, name)
        assert len(driver_kw["pairs"]) == n_pairs
        assert run.spec.workloads == tuple(map(tuple, driver_kw["pairs"]))

    @pytest.mark.parametrize("name", sorted(FIGURE_TABLE))
    def test_every_consumer_agrees_with_the_table(self, name):
        from repro.cli import build_parser
        from repro.harness.figures import FIGURES

        fig = FIGURE_TABLE[name]
        assert fig.name == name and fig.help and fig.kind
        for part in (fig.driver, fig.render, fig.extract, fig.inputs,
                     fig.spec, fig.payload):
            assert callable(part)
        assert fig.seed_role in ("config", "fault", "arrival")
        assert (fig.seed_default is None) == (fig.seed_role == "config")
        assert PAYLOAD_SCHEMAS[name] == fig.schema
        assert EXTRACTORS[fig.schema] is fig.extract
        assert scenario_for(name).kind == fig.kind
        assert SCENARIOS[name]() == scenario_for(name)
        assert list(FIGURES) == list(SCENARIOS) == list(PAYLOAD_SCHEMAS) \
            == list(FIGURE_TABLE)
        args = build_parser().parse_args([name])  # the subcommand exists
        assert args.experiment == name
        for arg, _ in fig.args:
            assert getattr(args, arg) is None
        assert hasattr(args, "out") == (fig.report is not None)

    def test_repro_list_shows_every_figure_once(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for name, fig in FIGURE_TABLE.items():
            rows = [ln for ln in lines if ln.split()[:1] == [name]]
            assert len(rows) == 1 and fig.help in rows[0], name

    def test_undeclared_argument_is_a_one_line_error(self):
        with pytest.raises(ValueError, match="fig2 takes no argument 'limit'"):
            scenario_for("fig2", limit=1)

    @pytest.mark.parametrize("name, config_seeded", [
        ("fig3", True), ("fig8b", True),
        ("fig-degradation", False), ("fig-churn", False),
    ])
    def test_provenance_names_the_config_that_ran(
        self, name, config_seeded, monkeypatch, tmp_path
    ):
        # A fault / arrival seed is not the config seed: the run used the
        # default config, and the stored fingerprint must say so.
        from repro.harness import scaled_config
        from repro.harness.figures import record_figure
        from repro.harness.replay_cache import config_fingerprint

        run, driver_kw = _stub_run(monkeypatch, name, seed=7)
        rec, spec = record_figure(str(tmp_path / "store"), run)
        ran_on = scaled_config(seed=7) if config_seeded else scaled_config()
        assert rec.provenance["config_fingerprint"] == \
            config_fingerprint(ran_on)
        assert (driver_kw.get("config") or scaled_config()) == ran_on
        assert spec.seeds == (7,)


# --------------------------------------------------- hypothesis properties


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

seed_lists = st.lists(
    st.integers(min_value=0, max_value=2**31 - 1), min_size=1, max_size=6
)

# One mutation per ScenarioSpec field: each must change the scenario id.
FIELD_MUTATIONS = {
    "name": lambda s: spec(name=s.name + "x"),
    "kind": lambda s: spec(kind=s.kind + "x"),
    "workloads": lambda s: spec(workloads=s.workloads + (("QR",),)),
    "policy": lambda s: spec(policy="dase_fair"),
    "faults": lambda s: spec(faults=s.faults + (0.1,)),
    "arrivals": lambda s: spec(arrivals=s.arrivals + (0.5,)),
    "seeds": lambda s: spec(seeds=s.seeds + (max(s.seeds) + 1,)),
    "cycles": lambda s: spec(cycles=(s.cycles or 0) + 1),
    "params": lambda s: spec(params=s.params + (("zz", 99),)),
}


class TestScenarioIdProperties:
    def test_mutation_table_covers_every_field(self):
        import dataclasses

        assert set(FIELD_MUTATIONS) == {
            f.name for f in dataclasses.fields(ScenarioSpec)
        }

    @pytest.mark.parametrize("field", sorted(FIELD_MUTATIONS))
    def test_id_sensitive_to_field(self, field):
        base = spec()
        mutated = FIELD_MUTATIONS[field](base)
        assert mutated.scenario_id() != base.scenario_id(), field

    @settings(max_examples=50)
    @given(seeds=seed_lists, data=st.data())
    def test_seed_order_immaterial(self, seeds, data):
        shuffled = data.draw(st.permutations(seeds))
        assert (
            spec(seeds=tuple(seeds)).scenario_id()
            == spec(seeds=tuple(shuffled)).scenario_id()
        )

    @settings(max_examples=50)
    @given(seeds=seed_lists, extra=st.integers(min_value=0, max_value=2**31 - 1))
    def test_seed_set_matters_even_reordered(self, seeds, extra):
        hypothesis.assume(extra not in seeds)
        base = spec(seeds=tuple(seeds))
        grown = spec(seeds=(extra,) + tuple(seeds))
        assert base.scenario_id() != grown.scenario_id()


# ------------------------------------------------------------------- store


class TestResultStore:
    def test_record_and_load_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        rec = store.record(spec(), PAYLOAD, PAYLOAD_SCHEMAS["fig2"])
        again = store.load(rec.record_id)
        assert again.payload == PAYLOAD
        assert again.scenario_id == spec().scenario_id()
        assert again.payload_schema == PAYLOAD_SCHEMAS["fig2"]
        assert again.record_id == content_id(
            again.scenario_id, again.payload_schema, again.payload
        )
        # Both ids as the commit before repro.hashing computed them: stores
        # written on either side of it dedup against each other.
        assert again.scenario_id == (
            "58b7709fa3a306feddf9cc7dfde6e84d6b0864357ce1919ba20741b7997bae9c")
        assert again.record_id == (
            "cd6425a2eb82bfd8b3e92e50e8c8c7e4f38a77de16c57e8ce0c1e11bb7ecbf59")

    def test_rerecording_dedups_content_but_logs_both(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        a = store.record(spec(), PAYLOAD, PAYLOAD_SCHEMAS["fig2"])
        b = store.record(spec(), PAYLOAD, PAYLOAD_SCHEMAS["fig2"])
        assert a.record_id == b.record_id
        assert len(list(store.records_dir.glob("*.json"))) == 1
        assert len(store.index()) == 2
        assert [e["seq"] for e in store.index()] == [0, 1]

    def test_load_by_prefix_and_name_at(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        rec = store.record(spec(), PAYLOAD, PAYLOAD_SCHEMAS["fig2"])
        assert store.load(rec.record_id[:8]).record_id == rec.record_id
        assert store.load("fig2@0").record_id == rec.record_id
        assert store.load("fig2@-1").record_id == rec.record_id
        with pytest.raises(ValueError, match="too short"):
            store.load(rec.record_id[:3])
        with pytest.raises(ValueError, match="out of range"):
            store.load("fig2@5")
        with pytest.raises(ValueError, match="no recordings"):
            store.load("fig9@0")

    def test_missing_index_with_records_is_one_line_error(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.record(spec(), PAYLOAD, PAYLOAD_SCHEMAS["fig2"])
        store.index_path.unlink()
        with pytest.raises(ValueError, match="restore the index or re-record"):
            store.index()

    def test_corrupt_index_is_one_line_error(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.directory.mkdir()
        store.index_path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            store.index()

    def test_wrong_index_schema_is_one_line_error(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.directory.mkdir()
        store.index_path.write_text(json.dumps({"schema": "x", "records": []}))
        with pytest.raises(ValueError, match=INDEX_SCHEMA.replace("/", "/")):
            store.index()

    def test_tampered_record_fails_content_hash(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        rec = store.record(spec(), PAYLOAD, PAYLOAD_SCHEMAS["fig2"])
        path = store.record_path(rec.record_id)
        doc = json.loads(path.read_text())
        doc["payload"]["sd_alone_bw"] = 0.9
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="fails its content hash"):
            store.load(rec.record_id)

    def test_empty_store_lists_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.index() == []
        assert store.scenarios() == []

    def test_gc_prunes_and_removes_orphans(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for seed in (1, 2, 3):
            store.record(
                spec().with_seed(seed), {"v": seed}, PAYLOAD_SCHEMAS["fig2"]
            )
        # Orphan: a record file never entered in the index.
        orphan = store.records_dir / ("ab" * 32 + ".json")
        orphan.write_text("{}")
        # Temp files of recorders killed before their rename: the aged ones
        # go, a fresh one may be a concurrent recorder's and stays.
        old = time.time() - TMP_SWEEP_AGE_S - 10
        stale = [store.directory / ".index.json.abc.tmp",
                 store.records_dir / ".deadbeef.json.def.tmp"]
        for tmp in stale:
            tmp.write_text("{")
            os.utime(tmp, (old, old))
        fresh = store.records_dir / ".cafe.json.ghi.tmp"
        fresh.write_text("{")
        stats = store.gc()
        assert stats["orphans_removed"] == 1 and not orphan.exists()
        assert stats["tmp_swept"] == 2 and fresh.exists()
        assert not any(tmp.exists() for tmp in stale)
        assert store.gc()["tmp_swept"] == 0
        # Each seed is its own scenario id, so keep=1 prunes nothing here...
        assert store.gc(keep=1)["pruned"] == 0
        # ...but re-recording one scenario twice then keep=1 drops the older.
        store.record(spec().with_seed(1), {"v": 1}, PAYLOAD_SCHEMAS["fig2"])
        stats = store.gc(keep=1)
        assert stats["pruned"] == 1
        assert [e["seq"] for e in store.index()] == list(range(3))
        with pytest.raises(ValueError, match="keep must be >= 1"):
            store.gc(keep=0)

    def test_iter_payloads_filters_by_scenario(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.record(spec(), PAYLOAD, PAYLOAD_SCHEMAS["fig2"])
        store.record(
            spec(name="fig9", kind="fairness-policy"),
            {"a": 1}, PAYLOAD_SCHEMAS["fig9"],
        )
        assert len(list(iter_payloads(store))) == 2
        only = list(iter_payloads(store, "fig9"))
        assert len(only) == 1
        assert only[0][1].payload == {"a": 1}

    def test_store_path_collision_rejected(self, tmp_path):
        f = tmp_path / "file"
        f.write_text("x")
        with pytest.raises(ValueError, match="not a directory"):
            ResultStore(f)


# ----------------------------------------------------- cross-process bytes


CHILD = """
import sys
from repro.store import PAYLOAD_SCHEMAS, ResultStore, scenario_for
store = ResultStore(sys.argv[1])
rec = store.record(
    scenario_for("fig2", seed=5),
    {"combos": ["SD+SB"], "unfairness": {"SD+SB": 2.0}, "sd_alone_bw": 0.25},
    PAYLOAD_SCHEMAS["fig2"],
)
print(rec.record_id)
"""


class TestCrossProcessStability:
    def test_record_bytes_bit_stable_across_processes(self, tmp_path):
        """Two separate interpreters recording the same scenario+payload
        must produce the same record id and byte-identical record files."""
        ids, blobs = [], []
        for sub in ("a", "b"):
            out = subprocess.run(
                [sys.executable, "-c", CHILD, str(tmp_path / sub)],
                capture_output=True, text=True, check=True,
            )
            store = ResultStore(tmp_path / sub)
            rid = out.stdout.strip()
            ids.append(rid)
            blobs.append(store.record_path(rid).read_bytes())
        assert ids[0] == ids[1]
        # Byte-identical up to the provenance wall-clock stamp: the two
        # children may straddle a second boundary, and created_at is the
        # one deliberately time-dependent field (record_id excludes
        # provenance, so the ids above already prove content identity).
        import re

        mask = rb'"created_at": "[^"]*"'
        assert (re.sub(mask, b'"created_at": "*"', blobs[0])
                == re.sub(mask, b'"created_at": "*"', blobs[1]))
        # And the in-process computation agrees with both children.
        rec = ResultStore(tmp_path / "c").record(
            scenario_for("fig2", seed=5),
            {"combos": ["SD+SB"], "unfairness": {"SD+SB": 2.0},
             "sd_alone_bw": 0.25},
            PAYLOAD_SCHEMAS["fig2"],
        )
        assert rec.record_id == ids[0]

    def test_canonical_json_is_key_order_independent(self):
        assert canonical_json({"b": 1, "a": [2, {"d": 3, "c": 4}]}) == (
            canonical_json({"a": [2, {"c": 4, "d": 3}], "b": 1})
        )


# -------------------------------------------------------------- trajectory


class TestTrajectory:
    def test_metrics_and_series(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for bw in (0.25, 0.30):
            store.record(
                spec(), {"combos": ["SD+SB"],
                         "unfairness": {"SD+SB": 2.0 + bw},
                         "sd_alone_bw": bw},
                PAYLOAD_SCHEMAS["fig2"],
            )
        rec = store.load("fig2@-1")
        m = metrics_of(rec)
        assert m["sd_alone_bw"] == pytest.approx(0.30)
        assert m["unfairness.mean"] == pytest.approx(2.30)
        series = trajectory(store)
        assert list(series) == ["fig2"]
        pts = series["fig2"]["points"]
        assert len(pts) == 2
        assert [p["metrics"]["sd_alone_bw"] for p in pts] == [0.25, 0.30]
        assert series["fig2"]["metrics"]["sd_alone_bw"] == [
            (0, 0.25), (1, 0.30)
        ]

    def test_generic_fallback_for_legacy_payloads(self, tmp_path):
        # What `repro store import` (since removed) wrote: stores that hold
        # such records keep loading and charting them.
        store = ResultStore(tmp_path / "store")
        rec = store.record(
            ScenarioSpec(name="old", kind="legacy-import"),
            {"score": 1.5, "nested": {"x": 2}}, LEGACY_SCHEMA,
            provenance={"imported_from": "old.json"},
        )
        m = metrics_of(store.load("old@-1"))
        assert m == {"score": 1.5}  # top-level numeric scalars only
        assert rec.payload_schema == LEGACY_SCHEMA

    def test_record_schema_constant_matches_disk(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        rec = store.record(spec(), PAYLOAD, PAYLOAD_SCHEMAS["fig2"])
        doc = json.loads(store.record_path(rec.record_id).read_text())
        assert doc["schema"] == RECORD_SCHEMA
