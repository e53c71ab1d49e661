"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list_runs(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig5" in out and "table3" in out


def test_table1(capsys):
    assert main(["table1", "--apps", "2"]) == 0
    out = capsys.readouterr().out
    assert "ATD" in out and "per partition" in out


def test_tables_are_table_entries(tmp_path, capsys):
    # table1/table3 take the flags every entry takes, and record.
    store = str(tmp_path / "store")
    assert main(["table1", "--store", store]) == 0
    assert main(["table3", "--cycles", "1500", "--seed", "3",
                 "--store", store]) == 0
    out = capsys.readouterr().out
    assert "Table 3" in out and "1500 cycles" in out
    from repro.store import ResultStore

    t1, t3 = (ResultStore(store).load(f"{name}@-1")
              for name in ("table1", "table3"))
    assert t1.payload["apps"] == 4 and t1.payload_schema == "repro.store.table1/1"
    assert t3.scenario["cycles"] == 1500 and t3.scenario["seeds"] == [3]
    assert set(t3.payload) == {"cycles", "paper", "measured", "alpha", "ipc"}


def test_run_unknown_app_rejected():
    with pytest.raises(SystemExit):
        main(["run", "NOPE"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_fig_parsers_accept_limit():
    args = build_parser().parse_args(["fig5", "--limit", "3"])
    assert args.limit == 3
    assert args.experiment == "fig5"


def test_limit_is_rejected_where_it_would_be_ignored(capsys):
    # Only fig5/6/7 sweep a limitable workload list.
    for fig in ("fig2", "fig9", "fig-churn"):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([fig, "--limit", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --limit" in capsys.readouterr().err
    for fig in ("fig5", "fig6", "fig7"):
        assert build_parser().parse_args([fig, "--limit", "1"]).limit == 1
    # Nor is there a core to choose: the simulator has one.
    for argv in (["run", "SD", "SB"], ["fig5"], ["trace", "SD", "--out", "t"],
                 ["submit", "SD", "SB"]):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--backend", "reference"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err
    # And a sweep has at least one process, as `repro serve` insists too.
    for argv in (["fig5", "--jobs", "-3"], ["fig9", "--jobs", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--jobs: must be >= 1, got" in capsys.readouterr().err
    # The sweep flags shape run_jobs: an entry that runs inline (fig3, fig4,
    # the tables) used to accept and ignore every one of them.
    for flag in (["--jobs", "2"], ["--cache-dir", "c"], ["--progress"],
                 ["--timeout", "0.01"], ["--retries", "3"],
                 ["--resume-dir", "d"], ["--sweep-trace", "t"],
                 ["--profile-sweep"]):
        for fig in ("fig3", "fig4", "table1", "table3"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([fig] + flag)
            assert exc.value.code == 2
            assert (f"unrecognized arguments: {flag[0]}"
                    in capsys.readouterr().err)
        assert build_parser().parse_args(["fig2"] + flag)
    # One per-job stream, the bus `outcome` records: no second JSONL log.
    for fig in ("fig3", "fig5"):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([fig, "--sweep-log", "s.jsonl"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --sweep-log" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["store", "import", "old.json"])
    assert exc.value.code == 2 and "invalid choice" in capsys.readouterr().err


def test_timeout_applies_whatever_jobs_says(capsys):
    # Without --jobs the sweep used to run inline and ignore the timeout.
    assert main(["fig5", "--limit", "1", "--timeout", "0.01"]) == 0
    assert "FAILED workloads: SD+SB" in capsys.readouterr().out


def test_fig_parsers_accept_jobs_and_cache_dir():
    args = build_parser().parse_args(
        ["fig5", "--limit", "2", "--jobs", "4", "--cache-dir", "/tmp/c"]
    )
    assert args.jobs == 4
    assert args.cache_dir == "/tmp/c"
    # default: inline execution, cache from $REPRO_CACHE_DIR only
    args = build_parser().parse_args(["fig9"])
    assert args.jobs is None and args.cache_dir is None


def test_run_parser_has_no_trace_flags(capsys):
    # `repro trace` is the recorder; `repro run` only runs.
    for flag in (["--trace", "t.json"], ["--trace-format", "html"]):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["run", "SD", "SB"] + flag)
        assert exc.value.code == 2
    args = build_parser().parse_args(["run", "SD", "SB"])
    assert not hasattr(args, "trace") and not hasattr(args, "trace_format")


def test_trace_parser_defaults():
    args = build_parser().parse_args(["trace", "SD", "SB"])
    assert args.apps == ["SD", "SB"]
    assert args.out == "obs_run"
    assert args.format == "chrome,csv,html"
    assert args.models == "DASE,MISE,ASM"


def test_fig_parsers_accept_progress_flags():
    args = build_parser().parse_args(["fig5", "--progress"])
    assert args.progress is True
    assert not hasattr(args, "sweep_log")


def test_inspect_requires_path():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["inspect"])


def test_list_includes_obs_commands(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "trace" in out and "inspect" in out


@pytest.mark.slow
def test_trace_inspect_end_to_end(tmp_path, capsys):
    out_dir = str(tmp_path / "obs_run")
    rc = main([
        "trace", "SD", "SB", "--cycles", "15000", "--models", "DASE",
        "--out", out_dir,
    ])
    assert rc == 0
    for name in ("trace.json", "events.csv", "report.html", "run.json"):
        assert (tmp_path / "obs_run" / name).is_file()
    out = capsys.readouterr().out
    assert "workload: SD+SB" in out
    assert main(["inspect", out_dir]) == 0
    assert "workload: SD+SB" in capsys.readouterr().out


@pytest.mark.slow
def test_trace_chrome_format_writes_only_the_trace(tmp_path, capsys):
    rc = main([
        "trace", "SD", "SB", "--cycles", "15000", "--models", "DASE",
        "--format", "chrome", "--out", str(tmp_path),
    ])
    assert rc == 0
    import json

    payload = json.loads((tmp_path / "trace.json").read_text())
    assert payload["traceEvents"]
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "run.json", "trace.json"]


@pytest.mark.parametrize("capacity", ["0", "-5"])
def test_trace_capacity_below_one_is_a_one_line_error(tmp_path, capsys,
                                                      capacity):
    with pytest.raises(SystemExit) as exc:
        main(["trace", "SD", "SB", "--trace-capacity", capacity,
              "--out", str(tmp_path / "t")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--trace-capacity: must be >= 1, got {capacity}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "t").exists()


def test_run_shorter_than_one_interval_prints_no_estimates(tmp_path, capsys):
    # 2000 cycles < interval_cycles: no estimation interval completes, so
    # every estimate is missing ("-") instead of an IndexError.
    assert main(["run", "SD", "SB", "--cycles", "2000",
                 "--models", "DASE"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:4]
    assert [r.split()[0] for r in rows] == ["SD", "SB"]
    assert all(r.split()[-1] == "-" for r in rows)
    out = str(tmp_path / "short")
    assert main(["trace", "SD", "SB", "--cycles", "2000", "--models",
                 "DASE", "--out", out]) == 0
    capsys.readouterr()
    assert main(["inspect", out]) == 0
    rows = [r.split() for r in capsys.readouterr().out.splitlines()
            if r.startswith(("SD ", "SB "))]
    assert [r[3:] for r in rows] == [["-"], ["-"]]


def test_run_where_an_app_retires_nothing_prints_no_actual(capsys):
    # None of QR's first bursts has retired by cycle 1000: it has no alone
    # replay and no actual slowdown, and SB's row is unaffected.
    assert main(["run", "QR", "SB", "--cycles", "1000",
                 "--models", "DASE"]) == 0
    rows = [r.split() for r in capsys.readouterr().out.splitlines()[2:4]]
    assert rows[0] == ["QR", "8", "-", "-"]
    assert rows[1][0] == "SB" and rows[1][2] != "-"


@pytest.mark.parametrize("command", ["run", "trace"])
@pytest.mark.parametrize("cycles", ["0", "-5"])
def test_cycles_below_one_is_a_one_line_error(tmp_path, capsys, command,
                                              cycles):
    out = tmp_path / "t"
    extra = ["--out", str(out)] if command == "trace" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "SD", "SB", "--cycles", cycles, *extra])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--cycles: must be >= 1, got {cycles}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_a_sweeping_command_restores_the_ambient_sweep_defaults(
        monkeypatch):
    # --progress is one of the ambient sweep defaults: set with the others
    # for the figure's run, and restored with them, not cleared.
    from repro import cli
    from repro.harness.parallel import set_default_progress, sweep_defaults

    during = []
    monkeypatch.setattr(
        cli, "_run_fig",
        lambda args, **kw: during.append(sweep_defaults()) or 0)

    def factory(total):
        return None

    set_default_progress(factory)
    try:
        before = sweep_defaults()
        assert main(["fig5", "--progress", "--retries", "2"]) == 0
        assert during[0]["progress"] not in (None, factory)
        assert during[0]["retries"] == 2
        assert sweep_defaults() == before
        assert before["progress"] is factory
    finally:
        set_default_progress(None)


@pytest.mark.parametrize("argv, message", [
    (["submit", "SD", "SB", "--cycles", "0"], "--cycles: must be >= 1, got 0"),
    (["submit", "--scenario", "fig5", "--limit", "0"],
     "--limit: must be >= 1, got 0"),
    (["submit", "SD", "--timeout", "0"], "--timeout: must be > 0, got 0"),
    (["submit", "SD", "--timeout", "-2"], "--timeout: must be > 0, got -2"),
    (["store", "gc", "--keep", "0"], "--keep: must be >= 1, got 0"),
])
def test_submit_and_gc_counts_are_argparse_errors(tmp_path, capsys, argv,
                                                  message):
    # `submit --limit 0` used to be refused only by the daemon it reached.
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--store", str(tmp_path / "s")]
                     if argv[0] == "store" else
                     ["--url", "http://127.0.0.1:9"]))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines()[-1].endswith(message)
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "trace"])
@pytest.mark.parametrize("models", ["FOO", ","])
def test_models_flag_is_parsed_once_for_run_and_trace(tmp_path, capsys,
                                                      command, models):
    out = tmp_path / "t"
    extra = ["--out", str(out)] if command == "trace" else []
    argv = [command, "SD", "SB", "--cycles", "2000", "--models", models,
            *extra]
    if models == "FOO":
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value) == ("unknown model 'FOO'; "
                                  "choose from DASE, MISE, ASM")
        assert not out.exists()
        return
    # Empty names are dropped: the run attaches no estimator.
    assert main(argv) == 0
    if command == "run":
        assert capsys.readouterr().out.split("\n")[0].split() == [
            "app", "SMs", "actual"]
    else:
        import json

        manifest = json.loads((out / "run.json").read_text())
        assert manifest["workload"]["estimates"] == {}


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_limit_below_one_is_an_argparse_error(capsys, limit):
    # 0 used to sweep every pair and -1 to drop the last one.
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["fig5", "--limit", limit])
    assert exc.value.code == 2
    assert f"--limit: must be >= 1, got {limit}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["fig2", "--jobs", "-3"], ["fig2", "--jobs", "0"],
    ["serve", "--state-dir", "s", "--jobs", "0"],
    ["serve", "--state-dir", "s", "--jobs", "-1"],
])
def test_jobs_below_one_is_an_argparse_error(capsys, argv):
    # `repro serve --jobs 0` used to give one slot with no error.
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines()[-1].endswith(
        f"--jobs: must be >= 1, got {argv[-1]}")


@pytest.mark.parametrize("argv, message", [
    (["fig2", "--retries", "-1"], "--retries: must be >= 0, got -1"),
    (["serve", "--state-dir", "s", "--retries", "-2"],
     "--retries: must be >= 0, got -2"),
    (["fig2", "--timeout", "0"], "--timeout: must be > 0, got 0"),
    (["fig5", "--timeout", "-1.5"], "--timeout: must be > 0, got -1.5"),
    (["fig9", "--timeout", "nan"], "--timeout: must be > 0, got nan"),
])
def test_negative_retries_and_non_positive_timeouts_are_argparse_errors(
        capsys, argv, message):
    # They used to reach the handler (fig) or start a daemon (serve).
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines()[-1].endswith(message)
    assert "Traceback" not in err


@pytest.mark.parametrize("rates", ["0", "-1", "0.5,0"])
def test_non_positive_rate_is_an_argparse_error(capsys, rates):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["fig-churn", "--rates", rates])
    assert exc.value.code == 2
    assert "--rates: must be > 0" in capsys.readouterr().err
    # A noise intensity of 0 is a valid point of the degradation curve.
    args = build_parser().parse_args(["fig-degradation", "--sigmas", "0,0.1"])
    assert args.sigmas == (0.0, 0.1)


@pytest.mark.parametrize("sigmas", ["-1", "nan", "0,-0.5", "inf"])
def test_negative_or_non_finite_sigma_is_an_argparse_error(capsys, sigmas):
    with pytest.raises(SystemExit) as exc:
        main(["fig-degradation", f"--sigmas={sigmas}"])
    assert exc.value.code == 2
    assert "--sigmas: must be finite and >= 0" in capsys.readouterr().err


def test_inspect_unrecognized_file_fails(tmp_path):
    junk = tmp_path / "junk.json"
    junk.write_text("[]")
    with pytest.raises(SystemExit):
        main(["inspect", str(junk)])


def test_inspect_missing_and_corrupt_fail_with_one_line_message(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["inspect", str(tmp_path / "nope")])
    msg = str(exc.value)
    assert msg.startswith("repro inspect:") and "\n" not in msg

    corrupt = tmp_path / "run.json"
    corrupt.write_text("{broken")
    with pytest.raises(SystemExit) as exc:
        main(["inspect", str(tmp_path)])
    msg = str(exc.value)
    assert "not valid JSON" in msg and "\n" not in msg


def test_trace_parser_audit_and_policy_flags():
    args = build_parser().parse_args(["trace", "SD", "SB", "--audit"])
    assert args.audit is True and args.policy == "none"
    args = build_parser().parse_args(
        ["trace", "SD", "SB", "--policy", "dase-fair"]
    )
    assert args.policy == "dase-fair" and args.audit is False
    with pytest.raises(SystemExit):
        build_parser().parse_args(["trace", "SD", "SB", "--policy", "bogus"])


def test_diff_parser_flags():
    args = build_parser().parse_args(
        ["diff", "a", "b", "--rel-tol", "0.01", "--only",
         "workload.estimates", "--json"]
    )
    assert args.a == "a" and args.b == "b"
    assert args.rel_tol == 0.01
    assert args.only == "workload.estimates"
    assert args.json is True


def test_diff_missing_input_fails_with_one_line_message(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["diff", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
    msg = str(exc.value)
    assert msg.startswith("repro diff:") and "\n" not in msg


def test_diff_cli_verdicts(tmp_path, capsys):
    import json

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"x": 1.0, "y": [1, 2]}))
    b.write_text(json.dumps({"x": 1.0, "y": [1, 2]}))
    assert main(["diff", str(a), str(b)]) == 0
    assert "IDENTICAL" in capsys.readouterr().out

    b.write_text(json.dumps({"x": 1.5, "y": [1, 2]}))
    assert main(["diff", str(a), str(b)]) == 1
    assert "DRIFT" in capsys.readouterr().out

    assert main(["diff", str(a), str(b), "--json"]) == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["schema"] == "repro.obs.diff/1"
    assert verdict["identical"] is False
    assert verdict["drift"][0]["path"] == "x"


@pytest.mark.slow
def test_trace_audit_end_to_end(tmp_path, capsys):
    import json

    out_dir = str(tmp_path / "obs_run")
    rc = main([
        "trace", "SD", "SB", "--cycles", "24000", "--models", "DASE",
        "--audit", "--out", out_dir, "--format", "html",
    ])
    assert rc == 0
    audit_payload = json.loads(
        (tmp_path / "obs_run" / "audit.json").read_text()
    )
    assert audit_payload["schema"] == "repro.obs.audit/1"
    assert audit_payload["summary"]["model_records"] > 0
    assert audit_payload["summary"]["decision_records"] > 0
    html = (tmp_path / "obs_run" / "report.html").read_text()
    assert "relative error per interval" in html
    assert "DASE-Fair decision timeline" in html
    manifest = json.loads((tmp_path / "obs_run" / "run.json").read_text())
    assert manifest["audit"]["model_records"] > 0
    assert manifest["files"]["audit"] == "audit.json"
    out = capsys.readouterr().out
    assert "audit:" in out


@pytest.mark.slow
def test_run_workload_end_to_end(capsys):
    rc = main(["run", "QR", "CT", "--cycles", "30000", "--models", "DASE"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "unfairness" in out
    assert "QR" in out and "CT" in out
    assert "DASE mean error" in out


def test_fig_parsers_accept_sweep_trace_flags():
    args = build_parser().parse_args(
        ["fig5", "--limit", "1", "--sweep-trace", "/tmp/st",
         "--profile-sweep"]
    )
    assert args.sweep_trace == "/tmp/st"
    assert args.profile_sweep is True
    args = build_parser().parse_args(["fig5"])
    assert args.sweep_trace is None and args.profile_sweep is False


def test_profile_sweep_requires_sweep_trace():
    with pytest.raises(SystemExit, match="requires --sweep-trace"):
        main(["fig5", "--limit", "1", "--profile-sweep"])


def _small_sweep_artifacts(tmp_path, profile=False):
    """Produce real sweep artifacts cheaply: a ChaosJob sweep through
    run_jobs with the bus on, then the CLI artifact writer."""
    from repro.cli import _write_sweep_artifacts
    from repro.faults import ChaosJob
    from repro.harness.parallel import run_jobs

    out = tmp_path / "sweep"
    bus_dir = out / "bus"
    jobs = [ChaosJob(name=f"j{i}", payload=i) for i in range(3)]
    outs = run_jobs(jobs, n_jobs=1, bus=bus_dir, profile=profile)
    assert all(o.ok for o in outs)
    _write_sweep_artifacts(str(out), str(bus_dir), profile)
    return out


def test_sweep_artifacts_and_inspect_sweep(tmp_path, capsys):
    out = _small_sweep_artifacts(tmp_path, profile=True)
    assert (out / "trace.json").is_file()
    assert (out / "sweep.json").is_file()
    assert (out / "report.html").is_file()
    assert (out / "profile.pstats").is_file()
    capsys.readouterr()

    assert main(["inspect", str(out), "--sweep"]) == 0
    text = capsys.readouterr().out
    assert "3 jobs, 3 ok, 0 failed" in text
    assert "job latency" in text and "p95" in text

    assert main(["inspect", str(out / "sweep.json")]) == 0
    assert "3 jobs" in capsys.readouterr().out

    # So does a manifest from before the one-core change, which carries a
    # per-backend table.
    import json as _json

    old = _json.loads((out / "sweep.json").read_text())
    old["backends"] = {"reference": {"jobs": 2, "total_s": 1.5},
                       "vectorized": {"jobs": 1, "total_s": 0.9}}
    (tmp_path / "old_sweep.json").write_text(_json.dumps(old))
    assert main(["inspect", str(tmp_path / "old_sweep.json")]) == 0
    assert "3 jobs" in capsys.readouterr().out

    assert main(["inspect", str(out), "--sweep", "--json"]) == 0
    payload = _json.loads(capsys.readouterr().out)
    assert payload["kind"] == "sweep"
    assert payload["n_jobs"] == 3

    # One channel file inspects as a bus summary — also when its writer
    # was killed mid-line, as `inspect <bus dir>` always did.
    (channel,) = (out / "bus").glob("bus-*.jsonl")
    assert main(["inspect", str(channel)]) == 0
    whole = capsys.readouterr()
    assert whole.out.startswith("bus: ") and "torn" not in whole.err
    channel.write_text(channel.read_text()[:-20])
    assert main(["inspect", str(channel)]) == 0
    torn = capsys.readouterr()
    assert torn.out.startswith("bus: ")
    assert "1 torn line(s) skipped" in torn.err


def test_diff_two_sweep_manifests_cli(tmp_path, capsys):
    import json as _json

    a = _small_sweep_artifacts(tmp_path / "a")
    # The same sweep re-run elsewhere: only wall-clock and worker noise
    # differ, and the auto-applied sweep ignore set skips all of it.
    payload = _json.loads((a / "sweep.json").read_text())
    payload["wall_s"] = payload["wall_s"] + 100.0
    payload["workers"] = {"999": {"jobs": 3, "busy_s": 1.0, "cpu_s": 1.0,
                                  "rss_peak_kb": 1}}
    b = tmp_path / "b.json"
    b.write_text(_json.dumps(payload))
    assert main(["diff", str(a / "sweep.json"), str(b)]) == 0

    # But a failure-count regression is drift (exit code 1).
    payload["ok"], payload["failed"] = 2, 1
    b.write_text(_json.dumps(payload))
    assert main(["diff", str(a / "sweep.json"), str(b)]) == 1


# ------------------------------------------------------------------- store


def test_store_parser_flags():
    p = build_parser()
    args = p.parse_args(["store", "list"])
    assert args.store_command == "list" and args.store == "results/store"
    args = p.parse_args(["inspect", "fig2@-1", "--store", "/tmp/s",
                         "--payload"])
    assert args.path == "fig2@-1" and args.store == "/tmp/s"
    assert args.payload is True and args.json is False
    assert p.parse_args(["inspect", "run_dir"]).store is None
    args = p.parse_args(
        ["store", "record", "--scenario", "fig2", "--payload", "p.json",
         "--seed", "7"]
    )
    assert args.scenario == "fig2" and args.seed == 7
    args = p.parse_args(["store", "gc", "--keep", "3"])
    assert args.keep == 3
    args = p.parse_args(
        ["diff", "fig2@0", "fig2@1", "--store", "/tmp/s", "--rel-tol", "0.01"]
    )
    assert args.a == "fig2@0" and args.b == "fig2@1"
    assert args.store == "/tmp/s" and args.rel_tol == 0.01
    for gone in (["store", "show", "fig2@-1"],
                 ["store", "diff", "fig2@0", "fig2@1"],
                 ["inspect", "fig2@-1", "--store", "/tmp/s", "--json",
                  "--payload"]):
        with pytest.raises(SystemExit):
            p.parse_args(gone)
    args = p.parse_args(["trajectory", "--html", "t.html"])
    assert args.html == "t.html" and args.store == "results/store"
    assert args.bench == "BENCH_trajectory.json"


def test_fig_parsers_accept_store_and_seed():
    p = build_parser()
    for fig in ("fig2", "fig5", "fig9", "fig-degradation", "fig-churn"):
        args = p.parse_args([fig, "--store", "/tmp/s"])
        assert args.store == "/tmp/s", fig
        assert hasattr(args, "seed"), fig
    assert p.parse_args(["fig2"]).store is None
    assert p.parse_args(["fig2", "--seed", "9"]).seed == 9


def test_store_cli_end_to_end(tmp_path, capsys):
    import json as _json

    store_dir = str(tmp_path / "store")
    payload = {"combos": ["SD+SB"], "unfairness": {"SD+SB": 2.5},
               "sd_alone_bw": 0.4}
    pfile = tmp_path / "payload.json"
    pfile.write_text(_json.dumps(payload))

    assert main(["store", "list", "--store", store_dir]) == 0
    assert "holds no recordings" in capsys.readouterr().out

    assert main(["store", "record", "--store", store_dir,
                 "--scenario", "fig2", "--payload", str(pfile),
                 "--seed", "1"]) == 0
    assert "recorded fig2" in capsys.readouterr().out

    assert main(["store", "list", "--store", store_dir]) == 0
    out = capsys.readouterr().out
    assert "fig2" in out and "repro.store.fig2/1" in out

    assert main(["inspect", "fig2@-1", "--store", store_dir]) == 0
    out = capsys.readouterr().out
    assert "fig2" in out and "scenario" in out

    assert main(["inspect", "fig2@-1", "--store", store_dir,
                 "--payload"]) == 0
    exported = capsys.readouterr().out
    assert _json.loads(exported) == payload
    assert exported == _json.dumps(payload, indent=1, sort_keys=True) + "\n"

    assert main(["inspect", "fig2@-1", "--store", store_dir, "--json"]) == 0
    shown = _json.loads(capsys.readouterr().out)
    assert shown["kind"] == "store-record" and shown["payload"] == payload

    # --payload reads a store record, nothing else; a bad reference is the
    # one-line error contract.
    for argv in (["inspect", store_dir, "--payload"],
                 ["inspect", "fig9@0", "--store", store_dir],
                 ["inspect", "fig9@0", "--store", store_dir, "--payload"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        msg = str(exc.value)
        assert msg.startswith("repro inspect:") and "\n" not in msg, argv

    assert main(["store", "gc", "--store", store_dir]) == 0
    assert "0 orphan" in capsys.readouterr().out


def test_summarize_checks_the_newest_record_against_the_claims(tmp_path,
                                                               capsys):
    import json as _json

    store_dir = str(tmp_path / "store")
    assert main(["summarize", "--store", store_dir]) == 0
    assert "holds no record of a table entry" in capsys.readouterr().out

    pfile = tmp_path / "p.json"

    def record(name, payload):
        pfile.write_text(_json.dumps(payload))
        assert main(["store", "record", "--store", store_dir,
                     "--scenario", name, "--payload", str(pfile)]) == 0

    record("fig5", {"mean_error": {"DASE": 0.07, "MISE": 0.35, "ASM": 0.33}})
    record("fig3", {"correlation": 0.999,
                    "points": [[1.0, 0.1], [2.0, 0.2]]})
    capsys.readouterr()
    assert main(["summarize", "--store", store_dir]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["entry", "claim", "paper", "measured",
                                "wanted", "verdict"]
    rows = [ln.split() for ln in lines[2:]]
    # Table order, every claim of each recorded entry, nothing else.
    assert [r[0] for r in rows] == ["fig3"] * 2 + ["fig5"] * 5
    assert rows[2] == ["fig5", "dase-error", "8.8%", "7.0%", "<", "15.0%",
                       "ok"]

    # The newest record decides, and a failed claim is the exit code.
    record("fig5", {"mean_error": {"DASE": 0.20, "MISE": 0.35, "ASM": 0.33}})
    capsys.readouterr()
    assert main(["summarize", "--store", store_dir]) == 1
    failed = [ln.split()[1] for ln in capsys.readouterr().out.splitlines()
              if ln.endswith("FAILED")]
    assert failed == ["dase-error", "dase-below-half-mise",
                      "dase-below-half-asm"]

    (tmp_path / "store" / "index.json").write_text("{broken")
    with pytest.raises(SystemExit) as exc:
        main(["summarize", "--store", store_dir])
    msg = str(exc.value)
    assert msg.startswith("repro summarize:") and "\n" not in msg


def test_store_diff_cli_verdicts(tmp_path, capsys):
    import json as _json

    store_dir = str(tmp_path / "store")
    pfile = tmp_path / "p.json"
    for unf in (2.5, 2.5, 3.5):
        pfile.write_text(_json.dumps({"combos": ["SD+SB"],
                                      "unfairness": {"SD+SB": unf}}))
        assert main(["store", "record", "--store", store_dir,
                     "--scenario", "fig2", "--payload", str(pfile),
                     "--seed", "1"]) == 0
    capsys.readouterr()

    # Identical recordings diff clean even though provenance differs:
    # the store ignore set skips provenance and record_id.
    assert main(["diff", "fig2@0", "fig2@1", "--store", store_dir]) == 0
    out = capsys.readouterr().out
    assert "IDENTICAL" in out and "  a: fig2@0\n" in out

    # A perturbed payload is drift (exit code 1).
    assert main(["diff", "fig2@0", "fig2@2", "--store", store_dir]) == 1
    assert "DRIFT" in capsys.readouterr().out

    # --only labels and narrows both sides; an explicit --ignore replaces
    # the store default, so the content hash drifts too.
    assert main(["diff", "fig2@0", "fig2@2", "--store", store_dir,
                 "--only", "payload.unfairness", "--json"]) == 1
    verdict = _json.loads(capsys.readouterr().out)
    assert verdict["a"] == "fig2@0 :: payload.unfairness"
    assert [d["path"] for d in verdict["drift"]] == ["SD+SB"]
    assert main(["diff", "fig2@0", "fig2@2", "--store", store_dir,
                 "--ignore", "ts", "--json"]) == 1
    drifting = {d["path"] for d in
                _json.loads(capsys.readouterr().out)["drift"]}
    assert {"record_id", "payload.unfairness.SD+SB"} <= drifting

    # Unknown reference: the one-line error contract.
    with pytest.raises(SystemExit) as exc:
        main(["diff", "fig2@0", "fig9@0", "--store", store_dir])
    msg = str(exc.value)
    assert msg.startswith("repro diff:") and "\n" not in msg


def test_store_corrupt_and_missing_index_one_line(tmp_path, capsys):
    import json as _json

    store_dir = tmp_path / "store"

    # Corrupt index: every store entry point reports one line, exit 1.
    store_dir.mkdir()
    (store_dir / "index.json").write_text("{broken")
    for argv in (
        ["store", "list", "--store", str(store_dir)],
        ["inspect", str(store_dir)],
        ["diff", str(store_dir), str(store_dir)],
        ["trajectory", "--store", str(store_dir)],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        msg = str(exc.value)
        assert "not valid JSON" in msg and "\n" not in msg, argv

    # Missing index but records present: same contract.
    (store_dir / "index.json").unlink()
    records = store_dir / "records"
    records.mkdir()
    (records / ("ab" * 32 + ".json")).write_text("{}")
    for argv in (
        ["store", "list", "--store", str(store_dir)],
        ["diff", str(store_dir), str(store_dir)],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        msg = str(exc.value)
        assert "restore the index or re-record" in msg and "\n" not in msg


def test_inspect_autodetects_store_artifacts(tmp_path, capsys):
    import json as _json

    store_dir = str(tmp_path / "store")
    pfile = tmp_path / "p.json"
    pfile.write_text(_json.dumps({"combos": ["SD+SB"],
                                  "unfairness": {"SD+SB": 2.0},
                                  "sd_alone_bw": 0.3}))
    assert main(["store", "record", "--store", store_dir,
                 "--scenario", "fig2", "--payload", str(pfile),
                 "--seed", "1"]) == 0
    capsys.readouterr()

    # A store directory inspects as its index.
    assert main(["inspect", store_dir]) == 0
    out = capsys.readouterr().out
    assert "store" in out and "fig2" in out

    # A single record file inspects as a record summary with metrics.
    from repro.store import ResultStore

    rec = ResultStore(store_dir).load("fig2@-1")
    rec_path = ResultStore(store_dir).record_path(rec.record_id)
    assert main(["inspect", str(rec_path)]) == 0
    out = capsys.readouterr().out
    assert "fig2" in out and "unfairness.mean" in out

    # The same payload as `--backend vectorized` recorded it before the
    # one-core change: it keeps the ids it had there, loads and inspects.
    store = ResultStore(store_dir)
    old = store.record(dict(rec.scenario, backend="vectorized"), rec.payload,
                       rec.payload_schema)
    assert old.scenario_id.startswith("22d7752c7456")
    assert old.record_id.startswith("e91257c893ee")
    assert store.load("fig2@-1").scenario["backend"] == "vectorized"
    assert main(["inspect", str(store.record_path(old.record_id))]) == 0
    assert "backend: vectorized" in capsys.readouterr().out


def test_trajectory_cli_table_json_and_html(tmp_path, capsys):
    import json as _json

    store_dir = str(tmp_path / "store")
    pfile = tmp_path / "p.json"
    for bw in (0.25, 0.30):
        pfile.write_text(_json.dumps({"combos": ["SD+SB"],
                                      "unfairness": {"SD+SB": 2.0},
                                      "sd_alone_bw": bw}))
        assert main(["store", "record", "--store", store_dir,
                     "--scenario", "fig2", "--payload", str(pfile),
                     "--seed", "1"]) == 0
    capsys.readouterr()

    assert main(["trajectory", "--store", store_dir]) == 0
    out = capsys.readouterr().out
    assert "fig2" in out and "sd_alone_bw" in out

    assert main(["trajectory", "--store", store_dir, "--json"]) == 0
    series = _json.loads(capsys.readouterr().out)
    assert len(series["fig2"]["points"]) == 2

    html = tmp_path / "traj.html"
    assert main(["trajectory", "--store", store_dir,
                 "--html", str(html)]) == 0
    text = html.read_text()
    assert "<svg" in text and "fig2" in text


@pytest.mark.slow
def test_fig3_store_recording_end_to_end(tmp_path, capsys):
    """`repro fig3 --store` routes the driver's payload through the
    registry; same scenario + seed → identical record id (zero drift)."""
    store_dir = str(tmp_path / "store")
    for _ in range(2):
        assert main(["fig3", "--store", store_dir, "--seed", "1"]) == 0
    capsys.readouterr()
    assert main(["diff", "fig3@0", "fig3@1", "--store", store_dir]) == 0
    assert "IDENTICAL" in capsys.readouterr().out
    from repro.store import ResultStore

    store = ResultStore(store_dir)
    a, b = (e["record_id"] for e in store.index())
    assert a == b


class TestEmptyInitializedStore:
    """An empty-but-initialized store dir (e.g. a touched index.json) is
    "no records", not an error: friendly line, exit 0."""

    @staticmethod
    def _empty_store(tmp_path):
        store = tmp_path / "store"
        (store / "records").mkdir(parents=True)
        (store / "index.json").touch()  # zero bytes: initialized, empty
        return str(store)

    def test_store_list_empty_initialized(self, tmp_path, capsys):
        store = self._empty_store(tmp_path)
        assert main(["store", "list", "--store", store]) == 0
        assert "holds no recordings" in capsys.readouterr().out

    def test_trajectory_empty_initialized(self, tmp_path, capsys):
        store = self._empty_store(tmp_path)
        assert main(["trajectory", "--store", store]) == 0
        assert "holds no recordings" in capsys.readouterr().out

    def test_corrupt_index_still_one_line_error(self, tmp_path):
        store = tmp_path / "store"
        (store / "records").mkdir(parents=True)
        (store / "index.json").write_text("{this is not json")
        with pytest.raises(SystemExit, match="corrupt"):
            main(["store", "list", "--store", str(store)])


class TestServeSubmitParsers:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--state-dir", "/tmp/s"])
        assert args.policy == "fair" and args.port == 0
        # No --jobs: run_jobs' own default (docs/service.md).
        assert args.jobs is None and not args.allow_chaos

    def test_serve_requires_state_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_submit_parser_builds_specs(self):
        from repro.cli import _build_submission

        args = build_parser().parse_args(
            ["submit", "SD", "SB", "--cycles", "24000", "--tenant", "a"]
        )
        kind, spec = _build_submission(args)
        assert kind == "workload"
        assert spec["apps"] == ["SD", "SB"] and spec["cycles"] == 24000

        args = build_parser().parse_args(
            ["submit", "--workloads", "SD+SB,NN+VA"]
        )
        kind, spec = _build_submission(args)
        assert kind == "sweep"
        assert spec["workloads"] == [["SD", "SB"], ["NN", "VA"]]

        args = build_parser().parse_args(["submit", "--scenario", "fig2"])
        kind, spec = _build_submission(args)
        assert kind == "scenario" and spec["name"] == "fig2"

        args = build_parser().parse_args(["submit", "--scenario", "ab12cd34"])
        kind, spec = _build_submission(args)
        assert kind == "scenario" and spec["id"] == "ab12cd34"

    def test_submit_requires_exactly_one_target(self):
        args = build_parser().parse_args(["submit"])
        from repro.cli import _build_submission

        with pytest.raises(SystemExit, match="exactly one"):
            _build_submission(args)
        args = build_parser().parse_args(
            ["submit", "SD", "--scenario", "fig2"]
        )
        with pytest.raises(SystemExit, match="exactly one"):
            _build_submission(args)
