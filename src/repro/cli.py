"""Command-line interface: run any paper experiment by name.

    python -m repro list
    python -m repro table3
    python -m repro fig5 --limit 4
    python -m repro fig5 --jobs 4 --cache-dir results/alone_cache
    python -m repro run SD SB --cycles 120000
    python -m repro trace SD SB --out obs_run --format html,chrome
    python -m repro inspect obs_run
    python -m repro fig2 --store results/store
    python -m repro inspect fig2@-1 --store results/store
    python -m repro diff fig2@0 fig2@1 --store results/store
    REPRO_FULL=1 python -m repro fig9 --jobs 8 --progress
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import durable
from repro.obs.tracer import DEFAULT_CAPACITY


def _cmd_list(args) -> int:
    from repro.figure_table import FIGURE_TABLE
    from repro.obs.report import table

    rows = [
        *((fig.name, fig.help) for fig in FIGURE_TABLE.values()),
        ("run", "run an arbitrary workload: python -m repro run SD SB"),
        ("trace", "record a traced run: python -m repro trace SD SB"),
        ("inspect", "summarize any recorded artifact (kind auto-detected "
                    "from its schema tag)"),
        ("diff", "compare two recorded runs or bus channels field-by-field"),
        ("store", "hash-addressed results store: list/record/gc scenario "
                  "records (inspect/diff read them with --store)"),
        ("trajectory", "cross-run accuracy/fairness/perf series per "
                       "scenario from a results store"),
        ("summarize", "paper vs measured: the table's claims against the "
                      "newest store record of each entry"),
    ]
    print(table(["experiment", "description"], rows))
    return 0


def _cmd_sweeping_fig(args) -> int:
    """An entry whose driver sweeps: the `_add_sweep_flags` flags shape and
    observe every `run_jobs` call it makes.  Entries that run inline have
    none of them and go straight to `_run_fig`."""
    from repro.harness.parallel import set_sweep_defaults, sweep_defaults

    # --sweep-trace enables the cross-worker telemetry bus for every sweep
    # the driver runs; artifacts (trace.json, sweep.json, report.html, and
    # under --profile-sweep the merged pstats) land in the named directory.
    sweep_trace, profile_sweep = args.sweep_trace, args.profile_sweep
    if profile_sweep and not sweep_trace:
        raise SystemExit("--profile-sweep requires --sweep-trace DIR")
    bus_dir = None
    if sweep_trace:
        import pathlib

        bus_dir = str(pathlib.Path(sweep_trace) / "bus")
    # Every sweep flag reaches every run_jobs call the driver makes through
    # the ambient sweep defaults, restored as they were found afterwards.
    # --progress attaches a live reporter — with a bus enabled it also
    # tails the worker channels for straggler warnings (and the bus
    # `outcome` records are the per-job log: key, ok, duration, attempts,
    # cache counters).
    ambient = sweep_defaults()
    if args.progress:
        from repro.obs import SweepProgress

        set_sweep_defaults(
            progress=lambda total: SweepProgress(total, label=args.experiment,
                                                 bus=bus_dir)
        )
    set_sweep_defaults(
        timeout_s=args.timeout,
        retries=args.retries,
        checkpoint_dir=args.resume_dir,
        bus_dir=bus_dir,
        profile=profile_sweep,
    )
    try:
        rc = _run_fig(args, jobs=args.jobs, cache_dir=args.cache_dir)
        if sweep_trace:
            _write_sweep_artifacts(sweep_trace, bus_dir, profile_sweep)
        return rc
    finally:
        set_sweep_defaults(**ambient)
        from repro.obs import bus as obs_bus

        obs_bus.deactivate()


def _run_fig(args, **sweep_kw) -> int:
    # Execution, rendering and scenario identity all live in
    # repro.harness.figures — the same dispatch `repro serve` uses, so the
    # CLI and the service record byte-identical results.
    from repro.figure_table import FIGURE_TABLE
    from repro.harness import figures as fg

    name = args.experiment
    fig = FIGURE_TABLE[name]
    run = fg.run_figure(
        name, seed=args.seed, **sweep_kw,
        **{arg: getattr(args, arg) for arg, _ in fig.args},
    )
    print(run.rendered)
    if getattr(args, "out", None):
        _write_figure_report(args.out, *fig.report, run.result)
    if args.store:
        try:
            rec, spec = fg.record_figure(args.store, run)
        except (ValueError, OSError) as exc:
            raise SystemExit(f"repro {name}: {exc}")
        print(
            f"\nrecorded {name} into {args.store} "
            f"(scenario {spec.scenario_id()[:12]}, "
            f"record {rec.record_id[:12]})",
            file=sys.stderr,
        )
    return 0


def _write_figure_report(out_dir: str, stem: str, export, res) -> None:
    import json
    import pathlib

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    durable.replace_text(
        out / f"{stem}.json",
        json.dumps(res.to_dict(), indent=1, sort_keys=True) + "\n",
    )
    export(out / "report.html", res)
    print(f"\n{stem} artifacts written to {out}/ "
          f"({stem}.json, report.html)", file=sys.stderr)


def _write_sweep_artifacts(out_dir: str, bus_dir: str,
                           profile_sweep: bool) -> None:
    """Aggregate the worker bus channels under ``bus_dir`` into the sweep
    artifacts: Chrome trace, SweepStats JSON, HTML report, and (under
    --profile-sweep) the merged cProfile dump + hot-function table."""
    import json
    import pathlib

    from repro.obs import bus as obs_bus
    from repro.obs.export import export_sweep_trace
    from repro.obs.inspect import summarize_sweep
    from repro.obs.report import export_sweep_report

    records = obs_bus.read_bus(bus_dir)
    if not records:
        print(f"\nno bus records under {bus_dir}; sweep trace skipped "
              "(did the experiment run any sweeps?)", file=sys.stderr)
        return
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = export_sweep_trace(records, out / "trace.json")
    stats = obs_bus.SweepStats.from_records(records)
    durable.replace_text(
        out / "sweep.json",
        json.dumps(stats.to_dict(), indent=1, sort_keys=True) + "\n",
    )
    profile_rows = None
    wrote = ["trace.json", "sweep.json", "report.html"]
    if profile_sweep:
        merged = obs_bus.merge_profiles(bus_dir)
        if merged is not None:
            merged.dump_stats(str(out / "profile.pstats"))
            profile_rows = obs_bus.profile_table(merged, limit=20)
            wrote.append("profile.pstats")
    export_sweep_report(out / "report.html", stats.to_dict(),
                        trace_payload=payload, profile_rows=profile_rows)
    print("\n" + summarize_sweep(stats.to_dict()))
    if profile_rows:
        from repro.obs.report import table

        print("\nsweep-wide hot functions (merged cProfile):")
        print(table(obs_bus.PROFILE_HEADERS, profile_rows))
    print(f"\nsweep observability artifacts written to {out}/ "
          f"({', '.join(wrote)})", file=sys.stderr)


_MODELS = ("DASE", "MISE", "ASM")


def _check_run_args(args) -> tuple[str, ...]:
    """One-line errors for the apps and estimators of ``run`` and
    ``trace``; returns the ``--models`` list (empty entries dropped)."""
    from repro.workloads import APP_NAMES

    for a in args.apps:
        if a not in APP_NAMES:
            raise SystemExit(f"unknown app {a!r}; choose from {APP_NAMES}")
    models = tuple(m for m in args.models.split(",") if m)
    for m in models:
        if m not in _MODELS:
            raise SystemExit(
                f"unknown model {m!r}; choose from {', '.join(_MODELS)}")
    return models


def _cmd_run(args) -> int:
    from repro.harness import run_workload
    from repro.obs.report import pct, table

    models = _check_run_args(args)
    res = run_workload(args.apps, shared_cycles=args.cycles, models=models,
                       profile_path=args.profile)
    if args.profile:
        print(f"profile written to {args.profile} "
              f"(inspect: python -m pstats {args.profile})", file=sys.stderr)
    rows = []
    for i, name in enumerate(res.names):
        row = [name, res.sm_partition[i]]
        values = [res.actual_slowdowns[i]]
        values += [res.estimates[m][i] for m in models]
        for v in values:
            row.append("-" if v is None else f"{v:.2f}")
        rows.append(row)
    print(table(["app", "SMs", "actual"] + list(models), rows))
    if res.present_slowdowns:
        print(f"\nunfairness {res.actual_unfairness:.2f}   "
              f"H-speedup {res.actual_hspeedup:.3f}")
    else:  # no app retired an instruction in the window
        print("\nunfairness -   H-speedup -")
    for m in models:
        err = pct(res.mean_error(m)) if res.errors(m) else "-"
        print(f"{m} mean error: {err}")
    return 0


def _cmd_trace(args) -> int:
    import json
    import pathlib

    from repro.harness import run_workload
    from repro.obs import (
        Observation,
        export_chrome_trace,
        export_events_csv,
        export_html_report,
    )
    from repro.obs.inspect import run_manifest, summarize_run

    models = _check_run_args(args)
    formats = [f for f in args.format.split(",") if f]
    for f in formats:
        if f not in ("chrome", "csv", "html"):
            raise SystemExit(
                f"unknown trace format {f!r}; choose from chrome,csv,html"
            )

    obs = Observation(trace_capacity=args.trace_capacity, audit=args.audit)

    # --policy dase-fair runs the real scheduler (it migrates SMs);
    # --audit alone attaches the dry-run shadow scheduler, which evaluates
    # and audits every interval but never migrates, so the audited run
    # stays bit-identical to a plain one.
    policy = None
    if args.policy == "dase-fair" or args.audit:
        from repro.harness import scaled_config
        from repro.policies import DASEFairPolicy

        policy = DASEFairPolicy(
            scaled_config(), dry_run=args.policy != "dase-fair"
        )
    res = run_workload(args.apps, shared_cycles=args.cycles, models=models,
                       policy=policy, trace=obs)

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {}
    exports = {"chrome": "trace.json", "csv": "events.csv",
               "html": "report.html"}
    for fmt in formats:
        target = out / exports[fmt]
        if fmt == "chrome":
            export_chrome_trace(obs.tracer, target)
        elif fmt == "csv":
            export_events_csv(obs.tracer, target)
        else:
            export_html_report(target, obs, res, "+".join(res.names))
        files[fmt] = exports[fmt]
    if obs.audit is not None:
        from repro.obs import export_audit_json

        export_audit_json(obs.audit, out / "audit.json")
        files["audit"] = "audit.json"
    manifest = run_manifest(obs, res, files)
    durable.replace_text(
        out / "run.json", json.dumps(manifest, indent=1, sort_keys=True)
    )
    print(summarize_run(manifest))
    hints = []
    if "html" in files:
        hints.append("open report.html in a browser")
    if "chrome" in files:
        hints.append("load trace.json in https://ui.perfetto.dev")
    tail = f" ({'; '.join(hints)})" if hints else ""
    print(f"\nrecorded run written to {out}/{tail}")
    return 0


def _cmd_inspect(args) -> int:
    import json

    from repro.obs import inspect_path
    from repro.obs.inspect import inspect_json

    if args.payload and args.store is None:
        raise SystemExit("repro inspect: --payload needs --store DIR")
    prefer = "sweep" if args.sweep else None
    try:
        if args.payload:
            print(_open_store(args).export_payload(args.path), end="")
        elif args.json:
            print(json.dumps(inspect_json(args.path, prefer=prefer,
                                          store=args.store),
                             indent=1, sort_keys=True))
        else:
            print(inspect_path(args.path, prefer=prefer, store=args.store))
    except (ValueError, OSError) as exc:
        raise SystemExit(f"repro inspect: {exc}")
    return 0


def _cmd_diff(args) -> int:
    import json

    from repro.obs.diff import DEFAULT_IGNORE, diff_paths

    ignore = (
        frozenset(k for k in args.ignore.split(",") if k)
        if args.ignore is not None
        else DEFAULT_IGNORE
    )
    try:
        res = diff_paths(args.a, args.b, rel_tol=args.rel_tol,
                         ignore=ignore, only=args.only, store=args.store)
    except (ValueError, OSError) as exc:
        raise SystemExit(f"repro diff: {exc}")
    if args.json:
        print(json.dumps(res.to_dict(), indent=1, sort_keys=True))
    else:
        print(res.render())
    return 0 if res.identical else 1


def _open_store(args):
    from repro.store import ResultStore

    return ResultStore(args.store)


def _cmd_store_list(args) -> int:
    import json

    from repro.obs.report import table
    from repro.store.records import scenario_table

    try:
        store = _open_store(args)
        rows = store.scenarios()
    except (ValueError, OSError) as exc:
        raise SystemExit(f"repro store: {exc}")
    if args.json:
        print(json.dumps({"scenarios": rows}, indent=1, sort_keys=True))
        return 0
    if not rows:
        print(f"store {args.store} holds no recordings")
        return 0
    print(table(*scenario_table(rows)))
    return 0


def _cmd_store_record(args) -> int:
    import json

    from repro.store import PAYLOAD_SCHEMAS, scenario_for

    try:
        with open(args.payload) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"repro store: {exc}")
    schema = args.schema or PAYLOAD_SCHEMAS.get(args.scenario)
    if schema is None:
        raise SystemExit(
            f"repro store: no payload schema registered for scenario "
            f"{args.scenario!r}; pass --schema"
        )
    try:
        spec = scenario_for(args.scenario, seed=args.seed)
        rec = _open_store(args).record(spec, payload, schema)
    except (ValueError, OSError) as exc:
        raise SystemExit(f"repro store: {exc}")
    print(f"recorded {args.scenario} → record {rec.record_id[:12]} "
          f"(scenario {rec.scenario_id[:12]})")
    return 0


def _cmd_store_gc(args) -> int:
    try:
        stats = _open_store(args).gc(keep=args.keep)
    except (ValueError, OSError) as exc:
        raise SystemExit(f"repro store: {exc}")
    print(f"gc: {stats['entries']} index entries kept, "
          f"{stats['pruned']} pruned, "
          f"{stats['orphans_removed']} orphan record files removed, "
          f"{stats['tmp_swept']} stale temp files swept")
    return 0


def _cmd_trajectory(args) -> int:
    import json

    from repro.store import (
        export_trajectory_report,
        trajectory,
        trajectory_table,
    )

    try:
        store = _open_store(args)
        if args.json:
            print(json.dumps(trajectory(store, args.scenario),
                             indent=1, sort_keys=True))
        else:
            print(trajectory_table(store, args.scenario))
        if args.html:
            export_trajectory_report(
                args.html, store, scenario=args.scenario,
                bench_path=args.bench,
            )
            print(f"\ntrajectory dashboard written to {args.html}",
                  file=sys.stderr)
    except (ValueError, OSError) as exc:
        raise SystemExit(f"repro trajectory: {exc}")
    return 0


def _cmd_serve(args) -> int:
    from repro.service import ReproService

    try:
        service = ReproService(
            args.state_dir, store_dir=args.store, cache_dir=args.cache_dir,
            host=args.host, port=args.port, jobs=args.jobs,
            policy=args.policy, retries=args.retries,
            allow_chaos=args.allow_chaos,
        )
        url = service.start()
    except (ValueError, OSError) as exc:
        raise SystemExit(f"repro serve: {exc}")
    if service.journal_skipped:
        print(f"repro serve: journal: skipped {service.journal_skipped} "
              "unreadable record(s)", file=sys.stderr)
    print(f"repro serve: listening on {url} "
          f"(state {args.state_dir}, policy {args.policy}, "
          f"jobs {service.n_jobs or 'auto'}, slots {service.slots})",
          file=sys.stderr, flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
    return 0


def _build_submission(args) -> tuple[str, dict]:
    """Turn `repro submit` flags into a (kind, spec) pair."""
    chosen = [bool(args.apps), args.scenario is not None,
              args.workloads is not None]
    if sum(chosen) != 1:
        raise SystemExit(
            "repro submit: choose exactly one of APPS..., --scenario, "
            "or --workloads"
        )
    opts = {"cycles": args.cycles, "seed": args.seed, "policy": args.policy}
    if args.scenario is not None:
        from repro.store import SCENARIOS

        ref = args.scenario
        spec = {"seed": args.seed}
        if args.limit is not None:
            spec["params"] = {"limit": args.limit}
        if ref in SCENARIOS:
            spec["name"] = ref
        else:
            spec["id"] = ref
        return "scenario", spec
    if args.workloads is not None:
        workloads = [
            [a for a in group.split("+") if a]
            for group in args.workloads.split(",") if group
        ]
        return "sweep", dict(opts, workloads=workloads)
    return "workload", dict(opts, apps=list(args.apps))


def _cmd_submit(args) -> int:
    import json

    from repro.service import ServiceClient, ServiceError

    kind, spec = _build_submission(args)
    try:
        client = ServiceClient(args.url, state_dir=args.state_dir,
                               timeout_s=args.timeout)
        receipt = client.submit(kind, spec, tenant=args.tenant)
    except (ServiceError, ValueError, OSError) as exc:
        raise SystemExit(f"repro submit: {exc}")
    job_id = receipt["job"]
    print(f"repro submit: job {job_id[:12]} "
          f"({'deduped' if receipt['deduped'] else 'queued'})",
          file=sys.stderr)
    if args.no_wait:
        print(json.dumps(receipt, indent=1, sort_keys=True))
        return 0
    try:
        for event in client.stream(job_id):
            print(f"repro submit: {json.dumps(event, sort_keys=True)}",
                  file=sys.stderr)
        status = client.status(job_id)
    except (ServiceError, OSError) as exc:
        raise SystemExit(f"repro submit: {exc}")
    print(json.dumps(status, indent=1, sort_keys=True))
    return 0 if status["status"] == "done" else 1


def _add_sweep_flags(fp: argparse.ArgumentParser) -> None:
    """The flags of an entry whose driver sweeps (``FigureDef.sweeps``),
    read by ``_cmd_sweeping_fig``.  An entry that runs inline would ignore
    every one of them, so it does not get them."""
    from repro.figure_table import (
        non_negative_int,
        positive_float,
        positive_int,
    )

    fp.add_argument("--jobs", type=positive_int, default=None,
                    help="worker processes for the sweep (default: one "
                         "process, each job's private alone replays "
                         "overlapped on spare CPUs; --jobs 1 forces a "
                         "single process)")
    fp.add_argument("--cache-dir", default=None,
                    help="directory for the on-disk alone-replay cache "
                         "(default: $REPRO_CACHE_DIR, else no caching)")
    fp.add_argument("--progress", action="store_true",
                    help="live per-job progress (ETA, jobs/s, cache "
                         "hits) on stderr for every sweep")
    fp.add_argument("--timeout", type=positive_float, default=None,
                    metavar="S",
                    help="per-job wall-clock timeout in seconds: "
                         "jobs run in worker processes (one, without "
                         "--jobs) and a hung worker is killed "
                         "(default: none)")
    fp.add_argument("--retries", type=non_negative_int, default=0,
                    metavar="N",
                    help="retry failed/crashed/timed-out sweep jobs up "
                         "to N times with exponential backoff "
                         "(default: 0)")
    fp.add_argument("--resume-dir", default=None, metavar="DIR",
                    help="checkpoint completed jobs under DIR so an "
                         "interrupted sweep resumes instead of "
                         "restarting (see docs/parallel-harness.md)")
    fp.add_argument("--sweep-trace", default=None, metavar="DIR",
                    help="record a cross-worker telemetry bus for every "
                         "sweep and write trace.json (Perfetto), "
                         "sweep.json (SweepStats), and report.html "
                         "under DIR (see docs/observability.md)")
    fp.add_argument("--profile-sweep", action="store_true",
                    help="cProfile every sweep job and merge the dumps "
                         "into DIR/profile.pstats plus a hot-function "
                         "table (requires --sweep-trace)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="DASE reproduction — run paper experiments from the CLI",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(
        func=_cmd_list
    )

    from repro.figure_table import (
        FIGURE_TABLE,
        non_negative_int,
        positive_float,
        positive_int,
    )

    for fig in FIGURE_TABLE.values():
        fp = sub.add_parser(fig.name, help=fig.help)
        if fig.sweeps:
            _add_sweep_flags(fp)
        fp.add_argument("--store", default=None, metavar="DIR",
                        help="record the typed result payload into the "
                             "hash-addressed results store under DIR "
                             "(see docs/results-store.md)")
        fp.add_argument("--seed", type=int, default=None,
                        help=f"{fig.seed_role} seed (default: the driver's); "
                             "part of the scenario id under --store")
        for arg, kwargs in fig.args:
            fp.add_argument("--" + arg.replace("_", "-"), **kwargs)
        if fig.report is not None:
            fp.add_argument("--out", default=None, metavar="DIR",
                            help=f"also write {fig.report[0]}.json and "
                                 "report.html under DIR")
        fp.set_defaults(func=_cmd_sweeping_fig if fig.sweeps else _run_fig,
                        experiment=fig.name)

    rn = sub.add_parser("run", help="run an arbitrary workload")
    rn.add_argument("apps", nargs="+", help="suite app names, e.g. SD SB")
    rn.add_argument("--cycles", type=positive_int, default=None)
    rn.add_argument("--models", default=",".join(_MODELS),
                    help="comma-separated estimators (empty for none)")
    rn.add_argument("--profile", default=None, metavar="PATH",
                    help="dump cProfile stats for the run to PATH "
                         "(see docs/performance.md)")
    rn.set_defaults(func=_cmd_run)

    sv = sub.add_parser(
        "serve", help="run the job-service daemon: local HTTP API with a "
                      "fairness-aware admission queue (see docs/service.md)"
    )
    sv.add_argument("--state-dir", required=True, metavar="DIR",
                    help="daemon state: journal, checkpoints, bus, replay "
                         "cache, endpoint file (restart with the same DIR "
                         "to resume interrupted jobs)")
    sv.add_argument("--host", default="127.0.0.1",
                    help="bind address (default: 127.0.0.1)")
    sv.add_argument("--port", type=int, default=0,
                    help="bind port (default: 0 — ephemeral; the chosen "
                         "port lands in DIR/endpoint.json)")
    sv.add_argument("--store", default=None, metavar="DIR",
                    help="record scenario results into the hash-addressed "
                         "store under DIR (same records as `repro fig* "
                         "--store`)")
    sv.add_argument("--cache-dir", default=None, metavar="DIR",
                    help="alone-replay cache shared by all jobs "
                         "(default: DIR/cache under --state-dir)")
    sv.add_argument("--jobs", type=positive_int, default=None,
                    help="worker processes per admitted request, served "
                         "one request at a time (default: one request per "
                         "usable CPU at a time, each in a process of its "
                         "own; a request admitted while another slot is "
                         "idle overlaps its alone replays with its shared "
                         "runs in helper processes, one admitted while "
                         "every other slot is busy replays them itself; "
                         "--jobs 1 forces one single-process request at a "
                         "time)")
    sv.add_argument("--policy", choices=("fair", "fifo"), default="fair",
                    help="admission policy: 'fair' minimizes max/min "
                         "tenant slowdown, 'fifo' is arrival order "
                         "(default: fair)")
    sv.add_argument("--retries", type=non_negative_int, default=0,
                    metavar="N",
                    help="retry failed sweep jobs up to N times "
                         "(default: 0)")
    sv.add_argument("--allow-chaos", action="store_true",
                    help="accept 'chaos' submissions (test rigs only)")
    sv.set_defaults(func=_cmd_serve)

    sm = sub.add_parser(
        "submit", help="submit a job to a running `repro serve` daemon and "
                       "stream its events (see docs/service.md)"
    )
    sm.add_argument("apps", nargs="*",
                    help="suite app names for a single workload, e.g. SD SB")
    sm.add_argument("--scenario", default=None, metavar="NAME_OR_ID",
                    help="registered scenario name (fig2, fig9, ...) or a "
                         "scenario id prefix from GET /v1/scenarios")
    sm.add_argument("--workloads", default=None, metavar="W1,W2",
                    help="sweep spec: comma-separated '+'-joined app "
                         "groups, e.g. SD+SB,NN+VA")
    sm.add_argument("--url", default=None,
                    help="daemon URL (default: read from --state-dir)")
    sm.add_argument("--state-dir", default=None, metavar="DIR",
                    help="running daemon's state dir (reads endpoint.json)")
    sm.add_argument("--tenant", default="default",
                    help="tenant name for fairness accounting "
                         "(default: 'default')")
    sm.add_argument("--cycles", type=positive_int, default=None,
                    help="shared-run horizon in cycles")
    sm.add_argument("--seed", type=int, default=None,
                    help="simulation seed")
    sm.add_argument("--policy", default=None,
                    help="SM-allocation policy for workload/sweep jobs")
    sm.add_argument("--limit", type=positive_int, default=None,
                    help="scenario sweep limit (fig5/fig6/fig7)")
    sm.add_argument("--timeout", type=positive_float, default=600.0,
                    metavar="S",
                    help="client HTTP timeout per request (default: 600)")
    sm.add_argument("--no-wait", action="store_true",
                    help="print the receipt and exit without streaming")
    sm.set_defaults(func=_cmd_submit)

    tr = sub.add_parser(
        "trace",
        help="record a fully traced run and export trace + report + manifest",
    )
    tr.add_argument("apps", nargs="+", help="suite app names, e.g. SD SB")
    tr.add_argument("--cycles", type=positive_int, default=None)
    tr.add_argument("--models", default=",".join(_MODELS),
                    help="comma-separated estimators (empty for none)")
    tr.add_argument("--out", default="obs_run", metavar="DIR",
                    help="output directory (default: obs_run)")
    tr.add_argument("--format", default="chrome,csv,html",
                    help="comma-separated exports: chrome,csv,html "
                         "(default: all)")
    tr.add_argument("--trace-capacity", type=positive_int,
                    default=DEFAULT_CAPACITY, metavar="EVENTS",
                    help=f"event ring capacity (default: {DEFAULT_CAPACITY}; "
                         "oldest events drop once full)")
    tr.add_argument("--audit", action="store_true",
                    help="record model/decision audits (audit.json + "
                         "error & decision timelines in the HTML report); "
                         "attaches a dry-run shadow scheduler unless "
                         "--policy selects a real one — the audited run "
                         "stays bit-identical to a plain one")
    tr.add_argument("--policy", choices=("none", "dase-fair"),
                    default="none",
                    help="SM-allocation policy for the shared run "
                         "(default: none; dase-fair migrates SMs)")
    tr.set_defaults(func=_cmd_trace)

    ins = sub.add_parser(
        "inspect", help="summarize any recorded artifact — run/sweep "
                        "manifests, audit dumps, diff verdicts, bus "
                        "channels, store records/indexes, Chrome traces; "
                        "the kind is auto-detected from the embedded "
                        "schema tag"
    )
    ins.add_argument("path", help="artifact file or directory (run dir, "
                                  "store dir, bus dir, run.json, "
                                  "sweep.json, audit.json, index.json, "
                                  "bus-*.jsonl, trace.json, ...); with "
                                  "--store, a record id prefix or "
                                  "scenario@N, e.g. fig2@-1")
    ins.add_argument("--store", default=None, metavar="DIR",
                     help="read PATH as a record reference in the results "
                          "store under DIR")
    shown = ins.add_mutually_exclusive_group()
    shown.add_argument("--json", action="store_true",
                       help="emit the machine-readable inspection payload")
    shown.add_argument("--payload", action="store_true",
                       help="emit only the record's figure payload "
                            "(indent=1, sorted keys: the --out "
                            "DIR/<stem>.json format; needs --store)")
    ins.add_argument("--sweep", action="store_true",
                     help="when PATH is a directory holding both run.json "
                          "and sweep.json, prefer the sweep stats")
    ins.set_defaults(func=_cmd_inspect)

    df = sub.add_parser(
        "diff", help="field-by-field comparison of two recorded runs "
                     "(run dirs / run.json manifests / JSONL record logs / "
                     "sweep.json stats — latency + cache-hit drift); "
                     "exit 0 = identical, 1 = drift"
    )
    df.add_argument("a", help="run dir, run.json, .jsonl record log, or "
                              "JSON; with --store, a record id prefix or "
                              "scenario@N")
    df.add_argument("b", help="same kinds as A")
    df.add_argument("--store", default=None, metavar="DIR",
                    help="read A and B as record references in the results "
                         "store under DIR (provenance and record_id are "
                         "then ignored by default)")
    df.add_argument("--rel-tol", type=float, default=0.0, metavar="F",
                    help="relative tolerance for numeric leaves "
                         "(default: 0 — exact)")
    df.add_argument("--only", default=None, metavar="PATH",
                    help="restrict to a dotted sub-path, e.g. "
                         "workload.estimates, workload.estimates.DASE.0 "
                         "or payload.unfairness")
    df.add_argument("--ignore", default=None, metavar="K1,K2",
                    help="comma-separated keys to skip (default: volatile "
                         "bookkeeping: ts,duration_s,done,index,cache,files)")
    df.add_argument("--json", action="store_true",
                    help="emit the machine-readable diff verdict")
    df.set_defaults(func=_cmd_diff)

    st = sub.add_parser(
        "store", help="hash-addressed results store: list, record and gc "
                      "scenario records; `repro inspect`/`repro diff "
                      "--store DIR` read them (see docs/results-store.md)"
    )
    stsub = st.add_subparsers(dest="store_command", required=True)

    def _store_common(sp):
        sp.add_argument("--store", default="results/store", metavar="DIR",
                        help="store directory (default: results/store)")

    sl = stsub.add_parser("list", help="one row per recorded scenario")
    _store_common(sl)
    sl.add_argument("--json", action="store_true",
                    help="emit the machine-readable scenario table")
    sl.set_defaults(func=_cmd_store_list)

    sr = stsub.add_parser(
        "record", help="record a JSON payload file under a registered "
                       "scenario identity"
    )
    _store_common(sr)
    sr.add_argument("--scenario", required=True,
                    help="registered scenario name (fig2, fig9, ...)")
    sr.add_argument("--payload", required=True, metavar="FILE",
                    help="JSON payload file to record")
    sr.add_argument("--schema", default=None, metavar="TAG",
                    help="payload schema tag (default: the scenario's "
                         "registered schema)")
    sr.add_argument("--seed", type=int, default=None,
                    help="simulation seed the payload was produced with")
    sr.set_defaults(func=_cmd_store_record)

    sg = stsub.add_parser(
        "gc", help="remove orphan record files; --keep N prunes each "
                   "scenario to its newest N recordings"
    )
    _store_common(sg)
    sg.add_argument("--keep", type=positive_int, default=None, metavar="N",
                    help="keep only the newest N recordings per scenario")
    sg.set_defaults(func=_cmd_store_gc)

    tj = sub.add_parser(
        "trajectory", help="cross-run accuracy/fairness/perf series per "
                           "scenario from a results store (text table + "
                           "HTML dashboard)"
    )
    tj.add_argument("--store", default="results/store", metavar="DIR",
                    help="store directory (default: results/store)")
    tj.add_argument("--scenario", default=None,
                    help="restrict to one scenario name or id")
    tj.add_argument("--html", default=None, metavar="PATH",
                    help="also render the self-contained HTML dashboard "
                         "to PATH")
    tj.add_argument("--bench", default="BENCH_trajectory.json",
                    metavar="PATH",
                    help="benchmark perf history to fold into the "
                         "dashboard (default: BENCH_trajectory.json)")
    tj.add_argument("--json", action="store_true",
                    help="emit the machine-readable trajectory series")
    tj.set_defaults(func=_cmd_trajectory)

    sm = sub.add_parser(
        "summarize", help="paper vs measured: every claim of the figure "
                          "table against the newest store record of its "
                          "entry; exit 1 when a claim fails"
    )
    _store_common(sm)
    sm.set_defaults(func=_cmd_summarize)
    return p


def _cmd_summarize(args) -> int:
    from repro.harness.figures import claim_rows
    from repro.obs.report import render_claims

    try:
        rows = claim_rows(args.store)
    except (ValueError, OSError) as exc:
        raise SystemExit(f"repro summarize: {exc}")
    if not rows:
        print(f"store {args.store} holds no record of a table entry with "
              "claims — run e.g. `repro fig5 --store DIR` or "
              "`pytest benchmarks/test_figures.py --benchmark-only`")
        return 0
    print(render_claims(rows))
    return 1 if any(row[-1] != "ok" for row in rows) else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.time()
    rc = args.func(args)
    print(f"\n[{time.time() - t0:.1f}s]", file=sys.stderr)
    return rc


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
