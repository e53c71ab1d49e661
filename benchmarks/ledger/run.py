"""Layered performance ledger: one command, four workloads, one traced run.

    python benchmarks/ledger/run.py [--seed N] [--workload NAME] [--trace]
                                    [--out FILE] [--quick] [--repeat-check]

With ``--workload`` this is the driver's entry point: it sets the workload
up, repeats its pass for ``--seconds`` seconds, checks the outputs and
prints, as the last line of stdout, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` — every end-to-end
metric of BENCHMARK.json with ``--trace 0``, every per-layer metric with
``--trace 1``.  Without ``--workload`` it runs itself once per workload
(untraced, then traced with ``--trace``) and prints every metric by name.

All host times are *calibrated seconds* (see calibrate.py); raw seconds are
printed beside them.  Simulated statistics are marked as such: the model
has no hardware reference in-tree, so they are unvalidated against hardware.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

LEDGER = pathlib.Path(__file__).resolve().parent
ROOT = LEDGER.parent.parent
sys.path.insert(0, str(LEDGER))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import trace as tr  # noqa: E402 - the ledger's trace.py, not the stdlib's

DETAIL_TAG = "ledger-detail "
#: Simulated statistics come from these first passes only, so they repeat
#: exactly however many passes the time budget allows.
FULL_MIN_PASSES = 2
#: Set-up is repeated until this many are done or this much time is spent.
SETUP_REPEATS = 5
SETUP_BUDGET_S = 3.0
#: Runs per workload in each of --repeat-check's two sets: a single run is
#: off by more than a bound about once in a hundred, a median of three is not.
REPEAT_RUNS = 3


def load_spec() -> dict:
    with (ROOT / "BENCHMARK.json").open() as fh:
        return json.load(fh)


def quartile(values: list[float], q: int) -> float:
    """Inclusive quartile ``q`` (1..3); a lone sample is its own quartile."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[q - 1]


def sim_digest(jobs) -> str:
    """sha256 over what the simulator produced: instructions, alone cycles
    and estimates of every delivered result."""
    rows = sorted(
        (j.key, j.result["instructions"], j.result["alone_cycles"],
         j.result["estimates"])
        for j in jobs if j.result
    )
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def model_error_pct(jobs, model: str) -> float:
    """Mean |estimate − actual| / actual of ``model`` over delivered apps,
    against the simulator's own alone-replay ground truth, in percent."""
    errs = []
    for j in jobs:
        if not j.result:
            continue
        for est, act in zip(j.result["estimates"].get(model, ()),
                            j.result["actual_slowdowns"]):
            if est is not None and act:
                errs.append(abs(est - act) / act)
    return 100.0 * statistics.fmean(errs) if errs else 0.0


def peak_rss_mb() -> float:
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


# ------------------------------------------------------------- one workload


class Run:
    """One workload, set up, measured, checked and torn down."""

    def __init__(self, args, spec: dict) -> None:
        self.args = args
        self.spec = spec
        self.sampler = calibrate.Sampler()
        self.tracer = tr.Tracer()
        self.installer = tr.Installer(self.tracer)
        self.setups: list[tuple[float, float]] = []
        self.early_checks: list[tuple[str, bool, str]] = []
        self.passes = []
        self.extras = {}
        self.micro_raw: dict[str, float] = {}
        self.micro_ratio: float | None = None

    # -------------------------------------------------------------- phases

    def execute(self, workdir: pathlib.Path) -> dict:
        self.sampler.start()
        try:
            self.wl = self.set_up(workdir)
            try:
                self.measure(workdir)
            finally:
                self.wl.close()
        finally:
            self.sampler.stop()
        for p in self.passes + list(self.extras.values()):
            p.factor = self.sampler.factor(p.start, p.end)
        return self.report()

    def set_up(self, workdir: pathlib.Path):
        """Set the workload up, several times when that is cheap, each time
        from no imported ``repro`` module so that every set-up pays for its
        imports; the last one is measured on."""
        from workloads import WORKLOADS

        args = self.args
        began = time.perf_counter()
        for attempt in range(SETUP_REPEATS):
            for name in [m for m in sys.modules
                         if m == "repro" or m.startswith("repro.")]:
                del sys.modules[name]
            t0 = time.perf_counter()
            import repro  # noqa: F401 - set-up includes the import

            home = workdir / f"setup-{attempt}"
            home.mkdir()
            wl = WORKLOADS[args.workload](args.seed, args.quick, home)
            try:
                wl.setup()
            except BaseException:
                wl.close()
                raise
            now = time.perf_counter()
            self.setups.append((t0, now))
            if attempt == SETUP_REPEATS - 1 or now - began > SETUP_BUDGET_S:
                return wl
            wl.close()
            self.early_checks += wl.checks

    def measured(self, fn, traced: bool):
        """Run one pass, under the tracer's wrappers when ``traced``."""
        root = None
        if traced:
            self.installer.install()
            root = self.tracer.begin(tr.PASS)
        start = time.perf_counter()
        try:
            done = fn()
        finally:
            end = time.perf_counter()
            if traced:
                self.tracer.end(root)
                self.installer.uninstall()
        done.start, done.end = start, end
        done.traced, done.root = traced, root
        # Leave no garbage for the next pass to grow on, so that peak RSS
        # does not depend on how many passes the time budget allowed.
        gc.collect()
        return done

    def measure(self, workdir: pathlib.Path) -> None:
        args, wl = self.args, self.wl
        # With tracing on, passes alternate untraced/traced so the two
        # see the same host regime; the pair is the unit of the budget.
        group = 2 if args.trace else 1
        least = group if args.quick else group * (
            1 if args.trace else FULL_MIN_PASSES)
        self.stable = 1 if args.quick else FULL_MIN_PASSES
        started = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(self.passes) % 2 == 1
            index = len(self.passes)
            self.passes.append(
                self.measured(lambda: wl.run_pass(index), traced))
            if len(self.passes) % group or len(self.passes) < least:
                continue
            elapsed = time.perf_counter() - started
            if args.quick or elapsed * (1 + group / len(self.passes)) \
                    > args.seconds:
                break
        if args.trace:
            for label, fn in wl.extra_traced_passes():
                self.extras[label] = self.measured(fn, True)
        wl.finish(self.passes, bool(args.trace))
        if args.trace:
            self.micro_shapes(workdir)

    def micro_shapes(self, workdir: pathlib.Path) -> None:
        import micro

        self.micro_start = time.perf_counter()
        raw: dict[str, float] = {
            "sim.engine.sparse_ns_per_event": micro.engine_sparse() * 1e9,
            "sim.engine.burst_ns_per_event": micro.engine_burst() * 1e9,
            "sim.sm.compute_bound_s": micro.alone_run("QR"),
            "sim.dram.saturated_s": micro.alone_run("SD"),
            "service.protocol.parse_us": micro.parse_submit() * 1e6,
        }
        for key, secs in micro.store_roundtrip(
                str(workdir / "micro-store")).items():
            raw[f"store.{key}_ms"] = secs * 1e3
        fair, fifo = micro.queue_costs("fair"), micro.queue_costs("fifo")
        raw["service.queue.submit_us"] = fair["submit"] * 1e6
        raw["service.queue.decide_us"] = fair["decide"] * 1e6
        raw["service.queue.decide_us.fifo"] = fifo["decide"] * 1e6
        self.micro_ratio = micro.vectorized_ratio()
        self.micro_end = time.perf_counter()
        self.micro_raw = raw

    # ------------------------------------------------------------- results

    def tally(self) -> tuple[int, int, list[str]]:
        from workloads import slowdowns_sane

        wl = self.wl
        everything = self.passes + list(self.extras.values())
        for p in everything:
            for j in p.jobs:
                if j.result and not slowdowns_sane(j.result):
                    wl.check("slowdowns finite and >= 0.9", False, j.key)
        # Identical passes must produce identical simulations; where passes
        # differ by design, digests are compared across runs (run_all,
        # --repeat-check) instead.
        if wl.identical_passes:
            digests = {sim_digest(p.jobs) for p in everything}
            wl.check("every pass (traced or not) has the same sim_digest",
                     len(digests) == 1, f"{len(digests)} digests")
        jobs = [j for p in everything for j in p.jobs]
        bad = [f"job {j.key} not ok" for j in jobs if not j.ok]
        checks = self.early_checks + wl.checks
        bad += [f"check failed: {name} {detail}".rstrip()
                for name, ok, detail in checks if not ok]
        return len(jobs) + len(checks), len(bad), bad

    def stable_jobs(self) -> list:
        """Jobs of the passes every run makes, whatever its time budget:
        the simulated statistics come from these, so they repeat exactly."""
        return [j for p in self.passes[:self.stable] for j in p.jobs]

    def end_to_end(self) -> dict[str, float]:
        plain = [p for p in self.passes if not p.traced]
        walls = [p.wall_s / p.factor for p in plain]
        lat = sorted(j.latency_s / p.factor for p in plain for j in p.jobs)
        self.latency_samples = len(lat)
        return {
            "setup_s": statistics.median(
                (end - start) / self.sampler.factor(start, end)
                for start, end in self.setups),
            "wall_s": statistics.median(walls),
            "sim_kinstr_per_s": statistics.median(
                sum(sum(j.result["instructions"]) for j in p.jobs if j.result)
                / 1000.0 / w for p, w in zip(plain, walls)),
            "jobs_per_s": statistics.median(
                len(p.jobs) / w for p, w in zip(plain, walls)),
            "latency_p50_s": quartile(lat, 2),
            "latency_p75_s": quartile(lat, 3),
            "peak_rss_mb": peak_rss_mb(),
            "dase_err_pct": model_error_pct(self.stable_jobs(), "DASE"),
        }

    def per_layer(self) -> dict[str, float]:
        """Per-pass means over the traced passes, in calibrated units."""
        tracer = self.tracer
        traced = [p for p in self.passes if p.traced]
        pooled = [p for p in traced if p.workers > 1]
        # Layers that run inside pool workers leave no in-process spans;
        # their numbers come from the bus and from the inline extra pass.
        inproc = [self.extras["inline"]] if pooled and "inline" in self.extras \
            else traced
        worker_side = ("sim", "core", "policies", "harness.runner",
                       "harness.replay_cache")
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, float] = defaultdict(float)
        durs: dict[str, list[float]] = defaultdict(list)
        meta: dict[str, float] = defaultdict(float)
        for home in traced + [p for p in inproc if p not in traced]:
            members = tracer.members(home.root)
            selfs = tracer.self_times(members)
            for i in members:
                s = tracer.spans[i]
                homes = inproc if tr.layer_of(s.name) in worker_side \
                    else traced
                if home not in homes:
                    continue
                share = len(homes)
                busy[s.name] += s.dur / home.factor / share
                own[s.name] += selfs[i] / home.factor / share
                calls[s.name] += 1.0 / share
                durs[s.name].append(s.dur / home.factor)
                for key, value in s.meta.items():
                    if isinstance(value, (int, float)):
                        meta[f"{s.name}:{key}"] += value / share
                if s.name == "service.client.submit":
                    durs[f"{s.name}:{bool(s.meta.get('deduped'))}"].append(
                        s.dur / home.factor)

        def per_call(name: str, scale: float) -> float:
            return busy[name] / calls[name] * scale if calls[name] else 0.0

        def med(name: str, scale: float) -> float:
            return statistics.median(durs[name]) * scale if durs[name] else 0.0

        factor = self.sampler.factor(self.micro_start, self.micro_end)
        m = {k: v / factor for k, v in self.micro_raw.items()}
        if self.micro_ratio is not None:
            m["sim.backends.vectorized_ratio"] = self.micro_ratio
        for name in ("sim.run", "sim.replay"):
            m[f"{name}.busy_s"] = busy[name]
            m[f"{name}.calls"] = calls[name]
        sim_busy = busy["sim.run"] + busy["sim.replay"]
        for key in ("instructions", "dram_requests", "cycles"):
            m[f"sim.{key}"] = (meta[f"sim.run:{key}"]
                               + meta[f"sim.replay:{key}"])
        m["sim.host_us_per_kinstr"] = (
            sim_busy * 1e9 / m["sim.instructions"]
            if m["sim.instructions"] else 0.0)
        m["sim.host_us_per_dram_req"] = (
            sim_busy * 1e6 / m["sim.dram_requests"]
            if m["sim.dram_requests"] else 0.0)
        for model in ("dase", "mise", "asm"):
            m[f"core.{model}.estimate_us"] = per_call(
                f"core.{model}.estimate", 1e6)
        m["core.estimate.calls"] = sum(
            calls[f"core.{model}.estimate"] for model in ("dase", "mise", "asm"))
        stable = self.stable_jobs()
        m["core.mise.err_pct"] = model_error_pct(stable, "MISE")
        m["core.asm.err_pct"] = model_error_pct(stable, "ASM")
        policy = "policies.dase_fair.on_interval"
        m["policies.dase_fair.on_interval_ms"] = per_call(policy, 1e3)
        m["policies.dase_fair.calls"] = calls[policy]
        m["policies.dase_fair.migrations"] = meta[f"{policy}:migrations"]
        m["policies.dase_fair.unfairness_reduction_pct"] = \
            self.wl.unfairness_reduction_pct(self.passes)
        m["harness.runner.run_workload.busy_s"] = \
            busy["harness.runner.run_workload"]
        m["harness.runner.self_s"] = own["harness.runner.run_workload"]
        m["harness.replay_cache.get_us"] = per_call(
            "harness.replay_cache.get", 1e6)
        m["harness.replay_cache.put_us"] = per_call(
            "harness.replay_cache.put", 1e6)
        hits = meta["harness.replay_cache.get:hit"]
        gets = calls["harness.replay_cache.get"]
        m["harness.replay_cache.hits"] = hits
        m["harness.replay_cache.misses"] = gets - hits
        m["harness.replay_cache.hit_ratio"] = hits / gets if gets else 0.0
        m["harness.parallel.run_jobs.busy_s"] = \
            busy["harness.parallel.run_jobs"]
        m["harness.checkpoint.record_us"] = per_call(
            "harness.checkpoint.record", 1e6)
        m["harness.figures.self_s"] = own["harness.figures.run_figure"]
        m["obs.bus.record_us"] = per_call("obs.bus.record", 1e6)
        m["service.daemon.submit_rtt_ms"] = med(
            "service.client.submit:False", 1e3)
        m["service.daemon.dedup_rtt_ms"] = med(
            "service.client.submit:True", 1e3)
        m["service.daemon.healthz_rtt_ms"] = med("service.client.health", 1e3)
        m["service.daemon.dedup_hits"] = (
            len(durs["service.client.submit:True"]) / max(1, len(traced)))
        m["service.daemon.overhead_ms_per_job"] = self.daemon_overhead_ms(
            traced)

        shares: dict[str, float] = defaultdict(float)
        if pooled:
            self.bus_metrics(m, pooled, shares)
        else:
            for p in traced:
                for layer, frac in tracer.shares(p.root).items():
                    shares[layer] += frac / len(traced)
        if "inline" in self.extras and pooled:
            inline = self.extras["inline"]
            m["harness.parallel.inline_over_pool"] = (
                inline.wall_s / inline.factor
                / statistics.median(p.wall_s / p.factor for p in pooled))
        if self.wl.resume_s is not None:
            m["harness.checkpoint.resume_ms"] = (
                self.wl.resume_s / self.passes[-1].factor * 1e3)
        for layer, frac in shares.items():
            m[f"{layer}.share_pct"] = 100.0 * frac
        self.shares = dict(shares)
        plain = [p.wall_s / p.factor for p in self.passes if not p.traced]
        m["obs.trace_overhead_frac"] = (
            statistics.median(p.wall_s / p.factor for p in traced)
            / statistics.median(plain) - 1.0)
        return m

    def daemon_overhead_ms(self, traced) -> float:
        """Median over fresh requests of latency − queue wait − the job's
        own ``run_workload`` span: what the daemon adds around the work."""
        work = {
            s.job: s.dur for s in self.tracer.spans
            if s.name == "harness.runner.run_workload" and s.job
        }
        over = [
            (j.latency_s - (j.meta["waited_s"] or 0.0) - work[j.key])
            / p.factor * 1e3
            for p in traced for j in p.jobs
            if j.meta.get("waited_s") is not None and j.key in work
        ]
        return statistics.median(over) if over else 0.0

    def bus_metrics(self, m: dict, pooled, shares: dict) -> None:
        """The pool workers' split, from the bus ``run_jobs`` already
        writes, so the ledger and the sweep trace cannot disagree."""
        from repro.obs.bus import read_bus

        n = len(pooled)
        spans: dict[str, list[float]] = defaultdict(list)
        hits = misses = overhead = 0.0
        for p in pooled:
            slots = p.workers * p.wall_s
            jobs_s = sim_s = probe_s = ser_s = 0.0
            for rec in read_bus(p.bus_dir):
                if rec.get("t") == "job_end":
                    jobs_s += rec["dur"]
                elif rec.get("t") == "span":
                    spans[rec["name"]].append(rec["dur"] / p.factor)
                    cached = (rec.get("args") or {}).get("cached")
                    if rec["name"] == "simulate" or (
                            rec["name"] == "replay" and not cached):
                        sim_s += rec["dur"]
                    elif rec["name"] == "replay":
                        probe_s += rec["dur"]
                    elif rec["name"] == "serialize":
                        ser_s += rec["dur"]
            for j in p.jobs:
                cache = j.meta.get("cache") or {}
                hits += cache.get("hits", 0) / n
                misses += cache.get("misses", 0) / n
            shares["sim"] += sim_s / slots / n
            shares["harness.replay_cache"] += probe_s / slots / n
            shares["harness.runner"] += (
                jobs_s - sim_s - probe_s - ser_s) / slots / n
            shares["harness.parallel"] += (slots - jobs_s + ser_s) / slots / n
            overhead += (1.0 - jobs_s / slots) / n
        for name, key in (("simulate", "sim.run"), ("replay", "sim.replay")):
            m[f"{key}.busy_s"] = sum(spans[name]) / n
            m[f"{key}.calls"] = len(spans[name]) / n
        for name in ("dequeue", "serialize"):
            m[f"harness.parallel.{name}_ms_p50"] = (
                statistics.median(spans[name]) * 1e3 if spans[name] else 0.0)
        m["harness.parallel.overhead_frac"] = overhead
        m["harness.replay_cache.hits"] = hits
        m["harness.replay_cache.misses"] = misses
        m["harness.replay_cache.hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0)

    def report(self) -> dict:
        args, spec = self.args, self.spec
        attempted, failed, problems = self.tally()
        kind = "per_layer" if args.trace else "end_to_end"
        values = self.per_layer() if args.trace else self.end_to_end()
        declared = {d["name"]: d["unit"] for d in spec[kind]}
        unknown = sorted(set(values) - set(declared))
        if unknown:
            raise SystemExit(f"metrics not declared in BENCHMARK.json: "
                             f"{unknown}")
        # A layer the workload bypasses did no work: its metrics read 0.
        metrics = {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in declared.items()
        }
        plain = [p for p in self.passes if not p.traced]
        detail = {
            "workload": args.workload, "seed": args.seed,
            "trace": int(bool(args.trace)), "quick": args.quick,
            "passes": len(plain),
            "traced_passes": len(self.passes) - len(plain),
            "sim_digest": sim_digest(self.stable_jobs()),
            "setups": len(self.setups),
            "raw": {
                "setup_s": statistics.median(e - s for s, e in self.setups),
                "wall_s": statistics.median(p.wall_s for p in plain),
                "host_factor": statistics.median(p.factor for p in plain),
            },
            "failed_frac": failed / attempted,
            "problems": problems,
            "skipped_wrappers": self.installer.skipped,
        }
        if args.trace:
            detail["shares"] = self.shares
            detail["trace_file"] = self.write_trace()
        else:
            detail["latency_samples"] = self.latency_samples
        return {
            "result": {"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics},
            "detail": detail,
        }

    def write_trace(self) -> str:
        out = LEDGER / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{self.args.workload}.json"
        self.tracer.write(path)
        return str(path.relative_to(ROOT))


def print_table(spec: dict, workload: str, result: dict, detail: dict) -> None:
    kind = "per_layer" if detail["trace"] else "end_to_end"
    raw = detail["raw"]
    print(f"== {workload}  seed={detail['seed']}  "
          f"{'traced' if detail['trace'] else 'untraced'}  "
          f"setups={detail['setups']}  "
          f"passes={detail['passes']}+{detail['traced_passes']}  "
          f"host_factor={raw['host_factor']:.3f}  "
          f"raw wall_s={raw['wall_s']:.3f}  raw setup_s={raw['setup_s']:.3f}")
    shares = detail.get("shares", {})
    for d in spec[kind]:
        name = d["name"]
        entry = result["metrics"][name]
        note = ""
        if name.endswith("err_pct") or name.endswith("reduction_pct") \
                or name in ("sim.instructions", "sim.dram_requests",
                            "sim.cycles"):
            note = "  (simulated; unvalidated against hardware)"
        if name in ("latency_p50_s", "latency_p75_s"):
            note = f"  (n={detail['latency_samples']})"
        bound = f"  bound {d['bound']:.0%}" if "bound" in d else ""
        print(f"  {name:46s} {entry['value']:>16.6g} {entry['unit']:9s}"
              f"{bound}{note}")
    if shares:
        print(f"  self-time shares sum to "
              f"{100 * sum(shares.values()):.1f}% of wall_s")
    print(f"  failed_frac {detail['failed_frac']:.4f} "
          f"({result['failed']}/{result['attempted']})  "
          f"sim_digest {detail['sim_digest'][:16]}")
    for line in detail["problems"]:
        print(f"  !! {line}")
    if detail["skipped_wrappers"]:
        print(f"  wrappers skipped (API drift): {detail['skipped_wrappers']}")


def run_one(args, spec: dict) -> int:
    # find_spec, not import: the import itself is part of the timed set-up.
    if importlib.util.find_spec("repro") is None:
        print(f"ledger: no repro package under {ROOT / 'src'} or on "
              "PYTHONPATH", file=sys.stderr)
        return 2
    workdir = LEDGER / ".work" / f"{args.workload}-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True)
    # run_jobs puts its pool scratch under tempfile's directory; keep every
    # write inside the checkout.
    tempfile.tempdir = os.environ["TMPDIR"] = str(workdir / "tmp")
    try:
        out = Run(args, spec).execute(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_table(spec, args.workload, out["result"], out["detail"])
    print(DETAIL_TAG + json.dumps(out["detail"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


# ------------------------------------------------------------ all workloads


def provenance(spec: dict, args) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                capture_output=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "seed": args.seed, "nproc": os.cpu_count(),
        "python": platform.python_version(), "git_rev": rev,
        "quick": args.quick, "seconds": args.seconds,
        "workloads": {w["name"]: w["why"] for w in spec["workloads"]},
        "calibration_ref_s": calibrate.CAL_REF_S,
    }


def child(args, workload: str, trace: int) -> tuple[int, dict, dict]:
    cmd = [sys.executable, str(LEDGER / "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)] + (["--quick"] if args.quick else [])
    proc = subprocess.run(cmd, cwd=ROOT, text=True, stdout=subprocess.PIPE)
    lines = proc.stdout.splitlines()
    if len(lines) < 2 or not lines[-2].startswith(DETAIL_TAG):
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"ledger: {workload} (trace={trace}) printed no "
                         f"result (exit {proc.returncode})")
    sys.stdout.write("\n".join(lines[:-2]) + "\n")
    sys.stdout.flush()
    return (proc.returncode, json.loads(lines[-1]),
            json.loads(lines[-2][len(DETAIL_TAG):]))


def run_set(args, spec: dict, traces: tuple[int, ...]) -> tuple[int, dict]:
    worst = 0
    out: dict = {}
    for w in spec["workloads"]:
        for trace in traces:
            code, result, detail = child(args, w["name"], trace)
            worst = max(worst, code)
            out[f"{w['name']}/trace{trace}"] = {"result": result,
                                                "detail": detail}
    return worst, out


def run_all(args, spec: dict) -> int:
    t0 = time.perf_counter()
    code, runs = run_set(args, spec, (0, 1) if args.trace else (0,))
    for name, run in runs.items():
        if name.endswith("trace0"):
            continue
        plain = runs[name.replace("trace1", "trace0")]["detail"]
        same = plain["sim_digest"] == run["detail"]["sim_digest"]
        print(f"{name}: sim_digest {'matches' if same else 'DIFFERS FROM'} "
              f"the untraced run")
        code = max(code, 0 if same else 1)
    print(f"total {time.perf_counter() - t0:.1f} s; "
          f"{'all checks passed' if code == 0 else 'CHECKS FAILED'}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"provenance": provenance(spec, args), "runs": runs},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    return code


def repeat_check(args, spec: dict) -> int:
    """Two untraced sets of :data:`REPEAT_RUNS` runs per workload, back to
    back; every end-to-end metric's two medians must agree within its
    bound, simulated ones and the digests exactly."""
    code = 0
    sets: list[list[dict]] = []
    for _ in range(2):
        runs = []
        for _ in range(REPEAT_RUNS):
            worst, out = run_set(args, spec, (0,))
            code = max(code, worst)
            runs.append(out)
        sets.append(runs)
    print(f"{'workload/metric':44s} {'first':>12s} {'second':>12s} "
          f"{'gap':>8s} {'bound':>6s}")
    for name in sets[0][0]:
        workload = name.split("/")[0]
        digests = {r[name]["detail"]["sim_digest"] for runs in sets
                   for r in runs}
        if len(digests) != 1:
            print(f"{workload}: sim_digest differs between runs")
            code = 1
        for d in spec["end_to_end"]:
            x, y = (
                statistics.median(
                    r[name]["result"]["metrics"][d["name"]]["value"]
                    for r in runs)
                for runs in sets
            )
            gap = abs(y - x) / abs(x) if x else math.inf
            exact = d["name"] == "dase_err_pct"
            ok = x == y if exact else gap <= d["bound"]
            print(f"{workload + '/' + d['name']:44s} {x:12.6g} "
                  f"{y:12.6g} {gap:8.2%} "
                  f"{'exact' if exact else format(d['bound'], '.0%'):>6s}"
                  f"{'' if ok else '  <-- FAIL'}")
            code = max(code, 0 if ok else 1)
    print("repeat-check " + ("passed" if code == 0 else "FAILED"))
    return code


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=names, default=None,
                   help="run one workload (the driver's form); default: all")
    p.add_argument("--seed", type=int, default=2016,
                   help="workload seed; reaches generated inputs only")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"],
                   help="measured seconds per run (default: run_seconds)")
    p.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                   choices=(0, 1), help="also (or, with --workload, only) "
                   "the traced pass and the per-layer metrics")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write every run's numbers and provenance as JSON")
    p.add_argument("--quick", action="store_true",
                   help="smoke sizes: one small pass per workload")
    p.add_argument("--repeat-check", action="store_true",
                   help="run two untraced sets of three runs per workload "
                   "and compare their medians")
    args = p.parse_args(argv)
    if args.repeat_check:
        return repeat_check(args, spec)
    if args.workload is None:
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
