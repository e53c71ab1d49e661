"""Per-component simulator microbenchmarks → ``BENCH_sim.json``.

Measures the hot paths the PR-2 optimisation targeted (event-engine
dispatch, SM burst loop, DRAM controller dispatch) plus the end-to-end
pair workload and a warp-stream generation bench, and writes a
machine-readable artifact so the performance trajectory is tracked across
PRs.

Every benchmark is also recorded *normalized* to a fixed pure-Python
calibration loop measured in the same process: absolute seconds differ
wildly between laptops and CI runners, but the ratio benchmark/calibration
is roughly machine-independent for interpreter-bound code, so the
committed baseline (``benchmarks/BENCH_baseline.json``) can gate
regressions on shared runners.

Usage::

    PYTHONPATH=src python benchmarks/bench_sim.py --out BENCH_sim.json
    PYTHONPATH=src python benchmarks/bench_sim.py \
        --out BENCH_sim.json --check benchmarks/BENCH_baseline.json
    PYTHONPATH=src python benchmarks/bench_sim.py --trajectory

``--trajectory`` appends one record per run to ``BENCH_trajectory.json``
at the repository root (seeded from the committed baseline on first use),
building the cumulative perf trajectory across PRs.

Regenerate the baseline after an intentional perf-relevant change with
``--out benchmarks/BENCH_baseline.json`` on a quiet machine and commit the
diff (see docs/performance.md).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

#: Repo root — where the cumulative trajectory artifact lives.
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TRAJECTORY_PATH = REPO_ROOT / "BENCH_trajectory.json"
BASELINE_PATH = REPO_ROOT / "benchmarks" / "BENCH_baseline.json"


# --------------------------------------------------------------- components


def engine_dispatch_sparse() -> int:
    """Event dispatch, one event per cycle (heap-dominated)."""
    from repro.sim.engine import Engine

    eng = Engine()
    count = 0

    def tick():
        nonlocal count
        count += 1
        if count < 120_000:
            eng.schedule(1, tick)

    eng.schedule(0, tick)
    eng.run()
    return count


def engine_dispatch_burst() -> int:
    """Event dispatch, ~10 events per cycle (bucket-FIFO-dominated) —
    the shape real simulated workloads produce."""
    from repro.sim.engine import Engine

    eng = Engine()
    count = 0

    def tick():
        nonlocal count
        count += 1
        if count < 20_000:
            eng.schedule(1 + (count % 10 == 0), tick)

    for _ in range(10):
        eng.schedule(0, tick)
    eng.run()
    return count


def sm_burst_loop() -> int:
    """Compute-bound single app: SM virtual-time/burst machinery dominates."""
    from repro import GPU
    from repro.harness import scaled_config
    from repro.workloads import SUITE

    gpu = GPU(scaled_config(), [SUITE["QR"]])
    gpu.run(30_000)
    return gpu.engine.now


def dram_dispatch() -> int:
    """Bandwidth-saturated single app: DRAM controller dominates."""
    from repro import GPU
    from repro.harness import scaled_config
    from repro.workloads import SUITE

    gpu = GPU(scaled_config(), [SUITE["SD"]])
    gpu.run(30_000)
    return gpu.engine.now


def pair_workload() -> int:
    """The acceptance workload: SD+SB shared run (DRAM-saturated pair)."""
    from repro import GPU
    from repro.harness import scaled_config
    from repro.workloads import SUITE

    gpu = GPU(scaled_config(), [SUITE["SD"], SUITE["SB"]])
    gpu.run(30_000)
    return gpu.engine.now


def warp_gen() -> int:
    """Warp-stream generation + consumption, isolated, at a per-warp budget
    of thousands of instructions (the suite's are hundreds)."""
    from dataclasses import replace

    from repro.sim.kernel import WarpStream
    from repro.workloads import SUITE

    steps = 0
    for name in ("SB", "SD", "NN"):
        spec = replace(SUITE[name], insts_per_warp=4000)
        for w in range(24):
            s = WarpStream(spec, 0, 0, w, 2016, 128)
            while not s.done:
                s.next_compute_burst()
                s.next_mem_access()
                steps += 1
    return steps


BENCHES = {
    "engine_dispatch_sparse": engine_dispatch_sparse,
    "engine_dispatch_burst": engine_dispatch_burst,
    "sm_burst_loop": sm_burst_loop,
    "dram_dispatch": dram_dispatch,
    "pair_workload": pair_workload,
    "warp_gen": warp_gen,
}


def calibrate() -> float:
    """Fixed interpreter-bound spin; the normalization denominator."""

    def spin() -> int:
        x = 0
        for i in range(2_000_000):
            x = (x + i) & 0xFFFFFFFF
        return x

    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        spin()
        best = min(best, time.perf_counter() - t0)
    return best


def time_best_of(fn, reps: int = 5) -> float:
    """Best-of-``reps`` wall time — robust to scheduler noise."""
    fn()  # warm imports, caches, pyc
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure(reps: int = 5, only: list[str] | None = None) -> dict:
    cal = calibrate()
    benches = {}
    for name, fn in BENCHES.items():
        if only is not None and name not in only:
            continue
        seconds = time_best_of(fn, reps)
        benches[name] = {
            "seconds": seconds,
            "normalized": seconds / cal,
        }
        print(f"  {name:28s} {seconds * 1e3:8.1f} ms "
              f"(x{seconds / cal:.2f} of calibration)", file=sys.stderr)
    return {
        "schema": 1,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "calibration_seconds": cal,
        "only": sorted(only) if only is not None else None,
        "benches": benches,
    }


def check(result: dict, baseline: dict, tolerance: float) -> list[str]:
    """Normalized-time regressions beyond ``tolerance`` vs the baseline.

    Only benchmarks present in the current run are compared, so an
    ``--only``-restricted run checks just what it measured.  Each failure
    names the entry and states the measured vs baseline normalized times
    plus their ratio, so a CI log identifies the regressing benchmark
    without re-running anything.
    """
    failures = []
    measured = result["benches"]
    restricted = result.get("only") is not None
    for name, base in baseline.get("benches", {}).items():
        if name not in measured:
            if not restricted:
                failures.append(f"{name}: missing from current run")
            continue
        got = measured[name]
        ratio = got["normalized"] / base["normalized"]
        limit = base["normalized"] * (1.0 + tolerance)
        if got["normalized"] > limit:
            failures.append(
                f"{name}: measured normalized {got['normalized']:.3f} vs "
                f"baseline {base['normalized']:.3f} "
                f"({ratio:.2f}x, tolerance {1.0 + tolerance:.2f}x)"
            )
    return failures


# --------------------------------------------------------------- trajectory


def seed_trajectory(path: pathlib.Path) -> dict:
    """Load the trajectory artifact, seeding it from the baseline.

    The committed baseline is the trajectory's origin: on first use its
    entries become record zero (labelled as such), so every later record
    reads as a delta against the same committed reference point.
    """
    if path.exists():
        with path.open() as fh:
            return json.load(fh)
    traj = {"schema": 1, "records": []}
    if BASELINE_PATH.exists():
        with BASELINE_PATH.open() as fh:
            base = json.load(fh)
        traj["records"].append({
            "label": "baseline",
            "source": "benchmarks/BENCH_baseline.json",
            "python": base.get("python"),
            "calibration_seconds": base.get("calibration_seconds"),
            "benches": base.get("benches", {}),
        })
    return traj


def append_trajectory(result: dict, path: pathlib.Path) -> dict:
    """Append this run's entries as one trajectory record and rewrite."""
    traj = seed_trajectory(path)
    traj["records"].append({
        "label": f"run-{len(traj['records'])}",
        "python": result["python"],
        "calibration_seconds": result["calibration_seconds"],
        "benches": result["benches"],
    })
    with path.open("w") as fh:
        json.dump(traj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return traj


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default="BENCH_sim.json",
                   help="artifact path (default: BENCH_sim.json)")
    p.add_argument("--reps", type=int, default=5,
                   help="repetitions per benchmark (best-of)")
    p.add_argument("--check", default=None, metavar="BASELINE",
                   help="fail on regression vs this committed baseline")
    p.add_argument("--tolerance", type=float, default=0.30,
                   help="allowed normalized-time regression (default 0.30)")
    p.add_argument("--only", default=None, metavar="NAME[,NAME]",
                   help="measure only these benchmarks (comma-separated); "
                        f"choices: {','.join(BENCHES)}")
    p.add_argument("--trajectory", action="store_true",
                   help="append this run to BENCH_trajectory.json at the "
                        "repo root (seeded from the committed baseline)")
    args = p.parse_args(argv)

    only = None
    if args.only:
        only = [n for n in args.only.split(",") if n]
        unknown = [n for n in only if n not in BENCHES]
        if unknown:
            p.error(f"unknown benchmark(s) {','.join(unknown)}; "
                    f"choices: {','.join(BENCHES)}")

    result = measure(reps=args.reps, only=only)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)

    if args.trajectory:
        traj = append_trajectory(result, TRAJECTORY_PATH)
        print(f"appended record {len(traj['records']) - 1} to "
              f"{TRAJECTORY_PATH}", file=sys.stderr)

    if args.check:
        with open(args.check) as fh:
            baseline = json.load(fh)
        failures = check(result, baseline, args.tolerance)
        if failures:
            print("perf regression detected:", file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
            return 1
        print(f"no regression vs {args.check} "
              f"(tolerance {args.tolerance:.0%})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
