"""The off-path perf gate: a change timed against its parent commit.

    python benchmarks/parent_gate.py [--parent DIR]

Times four of the ledger's micro-shapes (``benchmarks/ledger/micro.py``):
the SD+SB pair, SD alone (DRAM-bound), QR alone (SM-bound) and bursty
engine dispatch.  Each of ten pairs starts a fresh interpreter on the
parent's ``src/`` and one on the change's, both running this tree's
``micro.py``.  The two take turns, one run of one shape at a time, the
first in turn alternating from pair to pair, and each keeps its best of
five runs after a warm-up.  A shared host's speed drifts over seconds (on
a shared 2-CPU host, one process timing SD alone read about 400 ms for
seven runs, then about 465 ms for twenty), so only runs this close
together compare.  The two trees are imported through symlinks of one
length, so their module paths differ in one letter only.

A shape fails when the change is more than ``BOUND`` slower than the
parent in the median pair *and* slower in at least nine pairs of ten: the
ten-pair rule for claiming a gain, read backwards.  The median is of the
pairs' ratios, not of each side's times, because drift between pairs
moves each side's median by more than ``BOUND`` (identical trees read
+12 % on QR alone that way).  Comparing one run with a committed baseline
read noise (identical code moved by tens of percent); identical trees lose
nine pairs of ten about once in a hundred times per shape, and must then
also be ``BOUND`` slower in the median pair.

The parent is a temporary ``git worktree`` of ``HEAD^`` unless ``--parent``
names a checkout.  Exit status 1 names each failing shape.  ^C or SIGTERM
stops a run, removes its worktree and temporary directories, and exits
non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
LEDGER = ROOT / "benchmarks" / "ledger"

#: Shape name → (``micro.py`` function, its keyword arguments).
SHAPES = {
    "pair_workload": ("alone_run", {"app": "SD", "partner": "SB"}),
    "dram_dispatch": ("alone_run", {"app": "SD"}),
    "sm_burst_loop": ("alone_run", {"app": "QR"}),
    "engine_burst": ("engine_burst", {}),
}
PAIRS = 10
#: How much slower the change's median may be than the parent's.
BOUND = 0.03
#: Of every ten pairs, how many the change must lose for a slower median
#: to count.
SLOWER_OF_TEN = 9

#: A timing worker: argv[1] is the ledger directory.  It prints where it
#: imported ``repro`` from, then, for each ``[function, kwargs]`` line read,
#: the seconds of one call.
_WORKER = """
import json, sys
sys.path.append(sys.argv[1])
import micro, repro
print(json.dumps(repro.__file__), flush=True)
for line in sys.stdin:
    fn, kwargs = json.loads(line)
    print(getattr(micro, fn)(**kwargs), flush=True)
"""


def judge(parent: list[float], change: list[float]) -> tuple[bool, float, int]:
    """``(failed, slowdown, slower)`` for one shape's paired samples: the
    median of the pairs' change/parent ratios minus one, and the pairs the
    change lost."""
    ratios = [c / p for p, c in zip(parent, change)]
    slowdown = statistics.median(ratios) - 1.0
    slower = sum(r > 1.0 for r in ratios)
    failed = slowdown > BOUND and slower * 10 >= SLOWER_OF_TEN * len(ratios)
    return failed, slowdown, slower


def _worker(tree: pathlib.Path, link: pathlib.Path) -> subprocess.Popen:
    """A timing worker importing ``tree``'s ``src/`` through ``link``."""
    src = tree.resolve() / "src"
    link.unlink(missing_ok=True)
    link.symlink_to(src, target_is_directory=True)
    proc = subprocess.Popen(
        [sys.executable, "-c", _WORKER, str(LEDGER)],
        env=dict(os.environ, PYTHONPATH=str(link)),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    imported = json.loads(proc.stdout.readline())
    if not pathlib.Path(imported).resolve().is_relative_to(src):
        raise SystemExit(f"worker meant for {src} imported {imported}")
    return proc


def _time(proc: subprocess.Popen, call: tuple[str, dict]) -> float:
    proc.stdin.write(json.dumps(call) + "\n")
    proc.stdin.flush()
    return float(proc.stdout.readline())


def pair(trees: dict[str, pathlib.Path], order: tuple[str, str],
         tmp: pathlib.Path) -> dict[str, dict[str, float]]:
    """One pair: each side's best seconds per shape, the two workers taking
    turns in ``order``."""
    workers = {side: _worker(trees[side], tmp / letter / "src")
               for side, letter in zip(order, "ab")}
    best = {side: {} for side in order}
    try:
        for name, call in SHAPES.items():
            for side in order:
                _time(workers[side], call)  # warm-up
            for _ in range(5):
                for side in order:
                    t = _time(workers[side], call)
                    best[side][name] = min(best[side].get(name, t), t)
    finally:
        for proc in workers.values():
            proc.stdin.close()
            proc.wait()
    return best


def compare(parent: pathlib.Path) -> list[str]:
    """Time both trees in alternating pairs, print one line per shape and
    return the names of the shapes that fail."""
    runs = {"parent": [], "change": []}
    trees = {"parent": parent, "change": ROOT}
    with tempfile.TemporaryDirectory() as tmp:
        for letter in "ab":
            (pathlib.Path(tmp) / letter).mkdir()
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side, best in pair(trees, order, pathlib.Path(tmp)).items():
                runs[side].append(best)
    failing = []
    for name in SHAPES:
        p = [s[name] for s in runs["parent"]]
        c = [s[name] for s in runs["change"]]
        failed, slowdown, slower = judge(p, c)
        print(f"{name:14s} parent {statistics.median(p) * 1e3:8.4g} ms  "
              f"change {statistics.median(c) * 1e3:8.4g} ms  "
              f"median pair {slowdown:+7.2%}  slower {slower}/{len(p)}  "
              f"{'FAIL' if failed else 'ok'}")
        if failed:
            failing.append(name)
    return failing


def _terminated(signum: int, frame: object) -> None:
    """SIGTERM unwinds like ^C, through every cleanup on the way out."""
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminated)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", metavar="DIR", type=pathlib.Path,
                   help="a checkout of the parent (default: a temporary "
                        "worktree of HEAD^)")
    args = p.parse_args(argv)
    if args.parent is not None:
        failing = compare(args.parent)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            worktree = pathlib.Path(tmp) / "parent"
            subprocess.run(["git", "-C", str(ROOT), "worktree", "add",
                            "--detach", str(worktree), "HEAD^"], check=True)
            try:
                failing = compare(worktree)
            finally:
                subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                                "--force", str(worktree)], check=True)
    if failing:
        print(f"slower than the parent by more than {BOUND:.0%}: "
              f"{', '.join(failing)}", file=sys.stderr)
        return 1
    print(f"no shape slower than the parent by more than {BOUND:.0%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
