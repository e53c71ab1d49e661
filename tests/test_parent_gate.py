"""The off-path perf gate's decision rule (``benchmarks/parent_gate.py``)."""

import importlib.util
import os
import pathlib
import signal
import subprocess
import sys

_PATH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "parent_gate.py"
_spec = importlib.util.spec_from_file_location("parent_gate", _PATH)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

#: Ten parent samples with the spread of a real run (seconds).
PARENT = [0.41, 0.43, 0.40, 0.44, 0.42, 0.45, 0.41, 0.43, 0.42, 0.44]


def test_identical_samples_pass():
    failed, slowdown, slower = gate.judge(PARENT, list(PARENT))
    assert (failed, slowdown, slower) == (False, 0.0, 0)


def test_five_percent_slower_in_every_pair_fails():
    failed, slowdown, slower = gate.judge(PARENT, [p * 1.05 for p in PARENT])
    assert failed and slower == 10 and abs(slowdown - 0.05) < 1e-9


def test_one_slow_outlier_among_ten_passes():
    change = list(PARENT)
    change[3] *= 2.0
    failed, slowdown, slower = gate.judge(PARENT, change)
    assert not failed and slower == 1 and slowdown == 0.0


def test_two_percent_slower_in_every_pair_passes():
    # Below the bound: losing every pair is not enough on its own.
    failed, _, slower = gate.judge(PARENT, [p * 1.02 for p in PARENT])
    assert not failed and slower == 10


#: A gate run whose ``ROOT`` is argv[2] and whose timing is a long sleep
#: announced by a ``timing`` line, so that the test can stop it mid-run.
_SLEEPING_GATE = """
import importlib.util, pathlib, sys, time
spec = importlib.util.spec_from_file_location("parent_gate", sys.argv[1])
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)
gate.ROOT = pathlib.Path(sys.argv[2])
def compare(parent):
    print("timing", flush=True)
    time.sleep(60)
    return []
gate.compare = compare
sys.exit(gate.main([]))
"""


def _git(repo, *args):
    return subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=gate",
         "-c", "user.email=gate@example.com", "-c", "commit.gpgsign=false",
         *args],
        check=True, capture_output=True, text=True,
    ).stdout


def test_sigterm_removes_worktree_and_temp_dirs(tmp_path):
    repo, tmp = tmp_path / "repo", tmp_path / "tmp"
    repo.mkdir()
    tmp.mkdir()
    _git(repo, "init", "-q")
    for i in range(2):
        (repo / "f").write_text(str(i))
        _git(repo, "add", "f")
        _git(repo, "commit", "-q", "-m", f"c{i}")
    child = subprocess.Popen(
        [sys.executable, "-c", _SLEEPING_GATE, str(_PATH), str(repo)],
        env=dict(os.environ, TMPDIR=str(tmp)),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        # The fake compare runs only once the HEAD^ worktree is added.
        for line in child.stdout:
            if line.strip() == "timing":
                break
        assert _git(repo, "worktree", "list", "--porcelain").count(
            "worktree ") == 2
        child.send_signal(signal.SIGTERM)
        assert child.wait(timeout=30) != 0
    finally:
        child.kill()
        child.wait()
        child.stdout.close()
    assert _git(repo, "worktree", "list", "--porcelain").count(
        "worktree ") == 1
    assert list(tmp.iterdir()) == []
