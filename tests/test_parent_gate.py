"""The off-path perf gate's decision rule (``benchmarks/parent_gate.py``)."""

import importlib.util
import pathlib

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
