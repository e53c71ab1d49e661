"""Motivation comparison (paper §2.2): LEFTOVER vs temporal vs spatial
multitasking vs DASE-Fair.

The paper argues current GPUs' LEFTOVER policy "cannot ensure that
different applications will always run simultaneously" and that spatial
multitasking improves utilization and responsiveness; DASE-Fair then fixes
spatial sharing's fairness problem.  This bench puts all four on one axis.
"""

from repro.harness import run_workload, scaled_config
from repro.obs.report import table
from repro.policies import DASEFairPolicy, TimeSlicePolicy, leftover_partition
from repro.workloads import SUITE

PAIR = ["SD", "VA"]


def run_modes():
    cfg = scaled_config()
    specs = [SUITE[n] for n in PAIR]
    runs = {
        "leftover": dict(sm_partition=leftover_partition(cfg, specs)),
        "temporal": dict(policy=TimeSlicePolicy(cfg, quantum_intervals=2)),
        "spatial-even": dict(),
        "spatial-DASE-Fair": dict(policy=DASEFairPolicy(cfg)),
    }
    out = {}
    for name, kwargs in runs.items():
        res = run_workload(PAIR, config=cfg, models=(), **kwargs)
        out[name] = (res.actual_unfairness, res.actual_hspeedup,
                     res.actual_slowdowns)
    return out


def test_multitasking_mode_comparison(once):
    res = once(run_modes)
    rows = [
        [name, f"{unf:.2f}", f"{hsp:.3f}"] + [f"{s:.2f}" for s in slow]
        for name, (unf, hsp, slow) in res.items()
    ]
    print()
    print(table(
        ["mode", "unfairness", "H-speedup", "slowdown SD", "slowdown VA"],
        rows,
    ))
    unf = {k: v[0] for k, v in res.items()}
    hsp = {k: v[1] for k, v in res.items()}
    # DASE-Fair fixes spatial sharing's unfairness ...
    assert unf["spatial-DASE-Fair"] <= unf["spatial-even"] + 0.05
    # ... and beats LEFTOVER, which starves the late-launched application.
    assert unf["spatial-DASE-Fair"] < unf["leftover"]
    slow_leftover = res["leftover"][2]
    slow_even = res["spatial-even"][2]
    assert slow_leftover[1] > slow_even[1] * 1.5
    # Managed spatial sharing sustains at least time-slicing's harmonic
    # speedup (time-slicing is fair by construction but pays switch drains).
    assert hsp["spatial-DASE-Fair"] >= hsp["temporal"] * 0.85
    assert hsp["spatial-DASE-Fair"] >= hsp["leftover"] * 0.95
