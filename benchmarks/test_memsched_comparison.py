"""Related-work comparison: FR-FCFS vs application-aware round-robin memory
scheduling (Jog et al. [11], discussed in the paper's §2.2/§3.1).

The paper argues memory-side fairness alone "does not fully address the
fairness problem" — SM allocation (DASE-Fair) is still needed.  This bench
quantifies that: RR narrows the bandwidth starvation but leaves most of the
slowdown gap that SM repartitioning addresses.
"""

from repro.harness import run_workload, scaled_config
from repro.obs.report import table

PAIRS = [("SD", "SB"), ("CT", "SB")]


def run_comparison():
    out = {}
    for sched in ("frfcfs", "rr"):
        cfg = scaled_config(mc_scheduler=sched)
        rows = {}
        for pair in PAIRS:
            res = run_workload(list(pair), config=cfg, models=())
            rows["+".join(pair)] = (
                res.actual_unfairness,
                res.actual_hspeedup,
            )
        out[sched] = rows
    return out


def test_memory_scheduler_comparison(once):
    res = once(run_comparison)
    rows = []
    for key in res["frfcfs"]:
        u_fr, h_fr = res["frfcfs"][key]
        u_rr, h_rr = res["rr"][key]
        rows.append([key, f"{u_fr:.2f}", f"{u_rr:.2f}",
                     f"{h_fr:.3f}", f"{h_rr:.3f}"])
    print()
    print(table(
        ["workload", "unf FR-FCFS", "unf app-RR", "hsp FR-FCFS", "hsp app-RR"],
        rows,
    ))
    # Memory-side fairness helps the starved victim on average ...
    mean_fr = sum(res["frfcfs"][k][0] for k in res["frfcfs"]) / len(PAIRS)
    mean_rr = sum(res["rr"][k][0] for k in res["rr"]) / len(PAIRS)
    assert mean_rr < mean_fr * 1.05
    # ... but does not reach fairness by itself (the paper's argument for
    # SM-allocation-level control).
    assert mean_rr > 1.2
