#!/usr/bin/env python3
"""Four-application consolidation (the paper's Fig. 6 setting).

    python examples/four_app_consolidation.py [APP APP APP APP]

Takes ~1-2 min.  Consolidates four applications onto one GPU — the
datacenter scenario the paper's introduction motivates — and shows:

* actual slowdowns via the matched-instruction methodology;
* how DASE tracks them while MISE/ASM (missing the 4× all-SM factor)
  collapse toward 1-2×;
* what DASE-Fair does with the 4-way SM partition.
"""

import sys

from repro.harness import run_workload, scaled_config
from repro.obs.report import pct, table
from repro.policies import DASEFairPolicy
from repro.workloads import APP_NAMES


def main() -> None:
    names = sys.argv[1:5] if len(sys.argv) >= 5 else ["SD", "SB", "QR", "CT"]
    for n in names:
        if n not in APP_NAMES:
            raise SystemExit(f"unknown app {n!r}; choose from {APP_NAMES}")
    config = scaled_config()

    print(f"Consolidating {'+'.join(names)} on {config.n_sms} SMs "
          f"(even split: 4 each)\n")
    res = run_workload(names, config=config)

    models = ("DASE", "MISE", "ASM")
    rows = []
    for i, name in enumerate(names):
        row = [name, f"{res.actual_slowdowns[i]:.2f}"]
        for m in models:
            e = res.estimates[m][i]
            row.append("-" if e is None else f"{e:.2f}")
        rows.append(row)
    print(table(["app", "actual"] + [f"{m}" for m in models], rows))
    for m in models:
        print(f"{m:5s} mean error: {pct(res.mean_error(m))}")
    print(f"\nunfairness {res.actual_unfairness:.2f}   "
          f"H-speedup {res.actual_hspeedup:.3f}")
    print("paper reference (30 four-app workloads): "
          "DASE 11.4%, MISE 62.6%, ASM 58%")

    print("\nNow with DASE-Fair managing the partition ...")
    policy = DASEFairPolicy(config)
    fair = run_workload(names, config=config, models=(), policy=policy)
    print(f"final SM partition: {fair.final_sm_partition}  "
          f"(decisions: {len(policy.decisions)})")
    print(f"unfairness {fair.actual_unfairness:.2f}  "
          f"(was {res.actual_unfairness:.2f})   "
          f"H-speedup {fair.actual_hspeedup:.3f} "
          f"(was {res.actual_hspeedup:.3f})")


if __name__ == "__main__":
    main()
