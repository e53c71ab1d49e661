#!/usr/bin/env python3
"""Compare DASE against the MISE and ASM baselines on a mix of workloads
(the Fig. 5 experiment, on a small sample).

    python examples/model_comparison.py [pair ...]

e.g. ``python examples/model_comparison.py SD+SB QR+SB NN+VA``.
Takes ~2-3 min with the defaults.
"""

import sys

from repro.harness import run_workload
from repro.obs.report import pct, table
from repro.workloads import APP_NAMES


def parse_pairs(args: list[str]) -> list[tuple[str, str]]:
    if not args:
        return [("SD", "SB"), ("QR", "SB"), ("NN", "VA"), ("CT", "QR")]
    pairs = []
    for a in args:
        parts = tuple(a.split("+"))
        if len(parts) != 2 or any(p not in APP_NAMES for p in parts):
            raise SystemExit(
                f"bad workload {a!r}; use NAME+NAME with names from {APP_NAMES}"
            )
        pairs.append(parts)
    return pairs


def main() -> None:
    pairs = parse_pairs(sys.argv[1:])
    models = ("DASE", "MISE", "ASM")
    rows = []
    errors = {m: [] for m in models}
    for pair in pairs:
        res = run_workload(list(pair), models=models)
        for i, name in enumerate(res.names):
            row = [f"{name} (in {'+'.join(pair)})",
                   f"{res.actual_slowdowns[i]:.2f}"]
            for m in models:
                e = res.estimates[m][i]
                row.append("-" if e is None else f"{e:.2f}")
            rows.append(row)
        for m in models:
            errors[m].extend(res.errors(m))
        print(f"done {'+'.join(pair)}", flush=True)

    print()
    print(table(["application", "actual"] + [f"{m} est" for m in models], rows))
    print()
    for m in models:
        mean_err = sum(errors[m]) / len(errors[m])
        print(f"{m:5s} mean estimation error: {pct(mean_err)}")
    print("\nPaper reference (full 105-pair sweep, GPGPU-Sim): "
          "DASE 8.8%, MISE 36.3%, ASM 32.8%")


if __name__ == "__main__":
    main()
