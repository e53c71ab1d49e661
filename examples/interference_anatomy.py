#!/usr/bin/env python3
"""Anatomy of inter-application interference (the Fig. 2 study).

    python examples/interference_anatomy.py

Takes ~1-2 min.  Reproduces the motivation section: pair the sensitive SD
kernel with different co-runners, measure each application's slowdown and
unfairness, and decompose DRAM bandwidth into per-application data, wasted
(timing-constraint), and idle portions.  Also prints the DASE interference
breakdown (bank / row-buffer / cache terms) for the worst pair.
"""

from repro import GPU, GPUConfig
from repro.core import DASE
from repro.harness import scaled_config
from repro.harness.experiments import fig2_unfairness
from repro.obs.report import pct, render_fig2
from repro.workloads import SUITE


def main() -> None:
    res = fig2_unfairness()
    print(render_fig2(res))

    # Zoom into the worst combo with the DASE diagnostic breakdown.
    worst = max(res.unfairness, key=res.unfairness.get)
    names = worst.split("+")
    print(f"\nDASE interference breakdown for {worst} "
          "(per interval, victim app):")
    config = scaled_config()
    gpu = GPU(config, [SUITE[n] for n in names])
    dase = DASE(config)
    dase.attach(gpu)
    gpu.run(100_000)
    print(f"{'interval':>8} {'bank':>12} {'rowbuf':>12} {'cache':>12} "
          f"{'alpha':>6} {'est':>6}")
    for i, row in enumerate(dase.breakdowns):
        bd = row[0]
        if bd.mbb:
            print(f"{i:>8}  (classified MBB; request-ratio path)")
            continue
        print(f"{i:>8} {bd.time_bank:>12.0f} {bd.time_rowbuf:>12.0f} "
              f"{bd.time_cache:>12.0f} {bd.alpha:>6.2f} {bd.slowdown_all:>6.2f}")


if __name__ == "__main__":
    main()
