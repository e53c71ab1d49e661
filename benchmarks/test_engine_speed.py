"""Sweep fan-out speed: a warm pooled sweep against the serial path
(DESIGN.md §5).  Simulator micro-shapes are the perf ledger's
(``benchmarks/ledger/micro.py``), gated change-against-parent by
``benchmarks/parent_gate.py``.
"""

import time

from repro.harness import scaled_config
from repro.harness.experiments import DEFAULT_PAIRS, estimation_accuracy


def test_parallel_warm_sweep_beats_serial(tmp_path):
    """Acceptance: a 10-pair error sweep with ``jobs=4`` on a warm
    alone-replay cache finishes in less wall time than the serial
    cache-less seed path, and produces identical numbers.

    The assertion is deliberately loose (strictly faster, no margin):
    worker start-up costs are real, and the point is that fan-out plus
    replay memoisation is a net win, not a precise speed-up factor.
    """
    cfg = scaled_config()
    pairs = DEFAULT_PAIRS[:10]
    cycles = 30_000
    kw = dict(config=cfg, shared_cycles=cycles, models=("DASE",))

    t0 = time.perf_counter()
    serial = estimation_accuracy(pairs, **kw)
    serial_s = time.perf_counter() - t0

    # Warm the on-disk cache, then time the pooled warm-cache sweep.
    estimation_accuracy(pairs, jobs=4, cache_dir=str(tmp_path), **kw)
    t0 = time.perf_counter()
    warm = estimation_accuracy(pairs, jobs=4, cache_dir=str(tmp_path), **kw)
    warm_s = time.perf_counter() - t0

    assert warm.per_workload == serial.per_workload  # determinism contract
    assert warm_s < serial_s, (
        f"warm parallel sweep ({warm_s:.2f}s) not faster than the serial "
        f"seed path ({serial_s:.2f}s)"
    )
