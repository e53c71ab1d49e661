"""Workload-independent micro-shapes, measured once per traced run.

The four ``sim`` shapes are *copied* from ``benchmarks/bench_sim.py`` rather
than imported, so later edits there cannot move this benchmark.  Every
function returns raw seconds (or a ratio); the caller calibrates.
Optional layers are probed: a missing backend or NumPy drops the metric
(it then reads 0), it never fails the run.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable


def _timed(fn: Callable[[], object]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def engine_sparse(events: int = 60_000) -> float:
    """Seconds per event, one event per cycle (heap-dominated)."""
    from repro.sim.engine import Engine

    eng = Engine()
    count = 0

    def tick():
        nonlocal count
        count += 1
        if count < events:
            eng.schedule(1, tick)

    eng.schedule(0, tick)
    return _timed(eng.run) / events


def engine_burst(events: int = 20_000) -> float:
    """Seconds per event at ~10 events per cycle (bucket-FIFO-dominated),
    the shape simulated workloads produce."""
    from repro.sim.engine import Engine

    eng = Engine()
    count = 0

    def tick():
        nonlocal count
        count += 1
        if count < events:
            eng.schedule(1 + (count % 10 == 0), tick)

    for _ in range(10):
        eng.schedule(0, tick)
    return _timed(eng.run) / events


def alone_run(app: str, cycles: int = 30_000, backend: str = "reference",
              partner: str | None = None) -> float:
    """Seconds for one app (or a pair) on the whole GPU: QR is
    compute-bound (SM burst machinery), SD saturates DRAM."""
    from repro import GPU
    from repro.harness import scaled_config
    from repro.workloads import SUITE

    kernels = [SUITE[app]] + ([SUITE[partner]] if partner else [])
    gpu = GPU(scaled_config(backend=backend), kernels)
    return _timed(lambda: gpu.run(cycles))


def vectorized_ratio() -> float | None:
    """SD+SB 30k shared run, vectorized ÷ reference; None when the
    backend (or NumPy under it) is absent."""
    try:
        from repro.sim.backends import backend_available
    except ImportError:
        return None
    if not backend_available("vectorized"):
        return None
    reference = alone_run("SD", partner="SB")
    return alone_run("SD", backend="vectorized", partner="SB") / reference


def store_roundtrip(directory: str, repeats: int = 5) -> dict[str, float]:
    """Median seconds of a first record, a same-content re-record and a
    load, on a fresh store with a fig3-shaped payload."""
    from repro.store import PAYLOAD_SCHEMAS, ResultStore, scenario_for

    store = ResultStore(directory)
    first, again, load = [], [], []
    for seed in range(repeats):
        spec = scenario_for("fig3", seed=seed)
        payload = {"points": [[float(i), i / 7.0] for i in range(7)],
                   "correlation": 0.99 - seed * 1e-3}
        schema = PAYLOAD_SCHEMAS["fig3"]
        rec = None

        def record():
            nonlocal rec
            rec = store.record(spec, payload, schema)

        first.append(_timed(record))
        again.append(_timed(record))
        load.append(_timed(lambda: store.load(rec.record_id)))
    return {"record": statistics.median(first),
            "record_dedup": statistics.median(again),
            "load": statistics.median(load)}


def parse_submit(repeats: int = 300) -> float:
    """Seconds per ``parse_submit`` of one workload submission."""
    from repro.service import SCHEMA, parse_submit as parse

    body = {"schema": SCHEMA, "tenant": "t0", "kind": "workload",
            "spec": {"apps": ["SD", "SB"], "cycles": 24_000, "seed": 7}}
    return _timed(lambda: [parse(body) for _ in range(repeats)]) / repeats


def queue_costs(policy: str, tenants: int = 16, depth: int = 16,
                decisions: int = 200) -> dict[str, float]:
    """Seconds per ``submit`` and per ``next`` with ``tenants * depth``
    (256) requests pending: each decision is followed by a completion and
    a fresh submission, so the backlog stays at that size."""
    from repro.service import AdmissionQueue

    queue = AdmissionQueue(policy)
    n = 0
    submit_s = 0.0
    for t in range(tenants):
        for _ in range(depth):
            submit_s += _timed(lambda: queue.submit(f"t{t}", f"j{n}"))
            n += 1
    decide_s = 0.0
    for _ in range(decisions):
        t0 = time.perf_counter()
        entry = queue.next()
        decide_s += time.perf_counter() - t0
        queue.complete(entry)
        queue.submit(entry.tenant, f"j{n}")
        n += 1
    return {"submit": submit_s / (tenants * depth),
            "decide": decide_s / decisions}
