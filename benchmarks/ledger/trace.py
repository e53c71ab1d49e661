"""Span recording for the ledger's traced pass.

:func:`install` wraps the public callables of every layer *at the attribute
each caller resolves* (class attributes for methods; every module namespace
that imported a function by name), :func:`uninstall` puts the originals
back.  Spans (name, start, end, parent, thread, job id) are kept in memory
and written once, at exit, as Chrome-trace JSON.  Nothing here edits the
program: the wrappers time calls from outside.

Targets that no longer exist are skipped, not failed, so API drift costs a
metric (it then reads 0) instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

#: Span name of the root the ledger opens around each measured pass.
PASS = "ledger.pass"

#: Share bucket for blocking-path time outside every wrapped call: the
#: benchmark's own driver code and, on serve_closed, the daemon's untraced
#: scheduling, journal and HTTP handling.
UNTRACED = "untraced"


def layer_of(name: str) -> str:
    """The layer (module) a span name belongs to."""
    if name == PASS:
        return UNTRACED
    head = name.split(".")
    return ".".join(head[:2]) if head[0] == "harness" else head[0]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: int = 0
    job: str | None = None
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store with one span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tids: dict[int, int] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, job: str | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        ident = threading.get_ident()
        with self._lock:
            tid = self._tids.setdefault(ident, len(self._tids))
            if job is None and parent is not None:
                job = self.spans[parent].job
            self.spans.append(Span(name, time.perf_counter(), parent=parent,
                                   thread=tid, job=job))
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack().pop()
        return span

    # ----------------------------------------------------------- analysis

    def members(self, root: int) -> list[int]:
        """Spans belonging to one pass: its descendants plus every span of
        another thread that ran inside its time window."""
        lo, hi = self.spans[root].start, self.spans[root].end
        return [
            i for i, s in enumerate(self.spans)
            if i != root and s.end and lo <= s.start and s.end <= hi
        ]

    def self_times(self, members: list[int]) -> dict[int, float]:
        """Span duration minus the part its direct children cover."""
        out = {i: self.spans[i].dur for i in members}
        for i in members:
            parent = self.spans[i].parent
            if parent in out:
                out[parent] -= self.spans[i].dur
        return out

    def shares(self, root: int) -> dict[str, float]:
        """Self-time share of the pass per layer, along the blocking thread.

        The blocking thread is the one whose top-level spans cover most of
        the pass (the main thread inline, the daemon's scheduler thread on
        serve_closed); other threads overlap it and are left out.  The
        remainder of the pass is :data:`UNTRACED`, so shares sum to 1.
        """
        wall = self.spans[root].dur
        members = self.members(root)
        own = self.self_times(members)
        tops: dict[int, float] = defaultdict(float)
        for i in members:
            s = self.spans[i]
            if s.parent is None or s.parent == root:
                tops[s.thread] += s.dur
        if not tops or wall <= 0:
            return {UNTRACED: 1.0}
        blocking = max(tops, key=tops.get)
        out: dict[str, float] = defaultdict(float)
        for i in members:
            if self.spans[i].thread == blocking:
                out[layer_of(self.spans[i].name)] += own[i] / wall
        out[UNTRACED] += 1.0 - tops[blocking] / wall
        return dict(out)

    def chrome_trace(self) -> dict[str, Any]:
        t0 = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name, "cat": layer_of(s.name), "ph": "X",
                "pid": 1, "tid": s.thread,
                "ts": (s.start - t0) * 1e6, "dur": s.dur * 1e6,
                "args": {"id": i, "parent": s.parent, "job": s.job, **s.meta},
            }
            for i, s in enumerate(self.spans) if s.end
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


# ------------------------------------------------------------------ wrappers


def _sim_counts(gpu) -> tuple[int, int, int]:
    """(instructions, DRAM requests served, clock) of one GPU so far."""
    return (
        sum(p.instructions for p in gpu.progress),
        sum(a.requests_served for a in gpu.mem_stats.apps),
        gpu.engine.now,
    )


def _wrap(tracer: Tracer, fn: Callable, name: str, *,
          job_of: Callable | None = None,
          before: Callable | None = None,
          after: Callable | None = None) -> Callable:
    """``fn`` timed as span ``name``.  ``job_of(args, kwargs)`` names the
    unit of work; ``before(args)`` → state, ``after(span, state, args,
    result)`` attaches counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        job = job_of(args, kwargs) if job_of is not None else None
        state = before(args) if before is not None else None
        index = tracer.begin(name, job)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            span = tracer.end(index)
            if after is not None:
                after(span, state, args, result)

    return wrapper


def _gpu_before(args):
    try:
        return _sim_counts(args[0])
    except (AttributeError, IndexError):
        return None


def _gpu_after(span, state, args, result):
    if state is None:
        return
    now = _sim_counts(args[0])
    span.meta.update(instructions=now[0] - state[0],
                     dram_requests=now[1] - state[1],
                     cycles=now[2] - state[2])


def _workload_job(args, kwargs):
    apps = args[0] if args else kwargs.get("apps", ())
    config = kwargs.get("config") or (args[1] if len(args) > 1 else None)
    key = "+".join(a if isinstance(a, str) else a.name for a in apps)
    seed = getattr(config, "seed", None)
    return key if seed is None else f"{key}@{seed}"


def _cache_after(span, state, args, result):
    span.meta["hit"] = result is not None


def _policy_before(args):
    return len(getattr(args[0], "decisions", ()))


def _policy_after(span, state, args, result):
    span.meta["migrations"] = len(getattr(args[0], "decisions", ())) - state


def _submit_after(span, state, args, result):
    if isinstance(result, dict):
        span.job = result.get("job")
        span.meta["deduped"] = bool(result.get("deduped"))


#: (module, owner class or None, attribute, span name, wrapper extras).
#: A function imported by name elsewhere is listed once per namespace.
_TARGETS: list[tuple[str, str | None, str, str, dict]] = [
    ("repro.sim.gpu", "GPU", "run", "sim.run",
     {"before": _gpu_before, "after": _gpu_after}),
    ("repro.sim.gpu", "GPU", "run_until_instructions", "sim.replay",
     {"before": _gpu_before, "after": _gpu_after}),
    ("repro.core.dase", "DASE", "estimate_interval", "core.dase.estimate", {}),
    ("repro.core.mise", "MISE", "estimate_interval", "core.mise.estimate", {}),
    ("repro.core.asm", "ASM", "estimate_interval", "core.asm.estimate", {}),
    ("repro.policies.sm_alloc", "DASEFairPolicy", "on_interval",
     "policies.dase_fair.on_interval",
     {"before": _policy_before, "after": _policy_after}),
    ("repro.harness.replay_cache", "AloneReplayCache", "get",
     "harness.replay_cache.get", {"after": _cache_after}),
    ("repro.harness.replay_cache", "AloneReplayCache", "put",
     "harness.replay_cache.put", {}),
    ("repro.harness.checkpoint", "SweepCheckpoint", "record",
     "harness.checkpoint.record", {}),
    ("repro.harness.checkpoint", "SweepCheckpoint", "load",
     "harness.checkpoint.load", {}),
    ("repro.store.records", "ResultStore", "record", "store.record", {}),
    ("repro.store.records", "ResultStore", "load", "store.load", {}),
    ("repro.service.queue", "AdmissionQueue", "submit",
     "service.queue.submit", {}),
    ("repro.service.queue", "AdmissionQueue", "next",
     "service.queue.next", {}),
    ("repro.service.queue", "AdmissionQueue", "complete",
     "service.queue.complete", {}),
    ("repro.service.protocol", None, "parse_submit",
     "service.protocol.parse", {}),
    ("repro.service.client", "ServiceClient", "submit",
     "service.client.submit", {"after": _submit_after}),
    ("repro.service.client", "ServiceClient", "status",
     "service.client.status", {}),
    ("repro.service.client", "ServiceClient", "health",
     "service.client.health", {}),
    ("repro.obs.bus", "WorkerChannel", "record", "obs.bus.record", {}),
    ("repro.harness.figures", None, "run_figure",
     "harness.figures.run_figure", {}),
] + [
    (module, None, "run_workload", "harness.runner.run_workload",
     {"job_of": _workload_job})
    for module in ("repro.harness.runner", "repro.harness.parallel",
                   "repro.harness.experiments", "repro.harness")
] + [
    (module, None, "run_jobs", "harness.parallel.run_jobs", {})
    for module in ("repro.harness.parallel", "repro.harness.experiments",
                   "repro.harness")
]


class Installer:
    """Puts the wrappers in place and takes them out again."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[Any, str, Any]] = []
        #: Targets that could not be resolved (API drift), for the report.
        self.skipped: list[str] = []

    def install(self) -> None:
        # One wrapper per original, however many namespaces hold it, so a
        # call is one span whichever name the caller used.
        wrapped: dict[int, Callable] = {}
        for module, owner, attr, name, extras in _TARGETS:
            try:
                holder = importlib.import_module(module)
                if owner is not None:
                    holder = getattr(holder, owner)
                original = holder.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.skipped.append(f"{module}:{owner or ''}.{attr}")
                continue
            if id(original) not in wrapped:
                wrapped[id(original)] = _wrap(
                    self.tracer, original, name, **extras
                )
            setattr(holder, attr, wrapped[id(original)])
            self._undo.append((holder, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)
