"""Structured event tracer: a bounded ring buffer of simulator events.

The tracer records the per-event story the interval counters average away:
DRAM request lifecycles (enqueue → bank issue → row hit/miss → reply), L2
probe outcomes, SM stall slices, interconnect packets, interval boundaries
and SM migrations.  Events live in a fixed-capacity ring, so a trace of an
arbitrarily long run is bounded memory — once the ring wraps, the oldest
events are overwritten and counted in :attr:`EventTracer.dropped`.

Emission is designed for the simulator's hot path: each instrumented site
holds a direct reference to the tracer (or ``None`` when tracing is off),
so the *disabled* path is a single ``is not None`` check — no dict lookup,
no call, no allocation.  The tracer itself never touches simulator state,
RNG, or counters: with tracing enabled the simulation is bit-identical to
a run without it.

Event model (mirrors the Chrome ``trace_event`` phases the exporter emits):

* ``instant``  — a point event (``ph="i"``): enqueues, replies, markers;
* ``complete`` — a slice with a duration (``ph="X"``): DRAM service, SM
  stall windows, interconnect packet transfers;
* ``counter``  — a named numeric series sample (``ph="C"``): IPC, α,
  slowdown estimates, SM counts at interval boundaries.

Timestamps are simulated core cycles (exported as microseconds, 1 cycle =
1 µs, so Perfetto renders cycle counts directly).  ``pid`` identifies the
emitting entity — application index for per-app events, or one of the
:data:`PID_SIM`/:data:`PID_ICNT_REQUEST`/:data:`PID_ICNT_REPLY` pseudo
processes — and ``tid`` the sub-entity (SM id, partition, bank track).
See ``docs/observability.md`` for the full taxonomy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.obs.telemetry import Telemetry

#: Default ring capacity (events). ~7 tuple slots per event keeps even a
#: full ring in the tens of MB.
DEFAULT_CAPACITY = 1 << 18

# Pseudo process ids (application events use the app index as pid).
PID_SIM = 4096  #: global simulator events: intervals, migrations
PID_ICNT_REQUEST = 4097  #: SM→partition crossbar
PID_ICNT_REPLY = 4098  #: partition→SM crossbar

# Thread-id bases, per pid namespace (documented in docs/observability.md):
TID_SM_BASE = 0  #: tid = SM id for sm.* events
TID_PART_BASE = 500  #: tid = 500 + partition for L2/queue-level events
TID_BANK_BASE = 1000  #: tid = 1000 + partition * n_banks + bank


class EventTracer:
    """Fixed-capacity event ring with drop accounting.

    Events are stored as plain tuples ``(ts, ph, name, pid, tid, dur,
    args)`` — scalars only, never references into live simulator objects
    (several hot-path objects are recycled through free-lists).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._buf: list[tuple] = []
        self._head = 0  # oldest slot once the ring has wrapped
        self.dropped = 0  # events overwritten after the ring filled
        self.n_emitted = 0
        # Engine dispatch statistics (bumped by the run loop when traced).
        self.engine_events = 0
        self.engine_max_bucket = 0
        # Topology metadata for exporters (set by the GPU on attach).
        self.topology: dict = {}

    # ------------------------------------------------------------- emission

    def _put(self, ev: tuple) -> None:
        self.n_emitted += 1
        buf = self._buf
        if len(buf) < self.capacity:
            buf.append(ev)
            return
        head = self._head
        buf[head] = ev
        self._head = head + 1 if head + 1 < self.capacity else 0
        self.dropped += 1

    def instant(
        self, name: str, ts: int, pid: int, tid: int, args: dict | None = None
    ) -> None:
        self._put((ts, "i", name, pid, tid, 0, args))

    def complete(
        self,
        name: str,
        ts: int,
        dur: int,
        pid: int,
        tid: int,
        args: dict | None = None,
    ) -> None:
        self._put((ts, "X", name, pid, tid, dur, args))

    def counter(self, name: str, ts: int, pid: int, args: dict) -> None:
        self._put((ts, "C", name, pid, 0, 0, args))

    # ------------------------------------------------------------- metadata

    def set_topology(self, **kw) -> None:
        """Record sim topology (n_apps, n_sms, n_partitions, n_banks,
        app_names) so exporters can name processes and threads."""
        self.topology.update(kw)

    # ----------------------------------------------------------------- reads

    def __len__(self) -> int:
        return len(self._buf)

    def events(self) -> list[tuple]:
        """Retained events in emission order (oldest surviving first)."""
        buf = self._buf
        head = self._head
        if head == 0:
            return list(buf)
        return buf[head:] + buf[:head]

    def counts_by_name(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for ev in self._buf:
            name = ev[2]
            out[name] = out.get(name, 0) + 1
        return dict(sorted(out.items()))

    def span(self) -> tuple[int, int]:
        """(first, last) timestamp among retained events (0, 0 if empty)."""
        if not self._buf:
            return (0, 0)
        evs = self.events()
        return (evs[0][0], max(ev[0] + ev[5] for ev in evs))

    def clear(self) -> None:
        self._buf.clear()
        self._head = 0
        self.dropped = 0
        self.n_emitted = 0
        self.engine_events = 0
        self.engine_max_bucket = 0


class Observation:
    """One run's observability bundle: registry + tracer (+ telemetry).

    Pass a fresh ``Observation`` to :func:`repro.harness.run_workload`
    (``trace=``) or :class:`repro.sim.gpu.GPU` (``obs=``) to record exactly
    one run.  ``run_workload`` builds the run's
    :class:`repro.obs.telemetry.Telemetry` on the bundle from that run's
    estimators, so the interval-granularity view and the event trace come
    from one recording; ``audit=True`` adds an
    :class:`repro.obs.audit.AuditLog` mirrored into the tracer.
    """

    def __init__(
        self, trace_capacity: int = DEFAULT_CAPACITY, audit: bool = False
    ) -> None:
        from repro.obs.audit import AuditLog
        from repro.obs.registry import MetricsRegistry

        self.registry = MetricsRegistry()
        self.tracer = EventTracer(trace_capacity)
        #: Set by run_workload when the bundle records its run.
        self.telemetry: "Telemetry | None" = None
        self.audit = AuditLog(tracer=self.tracer) if audit else None

    def finalize_run(self, gpu) -> None:
        """Publish end-of-run gauges readable only from the whole GPU."""
        reg = self.registry
        now = gpu.engine.now
        reg.gauge("run/cycles").set(now)
        reg.gauge("run/engine/events_dispatched").set(self.tracer.engine_events)
        reg.gauge("run/engine/max_bucket").set(self.tracer.engine_max_bucket)
        reg.gauge("run/trace/events_emitted").set(self.tracer.n_emitted)
        reg.gauge("run/trace/events_dropped").set(self.tracer.dropped)
        if self.audit is not None:
            reg.gauge("run/audit/model_records").set(
                len(self.audit.model_audits)
            )
            reg.gauge("run/audit/decision_records").set(
                len(self.audit.decision_audits)
            )
        reg.gauge("run/icnt/request_utilization").set(
            gpu.xbar_request.utilization(now)
        )
        reg.gauge("run/icnt/reply_utilization").set(
            gpu.xbar_reply.utilization(now)
        )
        for p in gpu.partitions:
            pre = f"run/part{p.pid}"
            reg.gauge(f"{pre}/busy_fraction").set(
                p.busy_time / now if now else 0.0
            )
            reg.gauge(f"{pre}/queue_length").set(p.queue_length())
        for app in range(gpu.n_apps):
            reg.gauge(f"run/app{app}/ipc").set(gpu.ipc(app))
            reg.gauge(f"run/app{app}/bandwidth_share").set(
                gpu.bandwidth_utilization(app)
            )
