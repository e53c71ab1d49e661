"""Crossbar interconnect (paper Table 2: one crossbar per direction).

Each direction is modelled as one output port per destination: a packet
occupies its destination port for ``packet_cycles`` (serialization) and
then takes ``latency`` cycles of wire time.  Ports are work-conserving
FIFOs, so bursts to one memory partition queue up even when the rest of
the crossbar is idle — the "Local-RR" arbitration of the baseline reduces
to FIFO order at the per-destination granularity we model.

At the baseline's traffic levels the crossbar is far from saturation
(~20% port utilization when DRAM is saturated), so it adds realistic
burst-queueing without becoming the bottleneck — matching the paper's
focus on DRAM-level interference.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.engine import _NO_ARG, Engine


class Crossbar:
    """One direction of the interconnect: ``n_ports`` output ports.

    Port state lives in parallel plain lists rather than per-port objects:
    ``send`` runs once per packet on the memory hot path, and indexed list
    reads/writes are measurably cheaper than attribute access on a port
    object.
    """

    __slots__ = (
        "engine", "_schedule", "latency", "packet_cycles",
        "_free_at", "_busy_time", "_trace", "_trace_pid",
    )

    def __init__(
        self, engine: Engine, n_ports: int, latency: int, packet_cycles: int,
        tracer: Any = None, trace_pid: int = 0,
    ) -> None:
        if n_ports < 1:
            raise ValueError("need at least one port")
        if packet_cycles < 1:
            raise ValueError("a packet occupies its port for at least a cycle")
        self.engine = engine
        self._schedule = engine.schedule  # cached bound method (hot path)
        self.latency = latency
        self.packet_cycles = packet_cycles
        self._free_at = [0] * n_ports
        self._busy_time = [0] * n_ports
        # Observability (repro.obs.EventTracer or None); ``trace_pid`` names
        # this crossbar's direction in the exported trace.  Disabled path is
        # one attribute check in :meth:`send`.
        self._trace = tracer
        self._trace_pid = trace_pid

    def send(self, port: int, deliver: Callable, arg: Any = _NO_ARG) -> int:
        """Enqueue one packet on ``port``; ``deliver(arg)`` (or
        ``deliver()``) fires on arrival.  Returns the delivery cycle.

        Hot-path callers pass a bound method plus payload so no closure is
        allocated per packet (see :mod:`repro.sim.engine`).
        """
        now = self.engine.now
        packet_cycles = self.packet_cycles
        free_list = self._free_at
        free_at = free_list[port]
        start = now if now > free_at else free_at
        free_list[port] = free_at = start + packet_cycles
        self._busy_time[port] += packet_cycles
        arrival = free_at + self.latency
        if self._trace is not None:
            # The slice covers port occupancy (serialization), not wire time.
            self._trace.complete(
                "icnt.pkt", start, packet_cycles, self._trace_pid, port
            )
        self._schedule(arrival - now, deliver, arg)
        return arrival

    def utilization(self, now: int) -> float:
        """Mean fraction of port-time spent transmitting."""
        if now <= 0:
            return 0.0
        return sum(min(b, now) for b in self._busy_time) / (
            now * len(self._busy_time)
        )

    @property
    def total_packets(self) -> int:
        """Packets sent: every one occupied its port for ``packet_cycles``."""
        return sum(self._busy_time) // self.packet_cycles
