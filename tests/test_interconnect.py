"""Unit tests for the crossbar interconnect."""

import pytest

from repro.sim.engine import Engine
from repro.sim.interconnect import Crossbar


class TestPort:
    """One port of a one-port crossbar: FIFO serialization + wire latency."""

    def test_single_packet_takes_serialization_plus_latency(self):
        eng = Engine()
        xbar = Crossbar(eng, n_ports=1, latency=20, packet_cycles=2)
        arrivals = []
        t = xbar.send(0, lambda: arrivals.append(eng.now))
        assert t == 22
        eng.run()
        assert arrivals == [22]

    def test_back_to_back_packets_serialize(self):
        eng = Engine()
        xbar = Crossbar(eng, n_ports=1, latency=20, packet_cycles=2)
        t1 = xbar.send(0, lambda: None)
        t2 = xbar.send(0, lambda: None)
        t3 = xbar.send(0, lambda: None)
        assert t2 - t1 == 2
        assert t3 - t2 == 2

    def test_idle_gap_resets_serialization(self):
        eng = Engine()
        xbar = Crossbar(eng, n_ports=1, latency=10, packet_cycles=4)
        xbar.send(0, lambda: None)
        eng.run()  # drain
        t = xbar.send(0, lambda: None)
        assert t == eng.now + 14

    def test_counters(self):
        eng = Engine()
        xbar = Crossbar(eng, n_ports=1, latency=10, packet_cycles=3)
        xbar.send(0, lambda: None)
        xbar.send(0, lambda: None)
        assert xbar.total_packets == 2
        assert xbar.utilization(12) == pytest.approx(6 / 12)  # busy 6


class TestCrossbar:
    def test_ports_are_independent(self):
        eng = Engine()
        xbar = Crossbar(eng, n_ports=2, latency=20, packet_cycles=5)
        t0 = xbar.send(0, lambda: None)
        t1 = xbar.send(1, lambda: None)
        assert t0 == t1  # no cross-port contention

    def test_same_port_contends(self):
        eng = Engine()
        xbar = Crossbar(eng, n_ports=2, latency=20, packet_cycles=5)
        t0 = xbar.send(0, lambda: None)
        t1 = xbar.send(0, lambda: None)
        assert t1 - t0 == 5

    def test_utilization(self):
        eng = Engine()
        xbar = Crossbar(eng, n_ports=2, latency=0, packet_cycles=10)
        xbar.send(0, lambda: None)
        eng.run()
        assert xbar.utilization(20) == pytest.approx(10 / 40)
        assert xbar.total_packets == 1

    def test_zero_packet_cycles_rejected(self):
        # total_packets is read off the ports' busy time, one packet per
        # packet_cycles of it, so a packet must occupy its port.
        with pytest.raises(ValueError):
            Crossbar(Engine(), n_ports=1, latency=20, packet_cycles=0)

    def test_zero_ports_rejected(self):
        with pytest.raises(ValueError):
            Crossbar(Engine(), 0, 1, 1)


class TestIntegration:
    def test_gpu_crossbar_carries_all_traffic(self):
        from repro.config import GPUConfig
        from repro.sim.gpu import GPU
        from repro.sim.kernel import KernelSpec

        cfg = GPUConfig(interval_cycles=5_000)
        gpu = GPU(cfg, [KernelSpec("k", compute_per_mem=5, warps_per_block=4)])
        gpu.run(10_000)
        m = gpu.mem_stats.apps[0]
        accesses = m.l2_hits + m.l2_misses
        # Every partition access travelled the request crossbar (packets
        # still in flight make the packet count ≥ the arrival count).
        assert gpu.xbar_request.total_packets >= accesses > 0
        # Replies: at most one per request.
        assert gpu.xbar_reply.total_packets <= gpu.xbar_request.total_packets
        assert 0.0 < gpu.xbar_request.utilization(gpu.engine.now) < 1.0

    def test_crossbar_not_the_bottleneck_at_baseline(self):
        """DRAM saturates long before the crossbar (paper's premise that
        memory is where interference lives)."""
        from repro.config import GPUConfig
        from repro.sim.gpu import GPU
        from repro.workloads import SUITE

        cfg = GPUConfig(interval_cycles=10_000)
        gpu = GPU(cfg, [SUITE["SB"]])
        gpu.run(30_000)
        assert gpu.bandwidth_utilization() > 0.6  # DRAM near saturation
        assert gpu.xbar_request.utilization(gpu.engine.now) < 0.5
