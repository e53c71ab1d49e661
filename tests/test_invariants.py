"""Property-based invariants of the whole simulator.

Hypothesis generates random kernel mixes and partitionings; every run must
satisfy conservation and accounting laws regardless of the workload.
"""

from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import GPUConfig
from repro.obs import Observation
from repro.obs.tracer import PID_ICNT_REPLY, PID_ICNT_REQUEST
from repro.sim.gpu import GPU
from repro.sim.kernel import AccessPattern, KernelSpec
from repro.workloads.suite import SUITE

CFG = GPUConfig(n_sms=4, n_partitions=2, interval_cycles=4_000)


kernel_strategy = st.builds(
    KernelSpec,
    name=st.just("k"),
    compute_per_mem=st.integers(min_value=0, max_value=60),
    pattern=st.sampled_from(list(AccessPattern)),
    warps_per_block=st.integers(min_value=1, max_value=8),
    insts_per_warp=st.integers(min_value=10, max_value=500),
    reuse_fraction=st.floats(min_value=0.0, max_value=0.9),
    hot_set_lines=st.integers(min_value=8, max_value=2048),
    working_set_lines=st.integers(min_value=64, max_value=1 << 14),
    accesses_per_mem_inst=st.integers(min_value=1, max_value=3),
    max_resident_blocks=st.one_of(st.none(), st.integers(1, 4)),
)


def run_random_gpu(kernels, cycles=8_000):
    gpu = GPU(CFG, kernels)
    gpu.run(cycles)
    return gpu


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.lists(kernel_strategy, min_size=1, max_size=3))
def test_property_conservation_laws(kernels):
    gpu = run_random_gpu(kernels)
    now = gpu.engine.now
    for app in range(gpu.n_apps):
        m = gpu.mem_stats.apps[app]
        # L2 accesses split exactly into hits and misses.
        assert m.l2_hits >= 0 and m.l2_misses >= 0
        # Misses are conserved as served + outstanding DRAM requests.
        assert m.l2_misses == m.requests_served + gpu.mem_stats.outstanding(app)
        # Row hits + row misses = requests scheduled into banks.
        assert m.row_hits + m.row_misses >= m.requests_served
        # Extra row-buffer misses are a subset of row misses.
        assert m.erb_miss <= m.row_misses
        # Data-bus occupancy: burst × requests dispatched so far, which is
        # bounded by served (complete) and served + in-flight.
        burst = CFG.time_per_request
        in_flight = gpu.mem_stats.outstanding(app)
        assert m.requests_served * burst <= m.data_bus_time
        assert m.data_bus_time <= (m.requests_served + in_flight) * burst
        # Time integrals are bounded by elapsed time × structural capacity.
        assert m.outstanding_time <= now + 1e-6
        assert m.executing_bank_integral <= (
            now * CFG.n_partitions * CFG.n_banks + 1e-6
        )
        assert m.demanded_bank_integral >= m.executing_bank_integral - 1e-6


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.lists(kernel_strategy, min_size=1, max_size=3))
def test_property_sm_time_accounting(kernels):
    gpu = run_random_gpu(kernels)
    now = gpu.engine.now
    counts = gpu.sm_counts()
    for app in range(gpu.n_apps):
        c = gpu.sm_counters[app]
        # busy + stall never exceeds wall time × owned SMs.
        assert c.busy_time + c.stall_time <= c.sm_time + 1e-6
        assert c.sm_time <= now * CFG.n_sms + 1e-6
        assert 0.0 <= c.alpha <= 1.0
        # Issued instructions bounded by busy issue slots.
        assert c.instructions <= c.busy_time * CFG.issue_width + CFG.n_sms * 200


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    st.lists(kernel_strategy, min_size=2, max_size=2),
    st.integers(min_value=1, max_value=3),
)
def test_property_partition_ownership_is_total(kernels, first_share):
    gpu = GPU(CFG, kernels, sm_partition=[first_share, CFG.n_sms - first_share])
    gpu.run(6_000)
    owned = [sm.app for sm in gpu.sms]
    assert all(o in (0, 1) for o in owned)
    assert sum(1 for o in owned if o == 0) == first_share


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.lists(kernel_strategy, min_size=1, max_size=2), st.integers(0, 2**16))
def test_property_determinism_across_replays(kernels, seed):
    import dataclasses

    cfg = dataclasses.replace(CFG, seed=seed)
    outcomes = []
    for _ in range(2):
        gpu = GPU(cfg, kernels)
        gpu.run(6_000)
        outcomes.append(
            (
                tuple(p.instructions for p in gpu.progress),
                tuple(a.requests_served for a in gpu.mem_stats.apps),
                tuple(a.row_hits for a in gpu.mem_stats.apps),
            )
        )
    assert outcomes[0] == outcomes[1]


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.lists(kernel_strategy, min_size=2, max_size=3))
def test_property_interval_records_partition_time(kernels):
    gpu = run_random_gpu(kernels, cycles=12_000)
    assert len(gpu.interval_history) == 3
    for row in gpu.interval_history:
        for rec in row:
            assert rec.cycles == 4_000
            assert rec.tb_running >= 0
            assert rec.tb_unfinished >= rec.tb_running or rec.tb_unfinished >= 0
            assert rec.ellc_miss >= 0.0


def test_traced_counters_count_each_event_once():
    """A counter that is an event's only count counts it exactly once: in a
    traced SD+SB run whose ring drops nothing, each app's L2 hits and misses
    are its ``l2.probe`` events split by their ``hit`` arg, and each
    crossbar's packets are its ``icnt.pkt`` events."""
    obs = Observation()
    gpu = GPU(GPUConfig(interval_cycles=5_000), [SUITE["SD"], SUITE["SB"]],
              obs=obs)
    gpu.run(20_000)
    assert obs.tracer.dropped == 0
    probes: Counter = Counter()
    packets: Counter = Counter()
    for _ts, _ph, name, pid, _tid, _dur, args in obs.tracer.events():
        if name == "l2.probe":
            probes[pid, args["hit"]] += 1
        elif name == "icnt.pkt":
            packets[pid] += 1
    for app in range(gpu.n_apps):
        m = gpu.mem_stats.apps[app]
        assert (m.l2_hits, m.l2_misses) == (probes[app, 1], probes[app, 0])
        assert m.l2_misses > 0
    assert gpu.xbar_request.total_packets == packets[PID_ICNT_REQUEST] > 0
    assert gpu.xbar_reply.total_packets == packets[PID_ICNT_REPLY] > 0
