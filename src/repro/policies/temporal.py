"""Background-section baselines: temporal multitasking and LEFTOVER.

The paper's §2.2 contrasts spatial multitasking with what GPUs otherwise
offer: *temporal* multitasking (time-slice the whole GPU) and the
*LEFTOVER* policy ("launch a next kernel only when there are enough
remaining resources", which in practice serializes kernels).  These
policies let the benchmarks quantify the motivation: spatial sharing with
fair SM allocation beats both.

Implementation notes: the simulator requires every resident application to
hold at least one SM, so "temporal" here is *near*-temporal — the active
application holds all SMs but one.  Switches use SM draining like every
other reallocation, so a switch costs the drain time of the outgoing
application's resident blocks (the real cost the paper's preemption
citations, e.g. Chimera, try to reduce).
"""

from __future__ import annotations

from repro.config import GPUConfig
from repro.policies.sm_alloc import AllocationPolicy
from repro.sim.gpu import GPU
from repro.sim.stats import IntervalRecord


class TimeSlicePolicy(AllocationPolicy):
    """Near-temporal multitasking: rotate (almost) the whole GPU among
    applications every ``quantum_intervals`` estimation intervals."""

    name = "time-slice"

    def __init__(self, config: GPUConfig, quantum_intervals: int = 2) -> None:
        if quantum_intervals < 1:
            raise ValueError("quantum must be at least one interval")
        self.config = config
        self.quantum_intervals = quantum_intervals
        self.active = 0
        self.switches: list[tuple[int, int]] = []  # (cycle, new active app)
        self._intervals_since_switch = 0
        self._applied_initial = False

    def _switch_to(self, active: int) -> None:
        gpu = self.gpu
        n = gpu.n_apps
        counts = gpu.sm_counts()
        target = [1] * n
        target[active] = self.config.n_sms - (n - 1)
        for app in range(n):
            surplus = counts[app] - target[app]
            if surplus > 0:
                gpu.migrate_sms(app, active, surplus)

    def on_interval(self, records: list[IntervalRecord]) -> None:
        gpu = self.gpu
        if not self._applied_initial:
            self._applied_initial = True
            self._switch_to(self.active)
            self.switches.append((gpu.engine.now, self.active))
            return
        if any(sm.draining for sm in gpu.sms):
            return  # previous switch still in flight
        self._intervals_since_switch += 1
        if self._intervals_since_switch < self.quantum_intervals:
            return
        self._intervals_since_switch = 0
        self.active = (self.active + 1) % gpu.n_apps
        self.switches.append((gpu.engine.now, self.active))
        self._switch_to(self.active)


def leftover_partition(config: GPUConfig, specs, restart: bool = True) -> list[int]:
    """LEFTOVER-style launch partition (paper §2.2).

    The first kernel occupies as much of the GPU as its grid can fill
    (everything, for the common larger-than-GPU grid); each later kernel
    gets what is left — at least the one SM the simulator requires so the
    workload remains runnable.  This is the near-serialization the paper
    criticizes: the first application monopolizes the GPU.

    ``specs``: the kernel specs in launch order.  ``restart=False`` lets a
    small grid leave genuine leftovers, the one case LEFTOVER handles well.
    """
    n = len(specs)
    if n < 1:
        raise ValueError("need at least one kernel")
    remaining = config.n_sms
    counts = [0] * n
    for i, spec in enumerate(specs):
        later_min = n - i - 1  # one SM reserved for each later kernel
        avail = remaining - later_min
        if restart:
            want = avail
        else:
            per_sm = min(
                config.max_blocks_per_sm,
                config.max_warps_per_sm // spec.warps_per_block,
            )
            if spec.max_resident_blocks is not None:
                per_sm = min(per_sm, spec.max_resident_blocks)
            want = min(avail, max(1, -(-spec.blocks_total // max(1, per_sm))))
        counts[i] = max(1, want)
        remaining -= counts[i]
    return counts
