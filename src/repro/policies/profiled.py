"""Profile-based fairness policy (the Aguilera et al. [3, 4] approach).

The paper's §7 declines to compare against these policies because they
"are required isolated kernel profiling information to compute application
slowdowns" — which is unobtainable for data-dependent kernels.  In a
simulator we *can* obtain it, so this module implements the profiled
oracle as an upper-bound reference for DASE-Fair:

1. offline, profile each kernel alone at every SM count → IPC(s);
2. online, predict each application's slowdown under any partition as
   IPC(all SMs) / IPC(assigned SMs) — ignoring memory interference, which
   profiling alone cannot see;
3. pick the partition minimizing predicted unfairness.

Comparing DASE-Fair against this oracle quantifies how much of the
profile-based policies' benefit DASE achieves *without* profiling.
"""

from __future__ import annotations

from contextlib import closing

from repro.config import GPUConfig
from repro.policies.sm_alloc import AllocationPolicy, _partitions
from repro.sim.gpu import GPU, LaunchedKernel
from repro.sim.kernel import KernelSpec
from repro.sim.stats import IntervalRecord


def profile_kernel(
    spec: KernelSpec,
    config: GPUConfig,
    sm_counts: list[int] | None = None,
    cycles: int = 30_000,
    stream_id: int = 0,
) -> dict[int, float]:
    """Offline profile: alone IPC of ``spec`` at each SM count."""
    sm_counts = sm_counts or list(range(1, config.n_sms + 1))
    out: dict[int, float] = {}
    for n in sm_counts:
        with closing(GPU(config, [LaunchedKernel(spec, stream_id=stream_id)],
                         sm_partition=[n])) as gpu:
            gpu.run(cycles)
            out[n] = gpu.ipc(0)
    return out


class ProfiledFairPolicy(AllocationPolicy):
    """Static best partition from offline profiles, applied once."""

    name = "profiled-fair"

    def __init__(
        self,
        config: GPUConfig,
        profiles: list[dict[int, float]],
        improvement_margin: float = 0.02,
    ) -> None:
        if not profiles:
            raise ValueError("need one profile per application")
        for p in profiles:
            if not p or any(v <= 0 for v in p.values()):
                raise ValueError("profiles must map SM count → positive IPC")
        self.config = config
        self.profiles = profiles
        self.improvement_margin = improvement_margin
        self.decisions: list[tuple[int, tuple[int, ...]]] = []

    def predicted_slowdown(self, app: int, sms: int) -> float:
        """IPC(all SMs) / IPC(sms), interpolating missing SM counts."""
        prof = self.profiles[app]
        full = prof[max(prof)]
        if sms in prof:
            return max(1.0, full / prof[sms])
        below = max((s for s in prof if s < sms), default=None)
        above = min((s for s in prof if s > sms), default=None)
        if below is None:
            ipc = prof[above] * sms / above
        elif above is None:
            ipc = prof[below]
        else:
            frac = (sms - below) / (above - below)
            ipc = prof[below] + frac * (prof[above] - prof[below])
        return max(1.0, full / ipc)

    def best_partition(self) -> tuple[tuple[int, ...], float]:
        n = len(self.profiles)
        best, best_unf = None, float("inf")
        for cand in _partitions(self.config.n_sms, n):
            slow = [self.predicted_slowdown(a, s) for a, s in enumerate(cand)]
            unf = max(slow) / min(slow)
            if unf < best_unf:
                best, best_unf = cand, unf
        return best, best_unf

    def on_interval(self, records: list[IntervalRecord]) -> None:
        gpu = self.gpu
        if self.decisions or any(sm.draining for sm in gpu.sms):
            return  # static: decide once
        current = gpu.sm_counts()
        target, predicted = self.best_partition()
        slow = [self.predicted_slowdown(a, s) for a, s in enumerate(current)]
        current_unf = max(slow) / min(slow)
        if tuple(current) == target:
            self.decisions.append((gpu.engine.now, target))
            return
        if predicted > current_unf * (1 - self.improvement_margin):
            self.decisions.append((gpu.engine.now, tuple(current)))
            return
        self.decisions.append((gpu.engine.now, target))
        self._apply(self._plan(current, target))
