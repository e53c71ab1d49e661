"""DASE-QoS: slowdown-bound enforcement for a designated application.

The paper leaves QoS as future work ("the DASE can also be leveraged to
design other slowdown-aware mechanisms to provide QoS guarantees"); prior
work it builds on (Aguilera et al. [3]) dynamically allocates SMs toward a
QoS kernel but needs offline profiles.  With DASE the same control loop
runs online:

* every interval, read the target application's estimated slowdown;
* above the bound → take one SM from the currently least-slowed co-runner;
* comfortably below the bound (hysteresis margin) → hand one SM back to
  the co-runner with the highest estimated slowdown.
"""

from __future__ import annotations

from repro.config import GPUConfig
from repro.core.dase import DASE
from repro.policies.sm_alloc import AllocationPolicy
from repro.sim.gpu import GPU
from repro.sim.stats import IntervalRecord


class DASEQoSPolicy(AllocationPolicy):
    """Keep ``target_app``'s slowdown at or below ``max_slowdown``."""

    name = "dase-qos"

    def __init__(
        self,
        config: GPUConfig,
        target_app: int,
        max_slowdown: float,
        estimator: DASE | None = None,
        release_margin: float = 0.15,
    ) -> None:
        if max_slowdown < 1.0:
            raise ValueError("a slowdown bound below 1.0 is unsatisfiable")
        if not 0.0 <= release_margin < 1.0:
            raise ValueError("release_margin must be in [0, 1)")
        self.config = config
        self.target_app = target_app
        self.max_slowdown = max_slowdown
        self.estimator = estimator or DASE(config)
        self.release_margin = release_margin
        self.actions: list[tuple[int, str, int, int]] = []  # (cycle, kind, from, to)
        self._own_estimator = estimator is None

    def attach(self, gpu: GPU) -> None:
        if self.target_app >= gpu.n_apps:
            raise ValueError("target_app out of range")
        super().attach(gpu)

    def on_interval(self, records: list[IntervalRecord]) -> None:
        gpu = self.gpu
        if any(sm.draining for sm in gpu.sms):
            return
        estimates = self.estimator.latest()
        if not estimates or any(e is None for e in estimates):
            return
        counts = gpu.sm_counts()
        target = self.target_app
        others = [i for i in range(gpu.n_apps) if i != target]
        if not others:
            return
        now = gpu.engine.now
        if estimates[target] > self.max_slowdown:
            # Violation: pull one SM from the least-suffering co-runner.
            donor = min(others, key=lambda i: estimates[i])
            if counts[donor] > 1:
                gpu.migrate_sms(donor, target, 1)
                self.actions.append((now, "acquire", donor, target))
        elif estimates[target] < self.max_slowdown * (1 - self.release_margin):
            # Comfortably within bound: give one SM back to the co-runner
            # hurting the most, if we hold more than an even share.
            even_share = self.config.n_sms // gpu.n_apps
            if counts[target] > even_share:
                taker = max(others, key=lambda i: estimates[i])
                gpu.migrate_sms(target, taker, 1)
                self.actions.append((now, "release", target, taker))

    def violations(self) -> int:
        """Intervals in which the target's estimate exceeded the bound."""
        return sum(
            1
            for row in self.estimator.history
            if row[self.target_app] is not None
            and row[self.target_app] > self.max_slowdown
        )
