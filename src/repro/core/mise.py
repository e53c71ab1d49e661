"""MISE — Memory-interference Induced Slowdown Estimation [23], on a GPU.

MISE's model, ported faithfully:

* slowdown of a memory-intensive application = ARSR / SRSR, where ARSR is
  the request service rate measured while the application holds highest
  memory priority and SRSR the rate during plain shared execution;
* for non-intensive applications the ratio is damped by the stall
  fraction α: slowdown = 1 − α + α · ARSR/SRSR.

The paper's point (§6) is that this is inaccurate on GPUs: (1) priority
does not come close to eliminating interference when request counts are
GPU-scale, and (2) the estimate is relative to alone execution on the
*assigned* SMs, whereas a GPU application alone would use all SMs.  We
implement MISE as published — without all-SM scaling — so those failure
modes are visible.
"""

from __future__ import annotations

from typing import Any

from repro.config import GPUConfig
from repro.core.sampling import (
    PriorityEpochEstimator,
    PriorityRotator,
    RateAccumulators,
)
from repro.sim.stats import IntervalRecord


class MISE(PriorityEpochEstimator):
    """MISE [HPCA'13] ported to the GPU — see the module docstring."""

    name = "MISE"
    _traffic = ("prio_requests", "shared_requests", "no_memory_traffic")

    def __init__(
        self,
        config: GPUConfig,
        rotator: PriorityRotator,
        intensive_alpha: float = 0.3,
    ) -> None:
        super().__init__(config, rotator)
        self.intensive_alpha = intensive_alpha

    def estimate_interval(
        self, records: list[IntervalRecord]
    ) -> list[float | None]:
        return self._estimate_each(records, self._epoch_delta())[0]

    def _slowdown(
        self, rec: IntervalRecord, d: RateAccumulators
    ) -> tuple[float, dict[str, Any]]:
        i = rec.app
        arsr = d.prio_requests[i] / d.prio_time[i]
        srsr = d.shared_requests[i] / d.shared_time[i]
        ratio = max(1.0, arsr / srsr)
        alpha = rec.sm.alpha
        intensive = alpha >= self.intensive_alpha
        if intensive:
            est = ratio
        else:
            est = 1.0 - alpha + alpha * ratio
        return est, {
            "arsr": arsr,
            "srsr": srsr,
            "ratio": ratio,
            "intensive": intensive,
        }

    def _own_inputs(self, rec: IntervalRecord) -> dict[str, Any]:
        return {"intensive_alpha": self.intensive_alpha}
