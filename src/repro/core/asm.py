"""ASM — the Application Slowdown Model [22], on a GPU.

ASM refines MISE by moving the performance proxy from the *memory service
rate* to the *cache access rate* (CAR) and by explicitly correcting for
shared-cache interference: contention misses (detected with a sampled
auxiliary tag directory) both inflate the application's memory traffic and
deflate its alone-time estimate.

Our port: slowdown = CAR_alone / CAR_shared, with

* CAR_shared measured during no-priority epochs;
* CAR_alone measured during the application's highest-priority epochs, with
  the epoch time shrunk by the estimated cost of contention misses (each
  contention miss would have been a cache hit alone, saving the average
  DRAM residency time of this application's requests).

Like MISE — and this is the paper's key criticism — ASM estimates relative
to alone execution on the assigned SMs only.
"""

from __future__ import annotations

from typing import Any

from repro.core.sampling import PriorityEpochEstimator, RateAccumulators
from repro.sim.stats import IntervalRecord


class ASM(PriorityEpochEstimator):
    """ASM [MICRO'15] ported to the GPU — see the module docstring."""

    name = "ASM"
    _traffic = ("prio_accesses", "shared_accesses", "no_cache_traffic")

    def estimate_interval(
        self, records: list[IntervalRecord]
    ) -> list[float | None]:
        return self._estimate_each(records, self._epoch_delta())[0]

    def _slowdown(
        self, rec: IntervalRecord, d: RateAccumulators
    ) -> tuple[float, dict[str, Any]]:
        i = rec.app
        car_shared = d.shared_accesses[i] / d.shared_time[i]

        # Contention-miss correction: estimate how much of the
        # priority-epoch time was wasted on misses that would have been
        # hits alone, and remove it from the alone-time denominator.
        cycles = max(1, rec.cycles)
        ellc_rate = rec.ellc_miss / cycles  # contention misses per cycle
        # Cost of one avoidable miss = the DRAM service time it adds (row
        # activation + column access + burst); queueing delay is excluded
        # because the alone run would not have experienced today's queues.
        d_cfg = self.config.dram
        miss_cost = self.config.dram_cycles_to_core(
            d_cfg.tRP + d_cfg.tRCD + d_cfg.tCL + d_cfg.tBurst
        )
        wasted = min(
            ellc_rate * d.prio_time[i] * miss_cost, 0.5 * d.prio_time[i]
        )
        car_alone = d.prio_accesses[i] / (d.prio_time[i] - wasted)
        return max(1.0, car_alone / car_shared), {
            "car_shared": car_shared,
            "car_alone": car_alone,
            "ellc_rate": ellc_rate,
            "miss_cost": miss_cost,
            "wasted_prio_time": wasted,
        }

    def _own_inputs(self, rec: IntervalRecord) -> dict[str, Any]:
        return {"ellc_miss": rec.ellc_miss}
