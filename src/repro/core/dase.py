"""DASE — Dynamical Application Slowdown Estimation (paper §4).

Per interval and per application, DASE estimates the slowdown relative to
running alone on *all* SMs, from hardware counters only:

* **NMBB path** (Eqs. 7-15): reconstruct the alone execution time by
  subtracting the inter-application interference cycles — bank conflicts
  (Eq. 9), row-buffer interference (Eq. 10), and shared-cache contention
  (Eq. 11) — normalized by the application's bank-level parallelism
  (Eq. 14), and damp the whole effect by the stall fraction α (Eq. 15)
  because TLP hides memory time that never reached the critical path.
* **MBB path** (Eqs. 16-18): for bandwidth-bound applications the request
  count is the performance proxy; running alone the application would have
  absorbed the *entire* served-request stream (Fig. 4's observation), so
  the slowdown is Σ requests / own (contention-corrected) requests.
* **All-SM extension** (Eqs. 23-25): scale the assigned-SM estimate by
  SM_all / SM_assigned, capped by thread-block supply (Eq. 24) and by the
  memory-bandwidth ceiling (Eq. 25); MBB kernels do not scale at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.config import GPUConfig
from repro.core.base import SlowdownEstimator, reciprocal
from repro.core.classify import is_mbb, request_max, shared_requests
from repro.sim.stats import IntervalRecord


@dataclass
class DASEBreakdown:
    """Diagnostic decomposition of one interval estimate (for tests/docs)."""

    mbb: bool = False
    time_bank: float = 0.0
    time_rowbuf: float = 0.0
    time_cache: float = 0.0
    time_interference: float = 0.0
    blp: float = 0.0
    blp_access: float = 0.0
    alpha: float = 0.0
    slowdown_assigned: float = 1.0
    slowdown_all: float = 1.0


class DASE(SlowdownEstimator):
    """The paper's estimator.  Attach to a GPU and read per-interval or
    run-level slowdown estimates.

    ``scale_to_all_sms=False`` disables the Eq. 23-25 extension (used by the
    ablation bench to show why CPU-style assigned-SM estimates fail on GPUs).
    """

    name = "DASE"
    _no_detail = DASEBreakdown

    def __init__(
        self,
        config: GPUConfig,
        scale_to_all_sms: bool = True,
        use_blp_divisor: bool = True,
    ) -> None:
        super().__init__(config)
        self.scale_to_all_sms = scale_to_all_sms
        self.use_blp_divisor = use_blp_divisor
        self.breakdowns: list[list[DASEBreakdown]] = []

    # ------------------------------------------------------------ interval

    def estimate_interval(
        self, records: list[IntervalRecord]
    ) -> list[float | None]:
        out, rows = self._estimate_each(records, records)
        self.breakdowns.append(rows)
        return out

    def _estimate_app(
        self, rec: IntervalRecord, records: list[IntervalRecord]
    ) -> tuple[float | None, DASEBreakdown, str | None]:
        if rec.cycles <= 0:
            return None, DASEBreakdown(), "degenerate-interval"
        if is_mbb(rec, records, self.config):
            return self._estimate_mbb(rec, records)
        return self._estimate_nmbb(rec, records)

    def _audit_fields(
        self, rec: IntervalRecord, records: list[IntervalRecord],
        bd: DASEBreakdown,
    ) -> tuple[dict[str, Any], dict[str, Any]]:
        """Decompose one interval estimate into its inputs and terms."""
        inputs = {
            "cycles": rec.cycles,
            "alpha": rec.sm.alpha,
            "blp": bd.blp,
            "blp_access": bd.blp_access,
            "erb_miss": rec.mem.erb_miss,
            "ellc_miss": rec.ellc_miss,
            "requests_served": rec.mem.requests_served,
            "time_request": rec.mem.time_request,
            "sm_count": rec.sm_count,
            "sm_total": rec.sm_total,
            "tb_running": rec.tb_running,
            "tb_unfinished": rec.tb_unfinished,
        }
        terms = {
            "mbb": bd.mbb,
            "time_bank": bd.time_bank,
            "time_rowbuf": bd.time_rowbuf,
            "time_cache": bd.time_cache,
            "time_interference": bd.time_interference,
            "alpha_effective": bd.alpha,
            "slowdown_assigned": bd.slowdown_assigned,
            "slowdown_all": bd.slowdown_all,
        }
        return inputs, terms

    # ---------------------------------------------------------------- MBB

    def _estimate_mbb(
        self, rec: IntervalRecord, records: list[IntervalRecord]
    ) -> tuple[float, DASEBreakdown, None]:
        req_shared = shared_requests(rec)  # Eq. 17
        req_alone = float(sum(r.mem.requests_served for r in records))  # Eq. 18
        slowdown = max(1.0, req_alone / req_shared)  # Eq. 16
        bd = DASEBreakdown(
            mbb=True, slowdown_assigned=slowdown, slowdown_all=slowdown,
            alpha=rec.sm.alpha,
        )
        # §4.3: MBB kernels gain nothing from extra SMs — no scaling.
        return slowdown, bd, None

    # --------------------------------------------------------------- NMBB

    def _estimate_nmbb(
        self, rec: IntervalRecord, records: list[IntervalRecord]
    ) -> tuple[float, DASEBreakdown, None]:
        cfg = self.config
        cycles = rec.cycles
        mem = rec.mem
        out_time = mem.outstanding_time
        if out_time > 0:
            blp = mem.demanded_bank_integral / out_time
            blp_access = mem.executing_bank_integral / out_time
        else:
            blp = blp_access = 0.0

        # Eq. 9 — bank interference: banks this app demands but that are
        # not executing its requests (they are busy with co-runners, or the
        # controller is busy issuing co-runners' requests).
        time_bank = cycles * max(0.0, blp - blp_access)
        # Eq. 10 — row-buffer interference.
        penalty = cfg.dram_cycles_to_core(cfg.dram.row_miss_penalty)
        time_rowbuf = mem.erb_miss * penalty
        # Eqs. 11-13 — shared-cache contention.
        if mem.requests_served > 0:
            time_avg = mem.time_request / mem.requests_served  # Eq. 12
        else:
            time_avg = 0.0
        time_cache = rec.ellc_miss * time_avg
        # Eq. 14 — multiple banks absorb interference in parallel.
        total = time_bank + time_rowbuf + time_cache
        if self.use_blp_divisor and blp > 1.0:
            t_interference = total / blp
        else:
            t_interference = total
        # Interference can only lengthen the critical path while the SM
        # pipeline is actually stalled: queueing time beyond the observed
        # stall time was hidden by TLP/MLP and must not be charged.
        alpha_raw = rec.sm.alpha
        t_interference = min(t_interference, alpha_raw * cycles, cycles * 0.95)

        t_alone = cycles - t_interference  # Eq. 8
        ratio = cycles / t_alone if t_alone > 0 else 1.0
        # Eq. 15, with the paper's "α→1 when α is large" refinement.
        alpha = 1.0 if alpha_raw > cfg.alpha_clamp else alpha_raw
        slowdown_assigned = max(1.0, 1.0 - alpha + alpha * ratio)

        slowdown_all = slowdown_assigned
        if self.scale_to_all_sms and rec.sm_count > 0:
            # Eq. 23 — alone, the application would use every SM.
            slowdown_all = slowdown_assigned * rec.sm_total / rec.sm_count
            # Eq. 24 — thread-block supply limits the scaling.
            if rec.tb_running > 0:
                tlp_cap = slowdown_assigned * rec.tb_unfinished / rec.tb_running
                slowdown_all = min(slowdown_all, tlp_cap)
            # Eq. 25 — memory bandwidth demand limits the scaling.
            rmax = request_max(cycles, cfg)
            bw_cap = rmax / shared_requests(rec)
            slowdown_all = min(slowdown_all, max(1.0, bw_cap))
            slowdown_all = max(slowdown_all, 1.0)

        bd = DASEBreakdown(
            mbb=False,
            time_bank=time_bank,
            time_rowbuf=time_rowbuf,
            time_cache=time_cache,
            time_interference=t_interference,
            blp=blp,
            blp_access=blp_access,
            alpha=alpha,
            slowdown_assigned=slowdown_assigned,
            slowdown_all=slowdown_all,
        )
        return slowdown_all, bd, None

    # -------------------------------------------------------- DASE-Fair API

    def latest_reciprocals(self) -> list[float | None]:
        """Reciprocal slowdowns (Eq. 28) from the latest interval."""
        return [reciprocal(s) for s in self.latest()]
