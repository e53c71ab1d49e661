"""Deterministic delivery of (possibly perturbed) interval records.

One :class:`FaultInjector` per run presents the *delivered view* of each
estimation interval: what the counter fabric handed the estimators, as
opposed to what the simulator measured.  Every consumer that opted in
(DASE, MISE, ASM and :class:`~repro.policies.sm_alloc.DASEFairPolicy`, via
:meth:`repro.core.base.IntervalConsumer.inject_faults`) calls
:meth:`FaultInjector.deliver` with the interval index; the first call
computes the view and every later call within the same interval returns
the memoized object, so all consumers of one run agree on what "arrived".

Determinism contract (tested by ``tests/test_faults.py``):

* every random draw is seeded from ``(plan.seed, interval, app)`` via a
  SHA-256 digest — independent of query order, of which models attached,
  and of the process the run executes in (inline vs pooled);
* the draw *schedule* per (interval, app) is fixed regardless of which
  fault knobs are active, so runs at different intensities share their
  random numbers — an error-vs-σ curve is a continuous deformation of one
  realization, not a re-roll per point;
* an app whose :class:`AppFaults` is null is passed through untouched (no
  RNG construction, no copies) — the zero-intensity plan delivers the very
  record objects the simulator produced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.faults.plan import DROP_SKIP, DROP_STALE, AppFaults, FaultPlan
from repro.sim.stats import IntervalRecord

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.audit import AuditLog

#: Integer Table-1 counters perturbed by noise/quantization, in the fixed
#: order their gaussians are drawn.
_MEM_INT_FIELDS = ("requests_served", "time_request", "erb_miss")
#: Float time-integral counters (BLP accounting), same treatment.
_MEM_FLOAT_FIELDS = (
    "demanded_bank_integral",
    "executing_bank_integral",
    "outstanding_time",
)
#: SM-side counters behind α.
_SM_FIELDS = ("busy_time", "stall_time")


@dataclass
class DeliveredInterval:
    """One interval as the estimators received it.

    ``records`` mirrors the simulator's record list; entries for apps in
    ``skipped`` are placeholders (the original record) and consumers must
    treat the app as having produced no estimate.  ``faulted`` lists apps
    whose record was actually perturbed this interval.
    """

    index: int
    records: list[IntervalRecord]
    skipped: frozenset[int] = frozenset()
    faulted: frozenset[int] = frozenset()
    events: list[dict] = field(default_factory=list)


class FaultInjector:
    """Applies a :class:`FaultPlan` to each interval's records, memoized.

    Construct once per run and hand the same instance to every consumer
    (``run_workload(faults=...)`` does this).  ``audit`` (optional) is an
    :class:`repro.obs.AuditLog`; every applied fault is mirrored there so
    the PR-4 audit stream explains perturbed estimates.
    """

    def __init__(
        self,
        plan: FaultPlan,
        n_apps: int | None = None,
        audit: "AuditLog | None" = None,
    ) -> None:
        self.plan = plan
        self.n_apps = n_apps
        self.audit = audit
        self.events: list[dict] = []
        self._raw: list[list[IntervalRecord]] = []
        self._memo: dict[int, DeliveredInterval] = {}
        #: Per-app last successfully delivered record (stale-value source).
        self._last: dict[int, IntervalRecord] = {}

    # ------------------------------------------------------------- delivery

    def deliver(
        self, index: int, records: list[IntervalRecord]
    ) -> DeliveredInterval:
        """Delivered view of interval ``index`` (memoized per interval).

        The first consumer of each interval triggers the computation; all
        consumers must present the simulator's own record list, and
        intervals must be delivered in order (the GPU guarantees both).
        """
        view = self._memo.get(index)
        if view is not None:
            return view
        if index != len(self._raw):
            raise RuntimeError(
                f"fault delivery out of order: interval {index} requested, "
                f"{len(self._raw)} raw intervals recorded"
            )
        self._raw.append(records)
        view = self._compute(index, records)
        self._memo[index] = view
        if view.events:
            self.events.extend(view.events)
            if self.audit is not None:
                for ev in view.events:
                    self.audit.record_fault(ev)
        return view

    # ---------------------------------------------------------- computation

    def _compute(
        self, index: int, records: list[IntervalRecord]
    ) -> DeliveredInterval:
        out: list[IntervalRecord] = []
        skipped: set[int] = set()
        faulted: set[int] = set()
        events: list[dict] = []
        for app, rec in enumerate(records):
            af = self.plan.for_app(app)
            if af.is_null:
                out.append(rec)
                continue
            delivered, kinds = self._deliver_app(index, app, rec, af)
            if delivered is None:
                out.append(rec)  # placeholder; consumer must honour skipped
                skipped.add(app)
            else:
                out.append(delivered)
                if delivered is not rec:
                    faulted.add(app)
            if kinds:
                events.append({
                    "interval": index,
                    "cycle": rec.end,
                    "app": app,
                    "kinds": kinds,
                })
        return DeliveredInterval(
            index=index,
            records=out,
            skipped=frozenset(skipped),
            faulted=frozenset(faulted),
            events=events,
        )

    def _rng(self, index: int, app: int) -> random.Random:
        digest = hashlib.sha256(
            f"{self.plan.seed}:{index}:{app}".encode()
        ).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def _deliver_app(
        self, index: int, app: int, rec: IntervalRecord, af: AppFaults
    ) -> tuple[IntervalRecord | None, list[str]]:
        """Delivered record for one app (None = nothing arrived) + fault
        kinds applied.  The draw schedule is fixed: one uniform (drop), one
        gaussian per counter field, one uniform (ATD re-quantization) —
        always consumed in that order so intensities share randomness."""
        rng = self._rng(index, app)
        u_drop = rng.random()
        gauss = [rng.gauss(0.0, 1.0) for _ in range(
            len(_MEM_INT_FIELDS) + len(_MEM_FLOAT_FIELDS) + len(_SM_FIELDS) + 1
        )]
        u_atd = rng.random()

        kinds: list[str] = []
        # Delayed delivery: at interval t the fabric surfaces the counters
        # measured during t − delay; before that, nothing has arrived yet.
        if af.delay > 0:
            kinds.append("delay")
            src_idx = index - af.delay
            if src_idx < 0:
                kinds.append("delay-warmup-skip")
                return None, kinds
            rec = self._raw[src_idx][app]
        # Packet loss.
        if af.drop_prob > 0.0 and u_drop < af.drop_prob:
            if af.drop_mode == DROP_SKIP:
                kinds.append("drop-skip")
                return None, kinds
            assert af.drop_mode == DROP_STALE
            stale = self._last.get(app)
            if stale is None:
                kinds.append("drop-skip")  # nothing to go stale on yet
                return None, kinds
            kinds.append("drop-stale")
            return stale, kinds

        delivered = self._perturb(rec, af, gauss, u_atd, kinds)
        self._last[app] = delivered
        return delivered, kinds

    def _perturb(
        self,
        rec: IntervalRecord,
        af: AppFaults,
        gauss: list[float],
        u_atd: float,
        kinds: list[str],
    ) -> IntervalRecord:
        import math

        sigma = af.noise_sigma
        q = af.quantize if af.quantize > 1 else 0
        if sigma == 0.0 and q == 0 and af.atd_rate == 1.0:
            return rec  # drop/delay only — counters themselves exact

        g = iter(gauss)
        mem = rec.mem
        sm = rec.sm
        mem_kw: dict[str, float] = {}
        for name in _MEM_INT_FIELDS:
            v = getattr(mem, name)
            gv = next(g)
            if sigma > 0.0:
                v = v * math.exp(sigma * gv)
            if q:
                v = round(v / q) * q
            mem_kw[name] = max(0, int(round(v)))
        for name in _MEM_FLOAT_FIELDS:
            v = getattr(mem, name)
            gv = next(g)
            if sigma > 0.0:
                v = v * math.exp(sigma * gv)
            mem_kw[name] = max(0.0, v)
        sm_kw: dict[str, float] = {}
        for name in _SM_FIELDS:
            v = getattr(sm, name)
            gv = next(g)
            if sigma > 0.0:
                v = v * math.exp(sigma * gv)
            sm_kw[name] = max(0.0, v)
        g_ellc = next(g)
        ellc = rec.ellc_miss
        if sigma > 0.0:
            ellc = ellc * math.exp(sigma * g_ellc)
        if af.atd_rate < 1.0:
            # A slower-sampled ATD resolves contention misses at a coarser
            # granularity: stochastic rounding at step 1/rate (unbiased).
            r = af.atd_rate
            ellc = math.floor(ellc * r + u_atd) / r
            kinds.append("atd-rate")
        if sigma > 0.0:
            kinds.append("noise")
        if q:
            kinds.append("quantize")

        new_mem = dataclasses.replace(mem, **mem_kw)
        new_sm = dataclasses.replace(sm, **sm_kw)
        return dataclasses.replace(
            rec,
            mem=new_mem,
            sm=new_sm,
            ellc_miss=max(0.0, ellc),
            extra={**rec.extra, "fault": sorted(set(kinds))},
        )


def resolve_injector(
    faults: "FaultPlan | FaultInjector | None",
    n_apps: int,
    audit: "AuditLog | None" = None,
) -> FaultInjector | None:
    """Coerce a ``faults`` argument into an injector (or None).

    A null plan resolves to None — the zero-intensity path is the *absence*
    of an injector, so bit-identity with an unfaulted run holds by
    construction.
    """
    if faults is None:
        return None
    if isinstance(faults, FaultInjector):
        if faults.audit is None:
            faults.audit = audit
        return faults
    if isinstance(faults, FaultPlan):
        if faults.is_null:
            return None
        return FaultInjector(faults, n_apps=n_apps, audit=audit)
    raise TypeError(
        f"faults must be a FaultPlan or FaultInjector, not {faults!r}"
    )
