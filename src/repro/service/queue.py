"""Fairness-aware admission control for the job daemon.

The paper's unfairness metric (max/min slowdown, Eqs. 28–30) applies
verbatim to the request queue: treat each *tenant* the way DASE-Fair treats
an application.  A tenant's slowdown for one request is

    slowdown = observed latency / isolated-service estimate

where the isolated estimate is the latency the request would have seen had
the tenant been **alone on the daemon** — computed against a per-tenant
virtual clock, so a tenant queueing behind its own backlog is not counted
as unfairness (its isolated service would have queued too; this is the
standard shared-vs-alone slowdown from the scheduling literature, and the
exact analogue of the paper's alone-run denominator).  The daemon serves
``servers`` requests at once (one per slot), so "alone on the daemon" is a
``servers``-server clock too: a lone tenant's first ``servers`` outstanding
requests start at once in isolation as they do in fact, and only the ones
beyond that queue behind its own backlog.

Two policies:

* ``fair`` — serve the tenant whose head request currently projects the
  largest slowdown.  A waiting light tenant's slowdown grows as
  ``1 + wait/est`` while a backlogged flooder's stays near 1 (its isolated
  denominator already contains its own backlog), so light tenants are
  admitted promptly and max/min tenant slowdown stays low.  This is
  starvation-free: every pending head's slowdown grows monotonically with
  wall clock, and requests submitted *after* a pending head can never
  project a larger slowdown at equal estimates, so only requests already
  pending at submission time can overtake (the bound pinned by the
  hypothesis property in tests/test_service.py).
* ``fifo`` — global arrival order, the baseline the adversarial two-tenant
  test beats.

Every scheduling decision is logged to a :class:`QueueAudit` (the
``DecisionAudit`` pattern from the scheduler layer applied to admission),
and queue fairness — :func:`repro.metrics.unfairness`, Jain's index,
waiting-time Gini, tail slowdown — is exported through an obs
:class:`~repro.obs.registry.MetricsRegistry`.

The queue is deliberately a pure, clock-injectable data structure — the
daemon drives it under its own lock, tests drive it with simulated time.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import metrics as fairness_metrics
from repro.obs.registry import MetricsRegistry

#: Queue scheduling policies.
QUEUE_POLICIES = ("fair", "fifo")

#: Fallback isolated-service estimate before any completion is observed.
DEFAULT_EST_S = 1.0

#: EWMA smoothing for observed service times (same α as SweepProgress).
EST_ALPHA = 0.3

#: Completed requests the fairness readouts look back over.
_COMPLETED_KEPT = 4096

#: Admission decisions the queue audit keeps (``total`` counts them all).
_DECISIONS_KEPT = 256


@dataclass
class QueuedRequest:
    """One admitted request and its fairness bookkeeping.

    ``iso_finish_t`` is when the request would have finished on an
    otherwise-idle daemon serving only this tenant — the denominator of
    the slowdown.  All times come from the queue's injected clock.
    """

    rid: str
    job_id: str
    tenant: str
    est_s: float
    submit_t: float
    iso_finish_t: float
    start_t: float | None = None
    finish_t: float | None = None

    @property
    def isolated_s(self) -> float:
        return max(self.iso_finish_t - self.submit_t, 1e-9)

    def wait_s(self, now: float) -> float:
        end = self.start_t if self.start_t is not None else now
        return max(0.0, end - self.submit_t)

    def slowdown(self, now: float) -> float:
        """Observed (or projected) latency over the isolated latency.

        Pending requests project completion ``est_s`` from now against the
        estimated isolated finish — that ratio is what the fair policy
        ranks.  Completed requests substitute the *actual* service time
        into both sides (alone, the request would have taken exactly its
        service time plus its own-backlog queueing), so an uncontended
        request scores 1.0 regardless of how rough the a-priori estimate
        was.
        """
        if self.finish_t is not None and self.start_t is not None:
            observed = self.finish_t - self.submit_t
            own_queue_s = max(0.0, self.isolated_s - self.est_s)
            isolated = own_queue_s + max(self.finish_t - self.start_t, 1e-9)
            return max(observed, 1e-9) / isolated
        observed = (now - self.submit_t) + self.est_s
        return max(observed, 1e-9) / self.isolated_s


@dataclass
class QueueDecision:
    """One audited scheduling decision."""

    seq: int
    now: float
    policy: str
    chosen_rid: str
    chosen_tenant: str
    candidates: dict[str, float]  # tenant -> projected head slowdown

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "now": round(self.now, 6),
            "policy": self.policy,
            "chosen": {"rid": self.chosen_rid, "tenant": self.chosen_tenant},
            "candidates": {
                t: round(s, 4) for t, s in sorted(self.candidates.items())
            },
        }


class QueueAudit:
    """DecisionAudit-style bounded log of admission decisions."""

    def __init__(self) -> None:
        self.decisions: deque[QueueDecision] = deque(maxlen=_DECISIONS_KEPT)
        self.total = 0

    def record(self, decision: QueueDecision) -> None:
        self.decisions.append(decision)
        self.total += 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": "repro.service.queue-audit/1",
            "total": self.total,
            "kept": len(self.decisions),
            "decisions": [d.to_dict() for d in self.decisions],
        }


class AdmissionQueue:
    """Per-tenant admission queue scheduling by projected slowdown."""

    def __init__(
        self,
        policy: str = "fair",
        *,
        servers: int = 1,
        default_est_s: float = DEFAULT_EST_S,
        clock: Callable[[], float] | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if policy not in QUEUE_POLICIES:
            raise ValueError(
                f"unknown queue policy {policy!r}; "
                f"choose from {list(QUEUE_POLICIES)}"
            )
        if servers < 1:
            raise ValueError(f"servers must be >= 1, not {servers}")
        self.policy = policy
        self.servers = servers
        self.default_est_s = default_est_s
        self._clock = clock if clock is not None else time.monotonic
        self.registry = registry if registry is not None else MetricsRegistry()
        self.audit = QueueAudit()
        self._pending: dict[str, deque[QueuedRequest]] = {}
        #: Tenant virtual clock: when each of the (at most ``servers``)
        #: isolated servers it has occupied comes free — a heap.
        self._iso_free: dict[str, list[float]] = {}
        self._est: dict[str, float] = {}       # per-tenant service EWMA
        self._completed: deque[QueuedRequest] = deque(maxlen=_COMPLETED_KEPT)
        self._rids = itertools.count(1)
        self.submitted = 0
        self.scheduled = 0
        self.completed = 0

    # ------------------------------------------------------------ lifecycle

    def _now(self, now: float | None) -> float:
        return self._clock() if now is None else now

    def estimate_for(self, tenant: str) -> float:
        """Current isolated-service estimate for one of ``tenant``'s jobs."""
        return self._est.get(tenant, self.default_est_s)

    def submit(
        self,
        tenant: str,
        job_id: str,
        *,
        est_s: float | None = None,
        now: float | None = None,
    ) -> QueuedRequest:
        """Admit one request; returns its queue entry."""
        now = self._now(now)
        est = est_s if est_s is not None else self.estimate_for(tenant)
        est = max(est, 1e-9)
        # The tenant's virtual clock: had it been alone, this request would
        # start once one of the daemon's servers was free of the tenant's
        # own earlier requests.
        free = self._iso_free.setdefault(tenant, [])
        iso_start = now
        if len(free) == self.servers:
            iso_start = max(now, heapq.heappop(free))
        req = QueuedRequest(
            rid=f"r{next(self._rids)}",
            job_id=job_id,
            tenant=tenant,
            est_s=est,
            submit_t=now,
            iso_finish_t=iso_start + est,
        )
        heapq.heappush(free, req.iso_finish_t)
        self._pending.setdefault(tenant, deque()).append(req)
        self.submitted += 1
        self.registry.counter("service.queue.submitted").inc()
        self.registry.gauge("service.queue.pending").set(len(self))
        return req

    def __len__(self) -> int:
        return sum(len(q) for q in self._pending.values())

    @property
    def running(self) -> int:
        """Requests scheduled and not yet completed."""
        return self.scheduled - self.completed

    def _heads(self) -> list[QueuedRequest]:
        return [q[0] for q in self._pending.values() if q]

    def next(self, now: float | None = None) -> QueuedRequest | None:
        """Pop the next request to serve, per policy, auditing the choice."""
        now = self._now(now)
        heads = self._heads()
        if not heads:
            return None
        if self.policy == "fifo":
            chosen = min(heads, key=lambda r: r.submit_t)
        else:
            # Largest projected slowdown first; earliest submission breaks
            # ties so equal-pressure tenants round-robin deterministically.
            chosen = max(
                heads, key=lambda r: (r.slowdown(now), -r.submit_t)
            )
        self._pending[chosen.tenant].popleft()
        chosen.start_t = now
        self.scheduled += 1
        self.audit.record(QueueDecision(
            seq=self.audit.total + 1,
            now=now,
            policy=self.policy,
            chosen_rid=chosen.rid,
            chosen_tenant=chosen.tenant,
            candidates={r.tenant: r.slowdown(now) for r in heads},
        ))
        self.registry.gauge("service.queue.pending").set(len(self))
        self.registry.gauge("service.queue.running").set(self.running)
        return chosen

    def cancel(self, rid: str) -> QueuedRequest | None:
        """Remove one still-pending request; None if not pending."""
        for tenant, q in self._pending.items():
            for req in q:
                if req.rid == rid:
                    q.remove(req)
                    self.registry.counter("service.queue.cancelled").inc()
                    self.registry.gauge("service.queue.pending").set(len(self))
                    return req
        return None

    def complete(
        self, req: QueuedRequest, now: float | None = None
    ) -> float:
        """Mark a scheduled request finished; returns its slowdown."""
        now = self._now(now)
        req.finish_t = now
        self._completed.append(req)
        self.completed += 1
        if req.start_t is not None:
            service = max(now - req.start_t, 1e-9)
            prev = self._est.get(req.tenant)
            self._est[req.tenant] = (
                service if prev is None
                else EST_ALPHA * service + (1.0 - EST_ALPHA) * prev
            )
        self.registry.counter("service.queue.completed").inc()
        self.registry.gauge("service.queue.running").set(self.running)
        self.registry.histogram("service.queue.wait_s").observe(
            req.wait_s(now)
        )
        slowdown = req.slowdown(now)
        self._export_fairness(now)
        return slowdown

    # ------------------------------------------------------------- readouts

    def tenant_slowdowns(self, now: float | None = None) -> dict[str, float]:
        """Mean completed slowdown per tenant (pending heads projected in
        for tenants with no completions yet, so the readout never hides a
        tenant that is still waiting for its first grant)."""
        now = self._now(now)
        sums: dict[str, list[float]] = {}
        for req in self._completed:
            sums.setdefault(req.tenant, []).append(req.slowdown(now))
        for head in self._heads():
            if head.tenant not in sums:
                sums[head.tenant] = [head.slowdown(now)]
        return {
            t: sum(vals) / len(vals) for t, vals in sorted(sums.items())
        }

    def fairness(self, now: float | None = None) -> dict[str, Any]:
        """Queue-level fairness snapshot: the paper's metric family applied
        to tenant slowdowns plus waiting-time dispersion."""
        now = self._now(now)
        per_tenant = self.tenant_slowdowns(now)
        slowdowns = list(per_tenant.values())
        waits = [r.wait_s(now) for r in self._completed]
        out: dict[str, Any] = {
            "policy": self.policy,
            "tenants": {t: round(s, 4) for t, s in per_tenant.items()},
            "unfairness": None,
            "jains_index": None,
            "gini_wait": None,
            "p95_wait_s": None,
        }
        if slowdowns:
            out["unfairness"] = fairness_metrics.unfairness(slowdowns)
            out["jains_index"] = fairness_metrics.jains_index(slowdowns)
        if waits:
            # All-zero waits are perfectly equal; gini() refuses a zero total.
            out["gini_wait"] = (
                fairness_metrics.gini(waits) if sum(waits) > 0 else 0.0
            )
            out["p95_wait_s"] = fairness_metrics.tail_slowdown(waits, q=0.95)
        return out

    def _export_fairness(self, now: float) -> None:
        fair = self.fairness(now)
        for key, gauge in (
            ("unfairness", "service.queue.unfairness"),
            ("jains_index", "service.queue.jains_index"),
            ("gini_wait", "service.queue.gini_wait"),
        ):
            if fair[key] is not None:
                self.registry.gauge(gauge).set(round(fair[key], 6))

    def snapshot(self, now: float | None = None) -> dict[str, Any]:
        """JSON-safe queue state for the daemon's /v1/queue endpoint."""
        now = self._now(now)
        return {
            "schema": "repro.service.queue/1",
            "policy": self.policy,
            "pending": {
                t: len(q) for t, q in sorted(self._pending.items()) if q
            },
            "submitted": self.submitted,
            "scheduled": self.scheduled,
            "completed": self.completed,
            "fairness": self.fairness(now),
            "metrics": self.registry.snapshot(),
            "audit": self.audit.to_dict(),
        }
