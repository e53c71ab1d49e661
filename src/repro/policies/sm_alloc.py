"""SM allocation policies (paper §7).

DASE-Fair, every estimation interval:

1. read each application's estimated slowdown from DASE and take the
   reciprocal (Eq. 28) — a linear proxy for normalized performance in [0, 1];
2. predict each application's reciprocal at every candidate SM count with
   the two linear interpolations of Eqs. 29 (more SMs: toward 1.0 at
   SM_all) and 30 (fewer SMs: toward 0.0 at 0);
3. exhaustively search all partitions of the SMs (every app ≥ 1) for the
   one minimizing predicted unfairness (Eq. 2);
4. if it beats the current partition by a hysteresis margin, migrate SMs
   via draining (no new blocks on donor SMs; ownership flips when their
   resident blocks retire).
"""

from __future__ import annotations

import abc
import itertools
from typing import TYPE_CHECKING, Sequence

from repro.config import GPUConfig
from repro.core.base import IntervalConsumer
from repro.core.dase import DASE
from repro.obs.audit import DecisionAudit
from repro.sim.gpu import GPU
from repro.sim.stats import IntervalRecord

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.faults.inject import FaultInjector


def interpolate_reciprocal(
    reciprocal: float, current_sms: int, target_sms: int, total_sms: int
) -> float:
    """Predict the slowdown reciprocal at ``target_sms`` (Eqs. 29-30).

    With more SMs the reciprocal climbs linearly toward 1.0 (the value with
    all SMs, since alone = all SMs); with fewer it falls linearly toward
    0.0 at zero SMs.
    """
    if not 0.0 <= reciprocal <= 1.0:
        reciprocal = min(1.0, max(0.0, reciprocal))
    if current_sms < 1 or target_sms < 0 or target_sms > total_sms:
        raise ValueError("SM counts out of range")
    if target_sms >= current_sms:
        if total_sms == current_sms:
            return 1.0 if target_sms == total_sms else reciprocal
        frac = (target_sms - current_sms) / (total_sms - current_sms)
        return reciprocal + frac * (1.0 - reciprocal)  # Eq. 29
    return reciprocal * target_sms / current_sms  # Eq. 30


def _partitions(total: int, n_apps: int) -> list[tuple[int, ...]]:
    """All compositions of ``total`` SMs into ``n_apps`` parts, each ≥ 1."""
    if n_apps == 1:
        return [(total,)]
    out = []
    for cut in itertools.combinations(range(1, total), n_apps - 1):
        prev = 0
        parts = []
        for c in cut:
            parts.append(c - prev)
            prev = c
        parts.append(total - prev)
        out.append(tuple(parts))
    return out


def best_partition(
    reciprocals: Sequence[float],
    current: Sequence[int],
    total_sms: int,
    scores_out: list[tuple[tuple[int, ...], float]] | None = None,
    budget: int | None = None,
) -> tuple[tuple[int, ...], float]:
    """Exhaustive search (paper: 'we search all possible SM allocation
    schemes') for the partition minimizing predicted unfairness.

    Returns (partition, predicted_unfairness).  When ``scores_out`` is
    given, every candidate's (partition, unfairness) is appended to it in
    search order — the audit layer records them so each decision can be
    replayed (the chosen target is the first minimum of the list).

    ``budget`` restricts the search to partitions of that many SMs instead
    of the whole machine (open-system runs: only the SMs currently owned
    by resident apps are up for reallocation; the idle admission reserve
    and draining departures stay out of the pool).  Interpolation is still
    anchored to ``total_sms`` — Eq. 29's endpoint is the machine size.
    """
    n = len(reciprocals)
    if n != len(current):
        raise ValueError("reciprocals and current partition length mismatch")
    best: tuple[int, ...] | None = None
    best_unf = float("inf")
    for cand in _partitions(total_sms if budget is None else budget, n):
        slowdowns = []
        for r, cur, tgt in zip(reciprocals, current, cand):
            pr = interpolate_reciprocal(r, cur, tgt, total_sms)
            slowdowns.append(1.0 / max(pr, 1e-6))
        unf = max(slowdowns) / min(slowdowns)
        if scores_out is not None:
            scores_out.append((cand, unf))
        if unf < best_unf:
            best_unf, best = unf, cand
    assert best is not None
    return best, best_unf


def interpolation_table(
    reciprocals: Sequence[float],
    current: Sequence[int],
    total_sms: int,
) -> list[list[float]]:
    """Eqs. 29-30 evaluated everywhere: ``table[app][t-1]`` = predicted
    reciprocal of ``app`` at ``t`` SMs, for t in 1..total_sms."""
    return [
        [
            interpolate_reciprocal(r, cur, t, total_sms)
            for t in range(1, total_sms + 1)
        ]
        for r, cur in zip(reciprocals, current)
    ]


class AllocationPolicy(IntervalConsumer, abc.ABC):
    """Base class: a policy attaches to a GPU and may reassign SMs.

    A policy that decides from slowdown estimates holds its DASE in
    ``estimator``: its own private one (``_own_estimator``), which it
    attaches and hands its fault injector to, or one adopted with
    :meth:`use_estimator` (the harness's), which is managed elsewhere.
    """

    name = "base"
    #: The DASE this policy decides from; None for one that reads none.
    estimator: DASE | None = None
    _own_estimator = False

    def inject_faults(self, injector: "FaultInjector | None") -> None:
        """Decide from the same delivered view the estimators see (the
        injector is also forwarded to a privately-owned estimator)."""
        super().inject_faults(injector)
        if self._own_estimator:
            self.estimator.inject_faults(injector)

    def use_estimator(self, estimator: DASE) -> None:
        """Adopt an externally-managed DASE (e.g. the harness's) instead of
        the private one, so one estimator drives both the accuracy readout
        and the policy — and the audit log carries a single DASE stream."""
        if self.gpu is not None:
            raise RuntimeError("cannot swap estimators after attach")
        self.estimator = estimator
        self._own_estimator = False

    def attach(self, gpu: GPU) -> None:
        # The estimator must observe the interval *before* the policy acts.
        if self.estimator is not None and (
            self._own_estimator or self.estimator.gpu is None
        ):
            self.estimator.attach(gpu)
        self._listen(gpu, self.on_interval)

    @abc.abstractmethod
    def on_interval(self, records: list[IntervalRecord]) -> None: ...

    @staticmethod
    def _plan(
        current: Sequence[int], target: Sequence[int]
    ) -> list[tuple[int, int, int]]:
        """Donor→taker transfer triples, in ``migrate_sms`` call order."""
        deltas = [t - c for c, t in zip(current, target)]
        donors = [(i, -d) for i, d in enumerate(deltas) if d < 0]
        takers = [(i, d) for i, d in enumerate(deltas) if d > 0]
        plan: list[tuple[int, int, int]] = []
        di = ti = 0
        while di < len(donors) and ti < len(takers):
            d_app, d_avail = donors[di]
            t_app, t_need = takers[ti]
            k = min(d_avail, t_need)
            plan.append((d_app, t_app, k))
            d_avail -= k
            t_need -= k
            donors[di] = (d_app, d_avail)
            takers[ti] = (t_app, t_need)
            if d_avail == 0:
                di += 1
            if t_need == 0:
                ti += 1
        return plan

    def _apply(self, plan: list[tuple[int, int, int]]) -> None:
        for d_app, t_app, k in plan:
            self.gpu.migrate_sms(d_app, t_app, k)


class EvenPolicy(AllocationPolicy):
    """The paper's baseline: keep the launch-time even split forever."""

    name = "even"

    def on_interval(self, records: list[IntervalRecord]) -> None:
        return


class DASEFairPolicy(AllocationPolicy):
    """The paper's fairness-oriented dynamic SM partitioning."""

    name = "dase-fair"

    def __init__(
        self,
        config: GPUConfig,
        estimator: DASE | None = None,
        improvement_margin: float = 0.05,
        min_tb_unfinished: int = 32,
        dry_run: bool = False,
    ) -> None:
        """``improvement_margin``: required relative unfairness improvement
        before migrating (hysteresis against estimate noise).

        ``min_tb_unfinished``: the paper notes the method 'is unsuitable for
        some kernels, which have too less thread blocks or are too short' —
        an application below this many unfinished thread blocks freezes
        reallocation for the interval.

        ``dry_run``: evaluate every interval (and audit the evaluation) but
        never migrate — a shadow scheduler that leaves the run bit-identical
        to an unscheduled one.  Would-migrate decisions are audited with
        action ``"recommend"``.
        """
        self.config = config
        self.estimator = estimator or DASE(config)
        self.improvement_margin = improvement_margin
        self.min_tb_unfinished = min_tb_unfinished
        self.dry_run = dry_run
        self.decisions: list[tuple[int, tuple[int, ...]]] = []  # (cycle, target)
        self._own_estimator = estimator is None
        #: Resident roster of the previous decision (open-system runs);
        #: a change suspends hysteresis for one decision so the partition
        #: re-interpolates promptly after an arrival or departure.
        self._last_roster: tuple[int, ...] | None = None

    def on_interval(self, records: list[IntervalRecord]) -> None:
        gpu = self.gpu
        if self._faults is not None:
            # Decide from the delivered view, not the ground truth.
            records = self._delivered(records).records
        # Let an in-flight migration settle before deciding again.
        if any(sm.draining for sm in gpu.sms):
            self._hold("migration-draining")
            return
        if not all(gpu.app_active):
            # Open-system run with a partial roster: decide over the
            # resident apps only.
            self._on_interval_open(records)
            return
        if any(r.tb_unfinished < self.min_tb_unfinished for r in records):
            self._hold("too-few-thread-blocks")
            return
        recs = self.estimator.latest_reciprocals()
        if not recs or any(r is None for r in recs):
            self._hold("no-estimate", recs)
            return
        current = gpu.sm_counts()
        if min(current) < 1:
            self._hold("app-without-sm", recs)
            return
        self._last_roster = roster = tuple(range(gpu.n_apps))
        self._decide(
            roster, recs, current, self.improvement_margin, "improvement"
        )

    def _on_interval_open(self, records: list[IntervalRecord]) -> None:
        """Partial-roster decision: repartition only the SMs owned by
        resident (active, ≥ 1 SM) applications.

        A roster change since the previous decision drops the hysteresis
        margin to zero for this decision — after an arrival or departure
        the current split is an accident of admission, so the policy
        re-interpolates immediately instead of defending the status quo
        (reason ``"membership-change"`` in the audit record).
        """
        gpu = self.gpu
        current = gpu.sm_counts()
        roster = tuple(
            i for i in range(gpu.n_apps)
            if gpu.app_active[i] and current[i] > 0
        )
        changed = self._last_roster is not None and roster != self._last_roster
        self._last_roster = roster
        if len(roster) < 2:
            self._hold("single-resident-app")
            return
        if any(
            records[i].tb_unfinished < self.min_tb_unfinished for i in roster
        ):
            self._hold("too-few-thread-blocks")
            return
        recs_all = self.estimator.latest_reciprocals()
        if not recs_all or any(recs_all[i] is None for i in roster):
            self._hold("no-estimate", recs_all)
            return
        self._decide(
            roster, recs_all, current,
            0.0 if changed else self.improvement_margin,
            "membership-change" if changed else "improvement",
            budget=sum(current[i] for i in roster),
        )

    def _decide(
        self,
        roster: Sequence[int],
        reciprocals: Sequence[float],
        current: Sequence[int],
        margin: float,
        reason: str,
        budget: int | None = None,
    ) -> None:
        """Search the partitions of the ``roster`` apps' SMs (``budget``,
        default all) and migrate when the best beats the current
        unfairness by ``margin``.

        Audit records stay roster-local (reciprocals/current/target all
        index the roster); the plan's app indices are global because it
        describes the actual migrate_sms calls.
        """
        recs = [reciprocals[i] for i in roster]
        scored = [current[i] for i in roster]
        scores = [] if self._audit is not None else None
        scored_target, predicted = best_partition(
            recs, scored, self.config.n_sms, scores_out=scores, budget=budget
        )
        placed = dict(zip(roster, scored_target))
        target = tuple(placed.get(i, c) for i, c in enumerate(current))
        slowdowns = [1.0 / max(r, 1e-6) for r in recs]
        current_unf = max(slowdowns) / min(slowdowns)
        plan = None
        if target == tuple(current):
            action, reason = "hold", "already-optimal"
        elif predicted > current_unf * (1.0 - margin):
            action, reason = "hold", "hysteresis"
        else:
            plan = self._plan(current, target)
            action = "recommend" if self.dry_run else "migrate"
        if self._audit is not None:
            self._record(
                action, reason, scored,
                reciprocals=recs,
                target=scored_target,
                current_unfairness=current_unf,
                predicted_unfairness=predicted,
                interpolation=interpolation_table(
                    recs, scored, self.config.n_sms
                ),
                candidates=scores,
                plan=plan,
            )
        if plan is None or self.dry_run:
            return
        self.decisions.append((self.gpu.engine.now, target))
        self._apply(plan)

    # ------------------------------------------------------------- auditing

    def _hold(
        self, reason: str, reciprocals: list[float | None] | None = None
    ) -> None:
        """Audit an unscored hold (no-op when the run is not audited)."""
        if self._audit is not None:
            self._record(
                "hold", reason, self.gpu.sm_counts(),
                reciprocals=None if reciprocals is None else list(reciprocals),
            )

    def _record(
        self, action: str, reason: str, current: Sequence[int], **fields
    ) -> None:
        gpu = self.gpu
        self._audit.record_decision(DecisionAudit(
            policy=self.name,
            interval=len(gpu.interval_history) - 1,
            cycle=gpu.engine.now,
            current=tuple(current),
            action=action,
            reason=reason,
            **fields,
        ))
