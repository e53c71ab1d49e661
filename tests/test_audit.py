"""Unit tests for the model/decision audit layer (repro.obs.audit)."""

import json

import pytest

from repro.harness import run_workload, scaled_config
from repro.obs import Observation
from repro.obs.audit import (
    AUDIT_SCHEMA,
    AuditLog,
    DecisionAudit,
    ModelAudit,
    export_audit_json,
)
from repro.obs.tracer import PID_SIM, EventTracer
from repro.policies import DASEFairPolicy
from repro.policies.sm_alloc import best_partition, interpolation_table


def _model(model="DASE", app=0, interval=0, cycle=12_000, est=2.0, **kw):
    return ModelAudit(
        model=model, app=app, interval=interval, cycle=cycle,
        estimate=est, reciprocal=None if est is None else 1.0 / est, **kw,
    )


def _decision(action="hold", reason="already-optimal", **kw):
    return DecisionAudit(
        policy="dase-fair", interval=0, cycle=12_000, current=(8, 8),
        action=action, reason=reason, **kw,
    )


# ----------------------------------------------------------------- AuditLog


def test_record_and_series():
    log = AuditLog()
    log.record_model(_model(interval=0, cycle=12_000, est=2.0))
    log.record_model(_model(interval=1, cycle=24_000, est=3.0))
    log.record_model(_model(model="MISE", est=1.5))
    log.record_model(_model(app=1, est=None, skip_reason="degenerate"))
    assert log.models() == ["DASE", "MISE"]
    assert log.series("DASE", 0) == [(12_000, 2.0), (24_000, 3.0)]
    assert log.series("DASE", 1) == [(12_000, None)]
    # error_series vs actual=2.0: |2-2|/2=0, |3-2|/2=0.5; None skipped.
    assert log.error_series("DASE", 0, 2.0) == [(12_000, 0.0), (24_000, 0.5)]
    assert log.error_series("DASE", 1, 2.0) == []
    assert log.error_series("DASE", 0, 0.0) == []


def test_migrations_filter_and_summary():
    log = AuditLog()
    log.record_decision(_decision("hold", "migration-draining"))
    log.record_decision(_decision(
        "migrate", "improvement", target=(11, 5),
        plan=[(1, 0, 3)],
    ))
    log.record_decision(_decision("recommend", "improvement", target=(11, 5)))
    assert [d.action for d in log.migrations()] == ["migrate", "recommend"]
    s = log.summary()
    assert s["decision_records"] == 3
    assert s["decision_actions"] == {"hold": 1, "migrate": 1, "recommend": 1}
    assert s["decision_reasons"] == {"improvement": 2, "migration-draining": 1}


def test_tracer_mirroring():
    tracer = EventTracer(capacity=64)
    log = AuditLog(tracer=tracer)
    log.record_model(_model(est=2.5))
    log.record_model(_model(app=1, est=None, skip_reason="degenerate"))
    log.record_decision(_decision(
        "migrate", "improvement", target=(11, 5),
        current_unfairness=1.4, predicted_unfairness=1.1,
    ))
    counts = tracer.counts_by_name()
    assert counts == {"audit.model": 2, "policy.decision": 1}
    # Event tuples: (ts, ph, name, pid, tid, dur, args).  Model instants
    # land on the app's pid; decisions on the sim track.
    events = tracer.events()
    assert events[0][3] == 0 and events[0][6]["est"] == 2.5
    assert events[1][6]["skip"] == "degenerate"
    dec = events[2]
    assert dec[3] == PID_SIM
    assert dec[6]["target"] == "11+5"
    assert dec[6]["current"] == "8+8"


def test_to_dict_and_export_roundtrip(tmp_path):
    log = AuditLog()
    log.record_model(_model(inputs={"alpha": 0.5}, terms={"mbb": 1.0}))
    log.record_decision(_decision(
        "migrate", "improvement", reciprocals=[0.5, 0.9], target=(11, 5),
        current_unfairness=1.4, predicted_unfairness=1.1,
        interpolation=[[0.1] * 16, [0.2] * 16],
        candidates=[((8, 8), 1.4), ((11, 5), 1.1)],
        plan=[(1, 0, 3)],
    ))
    payload = export_audit_json(log, tmp_path / "audit.json")
    on_disk = json.loads((tmp_path / "audit.json").read_text())
    assert on_disk == json.loads(json.dumps(payload))
    assert on_disk["schema"] == AUDIT_SCHEMA
    assert on_disk["models"][0]["inputs"] == {"alpha": 0.5}
    dec = on_disk["decisions"][0]
    assert dec["target"] == [11, 5]
    assert dec["candidates"][1] == {"partition": [11, 5], "unfairness": 1.1}
    assert dec["plan"] == [[1, 0, 3]]


def test_csv_exports():
    log = AuditLog()
    log.record_model(_model(est=None, skip_reason="degenerate-interval"))
    log.record_model(_model(est=2.0, inputs={"alpha": 0.25}))
    log.record_decision(_decision(
        "migrate", "improvement", target=(11, 5),
        candidates=[((8, 8), 1.4)], plan=[(1, 0, 3)],
    ))
    lines = log.model_audits_csv().strip().splitlines()
    assert lines[0].startswith("model,interval,cycle,app,estimate")
    assert "degenerate-interval" in lines[1]
    assert '""alpha"": 0.25' in lines[2]
    dlines = log.decision_audits_csv().strip().splitlines()
    assert len(dlines) == 2
    assert "8+8" in dlines[1] and "11+5" in dlines[1]


def test_observation_audit_wiring():
    # audit=True builds a log linked to the bundle's tracer.
    obs = Observation(audit=True)
    assert isinstance(obs.audit, AuditLog)
    assert obs.audit.tracer is obs.tracer
    # Default: auditing off.
    assert Observation().audit is None


# ------------------------------------------------- policy search observables


def test_best_partition_scores_out_lists_every_candidate():
    scores = []
    target, unf = best_partition([0.5, 0.9], (8, 8), 16, scores_out=scores)
    assert len(scores) == 15  # compositions of 16 into 2 parts, each ≥ 1
    assert (target, unf) in scores
    assert unf == min(u for _, u in scores)
    # The chosen target is the *first* minimum in search order, so the
    # recorded list replays the tie-break exactly.
    firsts = [c for c, u in scores if u == unf]
    assert firsts[0] == target
    # scores_out=None (the untraced path) returns the same result.
    assert best_partition([0.5, 0.9], (8, 8), 16) == (target, unf)


def test_interpolation_table_matches_eq_29_30():
    table = interpolation_table([0.5, 0.9], (8, 8), 16)
    assert len(table) == 2 and all(len(row) == 16 for row in table)
    # Eq. 30 at fewer SMs: linear toward 0; Eq. 29 at all SMs: exactly 1.
    assert table[0][3] == pytest.approx(0.5 * 4 / 8)
    assert table[0][7] == pytest.approx(0.5)
    assert table[0][15] == pytest.approx(1.0)
    # Monotone non-decreasing in the SM count.
    for row in table:
        assert all(a <= b + 1e-12 for a, b in zip(row, row[1:]))


# ------------------------------------------------------------ end-to-end run


@pytest.mark.slow
def test_audited_run_records_all_layers():
    cfg = scaled_config()
    obs = Observation(audit=True)
    res = run_workload(
        ["SD", "SB"], config=cfg, shared_cycles=24_000,
        models=("DASE", "MISE", "ASM"),
        policy=DASEFairPolicy(cfg, dry_run=True), trace=obs,
    )
    audit = obs.audit
    n_intervals = 24_000 // cfg.interval_cycles
    assert len(audit.model_audits) == 3 * 2 * n_intervals
    assert len(audit.decision_audits) == n_intervals

    dase = [a for a in audit.model_audits if a.model == "DASE"]
    for a in dase:
        if a.estimate is None:
            assert a.skip_reason
            continue
        # The DASE story carries the paper's inputs and intermediates.
        for key in ("alpha", "blp", "erb_miss", "ellc_miss"):
            assert key in a.inputs
        for key in ("mbb", "time_interference", "slowdown_all"):
            assert key in a.terms
        assert a.reciprocal == pytest.approx(1.0 / max(a.estimate, 1.0))

    for d in audit.decision_audits:
        assert d.action in ("hold", "recommend")  # dry_run never migrates
        assert sum(d.current) == cfg.n_sms
        if d.candidates:
            # min() returns the first minimum in iteration order, which is
            # exactly the search-order tie-break best_partition applies.
            assert d.target == min(d.candidates, key=lambda cu: cu[1])[0]
            assert d.predicted_unfairness == min(u for _, u in d.candidates)
    # Shadow scheduling + auditing never touches the result.
    assert res.final_sm_partition == res.sm_partition

    # finalize_run published the audit gauges.
    snap = obs.registry.snapshot()
    assert snap["run/audit/model_records"]["value"] == len(audit.model_audits)
    assert snap["run/audit/decision_records"]["value"] == len(
        audit.decision_audits
    )


@pytest.mark.slow
def test_shared_dase_produces_single_audit_stream():
    """The runner hands its DASE to the policy, so an audited run carries
    one DASE record per app per interval — not two."""
    cfg = scaled_config()
    obs = Observation(audit=True)
    run_workload(
        ["SD", "SB"], config=cfg, shared_cycles=24_000, models=("DASE",),
        policy=DASEFairPolicy(cfg, dry_run=True), trace=obs,
    )
    n_intervals = 24_000 // cfg.interval_cycles
    dase = [a for a in obs.audit.model_audits if a.model == "DASE"]
    assert len(dase) == 2 * n_intervals
