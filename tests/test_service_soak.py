"""Soak layer: the daemon under concurrent multi-tenant mixed load.

Excluded from the tier-1 run (``-m "not soak"`` in pyproject addopts);
CI's dedicated ``service-soak`` job runs ``pytest -m soak``.  N tenant
threads each fire M mixed requests — tiny workloads (some deliberately
identical across tenants to exercise dedup under contention), chaos jobs
(healthy, flaky-with-retries, and hard-raising), and a recorded scenario —
then the suite asserts global integrity:

* every submitted job reaches a terminal state, with failures only where
  chaos was told to fail;
* chaos outcomes come back in submission order with their payloads intact;
* the admission queue's fairness readout is well-formed (unfairness >= 1,
  Jain's index in (0, 1]) and every decision was audited;
* the journal holds a terminal record for every simulated job;
* the results store has zero orphans in either direction (index entries
  without record files, or record files the index does not know).
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.service import ReproService, ServiceClient
from repro.service.daemon import JOURNAL_FILE, TERMINAL
from repro.store import ResultStore

pytestmark = pytest.mark.soak

N_TENANTS = 4
REQUESTS_PER_TENANT = 6


def _requests_for(tenant_idx: int) -> list[tuple[str, dict, bool]]:
    """(kind, spec, expect_failure) mix for one tenant."""
    mix: list[tuple[str, dict, bool]] = [
        # Identical across tenants: must dedup onto one simulation.
        ("workload", {"apps": ["SD", "SB"], "cycles": 20000}, False),
        # Unique per tenant: must not dedup.
        ("workload", {"apps": ["NN", "VA"], "cycles": 20000 + tenant_idx},
         False),
        ("chaos", {"jobs": [{"mode": "ok", "payload": 100 + tenant_idx},
                            {"mode": "ok", "payload": 200 + tenant_idx},
                            {"mode": "ok", "payload": 300 + tenant_idx}]},
         False),
        # Two jobs so the flaky one runs pooled: a flaky attempt hard-exits
        # its process, which only a pool worker can absorb.
        ("chaos", {"jobs": [{"mode": "flaky", "payload": tenant_idx,
                             "flaky_failures": 1},
                            {"mode": "ok", "payload": 400 + tenant_idx}],
                   "retries": 2}, False),
        ("chaos", {"jobs": [{"mode": "raise",
                             "payload": 900 + tenant_idx}]}, True),
        # A lone flaky job runs inline in its job process and takes that
        # down with its first attempt: the daemon settles the job as failed
        # with a one-line error naming the exit code.
        ("chaos", {"jobs": [{"mode": "flaky", "payload": tenant_idx,
                             "flaky_failures": 1}],
                   "retries": 2}, True),
    ]
    assert len(mix) == REQUESTS_PER_TENANT
    if tenant_idx < 2:
        # Two tenants also ask for the same recorded scenario: exercises
        # the store path under load and must dedup onto one simulation.
        mix.append(("scenario", {"name": "fig3"}, False))
    return mix


@pytest.fixture(scope="module")
def soak_daemon(tmp_path_factory):
    root = tmp_path_factory.mktemp("soak")
    svc = ReproService(
        root / "state", store_dir=str(root / "store"), policy="fair",
        jobs=2, allow_chaos=True,
    )
    svc.start()
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    yield svc
    svc.stop()
    thread.join(timeout=10.0)


@pytest.fixture(scope="module")
def soak_run(soak_daemon):
    """Fire the full mixed load from N concurrent tenant threads, wait for
    every job to settle, and hand the results to the assertions."""
    svc = soak_daemon
    receipts: dict[str, list] = {}
    errors: list[str] = []

    def tenant_thread(idx: int) -> None:
        tenant = f"tenant-{idx}"
        client = ServiceClient(svc.url, timeout_s=120.0)
        rows = []
        try:
            for kind, spec, expect_failure in _requests_for(idx):
                receipt = client.submit(kind, spec, tenant=tenant)
                rows.append({"kind": kind, "spec": spec,
                             "expect_failure": expect_failure,
                             "job": receipt["job"],
                             "deduped": receipt["deduped"]})
                time.sleep(0.01)  # interleave tenants, don't serialize them
        except Exception as exc:  # noqa: BLE001 - surfaced by the test
            errors.append(f"{tenant}: {type(exc).__name__}: {exc}")
        receipts[tenant] = rows

    threads = [
        threading.Thread(target=tenant_thread, args=(i,))
        for i in range(N_TENANTS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    assert not errors, errors

    client = ServiceClient(svc.url, timeout_s=120.0)
    finals: dict[str, dict] = {}
    deadline = time.monotonic() + 300.0
    for rows in receipts.values():
        for row in rows:
            job = row["job"]
            if job in finals:
                continue
            while time.monotonic() < deadline:
                status = client.status(job)
                if status["status"] in TERMINAL:
                    finals[job] = status
                    break
                time.sleep(0.1)
            else:
                raise AssertionError(f"job {job} never settled")
    return {"svc": svc, "receipts": receipts, "finals": finals,
            "client": client}


class TestSoak:
    def test_every_job_settles_as_expected(self, soak_run):
        finals = soak_run["finals"]
        for tenant, rows in soak_run["receipts"].items():
            for row in rows:
                final = finals[row["job"]]
                want = "failed" if row["expect_failure"] else "done"
                assert final["status"] == want, (
                    f"{tenant} {row['kind']} -> {final['status']}: "
                    f"{final['error']}"
                )

    def test_shared_workload_deduped_once(self, soak_run):
        shared = {
            row["job"]
            for rows in soak_run["receipts"].values()
            for row in rows
            if row["kind"] == "workload" and row["spec"]["cycles"] == 20000
            and row["spec"]["apps"] == ["SD", "SB"]
        }
        assert len(shared) == 1  # all tenants collapsed onto one job
        final = soak_run["finals"][next(iter(shared))]
        assert final["simulations"] == 1
        assert len(final["tenants"]) == N_TENANTS

    def test_chaos_outcomes_ordered_with_payloads_intact(self, soak_run):
        finals = soak_run["finals"]
        for rows in soak_run["receipts"].values():
            for row in rows:
                if row["kind"] != "chaos" or row["expect_failure"]:
                    continue
                outcomes = finals[row["job"]]["result"]["outcomes"]
                want = [j["payload"] for j in row["spec"]["jobs"]]
                got = [o["result"]["payload"] for o in outcomes]
                assert got == want  # submission order, payloads echoed
                assert all(o["ok"] for o in outcomes)

    def test_failures_attributed_not_swallowed(self, soak_run):
        finals = soak_run["finals"]
        for rows in soak_run["receipts"].values():
            for row in rows:
                if not row["expect_failure"]:
                    continue
                final = finals[row["job"]]
                assert final["status"] == "failed"
                error = final["error"] or ""
                assert error and "\n" not in error
                if len(row["spec"]["jobs"]) == 1 and (
                    row["spec"]["jobs"][0]["mode"] == "flaky"
                ):
                    # The job process hard-exited with nothing to report.
                    assert error == "job process died: exit code 23"
                    assert final["result"] is None
                else:
                    # Executed and failed: partial outcomes stay visible.
                    outcomes = (final["result"] or {}).get("outcomes", [])
                    assert any(not o["ok"] for o in outcomes)

    def test_queue_fairness_bounds_and_audit(self, soak_run):
        snap = soak_run["client"].queue()
        fairness = snap["fairness"]
        assert fairness["unfairness"] >= 1.0
        assert 0.0 < fairness["jains_index"] <= 1.0
        assert fairness["gini_wait"] is not None
        assert 0.0 <= fairness["gini_wait"] <= 1.0
        # Every tenant that completed work appears in the readout.
        assert len(fairness["tenants"]) >= N_TENANTS
        # Every grant was audited.
        assert snap["audit"]["total"] == snap["scheduled"]
        assert snap["completed"] == snap["scheduled"]
        assert snap["pending"] == {}

    def test_journal_has_terminal_for_every_job(self, soak_run):
        svc = soak_run["svc"]
        submits, terminals = set(), set()
        journal = svc.state_dir / JOURNAL_FILE
        for line in journal.read_text().splitlines():
            rec = json.loads(line)
            if rec["t"] == "submit":
                submits.add(rec["job"])
            elif rec["t"] == "terminal":
                terminals.add(rec["job"])
        assert submits == set(soak_run["finals"])
        assert submits == terminals

    def test_scenario_recorded_once_for_both_tenants(self, soak_run):
        scenario_jobs = {
            row["job"]
            for rows in soak_run["receipts"].values()
            for row in rows if row["kind"] == "scenario"
        }
        assert len(scenario_jobs) == 1
        final = soak_run["finals"][next(iter(scenario_jobs))]
        assert final["simulations"] == 1
        assert final["record_id"] is not None

    def test_store_has_zero_orphans(self, soak_run):
        store = ResultStore(soak_run["svc"].store_dir)
        indexed = {e["record_id"] for e in store.index()}
        on_disk = {p.stem for p in store.records_dir.glob("*.json")}
        assert indexed  # the scenario submissions actually recorded
        assert indexed == on_disk

    def test_daemon_still_healthy_after_soak(self, soak_run):
        health = soak_run["client"].health()
        assert health["ok"] is True
        report = soak_run["client"].report()
        assert report["n_jobs"] >= N_TENANTS * 3
