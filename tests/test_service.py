"""Simulation-as-a-service: protocol, queue fairness, dedup, resume.

Four layers, cheapest first:

* **Protocol** — :func:`repro.service.protocol.parse_submit` normalization
  and the dedup fingerprint (pure functions, no daemon).
* **Admission queue** — the fairness policy driven with simulated time:
  the adversarial flooder/trickler scenario the ISSUE pins (fair must
  beat FIFO on max/min tenant slowdown) and a hypothesis no-starvation
  property.
* **HTTP round trips** — one in-process daemon shared by the module:
  submit/status/stream/cancel goldens (tests/golden/service_protocol.json),
  dedup across tenants, error behaviour for misbehaving clients.
* **Durability/equivalence** — a kill -9'd daemon subprocess resuming its
  sweep from the checkpoint on restart, and the equivalence gate: a
  scenario served by the daemon records the byte-identical record id the
  direct ``repro fig2 --store`` path records.
"""

from __future__ import annotations

import heapq
import inspect
import json
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.service import (
    AdmissionQueue,
    ReproService,
    ServiceClient,
    ServiceError,
    parse_submit,
    request_fingerprint,
)
from repro.service.daemon import ENDPOINT_FILE, JOURNAL_FILE, TERMINAL
from repro.store import ResultStore, scenario_for

GOLDEN = pathlib.Path(__file__).parent / "golden" / "service_protocol.json"


# ---------------------------------------------------------------- protocol


class TestProtocol:
    def test_fingerprint_excludes_tenant(self):
        a = parse_submit({"tenant": "a", "kind": "workload",
                          "spec": {"apps": ["SD", "SB"]}})
        b = parse_submit({"tenant": "b", "kind": "workload",
                          "spec": {"apps": ["SD", "SB"]}})
        assert a.job_id == b.job_id

    def test_fingerprint_normalizes_spelled_out_defaults(self):
        # Same question, defaults omitted vs spelled out: one job.
        terse = parse_submit({"kind": "workload",
                              "spec": {"apps": ["SD", "SB"]}})
        verbose = parse_submit({"kind": "workload",
                                "spec": {"apps": ["SD", "SB"], "cycles": None,
                                         "seed": None, "policy": None,
                                         "backend": None}})
        assert terse.job_id == verbose.job_id
        assert terse.job_id == request_fingerprint("workload", terse.spec)
        # The one core's old name is the same question too.
        named = parse_submit({"kind": "workload",
                              "spec": {"apps": ["SD", "SB"],
                                       "backend": "reference"}})
        assert named.job_id == terse.job_id and named.spec == terse.spec
        # ... and the id the commit before repro.hashing gave it: a journal
        # written on either side of that commit dedups on the other.
        assert parse_submit(
            {"kind": "workload", "spec": {"apps": ["SD", "SB"],
                                          "cycles": 20000}}
        ).job_id == (
            "8854477424a245090572be9ed2b5d014a96f08e8cb1a1fef4ec1135b029577e5")
        assert parse_submit(
            {"kind": "scenario", "spec": {"name": "fig2"}}
        ).job_id == (
            "698f82d2f50d82fd11fe5bee9dca98475ccc4271822798ecec3f62345df6bd39")

    def test_distinct_specs_distinct_jobs(self):
        a = parse_submit({"kind": "workload",
                          "spec": {"apps": ["SD", "SB"]}})
        b = parse_submit({"kind": "workload",
                          "spec": {"apps": ["SD", "SB"], "cycles": 1000}})
        assert a.job_id != b.job_id

    @pytest.mark.parametrize("payload, needle", [
        ({"kind": "nope", "spec": {}}, "unknown kind"),
        ({"kind": "workload", "spec": {"apps": ["NOPE"]}}, "unknown app"),
        ({"kind": "workload", "spec": {"apps": []}}, "non-empty"),
        ({"kind": "sweep", "spec": {"workloads": "SD"}}, "non-empty list"),
        ({"kind": "scenario", "spec": {}}, "registered name or a scenario"),
        ({"kind": "scenario", "spec": {"id": "xyz"}}, "hex"),
        ({"kind": "scenario", "spec": {"name": "fig3",
                                       "params": {"jobs": 4}}},
         "unsupported scenario param"),
        ({"kind": "workload", "spec": {"apps": ["SD"]},
          "schema": "other/9"}, "unsupported schema"),
        ({"kind": "workload", "spec": {"apps": ["SD"]}, "tenant": ""},
         "tenant"),
        ({"kind": "chaos", "spec": {"jobs": [{"mode": "ok"}]}},
         "chaos submissions are disabled"),
        ({"kind": "chaos", "spec": {"jobs": [{"mode": "hang"}]}},
         "hang is not servable"),
        # fig2 sweeps a fixed set: a limit would change the job id (and so
        # defeat dedup) for identical work.
        ({"kind": "scenario", "spec": {"name": "fig2",
                                       "params": {"limit": 1}}},
         "unsupported scenario param 'limit' for fig2"),
        # The backend option went with the second core: a value that used
        # to pick one is refused at the door, not after the worker's retries.
        ({"kind": "workload", "spec": {"apps": ["SD", "SB"],
                                       "backend": "bogus"}},
         "backend option was removed"),
        ({"kind": "sweep", "spec": {"workloads": [["SD", "SB"]],
                                    "backend": "vectorized"}},
         "backend option was removed"),
        ({"kind": "scenario", "spec": {"name": "fig2",
                                       "backend": "vectorized"}},
         "results are unchanged"),
    ])
    def test_validation_is_one_line(self, payload, needle):
        allow = payload.get("kind") == "chaos" and "hang" in str(payload)
        with pytest.raises(ValueError) as err:
            parse_submit(payload, allow_chaos=allow)
        msg = str(err.value)
        assert needle in msg and "\n" not in msg

    def test_a_fresh_process_knows_every_policy(self):
        # The daemon validates submissions in a process that has never run
        # a job, so the policy names must be known without running one.
        code = (
            "from repro.service import parse_submit\n"
            "req = parse_submit({'kind': 'workload', 'spec': {'apps': "
            "['SD', 'VA'], 'cycles': 24000, 'policy': 'dase_fair'}})\n"
            "assert req.spec['policy'] == 'dase_fair', req.spec\n"
            "try:\n"
            "    parse_submit({'kind': 'workload', 'spec': {'apps': "
            "['SD', 'VA'], 'policy': 'nope'}})\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        src = str(pathlib.Path(__file__).parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert "unknown policy 'nope'" in out.stdout
        assert "dase_fair" in out.stdout


# ----------------------------------------------------------- fairness queue


def _serve(q: AdmissionQueue, now: float, busy: list | None = None) -> float:
    """Drive ``q`` the way the daemon's slots do, in simulated time: each
    of ``q.servers`` servers takes the next request as soon as it is free
    and holds it for the request's ``est_s``.  ``busy`` (a heap of
    ``(finish, rid, request)``) carries requests in service across calls;
    without it the queue is drained.  Returns the time reached."""
    drain = busy is None
    busy = [] if busy is None else busy
    while True:
        while len(q) and len(busy) < q.servers:
            req = q.next(now=now)
            heapq.heappush(busy, (now + req.est_s, req.rid, req))
        if not busy or not drain:
            return now
        now, _, req = heapq.heappop(busy)
        q.complete(req, now=now)


def _drain_adversarial(policy: str, *, servers: int = 1, est: float = 1.0
                       ) -> dict:
    """The pinned adversarial load: a flooder dumps 20 requests per server
    at t=0, a trickler submits one at t=0.5, service takes ``est``
    seconds."""
    q = AdmissionQueue(policy, servers=servers, default_est_s=est)
    for i in range(20 * servers):
        q.submit("flooder", f"f{i}", est_s=est, now=0.0)
    q.submit("trickler", "t0", est_s=est, now=0.5)
    now = _serve(q, 0.5)
    fair = q.fairness(now=now)
    fair["audit_total"] = q.audit.total
    fair["metrics"] = q.registry.snapshot()
    return fair


class TestAdmissionQueue:
    def test_adversarial_fair_beats_fifo(self, servers=1):
        # The ISSUE's acceptance gate: under flooder + trickler, the fair
        # policy's max/min tenant slowdown is strictly lower than FIFO's.
        fair = _drain_adversarial("fair", servers=servers)
        fifo = _drain_adversarial("fifo", servers=servers)
        assert fair["unfairness"] < fifo["unfairness"]
        # And not marginally: FIFO makes the trickler wait out the whole
        # flood (slowdown ~ n_flood) while fair admits it within a couple
        # of grants.
        assert fifo["unfairness"] > 10.0
        assert fair["unfairness"] < 2.0
        assert fair["tenants"]["trickler"] < fifo["tenants"]["trickler"]

    def test_adversarial_fair_beats_fifo_on_two_slots(self):
        self.test_adversarial_fair_beats_fifo(servers=2)

    def test_uncontended_tenant_scores_one(self):
        q = AdmissionQueue("fair", default_est_s=5.0)
        q.submit("solo", "j1", now=0.0)
        req = q.next(now=0.0)
        q.complete(req, now=2.0)  # actual service 2s, nobody else around
        assert q.tenant_slowdowns(now=2.0)["solo"] == pytest.approx(1.0)

    def test_two_at_once_on_two_slots_both_score_one(self):
        # Both start at once, as they would with the tenant alone on a
        # two-slot daemon; against a one-server clock the second would be
        # "expected" a service time later and score 0.5.
        q = AdmissionQueue("fair", servers=2, default_est_s=5.0)
        q.submit("solo", "j1", now=0.0)
        q.submit("solo", "j2", now=0.0)
        first, second = q.next(now=0.0), q.next(now=0.0)
        q.complete(first, now=2.0)
        q.complete(second, now=2.5)
        assert first.slowdown(3.0) == pytest.approx(1.0)
        assert second.slowdown(3.0) == pytest.approx(1.0)
        # The third of three at once queues behind its own backlog, alone
        # or not: one estimated service time, then its own.
        burst = [q.submit("hog", f"h{i}", est_s=1.0, now=3.0)
                 for i in range(3)]
        assert [r.isolated_s for r in burst] == pytest.approx([1.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="servers"):
            AdmissionQueue("fair", servers=0)

    @pytest.mark.parametrize("servers", [1, 2, 4])
    @settings(max_examples=25, deadline=None)
    @given(load=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=3.0),    # gap before
                  st.floats(min_value=0.1, max_value=5.0)),   # service time
        min_size=1, max_size=12,
    ))
    def test_tenant_alone_on_k_slots_scores_one(self, servers, load):
        # "Uncontended = 1.0" on any slot count: whatever a lone tenant's
        # arrival pattern, each request's completed slowdown is 1 — its
        # waits are all behind its own backlog, which the k-server isolated
        # clock charges to it exactly as the k slots do.
        q = AdmissionQueue("fair", servers=servers)
        busy: list = []
        done = []
        now = 0.0
        arrivals = iter(load)
        pending = next(arrivals, None)
        arrive_t = pending[0] if pending else None
        while pending is not None or busy:
            if busy and (pending is None or busy[0][0] <= arrive_t):
                now, _, req = heapq.heappop(busy)
                q.complete(req, now=now)
                done.append(req)
            else:
                now = arrive_t
                q.submit("solo", f"j{len(done) + len(busy) + len(q)}",
                         est_s=pending[1], now=now)
                pending = next(arrivals, None)
                if pending is not None:
                    arrive_t = now + pending[0]
            _serve(q, now, busy)
        assert len(done) == len(load)
        for req in done:
            assert req.slowdown(now) == pytest.approx(1.0, abs=1e-9)

    def test_own_backlog_is_not_unfairness(self):
        # A tenant queueing behind itself would have queued alone too.
        q = AdmissionQueue("fair", default_est_s=1.0)
        for i in range(5):
            q.submit("hog", f"j{i}", est_s=1.0, now=0.0)
        now = 0.0
        while len(q):
            req = q.next(now=now)
            now += 1.0
            q.complete(req, now=now)
        assert q.tenant_slowdowns(now=now)["hog"] == pytest.approx(1.0)
        assert q.fairness(now=now)["unfairness"] == pytest.approx(1.0)

    def test_audit_records_every_decision(self):
        fair = _drain_adversarial("fair")
        assert fair["audit_total"] == 21
        q = AdmissionQueue("fair")
        q.submit("a", "j1", now=0.0)
        q.submit("b", "j2", now=0.0)
        q.next(now=1.0)
        decision = q.audit.to_dict()["decisions"][-1]
        assert decision["policy"] == "fair"
        assert set(decision["candidates"]) == {"a", "b"}
        assert decision["chosen"]["tenant"] in {"a", "b"}

    def test_fairness_metrics_exported_to_registry(self):
        fair = _drain_adversarial("fair")
        metrics = fair["metrics"]
        assert metrics["service.queue.unfairness"]["value"] == pytest.approx(
            fair["unfairness"], rel=1e-4)
        assert 0.0 < metrics["service.queue.jains_index"]["value"] <= 1.0
        assert metrics["service.queue.completed"]["value"] == 21
        assert metrics["service.queue.wait_s"]["count"] == 21

    def test_snapshot_shape(self):
        q = AdmissionQueue("fair")
        q.submit("a", "j1", now=0.0)
        snap = q.snapshot(now=1.0)
        assert snap["schema"] == "repro.service.queue/1"
        assert snap["pending"] == {"a": 1}
        assert snap["audit"]["schema"] == "repro.service.queue-audit/1"
        assert set(snap["fairness"]) >= {"unfairness", "jains_index",
                                         "gini_wait", "p95_wait_s"}

    def test_cancel_removes_pending(self):
        q = AdmissionQueue("fair")
        r1 = q.submit("a", "j1", now=0.0)
        q.submit("a", "j2", now=0.0)
        assert q.cancel(r1.rid) is r1
        assert q.cancel(r1.rid) is None
        assert len(q) == 1
        assert q.next(now=1.0).job_id == "j2"

    @staticmethod
    def _never_starved(servers, n_flooders, backlog, est, refill):
        # However hard flooders push, a tenant's pending head is overtaken
        # at most once per competing head plus the work already pending at
        # submission time — it is always served, whatever the slot count
        # (the servers take a request each, in lockstep: equal estimates).
        q = AdmissionQueue("fair", servers=servers, default_est_s=est)
        now, jid = 0.0, 0
        for f in range(n_flooders):
            for _ in range(backlog):
                q.submit(f"f{f}", f"j{jid}", est_s=est, now=now)
                jid += 1
        pending_before = len(q)
        q.submit("trickler", "target", est_s=est, now=now)
        overtakes = 0
        refills = iter(refill + [True] * 1000)  # keep the pressure on
        served = False
        while not served:
            batch = []
            for _ in range(servers):
                req = q.next(now=now)
                if req.tenant == "trickler":
                    served = True
                    break
                overtakes += 1
                batch.append(req)
            now += est
            for req in batch:
                q.complete(req, now=now)
            for f in range(n_flooders):
                if next(refills):
                    q.submit(f"f{f}", f"j{jid}", est_s=est, now=now)
                    jid += 1
            assert overtakes <= pending_before + n_flooders, "starved"

    _flood = dict(
        n_flooders=st.integers(min_value=1, max_value=5),
        backlog=st.integers(min_value=1, max_value=10),
        est=st.floats(min_value=0.1, max_value=10.0),
        refill=st.lists(st.booleans(), min_size=0, max_size=40),
    )

    @settings(max_examples=25, deadline=None)
    @given(**_flood)
    def test_no_starvation_property(self, n_flooders, backlog, est, refill):
        self._never_starved(1, n_flooders, backlog, est, refill)

    @settings(max_examples=25, deadline=None)
    @given(**_flood)
    def test_no_starvation_property_on_two_slots(self, n_flooders, backlog,
                                                 est, refill):
        self._never_starved(2, n_flooders, backlog, est, refill)


# ------------------------------------------------------------ live daemon


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    root = tmp_path_factory.mktemp("service")
    svc = ReproService(
        root / "state", store_dir=str(root / "store"), policy="fair",
    )
    svc.start()
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(state_dir=str(root / "state"), timeout_s=180.0)
    yield svc, client
    svc.stop()
    thread.join(timeout=10.0)


def _wait_status(client, job_id, states, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status = client.status(job_id)
        if status["status"] in states:
            return status
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never reached {states}")


class TestHttpRoundTrip:
    def test_protocol_golden_round_trip(self, daemon):
        _, client = daemon
        golden = json.loads(GOLDEN.read_text())
        spec = {"apps": ["SD", "SB"], "cycles": 20000}

        receipt = client.submit("workload", spec, tenant="alice")
        job_id = receipt["job"]
        assert {**receipt, "job": "<job>"} == golden["submit"]

        final = client.wait(job_id)
        resubmit = client.submit("workload", spec, tenant="bob")
        assert {**resubmit, "job": "<job>"} == golden["resubmit"]

        final = client.status(job_id)
        assert final["result"]["result"]["names"] == ["SD", "SB"]
        masked = {**final, "job": "<job>", "result": "<result>"}
        assert masked == golden["status"]

        events = list(client.stream(job_id))
        assert [e["event"] for e in events] == golden["events"]
        assert events[0]["deduped"] is False
        assert events[-1]["deduped"] is True  # bob's subscription
        done = [e for e in events if e["event"] == "done"][0]
        assert done["job"] == job_id and done["error"] is None

    def test_cancel_round_trip_golden(self, daemon):
        svc, client = daemon
        golden = json.loads(GOLDEN.read_text())
        # A blocker per slot occupies the daemon long enough for the target
        # to still be queued when the cancel lands.
        blockers = [
            client.submit(
                "workload", {"apps": ["NN", "VA"], "cycles": 120000 - slot},
                tenant="alice",
            )
            for slot in range(svc.slots)
        ]
        for blocker in blockers:
            _wait_status(client, blocker["job"], ("running", "done"))
        blocker = blockers[0]
        target = client.submit(
            "workload", {"apps": ["BS", "AA"], "cycles": 120001},
            tenant="bob",
        )
        receipt = client.cancel(target["job"])
        assert {**receipt, "job": "<job>"} == golden["cancel"]
        assert client.status(target["job"])["status"] == "cancelled"
        # Re-cancelling reports the same terminal state, not an error.
        again = client.cancel(target["job"])
        assert again["status"] == "cancelled"
        # Cancelling a finished job is a no-op.
        final = client.wait(blocker["job"])
        assert final["status"] == "done"
        noop = client.cancel(blocker["job"])
        assert noop["cancelled"] is False and noop["status"] == "done"

    def test_resubmit_after_cancel_is_fresh(self, tmp_path):
        # Pure submission semantics: no scheduler thread, jobs stay queued.
        svc = ReproService(tmp_path / "state")
        req = parse_submit({"tenant": "a", "kind": "workload",
                            "spec": {"apps": ["SD"], "cycles": 999}})
        first = svc.submit(req)
        assert first["deduped"] is False
        assert svc.submit(req)["deduped"] is True  # still queued: dedup
        svc.cancel(first["job"])
        assert svc.jobs[first["job"]].state == "cancelled"
        fresh = svc.submit(req)
        assert fresh["deduped"] is False  # cancelled → a new attempt

    def test_misbehaving_clients_get_one_line_errors(self, daemon):
        svc, client = daemon
        with pytest.raises(ServiceError) as err:
            client.submit("workload", {"apps": ["NOPE"]})
        assert err.value.status == 400 and "unknown app" in err.value.message
        with pytest.raises(ServiceError) as err:
            client.status("feedbeef")
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            client.cancel("feedbeef")
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/v1/nope")
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            client.submit("chaos", {"jobs": [{"mode": "ok"}]})
        assert err.value.status == 400
        assert "chaos submissions are disabled" in err.value.message
        # The daemon survived all of it.
        assert client.health()["ok"] is True

    def test_raw_malformed_bodies(self, daemon):
        import urllib.error
        import urllib.request

        svc, _ = daemon
        req = urllib.request.Request(
            svc.url + "/v1/jobs", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400
        body = json.loads(err.value.read().decode())
        assert "bad JSON" in body["error"]

    def test_scenario_catalog_lists_registry(self, daemon):
        _, client = daemon
        rows = client.scenarios()
        names = {r["name"] for r in rows}
        assert {"fig2", "fig3", "fig5"} <= names
        assert all(len(r["scenario_id"]) == 64 for r in rows)

    def test_queue_endpoint_exposes_fairness_and_audit(self, daemon):
        _, client = daemon
        snap = client.queue()
        assert snap["schema"] == "repro.service.queue/1"
        assert snap["policy"] == "fair"
        assert snap["audit"]["total"] >= 1
        assert snap["fairness"]["unfairness"] is not None
        assert 0.0 < snap["fairness"]["jains_index"] <= 1.0

    def test_report_covers_served_jobs(self, daemon):
        _, client = daemon
        report = client.report()
        assert report["n_jobs"] >= 1
        assert report["ok"] >= 1


def _serving(tmp_path, **kw):
    """A started daemon of the test's own: ``(service, client, thread)``."""
    svc = ReproService(tmp_path / "state", **kw)
    svc.start()
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(state_dir=str(tmp_path / "state"), timeout_s=180.0)
    return svc, client, thread


def _wait_running(client, n, timeout_s=30.0):
    """Poll /v1/queue until ``n`` jobs are in a slot at the same instant."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        running = client.queue()["running"]
        if len(running) == n:
            return running
        time.sleep(0.02)
    raise AssertionError(f"never saw {n} jobs running at once")


def _group_gone(pgid, timeout_s=5.0):
    """Whether process group ``pgid`` empties out (its orphaned members are
    reaped by init, which takes a moment)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    return False


def _journal(svc):
    return [json.loads(line) for line in
            (svc.state_dir / JOURNAL_FILE).read_text().splitlines()]


two_slots = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2,
    reason="one usable CPU: the daemon has one slot",
)


@pytest.mark.slow
class TestJobProcesses:
    """Every admitted job runs in a job process of its own; the daemon
    coordinates, with one slot per usable CPU."""

    def test_slot_rule(self, tmp_path):
        cpus = len(os.sched_getaffinity(0))
        assert ReproService(tmp_path / "a").slots == cpus
        assert ReproService(tmp_path / "a").queue.servers == cpus
        # An explicit --jobs already says how many processes a job may use.
        assert ReproService(tmp_path / "b", jobs=1).slots == 1
        assert ReproService(tmp_path / "c", jobs=4).slots == 1
        with pytest.raises(ValueError, match="jobs must be >= 1, got 0"):
            ReproService(tmp_path / "d", jobs=0)

    @two_slots
    def test_tenants_jobs_overlap_with_the_direct_results(
            self, daemon, tmp_path):
        # A workload, a sweep and a scenario from three tenants, at least
        # two of them in a slot at the same instant: each is what the direct
        # call gives.
        from repro.harness import (
            WorkloadJob, run_jobs, run_workload, scaled_config)
        from repro.harness.figures import record_figure, run_figure

        svc, client = daemon
        assert client.health()["slots"] == svc.slots >= 2
        pair = {"apps": ["QR", "SB"], "cycles": 24_000, "seed": 31}
        sweep = {"workloads": [["SD", "VA"], ["CT", "QR"]],
                 "cycles": 24_000, "seed": 32}
        fig = {"name": "fig4", "seed": 33}
        served = {
            "scenario": client.submit("scenario", fig, tenant="carol"),
            "sweep": client.submit("sweep", sweep, tenant="bob"),
            "workload": client.submit("workload", pair, tenant="alice"),
        }
        running = _wait_running(client, 2)
        assert {r["slot"] for r in running} == {0, 1}
        assert all(r["running_s"] >= 0.0 for r in running)
        snap = client.queue()
        assert snap["slots"] == svc.slots
        assert snap["metrics"]["service.queue.running"]["type"] == "gauge"
        final = {k: client.wait(r["job"]) for k, r in served.items()}
        assert [f["status"] for f in final.values()] == ["done"] * 3
        admitted = [e for e in client.stream(served["workload"]["job"])
                    if e["event"] == "admitted"]
        assert admitted[0]["slot"] in range(svc.slots)

        direct = run_workload(pair["apps"], config=scaled_config(seed=31),
                              shared_cycles=24_000)
        assert final["workload"]["result"]["result"] == direct.to_dict()
        outcomes = run_jobs([
            WorkloadJob(apps=tuple(apps), config=scaled_config(seed=32),
                        shared_cycles=24_000)
            for apps in sweep["workloads"]
        ])
        assert [o["result"] for o in final["sweep"]["result"]["outcomes"]
                ] == [o.result.to_dict() for o in outcomes]
        rec, spec = record_figure(str(tmp_path / "direct"),
                                  run_figure("fig4", seed=33))
        assert final["scenario"]["record_id"] == rec.record_id
        assert final["scenario"]["scenario_id"] == spec.scenario_id()
        assert final["scenario"]["result"]["record_id"] == rec.record_id

    @two_slots
    def test_helpers_only_for_a_request_admitted_beside_an_idle_slot(
            self, tmp_path, monkeypatch):
        # The first request is admitted while the other slot is idle and
        # overlaps its alone replays in helpers (chased spans); the second
        # is admitted while every other slot is busy and replays its alone
        # runs itself (no chased key).  Both give the direct results.
        from repro import forked
        from repro.harness import run_workload, scaled_config
        from repro.obs.bus import read_bus

        with monkeypatch.context() as m:
            m.setattr(forked, "usable_cpus", lambda: 2)
            svc, client, thread = _serving(tmp_path)
        try:
            assert svc.slots == 2
            first = {"apps": ["NN", "VA"], "cycles": 60_000, "seed": 51}
            second = {"apps": ["SD", "SB"], "cycles": 24_000, "seed": 51}
            ids = [client.submit("workload", first, tenant="alice")["job"]]
            _wait_running(client, 1)
            ids.append(client.submit("workload", second,
                                     tenant="bob")["job"])
            _wait_running(client, 2)
            final = [client.wait(job) for job in ids]
            assert [f["status"] for f in final] == ["done", "done"]
            for spec, status in zip((first, second), final):
                direct = run_workload(spec["apps"],
                                      config=scaled_config(seed=51),
                                      shared_cycles=spec["cycles"])
                assert status["result"]["result"] == direct.to_dict()
        finally:
            svc.stop()
            thread.join(timeout=10.0)
        records = read_bus(tmp_path / "state" / "bus")
        sweep_of = {r["key"]: r["sweep"] for r in records
                    if r["t"] == "job_start"}
        replays = {
            key: [r.get("args", {}) for r in records
                  if r["t"] == "span" and r["name"] == "replay"
                  and r["sweep"] == sweep_of[key]]
            for key in ("NN+VA", "SD+SB")
        }
        assert len(replays["NN+VA"]) == 2
        assert all(a.get("chased") is True for a in replays["NN+VA"])
        assert len(replays["SD+SB"]) == 2
        assert all("chased" not in a for a in replays["SD+SB"])

    @two_slots
    def test_a_killed_job_process_fails_its_job_only(self, tmp_path):
        from repro.harness import run_workload, scaled_config

        svc, client, thread = _serving(tmp_path)
        try:
            doomed_spec = {"apps": ["NN", "VA"], "cycles": 60_000, "seed": 41}
            sibling_spec = {"apps": ["SD", "SB"], "cycles": 24_000,
                            "seed": 41}
            doomed = client.submit("workload", doomed_spec, tenant="alice")
            sibling = client.submit("workload", sibling_spec, tenant="bob")
            _wait_running(client, 2)
            pid = svc._running[doomed["job"]].pid
            os.kill(pid, signal.SIGKILL)
            # The stream ends with the terminal event: nobody hangs on it.
            events = list(client.stream(doomed["job"]))
            assert events[-1]["event"] == "failed"
            assert events[-1]["error"] == "job process died: signal 9"
            failed = client.status(doomed["job"])
            assert failed["status"] == "failed"
            assert failed["error"] == "job process died: signal 9"
            assert _group_gone(pid)  # its helpers went with it
            assert {"t": "terminal", "state": "failed"}.items() <= next(
                r for r in _journal(svc)
                if r["t"] == "terminal" and r["job"] == doomed["job"]
            ).items()
            ok = client.wait(sibling["job"])
            assert ok["status"] == "done"
            direct = run_workload(sibling_spec["apps"],
                                  config=scaled_config(seed=41),
                                  shared_cycles=24_000)
            assert ok["result"]["result"] == direct.to_dict()
            assert client.health()["ok"] is True
            # The failed spec, resubmitted, is a fresh attempt.
            again = client.submit("workload", doomed_spec, tenant="alice")
            assert again["deduped"] is False
            assert client.wait(again["job"])["status"] == "done"
        finally:
            svc.stop()
            thread.join(timeout=10.0)
        assert multiprocessing.active_children() == []

    def test_vanishing_raising_and_unreadable_job_processes(self, tmp_path):
        # No pool to absorb them (one sub-job runs inline in the job
        # process): the job process itself hard-exits, or answers with a
        # pickle that detonates on load.  The daemon names what happened.
        svc, client, thread = _serving(tmp_path, allow_chaos=True)
        try:
            def settle(kind, spec):
                job = client.submit(kind, spec)["job"]
                events = list(client.stream(job))
                status = client.status(job)
                assert events[-1]["event"] == status["status"]
                assert "\n" not in (status["error"] or "")
                return status

            gone = settle("chaos", {"jobs": [{"mode": "exit"}]})
            assert (gone["status"], gone["error"]) == (
                "failed", "job process died: exit code 17")
            raised = settle("scenario", {"id": "0123456789abcdef"})
            assert raised["status"] == "failed"
            assert raised["error"].startswith(
                "ValueError: no servable scenario matches id")
            poisoned = settle("chaos", {"jobs": [{"mode": "bad-result"}]})
            assert poisoned["status"] == "failed"
            assert poisoned["error"] == (
                "job process answer unreadable: RuntimeError: "
                "result unpicklable (chaos bad-result)")
            # A lone flaky job used to be refused ("need a pooled run"):
            # now its first attempt costs one job process, and the retry —
            # a resubmission, run fresh — finds its attempt counter.
            flaky = {"jobs": [{"mode": "flaky", "payload": 7,
                               "flaky_failures": 1}]}
            first = settle("chaos", flaky)
            assert (first["status"], first["error"]) == (
                "failed", "job process died: exit code 23")
            second = settle("chaos", flaky)
            assert second["status"] == "done"
            assert second["result"]["outcomes"][0]["result"]["payload"] == 7
            assert client.health()["ok"] is True
            states = {r["job"]: r["state"] for r in _journal(svc)
                      if r["t"] == "terminal"}
            assert states[gone["job"]] == "failed"
            assert states[second["job"]] == "done"
        finally:
            svc.stop()
            thread.join(timeout=10.0)
        assert multiprocessing.active_children() == []

    def test_a_failed_jobs_error_survives_a_restart(self, tmp_path, capsys):
        svc, client, thread = _serving(tmp_path, allow_chaos=True)
        try:
            job = client.submit("chaos", {"jobs": [{"mode": "raise"}]})["job"]
            events = list(client.stream(job))
            failed = client.status(job)
        finally:
            svc.stop()
            thread.join(timeout=10.0)
        assert failed["status"] == "failed"
        assert failed["error"] == "RuntimeError: 1/1 chaos jobs failed"
        assert events[-1]["error"] == failed["error"]
        assert (f"repro serve: job {job[:12]} failed: RuntimeError: 1/1 "
                "chaos jobs failed\n") in capsys.readouterr().err

        restarted = ReproService(tmp_path / "state", allow_chaos=True)
        recovered = restarted.jobs[job]
        assert recovered.to_dict()["status"] == "failed"
        assert recovered.to_dict()["error"] == failed["error"]
        assert recovered.events[-1]["event"] == "failed"
        assert recovered.events[-1]["recovered"] is True
        assert recovered.events[-1]["error"] == failed["error"]

    def test_stop_reaps_and_the_next_start_reruns(self, tmp_path):
        spec = {"apps": ["NN", "VA"], "cycles": 60_000, "seed": 51}
        svc, client, thread = _serving(tmp_path)
        job = client.submit("workload", spec, tenant="alice")["job"]
        _wait_running(client, 1)
        pid = svc._running[job].pid
        svc.stop()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert multiprocessing.active_children() == []
        assert _group_gone(pid)  # the whole group: helpers too
        assert not any(t.is_alive() for t in svc._slot_threads)
        # No terminal record: to the journal it is a kill -9.
        assert [r["t"] for r in _journal(svc)] == ["submit"]
        svc.stop()  # idempotent

        svc, client, thread = _serving(tmp_path)
        try:
            final = client.wait(job, timeout_s=60.0)
            assert final["status"] == "done"
            assert final["result"]["result"]["names"] == ["NN", "VA"]
        finally:
            svc.stop()
            thread.join(timeout=10.0)
        assert multiprocessing.active_children() == []

    def test_only_the_daemon_process_writes_journal_events_and_store(self):
        # What runs inside the job process — its entry point and everything
        # of the daemon's that it calls — touches none of the daemon's
        # shared state: those writes happen on the other side of the pipe.
        from repro.service import daemon as d

        inside = [d.ReproService._job_main, d.ReproService._run_workloads,
                  d.ReproService._run_scenario, d.ReproService._run_chaos,
                  d.ReproService._outcome_dict, d._Progress]
        forbidden = ("_journal", "_emit", "record_figure", "_cond", "_lock",
                     "self.jobs", "self.queue", "_store(")
        for fn in inside:
            code = "\n".join(
                line.split("#")[0]
                for line in inspect.getsource(fn).splitlines())
            assert not [w for w in forbidden if w in code], fn.__qualname__
        # ... and the other side is the only one that forks.
        assert "forked.spawn" in inspect.getsource(d.ReproService._execute)


@pytest.mark.slow
class TestSharedAloneTrajectories:
    def test_second_job_is_served_from_the_first_jobs_curve(self, tmp_path):
        """What the daemon's cache shares across jobs: SB runs second in
        SD+SB and in BS+SB, so the later job — other co-runner, other
        instruction count — finds SB#1's alone clock on the stored curve
        and only simulates BS."""
        from repro.harness import run_workload, scaled_config
        from repro.obs.bus import read_bus

        # jobs=1: one process, so a job's cache probes (phase 1) come
        # before its simulated replays (phase 2) in the span order below.
        svc = ReproService(tmp_path / "state", jobs=1)
        svc.start()
        thread = threading.Thread(target=svc.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(state_dir=str(tmp_path / "state"),
                                   timeout_s=180.0)
            results = []
            for apps in (["SD", "SB"], ["BS", "SB"]):
                spec = {"apps": apps, "cycles": 24_000, "seed": 77}
                done = client.wait(client.submit("workload", spec)["job"])
                assert done["status"] == "done"
                results.append(done["result"]["result"])
        finally:
            svc.stop()
            thread.join(timeout=10.0)
        replays = [(r["args"]["app"], r["args"]["cached"], r["args"])
                   for r in read_bus(svc._bus_dir)
                   if r["t"] == "span" and r["name"] == "replay"]
        assert [(app, cached) for app, cached, _ in replays] == [
            ("SD", False), ("SB", False), ("SB", True), ("BS", False)]
        served = replays[2][2]
        assert served["instructions"] == results[1]["instructions"][1]
        assert served["instructions"] <= served["curve_end"]
        assert served["curve_end"] >= results[0]["instructions"][1]
        direct = run_workload(["BS", "SB"], config=scaled_config(seed=77),
                              shared_cycles=24_000)
        assert results[1]["alone_cycles"] == direct.alone_cycles
        assert results[1]["actual_slowdowns"] == direct.actual_slowdowns


    def test_default_daemon_overlaps_a_jobs_private_replays(self, tmp_path):
        """`jobs=None` is run_jobs' default: on a host with a spare CPU a
        request's alone replays (all private — it is a one-job sweep) run
        in helpers forked from its job process; the stored curve
        still serves the second job, and the results are the direct
        run's."""
        import multiprocessing

        from repro.harness import parallel, run_workload, scaled_config
        from repro.obs.bus import read_bus

        svc = ReproService(tmp_path / "state")
        assert svc.n_jobs is None
        svc.start()
        thread = threading.Thread(target=svc.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(state_dir=str(tmp_path / "state"),
                                   timeout_s=180.0)
            results = []
            for apps in (["SD", "SB"], ["BS", "SB"]):
                spec = {"apps": apps, "cycles": 24_000, "seed": 78}
                done = client.wait(client.submit("workload", spec)["job"])
                assert done["status"] == "done"
                results.append(done["result"]["result"])
        finally:
            svc.stop()
            thread.join(timeout=10.0)
        assert multiprocessing.active_children() == []
        spans = [r["args"] for r in read_bus(svc._bus_dir)
                 if r["t"] == "span" and r["name"] == "replay"]
        overlap = parallel._can_overlap()
        assert sorted(
            (a["app"], a["cached"], a.get("chased", False)) for a in spans
        ) == sorted([("SD", False, overlap), ("SB", False, overlap),
                     ("BS", False, overlap), ("SB", True, False)])
        for apps, got in zip((["SD", "SB"], ["BS", "SB"]), results):
            direct = run_workload(apps, config=scaled_config(seed=78),
                                  shared_cycles=24_000)
            assert got["alone_cycles"] == direct.alone_cycles
            assert got["estimates"] == direct.to_dict()["estimates"]


class TestScenarioDedup:
    def test_same_scenario_same_seed_runs_once(self, daemon):
        svc, client = daemon
        spec = {"name": "fig3"}
        first = client.submit("scenario", spec, tenant="alice")
        second = client.submit("scenario", spec, tenant="bob")
        assert first["job"] == second["job"]
        final = client.wait(first["job"])
        assert final["status"] == "done"
        assert final["simulations"] == 1  # one simulation, two subscribers
        assert sorted(final["tenants"]) == ["alice", "bob"]
        assert final["record_id"] is not None
        # Both subscribers see the identical record id in the event stream.
        done = [e for e in client.stream(first["job"])
                if e["event"] == "done"]
        assert done[0]["record_id"] == final["record_id"]
        # Exactly one fig3 recording landed in the store.
        store = ResultStore(svc.store_dir)
        fig3 = [e for e in store.index()
                if e["scenario_name"] == "fig3"]
        assert len(fig3) == 1
        assert fig3[0]["record_id"] == final["record_id"]


class TestSubmitByCatalogId:
    def test_recorded_scenario_id_is_the_advertised_one(self, daemon):
        # fig4's catalog id used to be built from an unsorted partner list
        # while runs recorded a sorted one, so the record landed under an
        # id the catalog never advertised.
        svc, client = daemon
        sid = next(r["scenario_id"] for r in client.scenarios()
                   if r["name"] == "fig4" and r["source"] == "registry")
        final = client.wait(
            client.submit("scenario", {"id": sid}, tenant="alice")["job"])
        assert final["status"] == "done", final["error"]
        assert final["scenario_id"] == sid
        latest = ResultStore(svc.store_dir).load("fig4@-1")
        assert latest.scenario_id == sid
        assert latest.record_id == final["record_id"]

    @pytest.mark.slow
    def test_a_table_is_served_by_its_catalog_id(self, daemon, table3_run):
        # Table 3 is an entry like any figure: advertised, submitted by id,
        # and recorded under the id — and the record — a direct run gives.
        svc, client = daemon
        sid = next(r["scenario_id"] for r in client.scenarios()
                   if r["name"] == "table3" and r["source"] == "registry")
        assert sid == table3_run.spec.scenario_id()
        final = client.wait(
            client.submit("scenario", {"id": sid}, tenant="alice")["job"])
        assert final["status"] == "done", final["error"]
        assert final["scenario_id"] == sid
        latest = ResultStore(svc.store_dir).load("table3@-1")
        assert latest.record_id == final["record_id"]
        assert latest.payload == table3_run.payload


@pytest.mark.slow
class TestEquivalenceGate:
    def test_served_scenario_record_id_matches_direct_cli(
        self, daemon, tmp_path, capsys
    ):
        # The acceptance gate: fig2 through the daemon records the same
        # record id as `repro fig2 --store` run directly.  The daemon's
        # replay cache is shared so the alone-runs are computed once.
        svc, client = daemon
        direct = tmp_path / "direct-store"
        assert main(["fig2", "--store", str(direct),
                     "--cache-dir", svc.cache_dir]) == 0
        capsys.readouterr()
        direct_index = ResultStore(direct).index()
        assert len(direct_index) == 1

        sid = scenario_for("fig2").scenario_id()
        receipt = client.submit("scenario", {"id": sid[:16]}, tenant="alice")
        final = client.wait(receipt["job"])
        assert final["status"] == "done", final["error"]
        assert final["scenario_id"] == sid
        assert final["record_id"] == direct_index[0]["record_id"]
        assert final["scenario_id"] == direct_index[0]["scenario_id"]


class TestJournalRecovery:
    """Pure submission semantics: no scheduler thread, jobs stay queued."""

    @staticmethod
    def _request(cycles):
        return parse_submit({"tenant": "a", "kind": "workload",
                             "spec": {"apps": ["SD"], "cycles": cycles}})

    def test_submit_after_a_torn_tail_survives_the_next_restart(
            self, tmp_path):
        state = tmp_path / "state"
        first = ReproService(state).submit(self._request(999))["job"]
        with (state / JOURNAL_FILE).open("a") as fh:
            fh.write('{"t": "submit", "job": "dead')  # kill -9 mid-line
        restarted = ReproService(state)
        assert set(restarted.jobs) == {first}
        assert restarted.journal_skipped == 1
        # Accepted (and fsynced) after the restart: not glued onto the
        # fragment, so the restart after that still knows it.
        second = restarted.submit(self._request(1000))["job"]
        again = ReproService(state)
        assert set(again.jobs) == {first, second}
        assert again.jobs[second].state == "queued" and len(again.queue) == 2
        assert again.journal_skipped == 1

    @pytest.mark.parametrize("damaged", ['{"t":"submit"}', "[1]"])
    def test_one_damaged_record_does_not_stop_the_daemon(
            self, tmp_path, damaged, monkeypatch, capsys):
        state = tmp_path / "state"
        first = ReproService(state).submit(self._request(999))["job"]
        with (state / JOURNAL_FILE).open("a") as fh:
            fh.write(damaged + "\n")
        second = ReproService(state).submit(self._request(1000))["job"]
        svc = ReproService(state)
        assert set(svc.jobs) == {first, second}
        assert svc.journal_skipped == 1
        # `repro serve` says so once on stderr (no need to bind and serve
        # for that: the count is known once the service is constructed).
        monkeypatch.setattr(ReproService, "start", lambda self: "http://x")
        monkeypatch.setattr(ReproService, "serve_forever", lambda self: None)
        monkeypatch.setattr(ReproService, "stop", lambda self: None)
        assert main(["serve", "--state-dir", str(state)]) == 0
        assert ("repro serve: journal: skipped 1 unreadable record(s)\n"
                in capsys.readouterr().err)


@pytest.mark.slow
class TestKillResume:
    def _spawn(self, state_dir, store_dir):
        env = dict(os.environ)
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--state-dir", str(state_dir), "--store", str(store_dir)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )

    @staticmethod
    def _wait_health(state_dir, *, not_pid=None, timeout_s=30.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            try:
                client = ServiceClient(state_dir=str(state_dir),
                                       timeout_s=5.0)
                health = client.health()
                if health["ok"] and health["pid"] != not_pid:
                    return client, health["pid"]
            except (ServiceError, ValueError, OSError):
                pass
            time.sleep(0.1)
        raise AssertionError("daemon never became healthy")

    def test_kill_dash_nine_resumes_sweep_from_checkpoint(self, tmp_path):
        state = tmp_path / "state"
        store = tmp_path / "store"
        proc = self._spawn(state, store)
        try:
            client, pid = self._wait_health(state)
            spec = {
                "workloads": [["SD", "SB"], ["NN", "VA"], ["BS", "AA"],
                              ["SC", "SD"]],
                "cycles": 60000,
            }
            receipt = client.submit("sweep", spec, tenant="alice")
            job_id = receipt["job"]
            # Wait for at least one sub-job to land in the sweep checkpoint,
            # then kill -9 mid-sweep.
            ckpt = state / "ckpt"
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                lines = sum(
                    len(p.read_text().splitlines())
                    for p in ckpt.glob("sweep-*.jsonl")
                )
                if lines >= 1:
                    break
                time.sleep(0.1)
            else:
                raise AssertionError("no checkpoint progress before kill")
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

        proc = self._spawn(state, store)
        try:
            client, _ = self._wait_health(state, not_pid=pid)
            # The journal re-enqueued the interrupted sweep on startup.
            final = client.wait(job_id, timeout_s=120.0)
            assert final["status"] == "done", final["error"]
            outcomes = final["result"]["outcomes"]
            assert [o["key"] for o in outcomes] == [
                "SD+SB", "NN+VA", "BS+AA", "SC+SD"
            ]
            assert all(o["ok"] for o in outcomes)
            # At least the checkpointed sub-job came back from disk, not
            # from a re-run.
            assert any(o["resumed"] for o in outcomes)
        finally:
            try:
                client.shutdown()
                proc.wait(timeout=10)
            except Exception:
                proc.kill()
                proc.wait(timeout=10)
