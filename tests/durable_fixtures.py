"""What ``tests/golden/durable/`` holds, as code.

Each ``write_*`` puts one kind of durable file into a directory through the
owning module's public writer, with the wall clock and the pid pinned
(:func:`pinned`) wherever a record embeds one.  The committed fixtures were
written by running this file against the commit *before* ``repro.durable``
existed::

    PYTHONPATH=<parent checkout>/src python tests/durable_fixtures.py \
        tests/golden/durable

``tests/test_durable.py`` loads them with the current code and re-runs the
writers: the bytes must come out the same.  Only writer APIs that exist on
both sides of that commit are used here.
"""

from __future__ import annotations

import contextlib
import pathlib
import sys
from unittest import mock

from repro.harness import AloneReplayCache, SweepCheckpoint, scaled_config
from repro.harness.parallel import JobOutcome
from repro.harness.runner import WorkloadResult
from repro.obs.bus import WorkerChannel
from repro.service import ReproService
from repro.sim.kernel import ProgressCurve
from repro.store import ResultStore
from repro.workloads import SUITE

TS = 1_700_000_000.25
PID = 4242

CURVE = ProgressCurve([300, 777, 900, 1500], [400, 1010, 1300, 2500])
CURVE_AT = (2500, 1500)  # (instructions, alone cycles) at the curve's end

SCENARIO = {"name": "durable-golden", "kind": "fixture", "seeds": [2, 1]}
PAYLOADS = ({"unfairness": [1.5, 2.25]}, {"unfairness": [1.5, 2.5]})
PROVENANCE = {"git_rev": None, "created_at": "2026-01-01T00:00:00+0000"}

#: Checkpoint jobs only need a stable fingerprint; strings have one.
JOBS = ["job-a", "job-b"]
RESULT = WorkloadResult(
    names=["QR", "CT"], sm_partition=[8, 8], shared_cycles=6000,
    instructions=[2500, 1800], alone_cycles=[1500, 2400],
    actual_slowdowns=[4.0, 2.5], estimates={"DASE": [3.75, None]},
    bandwidth={"QR": 0.125}, final_sm_partition=[10, 6],
)

JOB_ID = "feedc0de" * 8
JOURNAL = (
    {"t": "submit", "job": JOB_ID, "tenant": "alice", "kind": "workload",
     "spec": {"apps": ["QR", "CT"], "cycles": 6000}, "rid": "r1"},
    {"t": "terminal", "job": JOB_ID, "state": "done", "record_id": None,
     "scenario_id": None},
)


@contextlib.contextmanager
def pinned():
    """The wall clock and the pid, as the fixtures saw them."""
    with mock.patch("time.time", return_value=TS), \
            mock.patch("os.getpid", return_value=PID):
        yield


def write_curve(directory) -> None:
    AloneReplayCache(directory).put(
        SUITE["QR"], 0, scaled_config(), *CURVE_AT, CURVE
    )


def write_store(directory) -> None:
    store = ResultStore(directory)
    for payload in PAYLOADS:
        store.record(SCENARIO, payload, "repro.store.legacy/1",
                     provenance=PROVENANCE)


def write_checkpoint(directory) -> None:
    cp = SweepCheckpoint(directory, JOBS)
    for index, job in enumerate(JOBS):
        cp.record(JobOutcome(index, job, result=RESULT))


def write_journal(directory) -> None:
    with pinned():
        service = ReproService(directory)
        for record in JOURNAL:
            service._journal(dict(record))


def write_bus(directory) -> None:
    with pinned():
        ch = WorkerChannel(directory)
        ch.job_start("4242-1", 0, "QR+CT", submit_ts=TS - 0.5)
        ch.span("simulate", 0.75, mode="event")
        ch.record({"t": "outcome", "sweep": "4242-1", "job": 0,
                   "key": "QR+CT", "ok": True, "ts": TS}, flush=True)
        ch.close()


#: Fixture subdirectory → its writer.
WRITERS = {
    "cache": write_curve,
    "store": write_store,
    "ckpt": write_checkpoint,
    "service": write_journal,
    "bus": write_bus,
}

#: The files under each subdirectory that are the fixture (a daemon's state
#: directory also holds empty working directories).
FILES = {
    "cache": "*.curve.json",
    "store": "**/*.json",
    "ckpt": "sweep-*.jsonl",
    "service": "journal.jsonl",
    "bus": "bus-*.jsonl",
}


def fixture_files(root: pathlib.Path, kind: str) -> dict[str, bytes]:
    """Relative path → content of one kind's fixture files under ``root``."""
    base = pathlib.Path(root) / kind
    return {
        str(p.relative_to(base)): p.read_bytes()
        for p in sorted(base.glob(FILES[kind]))
    }


if __name__ == "__main__":
    import shutil
    import tempfile

    out = pathlib.Path(sys.argv[1])
    with tempfile.TemporaryDirectory() as scratch:
        for kind, write in WRITERS.items():
            write(pathlib.Path(scratch) / kind)
            shutil.rmtree(out / kind, ignore_errors=True)
            for rel, data in fixture_files(scratch, kind).items():
                target = out / kind / rel
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(data)
                print(target)
