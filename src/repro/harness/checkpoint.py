"""Partial-sweep checkpointing: an interrupted sweep resumes, not restarts.

A figure sweep is a list of :class:`~repro.harness.parallel.WorkloadJob`
items; each finished job's :class:`~repro.harness.runner.WorkloadResult`
round-trips JSON exactly (``to_dict``/``from_dict``).  A
:class:`SweepCheckpoint` appends one self-checksummed JSONL line per
completed job to a file *named by the sweep's identity* — the digest of
every job's fingerprint, in order — so:

* re-running the same sweep finds its own checkpoint and skips completed
  jobs (``repro fig5 --resume-dir``);
* a sweep with different jobs, parameters, or ordering gets a different
  file and never resurrects foreign results;
* a line torn by the interruption itself (the reason checkpoints exist)
  is skipped by the loader, and the next ``record`` terminates the
  fragment before appending (:func:`repro.durable.open_log`), so an
  interruption loses at most the in-flight job — however often it recurs.

Appending is atomic enough at JSONL granularity: each ``record`` opens,
writes one line, flushes, and closes, so concurrent sweeps over the same
directory interleave whole lines at worst (and the per-line checksum
catches the pathological torn case).
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import TYPE_CHECKING, Sequence

from repro import durable
from repro.harness.replay_cache import fingerprint
from repro.harness.runner import WorkloadResult
from repro.hashing import digest

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.harness.parallel import JobOutcome


class SweepCheckpoint:
    """Append-only completed-job store for one specific sweep.

    ``jobs`` is the full ordered job list; the checkpoint file is named by
    its collective fingerprint.  Only successful outcomes whose result is
    a :class:`WorkloadResult` are recorded (chaos/ad-hoc jobs pass
    through uncheckpointed — their results have no canonical codec).
    """

    def __init__(
        self, directory: str | os.PathLike, jobs: Sequence[object]
    ) -> None:
        self.directory = pathlib.Path(directory)
        if self.directory.exists() and not self.directory.is_dir():
            raise ValueError(
                f"checkpoint directory {self.directory} exists but is not "
                "a directory"
            )
        self._fingerprints = [fingerprint(job) for job in jobs]
        self.digest = fingerprint(self._fingerprints)
        self.path = self.directory / f"sweep-{self.digest[:20]}.jsonl"
        #: Lines dropped by :meth:`load` (corrupt/torn/foreign).
        self.skipped_lines = 0

    # -------------------------------------------------------------- loading

    def load(self) -> dict[int, WorkloadResult]:
        """Completed results by job index; empty when starting fresh."""
        out: dict[int, WorkloadResult] = {}
        try:
            records, self.skipped_lines = durable.read_log(self.path)
        except OSError:
            records, self.skipped_lines = [], 0
        for obj in records:
            try:
                stored = obj.pop("sha256")
                if stored != digest(obj):
                    raise ValueError("checksum mismatch")
                index = obj["index"]
                if not 0 <= index < len(self._fingerprints):
                    raise ValueError("index out of range")
                if obj["fingerprint"] != self._fingerprints[index]:
                    raise ValueError("job fingerprint mismatch")
                result = WorkloadResult.from_dict(obj["result"])
            except (KeyError, TypeError, ValueError):
                self.skipped_lines += 1
                continue
            out[index] = result
        return out

    # ------------------------------------------------------------ recording

    def record(self, outcome: "JobOutcome") -> bool:
        """Append one completed job; returns whether it was checkpointable."""
        if not outcome.ok or not isinstance(outcome.result, WorkloadResult):
            return False
        body = {
            "index": outcome.index,
            "fingerprint": self._fingerprints[outcome.index],
            "result": outcome.result.to_dict(),
        }
        body["sha256"] = digest(body)
        with durable.open_log(self.path) as log:
            durable.append(log, json.dumps(body, sort_keys=True), flush=True)
        return True


def resolve_checkpoint(
    checkpoint: "SweepCheckpoint | str | os.PathLike | None",
    jobs: Sequence[object],
) -> SweepCheckpoint | None:
    """Coerce a checkpoint argument: an instance, a directory, or None."""
    if checkpoint is None:
        return None
    if isinstance(checkpoint, SweepCheckpoint):
        return checkpoint
    return SweepCheckpoint(checkpoint, jobs)
