"""Chaos jobs: misbehaving work units for exercising the sweep harness.

The hardened :func:`repro.harness.parallel.run_jobs` accepts any job that
exposes ``.key`` and ``.execute()`` alongside the usual
:class:`~repro.harness.parallel.WorkloadJob`.  A :class:`ChaosJob` is such
a job whose *misbehaviour* is the payload: it can raise, kill its own
process, hang past the timeout, return a result that explodes during
unpickling, or fail only on its first k attempts (flaky).  The chaos test
suite (``tests/test_chaos_harness.py``) mixes these with healthy jobs and
asserts that the sweep completes with per-job accounting intact.

ChaosJob is a frozen top-level dataclass so it pickles cleanly, and its
cross-attempt state (how many times have I been tried?) lives in the
filesystem (``state_dir``) rather than in the parent's memory — each
attempt of a pooled job runs in a forked process of its own, and a retry
must discover its own history.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path

#: Recognised misbehaviours.
MODE_OK = "ok"
MODE_RAISE = "raise"
MODE_EXIT = "exit"          # os._exit: no exception, no cleanup, dead worker
MODE_HANG = "hang"          # sleep far past any per-job timeout
MODE_BAD_RESULT = "bad-result"  # result's pickle explodes at the parent
MODE_FLAKY = "flaky"        # fail the first `flaky_failures` attempts

_MODES = (MODE_OK, MODE_RAISE, MODE_EXIT, MODE_HANG, MODE_BAD_RESULT,
          MODE_FLAKY)


class _Unpicklable:
    """A value whose pickle stream raises at *load* time.

    ``__reduce__`` hands pickle a callable that raises, so the bytes
    serialize fine in the worker and detonate in the parent's result
    transport — the truncated/corrupt-result case a real sweep can hit.
    """

    def __reduce__(self):  # pragma: no cover - pickled in job processes
        return (_explode, ())


def _explode() -> None:
    raise RuntimeError("result unpicklable (chaos bad-result)")


@dataclass(frozen=True)
class ChaosJob:
    """A work unit that misbehaves on demand.

    ``state_dir`` (required for ``flaky``) holds one attempt-counter file
    per job so retries — which run in fresh processes — can see how many
    times they've been tried.  ``payload`` is echoed back on success so
    tests can verify result integrity and ordering.
    """

    name: str
    mode: str = MODE_OK
    payload: int = 0
    state_dir: str | None = None
    #: ``flaky`` mode: number of leading attempts that crash hard.
    flaky_failures: int = 1
    #: ``hang`` mode: how long to sleep (seconds).
    hang_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown chaos mode {self.mode!r}")
        if self.mode == MODE_FLAKY and self.state_dir is None:
            raise ValueError("flaky mode requires state_dir")

    @property
    def key(self) -> str:
        return f"chaos:{self.name}:{self.mode}:{self.payload}"

    def _bump_attempts(self) -> int:  # pragma: no cover - job processes only
        """Record one more attempt on disk; returns the attempt number
        (1-based).  Atomic enough for tests: attempts of one job never
        overlap because the harness retries sequentially."""
        assert self.state_dir is not None
        path = Path(self.state_dir) / f"{self.name}.attempts"
        n = 1
        if path.exists():
            n = int(path.read_text() or "0") + 1
        path.write_text(str(n))
        return n

    def execute(self):
        # The exit/hang/bad-result/flaky branches run only inside forked
        # job processes, which die without unwinding (os._exit, SIGKILL)
        # or leave without flushing a coverage reporter; the chaos suite
        # asserts their behaviour from the parent side instead.
        if self.mode == MODE_OK:
            return {"name": self.name, "payload": self.payload,
                    "pid": os.getpid()}
        if self.mode == MODE_RAISE:
            raise ValueError(f"chaos raise from {self.name}")
        if self.mode == MODE_EXIT:  # pragma: no cover
            # fd 2 directly: the harness captures each job process's
            # OS-level stderr, and a hard exit flushes no Python wrappers.
            os.write(2, f"chaos: {self.name} exiting hard\n".encode())
            os._exit(17)
        if self.mode == MODE_HANG:  # pragma: no cover
            time.sleep(self.hang_s)
            return {"name": self.name, "payload": self.payload,
                    "pid": os.getpid()}
        if self.mode == MODE_BAD_RESULT:  # pragma: no cover
            return _Unpicklable()
        if self.mode == MODE_FLAKY:  # pragma: no cover
            attempt = self._bump_attempts()
            if attempt <= self.flaky_failures:
                os.write(
                    2,
                    f"chaos: {self.name} flaking on attempt "
                    f"{attempt}\n".encode(),
                )
                os._exit(23)
            return {"name": self.name, "payload": self.payload,
                    "pid": os.getpid(), "attempt": attempt}
        raise AssertionError(  # pragma: no cover - modes validated in init
            f"unhandled mode {self.mode!r}"
        )
