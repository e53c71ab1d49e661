"""Live progress for harness sweeps.

:class:`SweepProgress` is the reporter :func:`repro.harness.parallel.run_jobs`
drives as jobs complete: a single updating status line (job count, jobs/sec,
ETA, alone-replay cache hit stats, failures) on a TTY, or one plain line per
job otherwise.  The per-job record for after-the-fact analysis is the bus
``outcome`` record (:mod:`repro.obs.bus`: key, ok, duration, attempts and
cache counters), not a second log written here.

The reporter is deliberately decoupled from the pool: it only consumes
:class:`~repro.harness.parallel.JobOutcome` objects, so inline and pooled
sweeps report identically and tests can drive it directly.  When the
sweep runs with the telemetry bus enabled (:mod:`repro.obs.bus`), pass
the bus directory as ``bus=`` and the reporter additionally tails the
worker channels between completions, warning once per job that has been
in flight longer than 3× the EWMA job duration — the live counterpart of
the post-hoc straggler attribution in ``SweepStats``.

ETA uses an exponentially weighted moving average (α = 0.3) of the gaps
between job *completions* rather than the global mean rate: on
heterogeneous sweeps (a 12-app pair next to a 2-app pair) the global
mean is dominated by ancient history and the ETA jitters wildly as big
jobs land; the EWMA tracks the recent regime, and because completion
gaps already fold in worker parallelism it needs no jobs/worker model.
"""

from __future__ import annotations

import sys
import time
from typing import IO, TYPE_CHECKING, Callable

from repro.obs import bus as obs_bus

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.harness.parallel import JobOutcome


def _fmt_eta(seconds: float) -> str:
    seconds = max(0, int(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


class SweepProgress:
    """Progress reporter for one sweep of ``total`` workload jobs."""

    #: EWMA smoothing factor for completion gaps and job durations.
    ALPHA = 0.3
    #: A job is a live straggler when in flight > this × EWMA duration.
    STRAGGLER_FACTOR = 3.0

    def __init__(
        self,
        total: int,
        stream: IO[str] | None = None,
        label: str = "sweep",
        bus: "str | obs_bus.BusReader | None" = None,
        clock: Callable[[], float] | None = None,
        wall: Callable[[], float] | None = None,
    ) -> None:
        self.total = total
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.done = 0
        self.failed = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.busy_seconds = 0.0
        self._clock = clock if clock is not None else time.perf_counter
        # Bus timestamps are wall clock; straggler ages compare against this
        # (separately injectable so tests can pin the scan deterministically
        # without disturbing the perf_counter-based gap/ETA EWMAs).
        self._wall = wall if wall is not None else time.time
        self._t0 = self._clock()
        self._last_done_t = self._t0
        self._ewma_gap: float | None = None   # between completions
        self._ewma_dur: float | None = None   # job durations
        self._tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._closed = False
        self._bus: obs_bus.BusReader | None = None
        if bus is not None:
            self._bus = (
                bus if isinstance(bus, obs_bus.BusReader)
                else obs_bus.BusReader(bus)
            )
        self._inflight: dict[tuple, dict] = {}
        self._settled: set[tuple] = set()
        self._warned: set[tuple] = set()

    # ------------------------------------------------------------- protocol

    def job_done(self, outcome: "JobOutcome") -> None:
        """Record one completed job and refresh the status line."""
        now = self._clock()
        gap = max(0.0, now - self._last_done_t)
        self._last_done_t = now
        self._ewma_gap = self._ewma(self._ewma_gap, gap)
        self._ewma_dur = self._ewma(self._ewma_dur, outcome.duration_s)
        self.done += 1
        self.busy_seconds += outcome.duration_s
        if not outcome.ok:
            self.failed += 1
        cache = outcome.cache or {}
        self.cache_hits += cache.get("hits", 0)
        self.cache_misses += cache.get("misses", 0)
        self._emit_line(outcome)
        if self._bus is not None:
            self._check_stragglers()

    def _ewma(self, prev: float | None, value: float) -> float:
        if prev is None:
            return value
        return self.ALPHA * value + (1.0 - self.ALPHA) * prev

    def _check_stragglers(self) -> None:
        """Tail the bus channels; warn once per suspiciously old job."""
        # One poll() batch spans multiple channel files, and the reader
        # yields them in file order, not event order — a job's parent-side
        # ``outcome`` can surface *before* its worker-side ``job_start``.
        # Apply the whole batch in timestamp order (start wins ties, so a
        # same-instant end still settles it) and remember fully settled
        # jobs, so the in-flight set is consistent before the 3×-EWMA scan
        # and an already-finished job can never be warned as a straggler.
        order = {"job_start": 0}
        batch = sorted(
            self._bus.poll(),
            key=lambda r: (r.get("ts") or 0.0, order.get(r.get("t"), 1)),
        )
        for rec in batch:
            t = rec.get("t")
            key = (rec.get("sweep"), rec.get("job"))
            if t == "job_start":
                if key not in self._settled:
                    self._inflight[key] = rec
            elif t == "job_end":
                self._inflight.pop(key, None)
            elif t == "outcome":
                self._settled.add(key)
                self._inflight.pop(key, None)
        if self._ewma_dur is None or self._ewma_dur <= 0:
            return
        threshold = self.STRAGGLER_FACTOR * self._ewma_dur
        now = self._wall()  # bus timestamps are wall clock
        for key, rec in self._inflight.items():
            if key in self._warned:
                continue
            age = now - rec.get("ts", now)
            if age > threshold:
                self._warned.add(key)
                self.stream.write(
                    f"\n{self.label}: straggler: job {rec.get('job')} "
                    f"({rec.get('key', '?')}) in flight {age:.1f}s "
                    f"(> {self.STRAGGLER_FACTOR:.0f}x EWMA "
                    f"{self._ewma_dur:.1f}s)\n"
                )
                self.stream.flush()

    def close(self) -> None:
        """Finish the status line and print the sweep summary."""
        if self._closed:
            return
        self._closed = True
        if self._tty:
            self.stream.write("\n")
        elapsed = self._clock() - self._t0
        rate = self.done / elapsed if elapsed > 0 else 0.0
        self.stream.write(
            f"{self.label}: {self.done}/{self.total} jobs in "
            f"{elapsed:.1f}s ({rate:.2f} jobs/s), {self.failed} failed, "
            f"cache {self.cache_hits} hits / {self.cache_misses} misses\n"
        )
        self.stream.flush()

    # ------------------------------------------------------------ rendering

    def _status(self, outcome: "JobOutcome") -> str:
        elapsed = self._clock() - self._t0
        rate = self.done / elapsed if elapsed > 0 else 0.0
        # EWMA of completion gaps, not the global mean rate: stable on
        # heterogeneous sweeps, adapts when the job-size regime shifts.
        remaining = (
            (self.total - self.done) * self._ewma_gap
            if self._ewma_gap else 0.0
        )
        bits = [
            f"[{self.done}/{self.total}]",
            outcome.job.key,
            "ok" if outcome.ok else "FAIL",
            f"{outcome.duration_s:.1f}s",
            f"{rate:.2f} jobs/s",
            f"eta {_fmt_eta(remaining)}",
        ]
        if self.cache_hits or self.cache_misses:
            bits.append(f"cache {self.cache_hits}h/{self.cache_misses}m")
        if self.failed:
            bits.append(f"{self.failed} failed")
        return " | ".join(bits)

    def _emit_line(self, outcome: "JobOutcome") -> None:
        line = self._status(outcome)
        if self._tty:
            # Single self-overwriting status line; pad to clear leftovers.
            self.stream.write("\r" + line.ljust(78)[:120])
        else:
            self.stream.write(line + "\n")
        self.stream.flush()

