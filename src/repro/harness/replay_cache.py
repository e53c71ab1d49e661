"""On-disk cache of alone-replay trajectories.

The evaluation methodology (:mod:`repro.harness.runner`) replays every
application *alone on the full GPU* for exactly the instruction count it
reached in the shared run.  The alone run is a pure function of

* the kernel spec (every field of :class:`~repro.sim.kernel.KernelSpec`),
* the stream identity (``stream_id`` seeds the warp RNGs), and
* the GPU configuration (including ``seed``),

and cycles-at-count is a curve along it, so the cache stores
**trajectories, not points**: one file per ``(spec + stream, config)``
holding the :class:`~repro.sim.kernel.ProgressCurve` the replay recorded,
as far as any replay has gone.  A lookup for *any* count up to the curve's
end is a hit (bisection: the first cycle whose cumulative count reaches
it — the clock a fresh replay to that count stops at); a count past the
end is a miss, the caller re-simulates from cycle 0 to the new furthest
count, and the longer curve replaces the shorter one.

Files are written atomically (:func:`repro.durable.replace_text`) and are
self-verifying: each carries a SHA-256 checksum of its own payload,
checked on every read.  A corrupt file (truncated write, bit flip,
concurrent filesystem damage) is *quarantined* — moved into
``<dir>/quarantine/`` for post-mortem — and reported as a miss, so the
caller recomputes and re-stores a good curve instead of crashing or,
worse, silently trusting a damaged cycle count.  Concurrent writers are
safe: every curve of one key is a prefix of the same deterministic
trajectory, a writer never replaces a stored curve that reaches further
than its own, and losing the check-then-write race only costs a later
re-extension.  The key covers the spec, not the simulator
*implementation*; the one automatic guard is that a freshly simulated
curve which disagrees with the stored one over their common prefix
quarantines the stored file instead of extending it.

The cache directory defaults to ``$REPRO_CACHE_DIR`` when set; callers
normally pass an explicit directory (the CLI exposes ``--cache-dir``).
"""

from __future__ import annotations

import base64
import dataclasses
import enum
import json
import operator
import os
import pathlib
import sys
import zlib
from array import array
from itertools import accumulate
from typing import Any

from repro import durable
from repro.config import GPUConfig
from repro.hashing import digest
from repro.sim.kernel import KernelSpec, ProgressCurve


def _canonical(obj: Any) -> Any:
    """Reduce dataclasses/enums to plain JSON-stable values for hashing."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def fingerprint(obj: Any) -> str:
    """Stable hex digest of any dataclass/primitive structure."""
    return digest(_canonical(obj))


def spec_fingerprint(spec: KernelSpec, stream_id: int) -> str:
    """Fingerprint of one kernel *as replayed*: spec fields + stream seed."""
    return fingerprint({"spec": _canonical(spec), "stream_id": stream_id})


def config_fingerprint(config: GPUConfig) -> str:
    """Fingerprint of the configuration: every :class:`GPUConfig` field."""
    return fingerprint(config)


def default_cache_dir() -> pathlib.Path | None:
    """The ``REPRO_CACHE_DIR`` directory, or None when caching is off."""
    d = os.environ.get("REPRO_CACHE_DIR", "")
    return pathlib.Path(d) if d else None


def cache_directory(directory: str | os.PathLike) -> pathlib.Path:
    """``directory`` as a cache directory: it may be missing (the first
    store creates it), but nothing other than a directory may be there."""
    path = pathlib.Path(directory)
    if path.exists() and not path.is_dir():
        raise ValueError(
            f"cache directory {path} exists but is not a directory"
        )
    return path


def entry_checksum(entry: dict) -> str:
    """Self-checksum of a cache entry: SHA-256 over the canonical JSON of
    every field except ``checksum`` itself."""
    return digest({k: v for k, v in entry.items() if k != "checksum"})


def _pack(seq) -> str:
    """A strictly increasing integer sequence, delta-encoded: base64 of the
    zlib-compressed little-endian uint32 first differences.  Differences
    along a curve are small, so an entry costs about a byte on disk, and
    decoding is C-speed but for one pass of :func:`itertools.accumulate`.
    """
    deltas = array("I", map(operator.sub, seq, [0, *seq[:-1]]))
    if sys.byteorder == "big":
        deltas.byteswap()
    # Level 1: the bytes are mostly zeros, higher levels save ~5 % of the
    # size for six times the time.
    packed = zlib.compress(deltas.tobytes(), 1)
    return base64.b64encode(packed).decode("ascii")


def _unpack(text: str) -> list[int]:
    deltas = array("I")
    deltas.frombytes(zlib.decompress(base64.b64decode(text)))
    if sys.byteorder == "big":
        deltas.byteswap()
    return list(accumulate(deltas.tolist()))


class AloneReplayCache:
    """Maps (kernel, stream, config) → the alone trajectory's progress
    curve, and through it any instruction count along it → alone cycles.

    One ``<key>.curve.json`` file per trajectory, plus an in-memory layer
    (curves as typed arrays) so repeated lookups within one process never
    re-read the disk.  ``hits``/``misses``/``stores`` counters let tests
    and benchmarks assert on cache behaviour.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = cache_directory(directory)
        self._mem: dict[str, ProgressCurve] = {}
        self.hits = 0
        self.misses = 0
        #: Curve files written (a put that finds a stored curve reaching
        #: at least as far writes nothing).
        self.stores = 0
        #: Files moved to ``quarantine/`` (the key then recomputes): failed
        #: verification or disagreed with a fresh simulation.
        self.quarantined = 0
        #: Orphan temp files removed on open.
        self.tmp_swept = durable.sweep_tmp(self.directory)

    def key(self, spec: KernelSpec, stream_id: int, config: GPUConfig) -> str:
        """What names a trajectory: the kernel as replayed + the config."""
        return fingerprint(
            {
                "spec": spec_fingerprint(spec, stream_id),
                "config": config_fingerprint(config),
            }
        )

    def _path(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.curve.json"

    def _load(self, key: str) -> ProgressCurve | None:
        """The verified curve on disk, or None (absent, or damaged and now
        quarantined)."""
        path = self._path(key)
        try:
            with path.open() as fh:
                entry = json.load(fh)
            if entry["checksum"] != entry_checksum(entry):
                raise ValueError("checksum mismatch")
            curve = ProgressCurve(
                _unpack(entry["cycles"]), _unpack(entry["instructions"])
            )
            if len(curve) != entry["entries"]:
                raise ValueError("entry count mismatch")
        except FileNotFoundError:
            return None
        except (OSError, TypeError, KeyError, ValueError, zlib.error):
            # Unreadable or not JSON (truncated write, on-disk damage), or
            # parsable but wrong: a flipped bit inside valid JSON is the
            # dangerous case — without the checksum it would be *trusted*.
            # (Anything that is not a curve entry lands here too:
            # unverifiable data is recomputed, not believed.)
            self.quarantined += durable.quarantine(path)
            return None
        return curve

    def curve(
        self, spec: KernelSpec, stream_id: int, config: GPUConfig
    ) -> ProgressCurve | None:
        """The trajectory as far as this cache knows it (the in-memory
        copy when there is one, else the file's), or None."""
        key = self.key(spec, stream_id, config)
        if key not in self._mem:
            stored = self._load(key)
            if stored is None:
                return None
            self._mem[key] = stored
        return self._mem[key]

    def get(
        self,
        spec: KernelSpec,
        stream_id: int,
        config: GPUConfig,
        instructions: int,
    ) -> int | None:
        """Alone cycles at ``instructions`` along the stored trajectory,
        or None when no stored curve reaches that far."""
        key = self.key(spec, stream_id, config)
        curve = self._mem.get(key)
        if curve is None or curve.end < instructions:
            # Another process may have stored (or extended) it since.
            stored = self._load(key)
            if stored is not None and (
                curve is None or stored.end > curve.end
            ):
                curve = self._mem[key] = stored
        cycles = None if curve is None else curve.cycle_at(instructions)
        if cycles is None:
            self.misses += 1
        else:
            self.hits += 1
        return cycles

    def put(
        self,
        spec: KernelSpec,
        stream_id: int,
        config: GPUConfig,
        instructions: int,
        alone_cycles: int,
        curve: ProgressCurve,
    ) -> bool:
        """Store the trajectory ``curve`` recorded up to ``instructions``,
        reached at ``alone_cycles``; True when a file was written.

        The stored file is re-read first: a curve there that reaches at
        least as far stays (a shorter one never replaces a longer one),
        and one that contradicts ``curve`` where they overlap was made by
        a different simulator and is quarantined.  ``curve`` is copied,
        so the caller may keep advancing it.
        """
        if curve.cycle_at(instructions) != alone_cycles:
            raise ValueError(
                f"curve puts {instructions} instructions at cycle "
                f"{curve.cycle_at(instructions)}, the replay at "
                f"{alone_cycles}"
            )
        key = self.key(spec, stream_id, config)
        stored = self._load(key)
        if stored is not None:
            if not stored.same_trajectory(curve):
                self.quarantined += durable.quarantine(self._path(key))
            elif stored.end >= curve.end:
                self._mem[key] = stored
                return False
        curve = self._mem[key] = curve.copy()
        entry = {
            "kernel": spec.name,
            "stream_id": stream_id,
            "entries": len(curve),
            "end": [curve.cycles[-1], curve.end],
            "cycles": _pack(curve.cycles),
            "instructions": _pack(curve.instructions),
        }
        entry["checksum"] = entry_checksum(entry)
        durable.replace_text(
            self._path(key), json.dumps(entry, indent=2, sort_keys=True) + "\n"
        )
        self.stores += 1
        return True

    def __len__(self) -> int:
        """Number of trajectories on disk (not just in memory)."""
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.curve.json"))


def resolve_cache(
    cache: AloneReplayCache | str | os.PathLike | None,
) -> AloneReplayCache | None:
    """Coerce a cache argument: an instance, a directory, or None.

    ``None`` falls back to ``$REPRO_CACHE_DIR`` so whole sweeps can be
    cached without threading a path through every call site.
    """
    if isinstance(cache, AloneReplayCache):
        return cache
    if cache is not None:
        return AloneReplayCache(cache)
    default = default_cache_dir()
    return AloneReplayCache(default) if default else None
