"""Metrics registry: named, hierarchical counters, gauges and histograms.

Instrument names are ``/``-separated paths (``sim/app0/ipc``), which gives
the registry a cheap hierarchy: :meth:`MetricsRegistry.subtree` returns
every instrument under a prefix, and exporters group rows by their leading
path components.  Instruments are created on first use and cached, so hot
callers hold a direct reference to the instrument object and pay one
attribute store per update — the registry dict is only touched at
get-or-create time.

The registry never mutates simulator state: it is a pure sink.  The
simulator publishes into it at interval boundaries (see
:meth:`repro.sim.gpu.GPU._publish_interval`), not on the per-event hot
path, so enabling metrics costs nothing between intervals.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator

from repro.obs.report import csv_table

#: Default histogram bucket upper bounds: powers of two spanning the
#: cycle/count magnitudes the simulator produces.
DEFAULT_BOUNDS: tuple[float, ...] = tuple(2.0**i for i in range(-4, 24, 2))


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease (n={n})")
        self.value += n

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-write-wins value (instantaneous level)."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket distribution (bucket upper bounds + overflow).

    ``counts[i]`` counts observations ``<= bounds[i]``; the final slot
    counts overflow.  Mean/min/max are tracked exactly.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "vmin", "vmax")

    kind = "histogram"

    def __init__(self, name: str, bounds: tuple[float, ...] | None = None) -> None:
        self.name = name
        self.bounds = tuple(sorted(bounds)) if bounds else DEFAULT_BOUNDS
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from the bucket counts (upper bound)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                return self.bounds[i] if i < len(self.bounds) else self.vmax
        return self.vmax

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "mean": self.mean,
            "min": self.vmin if self.count else None,
            "max": self.vmax if self.count else None,
            "buckets": {
                str(b): c for b, c in zip(self.bounds, self.counts) if c
            },
            "overflow": self.counts[-1],
        }


Instrument = Counter | Gauge | Histogram


class MetricsRegistry:
    """Get-or-create store of named instruments.

    A name resolves to exactly one instrument; asking for an existing name
    with a different kind is an error (it would silently split a series).
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Instrument] = {}

    def _get_or_create(self, name: str, cls, *args) -> Instrument:
        inst = self._instruments.get(name)
        if inst is None:
            inst = self._instruments[name] = cls(name, *args)
        elif not isinstance(inst, cls):
            raise TypeError(
                f"instrument {name!r} already registered as {inst.kind}, "
                f"not {cls.kind}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, bounds: tuple[float, ...] | None = None
    ) -> Histogram:
        return self._get_or_create(name, Histogram, bounds)

    # ---------------------------------------------------------------- reads

    def get(self, name: str) -> Instrument | None:
        return self._instruments.get(name)

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self) -> Iterator[Instrument]:
        return iter(self._instruments.values())

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def subtree(self, prefix: str) -> dict[str, Instrument]:
        """All instruments whose name is ``prefix`` or lies under it."""
        prefix = prefix.rstrip("/")
        head = prefix + "/"
        return {
            n: inst
            for n, inst in sorted(self._instruments.items())
            if n == prefix or n.startswith(head)
        }

    def snapshot(self) -> dict[str, dict]:
        """JSON-safe dump of every instrument, sorted by name."""
        return {n: self._instruments[n].snapshot() for n in self.names()}

    def to_csv(self) -> str:
        """Flat ``name,type,value`` rows (histograms report count/mean)."""
        rows = []
        for name in self.names():
            inst = self._instruments[name]
            if isinstance(inst, Histogram):
                value = f"count={inst.count};mean={inst.mean:.6g}"
            else:
                value = f"{inst.value:.6g}" if isinstance(
                    inst.value, float) else str(inst.value)
            rows.append([name, inst.kind, value])
        return csv_table(["name", "type", "value"], rows)
