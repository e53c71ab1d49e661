"""Shared L2 cache slice (one per memory partition).

Set-associative, LRU, physically shared by all concurrent applications —
the contention this creates (an application's lines evicted by another's)
is the *shared cache interference* term of the DASE model (Eq. 11).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.config import CacheConfig


class SetAssocCache:
    """A classic set-associative LRU cache over (set, tag) coordinates.

    Each set is an :class:`OrderedDict` from tag to owning application index;
    ordering encodes recency (last item = MRU).  Storing the owner lets the
    eviction path report *who displaced whom*, which tests use to validate
    contention accounting.

    ``SM._burst_done`` (L1) and ``MemoryPartition.access`` (L2) inline
    :meth:`access` and count its hits and misses in the per-app counters.
    """

    __slots__ = ("config", "_sets", "_assoc")

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._assoc = config.assoc
        self._sets: list[OrderedDict[int, int]] = [
            OrderedDict() for _ in range(config.n_sets)
        ]

    def access(self, cache_set: int, tag: int, app: int) -> bool:
        """Look up (and on miss, fill) a line.  Returns True on hit.

        The fill happens immediately on miss — a simplification of MSHR
        behaviour that keeps a single access path; duplicate in-flight misses
        to the same line are rare for our generators and only shift absolute
        bandwidth slightly.
        """
        s = self._sets[cache_set]
        if tag in s:
            s.move_to_end(tag)
            s[tag] = app
            return True
        if len(s) >= self._assoc:
            s.popitem(last=False)  # evict LRU
        s[tag] = app
        return False

    def contains(self, cache_set: int, tag: int) -> bool:
        """Non-destructive presence probe (no LRU update)."""
        return tag in self._sets[cache_set]

    def occupancy_by_app(self) -> dict[int, int]:
        """Lines currently resident per application (diagnostics)."""
        out: dict[int, int] = {}
        for s in self._sets:
            for app in s.values():
                out[app] = out.get(app, 0) + 1
        return out

    def flush(self) -> None:
        """Invalidate every line (used between independent runs)."""
        for s in self._sets:
            s.clear()
