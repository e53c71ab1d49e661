"""Auxiliary Tag Directory (ATD) with set sampling [Qureshi & Patt, MICRO'06].

One ATD per (application, partition) tracks what the L2 slice *would*
contain if the application ran alone: same associativity, same LRU policy,
but fed only that application's accesses.  When the shared L2 misses while
the ATD hits, the miss is a *contention miss* — a line the application
would have kept was evicted by a co-runner.  DASE and ASM both consume this
signal (ELLCMiss, Eqs. 11/13/17).

To bound hardware cost the paper samples 8 sets; misses detected on sampled
sets are scaled up by 1/sample_fraction (Eq. 13).
"""

from __future__ import annotations

from collections import OrderedDict


class AuxTagDirectory:
    """Sampled shadow tag store for one application on one L2 slice."""

    __slots__ = (
        "assoc", "n_sets", "_sampled", "_sets", "sample_fraction",
        "sampled_contention_misses",
    )

    def __init__(self, n_sets: int, assoc: int, sample_sets: int) -> None:
        if sample_sets < 1:
            raise ValueError("need at least one sampled set")
        self.assoc = assoc
        self.n_sets = n_sets
        sample_sets = min(sample_sets, n_sets)
        # Spread sampled sets evenly across the index space.
        step = max(1, n_sets // sample_sets)
        chosen = [i * step for i in range(sample_sets)]
        self._sampled: dict[int, OrderedDict[int, None]] = {
            s: OrderedDict() for s in chosen
        }
        self.sample_fraction = len(chosen) / n_sets
        self.sampled_contention_misses = 0

    def is_sampled(self, cache_set: int) -> bool:
        return cache_set in self._sampled

    def observe(self, cache_set: int, tag: int, shared_hit: bool) -> bool:
        """Feed one L2 access; returns True if it is a contention miss.

        Must be called for *every* access by the owning application (the
        method ignores non-sampled sets internally), with ``shared_hit``
        describing what the real shared L2 did.
        """
        s = self._sampled.get(cache_set)
        if s is None:
            return False
        atd_hit = tag in s
        if atd_hit:
            s.move_to_end(tag)
        else:
            if len(s) >= self.assoc:
                s.popitem(last=False)
            s[tag] = None
        contention = atd_hit and not shared_hit
        if contention:
            self.sampled_contention_misses += 1
        return contention

    def estimated_contention_misses(self) -> float:
        """Scaled-up ELLCMiss estimate over the whole slice (Eq. 13)."""
        return self.sampled_contention_misses / self.sample_fraction

    def reset_counters(self) -> None:
        """Clear per-interval counters (tag state persists across intervals)."""
        self.sampled_contention_misses = 0
