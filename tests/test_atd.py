"""Unit tests for the sampled auxiliary tag directory."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.atd import AuxTagDirectory


def test_contention_miss_detected():
    """Shared-miss + ATD-hit = contention miss."""
    atd = AuxTagDirectory(n_sets=8, assoc=2, sample_sets=8)
    assert atd.observe(0, tag=1, shared_hit=False) is False  # cold in both
    # Now the ATD holds tag 1; a shared miss on it is contention.
    assert atd.observe(0, tag=1, shared_hit=False) is True
    assert atd.sampled_contention_misses == 1


def test_no_contention_when_shared_hits():
    atd = AuxTagDirectory(n_sets=8, assoc=2, sample_sets=8)
    atd.observe(0, tag=1, shared_hit=False)
    assert atd.observe(0, tag=1, shared_hit=True) is False
    assert atd.sampled_contention_misses == 0


def test_cold_miss_not_contention():
    atd = AuxTagDirectory(n_sets=8, assoc=2, sample_sets=8)
    assert atd.observe(0, tag=5, shared_hit=False) is False


def test_atd_lru_matches_cache_policy():
    """A tag evicted from the ATD by the app's own accesses is a capacity
    miss, not a contention miss."""
    atd = AuxTagDirectory(n_sets=8, assoc=2, sample_sets=8)
    atd.observe(0, 1, shared_hit=False)
    atd.observe(0, 2, shared_hit=False)
    atd.observe(0, 3, shared_hit=False)  # evicts tag 1 from the ATD
    assert atd.observe(0, 1, shared_hit=False) is False  # own capacity miss


def test_unsampled_sets_ignored():
    atd = AuxTagDirectory(n_sets=64, assoc=2, sample_sets=8)
    unsampled = next(s for s in range(64) if not atd.is_sampled(s))
    atd.observe(unsampled, 1, shared_hit=False)
    atd.observe(unsampled, 1, shared_hit=False)
    assert atd.sampled_contention_misses == 0


def test_scaling_by_sample_fraction():
    atd = AuxTagDirectory(n_sets=64, assoc=2, sample_sets=8)
    assert atd.sample_fraction == pytest.approx(8 / 64)
    sampled = next(s for s in range(64) if atd.is_sampled(s))
    atd.observe(sampled, 1, shared_hit=False)
    atd.observe(sampled, 1, shared_hit=False)  # contention
    assert atd.estimated_contention_misses() == pytest.approx(8.0)


def test_reset_counters_keeps_tag_state():
    atd = AuxTagDirectory(n_sets=8, assoc=2, sample_sets=8)
    atd.observe(0, 1, shared_hit=False)
    atd.reset_counters()
    assert atd.sampled_contention_misses == 0
    # Tag state persisted: next shared miss on tag 1 is still contention.
    assert atd.observe(0, 1, shared_hit=False) is True


def test_sample_sets_capped_at_n_sets():
    atd = AuxTagDirectory(n_sets=4, assoc=2, sample_sets=100)
    assert atd.sample_fraction == 1.0


def test_zero_sample_sets_rejected():
    with pytest.raises(ValueError):
        AuxTagDirectory(n_sets=8, assoc=2, sample_sets=0)


@given(st.lists(st.integers(0, 5), min_size=1, max_size=200))
def test_property_fully_sampled_atd_counts_exactly_shared_misses_that_would_hit(tags):
    """With 100% sampling and an identical cache running alongside, the ATD
    flags exactly the accesses where a private cache would hit but the
    shared outcome was a miss (here: shared always misses)."""
    from repro.config import CacheConfig
    from repro.sim.cache import SetAssocCache

    atd = AuxTagDirectory(n_sets=4, assoc=2, sample_sets=4)
    private = SetAssocCache(CacheConfig(size_bytes=4 * 2 * 128, assoc=2))
    expected = 0
    for t in tags:
        would_hit = private.access(t % 4, t, app=0)
        got = atd.observe(t % 4, t, shared_hit=False)
        if would_hit:
            expected += 1
        assert got == would_hit
    assert atd.sampled_contention_misses == expected
