"""Unit tests for the shared L2 slice."""

from hypothesis import given, strategies as st

from repro.config import CacheConfig
from repro.sim.cache import SetAssocCache


def small_cache(assoc=4, sets=8) -> SetAssocCache:
    cfg = CacheConfig(size_bytes=sets * assoc * 128, line_bytes=128, assoc=assoc)
    return SetAssocCache(cfg)


def test_miss_then_hit():
    c = small_cache()
    assert c.access(0, tag=1, app=0) is False
    assert c.access(0, tag=1, app=0) is True


def test_lru_eviction_order():
    c = small_cache(assoc=2)
    c.access(0, tag=1, app=0)
    c.access(0, tag=2, app=0)
    c.access(0, tag=1, app=0)  # 1 becomes MRU, 2 is LRU
    c.access(0, tag=3, app=0)  # evicts 2
    assert c.contains(0, 1)
    assert not c.contains(0, 2)
    assert c.contains(0, 3)


def test_sets_are_independent():
    c = small_cache(assoc=1)
    c.access(0, tag=7, app=0)
    c.access(1, tag=7, app=0)
    assert c.contains(0, 7) and c.contains(1, 7)
    c.access(0, tag=8, app=0)  # evicts only from set 0
    assert not c.contains(0, 7)
    assert c.contains(1, 7)


def test_cross_app_eviction_tracks_owner():
    c = small_cache(assoc=1)
    c.access(0, tag=1, app=0)
    c.access(0, tag=2, app=1)  # app 1 evicts app 0's line
    occ = c.occupancy_by_app()
    assert occ.get(1) == 1
    assert occ.get(0) is None


def test_hit_by_other_app_transfers_ownership():
    c = small_cache()
    c.access(0, tag=1, app=0)
    assert c.access(0, tag=1, app=1) is True
    assert c.occupancy_by_app() == {1: 1}


def test_contains_does_not_touch_lru_or_stats():
    c = small_cache(assoc=2)
    c.access(0, tag=1, app=0)
    c.access(0, tag=2, app=0)
    assert c.contains(0, 1)
    assert not c.contains(0, 5)  # a probe never fills
    assert c.access(0, tag=5, app=0) is False  # LRU must still be tag 1
    assert not c.contains(0, 1)


def test_flush_clears_everything():
    c = small_cache()
    c.access(0, tag=1, app=0)
    c.flush()
    assert not c.contains(0, 1)
    assert c.access(0, tag=1, app=0) is False


def test_occupancy_never_exceeds_assoc_per_set():
    c = small_cache(assoc=4, sets=2)
    for tag in range(100):
        c.access(tag % 2, tag, app=0)
    assert sum(c.occupancy_by_app().values()) <= 2 * 4


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=200))
def test_property_working_set_within_assoc_always_hits_after_warmup(tags):
    """Any access stream touching ≤ assoc distinct tags in one set never
    misses again once each tag has been touched."""
    c = small_cache(assoc=4)
    seen = set()
    for t in tags:
        hit = c.access(0, t, app=0)
        assert hit == (t in seen)
        seen.add(t)


@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 1000), st.integers(0, 2)),
        min_size=1,
        max_size=300,
    )
)
def test_property_stats_add_up(accesses):
    c = small_cache(assoc=4, sets=8)
    misses = sum(not c.access(s, t, a) for s, t, a in accesses)
    resident = sum(c.occupancy_by_app().values())
    assert resident <= 8 * 4
    assert misses >= resident  # every resident line entered through a miss
