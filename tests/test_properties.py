"""Property-based tests for the metrics and the LRU cache model.

Guarded on hypothesis being importable (it is an optional dev
dependency); the suite is skipped, not failed, where it is absent.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.config import CacheConfig  # noqa: E402
from repro.metrics import (  # noqa: E402
    error_distribution,
    estimation_error,
    harmonic_speedup,
    unfairness,
)
from repro.sim.cache import SetAssocCache  # noqa: E402

#: Valid slowdowns: ≥ 1 under contention (Eq. 1), finite for our sims.
slowdowns = st.lists(
    st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
    min_size=1, max_size=8,
)


class TestMetricsProperties:
    @given(slowdowns)
    def test_unfairness_at_least_one(self, s):
        assert unfairness(s) >= 1.0

    @given(slowdowns)
    def test_unfairness_scale_invariant(self, s):
        scaled = [2.0 * x for x in s]
        assert unfairness(scaled) == pytest.approx(unfairness(s), rel=1e-9)

    @given(slowdowns)
    def test_harmonic_speedup_bounds(self, s):
        """N / Σ slowdown ∈ (0, 1] when every slowdown is ≥ 1."""
        hs = harmonic_speedup(s)
        assert 0.0 < hs <= 1.0

    @given(slowdowns)
    def test_harmonic_speedup_unit_at_no_contention(self, s):
        assert harmonic_speedup([1.0] * len(s)) == pytest.approx(1.0)

    @given(
        st.floats(min_value=0.01, max_value=1e4, allow_nan=False),
        st.floats(min_value=0.01, max_value=1e4, allow_nan=False),
    )
    def test_estimation_error_nonnegative_and_zero_iff_exact(self, est, act):
        err = estimation_error(est, act)
        assert err >= 0.0
        assert estimation_error(act, act) == 0.0

    @given(st.lists(st.floats(min_value=0.0, max_value=10.0,
                              allow_nan=False), min_size=1, max_size=64))
    def test_error_distribution_sums_to_one(self, errs):
        dist = error_distribution(errs)
        assert sum(dist.values()) == pytest.approx(1.0)
        assert all(0.0 <= v <= 1.0 for v in dist.values())


#: Small geometries keep examples fast while still exercising eviction.
cache_configs = st.sampled_from([
    CacheConfig(size_bytes=2048, line_bytes=64, assoc=2),
    CacheConfig(size_bytes=4096, line_bytes=64, assoc=4),
    CacheConfig(size_bytes=8192, line_bytes=128, assoc=8),
])

accesses = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=63),   # tag
        st.integers(min_value=0, max_value=3),    # app
    ),
    min_size=1, max_size=200,
)


class TestLRUCacheProperties:
    @given(cache_configs, accesses)
    @settings(max_examples=50)
    def test_occupancy_never_exceeds_assoc(self, cfg, seq):
        cache = SetAssocCache(cfg)
        target_set = 0
        for tag, app in seq:
            cache.access(target_set, tag, app)
            assert len(cache._sets[target_set]) <= cfg.assoc

    @given(cache_configs, accesses)
    @settings(max_examples=50)
    def test_stats_partition_accesses(self, cfg, seq):
        cache = SetAssocCache(cfg)
        misses = 0
        for tag, app in seq:
            present = cache.contains(0, tag)
            assert cache.access(0, tag, app) is present  # hit iff resident
            misses += not present
        # Every resident line entered through a miss.
        assert len(cache._sets[0]) <= misses

    @given(cache_configs, accesses)
    @settings(max_examples=50)
    def test_immediate_reaccess_hits(self, cfg, seq):
        cache = SetAssocCache(cfg)
        for tag, app in seq:
            cache.access(0, tag, app)
            assert cache.contains(0, tag)
            assert cache.access(0, tag, app) is True

    @given(cache_configs)
    def test_lru_eviction_order(self, cfg):
        """Filling a set then adding one more evicts exactly the LRU tag."""
        cache = SetAssocCache(cfg)
        for tag in range(cfg.assoc):
            assert cache.access(0, tag, app=0) is False
        cache.access(0, 0, app=0)  # make tag 0 MRU; tag 1 is now LRU
        cache.access(0, cfg.assoc, app=0)  # one past capacity
        assert not cache.contains(0, 1)
        assert cache.contains(0, 0)
        assert cache.contains(0, cfg.assoc)

    @given(cache_configs, accesses)
    @settings(max_examples=25)
    def test_flush_empties_every_set(self, cfg, seq):
        cache = SetAssocCache(cfg)
        for tag, app in seq:
            cache.access(0, tag, app)
        cache.flush()
        assert all(not s for s in cache._sets)
        assert cache.occupancy_by_app() == {}


#: A made-up progress curve: strictly increasing cycles and counts.
_steps = st.lists(
    st.tuples(st.integers(1, 5_000), st.integers(1, 2_000)),
    min_size=1, max_size=60,
)


def _curve(steps):
    from itertools import accumulate

    from repro.sim.kernel import ProgressCurve

    return ProgressCurve(accumulate(c for c, _ in steps),
                         accumulate(n for _, n in steps))


class TestProgressCurveProperties:
    @given(_steps, st.data())
    def test_lookup_is_the_first_cycle_reaching_the_count(self, steps, data):
        curve = _curve(steps)
        count = data.draw(st.integers(1, curve.end))
        expect = next(c for c, n in zip(curve.cycles, curve.instructions)
                      if n >= count)
        assert curve.cycle_at(count) == expect
        assert curve.cycle_at(curve.end + 1) is None

    @given(_steps, st.data())
    def test_prefixes_of_one_trajectory_agree(self, steps, data):
        curve = _curve(steps)
        n = data.draw(st.integers(1, len(curve)))
        prefix = _curve(steps[:n])
        # A run stopped inside its last cycle holds a lower count there.
        floor = prefix.instructions[-2] + 1 if n > 1 else 1
        prefix.instructions[-1] = data.draw(
            st.integers(floor, prefix.instructions[-1]))
        assert prefix.same_trajectory(curve) and curve.same_trajectory(prefix)
        for count in (1, prefix.end):
            assert prefix.cycle_at(count) == curve.cycle_at(count)
        bent = prefix.copy()
        bent.cycles[data.draw(st.integers(0, n - 1))] += 5_001
        assert not bent.same_trajectory(curve)

    @given(_steps)
    def test_packed_sequences_round_trip(self, steps):
        from repro.harness.replay_cache import _pack, _unpack

        curve = _curve(steps)
        assert _unpack(_pack(curve.cycles)) == list(curve.cycles)
        assert _unpack(_pack(curve.instructions)) == list(curve.instructions)

    @settings(max_examples=8, deadline=None)
    @given(st.sampled_from(["SD", "SB", "QR", "CT", "VA"]),
           st.integers(0, 1),
           st.lists(st.integers(1, 4_000), min_size=1, max_size=4))
    def test_recorded_curve_is_monotone_and_its_stops_are_prefixes(
            self, name, stream_id, stops):
        from repro.harness import scaled_config
        from repro.sim.gpu import GPU, LaunchedKernel
        from repro.workloads import SUITE

        gpu = GPU(scaled_config(),
                  [LaunchedKernel(SUITE[name], stream_id=stream_id)])
        curve = gpu.record_progress(0)
        taken = []
        for count in sorted(stops):
            assert gpu.run_until_instructions(0, count) \
                == curve.cycle_at(count)
            taken.append(curve.copy())
        gpu.close()
        for seq in (curve.cycles, curve.instructions):
            assert all(a < b for a, b in zip(seq, seq[1:]))
        assert all(short.same_trajectory(curve) for short in taken)
        assert all(short.cycles == curve.cycles[:len(short)]
                   for short in taken)
