"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import Engine


def test_events_fire_in_time_order():
    eng = Engine()
    order = []
    eng.schedule(30, lambda: order.append("c"))
    eng.schedule(10, lambda: order.append("a"))
    eng.schedule(20, lambda: order.append("b"))
    eng.run()
    assert order == ["a", "b", "c"]


def test_ties_fire_in_insertion_order():
    eng = Engine()
    order = []
    for tag in "abcde":
        eng.schedule(5, lambda t=tag: order.append(t))
    eng.run()
    assert order == list("abcde")


def test_clock_advances_to_event_time():
    eng = Engine()
    seen = []
    eng.schedule(42, lambda: seen.append(eng.now))
    eng.run()
    assert seen == [42]
    assert eng.now == 42


def test_run_until_stops_before_later_events():
    eng = Engine()
    fired = []
    eng.schedule(10, lambda: fired.append(10))
    eng.schedule(100, lambda: fired.append(100))
    eng.run(until=50)
    assert fired == [10]
    assert eng.now == 50  # clock advanced to the window edge
    eng.run(until=200)
    assert fired == [10, 100]


def test_run_until_advances_clock_even_with_empty_queue():
    eng = Engine()
    eng.run(until=1234)
    assert eng.now == 1234


def test_nested_scheduling_from_callbacks():
    eng = Engine()
    order = []

    def first():
        order.append(("first", eng.now))
        eng.schedule(5, lambda: order.append(("second", eng.now)))

    eng.schedule(10, first)
    eng.run()
    assert order == [("first", 10), ("second", 15)]


def test_zero_delay_event_fires_at_current_cycle():
    eng = Engine()
    seen = []

    def outer():
        eng.schedule(0, lambda: seen.append(eng.now))

    eng.schedule(7, outer)
    eng.run()
    assert seen == [7]


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.schedule(-1, lambda: None)


def test_at_absolute_cycle():
    eng = Engine()
    seen = []
    eng.at(25, lambda: seen.append(eng.now))
    eng.run()
    assert seen == [25]


def test_at_in_past_rejected():
    eng = Engine()
    eng.schedule(10, lambda: eng.at(5, lambda: None))
    with pytest.raises(ValueError):
        eng.run()


def test_stop_halts_processing():
    eng = Engine()
    fired = []
    eng.schedule(1, lambda: fired.append(1))
    eng.schedule(2, eng.stop)
    eng.schedule(3, lambda: fired.append(3))
    eng.run()
    assert fired == [1]
    assert eng.pending == 1  # the t=3 event is still queued
    eng.run()
    assert fired == [1, 3]


def test_pending_counts_queued_events():
    eng = Engine()
    assert eng.pending == 0
    eng.schedule(1, lambda: None)
    eng.schedule(2, lambda: None)
    assert eng.pending == 2


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60))
def test_property_events_observe_monotonic_clock(delays):
    """However events are scheduled, observed fire times never decrease."""
    eng = Engine()
    times = []
    for d in delays:
        eng.schedule(d, lambda: times.append(eng.now))
    eng.run()
    assert len(times) == len(delays)
    assert times == sorted(times)
    assert times == sorted(delays)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=500),
            st.integers(min_value=0, max_value=500),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_property_nested_events_keep_order(pairs):
    """Events scheduled from callbacks still fire in global time order."""
    eng = Engine()
    times = []
    for outer_delay, inner_delay in pairs:
        def outer(inner=inner_delay):
            times.append(eng.now)
            eng.schedule(inner, lambda: times.append(eng.now))

        eng.schedule(outer_delay, outer)
    eng.run()
    assert times == sorted(times)
    assert len(times) == 2 * len(pairs)


# --- sparse schedules -------------------------------------------------------
#
# "Sparse" here is the schedule, not a queue mode: one event per cycle is
# the shape a bucket queue serves worst, and firing order, tie order, clock
# semantics, stop/resume and ``pending`` must hold there exactly as on
# bursty schedules.

import random as _random


def test_random_schedule_fires_in_cycle_then_schedule_order():
    """A randomized schedule with ties and nested events fires in
    ``(cycle, schedule order)``, the order computed here independently."""
    rng = _random.Random(20160807)
    plan = [(rng.randrange(20_000), i) for i in range(500)]
    eng = Engine()
    fired = []
    # Every schedule, in the order it happens: (cycle, schedule seq, tag).
    scheduled = []

    def cb(tag):
        fired.append((eng.now, tag))
        if tag >= 0 and tag % 5 == 0:  # nested schedule from a callback
            scheduled.append((eng.now + 3, len(scheduled), -tag - 1))
            eng.schedule(3, cb, -tag - 1)

    for cycle, tag in plan:
        scheduled.append((cycle, len(scheduled), tag))
        eng.at(cycle, cb, tag)
    eng.run()
    assert len(fired) == len(scheduled) == 600
    assert fired == [(cycle, tag) for cycle, _, tag in sorted(scheduled)]


def test_pending_in_sparse_mode():
    eng = Engine()
    for i in range(30):
        eng.schedule(i * 3, lambda: None)
    eng.run(until=45)
    assert eng.pending == sum(1 for i in range(30) if i * 3 > 45)
    eng.run()
    assert eng.pending == 0


def test_stop_and_resume_in_sparse_mode():
    eng = Engine()
    fired = []
    for i in range(40):
        eng.schedule(i * 2, lambda i=i: fired.append(i))
    eng.at(41, eng.stop)
    eng.run()
    assert fired == list(range(21))  # events at cycles 0..40 fired
    eng.run()  # resume drains the rest in order
    assert fired == list(range(40))


def test_run_until_in_sparse_mode_advances_clock():
    eng = Engine()
    for i in range(20):
        eng.schedule(i * 3, lambda: None)
    eng.run(until=60)
    assert eng.now == 60
    eng.run(until=500)
    assert eng.now == 500
