"""Stream ordering tests."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Stream


def test_in_order_back_to_back():
    s = Stream(stream_id=0)
    assert s.enqueue(enqueue_ns=0, duration_ns=100) == (0, 100)
    # Waits for the stream, not its enqueue time.
    assert s.enqueue(enqueue_ns=10, duration_ns=50) == (100, 150)


def test_idle_stream_starts_at_enqueue():
    s = Stream(stream_id=0)
    assert s.enqueue(enqueue_ns=500, duration_ns=10) == (500, 510)


def test_reset():
    s = Stream(stream_id=0)
    s.enqueue(0, 100)
    s.reset()
    assert s.next_free_ns == 0
    assert s.enqueue(5, 10) == (5, 15)


@settings(max_examples=60, deadline=None)
@given(jobs=st.lists(st.tuples(st.integers(0, 1000), st.integers(1, 500)),
                     min_size=1, max_size=30))
def test_no_overlap_property(jobs):
    """In-order stream: start = max(enqueue, next free), so intervals never
    overlap and never start before their enqueue time."""
    s = Stream(stream_id=0)
    enqueue_clock = 0
    prev_end = 0
    for offset, duration in jobs:
        enqueue_clock += offset
        start, end = s.enqueue(enqueue_clock, duration)
        assert start == max(enqueue_clock, prev_end)
        assert end == start + duration == s.next_free_ns
        prev_end = end
