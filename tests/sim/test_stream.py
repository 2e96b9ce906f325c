"""Stream ordering tests, through the runtime's kernel launches."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import CudaRuntime, KernelClass, KernelSpec, VirtualClock, get_system

SPEC = KernelSpec("k", KernelClass.GEMM, 1e6, 1e3, 1e3, blocks=10)


def _runtime() -> CudaRuntime:
    """A runtime whose launches take no host time: a kernel is enqueued
    at the current clock."""
    return CudaRuntime(get_system("Tesla_V100"), VirtualClock(),
                       launch_overhead_ns=0)


def _enqueue(rt: CudaRuntime, at_ns: int, duration_ns: int) -> tuple[int, int]:
    rt.clock.now_ns = max(rt.clock.now_ns, at_ns)
    record = rt.launch_kernel(SPEC, clean_ns=duration_ns)
    return record.device_start_ns, record.device_end_ns


def test_in_order_back_to_back():
    rt = _runtime()
    assert _enqueue(rt, 0, 100) == (0, 100)
    # Waits for the stream, not its enqueue time.
    assert _enqueue(rt, 10, 50) == (100, 150)


def test_idle_stream_starts_at_enqueue():
    rt = _runtime()
    assert _enqueue(rt, 500, 10) == (500, 510)


def test_reset():
    rt = _runtime()
    _enqueue(rt, 0, 100)
    rt.reset()
    assert rt.stream(0).next_free_ns == 0
    assert _enqueue(rt, 5, 10) == (5, 15)


@settings(max_examples=60, deadline=None)
@given(jobs=st.lists(st.tuples(st.integers(0, 1000), st.integers(1, 500)),
                     min_size=1, max_size=30))
def test_no_overlap_property(jobs):
    """In-order stream: start = max(enqueue, next free), so intervals never
    overlap and never start before their enqueue time."""
    rt = _runtime()
    enqueue_clock = 0
    prev_end = 0
    for offset, duration in jobs:
        enqueue_clock += offset
        start, end = _enqueue(rt, enqueue_clock, duration)
        assert start == max(enqueue_clock, prev_end)
        assert end == start + duration == rt.stream(0).next_free_ns
        prev_end = end
