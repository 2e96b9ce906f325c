"""Device memory pool tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import DeviceMemoryPool
from repro.sim.memory import OutOfDeviceMemoryError


def test_alloc_free_accounting():
    pool = DeviceMemoryPool(capacity_bytes=1000)
    a = pool.alloc(400, tag="x")
    b = pool.alloc(500, tag="y")
    assert pool.live_bytes == 900
    assert pool.peak_bytes == 900
    pool.free(a)
    assert pool.live_bytes == 500
    pool.free(b)
    assert pool.live_bytes == 0
    assert pool.peak_bytes == 900


def test_oom():
    pool = DeviceMemoryPool(capacity_bytes=100)
    pool.alloc(80)
    with pytest.raises(OutOfDeviceMemoryError, match="exceeds device"):
        pool.alloc(21)


def test_negative_alloc_rejected():
    with pytest.raises(ValueError):
        DeviceMemoryPool(capacity_bytes=10).alloc(-1)


def test_double_free_rejected():
    pool = DeviceMemoryPool(capacity_bytes=100)
    a = pool.alloc(10)
    pool.free(a)
    with pytest.raises(KeyError):
        pool.free(a)


def test_free_all_releases_everything():
    pool = DeviceMemoryPool(capacity_bytes=1000)
    allocations = [pool.alloc(n, tag="conv1") for n in (100, 200, 300)]
    pool.free_all()
    assert pool.live_bytes == 0
    assert pool.peak_bytes == 600
    for allocation in allocations:
        with pytest.raises(KeyError):
            pool.free(allocation)
    pool.alloc(1000)  # the whole capacity is available again


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(0, 100), max_size=40))
def test_conservation_property(sizes):
    """live = sum(allocs) - sum(frees); peak >= live always."""
    pool = DeviceMemoryPool(capacity_bytes=10_000)
    live = []
    for size in sizes:
        try:
            live.append(pool.alloc(size))
        except OutOfDeviceMemoryError:
            break
        if len(live) > 3:
            pool.free(live.pop(0))
        assert pool.live_bytes == sum(a.nbytes for a in live)
        assert pool.peak_bytes >= pool.live_bytes
