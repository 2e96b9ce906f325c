"""CUDA runtime tests: launches, streams, sync, env handling."""

import pytest

from repro.sim import CudaRuntime, KernelClass, KernelSpec, VirtualClock, get_system

V100 = get_system("Tesla_V100")


def spec(flops=1e9):
    return KernelSpec("k", KernelClass.CONV_PRECOMP_GEMM, flops, 1e6, 1e6,
                      blocks=500)


def test_async_launch_does_not_block_host():
    rt = CudaRuntime(V100, VirtualClock())
    record = rt.launch_kernel(spec())
    # Host time advanced only by the API overhead, not kernel duration.
    assert rt.clock.now() == record.api_end_ns
    assert record.device_end_ns > record.api_end_ns


def test_launch_blocking_env_serializes():
    rt = CudaRuntime(V100, VirtualClock(),
                     environment={"CUDA_LAUNCH_BLOCKING": "1"})
    assert rt.launch_blocking
    record = rt.launch_kernel(spec())
    assert rt.clock.now() >= record.device_busy_until_ns


def test_correlation_ids_monotone_unique():
    rt = CudaRuntime(V100)
    ids = [rt.launch_kernel(spec()).correlation_id for _ in range(5)]
    assert ids == sorted(set(ids))


def test_stream_synchronize_advances_host():
    rt = CudaRuntime(V100, VirtualClock())
    record = rt.launch_kernel(spec())
    rt.stream_synchronize()
    assert rt.clock.now() == record.device_busy_until_ns


def test_two_streams_can_overlap():
    rt = CudaRuntime(V100, VirtualClock())
    r1 = rt.launch_kernel(spec(), stream_id=1)
    r2 = rt.launch_kernel(spec(), stream_id=2)
    assert r2.device_start_ns < r1.device_end_ns  # concurrent execution


def test_memcpy_blocks_and_records():
    rt = CudaRuntime(V100, VirtualClock())
    record = rt.memcpy(120_000_000, kind="h2d")
    assert rt.clock.now() == record.end_ns
    assert record.end_ns - record.start_ns > 900_000  # ~1 ms at 120 GB/s
    with pytest.raises(ValueError):
        rt.memcpy(10, kind="sideways")


def test_launch_callbacks_invoked():
    """Profilers see launches through the launch log, each reader from
    the launch after its subscription."""
    rt = CudaRuntime(V100)
    rt.launch_kernel(spec())  # no reader yet: not logged
    first = rt.launch_reader()
    record = rt.launch_kernel(spec())
    second = rt.launch_reader()
    later = rt.launch_kernel(spec())
    assert first() == [record, later]
    assert first() == []
    assert second() == [later]
    assert record.spec.name == "k"


def test_launch_log_trimmed_once_every_reader_has_read():
    rt = CudaRuntime(V100)
    assert rt._launch_log is None  # no profiler asked: no log
    first, second = rt.launch_reader(), rt.launch_reader()
    records = [rt.launch_kernel(spec()) for _ in range(3)]
    assert first() == records
    assert len(rt._launch_log) == 3  # the second reader is behind
    assert second() == records
    assert rt._launch_log == []
    record = rt.launch_kernel(spec())
    assert second() == [record] and first() == [record]
    assert rt._launch_log == []


def test_profiler_replay_inflates_busy_not_reported_duration():
    rt = CudaRuntime(V100, VirtualClock())
    rt.set_profiler_costs(replay_passes=10)
    record = rt.launch_kernel(spec())
    clean = record.device_end_ns - record.device_start_ns
    busy = record.device_busy_until_ns - record.device_start_ns
    assert busy >= 10 * clean


def test_reset_clears_state():
    rt = CudaRuntime(V100)
    rt.launch_kernel(spec())
    rt.memcpy(100)
    rt.reset()
    assert rt.memory.live_bytes == 0
    assert rt.stream(0).next_free_ns == 0
