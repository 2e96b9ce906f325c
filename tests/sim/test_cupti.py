"""CUPTI-like profiler tests: callbacks, activities, metric replay."""

import pytest

from repro.sim import CudaRuntime, Cupti, KernelClass, KernelSpec, VirtualClock, get_system
from repro.sim.calibration import DEFAULT_METRIC_PASSES

V100 = get_system("Tesla_V100")


def spec():
    return KernelSpec("volta_scudnn_128x64_relu_interior_nn_v1",
                      KernelClass.CONV_PRECOMP_GEMM, 5e9, 40e6, 50e6,
                      blocks=500)


def make(metrics=(), callbacks=True, activities=True):
    rt = CudaRuntime(V100, VirtualClock())
    cupti = Cupti(rt)
    if callbacks:
        cupti.enable_callbacks()
    if activities:
        cupti.enable_activities()
    if metrics:
        cupti.enable_metrics(metrics)
    return rt, cupti


def test_disabled_cupti_captures_nothing():
    rt = CudaRuntime(V100)
    cupti = Cupti(rt)
    rt.launch_kernel(spec())
    assert len(cupti.callbacks) == 0 and len(cupti.activities) == 0


def test_callback_api_captures_cudaLaunchKernel():
    rt, cupti = make(activities=False)
    record = rt.launch_kernel(spec())
    callbacks = cupti.callbacks
    assert len(callbacks) == 1
    assert callbacks.correlation_id == [record.correlation_id]
    assert (callbacks.start_ns, callbacks.end_ns) == (
        [record.api_start_ns], [record.api_end_ns]
    )
    assert len(cupti.activities) == 0


def test_activity_api_captures_kernel_execution():
    rt, cupti = make(callbacks=False)
    record = rt.launch_kernel(spec())
    act = cupti.activities
    assert act.kind == ["kernel"]
    assert act.name == [spec().name]
    assert act.correlation_id == [record.correlation_id]
    assert (act.start_ns, act.end_ns) == (
        [record.device_start_ns], [record.device_end_ns]
    )
    assert (act.grid, act.block) == ([spec().grid], [spec().block])


def test_profiling_adds_per_kernel_host_overhead():
    rt_plain = CudaRuntime(V100, VirtualClock())
    rt_plain.launch_kernel(spec())
    plain_host = rt_plain.clock.now()
    rt_prof, _ = make()
    rt_prof.launch_kernel(spec())
    assert rt_prof.clock.now() > plain_host


def test_metrics_attached_to_activities():
    rt, cupti = make(metrics=("flop_count_sp", "achieved_occupancy"))
    rt.launch_kernel(spec())
    act = cupti.activities
    metrics = dict(zip(act.metric_names[0], act.metric_values))
    assert list(metrics) == ["flop_count_sp", "achieved_occupancy"]
    assert metrics["flop_count_sp"] == 5e9
    assert 0 < metrics["achieved_occupancy"] <= 0.23


def test_unknown_metric_rejected():
    rt = CudaRuntime(V100)
    cupti = Cupti(rt)
    with pytest.raises(ValueError, match="unsupported"):
        cupti.enable_metrics(["warp_execution_efficiency"])


def test_dram_metrics_require_many_replay_passes():
    """Sec. III-C: memory metrics can slow execution >100x via replay."""
    rt, cupti = make(metrics=("dram_read_bytes", "dram_write_bytes"))
    assert cupti.replay_passes() >= (
        DEFAULT_METRIC_PASSES["dram_read_bytes"]
        + DEFAULT_METRIC_PASSES["dram_write_bytes"]
    )
    record = rt.launch_kernel(spec())
    busy = record.device_busy_until_ns - record.device_start_ns
    clean = record.device_end_ns - record.device_start_ns
    assert busy > 20 * clean


def test_replay_slowdown_visible_to_host_but_not_reported_duration():
    rt_fast, cupti_fast = make(metrics=("flop_count_sp",))
    rt_fast.launch_kernel(spec())
    rt_fast.stream_synchronize()
    fast_wall = rt_fast.clock.now()
    act = cupti_fast.activities
    fast_dur = act.end_ns[0] - act.start_ns[0]

    rt_slow, cupti_slow = make(metrics=("dram_read_bytes", "dram_write_bytes"))
    rt_slow.launch_kernel(spec())
    rt_slow.stream_synchronize()
    slow_wall = rt_slow.clock.now()
    act = cupti_slow.activities
    slow_dur = act.end_ns[0] - act.start_ns[0]

    assert slow_wall > 10 * fast_wall  # wall time explodes
    assert slow_dur == pytest.approx(fast_dur, rel=0.02)  # report stays clean


def test_disable_removes_overheads():
    rt, cupti = make(metrics=("dram_read_bytes",))
    cupti.disable()
    assert rt.profiler_replay_passes == 1
    assert rt.profiler_launch_overhead_ns == 0
    rt.launch_kernel(spec())
    assert len(cupti.activities) == 0


def test_flush_returns_and_clears():
    rt, cupti = make()
    rt.launch_kernel(spec())
    callbacks, act = cupti.flush()
    assert len(callbacks) == 1 and len(act) == 1
    assert len(cupti.callbacks) == 0 and len(cupti.activities) == 0
