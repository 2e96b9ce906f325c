"""Kernel latency/occupancy model tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    KernelClass,
    KernelSpec,
    achieved_occupancy,
    get_system,
    kernel_duration_ns,
)
from repro.sim.kernels import utilization

V100 = get_system("Tesla_V100")
M60 = get_system("Tesla_M60")


def conv_spec(blocks=400, flops=5e9):
    return KernelSpec(
        name="volta_scudnn_128x64_relu_interior_nn_v1",
        klass=KernelClass.CONV_PRECOMP_GEMM,
        flops=flops,
        dram_read_bytes=50e6,
        dram_write_bytes=60e6,
        blocks=blocks,
    )


def eigen_spec(elems=6_000_000):
    return KernelSpec(
        name="Eigen::TensorCwiseBinaryOp<scalar_product_op>",
        klass=KernelClass.ELEMENTWISE_EIGEN,
        flops=float(elems),
        dram_read_bytes=elems * 4 * 0.36,
        dram_write_bytes=elems * 4 * 0.5,
        blocks=max(1, elems // 1024),
        threads_per_block=1024,
    )


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        KernelSpec("bad", KernelClass.GEMM, -1, 0, 0, blocks=1)
    with pytest.raises(ValueError):
        KernelSpec("bad", KernelClass.GEMM, 1, 0, 0, blocks=0)


def test_arithmetic_intensity():
    spec = conv_spec()
    assert spec.arithmetic_intensity == pytest.approx(5e9 / 110e6)
    zero = KernelSpec("z", KernelClass.POOL, 0, 0, 0, blocks=1)
    assert zero.arithmetic_intensity == 0.0


def test_duration_positive_and_deterministic():
    spec = conv_spec()
    d1 = kernel_duration_ns(spec, V100, run_index=0)
    d2 = kernel_duration_ns(spec, V100, run_index=0)
    assert d1 == d2 > 0


def test_run_index_jitter_small_but_nonzero():
    spec = conv_spec()
    durations = {kernel_duration_ns(spec, V100, run_index=i) for i in range(5)}
    assert len(durations) > 1
    assert max(durations) / min(durations) < 1.03


def test_bigger_launch_is_faster_per_flop():
    """Utilization rises with grid size (throughput saturation, Fig. 3)."""
    small = conv_spec(blocks=8, flops=1e9)
    large = conv_spec(blocks=2000, flops=250e9)
    t_small = kernel_duration_ns(small, V100) / 1e9
    t_large = kernel_duration_ns(large, V100) / 1e9
    assert 1e9 / t_small < 250e9 / t_large


def test_conv_kernel_near_peak_efficiency_when_saturated():
    """Table III: big conv kernels reach ~12.8-13 Tflops/s on V100."""
    spec = conv_spec(blocks=4000, flops=60e9)
    duration = kernel_duration_ns(spec, V100)
    tflops = spec.flops / duration / 1e3
    assert 10.0 < tflops < V100.peak_tflops


def test_eigen_kernel_is_memory_bound_and_slow():
    """Table IV: Eigen kernels ~0.25 flops/byte, ~0.1 Tflops/s."""
    spec = eigen_spec()
    assert spec.arithmetic_intensity < V100.ideal_arithmetic_intensity
    duration = kernel_duration_ns(spec, V100)
    assert spec.flops / duration / 1e3 < 0.5


def test_occupancy_class_caps():
    """Conv ~23% cap, ReLU ~98.5% (paper Tables III/IV)."""
    conv_occ = achieved_occupancy(conv_spec(blocks=5000), V100)
    assert 0.15 < conv_occ <= 0.23
    relu = KernelSpec(
        "Eigen::TensorCwiseBinaryOp<scalar_max_op>",
        KernelClass.ELEMENTWISE_MAX,
        0.0, 20e6, 20e6, blocks=8000, threads_per_block=1024,
    )
    assert achieved_occupancy(relu, V100) > 0.9


def test_occupancy_rises_with_blocks():
    occ_small = achieved_occupancy(conv_spec(blocks=4), V100)
    occ_large = achieved_occupancy(conv_spec(blocks=4000), V100)
    assert occ_small < occ_large


def test_slower_gpu_is_slower():
    spec = conv_spec(blocks=4000, flops=60e9)
    assert kernel_duration_ns(spec, M60) > kernel_duration_ns(spec, V100)


def test_memory_bound_threshold_uses_device_ai():
    # AI of 20 is compute-bound on V100 (17.44) but memory-bound on M60 (30).
    spec = KernelSpec("k", KernelClass.GEMM, 20e9, 0.5e9, 0.5e9, blocks=100)
    assert spec.arithmetic_intensity >= V100.ideal_arithmetic_intensity
    assert spec.arithmetic_intensity < M60.ideal_arithmetic_intensity


@settings(max_examples=60, deadline=None)
@given(
    flops=st.floats(1e6, 1e12),
    read_mb=st.floats(0.01, 5000),
    write_mb=st.floats(0.01, 5000),
    blocks=st.integers(1, 100_000),
    klass=st.sampled_from(list(KernelClass)),
)
def test_duration_always_positive_and_monotone_in_work(
    flops, read_mb, write_mb, blocks, klass
):
    spec = KernelSpec("k", klass, flops, read_mb * 1e6, write_mb * 1e6,
                      blocks=blocks)
    duration = kernel_duration_ns(spec, V100)
    assert duration >= 1
    double = KernelSpec("k", klass, flops * 2, read_mb * 2e6, write_mb * 2e6,
                        blocks=blocks)
    assert kernel_duration_ns(double, V100) >= duration * 0.98


@settings(max_examples=60, deadline=None)
@given(blocks=st.integers(1, 200_000))
def test_utilization_and_occupancy_bounded(blocks):
    spec = conv_spec(blocks=blocks)
    u = utilization(spec, V100)
    occ = achieved_occupancy(spec, V100)
    assert 0.0 < u <= 1.0
    assert 0.0 < occ <= spec.klass.calibration.occ_cap + 1e-9
