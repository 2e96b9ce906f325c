"""Latency-model detail tests: eff_scale, efficiency cap, size effect."""

import pytest

from repro.sim import KernelClass, KernelSpec, get_system, kernel_duration_ns
from repro.sim.calibration import MAX_COMPUTE_EFFICIENCY

V100 = get_system("Tesla_V100")


def big_conv(eff_scale=1.0):
    return KernelSpec(
        "volta_scudnn_128x64_relu_interior_nn_v1",
        KernelClass.CONV_PRECOMP_GEMM,
        flops=200e9, dram_read_bytes=100e6, dram_write_bytes=100e6,
        blocks=100_000, eff_scale=eff_scale,
    )


def test_eff_scale_slows_kernel_proportionally():
    base = kernel_duration_ns(big_conv(1.0), V100)
    narrow = kernel_duration_ns(big_conv(0.65), V100)
    assert narrow == pytest.approx(base / 0.65, rel=0.02)


def test_compute_efficiency_capped():
    """Even a fully-saturating grid cannot exceed the Table III maximum."""
    duration = kernel_duration_ns(big_conv(), V100)
    tflops = big_conv().flops / duration / 1e3
    # allow the +-1% deterministic run jitter
    assert tflops <= MAX_COMPUTE_EFFICIENCY * V100.peak_tflops * 1.02


def test_memory_overlap_hides_dram_time():
    heavy_traffic = KernelSpec(
        "k", KernelClass.CONV_PRECOMP_GEMM,
        flops=1e9, dram_read_bytes=5e9, dram_write_bytes=5e9, blocks=50_000,
    )
    no_overlap = KernelSpec(
        "k", KernelClass.ELEMENTWISE_EIGEN,
        flops=1e9, dram_read_bytes=5e9, dram_write_bytes=5e9,
        blocks=50_000, threads_per_block=1024,
    )
    assert kernel_duration_ns(heavy_traffic, V100) < \
        kernel_duration_ns(no_overlap, V100)


def test_small_transfers_lose_bandwidth():
    """Two kernels with identical bytes/flop ratios: the tiny one runs at a
    lower effective bandwidth (size_eff floor)."""
    small = KernelSpec("s", KernelClass.ELEMENTWISE_EIGEN, 0.0,
                       100e3, 100e3, blocks=200, threads_per_block=1024)
    large = KernelSpec("l", KernelClass.ELEMENTWISE_EIGEN, 0.0,
                       100e6, 100e6, blocks=200_000, threads_per_block=1024)
    t_small = kernel_duration_ns(small, V100)
    t_large = kernel_duration_ns(large, V100)
    # Per byte, the small kernel is much slower.
    assert (t_small / 200e3) > 2 * (t_large / 200e6)


def test_narrow_gemm_penalty_applied_by_cudnn():
    from repro.sim.cudnn import ConvGeometry, convolution_forward_kernels

    vgg_style = ConvGeometry(batch=64, in_channels=64, in_h=224, in_w=224,
                             out_channels=64, kernel_h=3, kernel_w=3,
                             pad_h=1, pad_w=1)
    deep = ConvGeometry(batch=64, in_channels=256, in_h=14, in_w=14,
                        out_channels=256, kernel_h=3, kernel_w=3,
                        pad_h=1, pad_w=1)
    vgg_kernel = convolution_forward_kernels(vgg_style, V100)[-1]
    deep_kernel = convolution_forward_kernels(deep, V100)[-1]
    assert vgg_kernel.eff_scale < 1.0
    assert deep_kernel.eff_scale == 1.0
    # First-layer (image input) convs are exempt despite giant spatial.
    first = ConvGeometry(batch=256, in_channels=3, in_h=224, in_w=224,
                         out_channels=64, kernel_h=7, kernel_w=7,
                         stride_h=2, stride_w=2, pad_h=3, pad_w=3)
    first_kernel = convolution_forward_kernels(first, V100)[-1]
    assert first_kernel.eff_scale == 1.0
