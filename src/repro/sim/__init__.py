"""Simulated HW/SW substrate.

The paper evaluates XSP on physical NVIDIA GPUs through CUDA, CUPTI, cuDNN,
cuBLAS and Eigen.  This package provides deterministic virtual-time
equivalents of each of those components (see DESIGN.md, "Substitutions"):

* :mod:`repro.sim.clock`      — virtual nanosecond clock
* :mod:`repro.sim.hardware`   — the 5 GPU systems of Table VII
* :mod:`repro.sim.kernels`    — roofline-derived kernel latency/occupancy model
* :mod:`repro.sim.stream`     — in-order CUDA stream timelines
* :mod:`repro.sim.memory`     — device memory pool
* :mod:`repro.sim.cuda`       — CUDA-runtime-like launch/sync API
* :mod:`repro.sim.cupti`      — CUPTI-like callback/activity/metric APIs
* :mod:`repro.sim.cudnn`      — cuDNN-like algorithm selection + kernels
* :mod:`repro.sim.cublas`     — GEMM kernels
* :mod:`repro.sim.eigen`      — Eigen-like element-wise kernels (TF path)
* :mod:`repro.sim.mshadow`    — mshadow-like element-wise kernels (MXNet path)
"""

from repro.sim.clock import VirtualClock
from repro.sim.hardware import GPUSpec, SYSTEMS, get_system, Architecture
from repro.sim.kernels import KernelClass, KernelSpec, kernel_duration_ns, achieved_occupancy
from repro.sim.stream import Stream
from repro.sim.memory import DeviceMemoryPool
from repro.sim.cuda import CudaRuntime, KernelLaunchRecord
from repro.sim.cupti import Cupti

__all__ = [
    "Architecture",
    "Cupti",
    "CudaRuntime",
    "DeviceMemoryPool",
    "GPUSpec",
    "KernelClass",
    "KernelLaunchRecord",
    "KernelSpec",
    "SYSTEMS",
    "Stream",
    "VirtualClock",
    "achieved_occupancy",
    "get_system",
    "kernel_duration_ns",
]
