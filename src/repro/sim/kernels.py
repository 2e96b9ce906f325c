"""GPU kernel descriptors and the roofline-derived latency model.

A :class:`KernelSpec` captures everything the device model needs to execute
a kernel in virtual time: its name, class, flop count, DRAM traffic, and
grid geometry.  Kernel duration follows the roofline model the paper itself
uses for analysis (Sec. III-D3):

    t = max( flops / (peak_flops * eff_c * u),  bytes / (bw * eff_m * u) ) + fixed

where ``u`` is a utilization factor that rises with the number of CTA waves
the kernel puts on the machine — small problems (small batches) underutilize
the GPU, which is what makes throughput saturate near the optimal batch
size (Fig. 3) and achieved occupancy rise with batch size (Table VI).
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field, fields
from typing import Any

from repro.sim.calibration import (
    CLASS_CALIBRATION,
    MAX_COMPUTE_EFFICIENCY,
    ClassCalibration,
)
from repro.sim.hardware import GPUSpec


class KernelClass(enum.Enum):
    """Behavioural class of a GPU kernel; selects calibration constants."""

    CONV_IMPLICIT_GEMM = "conv_implicit_gemm"
    CONV_PRECOMP_GEMM = "conv_precomp_gemm"
    CONV_CGEMM = "conv_cgemm"
    CONV_DEPTHWISE = "conv_depthwise"
    GEMM = "gemm"
    ELEMENTWISE_EIGEN = "elementwise_eigen"
    ELEMENTWISE_MAX = "elementwise_max"
    ELEMENTWISE_MSHADOW = "elementwise_mshadow"
    BATCHNORM_FUSED = "batchnorm_fused"
    POOL = "pool"
    REDUCTION = "reduction"
    MEMORY_MOVEMENT = "memory_movement"
    WHERE_OP = "where_op"

    @property
    def calibration(self) -> ClassCalibration:
        return CLASS_CALIBRATION[self.value]


@dataclass(frozen=True)
class KernelSpec:
    """Immutable description of one GPU kernel invocation."""

    name: str
    klass: KernelClass
    flops: float
    dram_read_bytes: float
    dram_write_bytes: float
    #: Total CTAs (thread blocks) launched; drives utilization/occupancy.
    blocks: int
    threads_per_block: int = 256
    #: Kernel-specific compute-efficiency scale (e.g. narrow-GEMM penalty).
    eff_scale: float = 1.0
    tags: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.flops < 0 or self.dram_read_bytes < 0 or self.dram_write_bytes < 0:
            raise ValueError(f"kernel {self.name!r}: negative work is invalid")
        if self.blocks < 1:
            raise ValueError(f"kernel {self.name!r}: needs at least one block")

    @property
    def dram_bytes(self) -> float:
        return self.dram_read_bytes + self.dram_write_bytes

    @property
    def arithmetic_intensity(self) -> float:
        """flops per DRAM byte (paper's kernel AI definition)."""
        if self.dram_bytes == 0:
            return float("inf") if self.flops > 0 else 0.0
        return self.flops / self.dram_bytes

    def with_tags(self, **tags: Any) -> "KernelSpec":
        """A copy with ``tags`` merged in, set field by field as the
        generated ``__init__`` does (a copied ``__dict__`` costs ~40% more
        memory per spec) but without re-validating the fields."""
        clone = object.__new__(type(self))
        for name in _FIELDS:
            object.__setattr__(clone, name, getattr(self, name))
        object.__setattr__(clone, "tags", {**self.tags, **tags})
        return clone

    @property
    def grid(self) -> tuple[int, int, int]:
        return (self.blocks, 1, 1)

    @property
    def block(self) -> tuple[int, int, int]:
        return (self.threads_per_block, 1, 1)


_FIELDS = tuple(f.name for f in fields(KernelSpec) if f.name != "tags")


def _waves(spec: KernelSpec, gpu: GPUSpec, cal: ClassCalibration) -> float:
    """CTA waves: launched CTAs / concurrently resident CTA capacity.

    Residency is occupancy-limited: fat CTAs (registers/shared memory caps
    modelled by the class's ``occ_cap``) allow fewer concurrent CTAs per
    SM, so a modest grid can already constitute several waves.
    """
    ctas_per_sm = max(
        1.0, cal.occ_cap * gpu.max_threads_per_sm / spec.threads_per_block
    )
    return spec.blocks / (gpu.sm_count * ctas_per_sm)


def utilization(spec: KernelSpec, gpu: GPUSpec) -> float:
    """Saturating utilization in (0, 1]: max(floor, w / (w + w_half))."""
    return _utilization(spec, gpu, spec.klass.calibration)


def _utilization(spec: KernelSpec, gpu: GPUSpec, cal: ClassCalibration) -> float:
    w = _waves(spec, gpu, cal)
    return max(cal.util_floor, w / (w + cal.waves_half))


def achieved_occupancy(spec: KernelSpec, gpu: GPUSpec) -> float:
    """Achieved occupancy: class ceiling scaled by launch utilization.

    Matches the paper's observation that occupancy is class-dependent
    (conv ~13-23%, Eigen mul/add ~50%, ReLU ~98%) and rises with batch
    size as more CTAs are put in flight (Table VI).  A floor of 30% of
    the class ceiling models the residual per-SM warp parallelism even
    tiny grids retain.
    """
    cal = spec.klass.calibration
    w = _waves(spec, gpu, cal)
    ramp = max(0.30, w / (w + 0.45))
    occ = cal.occ_cap * ramp
    return max(0.005, min(occ, cal.occ_cap))


def _deterministic_jitter(spec: KernelSpec, gpu: GPUSpec, run_index: int) -> float:
    """Multiplicative jitter in [-1%, +1%], deterministic per (kernel, run).

    Real measurements vary run to run; the analysis pipeline computes
    trimmed means across runs (Sec. III-D), so the simulator produces
    stable, seedable run-to-run variation for that machinery to chew on.
    """
    key = f"{gpu.name}|{spec.name}|{spec.flops}|{spec.dram_bytes}|{run_index}"
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    unit = int.from_bytes(digest, "little") / 2**64  # [0, 1)
    return 1.0 + (unit - 0.5) * 0.02


def kernel_duration_ns(
    spec: KernelSpec, gpu: GPUSpec, *, run_index: int = 0
) -> int:
    """Roofline-derived kernel duration in virtual nanoseconds."""
    cal = spec.klass.calibration
    u = _utilization(spec, gpu, cal)
    t_compute = 0.0
    if spec.flops > 0:
        eff = min(cal.eff_compute * u, MAX_COMPUTE_EFFICIENCY) * spec.eff_scale
        t_compute = spec.flops / (gpu.peak_flops * eff)
    t_memory = 0.0
    dram_bytes = spec.dram_bytes
    if dram_bytes > 0:
        # Small transfers never reach streaming bandwidth (DRAM page
        # overheads, kernel ramp-up): effectiveness scales in with the
        # transfer size, floored so sub-megabyte kernels stay O(fixed).
        # This is part of what caps tiny models' throughput.
        size_eff = max(0.30, dram_bytes / (dram_bytes + 0.35e6))
        t_memory = dram_bytes / (
            gpu.memory_bandwidth * cal.eff_memory * size_eff * u
        )
    # GEMM-style kernels hide (most of) their DRAM time behind compute.
    seconds = max(t_compute, t_memory * (1.0 - cal.memory_overlap))
    jitter = _deterministic_jitter(spec, gpu, run_index)
    return max(1, int(round((seconds * 1e9 + cal.fixed_ns) * jitter)))

