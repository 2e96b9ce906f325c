"""Terminal plots: an ASCII roofline scatter.

The paper's figures are matplotlib plots; this reproduction renders the
same data as terminal graphics so reports and examples remain
dependency-free and diffable.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.pipeline import attainable_tflops
from repro.sim.hardware import GPUSpec


def ascii_roofline(
    intensities: Sequence[float],
    throughputs: Sequence[float],
    gpu: GPUSpec,
    *,
    width: int = 72,
    height: int = 18,
    marker: str = "o",
) -> str:
    """Log-log roofline scatter with the device ceiling drawn in.

    X: arithmetic intensity (flops/byte); Y: arithmetic throughput
    (Tflops/s), one point per (intensity, throughput) pair.  The
    bandwidth slope and compute roof appear as ``/`` and ``-``; the ridge
    (ideal arithmetic intensity) as ``^`` on the axis.
    """
    finite = [(x, y) for x, y in zip(intensities, throughputs)
              if x > 0 and math.isfinite(x) and y > 0]
    if not finite:
        raise ValueError("no plottable roofline points")
    xs, ys = zip(*finite)
    x_min = min(min(xs) / 2, 0.1)
    x_max = max(max(xs) * 2, gpu.ideal_arithmetic_intensity * 4)
    y_max = gpu.peak_tflops * 2
    y_min = min(min(ys) / 2, y_max / 1e4)

    def to_col(x: float) -> int:
        frac = (math.log10(x) - math.log10(x_min)) / (
            math.log10(x_max) - math.log10(x_min)
        )
        return max(0, min(width - 1, int(round(frac * (width - 1)))))

    def to_row(y: float) -> int:
        frac = (math.log10(y) - math.log10(y_min)) / (
            math.log10(y_max) - math.log10(y_min)
        )
        return max(0, min(height - 1, int(round((1 - frac) * (height - 1)))))

    grid = [[" "] * width for _ in range(height)]
    # Draw the roofline ceiling.
    for col in range(width):
        x = 10 ** (math.log10(x_min) + col / (width - 1)
                   * (math.log10(x_max) - math.log10(x_min)))
        ceiling = attainable_tflops(x, gpu)
        row = to_row(ceiling)
        char = "-" if ceiling >= gpu.peak_tflops * 0.999 else "/"
        grid[row][col] = char
    # Scatter the points (drawn after the roof so they stay visible), each
    # distinct one once: they all draw the same marker.
    for x, y in set(finite):
        grid[to_row(y)][to_col(x)] = marker

    lines = [f"roofline: {gpu.name} (peak {gpu.peak_tflops} TFLOPS, "
             f"ridge {gpu.ideal_arithmetic_intensity:.2f} flops/byte)"]
    lines += ["|" + "".join(row) for row in grid]
    axis = [" "] * width
    axis[to_col(gpu.ideal_arithmetic_intensity)] = "^"
    lines.append("+" + "-" * width)
    lines.append(" " + "".join(axis) + " (ridge)")
    lines.append(f"  x: {x_min:.2g} .. {x_max:.2g} flops/byte (log) | "
                 f"y: {y_min:.2g} .. {y_max:.2g} Tflops/s (log)")
    return "\n".join(lines)
