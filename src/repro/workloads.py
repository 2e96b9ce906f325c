"""Workload helpers: batch sweeps and quick model-level measurements.

Characterizing 55 models across batch sizes (Table VIII) does not need
the full profiling ladder at every point — A1 only needs model-level
profiling.  These helpers run cheap M-only evaluations for latency and
throughput curves, and full across-stack profiles only where an analysis
requires them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.analysis.a01_model_info import optimal_batch_size, throughputs
from repro.core.levels import M
from repro.core.session import ProfilingConfig, XSPSession
from repro.core.stats import Statistic, trimmed_mean
from repro.frameworks.graph import Graph
from repro.sim.memory import OutOfDeviceMemoryError


@dataclass
class ThroughputCurve:
    """Latency/throughput across batch sizes for one model."""

    model_name: str
    system: str
    framework: str
    latencies_ms: dict[int, float]

    @property
    def throughputs(self) -> dict[int, float]:
        return throughputs(self.latencies_ms)

    @property
    def optimal_batch(self) -> int:
        return optimal_batch_size(self.latencies_ms)

    @property
    def max_throughput(self) -> float:
        return max(self.throughputs.values())

    @property
    def online_latency_ms(self) -> float:
        """Latency at batch size 1 (the paper's "online latency")."""
        if 1 not in self.latencies_ms:
            raise KeyError("curve was not measured at batch size 1")
        return self.latencies_ms[1]


def measure_latency(
    session: XSPSession,
    graph: Graph,
    batch: int,
    *,
    runs: int = 3,
    statistic: Statistic = trimmed_mean,
) -> float:
    """Model-level-only latency measurement (ms), repeated + summarized."""
    config = ProfilingConfig(levels=M, metrics=())
    samples = []
    for i in range(runs):
        run = session.profile(graph, batch, replace(config, run_index=i))
        samples.append(run.model_latency_ms)
    return statistic(samples)


def throughput_curve(
    session: XSPSession,
    graph: Graph,
    batches: Sequence[int],
    *,
    runs: int = 3,
    statistic: Statistic = trimmed_mean,
) -> ThroughputCurve:
    """Measure the A1 curve over ``batches`` (Fig. 3).

    Batch sizes that exhaust device memory end the sweep — exactly what
    caps the optimal batch size of large-input models (the paper's
    1200x1200 detectors and DeepLab report optimal batch 1-4).
    """
    latencies: dict[int, float] = {}
    for batch in sorted(batches):
        try:
            latencies[batch] = measure_latency(
                session, graph, batch, runs=runs, statistic=statistic
            )
        except OutOfDeviceMemoryError:
            break
    if not latencies:
        raise OutOfDeviceMemoryError(
            f"{graph.name} does not fit on {session.gpu.name} even at the "
            f"smallest requested batch size"
        )
    return ThroughputCurve(
        model_name=graph.name,
        system=session.gpu.name,
        framework=session.framework_cls.name,
        latencies_ms=latencies,
    )
