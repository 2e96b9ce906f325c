"""Leveled experimentation (paper Sec. III-C).

Profilers at a level accurately capture events *within* that level, but
deeper profiling inflates what shallower levels measure.  XSP therefore
profiles once per rung of the ladder (M, M/L, M/L/G) and takes each
level's numbers from the run where that level is the deepest enabled one:

* model latency          <- the M runs,
* per-layer latencies    <- the M/L runs,
* per-kernel information <- the M/L/G runs.

The overhead introduced *at* level n+1 is quantified "by subtracting the
latency of the event when profilers up to level n are enabled from the
latency when profilers up to level n+1 are enabled".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.levels import LADDER
from repro.core.session import ProfiledRun, ProfilingConfig, XSPSession
from repro.core.stats import Statistic, trimmed_mean
from repro.frameworks.graph import Graph
from repro.sim.cupti import SUPPORTED_METRICS


@dataclass
class LeveledResult:
    """Outcome of one leveled experiment (all rungs, all repetitions)."""

    model_name: str
    system: str
    framework: str
    batch: int
    #: Level-set label ("M", "M/L", "M/L/G") -> repeated profiled runs.
    runs: dict[str, list[ProfiledRun]] = field(default_factory=dict)
    statistic: Statistic = trimmed_mean

    def runs_at(self, label: str) -> list[ProfiledRun]:
        try:
            return self.runs[label]
        except KeyError:
            raise KeyError(
                f"no runs at level set {label!r}; have {sorted(self.runs)}"
            ) from None

    # -- accurate numbers per level (the point of leveled experimentation) --
    @property
    def model_latency_ms(self) -> float:
        """Accurate model-prediction latency (from the M-only runs)."""
        return self.statistic([r.model_latency_ms for r in self.runs_at("M")])

    @property
    def throughput(self) -> float:
        """Inputs/second at this batch size."""
        return self.batch / (self.model_latency_ms / 1e3)

    def predict_latency_at(self, label: str) -> float:
        """Model-prediction latency as observed at a given level set."""
        return self.statistic([r.model_latency_ms for r in self.runs_at(label)])

    def overhead_ms(self, deeper: str, shallower: str) -> float:
        """Profiling overhead introduced by ``deeper`` relative to ``shallower``."""
        return self.predict_latency_at(deeper) - self.predict_latency_at(shallower)

    def overhead_ladder(self) -> dict[str, float]:
        """Per-rung overhead, e.g. {"M/L": 157.0, "M/L/G": 58.2}."""
        labels = [ls.label for ls in LADDER if ls.label in self.runs]
        out: dict[str, float] = {}
        for prev, cur in zip(labels, labels[1:]):
            out[cur] = self.overhead_ms(cur, prev)
        return out


class LeveledExperiment:
    """Drives the M -> M/L -> M/L/G ladder with repetitions."""

    def __init__(
        self,
        session: XSPSession,
        *,
        runs_per_level: int = 3,
        statistic: Statistic = trimmed_mean,
    ) -> None:
        if runs_per_level < 1:
            raise ValueError("runs_per_level must be >= 1")
        self.session = session
        self.runs_per_level = runs_per_level
        self.statistic = statistic

    def run(self, graph: Graph, batch: int) -> LeveledResult:
        result = LeveledResult(
            model_name=graph.name,
            system=self.session.gpu.name,
            framework=self.session.framework_cls.name,
            batch=batch,
            statistic=self.statistic,
        )
        # Ladder rungs run with timeline capture only: kernel metric
        # collection replays kernels (DRAM counters cost >20 passes) and
        # would swamp the overhead subtraction the ladder exists for.
        base = ProfilingConfig(metrics=())
        for level_set in LADDER:
            config = replace(base, levels=level_set)
            runs = []
            for i in range(self.runs_per_level):
                runs.append(
                    self.session.profile(graph, batch, replace(config, run_index=i))
                )
            result.runs[level_set.label] = runs
        # Dedicated metric-collection runs (nvprof-style): wall time is
        # heavily inflated by replay, but CUPTI reports clean single-pass
        # kernel durations plus the requested counters.
        deepest = LADDER[-1]
        config = ProfilingConfig(levels=deepest, metrics=SUPPORTED_METRICS)
        runs = []
        for i in range(self.runs_per_level):
            runs.append(
                self.session.profile(graph, batch, replace(config, run_index=i))
            )
        result.runs[deepest.label + "+metrics"] = runs
        return result
