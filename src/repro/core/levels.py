"""Profiling level sets.

XSP's tracers "can be enabled or disabled at runtime"; a profiling run is
characterized by the set of stack levels whose tracers are on.  Levels are
cumulative in practice (profiling GPU kernels without the layer level
loses the correlation the paper is about), so the canonical configurations
are M, M/L and M/L/G — exactly the three of Fig. 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tracing.span import Level


@dataclass(frozen=True)
class ProfilingLevelSet:
    """An enabled-levels configuration."""

    levels: frozenset[Level]

    def __contains__(self, level: Level) -> bool:
        return level in self.levels

    @property
    def deepest(self) -> Level:
        return max(self.levels)

    @property
    def label(self) -> str:
        """Paper-style label, e.g. "M/L/G"."""
        return "/".join(
            lvl.short_name for lvl in sorted(self.levels)
        )

    @staticmethod
    def parse(label: str) -> "ProfilingLevelSet":
        """Parse a "M/L/G"-style label."""
        mapping = {lvl.short_name: lvl for lvl in Level}
        levels = set()
        for part in label.split("/"):
            if part not in mapping:
                raise ValueError(f"unknown level {part!r} in {label!r}")
            levels.add(mapping[part])
        return ProfilingLevelSet(frozenset(levels))


#: Model-level profiling only (baseline latency, Fig. 2 top).
M = ProfilingLevelSet(frozenset({Level.MODEL}))
#: Model- and layer-level profiling.
ML = ProfilingLevelSet(frozenset({Level.MODEL, Level.LAYER}))
#: Model-, layer- and GPU kernel-level profiling.
MLG = ProfilingLevelSet(frozenset({Level.MODEL, Level.LAYER, Level.GPU_KERNEL}))
#: Extensibility configuration (paper Sec. III-E): an ML-library level
#: between layer and GPU kernel, capturing cuDNN/cuBLAS API calls.
MLLibG = ProfilingLevelSet(
    frozenset({Level.MODEL, Level.LAYER, Level.LIBRARY, Level.GPU_KERNEL})
)

#: The canonical leveled-experimentation ladder (Fig. 2).
LADDER: tuple[ProfilingLevelSet, ...] = (M, ML, MLG)
