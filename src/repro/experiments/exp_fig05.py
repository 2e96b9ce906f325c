"""Figure 5 — A3 per-layer latency and A4 per-layer memory allocation
(ResNet50, batch 256).

Paper: latency and memory allocation concentrate in the early-executed
layers ("the model latency can be mostly attributed to the early executed
layers ... memory allocation is high for the early stage").
"""

from __future__ import annotations

from repro.analysis import (
    latency_stage,
    layer_latency_series,
    layer_memory_series,
    memory_stage,
)
from repro.analysis.stages import stage_totals
from repro.experiments import context
from repro.experiments.result import ExperimentResult


def run() -> ExperimentResult:
    profile = context.model_profile(context.RESNET50_ID, 256)
    lat_series = layer_latency_series(profile)
    mem_series = layer_memory_series(profile)
    lat_totals = stage_totals(profile, profile.layer_table.latency_ms)
    mem_totals = stage_totals(profile, profile.layer_table.alloc_mb)

    result = ExperimentResult(
        exp_id="Figure 5",
        title="A3/A4 per-layer latency and memory allocation in execution "
              "order (ResNet50, batch 256)",
        paper={"memory_stage": "B", "memory_declines_toward_end": True},
        measured={"latency_stage": latency_stage(profile),
                  "memory_stage": memory_stage(profile),
                  "beginning_mem_mb": mem_totals["B"],
                  "end_mem_mb": mem_totals["E"]},
    )
    result.check("memory allocation dominated by the beginning stage",
                 memory_stage(profile) == "B")
    result.check("beginning allocates >2x the end stage",
                 mem_totals["B"] > 2 * mem_totals["E"])
    result.check("series cover every executed layer",
                 len(lat_series) == len(profile.layers) == len(mem_series))
    peak_mem_layer = max(mem_series, key=lambda p: p[1])
    result.check("peak per-layer allocation occurs early",
                 peak_mem_layer[0] < len(profile.layers) / 3,
                 f"layer {peak_mem_layer[0]}")
    rows = ["  stage    latency(ms)    alloc(MB)"]
    for stage in ("B", "M", "E"):
        rows.append(f"  {stage:5} {lat_totals[stage]:>12.1f} "
                    f"{mem_totals[stage]:>12.0f}")
    result.artifact = "\n".join(rows)
    return result
