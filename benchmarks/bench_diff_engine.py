"""Diff-engine benchmark: aligning and classifying two 2k-layer profiles.

Alongside the timing, two contracts are asserted:

* a self-diff is clean (zero findings above severity 0) even at this
  scale, and
* a perturbed candidate (scaled latencies + renamed and inserted layers
  + a swapped kernel mix) still aligns nearly every layer — the
  alignment ladder, not positional luck, carries the matching.
"""

from __future__ import annotations

import random

from bench_insights_engine import make_synthetic_profile

from repro.analysis.diff import diff_profiles
from repro.core.pipeline import KernelProfile, LayerProfile, ModelProfile

N_LAYERS = 2000


def make_perturbed_candidate(
    baseline: ModelProfile, seed: int = 11
) -> ModelProfile:
    """A realistic B side: uniformly slower, with structural churn."""
    rng = random.Random(seed)
    layers: list[LayerProfile] = []
    for layer in baseline.layers:
        factor = rng.uniform(1.05, 1.45)
        name = layer.name
        if rng.random() < 0.05:  # renamed (same type): the "type" rung
            name = f"renamed_{layer.index}"
        kernels = [
            KernelProfile(
                name=(
                    "volta_scudnn_winograd_128x128"
                    if rng.random() < 0.10  # kernel-mix churn
                    else k.name
                ),
                layer_index=k.layer_index,
                position=k.position,
                latency_ms=k.latency_ms * factor,
                flops=k.flops,
                dram_read_bytes=k.dram_read_bytes,
                dram_write_bytes=k.dram_write_bytes,
                achieved_occupancy=k.achieved_occupancy,
                grid=k.grid,
                block=k.block,
            )
            for k in layer.kernels
        ]
        layers.append(
            LayerProfile(
                index=layer.index,
                name=name,
                layer_type=layer.layer_type,
                shape=layer.shape,
                latency_ms=layer.latency_ms * factor,
                alloc_bytes=layer.alloc_bytes,
                kernels=tuple(kernels),
            )
        )
        if rng.random() < 0.02:  # inserted layers
            layers.append(
                LayerProfile(
                    index=10_000 + layer.index,
                    name=f"inserted_{layer.index}",
                    layer_type="Reshape",
                    shape=(1,),
                    latency_ms=0.01,
                    alloc_bytes=1 << 12,
                    kernels=(),
                )
            )
    total = sum(l.latency_ms for l in layers)
    return ModelProfile(
        model_name=baseline.model_name,
        system=baseline.system,
        framework=baseline.framework,
        batch=baseline.batch,
        model_latency_ms=total * 1.1,
        layers=tuple(layers),
    )


def test_diff_engine_2k_layers(benchmark):
    """Full diff (align + deltas + classification) of two 2k-layer sides."""
    baseline = make_synthetic_profile(N_LAYERS)
    candidate = make_perturbed_candidate(baseline)
    diff = benchmark(lambda: diff_profiles(baseline, candidate))
    matched = diff.layers_with_status("matched")
    assert len(matched) >= 0.95 * N_LAYERS
    assert diff.layers_with_status("added")  # the inserted layers
    assert diff.regression_fraction > 0.05
    kinds = {f.kind for f in diff.findings}
    assert "regression" in kinds and "kernel-mix-shift" in kinds


def test_diff_engine_self_diff_2k_layers(benchmark):
    """Self-diff at scale: the clean-diff contract has no size threshold."""
    profile = make_synthetic_profile(N_LAYERS)
    diff = benchmark(lambda: diff_profiles(profile, profile))
    assert diff.findings_above(1e-9) == []
    assert diff.speedup == 1.0
