"""Diff-engine benchmark: aligning and classifying two 2k-layer profiles.

Alongside the timing, three contracts are asserted:

* a self-diff is clean (zero findings above severity 0) even at this
  scale,
* a perturbed candidate (scaled latencies + renamed and inserted layers
  + a swapped kernel mix) still aligns nearly every layer — the
  alignment ladder, not positional luck, carries the matching, and
* the diff's JSON document (``ProfileDiff.to_json``, written from the
  diff table by templates) equals the reference here byte for byte and
  is at least ``MIN_JSON_SPEEDUP``x faster.  The reference builds one
  dict per compared number, as ``ProfileDiff.to_dict`` once did, and
  passes the tree to ``json.dumps``.  Both time the whole diff, engine
  included.
"""

from __future__ import annotations

import gc
import json
import random
import time

from bench_insights_engine import make_synthetic_profile

from repro.analysis.diff import (
    Delta,
    KernelDelta,
    LayerDelta,
    ProfileDiff,
    diff_profiles,
)
from repro.analysis.diff.model import _json_number
from repro.core.pipeline import KernelProfile, LayerProfile, ModelProfile

N_LAYERS = 2000
#: Measured 2.05-2.15x on a 2-vCPU host (Python 3.11).  Every number of
#: this pair is a fresh random draw, so formatting each distinct value
#: once saves little here; the bound leaves room for a shared runner.
MIN_JSON_SPEEDUP = 1.8


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


# -- the JSON document ------------------------------------------------------


def _delta_dict(delta: Delta) -> dict:
    return {
        "baseline": delta.baseline,
        "candidate": delta.candidate,
        "delta": delta.delta,
        "ratio": _json_number(delta.ratio),
    }


def _kernel_dict(kernel: KernelDelta) -> dict:
    return {
        "name": kernel.name,
        "status": kernel.status,
        "count": _delta_dict(kernel.count),
        "latency_ms": _delta_dict(kernel.latency_ms),
        "flops": _delta_dict(kernel.flops),
        "dram_bytes": _delta_dict(kernel.dram_bytes),
        "occupancy": _delta_dict(kernel.occupancy),
    }


def _layer_dict(layer: LayerDelta) -> dict:
    return {
        "name": layer.name,
        "layer_type": layer.layer_type,
        "status": layer.status,
        "via": layer.via,
        "baseline_index": layer.baseline_index,
        "candidate_index": layer.candidate_index,
        "latency_ms": _delta_dict(layer.latency_ms),
        "flops": _delta_dict(layer.flops),
        "dram_bytes": _delta_dict(layer.dram_bytes),
        "occupancy": _delta_dict(layer.occupancy),
        "alloc_bytes": _delta_dict(layer.alloc_bytes),
        "kernels": [_kernel_dict(k) for k in layer.kernels],
    }


def _dict_json(diff: ProfileDiff) -> str:
    """``diff`` as ``json.dumps`` writes a dict per compared number."""
    return json.dumps({
        "baseline": dict(diff.baseline),
        "candidate": dict(diff.candidate),
        "speedup": _json_number(diff.speedup),
        "regression_fraction": _json_number(diff.regression_fraction),
        "totals": {k: _delta_dict(d) for k, d in diff.totals.items()},
        "layers": [_layer_dict(layer) for layer in diff.layers],
        "findings": [f.to_dict() for f in diff.findings],
    }, check_circular=False)


def _best_s(calls, rounds: int = 7) -> list[float]:
    """Best time of each call, alternating round by round, each after a
    full collection."""
    best = [float("inf")] * len(calls)
    for _ in range(rounds):
        for i, call in enumerate(calls):
            gc.collect()
            start = time.perf_counter()
            call()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def test_diff_json_2k_layers(benchmark):
    """The whole diff as JSON: engine plus template writer."""
    baseline = make_synthetic_profile(N_LAYERS)
    candidate = make_perturbed_candidate(baseline)
    text = benchmark(lambda: diff_profiles(baseline, candidate).to_json())
    assert text == _dict_json(diff_profiles(baseline, candidate))
    dict_s, column_s = _best_s([
        lambda: _dict_json(diff_profiles(baseline, candidate)),
        lambda: diff_profiles(baseline, candidate).to_json(),
    ])
    speedup = dict_s / column_s
    assert speedup >= MIN_JSON_SPEEDUP, (
        f"the diff's JSON is only {speedup:.2f}x faster than a dict per "
        f"number ({column_s * 1e3:.0f} ms vs {dict_s * 1e3:.0f} ms)"
    )
