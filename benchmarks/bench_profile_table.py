"""The profile's kernel table: merge, report and the profile store.

A merged ``ModelProfile`` keeps its kernels in one ``KernelTable`` (one
list per kernel field, contiguous by layer).  Timed:

* ``AnalysisPipeline.merge`` of the zoo's largest point (model 38 under
  ``tensorflow_like`` at batch 1, 1,422 kernels, ``runs_per_level=1``),
* ``full_report`` and a store ``put`` + ``get`` of a 2,418-kernel
  profile: the layers of that point followed by those of model 48 under
  ``mxnet_like`` (real kernel names, metrics and launch geometry).

Asserted, on the 2,418-kernel profile: writing it to JSON and reading it
back by column (store schema v2) is at least ``MIN_STORE_SPEEDUP``x
faster than the object-per-kernel dict form (schema v1, still what the
zoo digests hash), and both read back equal to the profile.
"""

from __future__ import annotations

import gc
import json
import time

import pytest

from repro.analysis.report import full_report
from repro.core import AnalysisPipeline, LeveledExperiment, ProfileStore, XSPSession
from repro.core.cache import (
    profile_from_columns,
    profile_from_dict,
    profile_to_columns,
    profile_to_dict,
)
from repro.core.pipeline import ModelProfile
from repro.models import get_model

MIN_STORE_SPEEDUP = 2.0


@pytest.fixture(scope="module")
def largest_point():
    """(pipeline, leveled result) of the zoo's point with most kernels."""
    session = XSPSession("Tesla_V100", "tensorflow_like")
    leveled = LeveledExperiment(session, runs_per_level=1).run(
        get_model(38).graph, 1
    )
    return AnalysisPipeline(session, runs_per_level=1), leveled


@pytest.fixture(scope="module")
def profile(largest_point) -> ModelProfile:
    pipeline, leveled = largest_point
    other = AnalysisPipeline(
        XSPSession("Tesla_V100", "mxnet_like"), runs_per_level=1
    ).profile_model(get_model(48).graph, 1)
    merged = pipeline.merge(leveled)
    combined = ModelProfile(
        merged.model_name, merged.system, merged.framework, merged.batch,
        merged.model_latency_ms, merged.layers + other.layers,
        merged.overheads, merged.n_runs,
    )
    assert len(combined.kernel_table) == 2418
    return combined


def _v1_round_trip(profile: ModelProfile) -> ModelProfile:
    return profile_from_dict(json.loads(json.dumps(profile_to_dict(profile))))


def _v2_round_trip(profile: ModelProfile) -> ModelProfile:
    return profile_from_columns(
        json.loads(json.dumps(profile_to_columns(profile)))
    )


def _best_s(calls, rounds: int = 7) -> list[float]:
    """Best time of each call; the calls alternate round by round, each
    after a full collection."""
    best = [float("inf")] * len(calls)
    for _ in range(rounds):
        for i, call in enumerate(calls):
            gc.collect()
            start = time.perf_counter()
            call()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def test_merge_largest_zoo_point(benchmark, largest_point):
    pipeline, leveled = largest_point
    merged = benchmark(pipeline.merge, leveled)
    assert len(merged.kernel_table) == 1422


def test_report_2k_kernels(benchmark, profile):
    text = benchmark(full_report, profile)
    assert profile.model_name in text


def test_store_put_get_2k_kernels(benchmark, profile, tmp_path):
    store = ProfileStore(tmp_path)

    def put_get() -> ModelProfile | None:
        store.put(profile, runs_per_level=1)
        return store.get(profile.model_name, profile.system,
                         profile.framework, profile.batch, 1)

    assert benchmark(put_get) == profile


def test_columns_round_trip_faster_than_a_dict_per_kernel(profile):
    assert _v1_round_trip(profile) == profile
    assert _v2_round_trip(profile) == profile
    v1_s, v2_s = _best_s([lambda: _v1_round_trip(profile),
                          lambda: _v2_round_trip(profile)])
    speedup = v1_s / v2_s
    assert speedup >= MIN_STORE_SPEEDUP, (
        f"a v2 (by column) put+get is only {speedup:.2f}x faster than the "
        f"v1 dict form ({v2_s * 1e3:.1f} ms vs {v1_s * 1e3:.1f} ms)"
    )
