"""Parallel batch sweeps: worker-process fan-out matches the serial path."""

import pytest

from repro.core import AnalysisPipeline, ProfileStore, XSPSession
from repro.models import get_model

MODEL_ID = 53
BATCHES = (1, 2, 4)


@pytest.fixture(scope="module")
def graph():
    return get_model(MODEL_ID).graph


def _pipeline(**kwargs):
    return AnalysisPipeline(XSPSession("Tesla_V100"), runs_per_level=2,
                            **kwargs)


def _assert_profiles_equal(a, b):
    assert a.model_latency_ms == b.model_latency_ms
    assert a.throughput == b.throughput
    assert a.flops == b.flops
    assert a.achieved_occupancy == b.achieved_occupancy
    assert a.memory_bound == b.memory_bound
    assert len(a.layers) == len(b.layers)
    for la, lb in zip(a.layers, b.layers):
        assert la.latency_ms == lb.latency_ms
        assert [k.name for k in la.kernels] == [k.name for k in lb.kernels]


def test_parallel_sweep_matches_serial(graph):
    serial = _pipeline().sweep(graph, BATCHES)
    parallel = _pipeline().sweep(graph, BATCHES, parallel=True)
    assert sorted(parallel) == sorted(serial) == sorted(BATCHES)
    for batch in BATCHES:
        _assert_profiles_equal(serial[batch], parallel[batch])


def test_parallel_sweep_fills_the_store(graph, tmp_path):
    store = ProfileStore(tmp_path)
    _pipeline(store=store).sweep(graph, BATCHES, parallel=True)
    assert len(store) == len(BATCHES)
    for batch in BATCHES:
        assert store.get(graph.name, "Tesla_V100", "tensorflow_like", batch,
                         2) is not None


def test_parallel_sweep_serves_cached_batches_without_workers(
    graph, tmp_path, monkeypatch
):
    store = ProfileStore(tmp_path)
    warmup = _pipeline(store=store)
    expected = warmup.sweep(graph, BATCHES)

    import repro.core.pipeline as pipeline_mod

    def no_workers(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("fully cached sweep must not spawn workers")

    monkeypatch.setattr(pipeline_mod, "ProcessPoolExecutor", no_workers)
    served = _pipeline(store=store).sweep(graph, BATCHES, parallel=True)
    for batch in BATCHES:
        _assert_profiles_equal(expected[batch], served[batch])


def test_unpicklable_statistic_falls_back_to_serial(graph):
    calls = []

    def local_stat(values):  # locals don't pickle -> serial fallback
        calls.append(1)
        return sum(values) / len(values)

    pipe = _pipeline(statistic=local_stat)
    result = pipe.sweep(graph, BATCHES, parallel=True)
    assert sorted(result) == sorted(BATCHES)
    assert calls  # the statistic ran in this process


def test_parallel_sweep_with_custom_gpu_spec(graph):
    """Workers must profile the actual GPUSpec, not look its name up."""
    from dataclasses import replace

    from repro.sim.hardware import get_system

    custom = replace(get_system("Tesla_V100"), name="Custom_V100_OC",
                     peak_tflops=20.0)
    pipe = AnalysisPipeline(XSPSession(custom), runs_per_level=2)
    serial = pipe.sweep(graph, BATCHES)
    parallel = pipe.sweep(graph, BATCHES, parallel=True)
    for batch in BATCHES:
        a, b = serial[batch], parallel[batch]
        assert b.system == "Custom_V100_OC"
        # (not _assert_profiles_equal: .memory_bound needs a cataloged
        # system name, which a custom spec deliberately is not)
        assert a.model_latency_ms == b.model_latency_ms
        assert a.flops == b.flops
        assert len(a.layers) == len(b.layers)


def test_worker_span_id_ranges_are_disjoint():
    """Seeded workers draw span ids from namespace-disjoint ranges.

    Regression: every ProcessPoolExecutor worker inherits a fresh module
    state, so without the initializer each worker's span counter restarts
    at 1 and spans from different workers collide.
    """
    import repro.tracing.span as span_mod
    from repro.tracing.span import (
        _NAMESPACE_MASK,
        _NAMESPACE_SHIFT,
        seed_span_ids,
    )

    first_seeded = 1 << _NAMESPACE_SHIFT
    draws_per_worker = 1000

    def ids_for(namespace):
        base = seed_span_ids(namespace)
        return {base + i for i in range(draws_per_worker)}

    original_counter = span_mod._span_counter
    try:
        seen = set()
        for namespace in (1234, 5678, 90123, _NAMESPACE_MASK + 1234):
            ids = ids_for(namespace)
            assert not (ids & seen), f"namespace {namespace} collides"
            # Disjoint from the parent's unseeded counter range (slot 0).
            assert min(ids) >= first_seeded
            seen |= ids
        # A namespace hashing to slot 0 must not fall back onto the
        # parent's range either.
        wrapped = ids_for(_NAMESPACE_MASK << _NAMESPACE_SHIFT)
        assert min(wrapped) >= first_seeded
    finally:
        span_mod._span_counter = original_counter


def test_worker_initializer_seeds_subprocess_counters():
    """The sweep pool's initializer really runs in the workers."""
    from concurrent.futures import ProcessPoolExecutor

    from repro.core.pipeline import _seed_worker_span_ids
    from repro.tracing.span import _NAMESPACE_SHIFT

    with ProcessPoolExecutor(
        max_workers=2, initializer=_seed_worker_span_ids
    ) as pool:
        batches = list(pool.map(_draw_span_ids, range(4)))
    for ids in batches:
        assert min(ids) >= 1 << _NAMESPACE_SHIFT
    by_worker: dict[int, set] = {}
    for ids in batches:
        by_worker.setdefault(ids[0] >> _NAMESPACE_SHIFT, set()).update(ids)
    workers = list(by_worker.values())
    for i, a in enumerate(workers):
        for b in workers[i + 1:]:
            assert not (a & b), "span ids collide across workers"


def _draw_span_ids(_):
    """Module-level (picklable) worker task: draw a few span ids."""
    from repro.tracing.span import new_span_id

    return [new_span_id() for _ in range(50)]


def test_single_batch_sweep_stays_serial(graph, monkeypatch):
    import repro.core.pipeline as pipeline_mod

    def no_workers(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("single-batch sweep must not spawn workers")

    monkeypatch.setattr(pipeline_mod, "ProcessPoolExecutor", no_workers)
    result = _pipeline().sweep(graph, [8], parallel=True)
    assert sorted(result) == [8]
