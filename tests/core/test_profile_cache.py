"""On-disk ModelProfile store: round-trip fidelity, keying, invalidation,
and the warm-cache fast path that skips the leveled experiment ladder."""

import json

import pytest

from repro.analysis.diff.sources import profile_from_document
from repro.core import AnalysisPipeline, LeveledExperiment, ProfileStore, XSPSession
from repro.core import cache as cache_mod
from repro.models import get_model

MODEL_ID = 53  # small graph keeps the cold computes cheap
BATCH = 4
RUNS = 2


@pytest.fixture()
def graph():
    return get_model(MODEL_ID).graph


@pytest.fixture()
def store(tmp_path):
    return ProfileStore(tmp_path / "profiles")


def _pipeline(store=None, runs=RUNS):
    return AnalysisPipeline(
        XSPSession("Tesla_V100"), runs_per_level=runs, store=store
    )


def test_round_trip_preserves_all_derived_properties(graph, store):
    original = _pipeline().profile_model(graph, BATCH)
    store.put(original, runs_per_level=RUNS)
    restored = store.get(
        graph.name, "Tesla_V100", "tensorflow_like", BATCH, RUNS
    )
    assert restored is not None
    assert restored is not original

    assert restored.model_latency_ms == original.model_latency_ms
    assert restored.throughput == original.throughput
    assert restored.flops == original.flops
    assert restored.dram_read_bytes == original.dram_read_bytes
    assert restored.dram_write_bytes == original.dram_write_bytes
    assert restored.achieved_occupancy == original.achieved_occupancy
    assert restored.arithmetic_intensity == original.arithmetic_intensity
    assert restored.memory_bound == original.memory_bound  # roofline class
    assert restored.gpu_latency_percentage == original.gpu_latency_percentage
    assert restored.overheads == original.overheads
    assert restored.n_runs == original.n_runs

    assert len(restored.layers) == len(original.layers)
    for mine, theirs in zip(restored.layers, original.layers):
        assert mine.index == theirs.index
        assert mine.name == theirs.name
        assert mine.layer_type == theirs.layer_type
        assert mine.shape == theirs.shape
        assert mine.latency_ms == theirs.latency_ms
        assert mine.alloc_bytes == theirs.alloc_bytes
        assert mine.achieved_occupancy == theirs.achieved_occupancy
        assert len(mine.kernels) == len(theirs.kernels)
        for rk, ok in zip(mine.kernels, theirs.kernels):
            assert rk == ok  # KernelProfile is a frozen dataclass


def test_missing_entry_is_none(graph, store):
    assert store.get(graph.name, "Tesla_V100", "tensorflow_like", BATCH,
                     RUNS) is None


def test_runs_per_level_is_part_of_the_key(graph, store):
    profile = _pipeline(store).profile_model(graph, BATCH)
    assert store.get(graph.name, profile.system, profile.framework, BATCH,
                     RUNS) is not None
    # A different repetition count must miss (it changes the statistics).
    assert store.get(graph.name, profile.system, profile.framework, BATCH,
                     RUNS + 1) is None


def test_statistic_is_part_of_the_key(graph, store):
    """A pipeline with a different merge statistic must not be served a
    profile merged with another one."""
    _pipeline(store).profile_model(graph, BATCH)  # trimmed_mean entry

    def mean(values):
        return sum(values) / len(values)

    ran = []
    other = AnalysisPipeline(
        XSPSession("Tesla_V100"), runs_per_level=RUNS, statistic=mean,
        store=store,
    )

    original_run = LeveledExperiment.run

    def tracking_run(self, *args, **kwargs):
        ran.append(1)
        return original_run(self, *args, **kwargs)

    LeveledExperiment.run, saved = tracking_run, LeveledExperiment.run
    try:
        profile = other.profile_model(graph, BATCH)
    finally:
        LeveledExperiment.run = saved
    assert ran, "different statistic must miss the cache and recompute"
    assert profile.model_latency_ms > 0


def test_schema_version_change_invalidates(graph, store):
    profile = _pipeline(store).profile_model(graph, BATCH)
    path = store.path_for(graph.name, profile.system, profile.framework,
                          BATCH, RUNS)
    document = json.loads(path.read_text())
    document["schema_version"] = cache_mod.SCHEMA_VERSION + 1
    path.write_text(json.dumps(document))
    assert store.get(graph.name, profile.system, profile.framework, BATCH,
                     RUNS) is None


def test_corrupt_entry_is_a_miss(graph, store):
    profile = _pipeline(store).profile_model(graph, BATCH)
    path = store.path_for(graph.name, profile.system, profile.framework,
                          BATCH, RUNS)
    path.write_text("{not json")
    assert store.get(graph.name, profile.system, profile.framework, BATCH,
                     RUNS) is None


def test_mismatched_stored_key_is_a_miss(graph, store):
    profile = _pipeline(store).profile_model(graph, BATCH)
    path = store.path_for(graph.name, profile.system, profile.framework,
                          BATCH, RUNS)
    document = json.loads(path.read_text())
    document["key"]["batch"] = BATCH + 1  # simulated filename collision
    path.write_text(json.dumps(document))
    assert store.get(graph.name, profile.system, profile.framework, BATCH,
                     RUNS) is None


def test_warm_cache_skips_leveled_experiment_entirely(
    graph, store, monkeypatch
):
    """Quickstart-style repeat run: zero calls into LeveledExperiment.run."""
    cold = _pipeline(store).profile_model(graph, BATCH)

    calls = []

    def counting_run(self, *args, **kwargs):  # pragma: no cover - must not run
        calls.append(args)
        raise AssertionError("warm-cache run must not re-profile")

    monkeypatch.setattr(LeveledExperiment, "run", counting_run)
    warm = _pipeline(store).profile_model(graph, BATCH)
    assert calls == []
    assert warm.model_latency_ms == cold.model_latency_ms
    assert warm.throughput == cold.throughput


def test_sweep_fills_the_store(graph, store):
    batches = (1, 2, 4)
    _pipeline(store).sweep(graph, batches)
    assert len(store) == len(batches)
    for batch in batches:
        assert store.get(graph.name, "Tesla_V100", "tensorflow_like", batch,
                         RUNS) is not None


def test_sweep_serves_stored_batches_without_profiling(graph, store,
                                                       monkeypatch):
    batches = (1, 2, 4)
    cold = _pipeline(store).sweep(graph, batches)

    def no_run(self, *args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("a stored sweep must not re-profile")

    monkeypatch.setattr(LeveledExperiment, "run", no_run)
    warm = _pipeline(store).sweep(graph, batches)
    assert list(warm) == list(batches)
    for batch in batches:
        assert warm[batch] == cold[batch]


def test_clear_and_entries(graph, store):
    _pipeline(store).profile_model(graph, BATCH)
    _pipeline(store).profile_model(graph, BATCH + 1)
    assert len(store) == 2
    assert store.clear() == 2
    assert len(store) == 0


def test_context_consults_store_from_environment(tmp_path, monkeypatch):
    from repro.experiments import context

    cache_dir = tmp_path / "ctx-cache"
    monkeypatch.setenv(context.CACHE_ENV, str(cache_dir))
    context.clear()
    try:
        cold = context.model_profile(MODEL_ID, BATCH)
        assert cache_dir.exists() and any(cache_dir.iterdir())

        # New process simulated: drop in-memory caches, forbid re-profiling.
        context.clear()

        def no_run(self, *args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("profile must come from the disk store")

        monkeypatch.setattr(LeveledExperiment, "run", no_run)
        warm = context.model_profile(MODEL_ID, BATCH)
        assert warm is not cold
        assert warm.model_latency_ms == cold.model_latency_ms
    finally:
        monkeypatch.delenv(context.CACHE_ENV, raising=False)
        context.clear()


def test_clear_sweeps_orphaned_tmp_files(graph, store):
    """A crashed put() leaves <name>.json<rand>.tmp orphans; clear() must
    sweep them while entries()/len keep excluding them."""
    profile = _pipeline(store).profile_model(graph, BATCH)
    entry = store.path_for(profile.model_name, profile.system,
                           profile.framework, BATCH, RUNS)
    orphan = store.root / (entry.name + "a1b2c3.tmp")
    orphan.write_text('{"partial":')
    assert len(store) == 1  # the orphan is not a visible entry
    assert orphan not in list(store.entries())
    assert store.clear() == 2  # the entry and the orphan
    assert not orphan.exists()
    assert list(store.entries()) == []


def test_get_ignores_orphaned_tmp_files(graph, store):
    """Lookups see only committed entries even with orphans present."""
    profile = _pipeline(store).profile_model(graph, BATCH)
    (store.root / "junk.json123.tmp").write_text("{")
    warm = store.get(profile.model_name, profile.system, profile.framework,
                     BATCH, RUNS)
    assert warm is not None
    assert warm.model_latency_ms == profile.model_latency_ms


# -- store schema v2: the profile by column ----------------------------------


def _entry_path(store, profile, runs=RUNS):
    return store.path_for(profile.model_name, profile.system,
                          profile.framework, profile.batch, runs)


def _get(store, profile, runs=RUNS):
    return store.get(profile.model_name, profile.system, profile.framework,
                     profile.batch, runs)


def test_entry_stores_the_profile_by_column(graph, store):
    profile = _pipeline(store).profile_model(graph, BATCH)
    document = json.loads(_entry_path(store, profile).read_text())
    assert document["schema_version"] == cache_mod.SCHEMA_VERSION == 2
    stored = document["profile"]
    kernels = profile.kernel_table
    assert stored["kernels"]["latency_ms"] == kernels.latency_ms
    assert stored["kernels"]["grid"] == [list(g) for g in kernels.grid]
    assert stored["layers"]["kernel_start"] == kernels.starts[:-1]
    assert stored["layers"]["name"] == [layer.name for layer in profile.layers]


def test_v1_entry_is_a_miss(graph, store):
    """An entry of the object-per-kernel schema is recomputed, not read."""
    profile = _pipeline(store).profile_model(graph, BATCH)
    path = _entry_path(store, profile)
    document = json.loads(path.read_text())
    document.update(schema_version=1,
                    profile=cache_mod.profile_to_dict(profile))
    path.write_text(json.dumps(document))
    assert _get(store, profile) is None


@pytest.mark.parametrize("edit", [
    lambda p: p["kernels"]["flops"].pop(),
    lambda p: p["kernels"]["latency_ms"].__setitem__(0, "1.0"),
    lambda p: p["layers"]["kernel_start"].__setitem__(-1, 10**6),
    lambda p: p["layers"].pop("shape"),
    lambda p: p.update(kernels=None),
    lambda p: p["kernels"]["grid"].__setitem__(0, ["x", None]),
    lambda p: p["kernels"]["block"].__setitem__(0, [1.5, 1, 1]),
    lambda p: p["layers"]["shape"].__setitem__(0, [True, 3]),
], ids=["short column", "string latency", "offset out of range",
        "missing column", "kernels null", "string in a grid",
        "float in a block", "bool in a shape"])
def test_corrupt_v2_entry_is_a_miss(graph, store, edit):
    profile = _pipeline(store).profile_model(graph, BATCH)
    path = _entry_path(store, profile)
    document = json.loads(path.read_text())
    edit(document["profile"])
    path.write_text(json.dumps(document))
    assert _get(store, profile) is None


@pytest.mark.parametrize("model,framework,batch,system", [
    (7, "tensorflow_like", 1, "Tesla_V100"),
    (7, "mxnet_like", 2, "Tesla_V100"),
    (15, "tensorflow_like", 1, "Tesla_V100"),
    (29, "mxnet_like", 1, "Tesla_V100"),
    (44, "tensorflow_like", 1, "Tesla_V100"),
    (48, "mxnet_like", 1, "Tesla_V100"),
    (51, "tensorflow_like", 4, "Tesla_V100"),
    (53, "tensorflow_like", 8, "Tesla_P100"),
    (53, "mxnet_like", 2, "Quadro_RTX"),
    (15, "mxnet_like", 4, "Tesla_P100"),
])
def test_v2_round_trip_keeps_the_canonical_profile(model, framework, batch,
                                                   system, store):
    """Read back from a v2 entry, a merged profile has the object-per-
    kernel form the zoo digests hash, and compares equal."""
    profile = AnalysisPipeline(
        XSPSession(system, framework), runs_per_level=1, store=store
    ).profile_model(get_model(model).graph, batch)
    restored = _get(store, profile, runs=1)
    assert restored is not None and restored is not profile
    assert cache_mod.profile_to_dict(restored) == cache_mod.profile_to_dict(
        profile)
    assert restored == profile
    assert [layer.totals.latency_ms for layer in restored.layers] == [
        layer.totals.latency_ms for layer in profile.layers]


def test_v1_payload_still_loads(cnn_profile):
    """A bare object-per-kernel payload reads back into the same profile."""
    payload = json.loads(json.dumps(cache_mod.profile_to_dict(cnn_profile)))
    assert profile_from_document(payload) == cnn_profile
    columns = json.loads(json.dumps(cache_mod.profile_to_columns(cnn_profile)))
    assert profile_from_document(columns) == cnn_profile
