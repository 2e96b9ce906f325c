"""Diff inputs: store entries, bare profile JSONs, and raw trace captures."""

import json

import pytest

from repro.analysis.diff import (
    load_profile_json,
    profile_from_trace,
)
from repro.core import ProfileStore, ProfilingConfig
from repro.core.cache import profile_to_dict
from repro.tracing import Level
from repro.tracing.export import save_trace


def test_load_store_entry(tmp_path, cnn_profile):
    store = ProfileStore(tmp_path)
    path = store.put(cnn_profile, runs_per_level=2)
    loaded = load_profile_json(str(path))
    assert loaded.model_name == cnn_profile.model_name
    assert loaded.model_latency_ms == cnn_profile.model_latency_ms
    assert len(loaded.layers) == len(cnn_profile.layers)


def test_load_bare_profile_dict(tmp_path, cnn_profile):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(profile_to_dict(cnn_profile)))
    loaded = load_profile_json(str(path))
    assert loaded.model_latency_ms == cnn_profile.model_latency_ms
    assert [l.name for l in loaded.layers] == [
        l.name for l in cnn_profile.layers
    ]


def test_load_trace_capture(tmp_path, v100_session, cnn_graph):
    run = v100_session.profile(cnn_graph, 4, ProfilingConfig())
    path = tmp_path / "trace.json"
    save_trace(run.trace, str(path))
    profile = load_profile_json(str(path))
    assert profile.model_name == cnn_graph.name
    assert profile.system == "Tesla_V100"
    assert profile.batch == 4
    assert profile.layers
    # Correlated kernels made it into their layers with metric tags.
    assert profile.kernels
    assert profile.flops > 0
    assert all(k.layer_index >= 0 for k in profile.kernels)


def test_profile_from_trace_uses_predict_span_latency(
    v100_session, cnn_graph
):
    run = v100_session.profile(cnn_graph, 2, ProfilingConfig(metrics=()))
    profile = profile_from_trace(run.trace)
    assert profile.model_latency_ms == pytest.approx(
        run.predict_span.duration_ms
    )
    # Layer latencies mirror the layer spans.
    assert len(profile.layers) == len(run.trace.at_level(Level.LAYER))


def test_trace_diffs_against_itself_cleanly(v100_session, cnn_graph):
    from repro.analysis.diff import diff_profiles

    run = v100_session.profile(cnn_graph, 2, ProfilingConfig())
    profile = profile_from_trace(run.trace)
    assert diff_profiles(profile, profile).findings_above(1e-9) == []


def test_unrecognized_json_is_rejected(tmp_path):
    path = tmp_path / "nope.json"
    path.write_text(json.dumps({"something": "else"}))
    with pytest.raises(ValueError, match="neither"):
        load_profile_json(str(path))


def test_invalid_json_is_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_profile_json(str(path))


def test_non_object_json_is_rejected(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ValueError, match="JSON object"):
        load_profile_json(str(path))


def test_library_level_trace_still_attaches_kernels(v100_session, cnn_graph):
    """Regression: with the LIBRARY level captured, execution spans hang
    off cuDNN API spans, not layer spans — kernels must still resolve to
    their enclosing layer through the ancestor chain."""
    from repro.core import MLLibG

    run = v100_session.profile(
        cnn_graph, 2, ProfilingConfig(levels=MLLibG)
    )
    profile = profile_from_trace(run.trace)
    assert profile.kernels, "library-level trace lost every kernel"
    assert len(profile.kernels) == run.n_kernels
