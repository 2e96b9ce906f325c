"""Every zoo model executes end-to-end at batch 1 on the TF-like stack."""

import pytest

from repro.core import AnalysisPipeline, XSPSession
from repro.frameworks import TFSim
from repro.models import MODEL_ZOO, get_model
from repro.sim import CudaRuntime, VirtualClock, get_system


@pytest.mark.parametrize("model_id", sorted(MODEL_ZOO))
def test_model_runs_at_batch_one(model_id):
    entry = get_model(model_id)
    rt = CudaRuntime(get_system("Tesla_V100"), VirtualClock())
    fw = TFSim(rt)
    launches = rt.launch_reader()
    result = fw.predict(fw.load(entry.graph), 1)
    assert result.latency_ms > 0.1
    assert rt.memory.live_bytes == 0
    assert launches(), "every model must launch GPU kernels"


@pytest.mark.parametrize(
    "model_id,name", [(16, "VGG16"), (17, "VGG19"), (32, "BVLC_AlexNet_Caffe")]
)
def test_explicit_bias_add_models_profile_under_mxnet(model_id, name):
    """Graphs with explicit BiasAdd ops lower to MXNet's broadcast_add."""
    entry = get_model(model_id)
    assert entry.name == name
    pipeline = AnalysisPipeline(
        XSPSession("Tesla_V100", "mxnet_like"), runs_per_level=1
    )
    profile = pipeline.profile_model(entry.graph, 1)
    assert profile.model_latency_ms > 0
    assert "broadcast_add" in {layer.layer_type for layer in profile.layers}


def test_online_latency_sanity_bands():
    """Coarse sanity: online latencies sit in plausible bands per task."""
    rt_latency = {}
    for model_id in (7, 18, 44, 38):
        entry = get_model(model_id)
        rt = CudaRuntime(get_system("Tesla_V100"), VirtualClock())
        fw = TFSim(rt)
        rt_latency[model_id] = fw.predict(fw.load(entry.graph), 1).latency_ms
    assert rt_latency[18] < rt_latency[7] < rt_latency[44] < rt_latency[38]


def test_zoo_accuracy_ordering_within_ic():
    """Table VIII sorts IC models by reported accuracy."""
    from repro.models import list_models

    accuracies = [e.paper.accuracy for e in list_models("IC")]
    assert accuracies == sorted(accuracies, reverse=True)


def test_zoo_sweep_batches_start_at_one():
    for entry in MODEL_ZOO.values():
        assert entry.sweep_batches[0] == 1
        assert list(entry.sweep_batches) == sorted(entry.sweep_batches)
