"""One ``DeviceMemoryPool.replay`` per prediction gives what the per-layer
``alloc``/``free`` walk gave (``memory_oracle``), on a grid that runs out
of device memory: the 8 GB systems at large batches, both frameworks."""

from __future__ import annotations

import memory_oracle

from repro.campaign import Campaign
from repro.core.cache import profile_to_dict
from repro.core.session import FRAMEWORKS
from repro.models import get_model
from repro.sim import CudaRuntime, VirtualClock, get_system
from repro.sim.memory import OutOfDeviceMemoryError

SYSTEMS = ("Tesla_P4", "Tesla_M60")
FRAMEWORK_NAMES = ("tensorflow_like", "mxnet_like")
MODELS = (16, 46, 53)  # VGG16, SSD ResNet34 1200x1200, DeepLabv3 MobileNet
BATCHES = (16, 64, 256)


def _predict(framework, model, batch):
    """The peak device memory of one prediction, or its OOM message."""
    try:
        return framework.predict(model, batch).peak_device_memory_bytes
    except OutOfDeviceMemoryError as err:
        return str(err)


def _point_outcomes() -> dict:
    outcomes = {}
    for system in SYSTEMS:
        for name in FRAMEWORK_NAMES:
            for model_id in MODELS:
                for batch in BATCHES:
                    runtime = CudaRuntime(get_system(system), VirtualClock())
                    framework = FRAMEWORKS[name](runtime)
                    model = framework.load(get_model(model_id).graph)
                    outcomes[system, name, model_id, batch] = (
                        _predict(framework, model, batch),
                        runtime.memory.live_bytes,
                    )
    return outcomes


def test_each_point_fits_or_fails_as_the_walk_did(monkeypatch):
    replayed = _point_outcomes()
    memory_oracle.install(monkeypatch)
    walked = _point_outcomes()
    assert replayed == walked
    results = [result for result, _ in replayed.values()]
    assert any(isinstance(result, str) for result in results)
    assert any(isinstance(result, int) for result in results)


def _campaign():
    campaign = Campaign().add_grid(MODELS, BATCHES, SYSTEMS, FRAMEWORK_NAMES)
    result = campaign.run()
    return result.out_of_memory, {
        point.label: profile_to_dict(profile)
        for point, profile in result.profiles.items()
    }


def test_campaign_oom_points_match_the_walk(monkeypatch):
    replayed = _campaign()
    memory_oracle.install(monkeypatch)
    walked = _campaign()
    assert replayed == walked
    oom, profiles = replayed
    assert oom and profiles


def test_runtime_reused_across_predicts(monkeypatch):
    """The pool's peak carries over between predictions, and a failed
    prediction leaves live what the walk left live before its error."""

    def outcomes():
        runtime = CudaRuntime(get_system("Tesla_P4"), VirtualClock())
        results = []
        for name in FRAMEWORK_NAMES:
            framework = FRAMEWORKS[name](runtime)
            small = framework.load(get_model(53).graph)
            big = framework.load(get_model(46).graph)
            for model, batch in ((small, 16), (big, 16), (small, 64),
                                 (big, 64), (small, 16), (big, 16)):
                results.append((_predict(framework, model, batch),
                                runtime.memory.live_bytes,
                                runtime.memory.peak_bytes))
            runtime.reset()
        return results

    replayed = outcomes()
    memory_oracle.install(monkeypatch)
    assert replayed == outcomes()
    assert any(isinstance(result, str) for result, _, _ in replayed)
