"""Framework executor behaviour tests (shared engine + both frameworks)."""

import pytest

from repro.frameworks import MXSim, RunOptions, TFSim
from repro.sim import CudaRuntime, VirtualClock, get_system

V100 = get_system("Tesla_V100")


def make(cls=TFSim):
    rt = CudaRuntime(V100, VirtualClock())
    return rt, cls(rt)


def test_predict_returns_latency_and_outputs(cnn_graph):
    rt, fw = make()
    model = fw.load(cnn_graph)
    result = fw.predict(model, 4)
    assert result.latency_ms > 0
    assert result.output_shapes == {"softmax": (4, 10)}
    assert result.native_profile is None


def test_layer_profiling_via_run_options(cnn_graph):
    rt, fw = make()
    model = fw.load(cnn_graph)
    result = fw.predict(model, 4, RunOptions(trace_level="FULL"))
    assert result.native_profile is not None
    assert "step_stats" in result.native_profile


def test_mx_profiler_state_toggle(cnn_graph):
    rt, fw = make(MXSim)
    model = fw.load(cnn_graph)
    assert fw.predict(model, 4).native_profile is None
    fw.set_profiler_state(True)
    profile = fw.predict(model, 4).native_profile
    assert profile is not None and "events" in profile
    fw.set_profiler_state(False)
    assert fw.predict(model, 4).native_profile is None


def test_profiling_inflates_latency_but_layer_latencies_accurate(cnn_graph):
    """Fig. 2: layer profiling adds overhead to the model prediction."""
    rt, fw = make()
    model = fw.load(cnn_graph)
    plain = fw.predict(model, 4).latency_ms
    rt.reset()
    profiled = fw.predict(model, 4, RunOptions(trace_level="FULL"))
    assert profiled.latency_ms > plain * 1.5
    from repro.frameworks.profiler_format import parse_tf_step_stats

    layer_total = sum(
        r.duration_ms for r in parse_tf_step_stats(profiled.native_profile)
    )
    # Accurate layer latencies: they sum to ~the unprofiled latency, far
    # below the inflated prediction latency.
    assert layer_total < plain * 1.15


def test_memory_released_after_predict(cnn_graph):
    rt, fw = make()
    model = fw.load(cnn_graph)
    fw.predict(model, 8)
    assert rt.memory.live_bytes == 0


def test_peak_memory_below_sum_of_all_layers(cnn_graph):
    """Liveness-based freeing keeps the working set bounded."""
    rt, fw = make()
    model = fw.load(cnn_graph)
    fw.predict(model, 8)
    total_allocated = model.weight_bytes + sum(
        step.out_bytes for step in fw.execution_plan(model, 8).steps
    )
    assert rt.memory.peak_bytes < total_allocated


def test_wrong_framework_model_rejected(cnn_graph):
    _, tf = make()
    _, mx = make(MXSim)
    model = tf.load(cnn_graph)
    with pytest.raises(ValueError, match="compiled for"):
        mx.predict(model, 1)


def test_latency_grows_with_batch(cnn_graph):
    rt, fw = make()
    model = fw.load(cnn_graph)
    lat1 = fw.predict(model, 1).latency_ms
    rt.reset()
    lat64 = fw.predict(model, 64).latency_ms
    assert lat64 > lat1


def test_plan_specs_untagged_and_launches_carry_layer(cnn_graph):
    """The plan keeps each spec as emitted; the launch record, not a spec
    tag, names the launching layer."""
    for cls in (TFSim, MXSim):
        rt, fw = make(cls)
        model = fw.load(cnn_graph)
        plan = fw.execution_plan(model, 4)
        read_launches = rt.launch_reader()
        fw.predict(model, 4)
        launches = iter(read_launches())
        for step in plan.steps:
            for spec in step.kernels or ():
                assert "layer_index" not in spec.tags
                assert "layer_name" not in spec.tags
                record = next(launches)
                assert record.spec is spec
                assert record.layer_index == step.layer.index
        assert next(launches, None) is None


def test_data_layer_does_h2d_copy(cnn_graph):
    rt, fw = make()
    model = fw.load(cnn_graph)
    copies = []
    rt.on_memcpy(copies.append)
    fw.predict(model, 4)
    kinds = [m.kind for m in copies]
    assert "h2d" in kinds and "d2h" in kinds


def test_tf_eigen_vs_mx_mshadow_kernels(cnn_graph):
    rt_tf, tf = make()
    tf_launches = rt_tf.launch_reader()
    tf.predict(tf.load(cnn_graph), 4)
    tf_names = {r.spec.name for r in tf_launches()}
    assert any("Eigen::" in n for n in tf_names)

    rt_mx, mx = make(MXSim)
    mx_launches = rt_mx.launch_reader()
    mx.predict(mx.load(cnn_graph), 4)
    mx_names = {r.spec.name for r in mx_launches()}
    assert any("mxnet::" in n for n in mx_names)
    assert not any("Eigen::" in n for n in mx_names)


def test_mx_fewer_layers_than_tf(cnn_graph):
    """BN fusion means MXNet executes fewer layers."""
    _, tf = make()
    _, mx = make(MXSim)
    assert mx.load(cnn_graph).n_layers < tf.load(cnn_graph).n_layers


def test_compiled_model_helpers(cnn_graph):
    _, fw = make()
    model = fw.load(cnn_graph)
    assert model.n_layers == len(model.plan)
    assert sum(l.layer_type == "Conv2D" for l in model.plan) == 2
    shapes = model.shapes(4)
    assert shapes["softmax"].dims == (4, 10)
    assert model.shapes(4) is shapes  # cached
