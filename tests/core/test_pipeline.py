"""AnalysisPipeline / ModelProfile tests."""

import pytest


def test_profile_layer_structure(cnn_profile):
    assert cnn_profile.batch == 8
    assert cnn_profile.layers
    indices = [layer.index for layer in cnn_profile.layers]
    assert indices == sorted(indices)
    types = {layer.layer_type for layer in cnn_profile.layers}
    assert "Conv2D" in types and "Mul" in types


def test_every_compute_layer_has_kernels(cnn_profile):
    for layer in cnn_profile.layers:
        if layer.layer_type in ("Conv2D", "Relu", "Mul", "Add", "AddN"):
            assert layer.kernels, f"{layer.name} has no kernels"


def test_layer_invariants(cnn_profile):
    for layer in cnn_profile.layers:
        assert layer.latency_ms >= 0
        assert layer.kernel_latency_ms <= layer.latency_ms * 1.05
        assert layer.non_gpu_latency_ms >= 0
        if layer.kernels:
            assert 0 <= layer.achieved_occupancy <= 1


def test_model_aggregates_consistent(cnn_profile):
    assert cnn_profile.kernel_latency_ms == pytest.approx(
        sum(l.kernel_latency_ms for l in cnn_profile.layers)
    )
    assert cnn_profile.flops == pytest.approx(
        sum(k.flops for k in cnn_profile.kernels)
    )
    assert 0 < cnn_profile.gpu_latency_percentage <= 100


def test_kernel_profile_derived_metrics(cnn_profile):
    kernel = max(cnn_profile.kernels, key=lambda k: k.flops)
    assert kernel.arithmetic_intensity > 0
    assert kernel.arithmetic_throughput_tflops > 0
    assert kernel.dram_bytes == kernel.dram_read_bytes + kernel.dram_write_bytes


def test_overheads_recorded(cnn_profile):
    assert set(cnn_profile.overheads) == {"M/L", "M/L/G"}


def test_throughput(cnn_profile):
    assert cnn_profile.throughput == pytest.approx(
        8 / (cnn_profile.model_latency_ms / 1e3)
    )


def test_resnet50_profile_matches_paper_shape(resnet50_profile):
    """Golden-shape assertions for the paper's running example."""
    p = resnet50_profile
    assert 200 <= p.model_latency_ms <= 400  # paper: 275 ms
    assert 85 <= p.gpu_latency_percentage <= 97  # paper: 92.4%
    assert 225 <= len(p.layers) <= 240  # paper: 234
    assert not p.memory_bound  # compute-bound at optimal batch
    assert 100 <= p.overheads["M/L"] <= 220  # paper: 157 ms
    top = max(p.layers, key=lambda l: l.latency_ms)
    assert top.layer_type == "Conv2D"
    assert top.alloc_mb == pytest.approx(25.7, rel=0.01)  # Table II


def test_sweep_contains_all_batches(resnet50_sweep):
    assert sorted(resnet50_sweep) == [1, 4, 16, 32, 64, 256]
    for batch, profile in resnet50_sweep.items():
        assert profile.batch == batch


def test_sweep_profiles_a_custom_gpu_spec():
    """A sweep profiles the session's GPUSpec itself, not a catalog entry
    looked up by its name."""
    from dataclasses import replace

    from repro.core import AnalysisPipeline, XSPSession
    from repro.models import get_model
    from repro.sim.hardware import get_system

    graph = get_model(53).graph
    stock = get_system("Tesla_V100")
    custom = replace(stock, name="Custom_V100_OC",
                     peak_tflops=stock.peak_tflops * 4)
    pipe = AnalysisPipeline(XSPSession(custom), runs_per_level=2)
    sweep = pipe.sweep(graph, (1, 2, 4))
    baseline = AnalysisPipeline(XSPSession(stock), runs_per_level=2).sweep(
        graph, (1, 2, 4))
    assert list(sweep) == [1, 2, 4]
    for batch, profile in sweep.items():
        assert profile.system == "Custom_V100_OC"
        assert profile == pipe.profile_model(graph, batch)
        assert profile.flops == baseline[batch].flops
    assert any(sweep[b].model_latency_ms < baseline[b].model_latency_ms
               for b in sweep)


def test_merge_applies_statistic_per_position(cnn_graph):
    """Layer latencies merge M/L views, kernel latencies metric-run views."""
    from repro.core import AnalysisPipeline, XSPSession
    from repro.core.pipeline import profile_from_trace

    pipeline = AnalysisPipeline(
        XSPSession("Tesla_V100"), runs_per_level=3, statistic=max
    )
    leveled = pipeline.experiment.run(cnn_graph, 4)
    profile = pipeline.merge(leveled)

    layer_views = [
        profile_from_trace(run.trace).layers for run in leveled.runs_at("M/L")
    ]
    assert len(layer_views) == 3
    assert [l.name for l in profile.layers] == [l.name for l in layer_views[0]]
    for pos, layer in enumerate(profile.layers):
        assert layer.latency_ms == max(v[pos].latency_ms for v in layer_views)
    # The repetitions jitter, so the statistic has something to choose.
    assert any(
        len({v[pos].latency_ms for v in layer_views}) > 1
        for pos in range(len(profile.layers))
    )

    kernel_views = [
        {(k.layer_index, k.position): k.latency_ms
         for k in profile_from_trace(run.trace).kernels}
        for run in leveled.runs_at("M/L/G+metrics")
    ]
    assert len(kernel_views) == 3
    assert len(profile.kernels) == len(kernel_views[0])
    for kernel in profile.kernels:
        key = (kernel.layer_index, kernel.position)
        assert kernel.latency_ms == max(v[key] for v in kernel_views)


# -- the one kernel aggregate -------------------------------------------------


def _kernel(name="k", layer_index=0, position=0, *, latency_ms=1.0,
            flops=1e9, dram_read=1e6, dram_write=1e6, occupancy=0.5):
    from repro.core.pipeline import KernelProfile

    return KernelProfile(name, layer_index, position, latency_ms, flops,
                         dram_read, dram_write, occupancy, (1, 1, 1),
                         (128, 1, 1))


def _roofline(latency, flops, reads, writes, occupancy):
    """The derived quantities, as each profile class once computed them."""
    dram = reads + writes
    if dram == 0:
        intensity = float("inf") if flops > 0 else 0.0
    else:
        intensity = flops / dram
    throughput = 0.0 if latency <= 0 else flops / (latency / 1e3) / 1e12
    return (latency, flops, reads, writes, dram, occupancy, intensity,
            throughput)


def _reference_layer(layer):
    """A layer's totals by the former per-access formulas: flat sums."""
    kernels = layer.kernels
    latency = sum(k.latency_ms for k in kernels)
    weighted = sum(k.achieved_occupancy * k.latency_ms for k in kernels)
    return _roofline(
        latency,
        sum(k.flops for k in kernels),
        sum(k.dram_read_bytes for k in kernels),
        sum(k.dram_write_bytes for k in kernels),
        0.0 if latency == 0 else weighted / latency,
    )


def _reference_model(profile):
    """A model's totals by the former formulas: layer totals summed, the
    occupancy numerator flat over every kernel."""
    layers = [_reference_layer(layer) for layer in profile.layers]
    latency = sum(t[0] for t in layers)
    weighted = sum(k.achieved_occupancy * k.latency_ms
                   for layer in profile.layers for k in layer.kernels)
    return _roofline(
        latency,
        sum(t[1] for t in layers),
        sum(t[2] for t in layers),
        sum(t[3] for t in layers),
        0.0 if latency == 0 else weighted / latency,
    )


def _observed(obj):
    return (obj.kernel_latency_ms, obj.flops, obj.dram_read_bytes,
            obj.dram_write_bytes, obj.dram_bytes, obj.achieved_occupancy,
            obj.arithmetic_intensity, obj.arithmetic_throughput_tflops)


def _bits(values):
    return [float(value).hex() for value in values]


@pytest.mark.parametrize("model,framework,batch,system", [
    (7, "tensorflow_like", 1, "Tesla_V100"),
    (7, "mxnet_like", 1, "Tesla_V100"),
    (15, "tensorflow_like", 1, "Tesla_V100"),
    # Flat and per-layer occupancy numerators differ in the last bit here.
    (29, "mxnet_like", 1, "Tesla_V100"),
    (51, "tensorflow_like", 1, "Tesla_V100"),
    (44, "tensorflow_like", 1, "Tesla_V100"),
    (48, "mxnet_like", 1, "Tesla_V100"),
    (53, "tensorflow_like", 1, "Tesla_V100"),
    (53, "mxnet_like", 2, "Tesla_P100"),
    (15, "tensorflow_like", 4, "Quadro_RTX"),
])
def test_aggregates_match_the_per_access_formulas(model, framework, batch,
                                                  system):
    """Every layer and model total is bit-identical to the sums the
    profile classes used to recompute on each read, in the same order."""
    from repro.core import AnalysisPipeline, XSPSession
    from repro.models import get_model

    profile = AnalysisPipeline(
        XSPSession(system, framework), runs_per_level=1
    ).profile_model(get_model(model).graph, batch)
    gpu = profile.gpu
    for layer in profile.layers:
        reference = _reference_layer(layer)
        assert _bits(_observed(layer)) == _bits(reference), layer.name
        assert layer.memory_bound(gpu) == (
            reference[6] < gpu.ideal_arithmetic_intensity
        )
    reference = _reference_model(profile)
    assert _bits(_observed(profile)) == _bits(reference)
    assert profile.memory_bound == (
        reference[6] < gpu.ideal_arithmetic_intensity
    )
    assert profile.kernels == tuple(
        k for layer in profile.layers for k in layer.kernels
    )
    assert profile.totals.count == len(profile.kernels)


def _layer(kernels, index=0):
    from repro.core.pipeline import LayerProfile

    return LayerProfile(index, f"layer{index}", "Conv2D", (1,), 1.0, 0,
                        kernels)


def _model(layers, latency_ms=1.0):
    from repro.core.pipeline import ModelProfile

    return ModelProfile("m", "Tesla_V100", "tensorflow_like", 1, latency_ms,
                        layers)


def test_aggregate_of_no_kernels():
    from repro.sim.hardware import get_system

    layer = _layer(())
    profile = _model((layer, _layer((), 1)))
    for obj in (layer, profile):
        assert _observed(obj) == (0.0,) * 8
        assert obj.totals.count == 0
    assert layer.memory_bound(get_system("Tesla_V100"))
    assert _model(()).kernels == ()
    assert _observed(_model(())) == (0.0,) * 8


def test_aggregate_with_zero_kernel_latency():
    layer = _layer((_kernel(latency_ms=0.0), _kernel(latency_ms=0.0)))
    profile = _model((layer,))
    for obj in (layer, profile):
        assert obj.kernel_latency_ms == 0.0
        assert obj.achieved_occupancy == 0.0
        assert obj.arithmetic_throughput_tflops == 0.0
        assert obj.flops == 2e9


def test_zero_dram_traffic_with_flops_has_infinite_intensity():
    """Compute without DRAM traffic is compute-bound everywhere: kernel,
    by-name group, layer, model and the A10 table agree on ``inf``."""
    from repro.analysis import kernel_by_name_table
    from repro.core.pipeline import kernels_by_name

    kernel = _kernel("gemm", dram_read=0.0, dram_write=0.0)
    profile = _model((_layer((kernel,)),))
    group = kernels_by_name(profile.kernels)["gemm"]
    gpu = profile.gpu
    for obj in (kernel, group, profile.layers[0], profile.totals):
        assert obj.arithmetic_intensity == float("inf")
        assert not obj.memory_bound(gpu)
    assert profile.arithmetic_intensity == float("inf")
    assert not profile.memory_bound
    (row,) = kernel_by_name_table(profile).rows
    assert row["arithmetic_intensity"] == float("inf")
    assert row["memory_bound"] is False


def _edge_profile():
    """Layers of one kernel each with zero DRAM traffic, zero latency,
    ``-0.0`` flops and all three, a layer with none, and a mixed one."""
    return _model((
        _layer((_kernel(dram_read=0.0, dram_write=0.0),), 0),
        _layer((_kernel(latency_ms=0.0),), 1),
        _layer((_kernel(flops=-0.0),), 2),
        _layer((_kernel(flops=-0.0, latency_ms=0.0, dram_read=0.0,
                        dram_write=0.0),), 3),
        _layer((), 4),
        _layer((_kernel(dram_read=0.0, dram_write=3e5, latency_ms=0.0),
                _kernel(flops=-0.0, dram_read=7e5, dram_write=0.0),
                _kernel(flops=3e9, latency_ms=2.5, occupancy=0.9)), 5),
    ))


def _profiled(model, framework, batch, system):
    from repro.core import AnalysisPipeline, XSPSession
    from repro.models import get_model

    return AnalysisPipeline(
        XSPSession(system, framework), runs_per_level=1
    ).profile_model(get_model(model).graph, batch)


@pytest.mark.parametrize("point", [
    None,
    (53, "tensorflow_like", 1, "Tesla_V100"),
    (15, "mxnet_like", 2, "Quadro_RTX"),
], ids=["edges", "53-tf", "15-mx"])
def test_roofline_views_match_the_reference_formulas(point):
    """A9's kernel coordinates, A14's layer points and classes, and the
    roofline ceiling are bit-identical to :func:`_roofline` and
    ``min(peak, intensity * bandwidth)``."""
    from repro.analysis import (RooflinePoint, kernel_coordinates,
                                layer_roofline, roofline_curve)

    profile = _edge_profile() if point is None else _profiled(*point)
    gpu = profile.gpu

    kernels = [
        (row, _roofline(k.latency_ms, k.flops, k.dram_read_bytes,
                        k.dram_write_bytes, k.achieved_occupancy))
        for row, k in enumerate(profile.kernels)
        if k.dram_read_bytes + k.dram_write_bytes > 0
    ]
    rows, intensities, throughputs = kernel_coordinates(profile)
    assert rows == [row for row, _ in kernels]
    assert _bits(intensities) == _bits(ref[6] for _, ref in kernels)
    assert _bits(throughputs) == _bits(ref[7] for _, ref in kernels)

    layers = [(slot, layer, _reference_layer(layer))
              for slot, layer in enumerate(profile.layers)
              if layer.kernels and _reference_layer(layer)[4] > 0]
    points = layer_roofline(profile)
    assert [p.label for p in points] == [
        f"{layer.index}:{layer.layer_type}" for _, layer, _ in layers]
    assert _bits(p.arithmetic_intensity for p in points) == _bits(
        ref[6] for *_, ref in layers)
    assert _bits(p.arithmetic_throughput_tflops for p in points) == _bits(
        ref[7] for *_, ref in layers)
    assert _bits(p.latency_ms for p in points) == _bits(
        layer.latency_ms for _, layer, _ in layers)
    assert profile.layer_table.roofline(gpu) == [
        (slot, ref[6] < gpu.ideal_arithmetic_intensity)
        for slot, _, ref in layers]

    xs = [*intensities, *(ref[6] for *_, ref in layers), 0.0, -0.0,
          gpu.ideal_arithmetic_intensity, float("inf")]
    ceiling = [min(gpu.peak_tflops, x * gpu.memory_bandwidth / 1e12)
               for x in xs]
    assert [x for x, _ in roofline_curve(gpu, xs)] == xs
    assert _bits(y for _, y in roofline_curve(gpu, xs)) == _bits(ceiling)
    assert _bits(RooflinePoint("p", x, 1.0).attainable_tflops(gpu)
                 for x in xs) == _bits(ceiling)


def test_edge_rows_are_on_the_roofline_where_they_have_dram_traffic():
    from repro.analysis import kernel_coordinates, layer_roofline

    profile = _edge_profile()
    assert kernel_coordinates(profile)[0] == [1, 2, 4, 5, 6]
    assert [p.label for p in layer_roofline(profile)] == [
        "1:Conv2D", "2:Conv2D", "5:Conv2D"]
    (_, zero_latency, negative_zero, *_) = kernel_coordinates(profile)[2]
    assert (zero_latency, negative_zero) == (0.0, -0.0)


def test_profiles_are_frozen():
    from dataclasses import FrozenInstanceError

    layer = _layer((_kernel(),))
    profile = _model((layer,))
    with pytest.raises(FrozenInstanceError):
        layer.kernels = ()
    with pytest.raises(FrozenInstanceError):
        profile.layers = ()
    with pytest.raises(FrozenInstanceError):
        profile.model_latency_ms = 2.0


def test_aggregates_are_computed_once():
    profile = _model((_layer((_kernel(),)), _layer((_kernel(), _kernel()), 1)))
    assert profile.totals is profile.totals
    assert profile.kernels is profile.kernels
    assert profile.layers[1].totals is profile.layers[1].totals
    assert profile.totals.count == 3


def test_kernels_by_name_aggregates_same_named_launches():
    from repro.core.pipeline import kernels_by_name

    kernels = [
        _kernel("sgemm", 0, 0, latency_ms=1.0, flops=1e9, occupancy=0.4),
        _kernel("sgemm", 0, 1, latency_ms=3.0, flops=3e9, occupancy=0.8),
        _kernel("relu", 0, 2, latency_ms=0.5),
    ]
    groups = kernels_by_name(kernels)
    assert list(groups) == ["sgemm", "relu"]
    sgemm = groups["sgemm"]
    assert sgemm.count == 2
    assert sgemm.latency_ms == 4.0
    assert sgemm.flops == 4e9
    # Latency-weighted occupancy: (0.4*1 + 0.8*3) / 4.
    assert abs(sgemm.achieved_occupancy - 0.7) < 1e-12
    assert sgemm.layer_indices() == (0,)


def test_kernels_by_name_empty():
    from repro.core.pipeline import kernels_by_name

    assert kernels_by_name([]) == {}


# -- the kernel table ---------------------------------------------------------


def test_cold_point_builds_kernel_objects_only_for_the_printed_rows(
    monkeypatch, tmp_path
):
    """Profiling, storing and reporting a cold point reads and writes the
    kernel table by column: the only KernelProfile objects built are the
    top-N rows A8 prints."""
    from repro.analysis.report import full_report
    from repro.core import AnalysisPipeline, ProfileStore, XSPSession
    from repro.core.pipeline import KernelProfile
    from repro.models import get_model

    built = []
    init = KernelProfile.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["name"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(KernelProfile, "__init__", counted)
    pipeline = AnalysisPipeline(XSPSession("Tesla_V100", "mxnet_like"),
                                runs_per_level=2,
                                store=ProfileStore(tmp_path))
    profile = pipeline.profile_model(get_model(7).graph, 2)
    assert built == [] and len(profile.kernel_table) > 5
    text = full_report(profile, top_n=5)
    assert len(built) == 5
    assert all(name in text for name in built)


def test_kernel_table_is_contiguous_by_layer():
    from repro.core.pipeline import KernelTable

    layers = (_layer((_kernel("a"), _kernel("b", position=1))),
              _layer((), 1), _layer((_kernel("c", 2),), 2))
    profile = _model(layers)
    table = profile.kernel_table
    assert isinstance(table, KernelTable)
    assert table.starts == [0, 2, 2, 3]
    assert table.name == ["a", "b", "c"]
    assert [layer.kernel_rows for layer in profile.layers] == [
        range(0, 2), range(2, 2), range(2, 3)]
    assert all(layer.kernel_table is table for layer in profile.layers)
    assert [table.name[i] for i in profile.layers[0].kernel_rows] == ["a", "b"]
    assert profile.kernels == (*layers[0].kernels, *layers[2].kernels)
    assert table.row(2) == layers[2].kernels[0]


def test_profile_equality_is_by_content():
    """Profiles built different ways from equal data compare equal, and a
    single changed kernel value makes them differ."""
    import json
    from dataclasses import replace

    from repro.analysis.diff.sources import profile_from_document
    from repro.core.cache import profile_to_columns

    profile = _model((_layer((_kernel(), _kernel(position=1))),
                      _layer((_kernel("r", 1),), 1)))
    copy = profile_from_document(json.loads(json.dumps(
        profile_to_columns(profile))))
    assert copy == profile and copy.layers[1] == profile.layers[1]
    assert hash(copy.layers[0]) == hash(profile.layers[0])
    assert replace(profile, model_latency_ms=1.0) == profile
    faster = replace(profile, layers=(
        profile.layers[0],
        replace(profile.layers[1], kernels=(
            replace(profile.layers[1].kernels[0], latency_ms=0.5),)),
    ))
    assert faster != profile
    assert faster.layers[0] == profile.layers[0]
    assert faster.kernel_table is not profile.kernel_table
    assert faster.kernel_table.latency_ms == [1.0, 1.0, 0.5]


def test_leveled_runs_with_different_kernels_do_not_merge(monkeypatch):
    """Merge matches metric runs by (layer index, position); runs that
    launched different kernels are an error, not a silent mismatch."""
    import repro.core.pipeline as pipeline_mod
    from repro.core import AnalysisPipeline, LeveledExperiment, XSPSession
    from repro.models import get_model

    session = XSPSession("Tesla_V100")
    leveled = LeveledExperiment(session, runs_per_level=2).run(
        get_model(53).graph, 1)
    pipeline = AnalysisPipeline(session, runs_per_level=2)
    calls = []
    read = pipeline_mod._layer_table

    def drop_a_kernel(trace):
        layers = read(trace)
        calls.append(trace)
        if len(calls) == 4:  # the second metric run
            columns = list(layers.kernels.columns)
            columns[2] = [*columns[2][:-1], columns[2][-1] + 1]
            layers = pipeline_mod.LayerTable(layers.columns, pipeline_mod.KernelTable(
                columns, layers.kernels.starts))
        return layers

    monkeypatch.setattr(pipeline_mod, "_layer_table", drop_a_kernel)
    with pytest.raises(ValueError, match="disagree"):
        pipeline.merge(leveled)


@pytest.mark.parametrize("name", ["trimmed_mean", "mean", "median"])
def test_single_run_merge_equals_calling_the_statistic(cnn_graph, name):
    """With one run per level, merge maps the statistic's one-sample form
    over the columns; the profile equals, bit for bit, the one merged by
    calling the statistic per value (a wrapper has no one-sample form)."""
    import struct

    from repro.core import AnalysisPipeline, XSPSession, stats

    statistic = getattr(stats, name)
    calls = []

    def called(values):
        calls.append(len(values))
        return statistic(values)

    session = XSPSession("Tesla_V100")
    leveled = AnalysisPipeline(session, runs_per_level=1).experiment.run(
        cnn_graph, 4)
    mapped = AnalysisPipeline(session, runs_per_level=1,
                              statistic=statistic).merge(leveled)
    merged = AnalysisPipeline(session, runs_per_level=1,
                              statistic=called).merge(leveled)
    assert calls and set(calls) == {1}  # a user statistic is still called

    def bits(column):
        return [struct.pack("<d", value) for value in column]

    assert mapped == merged
    assert bits(mapped.layer_table.latency_ms) == bits(
        merged.layer_table.latency_ms)
    assert bits(mapped.kernel_table.latency_ms) == bits(
        merged.kernel_table.latency_ms)
