"""The column diff engine equals the object-per-number engine byte for byte.

``diff_profiles`` computes a diff as one table and writes its JSON from
templates; ``diff_oracle`` is the engine it replaced, one ``Delta`` per
compared number and one ``to_dict`` tree passed to ``json.dumps``.  The
two must agree on the JSON document, at every severity cutoff, and on
the rendered text, for:

* the ``diff_factories`` shapes the engine tests use;
* seeded random pairs with added, removed, renamed and retyped layers,
  kernel-mix churn, repeated kernel names, empty layers and one-kernel
  layers whose latency, flops or occupancy is ``-0.0``;
* the zoo points of ``output_digests.py``, each diffed both ways and
  against itself;
* the cases where a template could drift from what ``json.dumps``
  writes: zero and signed-zero baselines, non-finite metrics, ints where
  floats are usual, and names that need escaping.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import replace

import diff_oracle
import pytest
from diff_factories import (
    build_baseline,
    make_kernel,
    make_layer,
    make_profile,
    scaled,
    with_kernels,
)
from output_digests import points, profile_of

from repro.analysis.diff import diff_profiles
from repro.cli import main
from repro.core.cache import profile_to_dict
from repro.core.pipeline import LayerProfile, ModelProfile

SEVERITIES = (0.0, 0.3, 0.99)


def _same(x: float, y: float) -> bool:
    """Equal as printed: bit for bit, NaN included."""
    return repr(x) == repr(y) and type(x) is type(y)


def _assert_matches_oracle(baseline: ModelProfile,
                           candidate: ModelProfile) -> None:
    diff = diff_profiles(baseline, candidate)
    oracle = diff_oracle.diff_profiles(baseline, candidate)
    for severity in SEVERITIES:
        text = diff.to_json(min_severity=severity)
        assert text == json.dumps(oracle.to_dict(min_severity=severity),
                                  check_circular=False)
        assert diff.render(min_severity=severity) == oracle.render(
            min_severity=severity)
    assert diff.render(max_layers=3) == oracle.render(max_layers=3)
    # The row views read what the oracle's objects held.
    assert len(diff.layers) == len(oracle.layers)
    for view, layer in zip(diff.layers, oracle.layers):
        assert (view.name, view.layer_type, view.status, view.via,
                view.baseline_index, view.candidate_index) == (
            layer.name, layer.layer_type, layer.status, layer.via,
            layer.baseline_index, layer.candidate_index)
        for metric in ("latency_ms", "flops", "dram_bytes", "occupancy",
                       "alloc_bytes"):
            new, old = getattr(view, metric), getattr(layer, metric)
            assert _same(new.baseline, old.baseline)
            assert _same(new.candidate, old.candidate)
        assert [(k.name, k.status) for k in view.kernels] == [
            (k.name, k.status) for k in layer.kernels]
        for new, old in zip(view.kernels, layer.kernels):
            for metric in ("count", "latency_ms", "flops", "dram_bytes",
                           "occupancy"):
                assert _same(getattr(new, metric).baseline,
                             getattr(old, metric).baseline)
                assert _same(getattr(new, metric).candidate,
                             getattr(old, metric).candidate)
    for status in ("matched", "added", "removed"):
        assert [l.name for l in diff.layers_with_status(status)] == [
            l.name for l in oracle.layers_with_status(status)]


# -- the engine tests' factories ----------------------------------------------


def _factory_pairs() -> list[tuple[str, ModelProfile, ModelProfile]]:
    base = build_baseline()
    layers = list(base.layers)
    dropped = make_profile([*layers[:1], *layers[2:],
                            make_layer(9, "Softmax")])
    slow_layer = list(layers)
    slow_layer[3] = replace(slow_layer[3],
                            latency_ms=slow_layer[3].latency_ms * 3)
    swapped = replace(base, layers=tuple(
        replace(layer, kernels=(
            make_kernel("volta_sgemm_128x64_nn", layer.index,
                        latency_ms=sum(k.latency_ms for k in layer.kernels)),
        ))
        for layer in base.layers
    ))
    return [
        ("self", base, base),
        ("slower", base, scaled(base, 1.3)),
        ("faster", base, scaled(base, 0.5)),
        ("one-layer-regression", base, make_profile(slow_layer)),
        ("new-hotspot", base, with_kernels(base, 4, [
            make_kernel("wgrad_winograd_surprise", 4, latency_ms=4.0)])),
        ("kernel-swap", base, with_kernels(base, 0, [
            make_kernel("volta_scudnn_winograd_128x128", 0, latency_ms=2.0)])),
        ("mix-shift", base, swapped),
        ("added-removed", base, dropped),
        ("new-kernel", base, with_kernels(scaled(base, 1.8), 0, [
            make_kernel("brand_new_kernel", 0, latency_ms=5.0)])),
        ("zero-latency-baseline",
         make_profile([make_layer(0, "Conv2D")], model_latency_ms=0.0),
         make_profile([make_layer(0, "Conv2D")], model_latency_ms=5.0)),
        ("zero-latency-self",
         make_profile([make_layer(0, "Conv2D")], model_latency_ms=0.0),
         make_profile([make_layer(0, "Conv2D")], model_latency_ms=0.0)),
    ]


@pytest.mark.parametrize(
    "baseline,candidate",
    [pair[1:] for pair in _factory_pairs()],
    ids=[pair[0] for pair in _factory_pairs()],
)
def test_factory_pairs_match_oracle(baseline, candidate):
    _assert_matches_oracle(baseline, candidate)
    _assert_matches_oracle(candidate, baseline)


# -- seeded random pairs ------------------------------------------------------

KERNEL_NAMES = (
    "volta_sgemm_128x64_nn", "volta_scudnn_128x64_relu", "Eigen::ReluKernel",
    "cudnn::winograd_nonfused", 'kernel "quoted"', "ядро_свёртки",
    "back\\slash\ttab", "élève☃",
)
LAYER_TYPES = ("Conv2D", "Relu", "BatchNorm", "Dense", "Pool", "Add")


def _value(rng: random.Random, pool: list[float]) -> float:
    """A metric value: often a repeat (as profiled models repeat), often
    zero or negative zero, sometimes an int."""
    roll = rng.random()
    if roll < 0.35 and pool:
        return rng.choice(pool)
    if roll < 0.45:
        return rng.choice((0.0, -0.0, 0))
    if roll < 0.5:
        return rng.randrange(1, 1000)
    value = rng.uniform(0, 10) * 10 ** rng.randrange(-3, 10)
    pool.append(value)
    return value


def _random_kernels(rng, index, pool, names=KERNEL_NAMES):
    return [
        make_kernel(rng.choice(names), index, position,
                    latency_ms=_value(rng, pool), flops=_value(rng, pool),
                    dram_read=_value(rng, pool), dram_write=_value(rng, pool),
                    occupancy=rng.choice((0.0, 0.25, 0.5, rng.random())))
        for position in range(rng.choice((0, 1, 1, 1, 2, 2, 3, 5)))
    ]


def _random_layer(rng, index, pool, *, name=None, layer_type=None):
    layer_type = layer_type or rng.choice(LAYER_TYPES)
    kernels = _random_kernels(rng, index, pool)
    return make_layer(
        index, layer_type,
        name=name if name is not None else f"block{index % 7}/{layer_type}",
        latency_ms=(None if rng.random() < 0.5 and kernels
                    else _value(rng, pool)),
        alloc_bytes=rng.choice((0, 1 << 12, 1 << 20, rng.randrange(1 << 30))),
        kernels=kernels,
    )


def _perturbed(rng, baseline: ModelProfile, pool) -> ModelProfile:
    """The baseline with structural and numeric churn."""
    layers: list[LayerProfile] = []
    for layer in baseline.layers:
        roll = rng.random()
        if roll < 0.08:
            continue  # removed
        if roll < 0.14:
            layer = replace(layer, name=f"renamed_{layer.index}")
        elif roll < 0.2:
            layer = replace(layer, layer_type="Retyped")
        elif roll < 0.26:
            layer = replace(layer, kernels=())  # empty
        elif roll < 0.4:  # kernel-mix churn: renames, repeats, new kernels
            kernels = [
                replace(k, name=rng.choice(KERNEL_NAMES))
                if rng.random() < 0.4 else k
                for k in layer.kernels
            ] + _random_kernels(rng, layer.index, pool)
            layer = replace(layer, kernels=tuple(kernels))
        factor = rng.choice((1.0, 1.0, 0.5, 1.25, rng.uniform(0.1, 3)))
        if factor != 1.0:
            layer = replace(layer, latency_ms=layer.latency_ms * factor,
                            kernels=tuple(
                                replace(k, latency_ms=k.latency_ms * factor)
                                for k in layer.kernels))
        layers.append(layer)
        if rng.random() < 0.06:  # inserted
            layers.append(_random_layer(rng, 1000 + layer.index, pool))
    if rng.random() < 0.2:
        rng.shuffle(layers)
    return make_profile(layers, framework="mxnet_like",
                        model_latency_ms=rng.choice(
                            (None, baseline.model_latency_ms,
                             _value(rng, pool) + 1.0)))


def _random_pair(seed: int) -> tuple[ModelProfile, ModelProfile]:
    rng = random.Random(seed)
    pool: list[float] = []
    n = rng.choice((0, 1, 2, 5, 12, 40))
    baseline = make_profile(
        [_random_layer(rng, i, pool) for i in range(n)],
        model_latency_ms=rng.choice((None, _value(rng, pool) + 1.0)),
    )
    return baseline, _perturbed(rng, baseline, pool)


def _signed_zero_layer(rng, index, pool):
    """A layer of one kernel with ``-0.0`` in one of the fields a group
    folds."""
    values = {"latency_ms": _value(rng, pool), "flops": _value(rng, pool),
              "occupancy": rng.random()}
    values[rng.choice(list(values))] = -0.0
    layer_type = rng.choice(LAYER_TYPES)
    return make_layer(
        index, layer_type, name=f"block{index % 7}/{layer_type}",
        latency_ms=None if rng.random() < 0.5 else _value(rng, pool),
        kernels=[make_kernel(rng.choice(KERNEL_NAMES), index, **values)],
    )


def _signed_zero_pair(seed: int) -> tuple[ModelProfile, ModelProfile]:
    """Random layers mixed with signed-zero one-kernel layers, then the
    usual churn.  Its own random stream leaves ``_random_pair``'s draws
    as they were."""
    rng = random.Random(f"signed-zero/{seed}")
    pool: list[float] = []
    baseline = make_profile([
        _signed_zero_layer(rng, i, pool) if rng.random() < 0.6
        else _random_layer(rng, i, pool)
        for i in range(rng.choice((1, 2, 5, 12)))
    ])
    return baseline, _perturbed(rng, baseline, pool)


@pytest.mark.parametrize("seed", range(220))
def test_random_pairs_match_oracle(seed):
    baseline, candidate = _random_pair(seed)
    _assert_matches_oracle(baseline, candidate)
    if seed % 4 == 0:
        _assert_matches_oracle(candidate, baseline)
        _assert_matches_oracle(candidate, candidate)


@pytest.mark.parametrize("seed", range(60))
def test_signed_zero_one_kernel_pairs_match_oracle(seed):
    baseline, candidate = _signed_zero_pair(seed)
    _assert_matches_oracle(baseline, candidate)
    _assert_matches_oracle(candidate, baseline)
    _assert_matches_oracle(candidate, candidate)


def test_random_corpus_covers_the_shapes():
    """The corpus has what it claims: every layer status, empty layers,
    repeated kernel names within a layer, and signed zeros."""
    statuses, empty, repeated, negative_zero = set(), 0, 0, 0
    for seed in range(220):
        baseline, candidate = _random_pair(seed)
        diff = diff_profiles(baseline, candidate)
        statuses.update(layer.status for layer in diff.layers)
        for layer in (*baseline.layers, *candidate.layers):
            empty += not layer.kernels
            names = [k.name for k in layer.kernels]
            repeated += len(names) != len(set(names))
            negative_zero += any(
                math.copysign(1.0, k.latency_ms) < 0 for k in layer.kernels)
    assert statuses == {"matched", "added", "removed"}
    assert empty and repeated and negative_zero


def test_signed_zero_corpus_covers_each_folded_field():
    """Matched one-kernel layers carry a ``-0.0`` in each folded field."""
    fields = set()
    for seed in range(60):
        baseline, candidate = _signed_zero_pair(seed)
        by_index = [{layer.index: layer for layer in profile.layers}
                    for profile in (baseline, candidate)]
        for layer in diff_profiles(baseline, candidate).layers:
            if layer.status != "matched":
                continue
            for layers, index in zip(by_index, (layer.baseline_index,
                                                layer.candidate_index)):
                kernels = layers[index].kernels
                if len(kernels) == 1:
                    fields.update(
                        field for field in ("latency_ms", "flops",
                                            "achieved_occupancy")
                        if math.copysign(1.0, getattr(kernels[0], field)) < 0)
    assert fields == {"latency_ms", "flops", "achieved_occupancy"}


# -- zoo points ---------------------------------------------------------------


@pytest.mark.parametrize("point", points()[::2], ids=lambda p: p.key)
def test_zoo_points_match_oracle(point):
    p, q = profile_of(point), profile_of(point.other)
    _assert_matches_oracle(p, q)
    _assert_matches_oracle(p, p)
    _assert_matches_oracle(q, p)
    _assert_matches_oracle(q, q)


# -- where a template could drift from json.dumps -----------------------------


def _one_layer(kernels, *, latency_ms=1.0, name="conv", alloc_bytes=1 << 20,
               model_latency_ms=2.0, **fields) -> ModelProfile:
    layer = make_layer(0, "Conv2D", name=name, latency_ms=latency_ms,
                       alloc_bytes=alloc_bytes, kernels=kernels)
    return make_profile([layer], model_latency_ms=model_latency_ms, **fields)


def test_zero_baselines_print_null_and_zero_pairs_print_one():
    base = _one_layer([make_kernel("k", 0, latency_ms=0.0, flops=0.0)],
                      latency_ms=0.0, alloc_bytes=0)
    cand = _one_layer([make_kernel("k", 0, latency_ms=2.0, flops=0.0)],
                      latency_ms=3.0, alloc_bytes=0)
    _assert_matches_oracle(base, cand)
    layer = diff_profiles(base, cand).to_dict()["layers"][0]
    assert layer["latency_ms"]["ratio"] is None
    assert layer["alloc_bytes"]["ratio"] == 1.0
    kernel = layer["kernels"][0]
    assert kernel["latency_ms"]["ratio"] is None
    assert kernel["flops"]["ratio"] == 1.0
    # A zero-latency group has no weighted occupancy.
    assert kernel["occupancy"]["baseline"] == 0.0


def test_signed_zeros_print_as_json_dumps_prints_them():
    base = _one_layer([make_kernel("k", 0, latency_ms=-0.0, flops=-0.0,
                                   dram_read=-0.0, dram_write=0.0)],
                      latency_ms=-0.0)
    cand = _one_layer([make_kernel("k", 0, latency_ms=0.0, flops=-0.0,
                                   dram_read=0.0, dram_write=-0.0)],
                      latency_ms=0.0)
    _assert_matches_oracle(base, cand)
    assert '"baseline": -0.0' in diff_profiles(base, cand).to_json()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_metrics_print_as_json_dumps_prints_them(value):
    kernels = [make_kernel("k", 0, flops=value, dram_read=value,
                           occupancy=value),
               make_kernel("k", 0, 1, latency_ms=2.0)]
    base = _one_layer(kernels, latency_ms=value, alloc_bytes=value)
    cand = _one_layer([make_kernel("k", 0, flops=1.0)], latency_ms=1.0)
    for pair in ((base, cand), (cand, base), (base, base)):
        _assert_matches_oracle(*pair)
    text = diff_profiles(base, base).to_json()
    token = json.dumps(value)
    assert f'"baseline": {token}' in text
    # inf - inf and nan - nan are NaN; their ratio has no finite value.
    assert '"delta": NaN, "ratio": null' in text


def test_names_that_need_escaping():
    names = ['conv "1"', "ядро", "tab\there", "back\\slash", "☃\U0001f600"]
    kernels = [make_kernel(name, 0, position)
               for position, name in enumerate(names)]
    base = _one_layer(kernels, name='layer "ü"/\\n')
    cand = _one_layer(kernels[::-1], name='layer "ü"/\\n')
    _assert_matches_oracle(base, cand)
    assert json.loads(diff_profiles(base, cand).to_json())["layers"][0][
        "name"] == 'layer "ü"/\\n'


def test_int_metrics_print_as_floats_where_the_oracle_converts_them():
    base = _one_layer([make_kernel("k", 0, latency_ms=2, flops=3,
                                   dram_read=4, dram_write=5)], latency_ms=7)
    cand = scaled(base, 2)
    _assert_matches_oracle(base, cand)
    kernel = diff_profiles(base, cand).to_json()
    assert '"count": {"baseline": 1, "candidate": 1, "delta": 0, ' in kernel


def test_profiles_with_no_layers():
    empty = make_profile([], model_latency_ms=1.0)
    full = build_baseline()
    for pair in ((empty, empty), (empty, full), (full, empty)):
        _assert_matches_oracle(*pair)
    assert diff_profiles(empty, empty).to_dict()["layers"] == []


def test_cli_prints_the_oracle_document_and_text(tmp_path, capsys):
    baseline, candidate = _random_pair(7)
    paths = []
    for side, profile in (("a", baseline), ("b", candidate)):
        path = tmp_path / f"{side}.json"
        path.write_text(json.dumps(profile_to_dict(profile)))
        paths.append(str(path))
    oracle = diff_oracle.diff_profiles(baseline, candidate)
    assert main(["diff", *paths, "--json", "--min-severity", "0.3"]) == 0
    assert capsys.readouterr().out == json.dumps(
        oracle.to_dict(min_severity=0.3), check_circular=False) + "\n"
    assert main(["diff", *paths]) == 0
    assert capsys.readouterr().out == oracle.render() + "\n"
