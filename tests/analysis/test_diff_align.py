"""Layer/kernel alignment: the index/name/type tolerance ladder."""

from diff_factories import build_baseline, make_layer

from repro.analysis.diff.align import align_layers


def test_identical_sequences_match_fully_by_name():
    layers = build_baseline().layers
    alignment = align_layers(layers, layers)
    assert len(alignment.matched) == len(layers)
    assert alignment.removed == [] and alignment.added == []
    assert all(m.via == "name" for m in alignment.matched)
    for m in alignment.matched:
        assert m.baseline.name == m.candidate.name


def test_inserted_layer_is_added_others_still_match():
    base = build_baseline().layers
    cand = list(base)
    inserted = make_layer(99, "Dropout")
    cand.insert(2, inserted)
    alignment = align_layers(base, cand)
    assert len(alignment.matched) == len(base)
    assert alignment.added == [inserted]
    assert alignment.removed == []


def test_removed_layer_is_reported_not_force_matched():
    base = build_baseline().layers
    cand = base[:2] + base[3:]
    alignment = align_layers(base, cand)
    assert len(alignment.matched) == len(base) - 1
    assert [l.name for l in alignment.removed] == [base[2].name]
    assert alignment.added == []


def test_renamed_layer_matches_via_type():
    base = build_baseline().layers
    cand = list(base)
    cand[1] = make_layer(1, "BatchNorm", name="bn_renamed")
    alignment = align_layers(base, cand)
    assert len(alignment.matched) == len(base)
    vias = {m.baseline.name: m.via for m in alignment.matched}
    assert vias[base[1].name] == "type"
    assert all(v == "name" for name, v in vias.items() if name != base[1].name)


def test_retyped_layer_matches_via_index():
    base = build_baseline().layers
    cand = list(base)
    cand[2] = make_layer(2, "LeakyRelu", name="activation_v2")
    alignment = align_layers(base, cand)
    vias = {m.baseline.name: m.via for m in alignment.matched}
    assert vias[base[2].name] == "index"


def test_unrelated_replacement_reports_both_sides():
    base = [make_layer(0, "Conv2D"), make_layer(1, "Relu")]
    cand = [make_layer(0, "Conv2D"), make_layer(7, "Softmax", name="out")]
    alignment = align_layers(base, cand)
    assert len(alignment.matched) == 1
    assert [l.name for l in alignment.removed] == [base[1].name]
    assert [l.name for l in alignment.added] == ["out"]


def test_alignment_is_insert_shift_tolerant():
    """An early insert must not cascade mismatches down the sequence."""
    base = build_baseline().layers
    cand = [make_layer(50, "Input")] + list(base)
    alignment = align_layers(base, cand)
    assert len(alignment.matched) == len(base)
    assert all(m.via == "name" for m in alignment.matched)
