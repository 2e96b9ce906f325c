"""Layer alignment over table slots: the name/type/index tolerance ladder,
and the slot alignment equals the object alignment it replaced
(``diff_oracle.align_layers``) on seeded random sequences."""

import random

import diff_oracle
import pytest
from diff_factories import build_baseline, make_layer, make_profile

from repro.analysis.diff.align import align_layers


def _align(base, cand):
    """``align_layers`` of two layer lists, as slot triples."""
    return align_layers(make_profile(list(base)).layer_table,
                        make_profile(list(cand)).layer_table)


def test_identical_sequences_match_fully_by_name():
    layers = build_baseline().layers
    assert _align(layers, layers) == [(i, i, "name") for i in range(5)]


def test_inserted_layer_is_added_others_still_match():
    base = build_baseline().layers
    cand = list(base)
    cand.insert(2, make_layer(99, "Dropout"))
    assert _align(base, cand) == [
        (0, 0, "name"), (1, 1, "name"), (2, 3, "name"), (3, 4, "name"),
        (4, 5, "name"), (None, 2, None)]


def test_removed_layer_is_reported_not_force_matched():
    base = build_baseline().layers
    cand = base[:2] + base[3:]
    assert _align(base, cand) == [
        (0, 0, "name"), (1, 1, "name"), (3, 2, "name"), (4, 3, "name"),
        (2, None, None)]


def test_renamed_layer_matches_via_type():
    base = build_baseline().layers
    cand = list(base)
    cand[1] = make_layer(1, "BatchNorm", name="bn_renamed")
    pairs = _align(base, cand)
    assert sorted(pairs) == [(i, i, "type" if i == 1 else "name")
                             for i in range(5)]


def test_retyped_layer_matches_via_index():
    base = build_baseline().layers
    cand = list(base)
    cand[2] = make_layer(2, "LeakyRelu", name="activation_v2")
    assert (2, 2, "index") in _align(base, cand)


def test_unrelated_replacement_reports_both_sides():
    base = [make_layer(0, "Conv2D"), make_layer(1, "Relu")]
    cand = [make_layer(0, "Conv2D"), make_layer(7, "Softmax", name="out")]
    assert _align(base, cand) == [(0, 0, "name"), (1, None, None),
                                  (None, 1, None)]


def test_alignment_is_insert_shift_tolerant():
    """An early insert must not cascade mismatches down the sequence."""
    base = build_baseline().layers
    cand = [make_layer(50, "Input")] + list(base)
    assert _align(base, cand) == [
        *((i, i + 1, "name") for i in range(5)), (None, 0, None)]


def test_empty_sides():
    layers = build_baseline().layers
    assert _align([], []) == []
    assert _align(layers, []) == [(i, None, None) for i in range(5)]
    assert _align([], layers) == [(None, i, None) for i in range(5)]


# -- the slot alignment equals the object alignment ---------------------------

NAMES = ("conv", "bn", "relu", "add", "pool", "fc")
TYPES = ("Conv2D", "BatchNorm", "Relu", "Add")


def _random_layers(rng: random.Random) -> list:
    """Layers drawn from small name/type/index alphabets, so equal
    signatures repeat and every rung of the ladder can fire."""
    return [
        make_layer(rng.randrange(8), rng.choice(TYPES),
                   name=rng.choice(NAMES), kernels=[])
        for _ in range(rng.choice((0, 1, 2, 3, 6, 12, 30)))
    ]


def _perturbed(rng: random.Random, layers: list) -> list:
    """``layers`` with inserts, deletes, renames, retypes and reindexes."""
    out = []
    for layer in layers:
        roll = rng.random()
        if roll < 0.1:
            continue  # deleted
        if roll < 0.2:  # renamed: the type rung
            layer = make_layer(layer.index, layer.layer_type,
                               name=rng.choice(NAMES) + "_v2", kernels=[])
        elif roll < 0.3:  # renamed and retyped: the index rung
            layer = make_layer(layer.index, "Retyped",
                               name=rng.choice(NAMES) + "_v3", kernels=[])
        elif roll < 0.35:  # nothing in common with the baseline layer
            layer = make_layer(100 + layer.index, "Other", name="other",
                               kernels=[])
        out.append(layer)
        if rng.random() < 0.1:
            out.append(make_layer(rng.randrange(8), rng.choice(TYPES),
                                  name=rng.choice(NAMES), kernels=[]))
    if rng.random() < 0.1:
        rng.shuffle(out)
    return out


def _random_sides(seed: int) -> tuple[list, list]:
    rng = random.Random(seed)
    base = _random_layers(rng)
    roll = rng.random()
    if roll < 0.15:
        return base, list(base)  # identical
    if roll < 0.25:
        return base, _random_layers(rng)  # unrelated
    return base, _perturbed(rng, base)


def _oracle(base_profile, cand_profile) -> list:
    """The object alignment's pairs as slot triples."""
    alignment = diff_oracle.align_layers(base_profile.layers,
                                         cand_profile.layers)
    return [
        *((m.baseline.slot, m.candidate.slot, m.via)
          for m in alignment.matched),
        *((layer.slot, None, None) for layer in alignment.removed),
        *((None, layer.slot, None) for layer in alignment.added),
    ]


@pytest.mark.parametrize("seed", range(300))
def test_slot_alignment_matches_the_object_oracle(seed):
    base, cand = _random_sides(seed)
    p, q = make_profile(base), make_profile(cand)
    for a, b in ((p, q), (q, p), (p, p)):
        assert align_layers(a.layer_table, b.layer_table) == _oracle(a, b)


def test_random_sides_cover_the_ladder():
    """The corpus has every rung, both one-sided statuses, empty sides and
    identical sequences."""
    vias, removed, added, empty, identical = set(), 0, 0, 0, 0
    for seed in range(300):
        base, cand = _random_sides(seed)
        pairs = _align(base, cand)
        vias.update(via for _, _, via in pairs if via is not None)
        removed += any(c is None for _, c, _ in pairs)
        added += any(b is None for b, _, _ in pairs)
        empty += not base or not cand
        identical += bool(base) and base == cand
    assert vias == {"name", "type", "index"}
    assert removed and added and empty and identical
