"""Layer and kernel alignment between two profiles.

Two profiles of the *same* model usually have identical layer sequences,
but the comparisons XSP cares about break that: a different framework
names (and sometimes fuses) layers differently, a model revision inserts
or removes blocks, a cuDNN heuristic switch changes the kernel mix under
an unchanged layer.  Alignment therefore works like a sequence diff:

1. layers are compared as a (name, type) sequence with
   :class:`difflib.SequenceMatcher`; ``equal`` runs pair directly
   (``via="name"``),
2. inside a replaced run, layers are paired positionally and accepted
   when the *name* matches (reordered), else the *type* matches
   (renamed layer), else the original *index* matches (retyped layer) —
   the index/name/type tolerance ladder,
3. anything left is reported as ``removed`` (baseline-only) or
   ``added`` (candidate-only) rather than force-matched.

Kernels are matched *within* an aligned layer pair by kernel name; same
-named launches aggregate per side
(:func:`~repro.core.pipeline.kernels_by_name`) so algorithm switches that
change launch counts still line up.
"""

from __future__ import annotations

from dataclasses import dataclass
from difflib import SequenceMatcher

from repro.core.pipeline import LayerProfile


@dataclass(frozen=True)
class LayerMatch:
    """One baseline layer paired with one candidate layer."""

    baseline: LayerProfile
    candidate: LayerProfile
    via: str  #: "name" | "type" | "index"


@dataclass
class LayerAlignment:
    """The full pairing of two layer sequences."""

    matched: list[LayerMatch]
    removed: list[LayerProfile]  #: baseline-only
    added: list[LayerProfile]  #: candidate-only

    @property
    def n_layers(self) -> int:
        return len(self.matched) + len(self.removed) + len(self.added)


def _signature(layer: LayerProfile) -> tuple[str, str]:
    return (layer.name, layer.layer_type)


def _pair_replaced(
    base: list[LayerProfile],
    cand: list[LayerProfile],
    alignment: LayerAlignment,
) -> None:
    """Pair a replaced run positionally via the name/type/index ladder."""
    for offset in range(max(len(base), len(cand))):
        if offset >= len(base):
            alignment.added.append(cand[offset])
            continue
        if offset >= len(cand):
            alignment.removed.append(base[offset])
            continue
        b, c = base[offset], cand[offset]
        if b.name == c.name:
            via = "name"
        elif b.layer_type == c.layer_type:
            via = "type"
        elif b.index == c.index:
            via = "index"
        else:
            alignment.removed.append(b)
            alignment.added.append(c)
            continue
        alignment.matched.append(LayerMatch(b, c, via))


def align_layers(
    baseline: list[LayerProfile], candidate: list[LayerProfile]
) -> LayerAlignment:
    """Pair the two layer sequences, tolerating inserts and renames."""
    alignment = LayerAlignment(matched=[], removed=[], added=[])
    matcher = SequenceMatcher(
        a=[_signature(l) for l in baseline],
        b=[_signature(l) for l in candidate],
        autojunk=False,
    )
    for op, b_lo, b_hi, c_lo, c_hi in matcher.get_opcodes():
        if op == "equal":
            alignment.matched.extend(
                LayerMatch(b, c, "name")
                for b, c in zip(baseline[b_lo:b_hi], candidate[c_lo:c_hi])
            )
        elif op == "replace":
            _pair_replaced(
                baseline[b_lo:b_hi], candidate[c_lo:c_hi], alignment
            )
        elif op == "delete":
            alignment.removed.extend(baseline[b_lo:b_hi])
        else:  # insert
            alignment.added.extend(candidate[c_lo:c_hi])
    return alignment
