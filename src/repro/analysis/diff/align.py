"""Layer and kernel alignment between two profiles.

Two profiles of the *same* model usually have identical layer sequences,
but the comparisons XSP cares about break that: a different framework
names (and sometimes fuses) layers differently, a model revision inserts
or removes blocks, a cuDNN heuristic switch changes the kernel mix under
an unchanged layer.  Alignment therefore works like a sequence diff over
the two :class:`~repro.core.pipeline.LayerTable`\\ s' slots:

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
-named launches aggregate per side (the diff engine's kernel groups) so
algorithm switches that change launch counts still line up.
"""

from __future__ import annotations

from difflib import SequenceMatcher
from itertools import repeat, zip_longest

from repro.core.pipeline import LayerTable

#: One aligned pair: the baseline slot, the candidate slot (``None`` on
#: the side the layer is missing from) and the rung that paired them
#: (``"name"`` | ``"type"`` | ``"index"``; ``None`` unless matched).
Pair = tuple[int | None, int | None, str | None]


def align_layers(baseline: LayerTable, candidate: LayerTable) -> list[Pair]:
    """Pair the two tables' slots, tolerating inserts and renames: the
    matched pairs in sequence order, then the removed, then the added."""
    base = list(zip(baseline.name, baseline.layer_type))
    cand = list(zip(candidate.name, candidate.layer_type))
    matched: list[Pair] = []
    removed: list[Pair] = []
    added: list[Pair] = []
    for op, b_lo, b_hi, c_lo, c_hi in SequenceMatcher(
            a=base, b=cand, autojunk=False).get_opcodes():
        if op == "equal":
            matched.extend(zip(range(b_lo, b_hi), range(c_lo, c_hi),
                               repeat("name")))
        elif op == "delete":
            removed.extend((b, None, None) for b in range(b_lo, b_hi))
        elif op == "insert":
            added.extend((None, c, None) for c in range(c_lo, c_hi))
        else:  # replace: pair positionally via the name/type/index ladder
            for b, c in zip_longest(range(b_lo, b_hi), range(c_lo, c_hi)):
                if b is None or c is None:
                    via = None
                elif base[b][0] == cand[c][0]:
                    via = "name"
                elif base[b][1] == cand[c][1]:
                    via = "type"
                elif baseline.index[b] == candidate.index[c]:
                    via = "index"
                else:
                    via = None
                if via is not None:
                    matched.append((b, c, via))
                    continue
                if b is not None:
                    removed.append((b, None, None))
                if c is not None:
                    added.append((None, c, None))
    return matched + removed + added
