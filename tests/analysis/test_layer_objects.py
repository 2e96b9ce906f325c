"""The diff and the report read the layer table by column.

A profile loaded from the store or derived from a trace holds its layers
only as a ``LayerTable``; ``profile.layers`` builds one ``LayerProfile``
per row on first read.  ``diff_profiles`` must build none, and
``full_report`` only the top-N rows A2 and A11 print.
"""

from __future__ import annotations

import json
import re

import pytest
from output_digests import points, profile_of

from repro.analysis.diff import diff_profiles
from repro.analysis.report import full_report
from repro.core.cache import profile_from_columns, profile_to_columns
from repro.core.pipeline import LayerProfile, ModelProfile


def _loaded(profile: ModelProfile) -> ModelProfile:
    """``profile`` as the store reads it back: no layer objects yet."""
    loaded = profile_from_columns(
        json.loads(json.dumps(profile_to_columns(profile))))
    assert "layers" not in loaded.__dict__
    return loaded


@pytest.fixture
def built(monkeypatch) -> list[tuple[int, str]]:
    """The (index, name) of every ``LayerProfile`` built from here on."""
    built: list[tuple[int, str]] = []
    init = LayerProfile.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append((self.index, self.name))

    monkeypatch.setattr(LayerProfile, "__init__", counted)
    return built


@pytest.mark.parametrize("point", points()[:4], ids=lambda p: p.key)
def test_diff_builds_no_layer_objects(point, built):
    p, q = _loaded(profile_of(point)), _loaded(profile_of(point.other))
    for baseline, candidate in ((p, q), (q, p), (p, p), (q, q)):
        diff = diff_profiles(baseline, candidate)
        diff.to_json()
        diff.render()
    assert built == []
    assert "layers" not in p.__dict__ and "layers" not in q.__dict__


@pytest.mark.parametrize("top_n", [3, 5])
def test_report_builds_only_the_printed_top_rows(built, top_n):
    profile = _loaded(profile_of(points()[0]))
    text = full_report(profile, top_n=top_n)
    assert "layers" not in profile.__dict__
    assert len(built) == 2 * top_n
    a2 = next(s for s in text.split("\n\n") if s.startswith("A2 "))
    a11 = next(s for s in text.split("\n\n") if s.startswith("A11 "))
    assert all(name in a2 for _, name in built[:top_n])
    assert all(re.search(rf"^\s*{index}\s", a11, re.M)
               for index, _ in built[top_n:])
