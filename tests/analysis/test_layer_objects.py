"""The diff, the report, A13, A14 and the v1 profile JSON read the
layer table by column.

A profile loaded from the store or derived from a trace holds its layers
only as a ``LayerTable``; ``profile.layers`` builds one ``LayerProfile``
per row on first read.  ``diff_profiles``, A13's table, A14's points and
classes and the v1 writer and reader must build none (and the v1 JSON
no ``KernelProfile``), and ``full_report`` only the top-N rows A2 and
A11 print.
"""

from __future__ import annotations

import json
import re

import pytest
from output_digests import points, profile_of

from repro.analysis import (bound_by_layer_type, gpu_vs_nongpu_table,
                            layer_roofline)
from repro.analysis.diff import diff_profiles
from repro.analysis.report import full_report
from repro.core.cache import (profile_from_columns, profile_from_dict,
                              profile_to_columns, profile_to_dict)
from repro.core.pipeline import KernelProfile, LayerProfile, ModelProfile


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


@pytest.fixture
def built_kernels(monkeypatch) -> list[str]:
    """The name of every ``KernelProfile`` built from here on."""
    built: list[str] = []
    init = KernelProfile.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.name)

    monkeypatch.setattr(KernelProfile, "__init__", counted)
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


@pytest.mark.parametrize("reader", [gpu_vs_nongpu_table, layer_roofline,
                                    bound_by_layer_type],
                         ids=lambda reader: reader.__name__)
def test_layer_analyses_build_no_layer_objects(reader, built):
    profile = _loaded(profile_of(points()[0]))
    assert reader(profile)
    assert built == []
    assert "layers" not in profile.__dict__


def test_v1_writer_builds_no_layer_or_kernel_objects(built, built_kernels):
    profile = _loaded(profile_of(points()[0]))
    document = profile_to_dict(profile)
    assert built == [] and built_kernels == []
    assert "layers" not in profile.__dict__
    assert [len(layer["kernels"]) for layer in document["layers"]] == [
        hi - lo for lo, hi in zip(profile.kernel_table.starts,
                                  profile.kernel_table.starts[1:])]


def test_v1_reader_builds_no_layer_or_kernel_objects(built, built_kernels):
    profile = _loaded(profile_of(points()[0]))
    document = json.loads(json.dumps(profile_to_dict(profile)))
    built.clear()
    built_kernels.clear()
    restored = profile_from_dict(document)
    assert built == [] and built_kernels == []
    assert "layers" not in restored.__dict__
    assert restored == profile
