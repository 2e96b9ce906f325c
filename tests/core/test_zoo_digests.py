"""Byte-identity gate: every zoo point's merged profile matches the
digest recorded in ``data/zoo_profile_digests.json``."""

from __future__ import annotations

import json

import pytest

from zoo_digests import DIGEST_FILE, points, profile_digest

EXPECTED = json.loads(DIGEST_FILE.read_text())


def test_digest_file_covers_every_point():
    assert sorted(EXPECTED) == sorted(point.key for point in points())


@pytest.mark.parametrize("point", points(), ids=lambda point: point.key)
def test_profile_digest_unchanged(point):
    assert profile_digest(point) == EXPECTED[point.key]
