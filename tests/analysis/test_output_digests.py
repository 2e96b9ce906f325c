"""Byte-identity gate: the report, diff and insight outputs of every
point match the digests recorded in ``data/zoo_output_digests.json``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from output_digests import DIGEST_FILE, points

import repro

EXPECTED = json.loads(DIGEST_FILE.read_text())


@pytest.fixture(scope="module")
def digests() -> dict[str, dict[str, str]]:
    """Every point's digests, from one run of the script in a fresh
    interpreter."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("output_digests.py")),
         "--print"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def test_digest_file_covers_every_point():
    assert sorted(EXPECTED) == sorted(point.key for point in points())


@pytest.mark.parametrize("point", points(), ids=lambda point: point.key)
def test_output_digests_unchanged(point, digests):
    assert digests[point.key] == EXPECTED[point.key]
