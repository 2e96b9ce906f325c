"""The exact bytes of `repro trace` exports, pinned by sha256.

Each capture runs in a fresh interpreter, so span ids start from the
same counter value and the files are byte-for-byte reproducible.  A
change to how spans are captured, stored or exported that moves a single
byte of the v1 JSON or the Chrome trace fails here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


def _trace(tmp_path, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-m", "repro", "trace", "--model", "7",
         "--library-level", *args],
        cwd=tmp_path, env=env, check=True, capture_output=True,
    )


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("framework,files", [
    ("tensorflow_like", {
        "t.json": "ca0c922490da60d3ea169f0fe8a1a2b90dba1fad35b6728675ac2331930bff0c",
        "chrome.json": "79cd36871c185d685b98f5034da9a51036a993056c5e6d814099bb593910d1ea",
    }),
    ("mxnet_like", {
        "t.json": "31606bb869f7d3b42acac7d1bdbb1abea0c523a2153ac405802f318ddf4eecb4",
    }),
])
def test_trace_export_bytes_are_pinned(tmp_path, framework, files):
    chrome = ["--chrome", "chrome.json"] if "chrome.json" in files else []
    _trace(tmp_path, "--framework", framework, "--output", "t.json", *chrome)
    assert {name: _sha256(tmp_path / name) for name in files} == files
