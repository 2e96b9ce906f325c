"""The exact bytes of `repro trace` exports, pinned by sha256.

Each capture runs in a fresh interpreter, so span ids start from the
same counter value and the files are byte-for-byte reproducible.  A
change to how spans are captured, stored or exported that moves a single
byte of the trace file or the Chrome trace fails here.

The trace file format moved from v1 (one JSON object per span) to v2
(one JSON list per column), and then to v3 (packed integer columns and
one tag-value pool).  ``tests/tracing/data`` holds the ``repro trace
--model 7 --library-level --output`` files written before each move: the
v1 file, and the v2 files of both frameworks.  Each must still load to
the Chrome trace of a fresh capture, and re-save to exactly the bytes a
fresh capture writes.
"""

import gzip
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.tracing.export import trace_from_json, trace_to_chrome, trace_to_json

SRC = Path(__file__).resolve().parents[2] / "src"
DATA = Path(__file__).resolve().parents[1] / "tracing" / "data"
V1_FIXTURE = DATA / "model7_library_level_v1.json.gz"
V1_SHA256 = "ca0c922490da60d3ea169f0fe8a1a2b90dba1fad35b6728675ac2331930bff0c"
#: The v2 files' sha256s: what a fresh capture wrote while v2 was current.
V2_SHA256 = {
    "tensorflow_like":
        "8b0a87481b356f004b68452d9bc61dcf07926033244cdcac88f8816ab92d8ea3",
    "mxnet_like":
        "0dc0700f8059c05ba2a21856c3658c702cf7a947c5db94d1fe55676a280e6a2f",
}
CHROME_SHA256 = (
    "79cd36871c185d685b98f5034da9a51036a993056c5e6d814099bb593910d1ea"
)


def _trace(tmp_path, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-m", "repro", "trace", "--model", "7",
         "--library-level", *args],
        cwd=tmp_path, env=env, check=True, capture_output=True,
    )


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("framework,files", [
    ("tensorflow_like", {
        "t.json": "334866091c9aa6e2b22514d5d465e2d8ee203d39a5421fadc5a5b5a9cc7e98c7",
        "chrome.json": CHROME_SHA256,
    }),
    ("mxnet_like", {
        "t.json": "6bcdbcd968656755819a74d51622f4e31e213152f7f532c004bc9576b84d67c2",
    }),
])
def test_trace_export_bytes_are_pinned(tmp_path, framework, files):
    chrome = ["--chrome", "chrome.json"] if "chrome.json" in files else []
    _trace(tmp_path, "--framework", framework, "--output", "t.json", *chrome)
    assert {
        name: _sha256((tmp_path / name).read_bytes()) for name in files
    } == files


def test_v1_capture_migrates_to_the_bytes_of_a_fresh_capture(tmp_path):
    v1 = gzip.decompress(V1_FIXTURE.read_bytes())
    assert _sha256(v1) == V1_SHA256
    trace = trace_from_json(v1.decode())
    assert _sha256(trace_to_chrome(trace).encode()) == CHROME_SHA256
    _trace(tmp_path, "--output", "t.json")
    assert trace_to_json(trace) == (tmp_path / "t.json").read_text()


@pytest.mark.parametrize("framework", sorted(V2_SHA256))
def test_v2_capture_migrates_to_the_bytes_of_a_fresh_capture(tmp_path,
                                                             framework):
    v2 = gzip.decompress(
        (DATA / f"model7_library_level_v2_{framework}.json.gz").read_bytes())
    assert _sha256(v2) == V2_SHA256[framework]
    trace = trace_from_json(v2.decode())
    _trace(tmp_path, "--framework", framework, "--output", "t.json",
           "--chrome", "chrome.json")
    chrome = trace_to_chrome(trace)
    assert chrome == (tmp_path / "chrome.json").read_text()
    if framework == "tensorflow_like":
        assert _sha256(chrome.encode()) == CHROME_SHA256
    assert trace_to_json(trace) == (tmp_path / "t.json").read_text()
