"""`repro diff` CLI: coordinate/file sides, JSON output, the CI gate."""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.cli import main

SIDE = "model=53,batch=1"
SLOWER = "model=53,batch=1,framework=mxnet_like"


def test_diff_coordinates_text_output(capsys):
    assert main(["diff", SIDE, SLOWER]) == 0
    out = capsys.readouterr().out
    assert "XSP diff: DeepLabv3_MobileNet_v2" in out
    assert "model-level rollups" in out
    assert "findings" in out


def test_self_diff_exits_zero_even_with_tight_gate(capsys):
    assert main(["diff", SIDE, SIDE, "--max-regression", "0.0"]) == 0
    out = capsys.readouterr().out
    assert "1.00x" in out


def test_gate_trips_on_regression(capsys):
    # MXNet is measurably slower online at batch 1 on this model.
    assert main(["diff", SIDE, SLOWER, "--max-regression", "0.01"]) == 1
    err = capsys.readouterr().err
    assert "FAILED" in err and "gate" in err


def test_gate_does_not_trip_when_loose(capsys):
    assert main(["diff", SIDE, SLOWER, "--max-regression", "5.0"]) == 0


def test_json_output_machine_checkable(capsys):
    assert main(["diff", SIDE, SLOWER, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["baseline"]["framework"] == "tensorflow_like"
    assert doc["candidate"]["framework"] == "mxnet_like"
    assert doc["regression_fraction"] > 0
    assert doc["layers"]
    for finding in doc["findings"]:
        assert 0.0 <= finding["severity"] <= 1.0
        assert finding["baseline_evidence"] is not None


def test_min_severity_filters_findings(capsys):
    assert main(["diff", SIDE, SLOWER, "--json"]) == 0
    everything = json.loads(capsys.readouterr().out)
    assert main(["diff", SIDE, SLOWER, "--json",
                 "--min-severity", "0.99"]) == 0
    filtered = json.loads(capsys.readouterr().out)
    assert len(filtered["findings"]) < len(everything["findings"])


def test_store_entries_by_coordinates_round_trip(tmp_path, capsys):
    """Coordinates fill the store cold, then diff warm from disk."""
    cache = str(tmp_path / "cache")
    argv = ["diff", SIDE, "model=53,batch=2", "--cache-dir", cache]
    assert main(argv) == 0
    capsys.readouterr()
    # Warm re-run: served from the two store entries written above.
    from repro.core import ProfileStore

    assert len(ProfileStore(cache)) == 2
    assert main(argv) == 0
    assert "XSP diff" in capsys.readouterr().out


def test_diff_two_trace_files(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path, batch in ((a, "1"), (b, "2")):
        assert main(["trace", "--model", "53", "--batch", batch,
                     "--output", str(path)]) == 0
    capsys.readouterr()
    assert main(["diff", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "XSP diff" in out and "batch 1" in out and "batch 2" in out


def test_mixed_sides_file_vs_coordinates(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main(["profile", "--model", "53", "--batch", "1", "--runs", "1",
                 "--cache-dir", cache]) == 0
    capsys.readouterr()
    from repro.core import ProfileStore

    entry = next(iter(ProfileStore(cache).entries()))
    assert main(["diff", str(entry), SIDE]) == 0
    assert "1.00x" in capsys.readouterr().out  # same coordinates: no change


def test_bad_side_is_usage_error(capsys):
    assert main(["diff", SIDE, "not-a-file-or-coords"]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_coordinate_field_is_usage_error(capsys):
    assert main(["diff", SIDE, "model=53,bogus=1"]) == 2
    assert "bad coordinate" in capsys.readouterr().err


def test_coordinates_need_model(capsys):
    assert main(["diff", SIDE, "batch=4"]) == 2
    assert "model=" in capsys.readouterr().err


def test_json_output_is_strict_json_even_with_one_sided_layers(capsys):
    """Regression: Delta ratios of added layers/kernels are infinite;
    the --json document must stay strict-JSON (no `Infinity` tokens)."""
    # TF vs MXNet has added/removed layers and kernels on both sides.
    assert main(["diff", SIDE, SLOWER, "--json"]) == 0
    out = capsys.readouterr().out
    assert "Infinity" not in out and "NaN" not in out
    json.loads(out, parse_constant=lambda c: (_ for _ in ()).throw(
        AssertionError(f"non-strict JSON constant {c!r} in --json output")
    ))


def test_json_output_does_not_depend_on_string_hashing():
    """The kernel-mix finding sums and ranks kernel names in first-seen
    order, so two processes with different hash seeds print the same
    bytes (model 7's mix distance used to differ in the last bit)."""
    src = str(Path(repro.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "repro", "diff", "model=7,batch=1",
            "model=7,batch=1,framework=mxnet_like", "--json", "--runs", "1"]
    outputs = [
        subprocess.run(argv, env={**os.environ, "PYTHONPATH": src,
                                  "PYTHONHASHSEED": seed},
                       capture_output=True, text=True, check=True).stdout
        for seed in ("1", "2")
    ]
    assert outputs[0] == outputs[1]
    assert any(finding["kind"] == "kernel-mix-shift"
               for finding in json.loads(outputs[0])["findings"])
