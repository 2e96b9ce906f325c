"""CLI smoke tests."""

import gzip
import json
from pathlib import Path

import pytest

from repro.cli import main


def test_list_models(capsys):
    assert main(["list-models", "--task", "SR"]) == 0
    out = capsys.readouterr().out
    assert "SRGAN" in out


def test_sweep(capsys):
    assert main(["sweep", "--model", "7", "--batches", "1,8"]) == 0
    out = capsys.readouterr().out
    assert "optimal batch size" in out


def test_profile_small_model(capsys):
    assert main(["profile", "--model", "53", "--batch", "1",
                 "--runs", "1"]) == 0
    out = capsys.readouterr().out
    assert "A2" in out and "A10" in out


def test_trace_json(tmp_path, capsys):
    out_path = tmp_path / "trace.json"
    assert main(["trace", "--model", "53", "--batch", "1",
                 "--output", str(out_path)]) == 0
    from repro.tracing.export import load_trace

    trace = load_trace(str(out_path))
    assert len(trace) > 10


def test_trace_chrome_format(tmp_path):
    out_path = tmp_path / "chrome.json"
    assert main(["trace", "--model", "53", "--batch", "1", "--chrome",
                 "--output", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["traceEvents"]


def test_trace_library_level(tmp_path):
    out_path = tmp_path / "lib.json"
    assert main(["trace", "--model", "53", "--batch", "1",
                 "--library-level", "--output", str(out_path)]) == 0
    from repro.tracing import Level
    from repro.tracing.export import load_trace

    trace = load_trace(str(out_path))
    assert trace.at_level(Level.LIBRARY)


def test_experiments_single(capsys):
    assert main(["experiments", "--only", "table07"]) == 0
    out = capsys.readouterr().out
    assert "0 deviations" in out


def test_unknown_model_errors(capsys):
    assert main(["sweep", "--model", "999", "--batches", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: no model with paper ID 999 (valid: 1..55)\n"
    )


@pytest.mark.parametrize("argv", [
    ["profile", "--model", "9999"],
    ["profile", "--model", "7", "--batch", "-3"],
    ["trace", "--model", "7", "--batch", "0", "--stats"],
    ["profile", "--model", "7", "--runs", "0"],
    ["sweep", "--model", "7", "--batches", "x"],
    ["advise", "--from-trace", "ARRAY_JSON"],
])
def test_bad_input_fails_in_one_line(argv, tmp_path, capsys):
    array = tmp_path / "array.json"
    array.write_text("[1,2]")
    argv = [str(array) if arg == "ARRAY_JSON" else arg for arg in argv]
    assert main(argv) != 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err


#: Captures of model 7 written before formats v2 and v3 (tests/tracing/data).
DATA = Path(__file__).resolve().parents[1] / "tracing" / "data"
V1_FIXTURE = DATA / "model7_library_level_v1.json.gz"
V2_FIXTURE = DATA / "model7_library_level_v2_tensorflow_like.json.gz"


def _capture_text(version: str) -> str:
    """The model-7 capture as a trace file of ``version``."""
    if version == "v3":
        from repro.tracing.export import trace_from_json, trace_to_json

        return trace_to_json(trace_from_json(_capture_text("v2")))
    fixture = V1_FIXTURE if version == "v1" else V2_FIXTURE
    return gzip.decompress(fixture.read_bytes()).decode()


def _v1_span(doc, key, value):
    doc["spans"][3][key] = value


def _v2_column(doc, key, row, value):
    doc["table"][key][row] = value


def _v3_column(doc, key, **fields):
    doc["table"][key].update(fields)


#: (format, fault) -> an edit of a good trace document that breaks it.
MALFORMED_TRACES = {
    ("v1", "string start_ns"): lambda d: _v1_span(d, "start_ns", "5"),
    ("v1", "spans an object"): lambda d: d.update(spans={"a": 1}),
    ("v1", "span a list"): lambda d: d["spans"].__setitem__(3, [1, 2]),
    ("v1", "tags a list"): lambda d: _v1_span(d, "tags", ["x"]),
    ("v1", "parent_id beyond int64"):
        lambda d: _v1_span(d, "parent_id", 10**30),
    ("v1", "metadata a list"): lambda d: d.update(metadata=[1]),
    ("v1", "duplicated span id"):
        lambda d: _v1_span(d, "span_id", d["spans"][2]["span_id"]),
    ("v2", "unequal column lengths"): lambda d: d["table"]["kind"].pop(),
    ("v2", "unknown level code"): lambda d: _v2_column(d, "level", 3, 7),
    ("v2", "unknown kind code"): lambda d: _v2_column(d, "kind", 3, 5),
    ("v2", "name id out of range"):
        lambda d: _v2_column(d, "name_id", 3, 10**6),
    ("v2", "schema id out of range"):
        lambda d: _v2_column(d, "tag_schema", 3, 10**6),
    ("v2", "values do not fit the schemas"):
        lambda d: d["table"]["values"].pop(),
    ("v2", "end before start"): lambda d: _v2_column(d, "end_ns", 3, -1),
    ("v2", "integer beyond int64"):
        lambda d: _v2_column(d, "correlation_id", 3, 10**30),
    ("v2", "duplicated span id"):
        lambda d: _v2_column(d, "span_id", 3, d["table"]["span_id"][2]),
    ("v3", "bad base64"): lambda d: _v3_column(d, "start_ns", data="A*=="),
    ("v3", "wrong byte length"): lambda d: _v3_column(
        d, "end_ns", data=d["table"]["end_ns"]["data"][:-8]),
    ("v3", "unknown typecode"): lambda d: _v3_column(d, "kind", typecode="d"),
    ("v3", "code outside the pool"):
        lambda d: d["table"]["value_pool"].pop(),
    ("v3", "v2 lists in a v3 document"):
        lambda d: d["table"].update(span_id=[1, 2]),
}


def _v3_tag(doc, kind, key, value):
    """Make ``doc`` the v3 file of the capture whose first layer span
    (``kind`` "layer") or kernel execution span with tag ``key`` has it
    set to ``value``.  A v3 file pools its tag values, so the tag is set
    on the v1 spans and the file written from them."""
    from repro.tracing.export import trace_from_json, trace_to_json

    v1 = json.loads(_capture_text("v1"))
    level, span_kind = (("LAYER", "internal") if kind == "layer"
                        else ("GPU_KERNEL", "execution"))
    span = next(s for s in v1["spans"] if key in s["tags"]
                and (s["level"], s["kind"]) == (level, span_kind))
    span["tags"][key] = value
    doc.clear()
    doc.update(json.loads(trace_to_json(trace_from_json(json.dumps(v1)))))


#: Tags of a good v3 file that the profile readers reject.
MALFORMED_TRACES.update({
    ("v3", "string layer_index"):
        lambda d: _v3_tag(d, "layer", "layer_index", "x"),
    ("v3", "integer shape"): lambda d: _v3_tag(d, "layer", "shape", 5),
    ("v3", "integer grid"): lambda d: _v3_tag(d, "execution", "grid", 5),
    ("v3", "string grid"):
        lambda d: _v3_tag(d, "execution", "grid", "abc"),
})


@pytest.mark.parametrize("command", ["advise", "diff"])
@pytest.mark.parametrize("version,fault", sorted(MALFORMED_TRACES))
def test_malformed_trace_fails_in_one_line(version, fault, command,
                                           tmp_path, capsys):
    """advise --from-trace and diff reject a broken trace file, v1, v2 or
    v3, with exit 2 and one stderr line."""
    document = json.loads(_capture_text(version))
    MALFORMED_TRACES[version, fault](document)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(document))
    argv = (["advise", "--from-trace", str(path)] if command == "advise"
            else ["diff", str(path), str(path)])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def _first_kernel(doc):
    return next(layer for layer in doc["layers"] if layer["kernels"])[
        "kernels"][0]


def _kernel_count(doc):
    return len(doc["kernels"]["name"])


#: fault -> (an edit of a good bare profile JSON, the field it breaks).
#: Faults named "v2 ..." edit the column form (store schema v2), the
#: others the object-per-kernel form.
MALFORMED_PROFILES = {
    "v2 short column":
        (lambda d: d["kernels"]["latency_ms"].pop(), "kernels.latency_ms"),
    "v2 bool in a number column":
        (lambda d: d["kernels"]["flops"].__setitem__(1, True),
         "kernels.flops[1]"),
    "v2 offsets out of range":
        (lambda d: d["layers"]["kernel_start"].__setitem__(
            -1, _kernel_count(d) + 1), "layers.kernel_start"),
    "v2 offsets out of order":
        (lambda d: d["layers"]["kernel_start"].__setitem__(0, 1),
         "layers.kernel_start"),
    "v2 missing column": (lambda d: d["kernels"].pop("grid"), "kernels.grid"),
    "v2 kernels a list": (lambda d: d.update(kernels=[1]), "kernels"),
    "v2 string and null in a grid":
        (lambda d: d["kernels"]["grid"].__setitem__(0, ["x", None]),
         "kernels.grid[0][0]"),
    "v2 two-int block":
        (lambda d: d["kernels"]["block"].__setitem__(2, [1, 1]),
         "kernels.block[2]: expected 3 integers"),
    "v2 bool and string in a shape":
        (lambda d: d["layers"]["shape"].__setitem__(1, [True, "y"]),
         "layers.shape[1][0]"),
    "string batch": (lambda d: d.update(batch="4"), "batch"),
    "string kernel flops":
        (lambda d: _first_kernel(d).update(flops="x"), "flops"),
    "null kernel latency":
        (lambda d: _first_kernel(d).update(latency_ms=None), "latency_ms"),
    "kernels a number":
        (lambda d: d["layers"][0].update(kernels=5), "layers[0].kernels"),
    "layer a number": (lambda d: d["layers"].__setitem__(1, 1), "layers[1]"),
    "null shape": (lambda d: d["layers"][0].update(shape=None), "shape"),
    "float in a block":
        (lambda d: _first_kernel(d).update(block=[1.5]), "block[0]"),
    "overheads a list": (lambda d: d.update(overheads=[1, 2]), "overheads"),
}


@pytest.mark.parametrize("fault", sorted(MALFORMED_PROFILES))
def test_malformed_profile_json_fails_in_one_line(fault, cnn_profile,
                                                  tmp_path, capsys):
    """diff rejects a broken bare profile JSON, either form, with exit 2
    and one stderr line that names the file and the field."""
    from repro.core.cache import profile_to_columns, profile_to_dict

    write = profile_to_columns if fault.startswith("v2 ") else profile_to_dict
    document = json.loads(json.dumps(write(cnn_profile)))
    edit, field = MALFORMED_PROFILES[fault]
    edit(document)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(document))
    assert main(["diff", str(path), str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {path}: ")
    assert field in captured.err


@pytest.mark.parametrize("version", ["v1", "v2", "v3"])
def test_advise_and_diff_accept_both_trace_versions(version, tmp_path,
                                                    capsys):
    path = tmp_path / "capture.json"
    path.write_text(_capture_text(version))
    assert main(["advise", "--from-trace", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["insights"]
    assert main(["diff", str(path), str(path), "--json",
                 "--max-regression", "0.0"]) == 0
    assert json.loads(capsys.readouterr().out)["regression_fraction"] == 0


# -- every subcommand smoke-tested through main(argv) ------------------------


def test_smoke_every_subcommand(tmp_path, capsys):
    """Each subcommand exits 0 and prints something."""
    trace_out = tmp_path / "t.json"
    invocations = [
        ["list-models"],
        ["profile", "--model", "53", "--batch", "1", "--runs", "1"],
        ["sweep", "--model", "53", "--batches", "1,2"],
        ["experiments", "--only", "table07"],
        ["trace", "--model", "53", "--batch", "1",
         "--output", str(trace_out)],
        ["trace", "--model", "53", "--batch", "1", "--stats"],
        ["advise", "--model", "53", "--batch", "1", "--sweep", "1,2"],
    ]
    for argv in invocations:
        assert main(argv) == 0, f"{argv} failed"
        out = capsys.readouterr().out
        assert out.strip(), f"{argv} printed nothing"


def test_advise_text_output(capsys):
    assert main(["advise", "--model", "53", "--batch", "1",
                 "--sweep", "1,2"]) == 0
    out = capsys.readouterr().out
    assert "XSP insights: DeepLabv3_MobileNet_v2" in out
    # At least 8 distinct rules appear in the output.
    rules = {"gpu-idle-bubbles", "kernel-hotspot", "library-kernel-mix",
             "low-occupancy-kernels", "memory-bound-layers",
             "layer-fusion-candidates", "host-gpu-imbalance",
             "batch-scaling-knee", "memory-pressure"}
    assert sum(rule in out for rule in rules) >= 8


def test_advise_json_output(capsys):
    import json as jsonlib

    assert main(["advise", "--model", "53", "--batch", "1",
                 "--sweep", "1,2", "--json"]) == 0
    data = jsonlib.loads(capsys.readouterr().out)
    assert data["model"] == "DeepLabv3_MobileNet_v2"
    assert len({i["rule"] for i in data["insights"]}) >= 8
    for insight in data["insights"]:
        assert 0.0 <= insight["severity"] <= 1.0
        assert insight["evidence"]


def test_advise_json_respects_min_severity(capsys):
    import json as jsonlib

    argv = ["advise", "--model", "53", "--batch", "1", "--sweep", "none"]
    assert main(argv + ["--json"]) == 0
    everything = jsonlib.loads(capsys.readouterr().out)
    assert main(argv + ["--json", "--min-severity", "0.5"]) == 0
    filtered = jsonlib.loads(capsys.readouterr().out)
    assert len(filtered["insights"]) < len(everything["insights"])
    assert all(i["severity"] >= 0.5 for i in filtered["insights"])


def test_advise_min_severity_filters(capsys):
    assert main(["advise", "--model", "53", "--batch", "1", "--sweep",
                 "none", "--min-severity", "0.99"]) == 0
    out = capsys.readouterr().out
    assert "below severity 0.99" in out or "no insights" in out


def test_advise_from_trace(tmp_path, capsys):
    """Satellite: insights straight from a saved `repro trace` capture —
    no re-profiling, trace rules included."""
    capture = tmp_path / "capture.json"
    assert main(["trace", "--model", "53", "--batch", "1",
                 "--output", str(capture)]) == 0
    capsys.readouterr()
    assert main(["advise", "--from-trace", str(capture)]) == 0
    out = capsys.readouterr().out
    assert "XSP insights: DeepLabv3_MobileNet_v2" in out
    assert "gpu-idle-bubbles" in out  # a trace-requiring rule ran
    # Sweep rules are legitimately skipped (no sweep in a capture).
    assert "batch-scaling-knee (needs sweep)" in out


def test_advise_from_trace_json(tmp_path, capsys):
    import json as jsonlib

    capture = tmp_path / "capture.json"
    assert main(["trace", "--model", "53", "--batch", "1",
                 "--output", str(capture)]) == 0
    capsys.readouterr()
    assert main(["advise", "--from-trace", str(capture), "--json"]) == 0
    data = jsonlib.loads(capsys.readouterr().out)
    assert data["model"] == "DeepLabv3_MobileNet_v2"
    assert {i["rule"] for i in data["insights"]}


def test_advise_from_trace_rejects_non_trace(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text("{}")
    assert main(["advise", "--from-trace", str(bogus)]) == 2
    assert "error" in capsys.readouterr().err


def test_advise_from_application_capture(tmp_path, capsys):
    """An application capture names its system, so advise reads it."""
    from repro.analysis.diff.sources import profile_from_trace
    from repro.core import ProfilingConfig, XSPSession
    from repro.models import get_model
    from repro.tracing.export import load_trace, save_trace

    graph = get_model(53).graph
    trace, _ = XSPSession().profile_application(
        [(graph, 1), (graph, 1)], config=ProfilingConfig(metrics=())
    )
    capture = tmp_path / "app.json"
    save_trace(trace, str(capture))
    assert main(["advise", "--from-trace", str(capture), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["insights"]

    loaded = load_trace(str(capture))
    profile = profile_from_trace(loaded)
    assert profile.system == "Tesla_V100"
    span_ids = set(loaded.table.span_id)
    layer_indices = {layer.index for layer in profile.layers}
    kernel_names = {kernel.name for kernel in profile.kernels}
    for insight in data["insights"]:
        for ev in insight["evidence"]:
            assert set(ev["span_ids"]) <= span_ids
            assert set(ev["layer_indices"]) <= layer_indices
            if ev["kind"] in ("kernel", "layer"):
                assert set(ev["kernel_names"]) <= kernel_names


def test_advise_from_trace_rejects_application_capture(tmp_path, capsys):
    """A capture that names no system: one stderr line, exit 2."""
    from repro.core import ProfilingConfig, XSPSession
    from repro.models import get_model
    from repro.tracing.export import save_trace

    trace, _ = XSPSession().profile_application(
        [(get_model(53).graph, 1)], config=ProfilingConfig(metrics=())
    )
    del trace.metadata["system"]
    capture = tmp_path / "app.json"
    save_trace(trace, str(capture))
    assert main(["advise", "--from-trace", str(capture)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: --from-trace")
    assert "unknown system 'unknown'" in lines[0]


def test_advise_requires_model_or_trace(capsys):
    assert main(["advise", "--batch", "1"]) == 2
    assert "--model" in capsys.readouterr().err


def test_advise_live_streams_updates(capsys):
    assert main(["advise", "--model", "53", "--batch", "1", "--live",
                 "--evaluations", "1"]) == 0
    out = capsys.readouterr().out
    assert "[live]" in out
    assert "(final)" in out
    assert "XSP insights" in out  # the closing full report


def test_advise_cache_dir_roundtrip(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    argv = ["advise", "--model", "53", "--batch", "1", "--sweep", "none",
            "--cache-dir", cache]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0  # warm: profile served from the store
    second = capsys.readouterr().out
    assert first.splitlines()[0] == second.splitlines()[0]


def test_trace_chrome_path_only(tmp_path):
    out_path = tmp_path / "chrome.json"
    assert main(["trace", "--model", "53", "--batch", "1",
                 "--chrome", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    phases = {e["ph"] for e in doc["traceEvents"]}
    assert {"X", "M", "s", "f"} <= phases


def test_trace_both_formats(tmp_path):
    raw = tmp_path / "raw.json"
    chrome = tmp_path / "chrome.json"
    assert main(["trace", "--model", "53", "--batch", "1",
                 "--output", str(raw), "--chrome", str(chrome)]) == 0
    from repro.tracing.export import load_trace

    assert len(load_trace(str(raw))) > 10
    assert json.loads(chrome.read_text())["traceEvents"]


def test_trace_without_any_output_errors(capsys):
    assert main(["trace", "--model", "53", "--batch", "1"]) == 2
    assert "error" in capsys.readouterr().err


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: "), err
    return err


@pytest.mark.parametrize("flag", ["--output", "--chrome"])
def test_trace_write_failure_fails_in_one_line(flag, tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    assert main(["trace", "--model", "53", "--batch", "1",
                 flag, str(target)]) == 2
    assert str(target) in _one_error_line(capsys)


def test_experiments_write_failure_fails_before_the_run(tmp_path, capsys,
                                                        monkeypatch):
    import repro.experiments.report as report

    def run_all(*args):
        raise AssertionError("the experiments ran before --output opened")

    monkeypatch.setattr(report, "run_all", run_all)
    target = tmp_path / "missing" / "EXPERIMENTS.md"
    assert main(["experiments", "--output", str(target)]) == 2
    assert str(target) in _one_error_line(capsys)
