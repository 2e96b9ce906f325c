"""Every CLI subcommand, given an input it cannot use, exits non-zero
with exactly one stderr line and no traceback.

The table names each subcommand's failing inputs: a missing file,
malformed JSON, a document of another format, a bare profile payload
with a bad cell and an out-of-range number, wherever the subcommand
takes that kind of input.  A subcommand
missing from the table, or an option that takes a value with no case
(and no reason to have none), fails the test."""

from __future__ import annotations

import argparse
import json

import pytest

from repro.cli import build_parser, main

#: Placeholders the test replaces with files under its ``tmp_path``.
MISSING, MALFORMED, FOREIGN, BAD_V3, BAD_PROFILE, A_FILE, NO_DIR = (
    "<missing.json>", "<malformed.json>", "<foreign.json>", "<bad-v3.json>",
    "<bad-profile.json>", "<a-file>", "<no-dir>/out.json")

CASES: dict[str, list[list[str]]] = {
    # Reads no file and takes no number; argparse checks --task.
    "list-models": [],
    "profile": [
        ["--model", "999"],
        ["--model", "53", "--batch", "0"],
        ["--model", "53", "--runs", "0"],
        ["--model", "53", "--cache-dir", A_FILE],
    ],
    "sweep": [
        ["--model", "999"],
        ["--model", "53", "--batches", "0,1"],
        ["--model", "53", "--batches", "one"],
    ],
    "experiments": [
        ["--only", "fig99"],
        ["--only", "fig10", "--output", NO_DIR],
    ],
    "trace": [
        ["--model", "999", "--stats"],
        ["--model", "53", "--batch", "0", "--stats"],
        ["--model", "53", "--output", NO_DIR],
        ["--model", "53", "--chrome", NO_DIR],
    ],
    "advise": [
        ["--from-trace", MISSING],
        ["--from-trace", MALFORMED],
        ["--from-trace", FOREIGN],
        ["--from-trace", BAD_V3],
        ["--model", "999"],
        ["--model", "53", "--batch", "0"],
        ["--model", "53", "--runs", "0"],
        ["--model", "53", "--sweep", "0,1"],
        ["--model", "53", "--min-severity", "1.5"],
        ["--model", "53", "--min-severity", "nan"],
        ["--model", "53", "--cache-dir", A_FILE],
        ["--model", "53", "--live", "--evaluations", "0"],
    ],
    "diff": [
        [MISSING, "model=53"],
        ["model=53", MALFORMED],
        [FOREIGN, "model=53"],
        [BAD_V3, "model=53"],
        ["model=53", BAD_V3],
        [BAD_PROFILE, "model=53"],
        ["model=53,batch=0", "model=53"],
        ["model=53", "model=53", "--runs", "0"],
        ["model=53", "model=53", "--min-severity", "-0.5"],
        ["model=53", "model=53", "--max-regression", "nan"],
        ["model=53", "model=53", "--max-regression", "-1"],
        ["model=53", "model=53", "--cache-dir", A_FILE],
    ],
}

#: Options that take a value but need no case: argparse checks them.
CHOICES_ONLY = {"--task", "--system", "--framework"}


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    (action,) = (a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction))
    return dict(action.choices)


def test_every_subcommand_has_a_row():
    assert set(CASES) == set(_subcommands())


@pytest.mark.parametrize("command", sorted(CASES))
def test_every_value_option_has_a_case(command):
    """Each option that takes a value, and each positional, appears in
    one of its subcommand's cases."""
    parser = _subcommands()[command]
    used = {arg for argv in CASES[command] for arg in argv}
    for action in parser._actions:
        if action.nargs == 0 or action.dest == "help":
            continue
        if not action.option_strings:  # a positional: any case feeds it
            assert CASES[command], f"{command} {action.dest}: no case"
            continue
        names = set(action.option_strings)
        assert names & (used | CHOICES_ONLY), f"{command} {names}: no case"


def _bad_v3() -> str:
    """A format-v3 trace file whose one tag value code is out of the pool."""
    from repro.tracing import Level, Span, Trace
    from repro.tracing.export import trace_to_json

    trace = Trace(trace_id=1, metadata={"model": "m"})
    trace.add(Span("predict", 0, 5, Level.MODEL, span_id=1, tags={"x": 1}))
    document = json.loads(trace_to_json(trace))
    document["table"]["value_pool"] = []
    return json.dumps(document)


def _bad_profile() -> str:
    """A bare by-column profile payload whose one kernel's grid holds a
    string."""
    from repro.core.cache import profile_to_columns
    from repro.core.pipeline import KernelProfile, LayerProfile, ModelProfile

    kernel = KernelProfile("k", 0, 0, 1.0, 1e9, 1e6, 1e6, 0.5, (1, 1, 1),
                           (32, 1, 1))
    profile = ModelProfile("m", "Tesla_V100", "tensorflow_like", 1, 2.0, [
        LayerProfile(0, "conv", "Conv2D", (1, 8), 1.5, 0, [kernel])])
    document = profile_to_columns(profile)
    document["kernels"]["grid"] = [["x", 1, 1]]
    return json.dumps(document)


def _materialize(arg: str, tmp_path) -> str:
    files = {
        MALFORMED: '{"format_version": 2, "spans": ',
        FOREIGN: '{"traceEvents": [], "displayTimeUnit": "ms"}',
        A_FILE: "not a directory",
    }
    if arg == BAD_V3:
        files[BAD_V3] = _bad_v3()
    if arg == BAD_PROFILE:
        files[BAD_PROFILE] = _bad_profile()
    if arg in files:
        path = tmp_path / arg.strip("<>")
        path.write_text(files[arg])
        return str(path)
    if arg in (MISSING, NO_DIR):
        return str(tmp_path / arg.replace("<", "").replace(">", ""))
    return arg


@pytest.mark.parametrize("command,args", [
    pytest.param(command, args, id=" ".join([command, *args]))
    for command, rows in sorted(CASES.items()) for args in rows
])
def test_bad_input_exits_non_zero_in_one_line(command, args, tmp_path,
                                              capsys):
    argv = [command, *(_materialize(arg, tmp_path) for arg in args)]
    assert main(argv) != 0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error: ") and "Traceback" not in err
