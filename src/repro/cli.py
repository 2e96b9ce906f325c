"""Command-line interface.

    python -m repro list-models [--task IC]
    python -m repro profile --model 7 --batch 256 [--system S] [--framework F]
    python -m repro sweep --model 7 --batches 1,8,64,256
    python -m repro experiments [--only fig10,table06] [--output EXPERIMENTS.md]
    python -m repro trace --model 7 --batch 16 --output trace.json [--chrome [out.json]]
    python -m repro advise --model 7 --batch 256 [--json]
    python -m repro diff model=7,batch=256 model=7,batch=256,framework=mxnet_like
    python -m repro diff old_profile.json new_trace.json --max-regression 0.10

Everything runs on the simulated substrate in deterministic virtual time.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

from repro.analysis.report import full_report
from repro.core import (
    AnalysisPipeline,
    MLLibG,
    ProfileStore,
    ProfilingConfig,
    XSPSession,
)
from repro.models import get_model, list_models
from repro.sim.hardware import SYSTEMS
from repro.tracing.export import save_trace
from repro.workloads import throughput_curve


def _model_key(value: str) -> int | str:
    return int(value) if value.isdigit() else value


def _add_target_args(
    parser: argparse.ArgumentParser, *, model_required: bool = True
) -> None:
    parser.add_argument("--model", required=model_required, type=_model_key,
                        default=None, help="paper model ID (1-55) or name")
    parser.add_argument("--system", default="Tesla_V100",
                        choices=sorted(SYSTEMS))
    parser.add_argument("--framework", default="tensorflow_like",
                        choices=["tensorflow_like", "mxnet_like"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XSP reproduction: across-stack profiling of ML models "
        "on (simulated) GPUs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser("list-models", help="show the Table VIII zoo")
    list_p.add_argument("--task", choices=["IC", "OD", "IS", "SS", "SR"])

    prof_p = sub.add_parser("profile", help="full across-stack profile")
    _add_target_args(prof_p)
    prof_p.add_argument("--batch", type=int, default=1)
    prof_p.add_argument("--runs", type=int, default=3,
                        help="repetitions per profiling level")
    prof_p.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persist merged profiles here and serve repeat "
                        "invocations from disk instead of re-profiling")

    sweep_p = sub.add_parser("sweep", help="A1 throughput curve")
    _add_target_args(sweep_p)
    sweep_p.add_argument("--batches", default="1,2,4,8,16,32,64,128,256",
                         help="comma-separated batch sizes")

    exp_p = sub.add_parser("experiments",
                           help="reproduce the paper's tables/figures")
    exp_p.add_argument("--only", default=None,
                       help="comma-separated experiment ids (e.g. fig10)")
    exp_p.add_argument("--output", default=None,
                       help="also write an EXPERIMENTS.md-style report here")

    trace_p = sub.add_parser("trace", help="capture and save a raw trace")
    _add_target_args(trace_p)
    trace_p.add_argument("--batch", type=int, default=1)
    trace_p.add_argument("--output", default=None,
                         help="write the lossless JSON trace here")
    trace_p.add_argument("--chrome", nargs="?", const="", default=None,
                         metavar="OUT",
                         help="write Chrome trace_event JSON (openable in "
                         "Perfetto / chrome://tracing) to OUT; without OUT, "
                         "--output receives the Chrome format instead")
    trace_p.add_argument("--library-level", action="store_true",
                         help="include cuDNN API-call spans (Sec. III-E)")
    trace_p.add_argument("--stats", action="store_true",
                         help="print span count, per-level/kind breakdown, "
                         "and the capture's estimated resident bytes")

    adv_p = sub.add_parser("advise",
                           help="rule-based across-stack bottleneck insights")
    _add_target_args(adv_p, model_required=False)
    adv_p.add_argument("--batch", type=int, default=1)
    adv_p.add_argument("--runs", type=int, default=1,
                       help="repetitions per profiling level")
    adv_p.add_argument("--sweep", default="auto", metavar="BATCHES",
                       help="comma-separated batch sizes for the "
                       "batch-scaling rules; 'auto' doubles from 1 past "
                       "--batch; 'none' skips the sweep")
    adv_p.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the machine-checkable JSON report")
    adv_p.add_argument("--min-severity", type=float, default=0.0,
                       help="hide insights scoring below this (0-1)")
    adv_p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="serve/persist the merged profile via this "
                       "on-disk store")
    adv_p.add_argument("--from-trace", default=None, metavar="TRACE_JSON",
                       help="run the rules over a saved `repro trace "
                       "--output` capture instead of re-profiling "
                       "(--model and the sweep are not needed)")
    adv_p.add_argument("--live", action="store_true",
                       help="stream insight updates while an "
                       "application-level capture of the model is in "
                       "flight (incremental engine; final report at the "
                       "end)")
    adv_p.add_argument("--evaluations", type=int, default=2,
                       help="evaluations in the --live application "
                       "capture (default 2)")

    diff_p = sub.add_parser(
        "diff",
        help="differential analysis: what changed between two profiles",
        description="Each side is either a saved JSON file (a profile-store "
        "entry, a bare profile, or a `repro trace --output` capture) or "
        "profile coordinates like model=7,batch=256[,system=S][,framework=F]"
        "[,runs=N]. Coordinates are served from --cache-dir when warm and "
        "profiled (then cached) otherwise.",
    )
    diff_p.add_argument("baseline", help="side A: JSON path or coordinates")
    diff_p.add_argument("candidate", help="side B: JSON path or coordinates")
    diff_p.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the machine-checkable JSON diff")
    diff_p.add_argument("--min-severity", type=float, default=0.0,
                        help="hide findings scoring below this (0-1)")
    diff_p.add_argument("--max-regression", type=float, default=None,
                        metavar="FRACTION",
                        help="CI gate: exit 1 if the candidate's model "
                        "latency regresses by more than this fraction "
                        "(e.g. 0.10 = 10%%)")
    diff_p.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="profile store consulted (and filled) when a "
                        "side is given as coordinates")
    diff_p.add_argument("--runs", type=int, default=3,
                        help="repetitions per level when profiling a "
                        "coordinate side (default 3, matching `repro "
                        "profile` so --cache-dir entries are shared; "
                        "override per side with runs=N in the spec)")
    return parser


def cmd_list_models(args: argparse.Namespace) -> int:
    entries = list_models(args.task)
    print(f"{'ID':>3}  {'Name':<34} {'Task':<4} {'Acc':>6} "
          f"{'Paper Online(ms)':>17} {'Paper Opt':>9}")
    for entry in entries:
        accuracy = "-" if entry.paper.accuracy is None else \
            f"{entry.paper.accuracy:.1f}"
        print(f"{entry.model_id:>3}  {entry.name:<34} {entry.task:<4} "
              f"{accuracy:>6} {entry.paper.online_latency_ms:>17.2f} "
              f"{entry.paper.optimal_batch:>9}")
    return 0


class _StoreError(Exception):
    """An unusable --cache-dir (already reported to stderr)."""


def _open_store(cache_dir: str | None) -> ProfileStore | None:
    """Open the --cache-dir store; None when no caching was requested."""
    if not cache_dir:
        return None
    try:
        return ProfileStore(cache_dir)
    except OSError as err:
        print(f"error: --cache-dir {cache_dir!r} unusable: {err}",
              file=sys.stderr)
        raise _StoreError from err


def cmd_profile(args: argparse.Namespace) -> int:
    entry = get_model(args.model)
    session = XSPSession(args.system, args.framework)
    try:
        store = _open_store(args.cache_dir)
    except _StoreError:
        return 2
    pipeline = AnalysisPipeline(session, runs_per_level=args.runs, store=store)
    profile = pipeline.profile_model(entry.graph, args.batch)
    print(full_report(profile))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    entry = get_model(args.model)
    session = XSPSession(args.system, args.framework)
    batches = [int(b) for b in args.batches.split(",")]
    curve = throughput_curve(session, entry.graph, batches)
    print(f"{entry.name} on {args.system} ({args.framework})")
    print(f"{'batch':>6} {'latency (ms)':>14} {'inputs/s':>10}")
    for batch in sorted(curve.latencies_ms):
        print(f"{batch:>6} {curve.latencies_ms[batch]:>14.2f} "
              f"{curve.throughputs[batch]:>10.1f}")
    print(f"optimal batch size: {curve.optimal_batch} "
          f"(max {curve.max_throughput:.1f} inputs/s)")
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments import run_all
    from repro.experiments.report import generate

    if args.output:
        generate(args.output)
        print(f"wrote {args.output}")
        return 0
    ids = args.only.split(",") if args.only else None
    results = run_all(ids)
    failures = 0
    for result in results.values():
        print(result.render())
        print()
        failures += sum(1 for c in result.checks if not c.passed)
    print(f"{sum(len(r.checks) for r in results.values()) - failures} checks "
          f"passed, {failures} deviations")
    return 0


def _print_trace_stats(trace) -> None:
    """Span count, per-level/kind breakdown, estimated resident bytes.

    Served entirely by the trace's columnar storage: the level/kind row
    partitions come from the index and the byte estimate from
    ``SpanTable.nbytes`` — no span objects are materialized.
    """
    index = trace.index
    print(f"spans:     {len(trace)}")
    print("per level: " + ", ".join(
        f"{level.name}={len(rows)}"
        for level, rows in sorted(index.level_rows().items())
    ))
    print("per kind:  " + ", ".join(
        f"{kind.value}={len(rows)}"
        for kind, rows in sorted(
            index.kind_rows().items(), key=lambda kv: kv[0].value
        )
    ))
    nbytes = trace.table.nbytes
    print(f"resident:  ~{nbytes} bytes ({nbytes / 1e6:.2f} MB columnar)")


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.tracing.export import trace_to_chrome

    chrome_path = args.output if args.chrome == "" else args.chrome
    if args.chrome == "" and args.output is None:
        # A bare --chrome redirects --output; without one there is
        # nowhere to write the requested Chrome trace (--stats does not
        # change that).
        print("error: --chrome without OUT needs --output", file=sys.stderr)
        return 2
    if args.output is None and not chrome_path and not args.stats:
        print("error: trace needs --output, --chrome OUT, and/or --stats",
              file=sys.stderr)
        return 2
    entry = get_model(args.model)
    session = XSPSession(args.system, args.framework)
    config = ProfilingConfig(levels=MLLibG) if args.library_level \
        else ProfilingConfig()
    run = session.profile(entry.graph, args.batch, config)
    written = []
    if args.output and args.output != chrome_path:
        save_trace(run.trace, args.output)
        written.append(args.output)
    if chrome_path:
        with open(chrome_path, "w") as fh:
            fh.write(trace_to_chrome(run.trace))
        written.append(chrome_path)
    destinations = f" -> {', '.join(written)}" if written else ""
    print(f"captured {len(run.trace)} spans "
          f"({run.n_kernels} kernels){destinations}")
    if args.stats:
        _print_trace_stats(run.trace)
    return 0


def _sweep_batches(spec: str, batch: int) -> list[int]:
    """Parse advise's --sweep: explicit list, 'auto' doubling, or 'none'."""
    if spec == "none":
        return []
    if spec == "auto":
        batches, b = [], 1
        while b <= max(2 * batch, 8):
            batches.append(b)
            b *= 2
        return batches
    return [int(b) for b in spec.split(",")]


def _print_json(document: dict) -> None:
    """One compact JSON line, so the C encoder runs (``indent`` would
    force the pure-Python one; ``python -m json.tool`` pretty-prints).
    The document is a fresh tree of plain values, so the encoder's cycle
    check is skipped."""
    print(json.dumps(document, check_circular=False))


def _print_insight_report(report, args: argparse.Namespace) -> None:
    if args.as_json:
        _print_json(report.to_dict(min_severity=args.min_severity))
    else:
        print(report.render(min_severity=args.min_severity))


def _advise_from_trace(args: argparse.Namespace) -> int:
    """Insights over an exported capture — no re-profiling.

    Reuses the diff machinery's ``profile_from_trace`` single-run view,
    and hands the rules the raw trace too, so the timeline rules (idle
    bubbles etc.) run against the capture's real schedule.
    """
    from repro.analysis.diff.sources import profile_from_trace
    from repro.insights import advise as run_rules
    from repro.tracing.export import load_trace

    try:
        trace = load_trace(args.from_trace)
        profile = profile_from_trace(trace)
    except (OSError, ValueError, KeyError) as err:
        print(f"error: --from-trace {args.from_trace!r}: {err}",
              file=sys.stderr)
        return 2
    try:
        profile.gpu  # the rules size everything against the capture's GPU
    except KeyError as err:
        print(f"error: --from-trace {args.from_trace!r}: {err.args[0]}",
              file=sys.stderr)
        return 2
    report = run_rules(profile, trace=trace)
    _print_insight_report(report, args)
    return 0


def _advise_live(pipeline, graph, args: argparse.Namespace) -> int:
    """Follow an in-flight capture, printing one line per refresh."""
    if args.evaluations < 1:
        print("error: --evaluations must be at least 1", file=sys.stderr)
        return 2
    # With --json, stdout stays pure JSON (the machine-readable
    # contract); progress lines go to stderr.
    progress = sys.stderr if args.as_json else sys.stdout
    last = None
    for update in pipeline.advise_live(
        graph, args.batch, evaluations=args.evaluations
    ):
        refreshed = ",".join(update.refreshed_rules) or "-"
        top = next(iter(update.report), None)
        top_text = f"{top.rule} {top.severity:.2f}" if top else "none"
        stage = "final" if update.final else f"+{update.new_rows} rows"
        print(f"[live] spans={update.n_spans} ({stage}) "
              f"refreshed: {refreshed} | top: {top_text}", file=progress)
        last = update
    if last is None:
        print("error: live capture produced no spans", file=sys.stderr)
        return 1
    if not args.as_json:
        print()
    _print_insight_report(last.report, args)
    return 0


def cmd_advise(args: argparse.Namespace) -> int:
    if args.from_trace is not None:
        return _advise_from_trace(args)
    if args.model is None:
        print("error: advise needs --model (or --from-trace)",
              file=sys.stderr)
        return 2
    entry = get_model(args.model)
    session = XSPSession(args.system, args.framework)
    try:
        store = _open_store(args.cache_dir)
    except _StoreError:
        return 2
    pipeline = AnalysisPipeline(session, runs_per_level=args.runs, store=store)
    if args.live:
        return _advise_live(pipeline, entry.graph, args)
    report = pipeline.advise(
        entry.graph, args.batch,
        sweep_batches=_sweep_batches(args.sweep, args.batch),
    )
    _print_insight_report(report, args)
    return 0


#: Coordinate-spec fields accepted by `repro diff` sides.
_DIFF_COORDS = ("model", "batch", "system", "framework", "runs")


def _parse_coordinates(spec: str) -> dict[str, str]:
    """Parse "model=7,batch=256,..." into a field dict (ValueError if not)."""
    fields: dict[str, str] = {}
    for part in spec.split(","):
        name, eq, value = part.partition("=")
        if not eq or name.strip() not in _DIFF_COORDS or not value.strip():
            raise ValueError(
                f"bad coordinate {part!r} in {spec!r}; expected "
                f"comma-separated {'/'.join(_DIFF_COORDS)}=VALUE pairs"
            )
        fields[name.strip()] = value.strip()
    if "model" not in fields:
        raise ValueError(f"coordinates {spec!r} need at least model=...")
    return fields


def _resolve_diff_side(spec: str, args: argparse.Namespace, store):
    """One `repro diff` side: a JSON file on disk, else profile coordinates."""
    import os

    from repro.analysis.diff import load_profile_json

    if os.path.isfile(spec):
        return load_profile_json(spec)
    if "=" not in spec:
        raise ValueError(
            f"{spec!r} is neither an existing JSON file nor a coordinate "
            "spec like model=7,batch=256"
        )
    coords = _parse_coordinates(spec)
    entry = get_model(_model_key(coords["model"]))
    session = XSPSession(
        coords.get("system", "Tesla_V100"),
        coords.get("framework", "tensorflow_like"),
    )
    pipeline = AnalysisPipeline(
        session,
        runs_per_level=int(coords.get("runs", args.runs)),
        store=store,
    )
    return pipeline.profile_model(entry.graph, int(coords.get("batch", 1)))


def cmd_diff(args: argparse.Namespace) -> int:
    from repro.analysis.diff import diff_profiles

    try:
        store = _open_store(args.cache_dir)
    except _StoreError:
        return 2
    try:
        baseline = _resolve_diff_side(args.baseline, args, store)
        candidate = _resolve_diff_side(args.candidate, args, store)
    except (ValueError, OSError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    diff = diff_profiles(baseline, candidate)
    if args.as_json:
        print(diff.to_json(min_severity=args.min_severity))
    else:
        print(diff.render(min_severity=args.min_severity))
    if (
        args.max_regression is not None
        and diff.regression_fraction > args.max_regression
    ):
        print(
            f"FAILED: candidate regressed "
            f"{100 * diff.regression_fraction:.1f}% "
            f"(gate: {100 * args.max_regression:.1f}%)",
            file=sys.stderr,
        )
        return 1
    return 0


_COMMANDS = {
    "list-models": cmd_list_models,
    "profile": cmd_profile,
    "sweep": cmd_sweep,
    "experiments": cmd_experiments,
    "trace": cmd_trace,
    "advise": cmd_advise,
    "diff": cmd_diff,
}


#: Number options argparse cannot bound: (attribute, lowest, highest).
#: NaN lies in no range, so a filter or gate cannot silently turn off.
_BOUNDS = (("min_severity", 0.0, 1.0), ("max_regression", 0.0, math.inf))


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    for name, lo, hi in _BOUNDS:
        value = getattr(args, name, None)
        if value is not None and not lo <= value <= hi:
            print(f"error: --{name.replace('_', '-')} must be in "
                  f"[{lo}, {hi}], got {value}", file=sys.stderr)
            return 2
    try:
        return _COMMANDS[args.command](args)
    except OSError as err:  # e.g. an output path that cannot be written
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (KeyError, ValueError) as err:  # e.g. an unknown model
        print(f"error: {err.args[0] if err.args else err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
