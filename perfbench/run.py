"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload zoo_campaign --seed 1 --seconds 20 --trace 0

Sets the workload up several times (``setup_s`` is the median), runs the
fixed amount of work ``--seconds`` stands for with tracing off, checks
every output, and prints one JSON object as the last
line of stdout.  Times are wall-clock times rescaled by the core speed
sampled during the same stretch (see ``common.SpeedProbe``); the raw
clock readings go to stderr.  With ``--trace 1`` the same operations are
then replayed with the per-layer timing wrappers installed, and the
per-layer metrics plus the tracing overhead (traced minus untraced
end-to-end values) are printed instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

WORKLOADS = ("zoo_campaign", "artifact_triage", "live_capture")
SETUP_REPEATS = 3

#: (metric name, unit) printed by an untraced run, for every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
)


def make_workload(name: str, seed: int, workdir: Path):
    if name == "zoo_campaign":
        from perfbench.zoo_campaign import ZooCampaign

        return ZooCampaign(seed, workdir)
    if name == "artifact_triage":
        from perfbench.artifact_triage import ArtifactTriage

        return ArtifactTriage(seed, workdir)
    from perfbench.live_capture import LiveCapture

    return LiveCapture(seed, workdir)


def _report_raw(label: str, m) -> None:
    print(f"{label}: ops={m.attempted} core slowdown={m.probe.slowdown:.3f} "
          f"raw ops_per_s={m.raw_ops_per_s:.3f} p50_ms={m.raw_p50_ms:.3f} "
          f"p90_ms={m.raw_p90_ms:.3f}", file=sys.stderr)


def _traced(workload, base, root: Path):
    """Replay ``base``'s operations under the wrappers: per-layer metrics."""
    from perfbench.layers import PER_LAYER, Recorder, install, layer_metrics

    recorder = Recorder()
    install(recorder)
    try:
        gc.collect()
        traced = workload.measure(n_ops=base.attempted, recorder=recorder)
    finally:
        recorder.uninstall()
    spans = recorder.spans()
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"spans-{workload.name}.json").write_text(spans.to_json())
    metrics = layer_metrics(spans, traced.attempted)
    for name, unit in PER_LAYER:
        if unit == "ms" and name in metrics:
            metrics[name] /= traced.probe.slowdown
    metrics["live.final_ms"] = (base.extra.get("final_ms", 0.0)
                                / base.probe.slowdown)
    # Lateness is scheduling delay against the wall clock: not rescaled.
    for key in ("lateness_p90_ms", "lateness_max_ms"):
        metrics[f"live.{key}"] = base.extra.get(key, 0.0)
    metrics["overhead.ops_per_s"] = traced.ops_per_s - base.ops_per_s
    metrics["overhead.op_p50_ms"] = traced.p50_ms - base.p50_ms
    metrics["overhead.op_p90_ms"] = traced.p90_ms - base.p90_ms
    return metrics, traced


def run(args: argparse.Namespace, root: Path, workdir: Path) -> dict:
    from perfbench.common import SpeedProbe
    from perfbench.layers import PER_LAYER

    workload = make_workload(args.workload, args.seed, workdir)
    setup_times = []
    setup_probe = SpeedProbe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
        setup_probe.sample(20)
    gc.collect()
    base = workload.measure(n_ops=workload.ops_for(args.seconds))
    _report_raw("untraced", base)
    print(f"setup: raw median {statistics.median(setup_times):.3f} s, core "
          f"slowdown {setup_probe.slowdown:.3f}", file=sys.stderr)
    phases = [base]
    if args.trace:
        values, traced = _traced(workload, base, root)
        _report_raw("traced", traced)
        phases.append(traced)
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setup_times) / setup_probe.slowdown,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_rate": (base.attempted - base.failed) / base.attempted,
            "ops_per_s": base.ops_per_s,
            "op_p50_ms": base.p50_ms,
            "op_p90_ms": base.p90_ms,
        }
        units = END_TO_END
    for phase in phases:
        for error in phase.errors:
            print(f"check failed: {error}", file=sys.stderr)
    failed = sum(p.failed for p in phases)
    return {
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in phases),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root)]
    work_root = root / ".perfbench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    try:
        result = run(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run's directory is still there
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
