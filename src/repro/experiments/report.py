"""EXPERIMENTS.md generator.

Run as ``python -m repro.experiments.report [output_path]`` to execute the
entire experiment suite and write the paper-vs-measured record.
"""

from __future__ import annotations

import sys
import time

from repro.experiments import EXPERIMENTS, run_all

_HEADER = """\
# EXPERIMENTS — paper vs. measured

Reproduction record for every table and figure in the evaluation of
*XSP: Across-Stack Profiling and Analysis of Machine Learning Models on
GPUs* (IPDPS 2020).  Generated by `python -m repro.experiments.report`;
each section lists the paper's reference values, the values measured on
the simulated substrate, and qualitative agreement checks
(`OK` = reproduced, `DEV` = documented deviation).

Absolute numbers are not expected to match — the substrate is a
deterministic virtual-time simulator, not the authors' testbed — but the
*shapes* must hold: who wins, by roughly what factor, where crossovers
fall.  See DESIGN.md for the substitution rationale.

## Known deviations

* Optimal batch size for the ResNets computes as 128 rather than the
  paper's 256: the paper's own Table VI latencies (142.89 ms at batch
  128, 275.05 ms at 256) give a 3.9% throughput gain from doubling, which
  the paper's stated 5% rule rejects.  Our curve matches Table VI's
  shape; throughput at 256 is within 2% of the maximum either way.

* Flop counts run ~20% above the paper's (we count 2 flops per
  multiply-accumulate over the exact layer shapes; the paper reports the
  `flop_count_sp` counter of a slightly different graph), so arithmetic
  intensities shift proportionally; crossover *locations* are calibrated
  and match.
* The 128x64 scudnn kernel absorbs 47 of ResNet50's 53 convolutions in
  our cuDNN heuristics (paper: 34), so its aggregate latency share is
  ~46% vs the paper's 30.9%.
* MXNet MobileNet *online* (batch-1) latency is ~1.3x TF instead of the
  paper's ~1.0x parity: we model MXNet's per-layer dependency-engine cost
  synchronously, while the real engine hides it behind GPU work for cheap
  layers.  Throughput ratios (the paper's headline claim) do match.
* Tiny MobileNet variants (alpha <= 0.5 at small resolutions) are 1.5-2.7x
  faster than the paper and keep scaling to batch 256 where the paper's
  optimum is 64 — the real framework's small-kernel overheads are larger
  than our model's.  Big-model optimal batches match.
* VGG/AlexNet run closer to peak efficiency than real cuDNN achieves on
  their giant-spatial convolutions, so their throughput is high and
  AlexNet's conv share exceeds the paper's 36%.
* Faster_RCNN_NAS reaches ~1.6 s online vs the paper's 5.1 s (still by far
  the slowest model, with the paper's conv-dominated profile); Mask R-CNN
  variants are ~2x faster than the paper at matching conv shares.

---
"""


#: Configuration the advisor section characterizes (the same model the
#: paper walks through in Sec. III-D).
_ADVISOR_BATCH = 256
_ADVISOR_SWEEP = (1, 8, 32, 64, 128, 256)


def advisor_section(
    model: int | str | None = None,
    batch: int = _ADVISOR_BATCH,
    sweep: tuple[int, ...] = _ADVISOR_SWEEP,
) -> list[str]:
    """Markdown lines for the automated-insights section of the report.

    Inputs come through :mod:`repro.experiments.context`, so the profile
    and sweep are shared (lru + optional ``XSP_PROFILE_CACHE`` disk
    store) with the experiments `generate()` just ran, and are measured
    with the suite's own ``RUNS_PER_LEVEL``.
    """
    from repro.core.session import ProfilingConfig
    from repro.experiments import context
    from repro.insights import advise
    from repro.models import get_model

    model = context.RESNET50_ID if model is None else model
    entry = get_model(model)
    profile = context.model_profile(model, batch)
    # The raw trace for timeline rules: metric-free (no kernel replay).
    run = context.session().profile(
        entry.graph, batch, ProfilingConfig(metrics=())
    )
    report = advise(
        profile,
        trace=run.trace,
        sweep=context.curve(model, tuple(sweep)).latencies_ms,
        peak_device_memory_bytes=run.prediction.peak_device_memory_bytes,
    )
    lines = [
        "## Advisor — automated across-stack insights\n",
        f"`repro advise` output for {entry.name} at batch {batch} on "
        f"Tesla_V100 ({len(report)} insights from "
        f"{len(report.rules_fired)} rules; severity in [0, 1]):\n",
        "```",
        report.render(),
        "```",
        "",
    ]
    return lines


#: Configuration the differential section compares (the paper's Table X
#: framework face-off, replayed through the diff engine).
_DIFF_BATCH = 16
_DIFF_FRAMEWORKS = ("tensorflow_like", "mxnet_like")


def comparison_section(
    model: int | str | None = None,
    batch: int = _DIFF_BATCH,
    frameworks: tuple[str, str] = _DIFF_FRAMEWORKS,
) -> list[str]:
    """Markdown lines for the differential-analysis section of the report.

    Runs ``repro diff`` programmatically on the same model under two
    frameworks (profiles shared with the suite via
    :mod:`repro.experiments.context`), so the report doesn't just list
    the two sides — it narrates what changed between them.
    """
    from repro.analysis.diff import diff_profiles
    from repro.experiments import context
    from repro.models import get_model

    model = context.RESNET50_ID if model is None else model
    entry = get_model(model)
    baseline = context.model_profile(model, batch, framework=frameworks[0])
    candidate = context.model_profile(model, batch, framework=frameworks[1])
    diff = diff_profiles(baseline, candidate)
    lines = [
        "## Differential analysis — `repro diff`\n",
        f"`repro diff` output for {entry.name} at batch {batch}: "
        f"{frameworks[0]} (baseline) vs {frameworks[1]} (candidate) on "
        f"Tesla_V100 — candidate speedup {diff.speedup:.2f}x, "
        f"{len(diff.findings)} findings:\n",
        "```",
        diff.render(min_severity=0.0, max_layers=5),
        "```",
        "",
    ]
    return lines


def generate(output_path: str = "EXPERIMENTS.md") -> str:
    """Run every experiment and write the record to ``output_path``.

    The file is opened before the run, so a path that cannot be written
    fails at once rather than after it.
    """
    with open(output_path, "w") as fh:
        text = _record()
        fh.write(text)
    return text


def _record() -> str:
    start = time.time()
    results = run_all()
    lines = [_HEADER]
    total_checks = passed_checks = 0
    for exp_id in EXPERIMENTS:
        result = results[exp_id]
        total_checks += len(result.checks)
        passed_checks += result.n_passed
        lines.append(f"## {result.exp_id} — {result.title}\n")
        if result.paper:
            lines.append("**Paper:** " + _fmt(result.paper) + "\n")
        if result.measured:
            lines.append("**Measured:** " + _fmt(result.measured) + "\n")
        lines.append("Checks:\n")
        for check in result.checks:
            mark = "x" if check.passed else " "
            detail = f" — {check.detail}" if check.detail else ""
            lines.append(f"- [{mark}] {check.claim}{detail}")
        lines.append("")
        if result.artifact:
            lines.append("```")
            lines.append(result.artifact)
            lines.append("```")
            lines.append("")
    lines.extend(advisor_section())
    lines.extend(comparison_section())
    elapsed = time.time() - start
    lines.append("---\n")
    lines.append(
        f"**Summary:** {passed_checks}/{total_checks} agreement checks "
        f"passed across {len(results)} experiments "
        f"(generated in {elapsed:.0f} s of wall time; all latencies are "
        "deterministic virtual time).\n"
    )
    return "\n".join(lines)


def _fmt(values: dict) -> str:
    parts = []
    for key, value in values.items():
        if isinstance(value, float):
            parts.append(f"{key} = {value:.4g}")
        else:
            parts.append(f"{key} = {value}")
    return "; ".join(parts)


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    generate(target)
    print(f"wrote {target}")
