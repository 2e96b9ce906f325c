"""Benchmark harness configuration.

Every benchmark regenerates one of the paper's tables/figures via
:mod:`repro.experiments` and asserts its qualitative agreement checks.
Expensive experiments run one round (`pedantic`); the timing reported is
the full regenerate-from-scratch cost for that artifact (measurement +
analysis), with the shared measurement context reused across benchmarks
exactly as the XSP pipeline reuses traces across analyses.
"""

from __future__ import annotations

import pytest


def run_experiment(benchmark, runner, *, rounds: int = 1):
    """Benchmark one experiment runner and validate its checks."""
    result = benchmark.pedantic(runner, rounds=rounds, iterations=1)
    failed = [c.claim for c in result.checks if not c.passed]
    assert not failed, f"{result.exp_id} checks failed: {failed}"
    return result


#: Benchmark modules that build their workloads synthetically and never
#: touch the shared experiment context; a run collecting only these
#: (e.g. the CI quick-pattern gate) skips the expensive warm-up.
_SYNTHETIC_MODULES = {
    "bench_ablation_interval_tree",
    "bench_diff_engine",
    "bench_incremental_index",
    "bench_insights_engine",
    "bench_live_refresh",
    "bench_native_format",
    "bench_plan_replay",
    "bench_profile_table",
    "bench_span_table",
    "bench_trace_export",
}


@pytest.fixture(scope="session", autouse=True)
def _warm_shared_context(request):
    """Pre-build the shared ResNet50 profile so per-benchmark timings
    reflect each artifact's own work, not the shared warm-up."""
    if all(
        item.module.__name__ in _SYNTHETIC_MODULES
        for item in request.session.items
    ):
        yield
        return
    from repro.experiments import context

    context.model_profile(context.RESNET50_ID, 256)
    yield
