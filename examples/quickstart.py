#!/usr/bin/env python
"""Quickstart: across-stack profile of MLPerf ResNet50 v1.5 on a Tesla V100.

Runs the full XSP pipeline — model-, layer- and GPU-kernel-level tracers,
leveled experimentation, trimmed-mean merging — and prints the complete
15-analysis report, exactly the characterization walked through in
Sec. III-D of the paper.

    python examples/quickstart.py [batch_size]

Set ``XSP_PROFILE_CACHE=/some/dir`` to persist merged profiles on disk:
a repeat invocation is then served entirely from the warm cache and skips
the leveled-experiment ladder.

Next step: ``python -m repro advise --model 7 --batch 256`` (or
``examples/advise.py``) turns this profile into ranked, evidence-backed
bottleneck insights via the rule engine in :mod:`repro.insights`.
"""

import os
import sys

from repro import AnalysisPipeline, XSPSession
from repro.analysis.report import full_report
from repro.core import ProfileStore
from repro.models import get_model


def main() -> None:
    batch = int(sys.argv[1]) if len(sys.argv) > 1 else 256
    entry = get_model("MLPerf_ResNet50_v1.5")

    cache_dir = os.environ.get("XSP_PROFILE_CACHE")
    store = ProfileStore(cache_dir) if cache_dir else None

    session = XSPSession(system="Tesla_V100", framework="tensorflow_like")
    pipeline = AnalysisPipeline(session, runs_per_level=3, store=store)

    print(f"profiling {entry.name} at batch {batch} on Tesla_V100 ...")
    profile = pipeline.profile_model(entry.graph, batch)
    sweep = pipeline.sweep(entry.graph, [1, 8, 32, batch])

    print()
    print(full_report(profile, sweep))


if __name__ == "__main__":
    main()
