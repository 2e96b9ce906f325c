"""Across-stack differential analysis: what changed between two profiles.

XSP's comparisons (paper Tables VIII-X) put the same model on two
systems or frameworks and explain the gap.  This package automates that:

* :func:`diff_profiles` — align two
  :class:`~repro.core.pipeline.ModelProfile`\\ s (layers by
  index/name/type with tolerance for inserts and renames, kernels
  per-layer by name) into a :class:`ProfileDiff` of per-layer /
  per-kernel deltas, model-level rollups, and ranked
  :class:`DiffFinding`\\ s (regression / improvement / new-hotspot /
  kernel-mix-shift) whose evidence resolves against both sources.
* :func:`diff_campaigns` / :class:`CampaignDiff` — grid-vs-grid A/B
  (``CampaignResult.diff(other)``), including OOM-point set differences.
* :func:`load_profile_json` / :func:`profile_from_trace` — diff inputs
  from saved profile JSONs, store entries, or raw trace captures.
* the ``repro diff`` CLI wires all of it up, with a
  ``--max-regression`` exit-code gate for CI use.
"""

from repro.analysis.diff.align import align_layers
from repro.analysis.diff.campaign import CampaignDiff, diff_campaigns
from repro.analysis.diff.engine import classify, diff_profiles
from repro.analysis.diff.model import (
    Delta,
    DiffFinding,
    KernelDelta,
    LayerDelta,
    ProfileDiff,
)
from repro.analysis.diff.sources import (
    load_profile_json,
    profile_from_document,
    profile_from_trace,
)

__all__ = [
    "CampaignDiff",
    "Delta",
    "DiffFinding",
    "KernelDelta",
    "LayerDelta",
    "ProfileDiff",
    "align_layers",
    "classify",
    "diff_campaigns",
    "diff_profiles",
    "load_profile_json",
    "profile_from_document",
    "profile_from_trace",
]
