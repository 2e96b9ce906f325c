"""Diff inputs: profiles from store entries, profile JSONs, or raw traces.

``repro diff`` accepts either side of a comparison in three shapes:

* **store coordinates** — resolved against a
  :class:`~repro.core.cache.ProfileStore` (the PR 1 cache becomes A/B
  infrastructure: every cached entry is a comparable artifact),
* **a saved profile JSON** — a store document (``schema_version`` +
  ``key`` + ``profile``) or a bare profile payload, by column (store
  v2) or one object per layer and kernel (:func:`profile_to_dict`),
* **a saved trace JSON** — a ``repro trace --output`` capture, converted
  to a single-run :class:`~repro.core.pipeline.ModelProfile` via
  :func:`profile_from_trace` (layer spans supply latencies, correlated
  execution spans supply the kernels and their ``metric.*`` tags).
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.pipeline import ModelProfile, profile_from_trace
from repro.tracing.export import trace_from_dict


def profile_from_document(document: dict[str, Any]) -> ModelProfile:
    """A profile from an already-parsed JSON document (store or bare)."""
    # Imported here: cache imports pipeline; keep this module light to load.
    from repro.core.cache import profile_from_columns, profile_from_dict

    if "profile" in document and "schema_version" in document:
        document = document["profile"]
    elif "layers" not in document or "model_name" not in document:
        raise ValueError(
            "JSON document is neither a profile-store entry, a bare "
            "profile, nor a trace"
        )
    # Layers by column (store schema v2) or one object each (v1).
    if isinstance(document, dict) and type(document.get("layers")) is dict:
        return profile_from_columns(document)
    return profile_from_dict(document)


def load_profile_json(path: str) -> ModelProfile:
    """Load either a saved profile JSON or a saved trace JSON as a profile."""
    with open(path) as fh:
        text = fh.read()
    try:
        document = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: not valid JSON ({err})") from err
    if not isinstance(document, dict):
        raise ValueError(f"{path}: expected a JSON object")
    try:
        if "format_version" in document:  # a trace file, of any version
            return profile_from_trace(trace_from_dict(document))
        return profile_from_document(document)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err
