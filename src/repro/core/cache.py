"""Persistent on-disk store for :class:`~repro.core.pipeline.ModelProfile`.

XSP's across-stack profiles are computed offline from captured traces
(paper Sec. III-B/D); the same profile feeds all 15 analyses and any
number of batch sweeps.  This module gives that reuse durability across
*processes*: a profile, once merged, is written to disk as JSON and every
later pipeline/CLI/benchmark invocation with the same coordinates —
(model, system, framework, batch, runs-per-level) — is served from the
store instead of re-running the leveled experiment ladder.

The schema is versioned: bump :data:`SCHEMA_VERSION` whenever the
serialized shape (or the semantics of any stored number) changes and
every stale entry silently misses, forcing a recompute.  Entries also
self-describe their key; a lookup whose stored key disagrees with the
requested one (e.g. after a filename collision) is treated as a miss.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from pathlib import Path
from typing import Any, Iterator

from repro.core.pipeline import KernelProfile, LayerProfile, ModelProfile
from repro.tracing.table import jsonable

#: Bump on any change to the serialized profile shape or semantics.
SCHEMA_VERSION = 1

_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


def _slug(value: object) -> str:
    return _SAFE.sub("_", str(value))


# -- (de)serialization ------------------------------------------------------


def kernel_to_dict(kernel: KernelProfile) -> dict[str, Any]:
    return {
        "name": kernel.name,
        "layer_index": kernel.layer_index,
        "position": kernel.position,
        "latency_ms": kernel.latency_ms,
        "flops": kernel.flops,
        "dram_read_bytes": kernel.dram_read_bytes,
        "dram_write_bytes": kernel.dram_write_bytes,
        "achieved_occupancy": kernel.achieved_occupancy,
        "grid": list(kernel.grid),
        "block": list(kernel.block),
    }


def kernel_from_dict(data: dict[str, Any]) -> KernelProfile:
    return KernelProfile(
        name=data["name"],
        layer_index=data["layer_index"],
        position=data["position"],
        latency_ms=data["latency_ms"],
        flops=data["flops"],
        dram_read_bytes=data["dram_read_bytes"],
        dram_write_bytes=data["dram_write_bytes"],
        achieved_occupancy=data["achieved_occupancy"],
        grid=tuple(data["grid"]),
        block=tuple(data["block"]),
    )


def layer_to_dict(layer: LayerProfile) -> dict[str, Any]:
    return {
        "index": layer.index,
        "name": layer.name,
        "layer_type": layer.layer_type,
        "shape": list(layer.shape),
        "latency_ms": layer.latency_ms,
        "alloc_bytes": layer.alloc_bytes,
        "kernels": [kernel_to_dict(k) for k in layer.kernels],
    }


def layer_from_dict(data: dict[str, Any]) -> LayerProfile:
    return LayerProfile(
        index=data["index"],
        name=data["name"],
        layer_type=data["layer_type"],
        shape=tuple(data["shape"]),
        latency_ms=data["latency_ms"],
        alloc_bytes=data["alloc_bytes"],
        kernels=[kernel_from_dict(k) for k in data["kernels"]],
    )


def profile_to_dict(profile: ModelProfile) -> dict[str, Any]:
    """Lossless JSON form of a merged profile (floats via repr round-trip)."""
    return {
        "model_name": profile.model_name,
        "system": profile.system,
        "framework": profile.framework,
        "batch": profile.batch,
        "model_latency_ms": profile.model_latency_ms,
        "layers": [layer_to_dict(layer) for layer in profile.layers],
        "overheads": dict(profile.overheads),
        "n_runs": profile.n_runs,
        "metadata": {k: jsonable(v) for k, v in profile.metadata.items()},
    }


def profile_from_dict(data: dict[str, Any]) -> ModelProfile:
    return ModelProfile(
        model_name=data["model_name"],
        system=data["system"],
        framework=data["framework"],
        batch=data["batch"],
        model_latency_ms=data["model_latency_ms"],
        layers=[layer_from_dict(layer) for layer in data["layers"]],
        overheads=dict(data["overheads"]),
        n_runs=data["n_runs"],
        metadata=dict(data.get("metadata", {})),
    )


# -- the store --------------------------------------------------------------


class ProfileStore:
    """Directory of versioned, keyed :class:`ModelProfile` JSON documents.

    One file per (model, system, framework, batch, runs_per_level)
    combination.  Writes are atomic (temp file + rename), so a crashed or
    concurrent writer can never leave a half-written entry that a reader
    would trust; unreadable or mismatched entries degrade to cache misses.
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- keying -----------------------------------------------------------
    @staticmethod
    def key(
        model: str, system: str, framework: str, batch: int,
        runs_per_level: int, statistic: str = "trimmed_mean",
    ) -> dict[str, Any]:
        return {
            "model": model,
            "system": system,
            "framework": framework,
            "batch": batch,
            "runs_per_level": runs_per_level,
            "statistic": statistic,
        }

    def path_for(
        self, model: str, system: str, framework: str, batch: int,
        runs_per_level: int, statistic: str = "trimmed_mean",
    ) -> Path:
        name = (
            f"{_slug(model)}__{_slug(system)}__{_slug(framework)}"
            f"__b{batch}__r{runs_per_level}__{_slug(statistic)}.json"
        )
        return self.root / name

    # -- operations --------------------------------------------------------
    def get(
        self, model: str, system: str, framework: str, batch: int,
        runs_per_level: int, statistic: str = "trimmed_mean",
    ) -> ModelProfile | None:
        """The stored profile, or ``None`` on any kind of miss."""
        path = self.path_for(
            model, system, framework, batch, runs_per_level, statistic
        )
        try:
            with open(path) as fh:
                document = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if document.get("schema_version") != SCHEMA_VERSION:
            return None  # stale schema: recompute rather than misread
        if document.get("key") != self.key(
            model, system, framework, batch, runs_per_level, statistic
        ):
            return None
        try:
            return profile_from_dict(document["profile"])
        except (KeyError, TypeError, ValueError):
            return None

    def put(
        self, profile: ModelProfile, *, runs_per_level: int,
        statistic: str = "trimmed_mean",
    ) -> Path:
        """Persist ``profile`` under its coordinates; returns the path."""
        path = self.path_for(
            profile.model_name, profile.system, profile.framework,
            profile.batch, runs_per_level, statistic,
        )
        document = {
            "schema_version": SCHEMA_VERSION,
            "key": self.key(
                profile.model_name, profile.system, profile.framework,
                profile.batch, runs_per_level, statistic,
            ),
            "profile": profile_to_dict(profile),
        }
        fd, tmp = tempfile.mkstemp(
            dir=self.root, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                # One dumps() call runs the C encoder; json.dump() streams
                # through the pure-Python one.  The bytes are identical.
                fh.write(json.dumps(document))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def clear(self) -> int:
        """Delete every entry — and any ``*.tmp`` orphan a crashed
        :meth:`put` left behind — returning the number removed."""
        removed = 0
        for pattern in ("*.json", "*.tmp"):
            for path in self.root.glob(pattern):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def entries(self) -> Iterator[Path]:
        """Committed entries only; in-flight/orphaned ``.tmp`` files are
        never visible (the explicit filter guards against a future key
        scheme whose names could make ``*.json`` match them)."""
        return iter(sorted(
            path for path in self.root.glob("*.json")
            if not path.name.endswith(".tmp")
        ))

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())
