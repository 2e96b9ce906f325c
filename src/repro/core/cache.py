"""Persistent on-disk store for :class:`~repro.core.pipeline.ModelProfile`.

XSP's across-stack profiles are computed offline from captured traces
(paper Sec. III-B/D); the same profile feeds all 15 analyses and any
number of batch sweeps.  This module gives that reuse durability across
*processes*: a profile, once merged, is written to disk as JSON and every
later pipeline/CLI/benchmark invocation with the same coordinates —
(model, system, framework, batch, runs-per-level) — is served from the
store instead of re-running the leveled experiment ladder.

An entry (schema v2) stores the profile by column
(:func:`profile_to_columns`).  The schema is versioned: bump
:data:`SCHEMA_VERSION` whenever the serialized shape (or the semantics
of any stored number) changes and every stale entry silently misses,
forcing a recompute.  Entries also self-describe their key; a lookup
whose stored key disagrees with the requested one (e.g. after a filename
collision) is treated as a miss.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterator

from repro.core.cells import (DICT, INT, LIST, NUMBER, STR, Ints,
                              column_fault, fault)
from repro.core.pipeline import (KERNEL_FIELDS, LAYER_FIELDS, KernelTable,
                                 LayerTable, ModelProfile)
from repro.tracing.table import jsonable

#: Bump on any change to the serialized profile shape or semantics.
SCHEMA_VERSION = 2

_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


def _slug(value: object) -> str:
    return _SAFE.sub("_", str(value))


# -- (de)serialization ------------------------------------------------------


class _Schema:
    """One stored object's fields, in constructor order, with the
    :mod:`~repro.core.cells` kind each must have."""

    def __init__(self, **kinds: Any) -> None:
        self.names = tuple(kinds)
        self.kinds = tuple(kinds.items())
        self.items = itemgetter(*kinds)

    def values(
        self, data: Any, where: str, *, columns: bool = False
    ) -> tuple[Any, ...]:
        """``data``'s values of the fields; a missing or mistyped field
        raises one ValueError naming it (after the path ``where``).  With
        ``columns``, each value is a list of the field's type, and all
        have the first one's length."""
        try:
            values = self.items(data)
        except KeyError as err:
            raise ValueError(f"{where}{err.args[0]}: missing") from None
        except TypeError:
            raise ValueError(f"{where.rstrip('.') or 'profile'}: expected "
                             f"an object, got {data!r:.40}") from None
        for (key, kind), value in zip(self.kinds, values):
            how = (_column_fault(value, kind, values[0]) if columns
                   else fault(value, kind))
            if how:
                raise ValueError(f"{where}{key}{how}")
        return values


def _column_fault(column: Any, kind: tuple, first: list) -> str | None:
    """How ``column`` is not a list of ``kind`` values as long as ``first``,
    checked a column at a time; the first bad cell names the fault."""
    if type(column) is not list:
        return f": expected a list, got {column!r:.40}"
    if len(column) != len(first):
        return f": {len(column)} entries, expected {len(first)}"
    bad = column_fault(column, kind)
    return None if bad is None else f"[{bad[0]}]{bad[1]}"


_KERNEL = _Schema(
    name=STR, layer_index=INT, position=INT, latency_ms=NUMBER,
    flops=NUMBER, dram_read_bytes=NUMBER, dram_write_bytes=NUMBER,
    achieved_occupancy=NUMBER, grid=Ints(3), block=Ints(3),
)
_LAYER = _Schema(
    index=INT, name=STR, layer_type=STR, shape=Ints(), latency_ms=NUMBER,
    alloc_bytes=INT, kernels=LIST,
)
_PROFILE = _Schema(
    model_name=STR, system=STR, framework=STR, batch=INT,
    model_latency_ms=NUMBER, layers=LIST, overheads=DICT, n_runs=INT,
)


_LAYER_COLUMNS = _Schema(**dict(_LAYER.kinds[:-1]), kernel_start=INT)
_COLUMNS_PROFILE = _Schema(**{**dict(_PROFILE.kinds), "layers": DICT},
                           kernels=DICT)


def _header(profile: ModelProfile, schema: _Schema) -> dict[str, Any]:
    """The profile's fields in ``schema`` order and its metadata; the
    writer fills in ``layers`` and ``kernels`` from the tables."""
    header = {name: None if name in ("layers", "kernels")
              else getattr(profile, name) for name in schema.names}
    header["overheads"] = dict(profile.overheads)
    header["metadata"] = {k: jsonable(v) for k, v in profile.metadata.items()}
    return header


def profile_to_dict(profile: ModelProfile) -> dict[str, Any]:
    """Lossless JSON form of a merged profile (floats via repr round-trip),
    an object per layer and kernel, written from the profile's tables."""
    table = profile.kernel_table
    kernels = [dict(zip(KERNEL_FIELDS, row)) for row in zip(*table.columns)]
    starts = table.starts
    return {**_header(profile, _PROFILE), "layers": [
        {**dict(zip(LAYER_FIELDS, layer)), "kernels": kernels[lo:hi]}
        for layer, lo, hi in zip(zip(*profile.layer_table.columns),
                                 starts, starts[1:])]}


def profile_to_columns(profile: ModelProfile) -> dict[str, Any]:
    """The v2 entry payload: the profile's scalars, one list per layer
    field (``kernel_start`` is each layer's first kernel row) and one per
    :data:`~repro.core.pipeline.KERNEL_FIELDS` column."""
    table = profile.kernel_table
    return {**_header(profile, _COLUMNS_PROFILE),
            "layers": {**dict(zip(LAYER_FIELDS, profile.layer_table.columns)),
                       "kernel_start": table.starts[:-1]},
            "kernels": dict(zip(KERNEL_FIELDS, table.columns))}


def _metadata(data: dict) -> dict:
    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValueError(f"metadata: expected an object, got {metadata!r:.40}")
    return dict(metadata)


def _profile(data: dict, scalars: list, overheads: dict, n_runs: int,
             layers: list[list], kernels: list[list],
             starts: list[int]) -> ModelProfile:
    """The profile of checked JSON columns, their lists made tuples."""
    layers[3] = list(map(tuple, layers[3]))  # shapes
    kernels[-2:] = [list(map(tuple, column)) for column in kernels[-2:]]
    return ModelProfile(*scalars, (), dict(overheads), n_runs, _metadata(data),
                        layer_table=LayerTable(layers,
                                               KernelTable(kernels, starts)))


def _transpose(rows: list[tuple], fields: tuple[str, ...]) -> list[list]:
    return [list(column) for column in zip(*rows)] or [[] for _ in fields]


def profile_from_dict(data: Any) -> ModelProfile:
    """The profile :func:`profile_to_dict` wrote.

    The whole document is checked before the tables are filled: a
    missing or mistyped field raises one :class:`ValueError` that names
    it, e.g. ``layers[2].kernels[0].flops: expected a number``.
    """
    *scalars, layers, overheads, n_runs = _PROFILE.values(data, "")
    layer_rows, kernel_rows, starts = [], [], [0]
    for i, layer in enumerate(layers):
        *fields, kernels = _LAYER.values(layer, f"layers[{i}].")
        layer_rows.append(fields)
        kernel_rows += [_KERNEL.values(kernel, f"layers[{i}].kernels[{j}].")
                        for j, kernel in enumerate(kernels)]
        starts.append(len(kernel_rows))
    return _profile(data, scalars, overheads, n_runs,
                    _transpose(layer_rows, LAYER_FIELDS),
                    _transpose(kernel_rows, KERNEL_FIELDS), starts)


def profile_from_columns(data: Any) -> ModelProfile:
    """The profile :func:`profile_to_columns` wrote.

    The whole document is checked before anything is built: a missing
    column, a column of the wrong length, a cell of the wrong JSON type or
    an offset out of order or range raises one :class:`ValueError`
    naming its path.
    """
    *scalars, layers, overheads, n_runs, kernels = _COLUMNS_PROFILE.values(
        data, "")
    *layer_columns, kernel_start = _LAYER_COLUMNS.values(
        layers, "layers.", columns=True)
    columns = list(_KERNEL.values(kernels, "kernels.", columns=True))
    starts = [*kernel_start, len(columns[0])]
    if starts[0] != 0 or starts != sorted(starts):
        raise ValueError(f"layers.kernel_start: expected offsets rising from "
                         f"0 to the kernel count, {starts[-1]}")
    return _profile(data, scalars, overheads, n_runs, layer_columns, columns,
                    starts)


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
        if (not isinstance(document, dict)
                or document.get("schema_version") != SCHEMA_VERSION):
            return None  # stale schema: recompute rather than misread
        if document.get("key") != self.key(
            model, system, framework, batch, runs_per_level, statistic
        ):
            return None
        try:
            return profile_from_columns(document["profile"])
        except (KeyError, ValueError):
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
            "profile": profile_to_columns(profile),
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
