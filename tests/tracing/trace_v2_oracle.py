"""The trace file format v2 writer, kept as a test oracle.

Format v2 stored each ``SpanTable`` column as a plain JSON list, the
name and schema pools, one flat list holding every row's tag values
back to back, and the sparse logs.  The repo now writes format v3
(packed integer columns and one tag-value pool) and still reads v2, so
this writer produces the v2 documents the tests load and compare with
v3: both must load to the same table, tags and Chrome trace.

Imported as a plain module (``import trace_v2_oracle``) by the tests in
this directory; ``benchmarks/bench_trace_export.py`` loads it by path.
"""

from __future__ import annotations

import json
from typing import Any

from repro.tracing.table import (
    _STORED_COLUMNS,
    JSON_SCALARS,
    SpanTable,
    _logs_to_list,
    jsonable,
)
from repro.tracing.trace import Trace


def table_to_columns(table: SpanTable) -> dict[str, list]:
    """The rows below the watermark as a format-v2 table.

    Each stored column is a plain list (``-1`` means none; ``level`` and
    ``kind`` are column codes), next to the ``names`` and ``schemas``
    pools, the flat ``values`` list (values that are not JSON scalars
    pass through ``jsonable``) and the sparse ``logs`` as ``[row,
    [[timestamp_ns, fields], ...]]`` pairs.  The pools stop at the
    highest code a row uses.
    """
    n = len(table)
    names, schemas = table.pools()
    document = {
        name: getattr(table, name)[:n].tolist()
        for name, _ in _STORED_COLUMNS
    }
    schemas = schemas[:max(document["tag_schema"], default=-1) + 1]
    end = (
        table.tag_start[n - 1] + len(schemas[table.tag_schema[n - 1]])
        if n else 0
    )
    document["names"] = names[:max(document["name_id"], default=-1) + 1]
    document["schemas"] = [[str(key) for key in keys] for keys in schemas]
    document["values"] = [
        value if type(value) in JSON_SCALARS else jsonable(value)
        for value in table._values[:end]
    ]
    document["logs"] = [
        [row, _logs_to_list(entries)]
        for row, entries in sorted(table._logs.items()) if row < n
    ]
    return document


def trace_to_json(trace: Trace) -> str:
    """``trace`` as a format-v2 trace file."""
    return json.dumps(trace_to_dict(trace))


def trace_to_dict(trace: Trace) -> dict[str, Any]:
    """``trace`` as a parsed format-v2 trace file."""
    return {
        "format_version": 2,
        "trace_id": trace.trace_id,
        "metadata": {k: jsonable(v) for k, v in trace.metadata.items()},
        "table": table_to_columns(trace.table),
    }
