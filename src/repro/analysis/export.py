"""Table export: CSV and JSON for downstream tooling.

Analysis tables render to text for reports; pipelines that post-process
results (plotting, regression tracking) consume the CSV/JSON forms.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any

from repro.analysis.tables import Table


def table_to_csv(table: Table) -> str:
    """CSV with one header row (column headers) per the table's columns."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow([c.header for c in table.columns])
    for row in table.rows:
        writer.writerow([_csv_value(row.get(c.key)) for c in table.columns])
    return buffer.getvalue()


def table_to_json(table: Table) -> str:
    """JSON document: {title, columns, rows}."""
    return json.dumps(
        {
            "title": table.title,
            "columns": [
                {"key": c.key, "header": c.header} for c in table.columns
            ],
            "rows": [
                {c.key: _json_value(row.get(c.key)) for c in table.columns}
                for row in table.rows
            ],
        }
    )


def _csv_value(value: Any) -> Any:
    if isinstance(value, bool):
        return "yes" if value else "no"
    return value


def _json_value(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return str(value)
