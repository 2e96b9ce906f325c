"""Lightweight typed tables for analysis output.

Every analysis renders to a :class:`Table`: ordered columns with format
specs, dict rows, text rendering for reports/benchmarks, and sorting
helpers.  Deliberately dependency-free (no pandas)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence


@dataclass(frozen=True)
class Column:
    """One table column."""

    key: str
    header: str
    fmt: str = ""  # format spec applied to the value ("", ".2f", ",")
    align: str = ">"  # alignment in text rendering

    def format(self, value: Any) -> str:
        if value is None:
            return "-"
        if isinstance(value, bool):
            return "yes" if value else "no"
        if self.fmt:
            try:
                return format(value, self.fmt)
            except (TypeError, ValueError):
                return str(value)
        return str(value)


@dataclass
class Table:
    """An ordered collection of dict rows with typed columns."""

    title: str
    columns: Sequence[Column]
    rows: list[dict[str, Any]] = field(default_factory=list)

    def add(self, **row: Any) -> None:
        self.rows.append(row)

    def extend(self, rows: Iterable[dict[str, Any]]) -> None:
        self.rows.extend(rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column(self, key: str) -> list[Any]:
        return [row.get(key) for row in self.rows]

    def sorted_by(
        self, key: str | Callable[[dict[str, Any]], Any], reverse: bool = False
    ) -> "Table":
        if callable(key):
            keyfn = key
        else:
            # None-safe: missing values sort last regardless of direction.
            def keyfn(row: dict[str, Any]):
                value = row.get(key)
                missing = value is None
                return (missing != reverse, value if not missing else 0)
        return Table(
            title=self.title,
            columns=self.columns,
            rows=sorted(self.rows, key=keyfn, reverse=reverse),
        )

    def head(self, n: int) -> "Table":
        return Table(title=self.title, columns=self.columns, rows=self.rows[:n])

    def where(self, predicate: Callable[[dict[str, Any]], bool]) -> "Table":
        return Table(
            title=self.title,
            columns=self.columns,
            rows=[r for r in self.rows if predicate(r)],
        )

    def render(self, max_rows: int | None = None) -> str:
        """Plain-text rendering with a title rule and aligned columns."""
        rows = self.rows if max_rows is None else self.rows[:max_rows]
        cells = [[c.format(row.get(c.key)) for c in self.columns] for row in rows]
        headers = [c.header for c in self.columns]
        widths = [
            max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
            for i, h in enumerate(headers)
        ]
        lines = [self.title, "=" * len(self.title)]
        lines.append(
            "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append(
                "  ".join(
                    format(cell, f"{self.columns[i].align}{widths[i]}")
                    for i, cell in enumerate(row)
                )
            )
        if max_rows is not None and len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)
