"""Experiment tables and their markdown rendering — the report layer's
output primitive.

:class:`ExperimentTable` holds the rows of one sweep in the shape the
paper's figures plot (``SweepReport.table()`` and
``repro.perfmodel.evaluate_sweep`` both produce one); everything printed to
a terminal or written to ``EXPERIMENTS.md`` — simulated sweeps, the
analytical-model figures, the store-backed replicate aggregates — renders
through :func:`markdown_table` / :func:`markdown_rows`, so there is one
table dialect.  Rendering is pure and deterministic: the same inputs always
produce the same bytes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Sequence


class DuplicateSeriesKeyWarning(UserWarning):
    """Two table rows mapped to the same series key: data is being dropped.

    Almost always means the ``series()`` filters are too loose (e.g. a
    missing ``system=...`` filter on a multi-system table), so the series
    silently kept only the last row per key.
    """


@dataclass
class ExperimentTable:
    """Rows of one experiment, in the same shape as the paper's plot series."""

    name: str
    columns: Sequence[str]
    rows: List[Dict[str, object]] = field(default_factory=list)

    def add(self, **values: object) -> None:
        self.rows.append(values)

    def column(self, name: str) -> List[object]:
        return [row.get(name) for row in self.rows]

    def series(
        self,
        key_column: str,
        value_column: str,
        strict: bool = False,
        **filters: object,
    ) -> Dict[object, object]:
        """Return a ``{key: value}`` series optionally filtered by other columns.

        A duplicate key among the filtered rows means the filters do not
        uniquely identify one row per key and the series would silently drop
        data: a :class:`DuplicateSeriesKeyWarning` is emitted (the last row
        still wins, as before), or :class:`ValueError` raised with
        ``strict=True``.
        """
        selected: Dict[object, object] = {}
        for row in self.rows:
            if all(row.get(column) == expected for column, expected in filters.items()):
                key = row.get(key_column)
                if key in selected:
                    message = (
                        f"table {self.name!r}: duplicate series key {key!r} for "
                        f"key_column={key_column!r} with filters {filters!r} — "
                        f"value {selected[key]!r} overwritten by "
                        f"{row.get(value_column)!r}"
                    )
                    if strict:
                        raise ValueError(message)
                    warnings.warn(message, DuplicateSeriesKeyWarning, stacklevel=2)
                selected[key] = row.get(value_column)
        return selected

    def __len__(self) -> int:
        return len(self.rows)


def format_value(value: object, float_format: str = "{:,.3f}") -> str:
    """One table cell: floats through ``float_format``, the rest via str."""
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        return float_format.format(value)
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def markdown_rows(columns: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """A GitHub-markdown table from pre-rendered cells."""
    lines = [
        "| " + " | ".join(columns) + " |",
        "|" + "|".join("---" for _ in columns) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def markdown_table(table: ExperimentTable, float_format: str = "{:,.3f}") -> str:
    """Render an :class:`ExperimentTable` as markdown (a None cell is blank)."""
    columns = list(table.columns)
    rendered: List[List[str]] = [
        [
            "" if row.get(column) is None else format_value(row[column], float_format)
            for column in columns
        ]
        for row in table.rows
    ]
    return markdown_rows(columns, rendered)
