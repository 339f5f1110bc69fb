"""Tabular results with deterministic CSV/JSON serialization.

CSV layout: one `# schema=<name>` comment line, a header line, then data
rows.  '.' decimal, ',' separator, LF line endings, floats at 12 significant
digits, so identical inputs serialize to identical bytes.  A block of rows
of the header's width whose cells are all Python floats goes out through one
format string built from that same float format, so it matches the per-cell
route byte for byte; any other block goes row by row through `csv.writer`,
which quotes where needed.  JSON writes floats at the same 12 digits, a
non-finite float as null and -0.0 as 0.0.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace
from typing import Any

#: The one CSV float format: 12 significant digits.
_FLOAT = "%.12g"
#: Rows per format call on the all-float route; blocks bound the transient cell tuple and text.
_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class Table:
    schema: str
    columns: tuple[str, ...]
    rows: list[tuple]

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]


def _format_value(value: Any) -> Any:
    if value is None:
        return ""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int,)):
        return str(value)
    if isinstance(value, float):
        return _FLOAT % (value + 0.0)  # + 0.0 turns -0.0 into 0
    return str(value)


def render_csv(table: Table) -> str:
    lines = [f"# schema={table.schema}\n"]
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    writer.writerow(table.columns)
    width = len(table.columns)
    float_row = ",".join([_FLOAT] * width) + "\n"
    for start in range(0, len(table.rows), _BLOCK_ROWS):
        block = table.rows[start : start + _BLOCK_ROWS]
        cells = [v for row in block for v in row]
        # Widths are checked per row: rows of 7 and 9 cells under 8 columns add up to 16.
        if set(map(len, block)) == {width} and set(map(type, cells)) == {float}:
            lines.append((float_row * len(block)) % tuple([v + 0.0 for v in cells]))  # + 0.0 turns -0.0 into 0
        else:
            for row in block:
                writer.writerow([_format_value(v) for v in row])
    return "".join(lines)


def _json_value(value: Any) -> Any:
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float):
        if not math.isfinite(value):
            return None  # JSON (RFC 8259) has no NaN or infinity
        # Round-trips exactly while keeping payloads readable; + 0.0 turns -0.0 into 0.0.
        return float(_FLOAT % value) + 0.0
    return value


def render_json(table: Table, metadata: dict | None = None) -> str:
    payload = {
        "schema_version": table.schema,
        "columns": list(table.columns),
        "rows": [[_json_value(v) for v in row] for row in table.rows],
        "metadata": metadata or {},
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def render(table: Table, fmt: str, metadata: dict | None = None) -> str:
    if fmt == "csv":
        return render_csv(table)
    if fmt == "json":
        return render_json(table, metadata)
    raise ValueError(f"unknown output format {fmt!r}")
