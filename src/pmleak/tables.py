"""Result tables with reproducible CSV output.

CSV is the canonical output format: comma-separated, '.' decimal point,
floats printed with 17 significant digits so runs diff cleanly.  Every
parameter that influenced a run is embedded as '# key = value' comment
rows; a timestamp line is added unless the run is marked reproducible.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field


def format_value(v) -> str:
    if isinstance(v, float):
        return "%.17g" % v
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    return str(v)


#: what makes a cell need RFC 4180 quotes: a comma, a quote or a line break
_SPECIAL = ',"\r\n'


def _quoted(text: str) -> bool:
    return any(c in text for c in _SPECIAL)


def _cells(values) -> list:
    """format_value of a whole column, quoted as in RFC 4180 where a cell
    holds a comma, quote or line break (a tuple label does); a column with
    none is scanned once."""
    cells = list(map(format_value, values))
    if not _quoted("".join(cells)):
        return cells
    return ['"' + c.replace('"', '""') + '"' if _quoted(c) else c for c in cells]


@dataclass
class ResultTable:
    """Whole columns by name, in order, with the run's parameters as `meta`."""

    columns: dict
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len({len(values) for values in self.columns.values()}) > 1:
            raise ValueError("column length mismatch")

    def to_csv(self, reproducible: bool = False) -> str:
        lines = [f"# {key} = {format_value(value)}" for key, value in self.meta.items()]
        if not reproducible:
            stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
            lines.append(f"# generated-at = {stamp}")
        lines.append(",".join(self.columns))
        lines += map(",".join, zip(*map(_cells, self.columns.values())))
        return "\n".join(lines) + "\n"
