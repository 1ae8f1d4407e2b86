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
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _cell(v) -> str:
    """format_value, quoted as in RFC 4180 when it holds a comma, quote or line break
    (a tuple label does)."""
    text = format_value(v)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


@dataclass
class ResultTable:
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def append(self, *values):
        if len(values) != len(self.columns):
            raise ValueError("row width mismatch")
        self.rows.append(tuple(values))

    def to_csv(self, reproducible: bool = False) -> str:
        lines = []
        for key, value in self.meta.items():
            lines.append(f"# {key} = {format_value(value)}")
        if not reproducible:
            stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
            lines.append(f"# generated-at = {stamp}")
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_cell(v) for v in row))
        return "\n".join(lines) + "\n"
