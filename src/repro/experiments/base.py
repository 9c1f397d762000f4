"""Common result container for experiment drivers."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.utils.tables import format_series


@dataclass(slots=True)
class ExperimentResult:
    """One figure-shaped result: named series over a shared x axis.

    ``expectation`` states the paper's qualitative claim the series should
    exhibit; EXPERIMENTS.md pairs it with the measured outcome.
    """

    name: str
    title: str
    x_label: str
    x_values: Sequence[object]
    series: Mapping[str, Sequence[float]]
    expectation: str = ""
    notes: str = ""
    meta: dict = field(default_factory=dict)

    def table(self) -> str:
        """Render the figure as an aligned text table."""
        out = format_series(self.x_label, self.x_values, self.series, title=self.title)
        if self.expectation:
            out += f"\n  paper shape: {self.expectation}"
        if self.notes:
            out += f"\n  notes: {self.notes}"
        return out

    def to_dict(self) -> dict:
        """JSON-serialisable representation (meta reduced to strings)."""
        return {
            "name": self.name,
            "title": self.title,
            "x_label": self.x_label,
            "x_values": list(self.x_values),
            "series": {k: list(v) for k, v in self.series.items()},
            "expectation": self.expectation,
            "notes": self.notes,
            "meta": {k: repr(v) for k, v in self.meta.items()},
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_csv(self) -> str:
        """The figure as CSV: x column followed by one column per series."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        names = list(self.series)
        writer.writerow([self.x_label, *names])
        for i, x in enumerate(self.x_values):
            writer.writerow([x, *(self.series[n][i] for n in names)])
        return buf.getvalue()
