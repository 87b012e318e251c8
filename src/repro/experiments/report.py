"""Rendering of experiment results.

A :class:`FigureSeries` is the reproduction of one paper figure: an x axis
(number of faults, usually) and one named series per curve, each point
carrying a value and a 95% confidence half-width.  It renders as an aligned
text table (the "same rows the paper plots"), a CSV dump, and an ASCII line
plot via :mod:`repro.viz.plots`.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

from repro.analysis.statistics import Estimate


@dataclass
class FigureSeries:
    """One reproduced figure's data."""

    figure_id: str
    title: str
    x_label: str
    xs: list[float] = field(default_factory=list)
    series: dict[str, list[Estimate]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def add_point(self, name: str, estimate: Estimate) -> None:
        self.series.setdefault(name, []).append(estimate)

    def column(self, name: str) -> list[float]:
        return [estimate.value for estimate in self.series[name]]

    def validate(self) -> None:
        for name, points in self.series.items():
            if len(points) != len(self.xs):
                raise ValueError(
                    f"series {name!r} has {len(points)} points for {len(self.xs)} x values"
                )

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def to_table(self) -> str:
        """Aligned text table, one row per x value (4 decimals)."""
        self.validate()
        headers = [self.x_label] + list(self.series)
        rows: list[list[str]] = []
        for i, x in enumerate(self.xs):
            row = [f"{x:g}"]
            for name in self.series:
                row.append(f"{self.series[name][i].value:.4f}")
            rows.append(row)
        widths = [
            max(len(headers[c]), *(len(r[c]) for r in rows)) if rows else len(headers[c])
            for c in range(len(headers))
        ]
        out = io.StringIO()
        out.write(f"== {self.figure_id}: {self.title} ==\n")
        out.write("  ".join(h.rjust(w) for h, w in zip(headers, widths)) + "\n")
        out.write("  ".join("-" * w for w in widths) + "\n")
        for row in rows:
            out.write("  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + "\n")
        for note in self.notes:
            out.write(f"note: {note}\n")
        return out.getvalue()

    def to_csv(self) -> str:
        self.validate()
        out = io.StringIO()
        headers = [self.x_label]
        for name in self.series:
            headers += [name, f"{name}_ci95"]
        out.write(",".join(headers) + "\n")
        for i, x in enumerate(self.xs):
            cells = [f"{x:g}"]
            for name in self.series:
                estimate = self.series[name][i]
                cells += [f"{estimate.value:.6f}", f"{estimate.half_width:.6f}"]
            out.write(",".join(cells) + "\n")
        return out.getvalue()

    def to_ascii_plot(self) -> str:
        from repro.viz.plots import line_plot

        self.validate()
        data = {name: list(zip(self.xs, self.column(name))) for name in self.series}
        return line_plot(
            data,
            title=f"{self.figure_id}: {self.title}",
            x_label=self.x_label,
        )

    def render(self, with_plot: bool = True) -> str:
        parts = [self.to_table()]
        if with_plot:
            parts.append(self.to_ascii_plot())
        return "\n".join(parts)
