"""ASCII line plots for figure series.

Good enough to see curve ordering and crossovers in a terminal: each series
gets a distinct glyph, points are placed on a character canvas with linear
interpolation between consecutive points, and a legend maps glyphs back to
series names.
"""

from __future__ import annotations

from typing import Mapping, Sequence

_GLYPHS = "ox+*#@%&^~"

#: Canvas size in characters.
WIDTH, HEIGHT = 72, 20


def _scale(value: float, lo: float, hi: float, steps: int) -> int:
    if hi <= lo:
        return 0
    fraction = (value - lo) / (hi - lo)
    return max(0, min(steps - 1, round(fraction * (steps - 1))))


def line_plot(
    data: Mapping[str, Sequence[tuple[float, float]]],
    title: str = "",
    x_label: str = "x",
) -> str:
    """Plot named series of (x, y) points on a :data:`WIDTH` x
    :data:`HEIGHT` character canvas."""
    width, height = WIDTH, HEIGHT
    if not data:
        raise ValueError("nothing to plot")
    all_points = [p for series in data.values() for p in series]
    if not all_points:
        raise ValueError("all series are empty")
    x_lo = min(p[0] for p in all_points)
    x_hi = max(p[0] for p in all_points)
    y_lo = min(p[1] for p in all_points)
    y_hi = max(p[1] for p in all_points)
    if y_hi == y_lo:  # flat plot: pad the range so the line sits mid-canvas
        y_lo -= 0.5
        y_hi += 0.5

    canvas = [[" " for _ in range(width)] for _ in range(height)]
    for glyph, (name, series) in zip(_GLYPHS, data.items()):
        previous: tuple[int, int] | None = None
        for x, y in series:
            col = _scale(x, x_lo, x_hi, width)
            row = _scale(y, y_lo, y_hi, height)
            if previous is not None:
                # Interpolate between consecutive points so curves read as
                # lines rather than scattered dots.
                pc, pr = previous
                steps = max(abs(col - pc), abs(row - pr))
                for i in range(1, steps):
                    ic = pc + round(i * (col - pc) / steps)
                    ir = pr + round(i * (row - pr) / steps)
                    if canvas[ir][ic] == " ":
                        canvas[ir][ic] = glyph
            canvas[row][col] = glyph
            previous = (col, row)

    lines = []
    if title:
        lines.append(title)
    label_hi = f"{y_hi:.3g}"
    label_lo = f"{y_lo:.3g}"
    margin = max(len(label_hi), len(label_lo))
    for row in range(height - 1, -1, -1):
        if row == height - 1:
            prefix = label_hi.rjust(margin)
        elif row == 0:
            prefix = label_lo.rjust(margin)
        else:
            prefix = " " * margin
        lines.append(prefix + " |" + "".join(canvas[row]))
    lines.append(" " * margin + " +" + "-" * width)
    x_axis = f"{x_lo:g}".ljust(width - 12) + f"{x_hi:g} ({x_label})"
    lines.append(" " * (margin + 2) + x_axis)
    legend = "   ".join(
        f"{glyph}={name}" for glyph, name in zip(_GLYPHS, data.keys())
    )
    lines.append(" " * (margin + 2) + legend)
    return "\n".join(lines)
