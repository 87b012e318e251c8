"""Curses-free ANSI dashboard for live runs (``repro top``).

Pure text rendering: :func:`sparkline` compresses a series into one line
of block glyphs, :class:`Dashboard.render` lays out every series in an
:class:`~repro.obs.timeseries.Observatory` with its latest value, range,
and an alert banner.  ``repro top`` redraws by printing
:meth:`Dashboard.frame` (cursor-home + clear-to-end, no curses), so the
same renderer drives the live view, ``--once`` snapshots, and tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from repro.obs.timeseries import Observatory

#: Eight block levels, lowest to highest.
SPARK_GLYPHS = "▁▂▃▄▅▆▇█"

_HOME_AND_CLEAR = "\x1b[H\x1b[0J"
_RED_REVERSE = "\x1b[1;97;41m"
_DIM = "\x1b[2m"
_BOLD = "\x1b[1m"
_RESET = "\x1b[0m"


def sparkline(values: Sequence[float], width: int = 48) -> str:
    """One-line sparkline of ``values``, at most ``width`` glyphs wide.

    Longer series are resampled by picking ``width`` evenly spaced points
    (deterministic -- same series, same line).  A flat series renders at
    the lowest level so "nothing happening" looks quiet, not maxed out.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1 (got {width})")
    if not values:
        return ""
    if len(values) > width:
        step = len(values) / width
        values = [values[int(i * step)] for i in range(width)]
    lo = min(values)
    hi = max(values)
    span = hi - lo
    if span <= 0:
        return SPARK_GLYPHS[0] * len(values)
    top = len(SPARK_GLYPHS) - 1
    return "".join(
        SPARK_GLYPHS[min(top, int((v - lo) / span * len(SPARK_GLYPHS)))] for v in values
    )


def format_value(value: float) -> str:
    """Compact human form: 950 -> ``950``, 1234567 -> ``1.23M``."""
    magnitude = abs(value)
    for cutoff, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if magnitude >= cutoff:
            return f"{value / cutoff:.2f}{suffix}"
    if value == int(value):
        return str(int(value))
    return f"{value:.2f}"


class Dashboard:
    """Renders one observatory as a fixed-layout text panel."""

    def __init__(
        self,
        observatory: "Observatory",
        width: int = 48,
        color: bool = True,
    ):
        self.observatory = observatory
        self.width = int(width)
        self.color = color

    def _paint(self, text: str, code: str) -> str:
        return f"{code}{text}{_RESET}" if self.color else text

    def render(self) -> str:
        """The full panel as plain lines (no cursor control)."""
        obs = self.observatory
        store = obs.store
        tick = store.last_tick()
        firing = obs.alerts.active
        fired = len(obs.alerts.firings)
        title = (
            f"repro top  t={tick:g}  series={len(store)}  "
            f"alerts fired={fired}" if tick is not None
            else "repro top  (no samples yet)"
        )
        lines = [self._paint(title, _BOLD)]
        if firing:
            banner = "  ALERT: " + ", ".join(firing) + "  "
            lines.append(self._paint(banner, _RED_REVERSE))
        elif fired:
            lines.append(self._paint(f"  {fired} alert(s) fired, none active  ", _DIM))
        names = tuple(store.names())
        label_width = max((len(name) for name in names), default=0)
        for name in names:
            ts = store.get(name)
            lo, hi = ts.bounds()
            spark = sparkline(ts.values, self.width)
            lines.append(
                f"{name:<{label_width}}  {spark:<{self.width}}  "
                f"{format_value(ts.values[-1]):>8}  "
                + self._paint(f"[{format_value(lo)} .. {format_value(hi)}]", _DIM)
            )
        for alert in obs.alerts.firings[-3:]:
            lines.append(self._paint(f"  ! {alert}", _DIM))
        return "\n".join(lines) + "\n"

    def frame(self) -> str:
        """One live redraw: cursor home + clear-to-end + the panel."""
        prefix = _HOME_AND_CLEAR if self.color else ""
        return prefix + self.render()
