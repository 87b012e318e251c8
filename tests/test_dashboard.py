"""ANSI dashboard rendering: sparklines, panel layout, alert banner."""

import pytest

from repro.obs import Dashboard, Observatory, ThresholdRule, sparkline
from repro.obs.dashboard import SPARK_GLYPHS, format_value


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_series_renders_quiet(self):
        assert sparkline([5.0, 5.0, 5.0]) == SPARK_GLYPHS[0] * 3

    def test_ramp_uses_full_range(self):
        line = sparkline([float(i) for i in range(8)])
        assert line[0] == SPARK_GLYPHS[0]
        assert line[-1] == SPARK_GLYPHS[-1]
        assert len(line) == 8

    def test_resampling_is_deterministic_and_bounded(self):
        values = [float(i % 13) for i in range(1000)]
        line = sparkline(values, width=40)
        assert len(line) == 40
        assert line == sparkline(values, width=40)

    def test_width_validation(self):
        with pytest.raises(ValueError):
            sparkline([1.0], width=0)


class TestFormatValue:
    def test_scales(self):
        assert format_value(950.0) == "950"
        assert format_value(1_234_567.0) == "1.23M"
        assert format_value(2_500.0) == "2.50k"
        assert format_value(3_000_000_000.0) == "3.00G"
        assert format_value(1.5) == "1.50"


def _observatory(breach=False):
    observatory = Observatory(rules=(ThresholdRule("deep", "q", ">", 10.0),))
    for tick, value in enumerate([1.0, 4.0, 20.0 if breach else 2.0]):
        observatory.store.append(float(tick), {"q": value})
        observatory.alerts.evaluate(float(tick), observatory.store)
    return observatory


class TestDashboard:
    def test_render_layout(self):
        panel = Dashboard(_observatory(), color=False).render()
        lines = panel.splitlines()
        assert lines[0].startswith("repro top  t=2")
        assert any(line.startswith("q ") for line in lines)
        assert "[1 .. 4]" in panel

    def test_alert_banner_when_firing(self):
        panel = Dashboard(_observatory(breach=True), color=False).render()
        assert "ALERT: deep" in panel
        assert "! [deep] t=2" in panel

    def test_no_color_means_no_escapes(self):
        dashboard = Dashboard(_observatory(breach=True), color=False)
        assert "\x1b[" not in dashboard.render()
        assert "\x1b[" not in dashboard.frame()

    def test_color_frame_homes_cursor(self):
        frame = Dashboard(_observatory(), color=True).frame()
        assert frame.startswith("\x1b[H\x1b[0J")

    def test_empty_observatory(self):
        panel = Dashboard(Observatory(rules=()), color=False).render()
        assert "(no samples yet)" in panel
