"""Unit tests for figure reporting and text-mode visualization."""

import numpy as np
import pytest

from repro.analysis.statistics import Estimate
from repro.experiments.report import FigureSeries
from repro.faults.blocks import build_faulty_blocks
from repro.mesh.topology import Mesh2D
from repro.routing.path import Path
from repro.viz.ascii_art import render_mesh
from repro.viz.plots import line_plot


def _series():
    series = FigureSeries(figure_id="figX", title="test", x_label="faults")
    series.xs = [10.0, 20.0]
    series.series = {
        "a": [Estimate(0.9, 0.01, 100), Estimate(0.8, 0.02, 100)],
        "b": [Estimate(0.95, 0.01, 100), Estimate(0.85, 0.02, 100)],
    }
    return series


class TestFigureSeries:
    def test_table_contains_all_cells(self):
        table = _series().to_table()
        assert "figX" in table and "faults" in table
        for cell in ("0.9000", "0.8000", "0.9500", "0.8500"):
            assert cell in table

    def test_csv_round_trip(self):
        csv = _series().to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "faults,a,a_ci95,b,b_ci95"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 10.0
        assert float(first[1]) == pytest.approx(0.9)

    def test_column(self):
        assert _series().column("a") == [0.9, 0.8]

    def test_validate_catches_ragged_series(self):
        series = _series()
        series.series["a"].pop()
        with pytest.raises(ValueError):
            series.validate()

    def test_ascii_plot_renders(self):
        plot = _series().to_ascii_plot()
        assert "o=a" in plot and "x=b" in plot
        assert "figX" in plot

    def test_render_combines(self):
        rendered = _series().render()
        assert "==" in rendered and "o=a" in rendered


class TestLinePlot:
    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            line_plot({})
        with pytest.raises(ValueError):
            line_plot({"a": []})

    def test_flat_series(self):
        plot = line_plot({"flat": [(0, 1.0), (10, 1.0)]})
        assert "o=flat" in plot

    def test_axis_labels(self):
        plot = line_plot({"a": [(0, 0.0), (100, 1.0)]}, x_label="faults")
        assert "(faults)" in plot
        assert "100" in plot

    def test_distinct_glyphs(self):
        plot = line_plot({"one": [(0, 0), (1, 1)], "two": [(0, 1), (1, 0)]})
        assert "o=one" in plot and "x=two" in plot


class TestRenderMesh:
    def test_marks_and_layers(self):
        mesh = Mesh2D(5, 5)
        blocks = build_faulty_blocks(mesh, [(1, 1), (2, 2)])
        art = render_mesh(
            mesh,
            faulty=blocks.faulty,
            blocked=blocks.unusable,
            path=[(0, 0), (0, 1)],
            source=(0, 0),
            dest=(4, 4),
            marks={(4, 0): "P"},
        )
        assert "#" in art and "x" in art
        assert "S" in art and "D" in art and "P" in art
        # North is up: the top line is row y=4 containing the destination.
        assert "D" in art.splitlines()[0]

    def test_axes_toggle(self):
        mesh = Mesh2D(3, 3)
        with_axes = render_mesh(mesh)
        without = render_mesh(mesh, axes=False)
        assert len(with_axes.splitlines()) == 4
        assert len(without.splitlines()) == 3

    def test_path_overlay(self):
        mesh = Mesh2D(4, 4)
        path = Path.of([(0, 0), (1, 0), (2, 0), (2, 1)])
        art = render_mesh(mesh, path=path.nodes, axes=False)
        assert art.count("*") == 4
