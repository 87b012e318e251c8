"""Supplementary sweeps beyond the paper's figures.

Currently one sweep: **mesh-size invariance**.  The reduced-scale presets in
:mod:`repro.experiments.config` assume that, at a fixed fault *density*, the
percentage curves of Figures 9-12 are insensitive to the mesh side.  This
sweep measures that directly: the same density and trial budget across a
range of sides, reporting the safe-source / Extension-1 / existence
percentages per side.  The bench asserts the spread stays small, which is
the empirical licence for comparing quick-preset shapes with the paper's
200x200 results.

Each side is one :class:`~repro.experiments.runner.ConditionExperiment`
sweep: every side's patterns are stacked into ``(batch, n, m)`` grids and
decided in one array-program pass, exactly like the figure sweeps.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.report import FigureSeries
from repro.experiments.runner import ConditionExperiment, MetricSpec


def _sweep_metrics(config: ExperimentConfig) -> list[MetricSpec]:
    """The sweep's block-model curves."""
    from repro.experiments.figures import fig9_block_metrics

    return [
        metric
        for metric in fig9_block_metrics(config)
        if metric.name in ("safe_source", "ext1_min", "existence")
    ]


def mesh_size_sweep(
    sides: Sequence[int] = (50, 100, 150, 200),
    density: float = 200 / (200 * 200),
    patterns_per_side: int = 10,
    destinations_per_pattern: int = 30,
    seed: int = 404,
) -> FigureSeries:
    """Safe-source / Extension-1 / existence percentages versus mesh side,
    at a fixed fault density (default: the paper's k=200 density)."""
    series = FigureSeries(
        figure_id="sweep_size",
        title=f"size invariance at density {density:.2%}",
        x_label="mesh side",
    )
    for side in sides:
        fault_count = max(1, round(density * side * side))
        config = replace(
            ExperimentConfig.scaled(
                side, patterns_per_side, destinations_per_pattern, seed=seed
            ),
            fault_counts=(fault_count,),
        )
        experiment = ConditionExperiment(config, _sweep_metrics(config))
        side_series = experiment.run("sweep_size", f"side {side}")
        series.xs.append(float(side))
        for name, points in side_series.series.items():
            series.add_point(name, points[0])
    series.notes.append(
        f"density {density:.3%}, {patterns_per_side} patterns x "
        f"{destinations_per_pattern} destinations per side, seed {seed}"
    )
    series.validate()
    return series
