"""One entry point per paper figure.

Figures 7 and 8 are direct measurements over fault patterns; Figures 9-12
are condition experiments built on :class:`~repro.experiments.runner.
ConditionExperiment`.  Every function returns a
:class:`~repro.experiments.report.FigureSeries` whose columns mirror the
curves of the paper's plot.

Every curve of Figures 9-12 is a cross-pattern kernel from
:mod:`repro.core.batched_patterns`, run once per shard against the
stacked grid of its fault model (faulty blocks, or type-one MCCs for the
"a" curves).  The condition figures accept ``workers``: the sweep shards
its fault patterns over that many processes (see ``run(workers=N)`` in
the runner) and produces a bit-identical series at any worker count.
Their metric lists are built by module-level *factories*
(``fig9_metrics`` ...), which are picklable and therefore usable from
worker processes; ``backend`` selects the array API backend.
"""

from __future__ import annotations

import functools
import operator
from typing import Any, Callable

import numpy as np

from repro.analysis.affected_rows import (
    count_affected_columns,
    count_affected_rows,
    expected_affected_rows,
)
from repro.analysis.statistics import Estimate, mean_and_ci
from repro.core.batched_patterns import (
    batch_pattern_extension1,
    batch_pattern_extension2,
    batch_pattern_extension3,
    batch_pattern_is_safe,
    batch_pattern_path_exists,
)
from repro.core.strategies import Strategy
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import FigureSeries
from repro.experiments.runner import (
    BLOCK_MODEL,
    MCC_MODEL,
    ConditionExperiment,
    MetricSpec,
    PatternBatchContext,
    PatternMetricFn,
)
from repro.faults.injection import generate_scenario
from repro.faults.mcc import MCCType

Progress = Callable[[str], None] | None


# ----------------------------------------------------------------------
# Metric kernels shared by Figures 9-12
# ----------------------------------------------------------------------


def _safe_source(pctx: PatternBatchContext) -> Any:
    return batch_pattern_is_safe(pctx.levels, pctx.source, pctx.dests)


def _existence(pctx: PatternBatchContext) -> Any:
    return batch_pattern_path_exists(
        pctx.blocked, pctx.source, pctx.dests, maps=pctx.reachability_maps
    )


def _extension1_min(pctx: PatternBatchContext) -> Any:
    return pctx.memo("ext1_min", lambda: batch_pattern_extension1(
        pctx.blocked, pctx.levels, pctx.source, pctx.dests, allow_sub_minimal=False
    ))


def _extension1_submin(pctx: PatternBatchContext) -> Any:
    return batch_pattern_extension1(
        pctx.blocked, pctx.levels, pctx.source, pctx.dests, allow_sub_minimal=True
    )


def _extension2_mask(pctx: PatternBatchContext, size: int | None) -> Any:
    return pctx.memo(("ext2", size), lambda: batch_pattern_extension2(
        pctx.levels, pctx.source, pctx.dests, size, (pctx.mesh.n, pctx.mesh.m)
    ))


def _extension2(size: int | None) -> PatternMetricFn:
    def metric(pctx: PatternBatchContext) -> Any:
        return _extension2_mask(pctx, size)

    return metric


def _extension3(level: int) -> PatternMetricFn:
    def metric(pctx: PatternBatchContext) -> Any:
        return batch_pattern_extension3(
            pctx.blocked, pctx.levels, pctx.source, pctx.dests, pctx.pivot_array(level)
        )

    return metric


def _extension3_random(pctx: PatternBatchContext) -> Any:
    return pctx.memo("ext3_random", lambda: batch_pattern_extension3(
        pctx.blocked, pctx.levels, pctx.source, pctx.dests,
        pctx.strategy_pivots, pivot_valid=pctx.strategy_valid,
    ))


def _strategy(strategy: Strategy, config: ExperimentConfig) -> PatternMetricFn:
    """A strategy's mask: the OR of the used extensions' kernels.

    Valid because with ``allow_sub_minimal=False`` (the experiment setting)
    every non-UNSAFE decision a strategy can return ensures a minimal path,
    so "first extension that fires" and "any extension fires" agree.  The
    destinations come from the quadrant-I region, where Extension 2's
    per-pair frame coincides with the sample tables' source frame.  Each
    extension's mask is memoised on the context, so the four strategies
    of one shard and model run each extension once.
    """
    segment_size = config.strategy_segment_size

    def metric(pctx: PatternBatchContext) -> Any:
        masks = []
        if strategy.uses_extension1:
            masks.append(_extension1_min(pctx))
        if strategy.uses_extension2:
            masks.append(_extension2_mask(pctx, segment_size))
        if strategy.uses_extension3:
            masks.append(_extension3_random(pctx))
        return functools.reduce(operator.or_, masks)

    return metric


def _both_models(name: str, pattern_fn: PatternMetricFn, model: str) -> MetricSpec:
    suffix = "" if model == BLOCK_MODEL else "a"
    return MetricSpec(name=f"{name}{suffix}", pattern_fn=pattern_fn, model=model)


def _check_engine(engine: str) -> None:
    """``engine`` has the one value ``"auto"``; the keyword stays so that
    callers passing it keep working."""
    if engine != "auto":
        raise ValueError(f"unknown engine {engine!r}; the only engine is 'auto'")


# ----------------------------------------------------------------------
# Figure 7: affected rows/columns, analytical vs experimental
# ----------------------------------------------------------------------


def fig7_affected_rows(
    config: ExperimentConfig | None = None, progress: Progress = None
) -> FigureSeries:
    """Percentage of affected rows (and columns): Theorem 2 vs simulation."""
    config = config or ExperimentConfig.from_environment()
    rng = np.random.default_rng(config.seed)
    n = config.mesh_side
    series = FigureSeries(
        figure_id="fig7",
        title="expected percentage of affected rows (and columns)",
        x_label="faults",
    )
    series.notes.append(config.describe())
    for fault_count in config.fault_counts:
        fractions: list[float] = []
        for _ in range(config.patterns_per_count):
            scenario = generate_scenario(config.mesh, fault_count, rng, source=config.source)
            affected = count_affected_rows(scenario.blocks.unusable)
            affected += count_affected_columns(scenario.blocks.unusable)
            fractions.append(affected / (2 * n))
        series.xs.append(float(fault_count))
        series.add_point("analytical", Estimate(expected_affected_rows(n, fault_count) / n, 0.0, 1))
        series.add_point("experimental", mean_and_ci(fractions))
        if progress is not None:
            progress(f"fig7: k={fault_count} done")
    series.validate()
    return series


# ----------------------------------------------------------------------
# Figure 8: average number of disabled nodes per block
# ----------------------------------------------------------------------


def fig8_disabled_nodes(
    config: ExperimentConfig | None = None, progress: Progress = None
) -> FigureSeries:
    """Average disabled (healthy but sacrificed) nodes per faulty block,
    under Wu's faulty block model and the MCC model (type one)."""
    config = config or ExperimentConfig.from_environment()
    rng = np.random.default_rng(config.seed)
    series = FigureSeries(
        figure_id="fig8",
        title="average number of disabled nodes in a faulty block",
        x_label="faults",
    )
    series.notes.append(config.describe())
    for fault_count in config.fault_counts:
        block_means: list[float] = []
        mcc_means: list[float] = []
        for _ in range(config.patterns_per_count):
            scenario = generate_scenario(config.mesh, fault_count, rng, source=config.source)
            block_means.append(scenario.blocks.average_disabled_per_block())
            mcc_means.append(scenario.mccs(MCCType.TYPE_ONE).average_disabled_per_component())
        series.xs.append(float(fault_count))
        series.add_point("wu_model", mean_and_ci(block_means))
        series.add_point("mcc", mean_and_ci(mcc_means))
        if progress is not None:
            progress(f"fig8: k={fault_count} done")
    series.validate()
    return series


# ----------------------------------------------------------------------
# Figures 9-12: condition experiments
# ----------------------------------------------------------------------


def fig9_metrics(config: ExperimentConfig) -> list[MetricSpec]:
    """Figure 9's curves (picklable metrics factory)."""
    metrics: list[MetricSpec] = []
    for model in (BLOCK_MODEL, MCC_MODEL):
        metrics += [
            _both_models("safe_source", _safe_source, model),
            _both_models("ext1_min", _extension1_min, model),
            _both_models("ext1_submin", _extension1_submin, model),
            _both_models("existence", _existence, model),
        ]
    return metrics


def fig9_block_metrics(config: ExperimentConfig) -> list[MetricSpec]:
    """Figure 9's block-model curves only (picklable metrics factory).

    The whole sweep is one array program per shard, with no MCC
    labelling; the mesh-size sweep runs exactly this factory.
    """
    return [
        metric for metric in fig9_metrics(config) if metric.model == BLOCK_MODEL
    ]


def fig9_extension1(
    config: ExperimentConfig | None = None,
    progress: Progress = None,
    workers: int = 1,
    engine: str = "auto",
    backend: str = "numpy",
) -> FigureSeries:
    """Safe source, extension 1 (min), extension 1 (sub-min), and the
    optimal existence baseline, under both fault models (Figure 9 a+b)."""
    _check_engine(engine)
    config = config or ExperimentConfig.from_environment()
    experiment = ConditionExperiment(config, metrics_factory=fig9_metrics)
    return experiment.run(
        "fig9", "minimal/sub-minimal ensured: extension 1", progress,
        workers=workers, backend=backend,
    )


def fig10_metrics(config: ExperimentConfig) -> list[MetricSpec]:
    """Figure 10's curves (picklable metrics factory)."""
    metrics: list[MetricSpec] = []
    for model in (BLOCK_MODEL, MCC_MODEL):
        metrics.append(_both_models("safe_source", _safe_source, model))
        for size in config.segment_sizes:
            label = "max" if size is None else str(size)
            metrics.append(_both_models(f"ext2_{label}", _extension2(size), model))
        metrics.append(_both_models("existence", _existence, model))
    return metrics


def fig10_extension2(
    config: ExperimentConfig | None = None,
    progress: Progress = None,
    workers: int = 1,
    engine: str = "auto",
    backend: str = "numpy",
) -> FigureSeries:
    """Extension 2 for every segment-size variation (Figure 10 a+b)."""
    _check_engine(engine)
    config = config or ExperimentConfig.from_environment()
    experiment = ConditionExperiment(config, metrics_factory=fig10_metrics)
    return experiment.run(
        "fig10", "minimal ensured: extension 2 segment sizes", progress,
        workers=workers, backend=backend,
    )


def fig11_metrics(config: ExperimentConfig) -> list[MetricSpec]:
    """Figure 11's curves (picklable metrics factory)."""
    metrics: list[MetricSpec] = []
    for model in (BLOCK_MODEL, MCC_MODEL):
        metrics.append(_both_models("safe_source", _safe_source, model))
        for level in config.pivot_levels:
            metrics.append(_both_models(f"ext3_level{level}", _extension3(level), model))
        metrics.append(_both_models("existence", _existence, model))
    return metrics


def fig11_extension3(
    config: ExperimentConfig | None = None,
    progress: Progress = None,
    workers: int = 1,
    engine: str = "auto",
    backend: str = "numpy",
) -> FigureSeries:
    """Extension 3 for partition levels 1-3 (Figure 11 a+b)."""
    _check_engine(engine)
    config = config or ExperimentConfig.from_environment()
    experiment = ConditionExperiment(config, metrics_factory=fig11_metrics)
    return experiment.run(
        "fig11", "minimal ensured: extension 3 partition levels", progress,
        workers=workers, backend=backend,
    )


def fig12_metrics(config: ExperimentConfig) -> list[MetricSpec]:
    """Figure 12's curves (picklable metrics factory)."""
    metrics: list[MetricSpec] = []
    for model in (BLOCK_MODEL, MCC_MODEL):
        for strategy in Strategy:
            metrics.append(
                _both_models(f"strategy{strategy.value}", _strategy(strategy, config), model)
            )
        metrics.append(_both_models("existence", _existence, model))
    return metrics


def fig12_strategies(
    config: ExperimentConfig | None = None,
    progress: Progress = None,
    workers: int = 1,
    engine: str = "auto",
    backend: str = "numpy",
) -> FigureSeries:
    """Strategies 1-4 / 1a-4a (Figure 12 a+b)."""
    _check_engine(engine)
    config = config or ExperimentConfig.from_environment()
    experiment = ConditionExperiment(config, metrics_factory=fig12_metrics)
    return experiment.run(
        "fig12", "minimal ensured: strategies 1-4", progress,
        workers=workers, backend=backend,
    )
