"""The paper's simulation study (Sec. 5) as a reusable harness.

- :mod:`repro.experiments.config` -- experiment parameters; the paper-scale
  setup (200x200 mesh, source at the centre, up to 200 faults) and reduced
  presets that keep the fault *density* so curve shapes are comparable.
- :mod:`repro.experiments.runner` -- scenario/trial driver shared by all
  condition experiments (Figures 9-12): stacks a shard's fault patterns,
  both fault models and their safety levels into ``(batch, n, m)`` grids,
  then evaluates every registered metric on every random destination in
  one cross-pattern kernel call.
- :mod:`repro.experiments.figures` -- one entry point per paper figure,
  returning a :class:`~repro.experiments.report.FigureSeries`.
- :mod:`repro.experiments.report` -- table/CSV/ASCII-plot rendering of a
  figure's series.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.report import FigureSeries
from repro.experiments.runner import (
    ConditionExperiment,
    PatternBatchContext,
)
from repro.experiments.figures import (
    fig7_affected_rows,
    fig8_disabled_nodes,
    fig9_extension1,
    fig10_extension2,
    fig11_extension3,
    fig12_strategies,
)
from repro.experiments.memory_model import MemoryReport, measure_memory
from repro.experiments.sweeps import mesh_size_sweep

__all__ = [
    "ConditionExperiment",
    "ExperimentConfig",
    "FigureSeries",
    "MemoryReport",
    "PatternBatchContext",
    "fig7_affected_rows",
    "fig8_disabled_nodes",
    "fig9_extension1",
    "fig10_extension2",
    "fig11_extension3",
    "fig12_strategies",
    "measure_memory",
    "mesh_size_sweep",
]
