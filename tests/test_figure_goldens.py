"""Frozen Figure 9-12 series: the condition sweeps reproduce them bit for bit.

``tests/data/golden_condition_series.json`` holds every figure's
:class:`~repro.experiments.report.FigureSeries` (value, CI half-width and
sample count per point, both fault models) for three small configs:

- ``tiny`` -- the paper's uniform workload on a 24x24 mesh up to 90
  faults, where the MCC ("a") curves differ from the block curves;
- ``clustered`` -- ``workload="clustered"``, whose patterns come from
  per-pattern :func:`~repro.faults.injection.generate_scenario` draws;
- ``shifted_region`` -- a destination region that is not square, which
  draws every destination attempt one at a time.

The series were recorded with the per-pattern scalar pipeline (fault
scenario, MCCs and ESLs built pattern by pattern, then the predicates of
:mod:`repro.core.conditions` / :mod:`repro.core.extensions` and the
existence oracle per destination), cross-checked against the cross-pattern
kernels before that pipeline was removed.

Every test runs on a fresh artifact cache, so each figure is computed
cold, drawn and counted anew.  The one-cache test runs Figures
9-12 in a row, so the later figures take their draws and shared curve
counts from the runner's memo (the warm path).
"""

import json
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import (
    fig9_extension1,
    fig10_extension2,
    fig11_extension3,
    fig12_strategies,
)
from repro.mesh.geometry import Rect
from repro.parallel.cache import ArtifactCache, use_artifact_cache

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_condition_series.json").read_text()
)
FIGURES = {
    "fig9": fig9_extension1,
    "fig10": fig10_extension2,
    "fig11": fig11_extension3,
    "fig12": fig12_strategies,
}


class ShiftedRegionConfig(ExperimentConfig):
    """Quadrant-I destinations three rows above the source: not square."""

    @property
    def destination_region(self) -> Rect:
        sx, sy = self.source
        return Rect(sx, self.mesh_side - 1, sy + 3, self.mesh_side - 1)


@pytest.fixture(autouse=True)
def fresh_artifact_cache():
    with use_artifact_cache(ArtifactCache()) as cache:
        yield cache


def _config(case: str) -> ExperimentConfig:
    spec = GOLDEN["cases"][case]
    cls = ShiftedRegionConfig if spec["shifted"] else ExperimentConfig
    return cls(
        mesh_side=spec["mesh_side"],
        fault_counts=tuple(spec["fault_counts"]),
        patterns_per_count=spec["patterns_per_count"],
        destinations_per_pattern=spec["destinations_per_pattern"],
        seed=spec["seed"],
        workload=spec["workload"],
    )


def _snap(series) -> dict:
    return {
        "xs": series.xs,
        "series": {
            name: [[e.value, e.half_width, e.samples] for e in points]
            for name, points in series.series.items()
        },
    }


@pytest.mark.parametrize("key", sorted(GOLDEN["series"]))
def test_series_match_golden(key):
    case, figure = key.split("/")
    series = FIGURES[figure](_config(case))
    assert _snap(series) == GOLDEN["series"][key]



@pytest.mark.parametrize("case", sorted(GOLDEN["cases"]))
def test_all_figures_in_one_cache_match_golden(case, fresh_artifact_cache):
    config = _config(case)
    for figure in ("fig9", "fig10", "fig11", "fig12"):
        assert _snap(FIGURES[figure](config)) == GOLDEN["series"][f"{case}/{figure}"]
    assert fresh_artifact_cache.hits == 3 * fresh_artifact_cache.misses
