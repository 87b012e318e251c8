"""Experiment parameters.

The paper's setup (Sec. 5): a 200x200 mesh, the source at the centre acting
as the coordinate origin, destinations uniform in the 100x100 quadrant-I
submesh, up to 200 uniformly random faults, source and destination outside
every faulty block.

Running that at full scale takes minutes per figure, so the presets scale
the mesh down while keeping the **fault density** (faults per node) and the
destination-region proportions identical -- the percentage curves then keep
their shape.  Set the environment variable ``REPRO_FULL=1`` (or call
:meth:`ExperimentConfig.paper`) to run the exact paper scale.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.mesh.geometry import Coord, Rect
from repro.mesh.topology import Mesh2D

#: The paper's parameters.
PAPER_SIDE = 200
PAPER_MAX_FAULTS = 200
PAPER_FAULT_STEPS = 8
#: The smallest mesh side a condition sweep accepts.
MIN_SIDE = 8


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters for one simulation sweep."""

    mesh_side: int = PAPER_SIDE
    fault_counts: tuple[int, ...] = tuple(
        PAPER_MAX_FAULTS * (i + 1) // PAPER_FAULT_STEPS for i in range(PAPER_FAULT_STEPS)
    )
    patterns_per_count: int = 20
    destinations_per_pattern: int = 40
    seed: int = 2002
    workload: str = "uniform"  # "uniform" (paper) or "clustered"
    segment_sizes: tuple[int | None, ...] = (1, 5, 10, None)
    pivot_levels: tuple[int, ...] = (1, 2, 3)
    strategy_segment_size: int = 5
    strategy_pivot_levels: int = 3

    def __post_init__(self) -> None:
        if self.mesh_side < MIN_SIDE:
            raise ValueError("mesh side too small for a meaningful sweep")
        if not self.fault_counts:
            raise ValueError("need at least one fault count")
        if min(self.fault_counts) < 0:
            raise ValueError(f"fault_counts must be >= 0, got {self.fault_counts}")
        if self.patterns_per_count < 1:
            raise ValueError(f"patterns_per_count must be >= 1, got {self.patterns_per_count}")
        if self.destinations_per_pattern < 1:
            raise ValueError(
                f"destinations_per_pattern must be >= 1, got {self.destinations_per_pattern}"
            )
        if max(self.fault_counts) > self.mesh_side * self.mesh_side // 4:
            raise ValueError("fault density above 25% leaves no scenario to measure")
        if self.workload not in ("uniform", "clustered"):
            raise ValueError(f"unknown workload {self.workload!r}")

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def mesh(self) -> Mesh2D:
        return Mesh2D(self.mesh_side, self.mesh_side)

    @property
    def source(self) -> Coord:
        """The paper's source: the centre of the mesh."""
        return self.mesh.center

    @property
    def destination_region(self) -> Rect:
        """The quadrant-I submesh the destinations are drawn from."""
        sx, sy = self.source
        return Rect(sx, self.mesh_side - 1, sy, self.mesh_side - 1)

    @property
    def pivot_region(self) -> Rect:
        """Where Extension 3's pivots live (the quadrant-I submesh)."""
        return self.destination_region

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @staticmethod
    def paper() -> "ExperimentConfig":
        """The exact paper scale (200x200, faults 25..200).

        Variance is dominated by the fault *pattern* (one block near the
        source taints every destination of that pattern), so the budget
        favours many patterns (50) over many destinations per pattern (30).
        """
        return ExperimentConfig(patterns_per_count=50, destinations_per_pattern=30)

    @staticmethod
    def scaled(side: int, patterns_per_count: int, destinations_per_pattern: int, seed: int = 2002) -> "ExperimentConfig":
        """A smaller mesh with the paper's fault *density* preserved.

        Fault counts scale with the node count, so a 60x60 preset sweeps
        ``200 * (60/200)^2 = 18`` faults at the top step.
        """
        ratio = (side / PAPER_SIDE) ** 2
        steps = tuple(
            max(1, round(PAPER_MAX_FAULTS * ratio * (i + 1) / PAPER_FAULT_STEPS))
            for i in range(PAPER_FAULT_STEPS)
        )
        return ExperimentConfig(
            mesh_side=side,
            fault_counts=steps,
            patterns_per_count=patterns_per_count,
            destinations_per_pattern=destinations_per_pattern,
            seed=seed,
        )

    @staticmethod
    def quick() -> "ExperimentConfig":
        """Seconds-scale preset for tests and default bench runs."""
        return ExperimentConfig.scaled(side=60, patterns_per_count=6, destinations_per_pattern=15)

    @staticmethod
    def from_environment() -> "ExperimentConfig":
        """Paper scale when ``REPRO_FULL=1``, the quick preset otherwise."""
        if os.environ.get("REPRO_FULL") == "1":
            return ExperimentConfig.paper()
        return ExperimentConfig.quick()

    def describe(self) -> str:
        return (
            f"{self.mesh_side}x{self.mesh_side} mesh, source {self.source}, "
            f"faults {list(self.fault_counts)}, "
            f"{self.patterns_per_count} patterns x {self.destinations_per_pattern} destinations, "
            f"seed {self.seed}"
        )
