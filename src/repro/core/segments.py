"""Extension 2's region and segment machinery (paper Sec. 3-4).

For Extension 2 the source collects extended safety levels of nodes along
the clear axis sections next to it: every node within ``E`` hops East and
``N`` hops North (in the canonical frame).  Each *affected* row/column is
partitioned by faulty blocks and mesh edges into disjoint **regions**; the
exchange happens within a region.  To bound the traffic, a region is further
split into **segments** of adjustable size and only one ESL per segment --
the one with the highest safety level along the relevant direction -- is
passed around (paper Sec. 4, first variation).

This module builds those per-axis samples for a given source, node by
node: it is the scalar reference that
:func:`repro.core.extensions.extension2_decision`'s slice reduction must
equal (with :func:`~repro.core.extensions.extension2_decision_from_segments`),
and the only place the ``tie_break`` and four-directional variations live.
The special segment size ``None`` reproduces the paper's "(max)"
variation: the whole region is a single segment, so only its single best
ESL is available.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.safety import SafetyLevels, UNBOUNDED
from repro.mesh.frames import Frame
from repro.mesh.geometry import Coord, Direction
from repro.mesh.topology import Mesh2D

__all__ = ["AxisSample", "RegionSegments", "build_axis_segments"]


@dataclass(frozen=True)
class AxisSample:
    """One collected ESL sample on an axis section.

    ``offset`` is the hop count from the source along the local axis
    (``k`` for node ``(+k, 0)`` or ``(0, +k)``); ``level`` is the node's
    safety level in the *perpendicular* outward direction, the only entry
    Theorem 1b consults (local North for samples on the x axis, local East
    for samples on the y axis).
    """

    offset: int
    node: Coord
    level: int


@dataclass(frozen=True)
class RegionSegments:
    """All samples the source holds for one axis under a segmentation.

    ``segment_size`` of ``None`` means one segment spanning the region (the
    paper's "(max)" variation); size 1 means every node in the region is
    sampled (full information).
    """

    axis: Direction  # local EAST or local NORTH
    segment_size: int | None
    region_length: int
    samples: tuple[AxisSample, ...]

    def best_for(self, max_offset: int, required_level: int) -> AxisSample | None:
        """The first sample usable for a destination.

        Theorem 1b needs a known node at offset ``k <= max_offset`` whose
        perpendicular level covers ``required_level``.  Returns the usable
        sample with the smallest offset, or ``None``.
        """
        for sample in self.samples:
            if sample.offset <= max_offset and sample.level >= required_level:
                return sample
        return None


def _axis_region_length(
    mesh: Mesh2D, frame: Frame, source: Coord, axis: Direction
) -> int:
    """Number of hops from the source to the mesh edge along the local axis."""
    global_dir = frame.to_global_direction(axis)
    x, y = source
    if global_dir is Direction.EAST:
        edge = mesh.n - 1 - x
    elif global_dir is Direction.WEST:
        edge = x
    elif global_dir is Direction.NORTH:
        edge = mesh.m - 1 - y
    else:
        edge = y
    return edge


def build_axis_segments(
    mesh: Mesh2D,
    levels: SafetyLevels,
    frame: Frame,
    axis: Direction,
    segment_size: int | None,
    tie_break: str = "far",
    four_directional: bool = False,
) -> RegionSegments:
    """Collect Extension 2's segment representatives along one local axis.

    ``axis`` must be local ``EAST`` or ``NORTH``.  The region runs from the
    node one hop along the axis up to the source's clear distance (or the
    mesh edge).  Each segment contributes the sample with the maximal
    perpendicular safety level (the paper: "typically the one with the
    highest safety level").

    ``tie_break`` resolves equal-level candidates, which dominate at low
    fault density where most levels are unbounded:

    - ``"far"`` (default): keep the farthest maximal node.  This reproduces
      the paper's Figure 10 behaviour, where coarser segmentation visibly
      degrades and the single-segment "(max)" variation falls back to the
      bare safe-source condition (its one representative usually lies
      beyond the destination column, exactly the failure mode the paper
      describes).
    - ``"near"``: keep the closest maximal node -- an improvement over the
      paper, since a representative closer to the source can only help
      Theorem 1b's ``k <= xd`` requirement.  The ablation bench quantifies
      the gap.

    ``four_directional`` enables the paper's second variation: "select up to
    four extended safety levels within each region (each one corresponds to
    the highest safety level along a particular direction within the
    region)".  Each segment then contributes up to four representatives --
    one maximal node per local direction -- deduplicated by position.  The
    decision layer still reads each sample's perpendicular level, so the
    extra representatives simply widen the candidate set (they matter most
    when the perpendicular-maximal node sits beyond the destination).
    """
    if axis not in (Direction.EAST, Direction.NORTH):
        raise ValueError(f"axis must be local EAST or NORTH, got {axis}")
    if segment_size is not None and segment_size < 1:
        raise ValueError(f"segment size must be positive or None, got {segment_size}")
    if tie_break not in ("far", "near"):
        raise ValueError(f"tie_break must be 'far' or 'near', got {tie_break!r}")

    source = frame.origin
    local_esl = frame.to_local_esl(levels.esl(source))
    clear = local_esl[0] if axis is Direction.EAST else local_esl[3]
    edge = _axis_region_length(mesh, frame, source, axis)
    length = min(clear, edge) if clear != UNBOUNDED else edge

    global_dir = frame.to_global_direction(axis)
    perpendicular_index = 3 if axis is Direction.EAST else 0  # N for x axis, E for y axis

    # Which local-ESL entries drive representative selection: just the
    # perpendicular one, or (four-directional variation) all four.
    selection_indices = (0, 1, 2, 3) if four_directional else (perpendicular_index,)

    samples: list[AxisSample] = []
    k = 1
    while k <= length:
        segment_end = length if segment_size is None else min(length, k + segment_size - 1)
        best: dict[int, tuple[int, int]] = {}  # selection index -> (offset, score)
        perpendicular_levels: dict[int, int] = {}
        for offset in range(k, segment_end + 1):
            node = global_dir.step(source, offset)
            esl = frame.to_local_esl(levels.esl(node))
            perpendicular_levels[offset] = int(esl[perpendicular_index])
            for index in selection_indices:
                score = int(esl[index])
                current = best.get(index)
                replaces = (
                    current is None
                    or score > current[1]
                    or (score == current[1] and tie_break == "far")
                )
                if replaces:
                    best[index] = (offset, score)
        for offset in sorted({entry[0] for entry in best.values()}):
            samples.append(
                AxisSample(
                    offset=offset,
                    node=global_dir.step(source, offset),
                    level=perpendicular_levels[offset],
                )
            )
        k = segment_end + 1

    return RegionSegments(
        axis=axis,
        segment_size=segment_size,
        region_length=length,
        samples=tuple(samples),
    )
