"""The three extended sufficient conditions (paper Sec. 3, Theorems 1a-1c).

Each decision procedure strengthens Definition 3 without global fault
information:

- **Extension 1** (Theorem 1a): consult the four neighbours' safety status.
  A safe preferred neighbour still yields a minimal route (one hop closer,
  then Theorem 1); a safe spare neighbour yields a *sub-minimal* route
  (one detour, length ``D + 2``).  Constant extra information per node.
- **Extension 2** (Theorem 1b): when one axis section is clear, consult the
  collected ESLs of nodes along it (see :mod:`repro.core.segments`).
  ``O(n)`` extra information.
- **Extension 3** (Theorem 1c): consult broadcast pivot ESLs and chain the
  safe condition through a pivot inside ``[0:xd, 0:yd]``.  Up to ``O(n^2)``
  extra information depending on the pivot count.

All procedures accept the ``blocked`` grid so nodes inside a faulty block
are never used as helpers (their ESLs are not meaningful for routing).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.conditions import Decision, DecisionKind, is_safe, safe_source_decision
from repro.core.pivots import recursive_center_pivots
from repro.core.safety import SafetyLevels
from repro.core.segments import RegionSegments, build_axis_segments
from repro.mesh.frames import Frame
from repro.mesh.geometry import Coord, Direction, Rect
from repro.mesh.topology import Mesh2D

__all__ = [
    "decision_cascade",
    "extension1_decision",
    "extension2_decision",
    "extension2_decision_from_segments",
    "extension3_decision",
]


def extension1_decision(
    mesh: Mesh2D,
    levels: SafetyLevels,
    blocked: np.ndarray,
    source: Coord,
    dest: Coord,
    allow_sub_minimal: bool = True,
) -> Decision:
    """Theorem 1a: source safe, else a safe neighbour.

    Checks the source first, then the preferred neighbours (minimal), then
    -- when ``allow_sub_minimal`` -- the spare neighbours (sub-minimal).
    Neighbours inside a faulty block are skipped.
    """
    if is_safe(levels, source, dest):
        return Decision(DecisionKind.SOURCE_SAFE, source, dest)
    for neighbor in mesh.preferred_neighbors(source, dest):
        if not blocked[neighbor] and is_safe(levels, neighbor, dest):
            return Decision(DecisionKind.PREFERRED_NEIGHBOR_SAFE, source, dest, via=neighbor)
    if allow_sub_minimal:
        for neighbor in mesh.spare_neighbors(source, dest):
            if not blocked[neighbor] and is_safe(levels, neighbor, dest):
                return Decision(DecisionKind.SPARE_NEIGHBOR_SAFE, source, dest, via=neighbor)
    return Decision(DecisionKind.UNSAFE, source, dest)


def extension2_decision_from_segments(
    levels: SafetyLevels,
    source: Coord,
    dest: Coord,
    east_segments: RegionSegments,
    north_segments: RegionSegments,
) -> Decision:
    """Theorem 1b given pre-built axis samples (see :func:`extension2_decision`).

    Splitting construction from decision lets experiments build the segments
    once per fault pattern and reuse them for every destination.
    """
    frame = Frame.for_pair(source, dest)
    xd, yd = frame.to_local(dest)
    east, _, _, north = frame.to_local_esl(levels.esl(source))

    if xd <= east and yd <= north:
        return Decision(DecisionKind.SOURCE_SAFE, source, dest)

    # Clear x-axis section: find a known node (+k, 0), k <= xd, with yd <= Nk.
    if xd <= east:
        sample = east_segments.best_for(max_offset=xd, required_level=yd)
        if sample is not None:
            return Decision(DecisionKind.AXIS_NODE_SAFE, source, dest, via=sample.node)
    # Clear y-axis section: a known node (0, +k), k <= yd, with xd <= Ek.
    if yd <= north:
        sample = north_segments.best_for(max_offset=yd, required_level=xd)
        if sample is not None:
            return Decision(DecisionKind.AXIS_NODE_SAFE, source, dest, via=sample.node)
    return Decision(DecisionKind.UNSAFE, source, dest)


def extension2_decision(
    mesh: Mesh2D,
    levels: SafetyLevels,
    source: Coord,
    dest: Coord,
    segment_size: int | None,
    tie_break: str = "far",
) -> Decision:
    """Theorem 1b: chain through a known node on a clear axis section.

    ``segment_size`` selects the paper's variation: 1 collects every node in
    the region (full axis information), larger sizes sample one ESL per
    segment, ``None`` is the "(max)" variation with a single segment.
    ``tie_break`` picks the representative among equal safety levels (see
    :func:`repro.core.segments.build_axis_segments`).
    """
    frame = Frame.for_pair(source, dest)
    east_segments = build_axis_segments(
        mesh, levels, frame, Direction.EAST, segment_size, tie_break
    )
    north_segments = build_axis_segments(
        mesh, levels, frame, Direction.NORTH, segment_size, tie_break
    )
    return extension2_decision_from_segments(levels, source, dest, east_segments, north_segments)


def extension3_decision(
    mesh: Mesh2D,
    levels: SafetyLevels,
    blocked: np.ndarray,
    source: Coord,
    dest: Coord,
    pivots: list[Coord],
) -> Decision:
    """Theorem 1c: chain the safe condition through one pivot node.

    A pivot ``(xi, yi)`` (local frame) qualifies when it lies in
    ``[0:xd, 0:yd]``, is outside every block, the source is safe w.r.t. the
    pivot, and the pivot is safe w.r.t. the destination.  Pivots are tried
    in the given order; the recursive schemes list coarse pivots first.
    """
    if is_safe(levels, source, dest):
        return Decision(DecisionKind.SOURCE_SAFE, source, dest)
    frame = Frame.for_pair(source, dest)
    xd, yd = frame.to_local(dest)
    east, _, _, north = frame.to_local_esl(levels.esl(source))
    for pivot in pivots:
        if not mesh.in_bounds(pivot) or blocked[pivot]:
            continue
        xi, yi = frame.to_local(pivot)
        if not (0 <= xi <= xd and 0 <= yi <= yd):
            continue
        if not (xi <= east and yi <= north):
            continue  # source not safe w.r.t. the pivot
        pivot_east, _, _, pivot_north = frame.to_local_esl(levels.esl(pivot))
        if xd - xi <= pivot_east and yd - yi <= pivot_north:
            return Decision(DecisionKind.PIVOT_SAFE, source, dest, via=pivot)
    return Decision(DecisionKind.UNSAFE, source, dest)


def decision_cascade(
    mesh: Mesh2D,
    levels: SafetyLevels,
    blocked: np.ndarray,
    source: Coord,
    dest: Coord,
) -> Iterator[tuple[str, Decision]]:
    """The paper's escalation, one rung at a time: ``(label, verdict)``
    for Definition 3, Extensions 1-3 (minimal), then Extension 1's
    sub-minimal rule, each computed only when the caller asks for it.

    Callers stop at the first rung that fires: ``repro serve`` answers
    with it, ``repro trace`` prints every verdict up to it.  The rungs
    call their decision functions through this module's globals at call
    time, so a wrapper installed on a module attribute (perfbench's
    traced run) sees every call.
    """
    yield "Definition 3 (safe source)", safe_source_decision(levels, source, dest)
    yield "Extension 1 (safe preferred neighbour, minimal)", extension1_decision(
        mesh, levels, blocked, source, dest, allow_sub_minimal=False
    )
    yield "Extension 2 (known axis node)", extension2_decision(
        mesh, levels, source, dest, segment_size=None
    )
    pivots = recursive_center_pivots(Rect.bounding((source, dest)), 3)
    yield "Extension 3 (broadcast pivots)", extension3_decision(
        mesh, levels, blocked, source, dest, pivots
    )
    yield "Extension 1 (safe spare neighbour, sub-minimal)", extension1_decision(
        mesh, levels, blocked, source, dest
    )
