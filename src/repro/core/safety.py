"""Extended safety levels (paper Sec. 2, after Wu [17]).

The extended safety level (ESL) of a node is the 4-tuple ``(E, S, W, N)``
where ``E`` is the distance from the node to the closest faulty block to its
East, and similarly for the other directions.  We fix the discrete
convention (see DESIGN.md): ``E`` counts the **consecutive block-free nodes
strictly East** of the node in its row, so

    ``E = (xmin of the nearest block East in this row) - x - 1``

and ``E = UNBOUNDED`` when the row is clear to the mesh edge.  With this
convention Definition 3 reads ``xd <= E and yd <= N``, which is exactly
"section ``[0, xd]`` of the x axis and section ``[0, yd]`` of the y axis are
both clear of any faulty block".

The default ESL is ``(UNBOUNDED,)*4`` -- in the absence of faulty blocks no
information distribution is needed (paper Sec. 4).

The computation is vectorised per axis: a prefix/suffix scan finds the
nearest blocked cell in each direction for every node at once, so a full
``(n, m)`` ESL grid costs a handful of numpy passes.  The distributed
formation protocol in :mod:`repro.simulator.protocols.safety_propagation`
reproduces the same values by message passing and is cross-validated against
this module in the test-suite.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.mesh.geometry import Coord, Direction
from repro.mesh.topology import Mesh2D
from repro.obs import get_tracer

#: Sentinel for "no faulty block in this direction" -- large enough that any
#: in-mesh offset comparison treats it as infinity, small enough to stay well
#: inside int64 arithmetic.
UNBOUNDED: int = 1 << 30


def _nearest_blocked_above(blocked: np.ndarray, big: int) -> np.ndarray:
    """Per column of axis 1: index of the nearest blocked cell at-or-after
    each position (``big`` where none).  Works on axis 0 of a 2-D array."""
    n = blocked.shape[0]
    idx = np.where(blocked, np.arange(n)[:, None], big)
    return np.minimum.accumulate(idx[::-1, :], axis=0)[::-1, :]


def _nearest_blocked_below(blocked: np.ndarray, small: int) -> np.ndarray:
    """Index of the nearest blocked cell at-or-before each position along
    axis 0 (``small`` where none)."""
    n = blocked.shape[0]
    idx = np.where(blocked, np.arange(n)[:, None], small)
    return np.maximum.accumulate(idx, axis=0)


@dataclass(frozen=True)
class SafetyLevels:
    """ESL grids for every node of a mesh under one fault model.

    Each grid has shape ``(n, m)`` indexed ``[x, y]`` and holds the count of
    clear nodes in the respective direction (:data:`UNBOUNDED` when clear to
    the mesh edge).  Entries for nodes *inside* a block are 0 in the facing
    directions and are never consulted by the safe conditions (the paper
    assumes sources, destinations, and pivots are outside blocks).
    """

    mesh: Mesh2D
    east: np.ndarray
    south: np.ndarray
    west: np.ndarray
    north: np.ndarray

    def esl(self, coord: Coord) -> tuple[int, int, int, int]:
        """The ``(E, S, W, N)`` tuple of one node."""
        return (
            int(self.east[coord]),
            int(self.south[coord]),
            int(self.west[coord]),
            int(self.north[coord]),
        )

    @functools.cached_property
    def _grid_by_direction(self) -> dict[Direction, np.ndarray]:
        # Built once per instance: ``level`` sits on the router hot path and
        # must not pay a dict construction per call.
        return {
            Direction.EAST: self.east,
            Direction.SOUTH: self.south,
            Direction.WEST: self.west,
            Direction.NORTH: self.north,
        }

    def level(self, coord: Coord, direction: Direction) -> int:
        return int(self._grid_by_direction[direction][coord])


def _line_scans(blocked: np.ndarray, big: int) -> tuple[np.ndarray, np.ndarray]:
    """Per column of axis 1: levels toward +axis0 and -axis0 for every cell.

    ``blocked`` may be the full grid or any column subset; each column is
    scanned independently, so the result on a subset is bit-identical to
    the corresponding columns of the full-grid scan.
    """
    small = -big
    n = blocked.shape[0]
    # Nearest blocked index at-or-after / at-or-before, then shift by one to
    # make the search strict ("strictly East of the node").
    nearest_above = _nearest_blocked_above(blocked, big)
    nearest_below = _nearest_blocked_below(blocked, small)
    pad_hi = np.full((1, blocked.shape[1]), big, dtype=np.int64)
    pad_lo = np.full((1, blocked.shape[1]), small, dtype=np.int64)
    nearest_pos = np.vstack([nearest_above[1:, :], pad_hi])
    nearest_neg = np.vstack([pad_lo, nearest_below[:-1, :]])
    idx = np.arange(n)[:, None]
    toward_pos = np.minimum(nearest_pos - idx - 1, UNBOUNDED)
    toward_neg = np.minimum(idx - nearest_neg - 1, UNBOUNDED)
    return toward_pos, toward_neg


def compute_safety_levels(mesh: Mesh2D, blocked: np.ndarray) -> SafetyLevels:
    """Compute the ESL of every node from the blocked-node grid.

    ``blocked`` is the union of faulty blocks (or MCCs) as a boolean grid.
    The computation runs under an ``esl.compute`` timing span when a tracer
    is installed (see :mod:`repro.obs`).
    """
    trc = get_tracer()
    trc.count("esl.recompute")
    with trc.span("esl.compute", n=mesh.n, m=mesh.m):
        return _compute_safety_levels(mesh, blocked)


def _compute_safety_levels(mesh: Mesh2D, blocked: np.ndarray) -> SafetyLevels:
    if blocked.shape != (mesh.n, mesh.m):
        raise ValueError(
            f"blocked grid shape {blocked.shape} does not match mesh {mesh.n}x{mesh.m}"
        )
    big = UNBOUNDED + mesh.n + mesh.m  # strictly larger than any index offset

    east, west = _line_scans(blocked, big)
    # Same scans along y via the transposed grid.
    north_t, south_t = _line_scans(blocked.T, big)

    return SafetyLevels(
        mesh=mesh, east=east, south=south_t.T, west=west, north=north_t.T
    )


def refresh_safety_levels(
    esl: SafetyLevels,
    blocked: np.ndarray,
    xs: Sequence[int] = (),
    ys: Sequence[int] = (),
) -> None:
    """Recompute the ESL scans of the given rows/columns **in place**.

    A blocked-status change at ``(x, y)`` perturbs exactly the East/West
    levels of the nodes sharing ``y`` and the North/South levels of the
    nodes sharing ``x`` (the paper's Theorem-2 affected-rows model), so
    delta maintenance only rescans those lines: ``xs`` are the x values
    whose North/South columns need refreshing, ``ys`` the y values whose
    East/West rows do.  Each line rescan is the same vectorised pass as
    :func:`compute_safety_levels` restricted to that line, so the result
    is bit-identical to a full recomputation.
    """
    mesh = esl.mesh
    big = UNBOUNDED + mesh.n + mesh.m
    if len(ys):
        cols = np.unique(np.asarray(list(ys), dtype=np.intp))
        toward_pos, toward_neg = _line_scans(blocked[:, cols], big)
        esl.east[:, cols] = toward_pos
        esl.west[:, cols] = toward_neg
    if len(xs):
        rows = np.unique(np.asarray(list(xs), dtype=np.intp))
        toward_pos, toward_neg = _line_scans(blocked[rows, :].T, big)
        esl.north[rows, :] = toward_pos.T
        esl.south[rows, :] = toward_neg.T
