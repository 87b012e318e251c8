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

Grids are stored as int16, with the in-grid sentinel :data:`ESL_CLEAR`
for ``UNBOUNDED``, so live grids and serve snapshots copy a quarter of the
int64 bytes.  Every value leaving the API is decoded back to ``UNBOUNDED``
(:meth:`SafetyLevels.esl`, :meth:`~SafetyLevels.level` and the grid
properties); line scans that only compare levels with in-mesh distances
read the encoded :attr:`SafetyLevels.grids`.  A finite level is at most
the mesh side minus 2, so sides up to ``ESL_CLEAR`` (32,767) are exact and
:func:`compute_safety_levels` rejects longer ones (:class:`MeshTooLargeError`).

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
from typing import NamedTuple, Sequence

import numpy as np

from repro.mesh.geometry import ESL_ORDER, Coord, Direction
from repro.mesh.topology import Mesh2D
from repro.obs import get_tracer

#: Sentinel for "no faulty block in this direction" -- large enough that any
#: in-mesh offset comparison treats it as infinity, small enough to stay well
#: inside int64 arithmetic.
UNBOUNDED: int = 1 << 30

#: ``UNBOUNDED`` as stored in an int16 ESL grid.
ESL_CLEAR: int = int(np.iinfo(np.int16).max)


class MeshTooLargeError(ValueError):
    """A mesh side too long for the int16 ESL encoding (see module doc)."""


def encode_levels(levels: np.ndarray) -> np.ndarray:
    """``levels`` as an int16 ESL grid; any level at or above ``ESL_CLEAR``
    (``UNBOUNDED`` included) is stored as ``ESL_CLEAR``."""
    return np.minimum(levels, ESL_CLEAR).astype(np.int16)


def decode_level(value: int) -> int:
    """One stored level as callers see it (``ESL_CLEAR`` -> ``UNBOUNDED``)."""
    value = int(value)
    return UNBOUNDED if value == ESL_CLEAR else value


def _decoded(grid: np.ndarray) -> np.ndarray:
    out = grid.astype(np.int64)
    out[grid == ESL_CLEAR] = UNBOUNDED
    return out


class ESLGrids(NamedTuple):
    """The four encoded int16 ESL grids of a mesh, in ESL order."""

    east: np.ndarray
    south: np.ndarray
    west: np.ndarray
    north: np.ndarray


def _nearest_blocked_above(blocked: np.ndarray, big: int) -> np.ndarray:
    """Per column of axis 1: index of the nearest blocked cell at-or-after
    each position (``big`` where none).  Works on axis 0 of a 2-D array."""
    n = blocked.shape[0]
    idx = np.where(blocked, np.arange(n, dtype=np.int32)[:, None], big)
    return np.minimum.accumulate(idx[::-1, :], axis=0)[::-1, :]


def _nearest_blocked_below(blocked: np.ndarray, small: int) -> np.ndarray:
    """Index of the nearest blocked cell at-or-before each position along
    axis 0 (``small`` where none)."""
    n = blocked.shape[0]
    idx = np.where(blocked, np.arange(n, dtype=np.int32)[:, None], small)
    return np.maximum.accumulate(idx, axis=0)


@dataclass(frozen=True)
class SafetyLevels:
    """ESL grids for every node of a mesh under one fault model.

    Each grid has shape ``(n, m)`` indexed ``[x, y]`` and holds the count of
    clear nodes in the respective direction (:data:`UNBOUNDED` when clear to
    the mesh edge).  Entries for nodes *inside* a block are 0 in the facing
    directions and are never consulted by the safe conditions (the paper
    assumes sources, destinations, and pivots are outside blocks).
    ``east`` / ``south`` / ``west`` / ``north`` decode a whole int64 copy
    of one :attr:`grids` entry per access; read single nodes with
    :meth:`esl` or :meth:`level`.
    """

    mesh: Mesh2D
    grids: ESLGrids

    east = property(lambda self: _decoded(self.grids.east), doc="Decoded East grid.")
    south = property(lambda self: _decoded(self.grids.south), doc="Decoded South grid.")
    west = property(lambda self: _decoded(self.grids.west), doc="Decoded West grid.")
    north = property(lambda self: _decoded(self.grids.north), doc="Decoded North grid.")

    def esl(self, coord: Coord) -> tuple[int, int, int, int]:
        """The ``(E, S, W, N)`` tuple of one node."""
        east, south, west, north = self.grids
        return (
            decode_level(east[coord]),
            decode_level(south[coord]),
            decode_level(west[coord]),
            decode_level(north[coord]),
        )

    @functools.cached_property
    def _grid_by_direction(self) -> dict[Direction, np.ndarray]:
        # Built once per instance: ``level`` sits on the router hot path and
        # must not pay a dict construction per call.
        return dict(zip(ESL_ORDER, self.grids))

    def level(self, coord: Coord, direction: Direction) -> int:
        return decode_level(self._grid_by_direction[direction][coord])


def _line_scans(blocked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column of axis 1: encoded levels toward +axis0 and -axis0 for
    every cell (scanned in int32, where ``big`` fits for every allowed side).

    ``blocked`` may be the full grid or any column subset; each column is
    scanned independently, so the result on a subset is bit-identical to
    the corresponding columns of the full-grid scan.
    """
    n = blocked.shape[0]
    big, small = ESL_CLEAR + n, -ESL_CLEAR - n
    # Nearest blocked index at-or-after / at-or-before, then shift by one to
    # make the search strict ("strictly East of the node").
    nearest_above = _nearest_blocked_above(blocked, big)
    nearest_below = _nearest_blocked_below(blocked, small)
    pad_hi = np.full((1, blocked.shape[1]), big, dtype=np.int32)
    pad_lo = np.full((1, blocked.shape[1]), small, dtype=np.int32)
    nearest_pos = np.vstack([nearest_above[1:, :], pad_hi])
    nearest_neg = np.vstack([pad_lo, nearest_below[:-1, :]])
    idx = np.arange(n, dtype=np.int32)[:, None]
    return encode_levels(nearest_pos - idx - 1), encode_levels(idx - nearest_neg - 1)


def compute_safety_levels(mesh: Mesh2D, blocked: np.ndarray) -> SafetyLevels:
    """Compute the ESL of every node from the blocked-node grid.

    ``blocked`` is the union of faulty blocks (or MCCs) as a boolean grid.
    Raises :class:`MeshTooLargeError` for a mesh side above ``ESL_CLEAR``.
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
    if max(mesh.n, mesh.m) > ESL_CLEAR:
        raise MeshTooLargeError(
            f"mesh {mesh.n}x{mesh.m}: int16 ESL grids allow sides up to {ESL_CLEAR}"
        )
    east, west = _line_scans(blocked)
    # Same scans along y via the transposed grid.
    north_t, south_t = _line_scans(blocked.T)
    return SafetyLevels(mesh, ESLGrids(east, south_t.T, west, north_t.T))


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
    grids = esl.grids
    if len(ys):
        cols = np.unique(np.asarray(list(ys), dtype=np.intp))
        grids.east[:, cols], grids.west[:, cols] = _line_scans(blocked[:, cols])
    if len(xs):
        rows = np.unique(np.asarray(list(xs), dtype=np.intp))
        toward_pos, toward_neg = _line_scans(blocked[rows, :].T)
        grids.north[rows, :] = toward_pos.T
        grids.south[rows, :] = toward_neg.T
