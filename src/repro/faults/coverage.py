"""Existence of a minimal path: exact oracle and Wang's condition.

Two independent implementations of the same predicate, used as the paper's
*optimal* baseline ("existence of a minimal path" in Figures 9-12):

1. :func:`minimal_path_exists` -- an exact dynamic program.  A minimal route
   in a mesh is exactly a monotone staircase path inside the source/
   destination bounding rectangle, so reachability under the recurrence
   ``reach[x, y] = free[x, y] and (reach[x-1, y] or reach[x, y-1])`` decides
   existence for *any* obstacle shape (rectangular blocks or MCC staircases).

2. :func:`minimal_path_exists_wang` -- Wang's necessary and sufficient
   condition via *coverage sequences* of rectangular blocks.  A sequence of
   blocks covers source and destination on y when each block sits strictly
   above its predecessor and close enough in x that no monotone path can
   slip between them; symmetric on x.  A minimal path exists iff no covering
   sequence exists on either axis.

The printed inequality in the paper's coverage definition is ambiguous after
OCR; we use the discrete form derived from first principles -- block ``i+1``
covers block ``i`` on y iff::

    y(i+1)min > y(i)max   and   x(i+1)min <= x(i)max + 1

(a path forced East of block ``i`` leaves its band at column
``>= x(i)max + 1``; it can slip West of block ``i+1`` only if a free column
separates them, i.e. ``x(i+1)min >= x(i)max + 2``).  The property-based test
suite asserts this implementation agrees with the dynamic program on
randomized instances, which pins the semantics independent of the OCR.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.mesh.frames import Frame
from repro.mesh.geometry import Coord, Rect

__all__ = [
    "batch_minimal_path_exists",
    "covering_sequence_on_x",
    "covering_sequence_on_y",
    "minimal_path_exists",
    "minimal_path_exists_wang",
    "monotone_reachability",
]


def monotone_reachability(blocked: np.ndarray, source: Coord, dest: Coord) -> np.ndarray:
    """Reachability grid for monotone (minimal) paths from source to dest.

    ``blocked`` is the full-mesh obstacle grid, ``(n, m)`` indexed ``[x, y]``.
    The result has the shape of the source/destination bounding rectangle,
    *oriented* so index ``[0, 0]`` is the source and ``[-1, -1]`` the
    destination; entry ``[i, j]`` says whether a minimal path from the source
    reaches the node ``i`` columns and ``j`` rows toward the destination.

    The per-column transfer is vectorised: within one column, a cell is
    reachable iff it is free and some free-run predecessor below it was
    seeded from the previous column.
    """
    frame = Frame.for_pair(source, dest)
    xd, yd = frame.to_local(dest)

    xs = slice(source[0], dest[0] + 1) if not frame.flip_x else slice(dest[0], source[0] + 1)
    ys = slice(source[1], dest[1] + 1) if not frame.flip_y else slice(dest[1], source[1] + 1)
    sub = blocked[xs, ys]
    if frame.flip_x:
        sub = sub[::-1, :]
    if frame.flip_y:
        sub = sub[:, ::-1]

    free = ~sub
    reach = np.zeros((xd + 1, yd + 1), dtype=bool)
    if not free[0, 0]:
        return reach

    column = np.zeros(yd + 1, dtype=bool)
    column[0] = True
    reach[0] = _climb_column(column, free[0])
    for x in range(1, xd + 1):
        reach[x] = _climb_column(reach[x - 1], free[x])
    return reach


def _climb_column(base: np.ndarray, free: np.ndarray) -> np.ndarray:
    """One DP column: enter from the West (``base``) and climb North.

    ``base`` is the previous column's reachability (for x = 0, the seed
    column with only the source cell set).  A cell is reachable iff it is
    free and, within its contiguous free run, some cell at or below it is
    seeded by ``base``.  The reference for the bit-packed climb of
    :func:`repro.core.batched_patterns.batch_reachability_map`.
    """
    seed = base & free
    acc = np.cumsum(seed)
    # acc value at the most recent blocked cell at-or-below each position;
    # a cell is reachable iff a seed occurred after that block.
    block_acc = np.where(~free, acc, 0)
    last_block_acc = np.maximum.accumulate(block_acc)
    return free & (acc > last_block_acc)


def batch_minimal_path_exists(
    blocked: np.ndarray, source: Coord, dests: np.ndarray
) -> np.ndarray:
    """:func:`minimal_path_exists` over a ``(k, 2)`` destination array.

    The batch-1 case of
    :func:`repro.core.batched_patterns.batch_pattern_path_exists`: at most
    one quadrant map per destination quadrant, then a gather.  A source
    or destination outside the mesh raises ``ValueError``.
    """
    from repro.core.batched_patterns import batch_pattern_path_exists  # import cycle

    dest_arr = np.asarray(dests, dtype=np.int64)
    if dest_arr.ndim != 2 or dest_arr.shape[1] != 2:
        raise ValueError(f"dests must have shape (k, 2), got {dest_arr.shape}")
    if np.any(dest_arr < 0) or np.any(dest_arr >= blocked.shape):
        raise ValueError("dests must lie inside the mesh")
    return batch_pattern_path_exists(blocked[None], source, dest_arr[None])[0]


def minimal_path_exists(blocked: np.ndarray, source: Coord, dest: Coord) -> bool:
    """True iff a minimal (Manhattan-shortest) path avoids every blocked node.

    Exact for arbitrary obstacle shapes; endpoints must be free.  An
    endpoint outside the mesh raises ``ValueError``.
    """
    n, m = blocked.shape
    for name, (x, y) in (("source", source), ("dest", dest)):
        if not (0 <= x < n and 0 <= y < m):
            raise ValueError(f"{name} {(x, y)} lies outside the {n}x{m} mesh")
    if blocked[source] or blocked[dest]:
        return False
    if source == dest:
        return True
    reach = monotone_reachability(blocked, source, dest)
    return bool(reach[-1, -1])


# ----------------------------------------------------------------------
# Wang's necessary and sufficient condition (rectangular blocks)
# ----------------------------------------------------------------------


def _covers_on_y(lower: Rect, upper: Rect) -> bool:
    """Block ``upper`` covers block ``lower`` on y (see module docstring)."""
    return upper.ymin > lower.ymax and upper.xmin <= lower.xmax + 1


def _covers_on_x(left: Rect, right: Rect) -> bool:
    """Block ``right`` covers block ``left`` on x (roles of x and y swapped)."""
    return right.xmin > left.xmax and right.ymin <= left.ymax + 1


def covering_sequence_on_y(local_blocks: Sequence[Rect], dest: Coord) -> list[Rect] | None:
    """A covering sequence on y for source ``(0, 0)`` and ``dest``, if any.

    ``local_blocks`` must already be in the canonical frame (source at the
    origin, destination at non-negative offsets).  Returns the blocking chain
    bottom-up, or ``None``.
    """
    xd, yd = dest
    relevant = [b for b in local_blocks if b.ymin > 0 and b.ymin <= yd]

    def is_start(block: Rect) -> bool:
        # The path cannot pass West of the block (its x-range reaches the
        # source's column or beyond).
        return block.xmin <= 0

    def is_end(block: Rect) -> bool:
        # The path cannot pass East of the block (its x-range reaches the
        # destination's column or beyond).
        return block.xmax >= xd

    return _chain_search(relevant, is_start, is_end, _covers_on_y, key=lambda b: b.ymin)


def covering_sequence_on_x(local_blocks: Sequence[Rect], dest: Coord) -> list[Rect] | None:
    """A covering sequence on x for source ``(0, 0)`` and ``dest``, if any."""
    xd, yd = dest
    relevant = [b for b in local_blocks if b.xmin > 0 and b.xmin <= xd]

    def is_start(block: Rect) -> bool:
        return block.ymin <= 0

    def is_end(block: Rect) -> bool:
        return block.ymax >= yd

    return _chain_search(relevant, is_start, is_end, _covers_on_x, key=lambda b: b.xmin)


def _chain_search(blocks, is_start, is_end, covers, key) -> list[Rect] | None:
    """BFS over the covers relation from start blocks to an end block."""
    order = sorted(blocks, key=key)
    parent: dict[int, int | None] = {}
    frontier: list[int] = []
    for i, block in enumerate(order):
        if is_start(block):
            parent[i] = None
            frontier.append(i)
    while frontier:
        next_frontier: list[int] = []
        for i in frontier:
            if is_end(order[i]):
                chain = [order[i]]
                p = parent[i]
                while p is not None:
                    chain.append(order[p])
                    p = parent[p]
                chain.reverse()
                return chain
            for j, candidate in enumerate(order):
                if j in parent:
                    continue
                if covers(order[i], candidate):
                    parent[j] = i
                    next_frontier.append(j)
        frontier = next_frontier
    return None


def minimal_path_exists_wang(blocks: Sequence[Rect], source: Coord, dest: Coord) -> bool:
    """Wang's necessary and sufficient condition for rectangular blocks.

    A minimal route from ``source`` to ``dest`` exists iff no sequence of
    blocks covers them on x and none covers them on y.  ``blocks`` are given
    in global coordinates; endpoints must lie outside every block.
    """
    for block in blocks:
        if block.contains(source) or block.contains(dest):
            return False
    frame = Frame.for_pair(source, dest)
    local_blocks = [frame.to_local_rect(b) for b in blocks]
    local_dest = frame.to_local(dest)
    if covering_sequence_on_y(local_blocks, local_dest) is not None:
        return False
    if covering_sequence_on_x(local_blocks, local_dest) is not None:
        return False
    return True
