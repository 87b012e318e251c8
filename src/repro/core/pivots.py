"""Extension 3's pivot-selection schemes (paper Sec. 4).

Pivot nodes broadcast their extended safety level to every node, so a source
can chain Theorem 1c through them.  The paper describes a recursive
selection: the centre node of the region first, then the region is
partitioned into four subregions whose centres follow, and so on -- a
partition level of ``k`` selects ``sum_{i=1..k} 4^(i-1)`` pivots (1, 5, 21
for levels 1, 2, 3).  Two variations are also given: random pivots (one per
subregion, used by the paper's routing strategy 2) and evenly distributed
pivots with no two sharing a row or column ("latin" pivots).
"""

from __future__ import annotations

import numpy as np

from repro.mesh.geometry import Coord, Rect

__all__ = [
    "draw_random_pivots",
    "latin_pivots",
    "pivot_count_for_levels",
    "random_pivot_bounds",
    "random_pivots",
    "recursive_center_pivots",
]


def pivot_count_for_levels(levels: int) -> int:
    """``1 + 4 + ... + 4^(levels-1)`` -- the paper's pivot count formula."""
    if levels < 1:
        raise ValueError("partition level must be >= 1")
    return (4**levels - 1) // 3


Cell = tuple[int, int, int, int]  # inclusive (xmin, xmax, ymin, ymax)


def _quarters(cell: Cell) -> list[Cell]:
    """Partition a cell into (up to) four subcells around its centre.

    Degenerate slices (a cell only one node wide/tall) yield fewer than
    four parts; duplicates are dropped by the callers' set semantics.
    """
    xmin, xmax, ymin, ymax = cell
    cx = (xmin + xmax) // 2
    cy = (ymin + ymax) // 2
    xs = ((xmin, cx), (cx + 1, xmax)) if cx < xmax else ((xmin, cx),)
    ys = ((ymin, cy), (cy + 1, ymax)) if cy < ymax else ((ymin, cy),)
    return [(xlo, xhi, ylo, yhi) for xlo, xhi in xs for ylo, yhi in ys]


def _recursive_cells(region: Rect, levels: int) -> list[list[Cell]]:
    """The subregions at each partition level, as :data:`Cell` tuples:
    level 1 is the region itself, level i+1 quarters every level-i cell."""
    tiers: list[list[Cell]] = [[(region.xmin, region.xmax, region.ymin, region.ymax)]]
    for _ in range(levels - 1):
        tiers.append([part for cell in tiers[-1] for part in _quarters(cell)])
    return tiers


def recursive_center_pivots(region: Rect, levels: int) -> list[Coord]:
    """Centre-based recursive pivots (the paper's primary scheme).

    Returns the centres of every cell at every level, deduplicated while
    preserving coarse-to-fine order.  For a region large enough to split
    cleanly this yields exactly ``pivot_count_for_levels(levels)`` pivots.
    """
    if levels < 1:
        raise ValueError("partition level must be >= 1")
    centers = (
        ((xmin + xmax) // 2, (ymin + ymax) // 2)
        for tier in _recursive_cells(region, levels)
        for xmin, xmax, ymin, ymax in tier
    )
    return list(dict.fromkeys(centers))


def random_pivot_bounds(region: Rect, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(lows, highs)`` draw bounds of :func:`random_pivots`.

    An x then a y is drawn in every cell of the recursive decomposition,
    so the bounds interleave them in that order (``xlo0, ylo0, xlo1,
    ...``, highs exclusive).  They depend only on the region, so a sweep
    over many patterns computes them once.
    """
    if levels < 1:
        raise ValueError("partition level must be >= 1")
    cells = [cell for tier in _recursive_cells(region, levels) for cell in tier]
    lows = [bound for xmin, _, ymin, _ in cells for bound in (xmin, ymin)]
    highs = [bound for _, xmax, _, ymax in cells for bound in (xmax + 1, ymax + 1)]
    return np.array(lows, dtype=np.int64), np.array(highs, dtype=np.int64)


def draw_random_pivots(
    bounds: tuple[np.ndarray, np.ndarray], rng: np.random.Generator
) -> list[Coord]:
    """One random pivot per cell of ``bounds`` (:func:`random_pivot_bounds`).

    One array-bounded ``integers`` call draws every coordinate; repeated
    pivots keep their first occurrence.
    """
    draws = rng.integers(*bounds).tolist()
    return list(dict.fromkeys(zip(draws[0::2], draws[1::2])))


def random_pivots(region: Rect, levels: int, rng: np.random.Generator) -> list[Coord]:
    """One uniformly random pivot per recursive subregion (strategy 2's
    variation: "each pivot node is selected randomly in a submesh")."""
    return draw_random_pivots(random_pivot_bounds(region, levels), rng)


def latin_pivots(region: Rect, count: int, rng: np.random.Generator) -> list[Coord]:
    """Evenly distributed pivots, no two on the same row or column.

    The paper's second Extension-3 variation.  The region is cut into
    ``count`` column bands and ``count`` row bands; a random permutation
    pairs them and one pivot is drawn inside each band intersection, giving
    a latin-square-like spread.
    """
    if count < 1:
        raise ValueError("pivot count must be >= 1")
    if count > min(region.width, region.height):
        raise ValueError(
            f"cannot place {count} row/column-distinct pivots in {region}"
        )
    permutation = rng.permutation(count)
    pivots: list[Coord] = []
    used_x: set[int] = set()
    used_y: set[int] = set()
    for i in range(count):
        xlo = region.xmin + (i * region.width) // count
        xhi = region.xmin + ((i + 1) * region.width) // count - 1
        j = int(permutation[i])
        ylo = region.ymin + (j * region.height) // count
        yhi = region.ymin + ((j + 1) * region.height) // count - 1
        x = int(rng.integers(xlo, xhi + 1))
        y = int(rng.integers(ylo, yhi + 1))
        # Bands are disjoint, so uniqueness holds by construction; assert it.
        assert x not in used_x and y not in used_y
        used_x.add(x)
        used_y.add(y)
        pivots.append((x, y))
    return pivots
