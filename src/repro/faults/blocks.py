"""The faulty block model (paper Definition 1).

    *In a 2-D mesh, a non-faulty node is initially labeled enabled; however,
    its status is changed to disabled if there are two or more disabled or
    faulty neighbors in different dimensions.  Connected disabled and faulty
    nodes form a faulty block.*

The labelling runs to a fixpoint.  In a 2-D mesh with node faults the
converged connected regions are rectangles -- the worked example of the
paper (eight faults forming block ``[2:6, 3:6]``) is reproduced in the test
suite.  :func:`build_faulty_blocks` nevertheless *verifies* rectangularity of
every component and, should a non-rectangular component ever arise, closes it
to its bounding box and re-runs the fixpoint (a monotone, terminating
completion).  The counter :attr:`BlockSet.rectangularization_rounds` records
whether that fallback ever fired; the property tests assert it stays 0.

All heavy state is kept in numpy boolean grids of shape ``(n, m)`` indexed
``[x, y]`` so the fixpoint is a handful of vectorised array operations per
round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.mesh.geometry import Coord, Rect
from repro.mesh.topology import Mesh2D
from repro.obs import get_tracer


def _shifted(mask: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """``out[x, y] = mask[x + dx, y + dy]`` with out-of-range reads as False."""
    out = np.zeros_like(mask)
    n, m = mask.shape
    xsrc = slice(max(dx, 0), n + min(dx, 0))
    xdst = slice(max(-dx, 0), n + min(-dx, 0))
    ysrc = slice(max(dy, 0), m + min(dy, 0))
    ydst = slice(max(-dy, 0), m + min(-dy, 0))
    out[xdst, ydst] = mask[xsrc, ysrc]
    return out


def disable_fixpoint(faulty: np.ndarray) -> np.ndarray:
    """Run Definition 1's disabling rule to a fixpoint.

    Returns the *unusable* mask (faulty or disabled).  A healthy node becomes
    disabled when it has at least one unusable neighbour in the x dimension
    **and** at least one in the y dimension ("two or more ... in different
    dimensions").  Missing neighbours at mesh edges count as healthy.

    The fixpoint seeds with one vectorised full-grid pass, then only
    re-examines cells adjacent to the previous round's newly-disabled set,
    so every round after the first costs O(frontier) instead of O(n*m).
    """
    n, m = faulty.shape
    unusable = faulty.copy()
    # Round 1 as a dense pass: scattered faults usually converge here, and
    # the vectorised whole-grid rule is cheaper than per-fault gathers.
    horizontal = _shifted(unusable, 1, 0) | _shifted(unusable, -1, 0)
    vertical = _shifted(unusable, 0, 1) | _shifted(unusable, 0, -1)
    seeded = ~unusable & horizontal & vertical
    unusable |= seeded
    # A cell can first satisfy the rule only in the round after one of its
    # neighbours became unusable, so from here on scanning the frontier's
    # neighbourhood finds every newly-disabled cell.
    frontier_x, frontier_y = np.nonzero(seeded)
    while frontier_x.size:
        cand_x = np.concatenate([frontier_x - 1, frontier_x + 1, frontier_x, frontier_x])
        cand_y = np.concatenate([frontier_y, frontier_y, frontier_y - 1, frontier_y + 1])
        keep = (cand_x >= 0) & (cand_x < n) & (cand_y >= 0) & (cand_y < m)
        flat = np.unique(cand_x[keep] * m + cand_y[keep])
        cand_x, cand_y = flat // m, flat % m
        enabled = ~unusable[cand_x, cand_y]
        cand_x, cand_y = cand_x[enabled], cand_y[enabled]
        if not cand_x.size:
            break
        horizontal = np.zeros(cand_x.shape, dtype=bool)
        vertical = np.zeros(cand_x.shape, dtype=bool)
        west = cand_x > 0
        horizontal[west] = unusable[cand_x[west] - 1, cand_y[west]]
        east = cand_x < n - 1
        horizontal[east] |= unusable[cand_x[east] + 1, cand_y[east]]
        south = cand_y > 0
        vertical[south] = unusable[cand_x[south], cand_y[south] - 1]
        north = cand_y < m - 1
        vertical[north] |= unusable[cand_x[north], cand_y[north] + 1]
        newly = horizontal & vertical
        frontier_x, frontier_y = cand_x[newly], cand_y[newly]
        unusable[frontier_x, frontier_y] = True
    return unusable


def _connected_components(mask: np.ndarray) -> list[list[Coord]]:
    """4-connected components of True cells, as coordinate lists.

    Labels maximal y-runs per column and unions overlapping runs between
    adjacent columns -- O(#runs) Python work instead of O(#cells).
    """
    if not mask.any():
        return []
    pad = np.zeros((mask.shape[0], 1), dtype=bool)
    starts = mask & ~np.concatenate([pad, mask[:, :-1]], axis=1)
    ends = mask & ~np.concatenate([mask[:, 1:], pad], axis=1)
    # Row-major nonzero yields runs sorted by (x, y); starts and ends align
    # one-to-one because every run has exactly one of each.
    run_x, run_y0 = np.nonzero(starts)
    _, run_y1 = np.nonzero(ends)
    # Python ints from here on: the merge/group loops touch every run a few
    # times, and list indexing is several times cheaper than numpy scalars.
    x_list, y0_list, y1_list = run_x.tolist(), run_y0.tolist(), run_y1.tolist()

    parent = list(range(run_x.size))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    rows = np.unique(run_x)
    bounds = np.searchsorted(run_x, np.concatenate([rows, [rows[-1] + 1]]))
    row_slice = {int(row): (int(bounds[i]), int(bounds[i + 1])) for i, row in enumerate(rows)}
    for row in rows.tolist():
        if row + 1 not in row_slice:
            continue
        a, a_end = row_slice[row]
        b, b_end = row_slice[row + 1]
        while a < a_end and b < b_end:
            if y1_list[a] < y0_list[b]:
                a += 1
            elif y1_list[b] < y0_list[a]:
                b += 1
            else:  # overlapping y intervals: same component
                root_a, root_b = find(a), find(b)
                if root_a != root_b:
                    parent[root_b] = root_a
                if y1_list[a] <= y1_list[b]:
                    a += 1
                else:
                    b += 1
    grouped: dict[int, list[Coord]] = {}
    for i, x in enumerate(x_list):
        bucket = grouped.setdefault(find(i), [])
        y0, y1 = y0_list[i], y1_list[i]
        if y0 == y1:  # single-cell runs dominate at scattered fault density
            bucket.append((x, y0))
        else:
            bucket.extend((x, y) for y in range(y0, y1 + 1))
    return list(grouped.values())


@dataclass(frozen=True)
class FaultyBlock:
    """One rectangular faulty block ``[xmin:xmax, ymin:ymax]``.

    ``faulty`` holds the genuinely failed nodes inside the block; ``disabled``
    the healthy nodes sacrificed by Definition 1.  Their union fills the
    rectangle exactly.
    """

    rect: Rect
    faulty: frozenset[Coord]
    disabled: frozenset[Coord]

    @property
    def num_faulty(self) -> int:
        return len(self.faulty)

    @property
    def num_disabled(self) -> int:
        return len(self.disabled)

    @property
    def size(self) -> int:
        return self.rect.area

    def contains(self, coord: Coord) -> bool:
        return self.rect.contains(coord)

    def adjacent_nodes(self, mesh) -> list[Coord]:
        """Enabled nodes with a faulty/disabled neighbour in this block
        (paper Sec. 2: "an enabled node is an adjacent node of a faulty
        block if it has one faulty or disabled neighbor in that block")."""
        out: list[Coord] = []
        rect = self.rect
        for x in rect.column_range():
            for y in (rect.ymin - 1, rect.ymax + 1):
                if mesh.in_bounds((x, y)):
                    out.append((x, y))
        for y in rect.row_range():
            for x in (rect.xmin - 1, rect.xmax + 1):
                if mesh.in_bounds((x, y)):
                    out.append((x, y))
        return out

    def corner_nodes(self, mesh) -> list[Coord]:
        """The paper's block *corners*: enabled nodes with two adjacent
        nodes of the block in different dimensions -- the four diagonal
        neighbours of the rectangle's corners that lie inside the mesh."""
        rect = self.rect
        candidates = [
            (rect.xmin - 1, rect.ymin - 1),
            (rect.xmin - 1, rect.ymax + 1),
            (rect.xmax + 1, rect.ymin - 1),
            (rect.xmax + 1, rect.ymax + 1),
        ]
        return [coord for coord in candidates if mesh.in_bounds(coord)]

    def __str__(self) -> str:
        return (
            f"FaultyBlock{self.rect} "
            f"({self.num_faulty} faulty, {self.num_disabled} disabled)"
        )


@dataclass
class BlockSet:
    """All faulty blocks of a mesh plus the derived occupancy grids.

    Attributes
    ----------
    mesh:
        The underlying mesh.
    blocks:
        The disjoint rectangular blocks.
    faulty:
        Boolean grid of genuinely faulty nodes.
    unusable:
        Boolean grid of faulty-or-disabled nodes (the union of all blocks).
    block_id:
        Integer grid; ``block_id[x, y]`` is the index into :attr:`blocks`
        of the block containing ``(x, y)``, or ``-1``.
    rectangularization_rounds:
        How many times the bounding-box completion fallback fired (expected 0;
        see module docstring).
    """

    mesh: Mesh2D
    blocks: list[FaultyBlock]
    faulty: np.ndarray
    unusable: np.ndarray
    block_id: np.ndarray
    rectangularization_rounds: int = 0

    def __iter__(self) -> Iterator[FaultyBlock]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def num_faulty(self) -> int:
        return int(self.faulty.sum())

    @property
    def num_disabled(self) -> int:
        return int(self.unusable.sum()) - self.num_faulty

    def is_unusable(self, coord: Coord) -> bool:
        """True if the node is inside a faulty block (faulty or disabled)."""
        return bool(self.unusable[coord])

    def is_faulty(self, coord: Coord) -> bool:
        return bool(self.faulty[coord])

    def block_at(self, coord: Coord) -> FaultyBlock | None:
        """The block containing ``coord``, if any."""
        idx = int(self.block_id[coord])
        return self.blocks[idx] if idx >= 0 else None

    def rects(self) -> list[Rect]:
        return [block.rect for block in self.blocks]

    def average_disabled_per_block(self) -> float:
        """Figure 8's metric: mean number of disabled nodes per block."""
        if not self.blocks:
            return 0.0
        return self.num_disabled / len(self.blocks)


def build_faulty_blocks(mesh: Mesh2D, faults: Iterable[Coord]) -> BlockSet:
    """Construct the faulty blocks of ``mesh`` for the given faulty nodes.

    Runs Definition 1's disabling rule to a fixpoint, extracts 4-connected
    components of unusable nodes, and packages each as a rectangular
    :class:`FaultyBlock`.  Runs under a ``blocks.build`` timing span when a
    tracer is installed (see :mod:`repro.obs`).
    """
    trc = get_tracer()
    trc.count("blocks.build")
    with trc.span("blocks.build", n=mesh.n, m=mesh.m):
        return _build_faulty_blocks(mesh, faults)


def _build_faulty_blocks(mesh: Mesh2D, faults: Iterable[Coord]) -> BlockSet:
    faulty = np.zeros((mesh.n, mesh.m), dtype=bool)
    for coord in faults:
        mesh.require_in_bounds(coord)
        faulty[coord] = True

    unusable = disable_fixpoint(faulty)
    rounds = 0
    while True:
        components = _connected_components(unusable)
        irregular = [c for c in components if len(c) != Rect.bounding(c).area]
        if not irregular:
            break
        # Defensive completion: close non-rectangular components to their
        # bounding boxes and re-run the fixpoint (see module docstring).
        rounds += 1
        for component in irregular:
            rect = Rect.bounding(component)
            unusable[rect.xmin : rect.xmax + 1, rect.ymin : rect.ymax + 1] = True
        unusable = disable_fixpoint(unusable)

    blocks: list[FaultyBlock] = []
    block_id = np.full((mesh.n, mesh.m), -1, dtype=np.int32)
    # `components` is the extraction that passed the rectangularity check.
    for component in sorted(components, key=min):
        rect = Rect.bounding(component)
        block_faulty = frozenset(c for c in component if faulty[c])
        block_disabled = frozenset(c for c in component if not faulty[c])
        index = len(blocks)
        blocks.append(FaultyBlock(rect=rect, faulty=block_faulty, disabled=block_disabled))
        block_id[rect.xmin : rect.xmax + 1, rect.ymin : rect.ymax + 1] = index

    return BlockSet(
        mesh=mesh,
        blocks=blocks,
        faulty=faulty,
        unusable=unusable,
        block_id=block_id,
        rectangularization_rounds=rounds,
    )
