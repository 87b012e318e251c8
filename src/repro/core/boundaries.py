"""Faulty-block boundary lines (paper Sec. 2, Figures 3 and 6).

Faulty-block information (the two opposite corners of each block) is
distributed to the nodes on the block's four **boundary lines**.  For a
quadrant-I destination the lines that matter run on the source's side of the
block:

- ``L1``: the row just South of the block (``y = ymin - 1``), guarding the
  passage *under* the block; packets travel East along it.
- ``L3``: the column just West of the block (``x = xmin - 1``), guarding the
  passage *West of* the block; packets travel North along it.
- ``L2`` (row ``ymax + 1``) and ``L4`` (column ``xmax + 1``) mark where the
  block has been passed: the stay-on rules end at ``L1 ∩ L4`` and
  ``L3 ∩ L2``.

When a line runs into another block, it *joins* the corresponding line of
that block: the trace turns along the encountered block's near side down to
its own L1/L3 and continues (paper Figure 3 (b), "L3 of block i joins L3 of
block j").  A node on the joined polyline therefore carries the corner
information of every upstream block, and the stored ``toward`` direction
points along the polyline toward the originating block's exit intersection
-- exactly the hop a packet must take while the stay-on rule is in force.

The stay-on rules themselves (which destinations make a node *critical*)
live in :meth:`CanonicalBoundaryMap.forbidden_directions`.  The paper frames
a critical node as having a "preferred but detour direction" -- a preferred
direction that must NOT be taken -- and that is exactly how it is encoded:

- on a *straight row section* of (the polyline of) ``L1`` of block *i*,
  destinations in region ``R6(i) = {x > xmax, ymin <= y <= ymax}`` forbid
  North: every minimal path passes South of the block, and leaving the line
  North-ward gets walled in (by block *i* itself on the original L1 row, and
  by the joined blocks' bands on joined sections, which all straddle the
  previous row of the polyline);
- on a *straight column section* of ``L3`` of block *i*, destinations in
  ``R4(i) = {y > ymax, xmin <= x <= xmax}`` forbid East (mirror argument);
- *turn sections* (the descent along a joined block's East side, the
  crossing along its North side) forbid nothing: both preferred directions
  keep the pass-South / pass-West requirement satisfiable, and the
  surrounding straight sections re-capture the packet if it strays.

Everything here is written for the canonical "destination to the North-East"
orientation; a :class:`~repro.mesh.frames.Frame` anchored at a mesh corner
maps the other quadrants onto it by index reflection (``x -> n - 1 - x``,
``y -> m - 1 - y``), and :class:`BoundaryMap` caches one canonical map per
orientation.

Routing reads the rules through a table derived from each canonical map
(:meth:`BoundaryMap.stay_on`): one plain ``(line, bound, lo, hi)`` tuple
per straight-section tag -- ``(L1, xmax, ymin, ymax)`` forbids North for
``x > xmax, ymin <= y <= ymax`` (R6), ``(L3, ymax, xmin, xmax)`` forbids
East for ``y > ymax, xmin <= x <= xmax`` (R4).  A hop reads the tags
stored at its node and tests a few integers per tag instead of walking
rectangles.  The table is cached next to its canonical map on the
:class:`BoundaryMap`, together with one nested-list copy of ``unusable``
(:attr:`BoundaryMap.grid`); ``forbidden_directions`` stays the
reference the tests hold the table to.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.faults.blocks import BlockSet
from repro.mesh.frames import Frame
from repro.mesh.geometry import Coord, Direction, Rect
from repro.mesh.topology import Mesh2D

__all__ = ["BoundaryMap", "BoundaryTag", "CanonicalBoundaryMap", "Line"]


class Line(enum.Enum):
    """The four boundary lines of a block, in the canonical orientation."""

    L1 = "L1"  # row ymin - 1 (South side)
    L2 = "L2"  # row ymax + 1 (North side)
    L3 = "L3"  # column xmin - 1 (West side)
    L4 = "L4"  # column xmax + 1 (East side)


#: One straight-section stay-on rule, ``(line, bound, lo, hi)`` in canonical
#: coordinates (see the module docstring).
StayOnRule = tuple[Line, int, int, int]


@dataclass(frozen=True)
class BoundaryTag:
    """One block's boundary information held by one node.

    ``toward`` is the next hop along the (joined) line toward the block's
    exit intersection (L1 ∩ L4 for L1, L3 ∩ L2 for L3); ``None`` at the
    intersection itself, where the block has been passed and the rule ends.
    A traced map shares one tag among every node of a polyline section
    that carries the same ``toward``, so tags must never be mutated.
    """

    block_index: int
    line: Line
    toward: Direction | None


def _in_r6(rect: Rect, dest: Coord) -> bool:
    """Destinations triggering the stay-on-L1 rule (East of the block,
    strictly within its row band): all minimal paths pass South of the
    block.  A destination on the L1 row itself (``y = ymin - 1``) is *not*
    critical: paths to it never rise above that row, so the block cannot
    interfere."""
    return dest[0] > rect.xmax and rect.ymin <= dest[1] <= rect.ymax


def _in_r4(rect: Rect, dest: Coord) -> bool:
    """Destinations triggering the stay-on-L3 rule (North of the block,
    strictly within its column band): all minimal paths pass West of the
    block."""
    return dest[1] > rect.ymax and rect.xmin <= dest[0] <= rect.xmax


@dataclass
class CanonicalBoundaryMap:
    """Boundary annotations in one canonical (destination-NE) orientation."""

    mesh: Mesh2D
    rects: list[Rect]
    annotations: dict[Coord, list[BoundaryTag]] = field(default_factory=dict)
    truncated_traces: int = 0  # lines cut short by the mesh edge during a join

    @staticmethod
    def build(mesh: Mesh2D, rects: list[Rect], unusable: np.ndarray) -> "CanonicalBoundaryMap":
        """Trace L1 and L3 (with joins) for every block."""
        bmap = CanonicalBoundaryMap(mesh=mesh, rects=rects)
        block_id = np.full((mesh.n, mesh.m), -1, dtype=np.int32)
        for index, rect in enumerate(rects):
            clipped = rect.clip(mesh.bounds)
            if clipped is not None:
                block_id[clipped.xmin : clipped.xmax + 1, clipped.ymin : clipped.ymax + 1] = index
        # The walks read one cell per hop: nested lists make each read a
        # plain index instead of a numpy scalar access.
        grid, ids = unusable.tolist(), block_id.tolist()
        for index, rect in enumerate(rects):
            bmap._trace_l1(index, rect, grid, ids)
            bmap._trace_l3(index, rect, grid, ids)
        return bmap

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    # Each trace tags the nodes of one polyline as it walks it.  A node's
    # ``toward`` is the hop back to the node placed before it: the travel
    # direction on straight sections, the turn direction on a join.  The
    # first node placed instead takes ``first``: ``toward=None`` at the
    # exit intersection or, when the block touches the mesh edge and that
    # corner lies outside the mesh, the line's travel direction (harmless
    # for routing -- the critical region is then empty -- but it keeps the
    # annotations identical to the distributed protocol's).  A polyline has
    # at most three distinct tags, each shared by all of its nodes.

    def _trace_l1(
        self, index: int, rect: Rect, unusable: list[list[bool]], block_id: list[list[int]]
    ) -> None:
        """L1: start at the L1 ∩ L4 corner, walk West; on hitting a block,
        descend its East side and join its L1."""
        row = rect.ymin - 1
        if row < 0:
            return
        x = min(rect.xmax + 1, self.mesh.n - 1)
        straight = BoundaryTag(index, Line.L1, Direction.EAST)
        turn = BoundaryTag(index, Line.L1, Direction.NORTH)
        first = BoundaryTag(index, Line.L1, None) if x == rect.xmax + 1 else straight
        annotations = self.annotations
        while x >= 0:
            if unusable[x][row]:
                blocker_index = block_id[x][row]
                if blocker_index < 0:  # unusable cell outside any known rect
                    self.truncated_traces += 1
                    break
                new_row = self.rects[blocker_index].ymin - 1
                # Descend along the blocker's East side (its L4 column); when
                # the blocker touches the South edge the descent runs to the
                # edge and the line ends there.
                descent_x = x + 1
                aborted = False
                for y in range(row - 1, max(new_row, 0) - 1, -1):
                    if descent_x >= self.mesh.n or unusable[descent_x][y]:
                        self.truncated_traces += 1
                        aborted = True
                        break
                    annotations.setdefault((descent_x, y), []).append(first or turn)
                    first = None
                if aborted:
                    break
                if new_row < 0:
                    self.truncated_traces += 1
                    break
                row = new_row
                # Continue West on the blocker's L1 from under its East face.
                continue
            annotations.setdefault((x, row), []).append(first or straight)
            first = None
            x -= 1

    def _trace_l3(
        self, index: int, rect: Rect, unusable: list[list[bool]], block_id: list[list[int]]
    ) -> None:
        """L3: start at the L3 ∩ L2 corner, walk South; on hitting a block,
        cross over its North side and join its L3."""
        column = rect.xmin - 1
        if column < 0:
            return
        y = min(rect.ymax + 1, self.mesh.m - 1)
        straight = BoundaryTag(index, Line.L3, Direction.NORTH)
        turn = BoundaryTag(index, Line.L3, Direction.EAST)
        first = BoundaryTag(index, Line.L3, None) if y == rect.ymax + 1 else straight
        annotations = self.annotations
        while y >= 0:
            if unusable[column][y]:
                blocker_index = block_id[column][y]
                if blocker_index < 0:  # unusable cell outside any known rect
                    self.truncated_traces += 1
                    break
                new_column = self.rects[blocker_index].xmin - 1
                # Cross along the blocker's North side (its L2 row); when the
                # blocker touches the West edge the crossing runs to the edge
                # and the line ends there.
                crossing_y = y + 1
                aborted = False
                for x in range(column - 1, max(new_column, 0) - 1, -1):
                    if crossing_y >= self.mesh.m or unusable[x][crossing_y]:
                        self.truncated_traces += 1
                        aborted = True
                        break
                    annotations.setdefault((x, crossing_y), []).append(first or turn)
                    first = None
                if aborted:
                    break
                if new_column < 0:
                    self.truncated_traces += 1
                    break
                column = new_column
                continue
            annotations.setdefault((column, y), []).append(first or straight)
            first = None
            y -= 1

    # ------------------------------------------------------------------
    # Routing queries
    # ------------------------------------------------------------------
    def tags_at(self, node: Coord) -> list[BoundaryTag]:
        return self.annotations.get(node, [])

    def forbidden_directions(self, node: Coord, dest: Coord) -> set[Direction]:
        """Preferred-but-detour directions at ``node`` for ``dest``.

        Empty set: the node is non-critical (any preferred direction works).
        On a straight L1 row section with the destination in that block's
        R6, North is forbidden; on a straight L3 column section with the
        destination in that block's R4, East is forbidden.  Turn sections
        and the exit intersections (``toward is None``) forbid nothing.
        """
        forbidden: set[Direction] = set()
        for tag in self.annotations.get(node, ()):
            rect = self.rects[tag.block_index]
            if (
                tag.line is Line.L1
                and tag.toward is Direction.EAST  # straight row section
                and _in_r6(rect, dest)
            ):
                forbidden.add(Direction.NORTH)
            elif (
                tag.line is Line.L3
                and tag.toward is Direction.NORTH  # straight column section
                and _in_r4(rect, dest)
            ):
                forbidden.add(Direction.EAST)
        return forbidden


class StayOnTable(dict):
    """One orientation's stay-on rules, one per boundary tag.

    ``table[id(tag)]`` is the :data:`StayOnRule` of a straight-section
    tag, or ``()`` for a tag that forbids nothing (turn sections, exit
    intersections); :meth:`derive` fills it on a tag's first lookup.  A
    traced polyline shares its tags, so a map of a few hundred distinct
    tags is derived in that many steps, however many nodes the witnesses
    visit.  The table holds its canonical map, whose annotations keep
    every keyed tag alive.
    """

    def __init__(self, canonical: CanonicalBoundaryMap):
        super().__init__()
        self.canonical = canonical

    def derive(self, tag: BoundaryTag) -> StayOnRule | tuple[()]:
        """Record and return ``tag``'s rule: the R6 / R4 test that
        :meth:`CanonicalBoundaryMap.forbidden_directions` applies for it."""
        rect = self.canonical.rects[tag.block_index]
        rule: StayOnRule | tuple[()] = ()
        if tag.line is Line.L1 and tag.toward is Direction.EAST:
            rule = (Line.L1, rect.xmax, rect.ymin, rect.ymax)
        elif tag.line is Line.L3 and tag.toward is Direction.NORTH:
            rule = (Line.L3, rect.ymax, rect.xmin, rect.xmax)
        self[id(tag)] = rule
        return rule


@dataclass
class BoundaryMap:
    """Boundary information for a block set, for every destination quadrant.

    Canonical maps are built lazily per orientation: quadrant I needs no
    reflection, quadrant III reflects both axes, etc.  The underlying fault
    data is shared; only the traces differ.  Each orientation's stay-on
    table (:meth:`stay_on`) is derived from its canonical map on first use
    and cached beside it.
    """

    mesh: Mesh2D
    rects: list[Rect]
    unusable: np.ndarray
    _canonical: dict[tuple[bool, bool], CanonicalBoundaryMap] = field(default_factory=dict)
    _stay_on: dict[tuple[bool, bool], StayOnTable] = field(default_factory=dict)

    @staticmethod
    def for_blocks(blocks: BlockSet) -> "BoundaryMap":
        return BoundaryMap(mesh=blocks.mesh, rects=blocks.rects(), unusable=blocks.unusable)

    def reflection(self, flip_x: bool, flip_y: bool) -> Frame:
        """The frame that reflects this mesh's indices into one orientation.

        Its origin is the mesh corner the reflection maps to ``(0, 0)``, so
        reflected coordinates stay valid grid indices (an involution).
        """
        origin = (self.mesh.n - 1 if flip_x else 0, self.mesh.m - 1 if flip_y else 0)
        return Frame(origin, flip_x, flip_y)

    def install(self, flip_x: bool, flip_y: bool, canonical: CanonicalBoundaryMap) -> None:
        """Provide an externally formed canonical map for one orientation.

        Lets a router run off the annotations a *distributed* protocol run
        actually produced instead of the locally traced equivalent (the two
        are asserted equal in the tests, but systems should eat their own
        dog food).
        """
        self._canonical[(flip_x, flip_y)] = canonical
        self._stay_on.pop((flip_x, flip_y), None)

    def canonical(self, flip_x: bool, flip_y: bool) -> CanonicalBoundaryMap:
        """The canonical map for one orientation, built on first use."""
        key = (flip_x, flip_y)
        if key not in self._canonical:
            reflection = self.reflection(flip_x, flip_y)
            reflected_rects = [reflection.to_local_rect(r) for r in self.rects]
            reflected_unusable = self.unusable[
                :: -1 if flip_x else 1, :: -1 if flip_y else 1
            ]
            self._canonical[key] = CanonicalBoundaryMap.build(
                self.mesh, reflected_rects, reflected_unusable
            )
        return self._canonical[key]

    def stay_on(self, flip_x: bool, flip_y: bool) -> StayOnTable:
        """One orientation's stay-on table, created on first use and kept
        until :meth:`install` replaces that orientation's canonical map."""
        key = (flip_x, flip_y)
        table = self._stay_on.get(key)
        if table is None:
            table = self._stay_on[key] = StayOnTable(self.canonical(flip_x, flip_y))
        return table

    @cached_property
    def grid(self) -> list[list[bool]]:
        """``unusable`` as nested lists, so a hop reads a cell as a plain
        index."""
        return self.unusable.tolist()
