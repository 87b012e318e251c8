"""The 2-D mesh topology.

An ``n x m`` 2-D mesh has ``n * m`` nodes addressed ``(x, y)`` with
``0 <= x < n`` and ``0 <= y < m``.  Two nodes are connected iff their
addresses differ by exactly one in exactly one dimension, so interior nodes
have degree 4 and nodes along each dimension form a linear array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.mesh.geometry import ESL_ORDER, Coord, Direction, Rect, manhattan_distance


@dataclass(frozen=True)
class Mesh2D:
    """An ``n x m`` 2-D mesh (``n`` columns East-ward, ``m`` rows North-ward).

    The class is immutable and cheap: it stores only the dimensions and
    answers topological queries.  Mutable per-node state (fault status,
    safety levels, boundary annotations) lives in the fault-model and core
    layers, keyed by coordinate or held in numpy grids of shape ``(n, m)``
    indexed ``[x, y]``.
    """

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError(f"mesh dimensions must be positive, got {self.n}x{self.m}")

    # ------------------------------------------------------------------
    # Bounds and enumeration
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Total number of nodes."""
        return self.n * self.m

    @property
    def bounds(self) -> Rect:
        """The rectangle covering the entire mesh."""
        return Rect(0, self.n - 1, 0, self.m - 1)

    def in_bounds(self, coord: Coord) -> bool:
        x, y = coord
        return 0 <= x < self.n and 0 <= y < self.m

    def require_in_bounds(self, coord: Coord) -> None:
        if not self.in_bounds(coord):
            raise ValueError(f"{coord} is outside the {self.n}x{self.m} mesh")

    def nodes(self) -> Iterator[Coord]:
        """Iterate every node, column-major (x outer, y inner)."""
        for x in range(self.n):
            for y in range(self.m):
                yield (x, y)

    @property
    def center(self) -> Coord:
        """The centre node (used as the simulation source in the paper)."""
        return (self.n // 2, self.m // 2)

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def neighbor(self, coord: Coord, direction: Direction) -> Coord | None:
        """The neighbour in ``direction`` or ``None`` at the mesh edge."""
        nxt = direction.step(coord)
        return nxt if self.in_bounds(nxt) else None

    def neighbors(self, coord: Coord) -> list[Coord]:
        """All existing neighbours of ``coord`` (2 to 4 of them)."""
        return [neighbor for _, neighbor in self.neighbor_items(coord)]

    def neighbor_items(self, coord: Coord) -> list[tuple[Direction, Coord]]:
        """``(direction, neighbour)`` pairs for all existing neighbours."""
        x, y = coord
        n, m = self.n, self.m
        out = []
        for direction in ESL_ORDER:
            nx, ny = x + direction.dx, y + direction.dy
            if 0 <= nx < n and 0 <= ny < m:
                out.append((direction, (nx, ny)))
        return out

    # ------------------------------------------------------------------
    # Distance and preferred/spare classification (paper Sec. 2)
    # ------------------------------------------------------------------
    def distance(self, a: Coord, b: Coord) -> int:
        """Manhattan distance ``D(a, b)``."""
        self.require_in_bounds(a)
        self.require_in_bounds(b)
        return manhattan_distance(a, b)

    def preferred_directions(self, current: Coord, dest: Coord) -> list[Direction]:
        """Directions whose neighbour is closer to ``dest`` (paper Sec. 2).

        A *preferred neighbour* v of u satisfies ``D(v, d) < D(u, d)``; the
        connecting direction is a *preferred direction*.  There are at most
        two (one per dimension with a non-zero offset).
        """
        out = []
        if dest[0] > current[0]:
            out.append(Direction.EAST)
        elif dest[0] < current[0]:
            out.append(Direction.WEST)
        if dest[1] > current[1]:
            out.append(Direction.NORTH)
        elif dest[1] < current[1]:
            out.append(Direction.SOUTH)
        return out

    def spare_directions(self, current: Coord, dest: Coord) -> list[Direction]:
        """Directions whose (existing) neighbour is farther from ``dest``."""
        preferred = set(self.preferred_directions(current, dest))
        out = []
        for direction in ESL_ORDER:
            if direction in preferred:
                continue
            if self.in_bounds(direction.step(current)):
                out.append(direction)
        return out

    def preferred_neighbors(self, current: Coord, dest: Coord) -> list[Coord]:
        """Existing neighbours strictly closer to ``dest``."""
        out = []
        for direction in self.preferred_directions(current, dest):
            nxt = direction.step(current)
            if self.in_bounds(nxt):
                out.append(nxt)
        return out

    def spare_neighbors(self, current: Coord, dest: Coord) -> list[Coord]:
        """Existing neighbours not closer to ``dest``."""
        return [direction.step(current) for direction in self.spare_directions(current, dest)]

    def __str__(self) -> str:
        return f"Mesh2D({self.n}x{self.m})"
