"""Geometric primitives for 2-D meshes.

Orientation convention (matches the paper's figures): the x axis grows to the
**East** and the y axis grows to the **North**.  A node address is a pair
``(x, y)`` of non-negative integers.  Rectangles are *inclusive* on both ends,
mirroring the paper's ``[xmin : xmax, ymin : ymax]`` block notation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Collection, Iterator

Coord = tuple[int, int]


class Direction(enum.Enum):
    """The four mesh directions, ordered as in the paper's ESL tuple (E,S,W,N).

    Each member's ``dx`` / ``dy`` (its unit step), ``is_horizontal`` /
    ``is_vertical``, ``opposite`` and ``index`` (its position in
    :data:`ESL_ORDER`, also its channel-array slot) are plain attributes
    fixed once when the class is built.  Members are singletons compared
    by identity, so they also hash by identity: reading an attribute or
    keying a dict by a direction stays a C-level operation on the
    simulator's per-message path.  Hot paths iterate the :data:`ESL_ORDER`
    tuple rather than the class, whose iterator runs in Python.
    """

    EAST = (1, 0)
    SOUTH = (0, -1)
    WEST = (-1, 0)
    NORTH = (0, 1)

    dx: int
    dy: int
    is_horizontal: bool
    is_vertical: bool
    opposite: "Direction"
    index: int

    __hash__ = object.__hash__

    def __init__(self, dx: int, dy: int) -> None:
        self.dx = dx
        self.dy = dy
        self.is_horizontal = dx != 0
        self.is_vertical = dy != 0

    def step(self, coord: Coord, hops: int = 1) -> Coord:
        """Return the coordinate ``hops`` steps away in this direction."""
        x, y = coord
        return (x + self.dx * hops, y + self.dy * hops)

    @staticmethod
    def between(src: Coord, dst: Coord) -> "Direction":
        """Direction of the single hop from ``src`` to an adjacent ``dst``.

        Raises :class:`ValueError` if the nodes are not mesh neighbours.
        """
        dx = dst[0] - src[0]
        dy = dst[1] - src[1]
        try:
            return _BY_DELTA[(dx, dy)]
        except KeyError:
            raise ValueError(f"{src} and {dst} are not adjacent") from None


_BY_DELTA = {d.value: d for d in Direction}

#: ESL tuple ordering used throughout the paper: (E, S, W, N).
ESL_ORDER: tuple[Direction, ...] = (
    Direction.EAST,
    Direction.SOUTH,
    Direction.WEST,
    Direction.NORTH,
)

for _index, _direction in enumerate(ESL_ORDER):
    _direction.index = _index
    _direction.opposite = _BY_DELTA[(-_direction.dx, -_direction.dy)]
del _index, _direction


class Quadrant(enum.IntEnum):
    """Quadrants of the destination relative to the source (paper Sec. 2).

    Quadrant I is North-East, II North-West, III South-West, IV South-East.
    Destinations on the axes are conventionally folded into the adjacent
    quadrant with the non-negative offset (so routing straight East is a
    degenerate quadrant-I routing).
    """

    I = 1
    II = 2
    III = 3
    IV = 4


def manhattan_distance(a: Coord, b: Coord) -> int:
    """``D(a, b) = |xa - xb| + |ya - yb|`` -- the minimal hop count in a mesh."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def chebyshev_distance(a: Coord, b: Coord) -> int:
    """Max per-axis offset; used for cluster-radius fault workloads."""
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


@dataclass(frozen=True, order=True)
class Rect:
    """An inclusive axis-aligned rectangle ``[xmin : xmax, ymin : ymax]``.

    This is the paper's representation of a faulty block.  All bounds are
    inclusive, so a single node ``(x, y)`` is the rectangle
    ``Rect(x, x, y, y)``.
    """

    xmin: int
    xmax: int
    ymin: int
    ymax: int

    def __post_init__(self) -> None:
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise ValueError(f"degenerate rectangle {self!r}")

    @staticmethod
    def bounding(coords: Collection[Coord]) -> "Rect":
        """Smallest rectangle containing every coordinate in ``coords``."""
        if not coords:
            raise ValueError("cannot bound an empty coordinate set")
        xs = [c[0] for c in coords]
        ys = [c[1] for c in coords]
        return Rect(min(xs), max(xs), min(ys), max(ys))

    @property
    def width(self) -> int:
        return self.xmax - self.xmin + 1

    @property
    def height(self) -> int:
        return self.ymax - self.ymin + 1

    @property
    def area(self) -> int:
        return self.width * self.height

    def contains(self, coord: Coord) -> bool:
        x, y = coord
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax

    def intersects(self, other: "Rect") -> bool:
        return not (
            other.xmax < self.xmin
            or self.xmax < other.xmin
            or other.ymax < self.ymin
            or self.ymax < other.ymin
        )

    def union(self, other: "Rect") -> "Rect":
        return Rect(
            min(self.xmin, other.xmin),
            max(self.xmax, other.xmax),
            min(self.ymin, other.ymin),
            max(self.ymax, other.ymax),
        )

    def clip(self, other: "Rect") -> "Rect | None":
        """Intersection rectangle, or ``None`` if disjoint."""
        if not self.intersects(other):
            return None
        return Rect(
            max(self.xmin, other.xmin),
            min(self.xmax, other.xmax),
            max(self.ymin, other.ymin),
            min(self.ymax, other.ymax),
        )

    def coords(self) -> Iterator[Coord]:
        """Iterate every node inside the rectangle (column-major)."""
        for x in range(self.xmin, self.xmax + 1):
            for y in range(self.ymin, self.ymax + 1):
                yield (x, y)

    def column_range(self) -> range:
        return range(self.xmin, self.xmax + 1)

    def row_range(self) -> range:
        return range(self.ymin, self.ymax + 1)

    def __str__(self) -> str:  # paper notation
        return f"[{self.xmin}:{self.xmax}, {self.ymin}:{self.ymax}]"
