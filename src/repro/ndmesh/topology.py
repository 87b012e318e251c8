"""N-dimensional mesh topology.

A ``k_1 x ... x k_d`` mesh has one node per integer point of the box and an
edge between nodes differing by one in exactly one coordinate.  Coordinates
are plain tuples; grids are numpy arrays of matching shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

CoordND = tuple[int, ...]


@dataclass(frozen=True)
class MeshND:
    """An N-dimensional mesh (``len(shape)`` dimensions)."""

    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.shape:
            raise ValueError("a mesh needs at least one dimension")
        if any(k < 1 for k in self.shape):
            raise ValueError(f"dimensions must be positive, got {self.shape}")

    @property
    def dimensions(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        total = 1
        for k in self.shape:
            total *= k
        return total

    @property
    def center(self) -> CoordND:
        return tuple(k // 2 for k in self.shape)

    def in_bounds(self, coord: CoordND) -> bool:
        if len(coord) != self.dimensions:
            return False
        return all(0 <= c < k for c, k in zip(coord, self.shape))

    def require_in_bounds(self, coord: CoordND) -> None:
        if not self.in_bounds(coord):
            raise ValueError(f"{coord} is outside the {self.shape} mesh")

    def nodes(self) -> Iterator[CoordND]:
        import itertools

        return itertools.product(*(range(k) for k in self.shape))

    def neighbors(self, coord: CoordND) -> list[CoordND]:
        self.require_in_bounds(coord)
        out: list[CoordND] = []
        for axis in range(self.dimensions):
            for delta in (-1, 1):
                candidate = self.step(coord, axis, delta)
                if candidate is not None:
                    out.append(candidate)
        return out

    def step(self, coord: CoordND, axis: int, delta: int) -> CoordND | None:
        """The node ``delta`` steps along ``axis``, or None off the mesh."""
        value = coord[axis] + delta
        if not 0 <= value < self.shape[axis]:
            return None
        return coord[:axis] + (value,) + coord[axis + 1 :]

    def distance(self, a: CoordND, b: CoordND) -> int:
        self.require_in_bounds(a)
        self.require_in_bounds(b)
        return sum(abs(x - y) for x, y in zip(a, b))

    def __str__(self) -> str:
        return "MeshND(" + "x".join(str(k) for k in self.shape) + ")"
