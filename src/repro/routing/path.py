"""Path records for routed packets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.mesh.geometry import Coord, manhattan_distance


@dataclass(frozen=True)
class Path:
    """An ordered node sequence from source to destination.

    Immutable; construction validates hop-by-hop adjacency so an invalid
    path can never be represented.
    """

    nodes: tuple[Coord, ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("a path needs at least one node")
        for a, b in zip(self.nodes, self.nodes[1:]):
            if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:  # D(a, b), inlined
                raise ValueError(f"non-adjacent hop {a} -> {b}")

    @staticmethod
    def of(nodes: Sequence[Coord]) -> "Path":
        return Path(tuple(nodes))

    @property
    def source(self) -> Coord:
        return self.nodes[0]

    @property
    def dest(self) -> Coord:
        return self.nodes[-1]

    @property
    def hops(self) -> int:
        return len(self.nodes) - 1

    @property
    def is_minimal(self) -> bool:
        """True iff the path length equals the Manhattan distance."""
        return self.hops == manhattan_distance(self.source, self.dest)

    @property
    def is_sub_minimal(self) -> bool:
        """True iff the path takes exactly one detour (length ``D + 2``)."""
        return self.hops == manhattan_distance(self.source, self.dest) + 2

    @property
    def detours(self) -> int:
        """Number of hops that moved *away* from the destination."""
        count = 0
        for a, b in zip(self.nodes, self.nodes[1:]):
            if manhattan_distance(b, self.dest) > manhattan_distance(a, self.dest):
                count += 1
        return count

    def avoids(self, blocked: np.ndarray) -> bool:
        """True iff no node of the path is blocked."""
        return not any(bool(blocked[node]) for node in self.nodes)

    def concat(self, other: "Path") -> "Path":
        """Join two paths sharing an endpoint (``self.dest == other.source``)."""
        if self.dest != other.source:
            raise ValueError(f"cannot join: {self.dest} != {other.source}")
        return Path(self.nodes + other.nodes[1:])

    def __iter__(self) -> Iterator[Coord]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __str__(self) -> str:
        kind = "minimal" if self.is_minimal else f"{self.detours}-detour"
        return f"Path({self.source} -> {self.dest}, {self.hops} hops, {kind})"
