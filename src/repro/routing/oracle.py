"""Global-information reference routers.

These routers see the whole fault map, so they serve as ground truth:

- :func:`shortest_path_bfs` -- unrestricted shortest path (minimal *or*
  detouring), used to measure how much longer non-minimal routes get.
- :class:`MonotoneOracleRouter` -- a *minimal* router that precomputes, per
  (source, destination) pair, which nodes can still reach the destination by
  a monotone path, and only ever steps onto such nodes.  Exact for any
  obstacle shape (rectangular blocks or MCC staircases), it realizes every
  existence verdict of :func:`repro.faults.coverage.minimal_path_exists`
  with an actual path.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.faults.coverage import monotone_reachability
from repro.mesh.frames import Frame
from repro.mesh.geometry import Coord, manhattan_distance
from repro.mesh.topology import Mesh2D
from repro.routing.path import Path
from repro.routing.router import HopRouter, RoutingError, balanced_tie_breaker


def shortest_path_bfs(mesh: Mesh2D, blocked: np.ndarray, source: Coord, dest: Coord) -> Path | None:
    """Breadth-first shortest path avoiding blocked nodes; ``None`` if cut off."""
    if blocked[source] or blocked[dest]:
        return None
    if source == dest:
        return Path.of([source])
    parent: dict[Coord, Coord] = {source: source}
    queue: deque[Coord] = deque([source])
    while queue:
        current = queue.popleft()
        for neighbor in mesh.neighbors(current):
            if neighbor in parent or blocked[neighbor]:
                continue
            parent[neighbor] = current
            if neighbor == dest:
                nodes = [neighbor]
                while nodes[-1] != source:
                    nodes.append(parent[nodes[-1]])
                nodes.reverse()
                return Path.of(nodes)
            queue.append(neighbor)
    return None


class MonotoneOracleRouter(HopRouter):
    """Minimal routing with full fault knowledge (any obstacle shape).

    Per (source, destination) pair it computes the monotone reachability
    grid *from the destination's side*: reversing a monotone path shows a
    node can reach the destination minimally iff the destination reaches it
    in the mirrored problem.  Every hop then steps to a preferred neighbour
    that still has that property, so the delivered path is always minimal.
    """

    def __init__(self, mesh: Mesh2D, blocked: np.ndarray):
        super().__init__(mesh)
        self.blocked = blocked
        self._cache: tuple[Coord, Coord, Frame, np.ndarray] | None = None

    def _can_reach_dest(self, node: Coord, source: Coord, dest: Coord) -> bool:
        """Whether a minimal path from ``node`` to ``dest`` exists, reading
        the cached reverse-reachability grid."""
        cache = self._cache
        if cache is None or cache[0] != source or cache[1] != dest:
            frame = Frame.for_pair(dest, source)  # reversed: grid grows from dest
            reach = monotone_reachability(self.blocked, dest, source)
            self._cache = (source, dest, frame, reach)
            cache = self._cache
        _, _, frame, reach = cache
        local = frame.to_local(node)
        if not (0 <= local[0] < reach.shape[0] and 0 <= local[1] < reach.shape[1]):
            return False
        return bool(reach[local])

    def next_hop(self, current: Coord, dest: Coord) -> Coord:
        raise NotImplementedError(
            "MonotoneOracleRouter needs the route() entry point (per-pair cache)"
        )

    def route(self, source: Coord, dest: Coord, max_hops: int | None = None) -> Path:
        self.mesh.require_in_bounds(source)
        self.mesh.require_in_bounds(dest)
        if not self._can_reach_dest(source, source, dest):
            raise RoutingError(f"no minimal path from {source} to {dest}")
        trace = [source]
        current = source
        while current != dest:
            candidates = [
                direction
                for direction in self.mesh.preferred_directions(current, dest)
                if not self.blocked[direction.step(current)]
                and self._can_reach_dest(direction.step(current), source, dest)
            ]
            if not candidates:
                raise RoutingError(
                    f"oracle invariant violated at {current} toward {dest}", partial=trace
                )
            current = balanced_tie_breaker(current, dest, candidates).step(current)
            trace.append(current)
        path = Path.of(trace)
        assert path.hops == manhattan_distance(source, dest)
        return path
