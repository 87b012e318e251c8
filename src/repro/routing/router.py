"""Router driver and the greedy adaptive baseline.

A router is a *hop function*: given the current node and the destination it
names the next node, using only whatever information the model grants it.
:class:`HopRouter` supplies the shared drive loop; subclasses implement
:meth:`HopRouter.next_hop`.

:class:`GreedyAdaptiveRouter` is the paper's strawman: "any minimal routing
that forwards the packet to a preferred neighbor".  Without boundary
information it can enter a region from which every continuation is blocked
(the paper's Figure 3 (a) discussion); the test-suite exhibits exactly that
failure and shows Wu's protocol avoiding it.
"""

from __future__ import annotations

import abc
from typing import Callable

import numpy as np

from repro.mesh.geometry import Coord, Direction, manhattan_distance
from repro.mesh.topology import Mesh2D
from repro.obs import get_tracer
from repro.routing.path import Path


class RoutingError(RuntimeError):
    """Raised when a router cannot make a legal move.

    ``partial`` carries the trace up to the failure for diagnostics.
    """

    def __init__(self, message: str, partial: list[Coord] | None = None):
        super().__init__(message)
        self.partial = partial or []


#: A tie-breaker picks among equally legal candidate directions.
TieBreaker = Callable[[Coord, Coord, list[Direction]], Direction]


def balanced_tie_breaker(current: Coord, dest: Coord, candidates: list[Direction]) -> Direction:
    """Prefer the dimension with the larger remaining offset.

    Keeps the packet near the diagonal, which maximizes later adaptivity;
    deterministic so experiments are reproducible.
    """
    dx = abs(dest[0] - current[0])
    dy = abs(dest[1] - current[1])
    horizontal_first = dx >= dy
    for direction in candidates:
        if direction.is_horizontal == horizontal_first:
            return direction
    return candidates[0]


def x_first_tie_breaker(current: Coord, dest: Coord, candidates: list[Direction]) -> Direction:
    """Dimension-ordered (XY) choice; with no faults this is e-cube routing."""
    for direction in candidates:
        if direction.is_horizontal:
            return direction
    return candidates[0]


class HopRouter(abc.ABC):
    """Shared drive loop over an abstract hop function.

    The installed tracer (:func:`repro.obs.use_tracer`) receives
    ``route_start`` / ``hop`` / ``detour`` / ``route_end`` events while
    driving; :meth:`next_hop` implementations may leave a justification for
    the current hop in ``self._hop_note`` and it is attached to the ``hop``
    event.  With the default no-op tracer the loop pays one ``enabled``
    check per hop.
    """

    def __init__(self, mesh: Mesh2D):
        self.mesh = mesh
        self._hop_note: dict | None = None

    @abc.abstractmethod
    def next_hop(self, current: Coord, dest: Coord) -> Coord:
        """The next node toward ``dest``; raises :class:`RoutingError` if stuck."""

    def route(self, source: Coord, dest: Coord, max_hops: int | None = None) -> Path:
        """Drive the hop function from source to destination.

        ``max_hops`` defaults to ``D(source, dest) + 2 * mesh.size`` as a
        runaway guard; minimal routers take exactly ``D`` hops because every
        move is to a preferred neighbour.

        A :class:`RoutingError` raised by :meth:`next_hop` is re-raised with
        ``partial`` widened to the full trace accumulated so far (not just
        the stuck node), and the failure is reported as a ``route_failed``
        event carrying that trace.
        """
        self.mesh.require_in_bounds(source)
        self.mesh.require_in_bounds(dest)
        limit = max_hops if max_hops is not None else (
            manhattan_distance(source, dest) + 2 * self.mesh.size
        )
        trc = get_tracer()
        tracing = trc.enabled
        if tracing:
            trc.count("router.routes")
            trc.emit(
                "route_start",
                router=type(self).__name__,
                source=source,
                dest=dest,
                distance=manhattan_distance(source, dest),
            )
        trace = [source]
        current = source
        while current != dest:
            if len(trace) - 1 >= limit:
                error = RoutingError(f"hop limit {limit} exceeded", partial=trace)
                if tracing:
                    trc.emit("route_failed", at=current, dest=dest,
                             reason=str(error), partial=trace)
                raise error
            self._hop_note = None
            try:
                nxt = self.next_hop(current, dest)
            except RoutingError as error:
                if len(error.partial) < len(trace):
                    error.partial = list(trace)
                if tracing:
                    trc.emit("route_failed", at=current, dest=dest,
                             reason=str(error), partial=error.partial)
                raise
            if tracing:
                note = self._hop_note or {}
                trc.emit("hop", at=current, to=nxt, dest=dest,
                         index=len(trace) - 1, **note)
                if manhattan_distance(nxt, dest) > manhattan_distance(current, dest):
                    trc.emit("detour", at=current, to=nxt, dest=dest)
            trace.append(nxt)
            current = nxt
        path = Path.of(trace)
        if tracing:
            trc.count("router.steps", len(trace) - 1)
            trc.emit("route_end", source=source, dest=dest, hops=path.hops,
                     minimal=path.is_minimal, detours=path.detours)
        return path


class GreedyAdaptiveRouter(HopRouter):
    """Forward to any free preferred neighbour; no fault information.

    Minimal when it succeeds (every hop decreases the distance) but may get
    stuck against a block: that failure mode is exactly why the paper
    distributes boundary information.
    """

    def __init__(
        self,
        mesh: Mesh2D,
        blocked: np.ndarray,
        tie_breaker: TieBreaker = balanced_tie_breaker,
    ):
        super().__init__(mesh)
        self.blocked = blocked
        self.tie_breaker = tie_breaker

    def next_hop(self, current: Coord, dest: Coord) -> Coord:
        preferred = self.mesh.preferred_directions(current, dest)
        candidates = [
            direction
            for direction in preferred
            if not self.blocked[direction.step(current)]
        ]
        trc = get_tracer()
        if trc.enabled:
            for direction in preferred:
                if direction not in candidates:
                    trc.emit("block_hit", at=current, blocked=direction.step(current),
                             dest=dest, direction=direction.name)
            self._hop_note = {"rule": "greedy", "candidates": len(candidates)}
        if not candidates:
            raise RoutingError(
                f"greedy routing stuck at {current} toward {dest}", partial=[current]
            )
        return self.tie_breaker(current, dest, candidates).step(current)
