"""Wu's minimal routing protocol and the extensions' two-phase routings.

:class:`WuRouter` realizes the paper's protocol: adaptive minimal routing
that consults only the boundary information present at the current node
(:mod:`repro.core.boundaries`).  At a non-critical node any free preferred
neighbour may be chosen; on the left section of a block's L1 (or the lower
section of its L3, or their joined polylines) with the destination in the
block's critical region, the packet must stay on the line -- the stay-on
direction is forced.

Theorem 1 guarantees that, from a safe source, this purely local procedure
delivers the packet in exactly ``D(s, d)`` hops; the test-suite checks that
guarantee for every safe pair on randomized fault patterns.

:func:`route_with_decision` turns a :class:`~repro.core.conditions.Decision`
into an actual path: single-phase for a safe source, two-phase through the
helper node for the extensions (Theorems 1a/1b/1c), and the one-detour
spare-neighbour route (length ``D + 2``) for sub-minimal decisions.
"""

from __future__ import annotations

import numpy as np

from repro.core.boundaries import BoundaryMap
from repro.core.conditions import Decision, DecisionKind
from repro.faults.blocks import BlockSet
from repro.mesh.frames import Frame
from repro.mesh.geometry import Coord, manhattan_distance
from repro.mesh.topology import Mesh2D
from repro.obs import get_tracer
from repro.routing.path import Path
from repro.routing.router import (
    HopRouter,
    RoutingError,
    TieBreaker,
    balanced_tie_breaker,
)

__all__ = ["RoutingError", "WuRouter", "route_with_decision"]


class WuRouter(HopRouter):
    """The paper's boundary-information minimal routing protocol."""

    def __init__(
        self,
        mesh: Mesh2D,
        blocks: BlockSet,
        boundary_map: BoundaryMap | None = None,
        tie_breaker: TieBreaker = balanced_tie_breaker,
    ):
        super().__init__(mesh)
        self.blocks = blocks
        self.boundaries = boundary_map if boundary_map is not None else BoundaryMap.for_blocks(blocks)
        self.tie_breaker = tie_breaker

    def next_hop(self, current: Coord, dest: Coord) -> Coord:
        frame = Frame.for_pair(current, dest)
        reflection = self.boundaries.reflection(frame.flip_x, frame.flip_y)
        canonical = self.boundaries.canonical(frame.flip_x, frame.flip_y)

        preferred = self.mesh.preferred_directions(current, dest)
        candidates = [
            direction
            for direction in preferred
            if not self.blocks.unusable[direction.step(current)]
        ]
        trc = get_tracer()
        tracing = trc.enabled
        if tracing:
            for direction in preferred:
                if direction not in candidates:
                    trc.emit("block_hit", at=current, blocked=direction.step(current),
                             dest=dest, direction=direction.name)
        if not candidates:
            raise RoutingError(
                f"no free preferred neighbour at {current} toward {dest}",
                partial=[current],
            )

        forbidden = {
            reflection.to_local_direction(d)
            for d in canonical.forbidden_directions(
                reflection.to_local(current), reflection.to_local(dest)
            )
        }
        allowed = [direction for direction in candidates if direction not in forbidden]
        if tracing:
            self._hop_note = {
                "rule": "stay-on-line" if forbidden else "adaptive",
                "candidates": len(allowed),
            }
            if forbidden:
                self._hop_note["forbidden"] = sorted(d.name for d in forbidden)
        if not allowed:
            raise RoutingError(
                f"every free preferred move at {current} toward {dest} is a detour "
                f"direction (forbidden: {sorted(d.name for d in forbidden)})",
                partial=[current],
            )
        return self.tie_breaker(current, dest, allowed).step(current)

    def route(self, source: Coord, dest: Coord, max_hops: int | None = None) -> Path:
        """Route and assert minimality (each hop is a preferred move)."""
        limit = max_hops if max_hops is not None else manhattan_distance(source, dest)
        path = super().route(source, dest, max_hops=limit)
        assert path.is_minimal  # every hop decreases the distance by one
        return path


def route_with_decision(
    router: WuRouter,
    decision: Decision,
    blocked: np.ndarray | None = None,
) -> Path:
    """Realize a safe-condition decision as an actual routed path.

    - ``SOURCE_SAFE``: one phase of Wu's protocol.
    - ``PREFERRED_NEIGHBOR_SAFE``: hop to the neighbour, then Wu's protocol
      (still minimal: the neighbour is one hop closer).
    - ``SPARE_NEIGHBOR_SAFE``: hop to the spare neighbour, then Wu's
      protocol -- the sub-minimal route of length ``D + 2``.
    - ``AXIS_NODE_SAFE`` / ``PIVOT_SAFE``: Wu's protocol to the helper, then
      from the helper to the destination; both legs are monotone toward the
      destination, so the concatenation is minimal.

    Raises :class:`RoutingError` for ``UNSAFE`` decisions.
    """
    source, dest, via = decision.source, decision.dest, decision.via
    kind = decision.kind
    trc = get_tracer()
    if trc.enabled:
        trc.emit("extension_fired", decision=kind.value, source=source, dest=dest,
                 via=via, overhead=decision.expected_length_overhead)
    if kind is DecisionKind.UNSAFE:
        raise RoutingError(f"decision for {source} -> {dest} is unsafe; nothing to route")
    if kind is DecisionKind.SOURCE_SAFE:
        return router.route(source, dest)
    assert via is not None
    if kind in (DecisionKind.PREFERRED_NEIGHBOR_SAFE, DecisionKind.SPARE_NEIGHBOR_SAFE):
        first_leg = Path.of([source, via])
        if trc.enabled:
            # The single neighbour hop never enters the driver loop, so
            # report it here to keep hop accounting exact.
            rule = ("spare-neighbor" if kind is DecisionKind.SPARE_NEIGHBOR_SAFE
                    else "preferred-neighbor")
            trc.emit("hop", at=source, to=via, dest=dest, index=0, rule=rule)
            if manhattan_distance(via, dest) > manhattan_distance(source, dest):
                trc.emit("detour", at=source, to=via, dest=dest)
    else:  # axis node or pivot: a full Wu-protocol leg
        first_leg = router.route(source, via)
    second_leg = router.route(via, dest)
    path = first_leg.concat(second_leg)

    expected = manhattan_distance(source, dest) + decision.expected_length_overhead
    if path.hops != expected:
        raise RoutingError(
            f"{kind.value} route took {path.hops} hops, expected {expected}",
            partial=list(path.nodes),
        )
    if blocked is not None and not path.avoids(blocked):
        raise RoutingError("routed path crosses a blocked node", partial=list(path.nodes))
    return path
