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

A hop costs a few lookups: the tags stored at the node, and for each the
plain stay-on rule of the per-orientation table
:meth:`~repro.core.boundaries.BoundaryMap.stay_on`, which the
:class:`~repro.core.boundaries.BoundaryMap` derives from its canonical
map (one rule per tag, on the tag's first lookup) and caches beside it,
so every router on one map (``repro serve`` builds one router per
witness) shares it.
:meth:`WuRouter.next_hop` (the per-hop callers: the simulator's packet
forwarding and the traffic simulation) and :meth:`WuRouter.route` (a
whole leg in one loop) apply the same step rule;
:meth:`~repro.core.boundaries.CanonicalBoundaryMap.forbidden_directions`
stays the reference the tests hold it to.

:func:`route_with_decision` turns a :class:`~repro.core.conditions.Decision`
into an actual path: single-phase for a safe source, two-phase through the
helper node for the extensions (Theorems 1a/1b/1c), and the one-detour
spare-neighbour route (length ``D + 2``) for sub-minimal decisions.
"""

from __future__ import annotations

import numpy as np

from repro.core.boundaries import BoundaryMap, Line
from repro.core.conditions import Decision, DecisionKind
from repro.faults.blocks import BlockSet
from repro.mesh.geometry import Coord, Direction, manhattan_distance
from repro.mesh.topology import Mesh2D
from repro.obs import Tracer, get_tracer
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
        self.boundaries = boundary_map if boundary_map is not None else BoundaryMap.for_blocks(blocks)
        self.tie_breaker = tie_breaker

    def next_hop(self, current: Coord, dest: Coord) -> Coord:
        trc = get_tracer()
        trace = [current]
        self._walk(trace, dest, 1, trc if trc.enabled else None)
        return trace[1]

    def _walk(self, trace: list[Coord], dest: Coord, hops: int, trc: Tracer | None) -> None:
        """Take ``hops`` hops of the protocol from ``trace[-1]`` toward
        ``dest``, appending each node to ``trace``: the one step rule, in
        plain integers.

        The orientation is recomputed at every hop, as
        ``Frame.for_pair(current, dest)`` would: it changes once the packet
        reaches the destination's row or column.  A preferred move is free
        when its cell is usable.  The tags stored at the node (its
        canonical coordinates reflect ``x -> n - 1 - x`` on a flipped
        axis) map to plain stay-on rules through the orientation's table,
        and a rule whose region holds the reflected destination forbids
        the local North or East move.  When both preferred moves stay
        allowed the tie-breaker picks one.  With a tracer, blocked
        preferred moves are reported and the hop's justification is left
        in ``_hop_note``.
        """
        boundaries = self.boundaries
        grid = boundaries.grid
        tie_breaker = self.tie_breaker
        n1, m1 = self.mesh.n - 1, self.mesh.m - 1
        current = trace[-1]
        x, y = current
        tx, ty = dest
        table_x = table_y = None
        l1 = Line.L1  # a local: reading an Enum member off its class is slow
        for _ in range(hops):
            flip_x, flip_y = tx < x, ty < y
            if flip_x is not table_x or flip_y is not table_y:
                table_x, table_y = flip_x, flip_y
                table = boundaries.stay_on(flip_x, flip_y)
                annotations = table.canonical.annotations
                rule_of = table.get
                lx = n1 - tx if flip_x else tx  # the destination, reflected
                ly = m1 - ty if flip_y else ty
                pair = (Direction.WEST if flip_x else Direction.EAST,
                        Direction.SOUTH if flip_y else Direction.NORTH)
            h_free = v_free = False
            if tx != x:
                hx = x - 1 if flip_x else x + 1
                h_free = not grid[hx][y]
            if ty != y:
                vy = y - 1 if flip_y else y + 1
                v_free = not grid[x][vy]
            if trc is not None:
                if tx != x and not h_free:
                    trc.emit("block_hit", at=current, blocked=(hx, y), dest=dest,
                             direction="WEST" if flip_x else "EAST")
                if ty != y and not v_free:
                    trc.emit("block_hit", at=current, blocked=(x, vy), dest=dest,
                             direction="SOUTH" if flip_y else "NORTH")
            if not (h_free or v_free):
                raise RoutingError(
                    f"no free preferred neighbour at {current} toward {dest}",
                    partial=[current],
                )

            forbid_h = forbid_v = False
            tags = annotations.get((n1 - x if flip_x else x, m1 - y if flip_y else y))
            if tags:
                for tag in tags:
                    rule = rule_of(id(tag))
                    if rule is None:
                        rule = table.derive(tag)
                    if rule:
                        line, bound, lo, hi = rule
                        if line is l1:
                            if lx > bound and lo <= ly <= hi:
                                forbid_v = True
                        elif ly > bound and lo <= lx <= hi:
                            forbid_h = True
            h_ok = h_free and not forbid_h
            v_ok = v_free and not forbid_v
            if trc is not None or not (h_ok or v_ok):
                forbidden = sorted(
                    ["WEST" if flip_x else "EAST"] * forbid_h
                    + ["SOUTH" if flip_y else "NORTH"] * forbid_v
                )
                if trc is not None:
                    self._hop_note = {
                        "rule": "stay-on-line" if forbidden else "adaptive",
                        "candidates": h_ok + v_ok,
                    }
                    if forbidden:
                        self._hop_note["forbidden"] = forbidden
            if h_ok and v_ok:
                direction = tie_breaker(current, dest, pair)
                x += direction.dx
                y += direction.dy
            elif h_ok:
                x = hx
            elif v_ok:
                y = vy
            else:
                raise RoutingError(
                    f"every free preferred move at {current} toward {dest} is a detour "
                    f"direction (forbidden: {forbidden})",
                    partial=[current],
                )
            current = (x, y)
            trace.append(current)

    def route(self, source: Coord, dest: Coord, max_hops: int | None = None) -> Path:
        """Route and assert minimality (each hop is a preferred move).

        With a tracer the leg runs through the shared drive loop, which
        reports every hop; without one it is a single :meth:`_walk` of
        ``D(source, dest)`` hops.
        """
        distance = manhattan_distance(source, dest)
        limit = max_hops if max_hops is not None else distance
        if get_tracer().enabled:
            path = super().route(source, dest, max_hops=limit)
        else:
            self.mesh.require_in_bounds(source)
            self.mesh.require_in_bounds(dest)
            trace = [source]
            try:
                self._walk(trace, dest, min(limit, distance), None)
            except RoutingError as error:
                if len(error.partial) < len(trace):
                    error.partial = list(trace)
                raise
            if trace[-1] != dest:
                raise RoutingError(f"hop limit {limit} exceeded", partial=trace)
            path = Path.of(trace)
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
