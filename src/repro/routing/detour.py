"""Non-minimal fault-tolerant baseline: XY routing with block detours.

The fault-tolerant routing literature the paper builds on (Boppana &
Chalasani's f-rings and successors) delivers packets *non-minimally*:
dimension-ordered (XY) routing that, on hitting a faulty block, walks around
the block's perimeter and resumes.  This router provides that baseline so
the paper's minimal-routing results can be contrasted with what
guaranteed-delivery-with-detours costs in hops.

Mechanics: the router walks toward a stack of waypoints (initially just the
destination) in dimension order, x before y.  When the next hop would enter
a block, it pushes two detour waypoints -- climb to the block's ring on the
side nearer the current target, then cross to the block's far side along
that ring -- and continues; after the crossing the normal XY walk resumes
from the ring, so a block straddling the target's column never causes the
back-and-forth oscillation a "descend back to the original row" rule would.

Correctness relies on two properties of Definition 1's blocks, both enforced
elsewhere in this library: blocks are rectangles, and distinct blocks are
Chebyshev-separated by at least 2, so a block's one-node-away perimeter ring
never runs through another block (property test ``test_blocks_never_touch``).
A ring can still fall off the mesh when a block touches the mesh edge; the
router then raises :class:`RoutingError` -- the model's known limitation.
"""

from __future__ import annotations

from repro.faults.blocks import BlockSet
from repro.mesh.geometry import Coord, Direction, manhattan_distance
from repro.mesh.topology import Mesh2D
from repro.obs import get_tracer
from repro.routing.path import Path
from repro.routing.router import RoutingError


class DetourRouter:
    """XY routing with perimeter traversal around faulty blocks.

    Not a :class:`~repro.routing.router.HopRouter`: the detour needs a small
    waypoint stack, so the route is produced whole.  Every decision still
    uses only local information plus the blocking block's corner coordinates
    -- exactly what the boundary-information model distributes.
    """

    def __init__(self, mesh: Mesh2D, blocks: BlockSet):
        self.mesh = mesh
        self.blocks = blocks

    def route(self, source: Coord, dest: Coord) -> Path:
        self.mesh.require_in_bounds(source)
        self.mesh.require_in_bounds(dest)
        if self.blocks.is_unusable(source) or self.blocks.is_unusable(dest):
            raise RoutingError(f"endpoint inside a faulty block: {source} -> {dest}")

        trc = get_tracer()
        tracing = trc.enabled
        if tracing:
            trc.emit("route_start", router=type(self).__name__, source=source,
                     dest=dest, distance=manhattan_distance(source, dest))
        trace = [source]
        targets = [dest]
        guard = 8 * self.mesh.size + 16  # every detour ring is finite
        steps = 0
        while targets:
            steps += 1
            if steps > guard:
                raise self._fail("detour routing failed to converge", trace, dest)
            current = trace[-1]
            target = targets[-1]
            if current == target:
                targets.pop()
                continue
            direction = _xy_direction(current, target)
            nxt = direction.step(current)
            if not self.mesh.in_bounds(nxt):
                raise self._fail(f"detour walk left the mesh at {current}", trace, dest)
            if not self.blocks.is_unusable(nxt):
                if tracing:
                    rule = "xy" if target == dest else "ring"
                    trc.emit("hop", at=current, to=nxt, dest=dest,
                             index=len(trace) - 1, rule=rule)
                    if manhattan_distance(nxt, dest) > manhattan_distance(current, dest):
                        trc.emit("detour", at=current, to=nxt, dest=dest)
                trace.append(nxt)
                continue
            if tracing:
                trc.emit("block_hit", at=current, blocked=nxt, dest=dest,
                         direction=direction.name)
            try:
                climb, crossing = self._detour_waypoints(current, direction, target)
            except RoutingError as error:
                if len(error.partial) < len(trace):
                    error.partial = list(trace)
                if tracing:
                    trc.emit("route_failed", at=current, dest=dest,
                             reason=str(error), partial=error.partial)
                raise
            targets.append(crossing)
            targets.append(climb)
        path = Path.of(trace)
        if tracing:
            trc.emit("route_end", source=source, dest=dest, hops=path.hops,
                     minimal=path.is_minimal, detours=path.detours)
        return path

    def _fail(self, reason: str, trace: list[Coord], dest: Coord) -> RoutingError:
        error = RoutingError(reason, partial=trace)
        trc = get_tracer()
        if trc.enabled:
            trc.emit("route_failed", at=trace[-1], dest=dest,
                     reason=reason, partial=trace)
        return error

    # ------------------------------------------------------------------
    def _detour_waypoints(
        self, current: Coord, blocked_dir: Direction, target: Coord
    ) -> tuple[Coord, Coord]:
        """(climb-to-ring, cross-to-far-side) waypoints around the block
        ahead of ``current`` in ``blocked_dir``."""
        block = self.blocks.block_at(blocked_dir.step(current))
        assert block is not None
        rect = block.rect

        if blocked_dir.is_horizontal:
            far_x = rect.xmax + 1 if blocked_dir is Direction.EAST else rect.xmin - 1
            if not 0 <= far_x < self.mesh.n:
                raise RoutingError(
                    f"block {rect} reaches the mesh edge; no far side to round to"
                )
            side = _pick_ring(current[1], target[1], rect.ymax + 1, rect.ymin - 1, self.mesh.m)
            return (current[0], side), (far_x, side)

        far_y = rect.ymax + 1 if blocked_dir is Direction.NORTH else rect.ymin - 1
        if not 0 <= far_y < self.mesh.m:
            raise RoutingError(
                f"block {rect} reaches the mesh edge; no far side to round to"
            )
        side = _pick_ring(current[0], target[0], rect.xmax + 1, rect.xmin - 1, self.mesh.n)
        return (side, current[1]), (side, far_y)


def _xy_direction(current: Coord, target: Coord) -> Direction:
    """Dimension-ordered next direction: x first, then y."""
    if target[0] > current[0]:
        return Direction.EAST
    if target[0] < current[0]:
        return Direction.WEST
    return Direction.NORTH if target[1] > current[1] else Direction.SOUTH


def _pick_ring(position: int, target_position: int, high: int, low: int, limit: int) -> int:
    """The ring coordinate to round a block on.

    Prefer the side toward the current target (cheaper detour), falling back
    to the other side at a mesh edge; raise when both rings are outside the
    mesh (the block spans the full cross-section).
    """
    preferred = high if target_position >= position else low
    fallback = low if preferred == high else high
    if 0 <= preferred < limit:
        return preferred
    if 0 <= fallback < limit:
        return fallback
    raise RoutingError(
        f"block rings {low} and {high} both fall off the mesh; "
        "detour routing cannot round an edge-spanning block"
    )
