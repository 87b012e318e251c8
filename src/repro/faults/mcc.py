"""Wang's minimal-connected-component (MCC) fault model (paper Definition 2).

MCCs refine faulty blocks: instead of disabling every healthy node that is
"pinched" by faults in both dimensions, a node is included in an MCC only if
its use *provably* breaks minimality for a given destination quadrant:

- A **useless** node, once entered, forces the next move West or South (for a
  quadrant-I destination), so no minimal route may *enter* it.
- A **can't-reach** node can only be *entered* by a West or South move, so no
  minimal route may pass through it.

The labelling is quadrant-specific.  Quadrants I and III share the *type-one*
labelling; quadrants II and IV share the *type-two* labelling obtained by
exchanging the roles of the East and West neighbours.  Every node therefore
carries a status **pair** ``(status1, status2)``.

Definition 2 (type one, quadrant-I wording):

    *Initially, all faulty nodes are labeled as faulty and all non-faulty
    nodes as fault-free.  If node u is fault-free, but its north neighbor and
    east neighbor are faulty or useless, u is labeled useless.  If node u is
    fault-free, but its south neighbor and west neighbor are faulty or
    can't-reach, u is labeled can't-reach.  Connected faulty, useless, and
    can't-reach nodes form an MCC.*

Missing neighbours at mesh edges count as fault-free, so a node on the mesh
boundary is never labelled because of the edge alone.  Each label's
fixpoint from scratch has one implementation, the lockstep
:func:`repro.core.batched_patterns.batch_label_closure`: the figure sweeps
label whole pattern stacks with it, and :func:`label_closures` runs it as a
batch of one, once per label: :func:`build_mccs` folds the two label grids
into the status grid and keeps them on the :class:`MCCSet` it returns.
Each label also has one scalar walk, :func:`extend_label`, which extends a
closure from newly blocked cells:
:class:`repro.faults.incremental.IncrementalMCCState` runs it from each
arriving fault, and the tests hold the batched closure to it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.mesh.geometry import Coord, Rect
from repro.mesh.topology import Mesh2D
from repro.obs import get_tracer


class NodeStatus(enum.IntEnum):
    """Per-node, per-quadrant-type MCC status."""

    FAULT_FREE = 0
    FAULTY = 1
    USELESS = 2
    CANT_REACH = 3


class MCCType(enum.IntEnum):
    """Which corner sections Definition 2 removes from the faulty block.

    Type one serves quadrant I/III destinations (NW and SE corner sections
    removed); type two serves quadrant II/IV destinations (SW and NE corner
    sections removed).
    """

    TYPE_ONE = 1
    TYPE_TWO = 2


# Per (MCC type, label): the two neighbour offsets that must both be blocked
# for a fault-free node to acquire the label (paper Def. 2 and its quadrant-II
# East/West exchange).  A node's labelling can only be triggered by a change
# at one of these neighbours, so a worklist closure touching O(#blocked)
# cells computes the fixpoint exactly.
_LABEL_RULES: dict[tuple[MCCType, NodeStatus], tuple[tuple[int, int], tuple[int, int]]] = {
    (MCCType.TYPE_ONE, NodeStatus.USELESS): ((0, 1), (1, 0)),  # North & East
    (MCCType.TYPE_ONE, NodeStatus.CANT_REACH): ((0, -1), (-1, 0)),  # South & West
    (MCCType.TYPE_TWO, NodeStatus.USELESS): ((0, 1), (-1, 0)),  # North & West
    (MCCType.TYPE_TWO, NodeStatus.CANT_REACH): ((0, -1), (1, 0)),  # South & East
}


def extend_label(
    blocked: np.ndarray,
    offsets: tuple[tuple[int, int], tuple[int, int]],
    seeds: Iterable[Coord],
) -> list[Coord]:
    """Walk one label's rule out from newly blocked ``seeds``, in place;
    returns the cells it labels.

    ``blocked`` is the label's closure grid (faulty or labelled) and
    ``offsets`` its two required neighbours.  A blocked cell can only
    trigger the cells it is a required neighbour of, so the walk costs
    O(cells labelled).
    """
    n, m = blocked.shape
    (ax, ay), (bx, by) = offsets
    newly: list[Coord] = []
    stack = list(seeds)
    while stack:
        x, y = stack.pop()
        # (x, y) is the a-neighbour of (x, y) - a and the b-neighbour of
        # (x, y) - b; each still needs its other required neighbour.
        for px, py, qx, qy in (
            (x - ax, y - ay, x - ax + bx, y - ay + by),
            (x - bx, y - by, x - bx + ax, y - by + ay),
        ):
            if (
                0 <= px < n and 0 <= py < m and not blocked[px, py]
                and 0 <= qx < n and 0 <= qy < m and blocked[qx, qy]
            ):
                blocked[px, py] = True
                newly.append((px, py))
                stack.append((px, py))
    return newly


def label_closures(faulty: np.ndarray, mcc_type: MCCType) -> tuple[np.ndarray, np.ndarray]:
    """Definition 2's ``(useless, cant_reach)`` labels of one fault grid,
    faults excluded, each closure labelled once.

    The two closures are *independent* -- a node may end up in both (e.g.
    node (3, 5) of the paper's Figure 1 example is useless and can't-reach
    for type two) -- so both grids are returned; :func:`_status_grid` folds
    them into one status per node.
    """
    # A module-level import of repro.core would be an import cycle.
    from repro.core.batched_patterns import batch_label_closure

    useless, cant_reach = (
        batch_label_closure(faulty[None], _LABEL_RULES[(mcc_type, label)])[0]
        for label in (NodeStatus.USELESS, NodeStatus.CANT_REACH)
    )
    return useless, cant_reach


def _status_grid(faulty: np.ndarray, useless: np.ndarray, cant_reach: np.ndarray) -> np.ndarray:
    """One ``int8`` :class:`NodeStatus` per node, faulty over useless over
    can't-reach."""
    status = np.zeros(faulty.shape, dtype=np.int8)
    status[cant_reach] = NodeStatus.CANT_REACH
    status[useless] = NodeStatus.USELESS
    status[faulty] = NodeStatus.FAULTY
    return status


@dataclass(frozen=True)
class MCCComponent:
    """One connected MCC: faulty plus useless plus can't-reach nodes."""

    mcc_type: MCCType
    coords: frozenset[Coord]
    rect: Rect  # bounding box; the component itself is a staircase polygon
    faulty: frozenset[Coord]
    useless: frozenset[Coord]
    cant_reach: frozenset[Coord]

    @property
    def num_disabled(self) -> int:
        """Healthy nodes sacrificed by the MCC (useless + can't-reach)."""
        return len(self.useless) + len(self.cant_reach)

    @property
    def size(self) -> int:
        return len(self.coords)

    def contains(self, coord: Coord) -> bool:
        return coord in self.coords

    def is_orthogonally_convex(self) -> bool:
        """True if every row and column slice of the component is contiguous.

        Rectilinear-monotone polygons (the shape Definition 2 produces) are
        orthogonally convex; the property tests assert this invariant.
        """
        by_column: dict[int, list[int]] = {}
        by_row: dict[int, list[int]] = {}
        for x, y in self.coords:
            by_column.setdefault(x, []).append(y)
            by_row.setdefault(y, []).append(x)
        for values in list(by_column.values()) + list(by_row.values()):
            values.sort()
            if values[-1] - values[0] + 1 != len(values):
                return False
        return True

    def __str__(self) -> str:
        return (
            f"MCC(type {self.mcc_type.value}, bbox {self.rect}, "
            f"{len(self.faulty)} faulty, {len(self.useless)} useless, "
            f"{len(self.cant_reach)} can't-reach)"
        )


@dataclass
class MCCSet:
    """MCC decomposition of a mesh for one MCC type.

    ``blocked`` is the union grid of all components: exactly the nodes a
    minimal routing (for the corresponding quadrants) must avoid.
    ``labels`` holds the two label grids of :func:`label_closures`, which
    keep a node that is both useless and can't-reach in each closure.
    """

    mesh: Mesh2D
    mcc_type: MCCType
    components: list[MCCComponent]
    faulty: np.ndarray
    status: np.ndarray
    blocked: np.ndarray
    component_id: np.ndarray
    labels: tuple[np.ndarray, np.ndarray]

    def __iter__(self) -> Iterator[MCCComponent]:
        return iter(self.components)

    def __len__(self) -> int:
        return len(self.components)

    @property
    def num_faulty(self) -> int:
        return int(self.faulty.sum())

    @property
    def num_disabled(self) -> int:
        return int(self.blocked.sum()) - self.num_faulty

    def status_at(self, coord: Coord) -> NodeStatus:
        return NodeStatus(int(self.status[coord]))

    def is_blocked(self, coord: Coord) -> bool:
        return bool(self.blocked[coord])

    def average_disabled_per_component(self) -> float:
        """Figure 8's metric under the MCC model."""
        if not self.components:
            return 0.0
        return self.num_disabled / len(self.components)


def build_mccs(mesh: Mesh2D, faults: Iterable[Coord], mcc_type: MCCType) -> MCCSet:
    """Construct the MCCs of ``mesh`` for the given faults and MCC type.

    Runs under an ``mcc.build`` timing span when a tracer is installed
    (see :mod:`repro.obs`).
    """
    trc = get_tracer()
    trc.count("mcc.build")
    with trc.span("mcc.build", n=mesh.n, m=mesh.m, type=mcc_type.name):
        return _build_mccs(mesh, faults, mcc_type)


def _build_mccs(mesh: Mesh2D, faults: Iterable[Coord], mcc_type: MCCType) -> MCCSet:
    faulty = np.zeros((mesh.n, mesh.m), dtype=bool)
    for coord in faults:
        mesh.require_in_bounds(coord)
        faulty[coord] = True

    labels = label_closures(faulty, mcc_type)
    status = _status_grid(faulty, *labels)
    blocked = status != NodeStatus.FAULT_FREE

    from repro.faults.blocks import _connected_components  # shared helper

    components: list[MCCComponent] = []
    component_id = np.full((mesh.n, mesh.m), -1, dtype=np.int32)
    for coords in sorted(_connected_components(blocked), key=min):
        coord_set = frozenset(coords)
        component = MCCComponent(
            mcc_type=mcc_type,
            coords=coord_set,
            rect=Rect.bounding(coords),
            faulty=frozenset(c for c in coords if status[c] == NodeStatus.FAULTY),
            useless=frozenset(c for c in coords if status[c] == NodeStatus.USELESS),
            cant_reach=frozenset(c for c in coords if status[c] == NodeStatus.CANT_REACH),
        )
        index = len(components)
        components.append(component)
        for coord in coords:
            component_id[coord] = index

    return MCCSet(
        mesh=mesh,
        mcc_type=mcc_type,
        components=components,
        faulty=faulty,
        status=status,
        blocked=blocked,
        component_id=component_id,
        labels=labels,
    )
