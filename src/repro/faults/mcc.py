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
boundary is never labelled because of the edge alone.  Each label is a
worklist closure: it starts from the faulty cells and re-examines only the
cells a newly blocked cell can trigger, so its cost is proportional to the
number of blocked cells (verified against a naive fixpoint in the tests).
This scalar labelling is the reference; the figure sweeps label whole
pattern stacks with :func:`repro.core.batched_patterns.batch_label_closure`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.mesh.geometry import Coord, Quadrant, Rect
from repro.mesh.topology import Mesh2D
from repro.obs import get_tracer


class NodeStatus(enum.IntEnum):
    """Per-node, per-quadrant-type MCC status."""

    FAULT_FREE = 0
    FAULTY = 1
    USELESS = 2
    CANT_REACH = 3

    @property
    def in_mcc(self) -> bool:
        return self is not NodeStatus.FAULT_FREE


class MCCType(enum.IntEnum):
    """Which corner sections Definition 2 removes from the faulty block.

    Type one serves quadrant I/III destinations (NW and SE corner sections
    removed); type two serves quadrant II/IV destinations (SW and NE corner
    sections removed).
    """

    TYPE_ONE = 1
    TYPE_TWO = 2

    @staticmethod
    def for_quadrant(quadrant: Quadrant) -> "MCCType":
        return MCCType.TYPE_ONE if quadrant.uses_type_one_mcc else MCCType.TYPE_TWO


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


def _label_closure(
    mesh: Mesh2D,
    faulty: np.ndarray,
    offsets: tuple[tuple[int, int], tuple[int, int]],
) -> np.ndarray:
    """One label's fixpoint (useless *or* can't-reach) as a boolean grid.

    ``offsets`` are the two neighbour directions that must both be blocked
    (faulty or already carrying the same label).  The two closures are
    *independent* -- a node may end up in both (e.g. node (3, 5) of the
    paper's Figure 1 example is useless and can't-reach for type two), so
    each runs on its own blocked grid seeded only from the faults.  Starts
    from the faulty cells and walks opposite the trigger directions, so the
    cost is proportional to the number of blocked cells.
    """
    n, m = mesh.n, mesh.m
    (ax, ay), (bx, by) = offsets
    blocked = faulty.copy()  # faulty or labelled

    def try_label(x: int, y: int, worklist: list[Coord]) -> None:
        if not (0 <= x < n and 0 <= y < m) or blocked[x, y]:
            return
        nax, nay = x + ax, y + ay
        nbx, nby = x + bx, y + by
        if not (0 <= nax < n and 0 <= nay < m and blocked[nax, nay]):
            return
        if not (0 <= nbx < n and 0 <= nby < m and blocked[nbx, nby]):
            return
        blocked[x, y] = True
        worklist.append((x, y))

    worklist: list[Coord] = [(int(x), int(y)) for x, y in zip(*np.nonzero(faulty))]
    while worklist:
        next_worklist: list[Coord] = []
        for x, y in worklist:
            # A newly blocked cell can only trigger the cells for which it is
            # one of the two required neighbours.
            try_label(x - ax, y - ay, next_worklist)
            try_label(x - bx, y - by, next_worklist)
        worklist = next_worklist
    return blocked & ~faulty


def label_statuses(mesh: Mesh2D, faulty: np.ndarray, mcc_type: MCCType) -> np.ndarray:
    """Compute Definition 2's status grid for one MCC type.

    Returns an ``int8`` grid of :class:`NodeStatus` values, shape ``(n, m)``.
    A node satisfying both closures reports ``USELESS`` (one status per node;
    the blocked-set semantics are unaffected).
    """
    status = np.zeros((mesh.n, mesh.m), dtype=np.int8)
    status[faulty] = NodeStatus.FAULTY
    useless = _label_closure(mesh, faulty, _LABEL_RULES[(mcc_type, NodeStatus.USELESS)])
    cant_reach = _label_closure(mesh, faulty, _LABEL_RULES[(mcc_type, NodeStatus.CANT_REACH)])
    status[useless] = NodeStatus.USELESS
    status[cant_reach & ~useless] = NodeStatus.CANT_REACH
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
    """

    mesh: Mesh2D
    mcc_type: MCCType
    components: list[MCCComponent]
    faulty: np.ndarray
    status: np.ndarray
    blocked: np.ndarray
    component_id: np.ndarray

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

    def component_at(self, coord: Coord) -> MCCComponent | None:
        idx = int(self.component_id[coord])
        return self.components[idx] if idx >= 0 else None

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

    status = label_statuses(mesh, faulty, mcc_type)
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
    )


def build_status_pairs(mesh: Mesh2D, faults: Iterable[Coord]) -> tuple[MCCSet, MCCSet]:
    """Both MCC decompositions at once.

    Returns ``(type_one, type_two)`` so callers can attach the paper's status
    pair ``(status1, status2)`` to each node: ``status1`` governs quadrant
    I/III routing, ``status2`` quadrant II/IV routing.
    """
    fault_list = list(faults)
    return (
        build_mccs(mesh, fault_list, MCCType.TYPE_ONE),
        build_mccs(mesh, fault_list, MCCType.TYPE_TWO),
    )
