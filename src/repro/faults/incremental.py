"""Incremental fault-update engine: O(affected) delta maintenance.

The paper's information model is incremental -- "when a disturbance
occurs, only those affected nodes update their information" -- and its
Theorem 2 bounds how small the perturbed set is: one fault arrival
touches the rows/columns of its own extent plus whatever blocks it can
merge with.  The from-scratch builders (:func:`repro.faults.blocks.
build_faulty_blocks`, :func:`repro.core.safety.compute_safety_levels`,
:func:`repro.faults.mcc.build_mccs`) nevertheless pay O(n*m) per call,
which is what every fault arrival/revival in a live mesh used to cost.

This module maintains the same state by *deltas*:

- **Arrival** is monotone: Definition 1's disabling rule only grows the
  unusable set, and every newly disabled cell is triggered through a
  chain of newly unusable neighbours back to the arriving fault.  A
  frontier walk seeded at the fault therefore finds the exact new
  fixpoint in O(delta); the touched cells can only merge the blocks
  4-adjacent to them, so stitching is O(area of the merged blocks).
- **Revival** is local: distinct blocks are never 4-adjacent (they would
  be one component), so re-running the fixpoint inside the dead block's
  own rectangle -- with the mesh-edge boundary convention -- reproduces
  the global fixpoint exactly.  The block shrinks, splits, or vanishes;
  nothing outside its footprint moves.
- **ESLs** follow the affected-rows model: a blocked-status change at
  ``(x, y)`` perturbs only the East/West scans of row ``y`` and the
  North/South scans of column ``x``; those lines are rescanned with the
  same vectorised pass as the full computation
  (:func:`repro.core.safety.refresh_safety_levels`), bit-identically.
- **MCCs** (Definition 2) get the same treatment per closure: the two
  labelling rules are monotone under fault arrival, so a worklist seeded
  at the new fault computes each closure's new fixpoint in O(delta);
  revival re-runs both closures inside the dead component's cell set.
  Each tracked MCC type keeps its own ESL grids, rescanned over the
  rows and columns of the cells whose MCC-blocked status flipped.

Every event bumps a per-mesh **generation counter** and yields an
:class:`UpdateReport` naming the affected window, so caches
(:class:`repro.parallel.cache.ArtifactCache`,
:class:`repro.simulator.traffic.PathPolicy`) can drop exactly the
entries a fault actually invalidated instead of clearing wholesale.

Should a non-rectangular component ever arise (the same defensive case
:func:`build_faulty_blocks` guards against), the engine falls back to
one full rebuild for that event and says so in the report
(``full_rebuild=True``, tallied on the ``incr.full_rebuilds`` hot
counter); the equivalence suite asserts the fallback never fires on the
tested schedules.  Incremental maintenance is cross-validated against
the full rebuild bit-identically in ``tests/test_incremental.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.safety import (
    SafetyLevels,
    compute_safety_levels,
    refresh_safety_levels,
)
from repro.faults.blocks import (
    BlockSet,
    FaultyBlock,
    _connected_components,
    build_faulty_blocks,
    disable_fixpoint,
)
from repro.faults.mcc import (
    _LABEL_RULES,
    MCCComponent,
    MCCSet,
    MCCType,
    NodeStatus,
    build_mccs,
)
from repro.mesh.geometry import Coord, Rect
from repro.mesh.topology import Mesh2D
from repro.obs import get_tracer

__all__ = [
    "IncrementalFaultEngine",
    "IncrementalMCCState",
    "UpdateReport",
    "ordered_block_set",
]


@dataclass(frozen=True)
class UpdateReport:
    """What one fault arrival/revival touched.

    ``affected_rect`` bounds every cell whose blocked status (or block
    membership) changed -- the window a cached artifact must be checked
    against; ``affected_cells`` counts the cells inside it that actually
    changed, and ``affected_fraction`` normalises that by the mesh size
    (the paper's locality claim, measured).  ``full_rebuild`` flags the
    defensive fallback (see module docstring).
    """

    event: str  # "inject" | "revive"
    coord: Coord
    generation: int
    affected_rect: Rect
    affected_cells: int
    affected_fraction: float
    full_rebuild: bool = False


def _rescan(levels: SafetyLevels, blocked: np.ndarray, cells: list[Coord]) -> None:
    """Rescan the ESL rows and columns of ``cells`` (their blocked status
    flipped) -- the affected-rows model."""
    if cells:
        refresh_safety_levels(
            levels, blocked, xs={x for x, _ in cells}, ys={y for _, y in cells}
        )


def ordered_block_set(
    mesh: Mesh2D, blocks: Iterable[FaultyBlock], faulty: np.ndarray, unusable: np.ndarray
) -> BlockSet:
    """A :class:`BlockSet` over ``blocks`` (in any order) and the given
    grids, ordered like :func:`build_faulty_blocks`: blocks sorted by
    minimal cell, ``block_id`` indexing that order."""
    # A block fills its rectangle, so its minimal cell is the corner.
    ordered = sorted(blocks, key=lambda b: (b.rect.xmin, b.rect.ymin))
    block_id = np.full((mesh.n, mesh.m), -1, dtype=np.int32)
    for index, block in enumerate(ordered):
        rect = block.rect
        block_id[rect.xmin : rect.xmax + 1, rect.ymin : rect.ymax + 1] = index
    return BlockSet(
        mesh=mesh, blocks=ordered, faulty=faulty, unusable=unusable, block_id=block_id
    )


def _count_affected(report: UpdateReport) -> UpdateReport:
    trc = get_tracer()
    if trc.enabled:
        trc.count("incr.events")
        trc.count("incr.affected_cells", report.affected_cells)
        if report.full_rebuild:
            trc.count("incr.full_rebuilds")
    return report


class IncrementalMCCState:
    """Delta-maintained MCC decomposition for one MCC type.

    Mirrors :func:`repro.faults.mcc.build_mccs` state (status grid,
    blocked union, components) and updates it per fault event; the
    :meth:`mcc_set` snapshot is bit-identical to a from-scratch build.
    ``levels`` are the ESLs of ``blocked``, delta-maintained like the
    engine's block ESLs.  Owned and driven by
    :class:`IncrementalFaultEngine`.
    """

    def __init__(self, mesh: Mesh2D, faults: Iterable[Coord], mcc_type: MCCType):
        self.mesh = mesh
        self.mcc_type = mcc_type
        built = build_mccs(mesh, faults, mcc_type)
        self.faulty = built.faulty.copy()
        self.status = built.status.copy()
        self.blocked = built.blocked.copy()
        self.levels = compute_safety_levels(mesh, self.blocked)
        # Per-closure blocked grids (faulty | that label); the two closures
        # are independent (a node may carry both labels), so each keeps its
        # own grid exactly like the from-scratch `_label_closure`.
        self._closure: dict[NodeStatus, np.ndarray] = {}
        for label in (NodeStatus.USELESS, NodeStatus.CANT_REACH):
            from repro.faults.mcc import _label_closure

            self._closure[label] = self.faulty | _label_closure(
                mesh, self.faulty, _LABEL_RULES[(mcc_type, label)]
            )
        # Stable component slots: the grid holds slot ids, the dict maps
        # slot -> component; slots never shift on unrelated events.
        self._slots: dict[int, MCCComponent] = {}
        self._slot_grid = np.full((mesh.n, mesh.m), -1, dtype=np.int32)
        self._next_slot = 0
        for component in built.components:
            slot = self._next_slot
            self._next_slot += 1
            self._slots[slot] = component
            for coord in component.coords:
                self._slot_grid[coord] = slot

    # ------------------------------------------------------------------
    def _closure_propagate(
        self, grid: np.ndarray, label: NodeStatus, seed: Coord
    ) -> list[Coord]:
        """Extend one closure's fixpoint after ``seed`` became blocked.

        A cell can newly satisfy the rule only if one of its two required
        neighbours is newly blocked *in this closure*, so walking opposite
        the trigger offsets from each newly blocked cell finds the exact
        new fixpoint (same worklist shape as ``_label_closure``).
        """
        (ax, ay), (bx, by) = _LABEL_RULES[(self.mcc_type, label)]
        n, m = self.mesh.n, self.mesh.m
        newly: list[Coord] = []
        worklist = [seed]
        while worklist:
            nxt: list[Coord] = []
            for x, y in worklist:
                for px, py in ((x - ax, y - ay), (x - bx, y - by)):
                    if not (0 <= px < n and 0 <= py < m) or grid[px, py]:
                        continue
                    nax, nay = px + ax, py + ay
                    nbx, nby = px + bx, py + by
                    if not (0 <= nax < n and 0 <= nay < m and grid[nax, nay]):
                        continue
                    if not (0 <= nbx < n and 0 <= nby < m and grid[nbx, nby]):
                        continue
                    grid[px, py] = True
                    newly.append((px, py))
                    nxt.append((px, py))
            worklist = nxt
        return newly

    def _component_cells(self, slot: int) -> frozenset[Coord]:
        return self._slots[slot].coords

    def _make_component(self, coords: frozenset[Coord]) -> MCCComponent:
        status = self.status
        return MCCComponent(
            mcc_type=self.mcc_type,
            coords=coords,
            rect=Rect.bounding(sorted(coords)),
            faulty=frozenset(c for c in coords if status[c] == NodeStatus.FAULTY),
            useless=frozenset(c for c in coords if status[c] == NodeStatus.USELESS),
            cant_reach=frozenset(
                c for c in coords if status[c] == NodeStatus.CANT_REACH
            ),
        )

    def _install(self, coords: frozenset[Coord]) -> None:
        slot = self._next_slot
        self._next_slot += 1
        self._slots[slot] = self._make_component(coords)
        for coord in coords:
            self._slot_grid[coord] = slot

    # ------------------------------------------------------------------
    def inject(self, coord: Coord) -> None:
        self.faulty[coord] = True
        touched: list[Coord] = [coord]
        for label in (NodeStatus.USELESS, NodeStatus.CANT_REACH):
            grid = self._closure[label]
            if grid[coord]:
                continue  # already blocked in this closure (was labelled)
            grid[coord] = True
            newly = self._closure_propagate(grid, label, coord)
            for cell in newly:
                if label is NodeStatus.USELESS:
                    self.status[cell] = NodeStatus.USELESS
                elif self.status[cell] != NodeStatus.USELESS:
                    self.status[cell] = NodeStatus.CANT_REACH
            touched.extend(newly)
        self.status[coord] = NodeStatus.FAULTY

        new_blocked = [c for c in touched if not self.blocked[c]]
        for cell in new_blocked:
            self.blocked[cell] = True
        _rescan(self.levels, self.blocked, new_blocked)
        # Every touched cell chains back to the fault through blocked
        # cells, so the fault's component absorbs every component holding
        # or 4-adjacent to a touched cell.
        merge: set[int] = set()
        for cell in touched:
            slot = int(self._slot_grid[cell])
            if slot >= 0:
                merge.add(slot)
        n, m = self.mesh.n, self.mesh.m
        for x, y in new_blocked:
            for px, py in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)):
                if 0 <= px < n and 0 <= py < m:
                    slot = int(self._slot_grid[px, py])
                    if slot >= 0:
                        merge.add(slot)
        coords = set(new_blocked)
        for slot in merge:
            coords |= self._slots.pop(slot).coords
        self._install(frozenset(coords))

    # ------------------------------------------------------------------
    def revive(self, coord: Coord) -> None:
        self.faulty[coord] = False
        slot = int(self._slot_grid[coord])
        component = self._slots.pop(slot)
        rect = component.rect
        window = (
            slice(rect.xmin, rect.xmax + 1),
            slice(rect.ymin, rect.ymax + 1),
        )
        # Another component may own cells inside this bounding box (the
        # staircase shapes interleave), so every write below is masked to
        # the component's own cells.
        in_comp = np.zeros((rect.width, rect.height), dtype=bool)
        for x, y in component.coords:
            in_comp[x - rect.xmin, y - rect.ymin] = True
        sub_faulty = self.faulty[window] & in_comp

        # Re-run both closures restricted to the component: its cells are
        # never 4-adjacent to another component, so treating everything
        # outside as fault-free matches the global fixpoint.
        from repro.faults.blocks import _shifted

        new_closures: dict[NodeStatus, np.ndarray] = {}
        for label in (NodeStatus.USELESS, NodeStatus.CANT_REACH):
            (ax, ay), (bx, by) = _LABEL_RULES[(self.mcc_type, label)]
            closed = sub_faulty.copy()
            while True:
                grown = (
                    in_comp
                    & ~closed
                    & _shifted(closed, ax, ay)
                    & _shifted(closed, bx, by)
                )
                if not grown.any():
                    break
                closed |= grown
            new_closures[label] = closed

        sub_status = np.zeros_like(self.status[window])
        sub_status[new_closures[NodeStatus.CANT_REACH] & ~sub_faulty] = (
            NodeStatus.CANT_REACH
        )
        sub_status[new_closures[NodeStatus.USELESS] & ~sub_faulty] = NodeStatus.USELESS
        sub_status[sub_faulty] = NodeStatus.FAULTY
        sub_blocked = (
            sub_faulty
            | new_closures[NodeStatus.USELESS]
            | new_closures[NodeStatus.CANT_REACH]
        )

        for label in (NodeStatus.USELESS, NodeStatus.CANT_REACH):
            grid = self._closure[label][window]
            grid[in_comp] = new_closures[label][in_comp]
            self._closure[label][window] = grid
        status = self.status[window]
        status[in_comp] = sub_status[in_comp]
        self.status[window] = status
        blocked = self.blocked[window]
        blocked[in_comp] = sub_blocked[in_comp]
        self.blocked[window] = blocked
        _rescan(self.levels, self.blocked, [
            (int(x) + rect.xmin, int(y) + rect.ymin)
            for x, y in np.argwhere(in_comp & ~sub_blocked)
        ])
        slot_grid = self._slot_grid[window]
        slot_grid[in_comp] = -1
        self._slot_grid[window] = slot_grid

        for cells in _connected_components(sub_blocked & in_comp):
            self._install(
                frozenset((x + rect.xmin, y + rect.ymin) for x, y in cells)
            )

    # ------------------------------------------------------------------
    def rebuild(self, faults: Iterable[Coord]) -> None:
        """Full rebuild fallback (driven by the engine's defensive path)."""
        self.__init__(self.mesh, faults, self.mcc_type)

    def mcc_set(self) -> MCCSet:
        """Materialize the current state as a from-scratch-ordered
        :class:`MCCSet` snapshot (components sorted by minimal coordinate,
        arrays copied)."""
        components = sorted(self._slots.values(), key=lambda c: min(c.coords))
        component_id = np.full((self.mesh.n, self.mesh.m), -1, dtype=np.int32)
        for index, component in enumerate(components):
            for coord in component.coords:
                component_id[coord] = index
        return MCCSet(
            mesh=self.mesh,
            mcc_type=self.mcc_type,
            components=components,
            faulty=self.faulty.copy(),
            status=self.status.copy(),
            blocked=self.blocked.copy(),
            component_id=component_id,
        )


class IncrementalFaultEngine:
    """Delta-maintained ``(faulty, blocks, ESL[, MCCs + ESLs])`` of a live mesh.

    Build once from an initial fault set (one full construction), then
    feed it fault arrivals (:meth:`inject`) and revivals (:meth:`revive`);
    each event costs O(affected) instead of O(n*m) and returns an
    :class:`UpdateReport` describing the perturbed window.  Snapshots
    (:meth:`block_set`, :meth:`mcc_set`) materialize views bit-identical
    to the from-scratch builders for the same fault set.
    """

    def __init__(
        self,
        mesh: Mesh2D,
        faults: Iterable[Coord] = (),
        mcc_types: Iterable[MCCType] = (),
    ):
        self.mesh = mesh
        self.generation = 0
        self.full_rebuilds = 0
        built = build_faulty_blocks(mesh, faults)
        self.faulty = built.faulty
        self.unusable = built.unusable
        self.levels = compute_safety_levels(mesh, built.unusable)
        self._slots: dict[int, FaultyBlock] = dict(enumerate(built.blocks))
        self._slot_grid = built.block_id.copy()
        self._next_slot = len(built.blocks)
        self._mccs: dict[MCCType, IncrementalMCCState] = {}
        for mcc_type in mcc_types:
            self.track_mcc(mcc_type)

    # ------------------------------------------------------------------
    @property
    def faults(self) -> list[Coord]:
        """The current fault set, sorted."""
        return [(int(x), int(y)) for x, y in np.argwhere(self.faulty)]

    def track_mcc(self, mcc_type: MCCType) -> IncrementalMCCState:
        """Start delta-maintaining the MCC decomposition of ``mcc_type``
        (built once from the current fault set; kept in sync from then on)."""
        if mcc_type not in self._mccs:
            self._mccs[mcc_type] = IncrementalMCCState(
                self.mesh, self.faults, mcc_type
            )
        return self._mccs[mcc_type]

    def apply(self, event: str, coord: Coord) -> UpdateReport:
        """Apply one named event: ``inject``/``crash`` or ``revive``."""
        if event in ("inject", "crash"):
            return self.inject(coord)
        if event == "revive":
            return self.revive(coord)
        raise ValueError(f"unknown fault event {event!r}")

    # ------------------------------------------------------------------
    def inject(self, coord: Coord) -> UpdateReport:
        """One fault arrival; O(affected) delta maintenance."""
        self.mesh.require_in_bounds(coord)
        if self.faulty[coord]:
            raise ValueError(f"{coord} already faulty")
        self.generation += 1
        self.faulty[coord] = True

        if self.unusable[coord]:
            # The fault landed on an already-disabled node: no mask, block
            # shape, or ESL changes -- only the faulty/disabled partition
            # of its block moves.
            slot = int(self._slot_grid[coord])
            block = self._slots[slot]
            self._slots[slot] = FaultyBlock(
                rect=block.rect,
                faulty=block.faulty | {coord},
                disabled=block.disabled - {coord},
            )
            for mcc in self._mccs.values():
                mcc.inject(coord)
            x, y = coord
            return self._report("inject", coord, [coord], Rect(x, x, y, y))

        new_cells = self._propagate_disable(coord)
        merge: set[int] = set()
        n, m = self.mesh.n, self.mesh.m
        for x, y in new_cells:
            for px, py in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)):
                if 0 <= px < n and 0 <= py < m:
                    slot = int(self._slot_grid[px, py])
                    if slot >= 0:
                        merge.add(slot)
        merged: set[Coord] = set(new_cells)
        for slot in merge:
            block = self._slots[slot]
            merged |= block.faulty
            merged |= block.disabled
        rect = Rect.bounding(sorted(merged))
        if len(merged) != rect.area:
            # Defensive completion (same guard as build_faulty_blocks);
            # never observed, but correctness beats locality here.
            return self._full_rebuild("inject", coord)
        for slot in merge:
            del self._slots[slot]
        block_faulty = frozenset(c for c in merged if self.faulty[c])
        slot = self._next_slot
        self._next_slot += 1
        self._slots[slot] = FaultyBlock(
            rect=rect,
            faulty=block_faulty,
            disabled=frozenset(merged) - block_faulty,
        )
        self._slot_grid[rect.xmin : rect.xmax + 1, rect.ymin : rect.ymax + 1] = slot
        _rescan(self.levels, self.unusable, new_cells)
        for mcc in self._mccs.values():
            mcc.inject(coord)
        return self._report("inject", coord, new_cells, rect)

    def _propagate_disable(self, coord: Coord) -> list[Coord]:
        """Definition 1's fixpoint extension after ``coord`` turned faulty.

        Every newly disabled cell is triggered through a chain of newly
        unusable neighbours back to ``coord`` (otherwise it would already
        have been disabled), so a frontier walk from the fault finds the
        exact new global fixpoint in O(delta).
        """
        n, m = self.mesh.n, self.mesh.m
        unusable = self.unusable
        unusable[coord] = True
        new_cells = [coord]
        frontier = [coord]
        while frontier:
            nxt: list[Coord] = []
            for x, y in frontier:
                for cx, cy in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)):
                    if not (0 <= cx < n and 0 <= cy < m) or unusable[cx, cy]:
                        continue
                    horizontal = (cx > 0 and unusable[cx - 1, cy]) or (
                        cx + 1 < n and unusable[cx + 1, cy]
                    )
                    vertical = (cy > 0 and unusable[cx, cy - 1]) or (
                        cy + 1 < m and unusable[cx, cy + 1]
                    )
                    if horizontal and vertical:
                        unusable[cx, cy] = True
                        new_cells.append((cx, cy))
                        nxt.append((cx, cy))
            frontier = nxt
        return new_cells

    # ------------------------------------------------------------------
    def revive(self, coord: Coord) -> UpdateReport:
        """One fault revival; recomputes only inside the dead block."""
        self.mesh.require_in_bounds(coord)
        if not self.faulty[coord]:
            raise ValueError(f"{coord} is not faulty")
        self.generation += 1
        self.faulty[coord] = False
        slot = int(self._slot_grid[coord])
        rect = self._slots.pop(slot).rect
        window = (
            slice(rect.xmin, rect.xmax + 1),
            slice(rect.ymin, rect.ymax + 1),
        )
        # Distinct blocks are never 4-adjacent and a block fills its
        # rectangle exactly, so every cell bordering the window is enabled
        # -- the subgrid fixpoint (edges read as healthy) is the global one.
        sub_unusable = disable_fixpoint(self.faulty[window])
        freed = [
            (int(x) + rect.xmin, int(y) + rect.ymin)
            for x, y in np.argwhere(~sub_unusable)
        ]
        self.unusable[window] = sub_unusable
        self._slot_grid[window] = -1
        for cells in _connected_components(sub_unusable):
            shifted = [(x + rect.xmin, y + rect.ymin) for x, y in cells]
            crect = Rect.bounding(shifted)
            if len(shifted) != crect.area:
                return self._full_rebuild("revive", coord)
            block_faulty = frozenset(c for c in shifted if self.faulty[c])
            new_slot = self._next_slot
            self._next_slot += 1
            self._slots[new_slot] = FaultyBlock(
                rect=crect,
                faulty=block_faulty,
                disabled=frozenset(shifted) - block_faulty,
            )
            self._slot_grid[
                crect.xmin : crect.xmax + 1, crect.ymin : crect.ymax + 1
            ] = new_slot
        _rescan(self.levels, self.unusable, freed)
        for mcc in self._mccs.values():
            mcc.revive(coord)
        return self._report("revive", coord, freed or [coord], rect)

    # ------------------------------------------------------------------
    def _full_rebuild(self, event: str, coord: Coord) -> UpdateReport:
        """Rebuild everything from the current fault set (defensive path)."""
        self.full_rebuilds += 1
        faults = self.faults
        built = build_faulty_blocks(self.mesh, faults)
        self.faulty = built.faulty
        self.unusable = built.unusable
        self.levels = compute_safety_levels(self.mesh, built.unusable)
        self._slots = dict(enumerate(built.blocks))
        self._slot_grid = built.block_id.copy()
        self._next_slot = len(built.blocks)
        for mcc in self._mccs.values():
            mcc.rebuild(faults)
        return _count_affected(
            UpdateReport(
                event=event,
                coord=coord,
                generation=self.generation,
                affected_rect=self.mesh.bounds,
                affected_cells=self.mesh.size,
                affected_fraction=1.0,
                full_rebuild=True,
            )
        )

    def _report(
        self, event: str, coord: Coord, changed: list[Coord], rect: Rect
    ) -> UpdateReport:
        return _count_affected(
            UpdateReport(
                event=event,
                coord=coord,
                generation=self.generation,
                affected_rect=rect,
                affected_cells=len(changed),
                affected_fraction=len(changed) / self.mesh.size,
            )
        )

    # ------------------------------------------------------------------
    # Snapshots (bit-identical to the from-scratch builders)
    # ------------------------------------------------------------------
    def block_set(self) -> BlockSet:
        """Materialize the current blocks as a :class:`BlockSet` snapshot
        ordered like :func:`build_faulty_blocks` (arrays copied)."""
        return ordered_block_set(
            self.mesh, self._slots.values(), self.faulty.copy(), self.unusable.copy()
        )

    def blocks(self) -> tuple[FaultyBlock, ...]:
        """The current blocks, unordered (:meth:`block_set` orders them)."""
        return tuple(self._slots.values())

    def safety_levels(self) -> SafetyLevels:
        """The live (delta-maintained) ESL grids; mutated in place by
        subsequent events -- snapshot the arrays if you need stability."""
        return self.levels

    def mcc_set(self, mcc_type: MCCType) -> MCCSet:
        """Snapshot of one tracked MCC decomposition (starts tracking it
        on first use)."""
        return self.track_mcc(mcc_type).mcc_set()
