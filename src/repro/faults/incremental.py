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
  chain of newly unusable neighbours back to the arriving fault, so the
  scalar walk :func:`repro.faults.blocks.spread_disabled` seeded at the
  fault finds the exact new fixpoint in O(delta).  The new cells can only
  merge the blocks 4-adjacent to them, so stitching is O(area of the
  merged blocks).
- **Revival** is local: distinct blocks are never 4-adjacent (they would
  be one component), so re-running the fixpoint inside the dead block's
  own rectangle -- :func:`repro.core.batched_patterns.
  batch_disable_fixpoint` as a batch of one, with the mesh-edge boundary
  convention -- reproduces the global fixpoint exactly.  The block
  shrinks, splits, or vanishes; nothing outside its footprint moves.
- **ESLs** follow the affected-rows model: a blocked-status change at
  ``(x, y)`` perturbs only the East/West scans of row ``y`` and the
  North/South scans of column ``x``; those lines are rescanned with the
  same vectorised pass as the full computation
  (:func:`repro.core.safety.refresh_safety_levels`), bit-identically.
- **MCCs** (Definition 2) get the same treatment per closure: the two
  labelling rules are monotone under fault arrival, so
  :func:`repro.faults.mcc.extend_label` seeded at the new fault extends
  each closure in O(delta); revival relabels the dead component's
  window from the component's own faults with
  :func:`repro.faults.mcc.label_closures`.  The initial build labels each
  closure once, in :func:`repro.faults.mcc.build_mccs`, and the engine
  keeps the two label grids that build returns.  Each tracked MCC type
  keeps its own ESL grids, rescanned over the rows and columns of the
  cells whose MCC-blocked status flipped.

Both fault models keep their components in one :class:`_Ledger`: an
arrival takes every component touching the cells it blocked and puts
back their union; a revival takes the dead component and puts back what
its window relabels to.

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
from typing import Generic, Iterable, TypeVar

import numpy as np

from repro.core.batched_patterns import batch_disable_fixpoint
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
    spread_disabled,
)
from repro.faults.mcc import (
    _LABEL_RULES,
    MCCComponent,
    MCCSet,
    MCCType,
    NodeStatus,
    _status_grid,
    build_mccs,
    extend_label,
    label_closures,
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

USELESS, CANT_REACH = NodeStatus.USELESS, NodeStatus.CANT_REACH


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


C = TypeVar("C")


class _Ledger(Generic[C]):
    """The components of one blocked grid: ``grid[x, y]`` is the slot of
    the component owning that cell (-1 for none), ``entries`` maps slot ->
    ``(component, cells)``, and slots never shift on unrelated events."""

    def __init__(self, mesh: Mesh2D):
        self.grid = np.full((mesh.n, mesh.m), -1, dtype=np.int32)
        self.entries: dict[int, tuple[C, frozenset[Coord]]] = {}
        self._next_slot = 0

    def components(self) -> list[C]:
        return [component for component, _ in self.entries.values()]

    def put(self, component: C, cells: frozenset[Coord]) -> None:
        slot = self._next_slot
        self._next_slot += 1
        self.entries[slot] = (component, cells)
        for cell in cells:
            self.grid[cell] = slot

    def _pop(self, slot: int) -> tuple[C, frozenset[Coord]]:
        entry = self.entries.pop(slot)
        for cell in entry[1]:
            self.grid[cell] = -1
        return entry

    def take(self, coord: Coord) -> tuple[C, frozenset[Coord]]:
        """Remove the component owning ``coord``; its ``(component, cells)``."""
        return self._pop(int(self.grid[coord]))

    def take_touching(self, cells: Iterable[Coord]) -> set[Coord]:
        """Remove every component holding or 4-adjacent to one of
        ``cells``; the union of their cells."""
        grid = self.grid
        n, m = grid.shape
        slots: set[int] = set()
        for x, y in cells:
            for px, py in ((x, y), (x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)):
                if 0 <= px < n and 0 <= py < m:
                    slot = int(grid[px, py])
                    if slot >= 0:
                        slots.add(slot)
        union: set[Coord] = set()
        for slot in slots:
            union |= self._pop(slot)[1]
        return union


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
        self.faulty = built.faulty
        self.status = built.status
        self.blocked = built.blocked
        self.levels = compute_safety_levels(mesh, self.blocked)
        self._rules = {
            label: _LABEL_RULES[(mcc_type, label)] for label in (USELESS, CANT_REACH)
        }
        # Per-closure blocked grids (faulty | that label); the two closures
        # are independent (a node may carry both labels), so each keeps its
        # own grid, taken from the labels the build computed.
        useless, cant_reach = built.labels
        self._closure = {
            USELESS: self.faulty | useless, CANT_REACH: self.faulty | cant_reach
        }
        self._components: _Ledger[MCCComponent] = _Ledger(mesh)
        for component in built.components:
            self._components.put(component, component.coords)

    def _put(self, coords: frozenset[Coord]) -> None:
        status = self.status
        self._components.put(MCCComponent(
            mcc_type=self.mcc_type,
            coords=coords,
            rect=Rect.bounding(coords),
            faulty=frozenset(c for c in coords if status[c] == NodeStatus.FAULTY),
            useless=frozenset(c for c in coords if status[c] == USELESS),
            cant_reach=frozenset(c for c in coords if status[c] == CANT_REACH),
        ), coords)

    # ------------------------------------------------------------------
    def inject(self, coord: Coord) -> None:
        self.faulty[coord] = True
        touched: list[Coord] = [coord]
        for label, rule in self._rules.items():
            grid = self._closure[label]
            if grid[coord]:
                continue  # already blocked in this closure (was labelled)
            grid[coord] = True
            newly = extend_label(grid, rule, [coord])
            for cell in newly:  # useless outranks can't-reach
                if label is USELESS or self.status[cell] != USELESS:
                    self.status[cell] = label
            touched.extend(newly)
        self.status[coord] = NodeStatus.FAULTY

        new_blocked = [c for c in touched if not self.blocked[c]]
        for cell in new_blocked:
            self.blocked[cell] = True
        _rescan(self.levels, self.blocked, new_blocked)
        # Every touched cell chains back to the fault through blocked
        # cells, so the fault's component absorbs every component holding
        # or 4-adjacent to a touched cell.
        coords = self._components.take_touching(touched)
        coords.update(touched)
        self._put(frozenset(coords))

    # ------------------------------------------------------------------
    def revive(self, coord: Coord) -> None:
        self.faulty[coord] = False
        component, cells = self._components.take(coord)
        rect = component.rect
        window = (slice(rect.xmin, rect.xmax + 1), slice(rect.ymin, rect.ymax + 1))
        # Another component may own cells inside this bounding box (the
        # staircase shapes interleave), so only this component's faults
        # seed the relabel and only its cells are written back.
        in_comp = np.zeros((rect.width, rect.height), dtype=bool)
        for x, y in cells:
            in_comp[x - rect.xmin, y - rect.ymin] = True
        sub_faulty = self.faulty[window] & in_comp
        # The component is never 4-adjacent to another one, so relabelling
        # its window with everything else fault-free matches the global
        # fixpoint, and every label chains back to its faults, inside it.
        useless, cant_reach = (
            sub_faulty | grid for grid in label_closures(sub_faulty, self.mcc_type)
        )
        sub_blocked = useless | cant_reach
        for grid, sub in (
            (self._closure[USELESS], useless),
            (self._closure[CANT_REACH], cant_reach),
            (self.status, _status_grid(sub_faulty, useless, cant_reach)),
            (self.blocked, sub_blocked),
        ):
            grid[window][in_comp] = sub[in_comp]
        _rescan(self.levels, self.blocked, [
            (int(x) + rect.xmin, int(y) + rect.ymin)
            for x, y in np.argwhere(in_comp & ~sub_blocked)
        ])
        for part in _connected_components(sub_blocked):
            self._put(frozenset((x + rect.xmin, y + rect.ymin) for x, y in part))

    # ------------------------------------------------------------------
    def mcc_set(self) -> MCCSet:
        """Materialize the current state as a from-scratch-ordered
        :class:`MCCSet` snapshot (components sorted by minimal coordinate,
        arrays copied)."""
        components = sorted(self._components.components(), key=lambda c: min(c.coords))
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
            labels=tuple(grid & ~self.faulty for grid in self._closure.values()),
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
        self._load(build_faulty_blocks(mesh, faults))
        self._mccs: dict[MCCType, IncrementalMCCState] = {}
        for mcc_type in mcc_types:
            self.track_mcc(mcc_type)

    def _load(self, built: BlockSet) -> None:
        """Take over a from-scratch build's grids and blocks."""
        self.faulty = built.faulty
        self.unusable = built.unusable
        self.levels = compute_safety_levels(self.mesh, built.unusable)
        self._blocks: _Ledger[FaultyBlock] = _Ledger(self.mesh)
        for block in built.blocks:
            self._blocks.put(block, block.faulty | block.disabled)

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

    def _put_block(self, cells: frozenset[Coord], rect: Rect) -> None:
        faulty = frozenset(c for c in cells if self.faulty[c])
        self._blocks.put(
            FaultyBlock(rect=rect, faulty=faulty, disabled=cells - faulty), cells
        )

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
            block, cells = self._blocks.take(coord)
            self._blocks.put(FaultyBlock(
                rect=block.rect,
                faulty=block.faulty | {coord},
                disabled=block.disabled - {coord},
            ), cells)
            changed = [coord]
            x, y = coord
            rect = Rect(x, x, y, y)
        else:
            self.unusable[coord] = True
            changed = [coord, *spread_disabled(self.unusable, [coord])]
            merged = self._blocks.take_touching(changed)
            merged.update(changed)
            rect = Rect.bounding(merged)
            if len(merged) != rect.area:
                # Defensive completion (same guard as build_faulty_blocks);
                # never observed, but correctness beats locality here.
                return self._full_rebuild("inject", coord)
            self._put_block(frozenset(merged), rect)
            _rescan(self.levels, self.unusable, changed)
        for mcc in self._mccs.values():
            mcc.inject(coord)
        return self._report("inject", coord, changed, rect)

    # ------------------------------------------------------------------
    def revive(self, coord: Coord) -> UpdateReport:
        """One fault revival; recomputes only inside the dead block."""
        self.mesh.require_in_bounds(coord)
        if not self.faulty[coord]:
            raise ValueError(f"{coord} is not faulty")
        self.generation += 1
        self.faulty[coord] = False
        rect = self._blocks.take(coord)[0].rect
        window = (slice(rect.xmin, rect.xmax + 1), slice(rect.ymin, rect.ymax + 1))
        # Distinct blocks are never 4-adjacent and a block fills its
        # rectangle exactly, so every cell bordering the window is enabled
        # -- the subgrid fixpoint (edges read as healthy) is the global one.
        sub_unusable = batch_disable_fixpoint(self.faulty[window][None])[0]
        freed = [
            (int(x) + rect.xmin, int(y) + rect.ymin)
            for x, y in np.argwhere(~sub_unusable)
        ]
        self.unusable[window] = sub_unusable
        for part in _connected_components(sub_unusable):
            cells = frozenset((x + rect.xmin, y + rect.ymin) for x, y in part)
            crect = Rect.bounding(cells)
            if len(cells) != crect.area:
                return self._full_rebuild("revive", coord)
            self._put_block(cells, crect)
        _rescan(self.levels, self.unusable, freed)
        for mcc in self._mccs.values():
            mcc.revive(coord)
        return self._report("revive", coord, freed or [coord], rect)

    # ------------------------------------------------------------------
    def _full_rebuild(self, event: str, coord: Coord) -> UpdateReport:
        """Rebuild everything from the current fault set (defensive path)."""
        self.full_rebuilds += 1
        faults = self.faults
        self._load(build_faulty_blocks(self.mesh, faults))
        self._mccs = {t: IncrementalMCCState(self.mesh, faults, t) for t in self._mccs}
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
            self.mesh, self._blocks.components(), self.faulty.copy(), self.unusable.copy()
        )

    def blocks(self) -> tuple[FaultyBlock, ...]:
        """The current blocks, unordered (:meth:`block_set` orders them)."""
        return tuple(self._blocks.components())

    def safety_levels(self) -> SafetyLevels:
        """The live (delta-maintained) ESL grids; mutated in place by
        subsequent events -- snapshot the arrays if you need stability."""
        return self.levels

    def mcc_set(self, mcc_type: MCCType) -> MCCSet:
        """Snapshot of one tracked MCC decomposition (starts tracking it
        on first use)."""
        return self.track_mcc(mcc_type).mcc_set()
