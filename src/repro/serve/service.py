"""Routability answers against live fault state (the serve core).

:class:`RoutingService` owns an :class:`~repro.faults.incremental.
IncrementalFaultEngine` and answers the paper's question -- "is (s, d)
minimally routable, and by which strategy?" -- from an immutable
:class:`ServeSnapshot` of that engine's state.  The snapshot is the
torn-read defence: fault arrivals mutate the engine's grids *in place*
(that is what makes them O(affected)), so queries never touch the live
engine.  They grab the current snapshot reference once (a single atomic
read under the GIL) and evaluate the whole decision cascade against that
frozen generation; :meth:`RoutingService.refresh` copies the engine's
delta-maintained grids -- block and type-one MCC blocked sets and their
compact int16 ESLs -- into a new snapshot and publishes it with one
reference assignment.  A refresh computes nothing: the engine already
holds every grid at the new generation.  The snapshot also owns its
generation's block set and boundary map -- the faulty-block corner
information the paper places on each block's boundary lines -- which
only path witnesses read; both are built lazily, the boundary map one
orientation at a time, so a refresh that no witness follows pays
nothing for them.

The gap between the engine generation and the published snapshot is the
query's ``staleness``.  Callers choose what staleness means:

- ``max_staleness=None`` serves whatever snapshot is current (the field
  still reports how far behind it is);
- a bounded ``max_staleness`` raises
  :class:`~repro.parallel.cache.StaleArtifactError` when the snapshot is
  too old, which the async pipeline turns into a backoff-and-retry
  against the refresher, degrading to the stale answer only when the
  request's deadline budget runs out.

Degradation tiers (the circuit breaker's levers):

1. **Full service** -- block-model and MCC-model answers, each with a
   routed path witness cached per generation in an
   :class:`~repro.parallel.cache.ArtifactCache`.
2. **Degraded** (:class:`ServiceBreaker` open) -- MCC queries are
   answered from the block model with ``degraded=True`` and path
   witnesses are skipped.  Block-model verdicts stay exact: the safe
   conditions are evaluated on the snapshot either way.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.core.boundaries import BoundaryMap
from repro.core.conditions import Decision, DecisionKind
from repro.core.extensions import decision_cascade
from repro.core.routing import WuRouter, route_with_decision
from repro.core.safety import ESLGrids, SafetyLevels
from repro.faults.blocks import BlockSet, FaultyBlock
from repro.faults.incremental import (
    IncrementalFaultEngine,
    UpdateReport,
    ordered_block_set,
)
from repro.faults.mcc import MCCType
from repro.mesh.geometry import Coord, manhattan_distance
from repro.mesh.topology import Mesh2D
from repro.obs.alerts import AlertEngine, AlertRule, RatioRule, ThresholdRule
from repro.obs.timeseries import SampleStore
from repro.parallel.cache import ArtifactCache, StaleArtifactError
from repro.routing.router import RoutingError

__all__ = [
    "QueryAnswer",
    "QueryError",
    "RoutingService",
    "ServeSnapshot",
    "ServiceBreaker",
    "default_breaker_rules",
]

#: Path witnesses the service memoises (an LRU over (source, dest) pairs).
WITNESS_CACHE_SIZE = 4096

#: Strategy label per decision kind -- which rung of the paper's
#: escalation (Definition 3, then Extensions 1-3, then Extension 1's
#: sub-minimal rule) justified the verdict.
_STRATEGY_BY_KIND = {
    DecisionKind.SOURCE_SAFE: "definition3",
    DecisionKind.PREFERRED_NEIGHBOR_SAFE: "extension1",
    DecisionKind.AXIS_NODE_SAFE: "extension2",
    DecisionKind.PIVOT_SAFE: "extension3",
    DecisionKind.SPARE_NEIGHBOR_SAFE: "extension1-sub-minimal",
}


def _copied(levels: SafetyLevels) -> SafetyLevels:
    return SafetyLevels(levels.mesh, ESLGrids(*(grid.copy() for grid in levels.grids)))


class QueryError(ValueError):
    """A malformed query (endpoint outside the mesh, unknown model)."""


@dataclass(frozen=True)
class ServeSnapshot:
    """One generation's frozen artifacts; everything a query reads.

    The arrays -- ``blocked``, ``faulty``, the int16 ESL grids of
    ``levels`` and the MCC fields -- are private copies (the engine
    mutates its own in place), so a snapshot stays valid forever -- an
    in-flight query keeps using the generation it grabbed even while
    newer snapshots are published.  ``blocks`` captures the engine's
    (immutable) blocks unordered.  The MCC fields are None only for a
    service without the MCC model.

    Only path witnesses read the block set and the boundary map, so both
    are built on first use: :attr:`block_set` sorts and labels ``blocks``
    like :func:`~repro.faults.blocks.build_faulty_blocks`, and
    :attr:`boundaries` traces each orientation of the generation's
    boundary map, shared by every witness routed on this snapshot.  Two
    threads may build the same one at once, which costs one extra build
    and nothing else, since both builds are equal.
    """

    generation: int
    blocked: np.ndarray
    faulty: np.ndarray
    levels: SafetyLevels
    blocks: tuple[FaultyBlock, ...]
    mcc_blocked: np.ndarray | None = None
    mcc_levels: SafetyLevels | None = None

    @functools.cached_property
    def block_set(self) -> BlockSet:
        """The generation's blocks as a :class:`BlockSet`, made on first use."""
        return ordered_block_set(self.levels.mesh, self.blocks, self.faulty, self.blocked)

    @functools.cached_property
    def boundaries(self) -> BoundaryMap:
        """The block set's boundary lines (paper Sec. 2), made on first use."""
        return BoundaryMap.for_blocks(self.block_set)


@dataclass(frozen=True)
class QueryAnswer:
    """One served routability answer, self-describing about its basis.

    ``generation`` is the snapshot generation the answer is *for*;
    ``staleness`` counts engine generations that had already landed when
    the answer was computed (0 = answered on the newest state).
    ``degraded`` marks answers produced below full service: an MCC query
    answered from the block model, or a skipped path witness.
    """

    source: Coord
    dest: Coord
    model: str  # model requested: "block" | "mcc"
    model_used: str  # model actually answered from
    verdict: str  # DecisionKind value, "unsafe", or "blocked-endpoint"
    strategy: str  # cascade rung that fired, or "none"
    routable: bool  # some safe condition ensured a path
    minimal: bool  # ... and that path is minimal (not the +2 detour)
    via: Coord | None
    path: tuple[Coord, ...] | None
    distance: int
    generation: int
    staleness: int
    degraded: bool

    def jsonable(self) -> dict[str, Any]:
        return {
            "source": list(self.source),
            "dest": list(self.dest),
            "model": self.model,
            "model_used": self.model_used,
            "verdict": self.verdict,
            "strategy": self.strategy,
            "routable": self.routable,
            "minimal": self.minimal,
            "via": list(self.via) if self.via is not None else None,
            "path": [list(c) for c in self.path] if self.path is not None else None,
            "distance": self.distance,
            "generation": self.generation,
            "staleness": self.staleness,
            "degraded": self.degraded,
        }


def default_breaker_rules() -> tuple[AlertRule, ...]:
    """The serve-layer SLO rules the circuit breaker latches on.

    Same rule machinery as :func:`repro.obs.alerts.default_rules`, over
    the serve heartbeat's sample rows instead of simulator ticks.
    """
    return (
        ThresholdRule(
            "serve-queue-runaway", "serve.queue_depth", ">=", 0.9,
            for_ticks=2,
            description="admission queue >= 90% full for 2 heartbeats",
        ),
        RatioRule(
            "serve-shed-slo", "serve.shed", "serve.arrived", 0.10,
            window=8.0, floor=4.0,
            description="more than 10% of arrivals shed over the window",
        ),
        ThresholdRule(
            "serve-staleness", "serve.staleness", ">=", 16.0,
            for_ticks=2,
            description="snapshot >= 16 generations behind the engine",
        ),
    )


#: Consecutive healthy heartbeats before an open breaker closes.
RECOVERY_TICKS = 3


class ServiceBreaker:
    """Latching degraded-mode switch driven by alert rules.

    Heartbeat rows go into a private :class:`SampleStore`; the
    :class:`AlertEngine` (the same latching evaluator the observatory
    uses) decides breaching over :func:`default_breaker_rules`.  The
    breaker *trips* the moment any rule fires and only *closes* after
    :data:`RECOVERY_TICKS` consecutive healthy evaluations -- hysteresis
    so a borderline load doesn't flap the service between tiers.
    """

    def __init__(self):
        self.store = SampleStore()
        self.alerts = AlertEngine(default_breaker_rules())
        self.recovery_ticks = RECOVERY_TICKS
        self.open = False
        self.trips = 0
        self._healthy_streak = 0
        self._tick = 0

    def observe(self, row: dict[str, float]) -> bool:
        """Feed one heartbeat row; returns the (possibly new) open state."""
        self._tick += 1
        self.store.append(float(self._tick), row)
        self.alerts.evaluate(float(self._tick), self.store)
        if self.alerts.active:
            if not self.open:
                self.trips += 1
            self.open = True
            self._healthy_streak = 0
        elif self.open:
            self._healthy_streak += 1
            if self._healthy_streak >= self.recovery_ticks:
                self.open = False
                self._healthy_streak = 0
        return self.open

    def state(self) -> dict[str, Any]:
        return {
            "open": self.open,
            "trips": self.trips,
            "active": list(self.alerts.active),
            "healthy_streak": self._healthy_streak,
            "recovery_ticks": self.recovery_ticks,
        }


class RoutingService:
    """Routability queries with generation fencing over a live fault engine.

    Thread-safety model: one writer at a time (:meth:`apply_fault` /
    :meth:`refresh` serialize on an internal lock); any number of
    readers (:meth:`answer`) race freely against them, because readers
    only ever dereference the published snapshot.  The asyncio pipeline
    runs everything on one loop anyway; the lock keeps the service safe
    to drive from other threads too (a library caller, or a worker
    thread beside the loop).
    """

    def __init__(
        self,
        mesh: Mesh2D,
        faults: Iterable[Coord] = (),
        *,
        mcc_model: bool = True,
    ):
        self.mesh = mesh
        self.mcc_model = mcc_model
        self.auto_refresh = True
        mcc_types = (MCCType.TYPE_ONE,) if mcc_model else ()
        self.engine = IncrementalFaultEngine(mesh, faults, mcc_types=mcc_types)
        self._lock = threading.Lock()
        self._witnesses = ArtifactCache(WITNESS_CACHE_SIZE)
        self.refreshes = 0
        # Always 0 (every refresh is full); perfbench's traced serve run reads it.
        self.degraded_refreshes = 0
        self.witness_failures = 0
        self._snapshot = self._build_snapshot()

    # -- state publication --------------------------------------------
    @property
    def generation(self) -> int:
        return self.engine.generation

    def snapshot(self) -> ServeSnapshot:
        """The currently published snapshot (atomic reference read)."""
        return self._snapshot

    def staleness(self) -> int:
        """Generations the published snapshot lags the engine by."""
        return self.engine.generation - self._snapshot.generation

    def _build_snapshot(self) -> ServeSnapshot:
        eng = self.engine
        mcc_blocked = mcc_levels = None
        if self.mcc_model:
            mcc = eng.track_mcc(MCCType.TYPE_ONE)
            mcc_blocked, mcc_levels = mcc.blocked.copy(), _copied(mcc.levels)
        return ServeSnapshot(
            generation=eng.generation,
            blocked=eng.unusable.copy(),
            faulty=eng.faulty.copy(),
            levels=_copied(eng.levels),
            blocks=eng.blocks(),
            mcc_blocked=mcc_blocked,
            mcc_levels=mcc_levels,
        )

    def refresh(self) -> ServeSnapshot:
        """Publish a snapshot of the engine state (no-op when current)."""
        with self._lock:
            if self._snapshot.generation != self.engine.generation:
                self._snapshot = self._build_snapshot()
                self.refreshes += 1
            return self._snapshot

    def apply_fault(self, event: str, coord: Coord) -> UpdateReport:
        """Apply one fault arrival/revival through the incremental engine.

        The engine update is O(affected) and atomic w.r.t. queries by
        construction: queries read the published snapshot, which still
        describes the pre-event generation until the next refresh.  With
        ``auto_refresh`` (the default) the refresh happens here, inline;
        the pipeline turns it off and coalesces refreshes instead.
        """
        with self._lock:
            report = self.engine.apply(event, coord)
        if self.auto_refresh:
            self.refresh()
        return report

    # -- queries -------------------------------------------------------
    def answer(
        self,
        source: Coord,
        dest: Coord,
        *,
        model: str = "block",
        want_path: bool = True,
        max_staleness: int | None = None,
        degraded: bool = False,
    ) -> QueryAnswer:
        """Answer one routability query from the published snapshot.

        Raises :class:`QueryError` for malformed queries and
        :class:`~repro.parallel.cache.StaleArtifactError` when the
        snapshot lags the engine by more than ``max_staleness``
        generations.  ``degraded=True`` forces the degraded tier for
        this answer (the pipeline sets it while the breaker is open):
        MCC queries downgrade to the block model and the path witness is
        skipped.  A service built with ``mcc_model=False`` downgrades
        every MCC query the same way.

        MCC queries whose destination lies in quadrant II or IV of the
        source are answered from the block model (``model_used="block"``)
        at every tier: the snapshot's type-one MCCs are sound only for
        quadrant I/III routing.
        """
        if model not in ("block", "mcc"):
            raise QueryError(f"unknown model {model!r} (use 'block' or 'mcc')")
        for endpoint, name in ((source, "source"), (dest, "dest")):
            if not self.mesh.in_bounds(endpoint):
                raise QueryError(f"{name} {endpoint} is outside {self.mesh}")

        snapshot = self._snapshot  # single atomic read: the fence
        staleness = self.engine.generation - snapshot.generation
        if max_staleness is not None and staleness > max_staleness:
            raise StaleArtifactError(
                ("serve-snapshot",), snapshot.generation, self.engine.generation
            )

        model_used = model
        is_degraded = degraded
        levels, blocked = snapshot.levels, snapshot.blocked
        if model == "mcc":
            if degraded or not self.mcc_model:
                model_used, is_degraded = "block", True
            elif (dest[0] - source[0]) * (dest[1] - source[1]) < 0:
                model_used = "block"  # type-one MCCs: quadrants I/III only
            else:
                levels, blocked = snapshot.mcc_levels, snapshot.mcc_blocked

        def finish(
            verdict: str,
            strategy: str,
            decision: Decision | None,
            path: tuple[Coord, ...] | None,
        ) -> QueryAnswer:
            routable = decision is not None and decision.ensures_sub_minimal
            return QueryAnswer(
                source=source,
                dest=dest,
                model=model,
                model_used=model_used,
                verdict=verdict,
                strategy=strategy,
                routable=routable,
                minimal=decision is not None and decision.ensures_minimal,
                via=decision.via if decision is not None else None,
                path=path,
                distance=manhattan_distance(source, dest),
                generation=snapshot.generation,
                staleness=staleness,
                degraded=is_degraded,
            )

        if blocked[source] or blocked[dest]:
            return finish("blocked-endpoint", "none", None, None)

        decision = self._cascade(levels, blocked, source, dest)
        if decision is None:
            return finish("unsafe", "none", None, None)
        path = None
        if want_path and not is_degraded and model_used == "block":
            path = self._witness(snapshot, decision)
        return finish(
            decision.kind.value, _STRATEGY_BY_KIND[decision.kind], decision, path
        )

    def _cascade(
        self,
        levels: SafetyLevels,
        blocked: np.ndarray,
        source: Coord,
        dest: Coord,
    ) -> Decision | None:
        """The first rung of the paper's escalation that fires, if any."""
        for _, decision in decision_cascade(self.mesh, levels, blocked, source, dest):
            if decision.kind is not DecisionKind.UNSAFE:
                return decision
        return None

    def _witness(
        self, snapshot: ServeSnapshot, decision: Decision
    ) -> tuple[Coord, ...] | None:
        """A routed path realizing ``decision``, cached per generation.

        Cache entries are generation-tagged; a hit from an older
        generation revalidates by checking every node against *this*
        snapshot's blocked grid (the :class:`~repro.simulator.traffic.
        PathPolicy` trick), so a served witness is always consistent
        with the generation the answer claims.
        """
        key = (decision.source, decision.dest, decision.kind.value, decision.via)

        def build() -> tuple[Coord, ...]:
            path = route_with_decision(
                WuRouter(self.mesh, snapshot.block_set, boundary_map=snapshot.boundaries),
                decision,
                blocked=snapshot.blocked,
            )
            return path.nodes

        def revalidate(nodes: tuple[Coord, ...], tag: int | None) -> bool:
            return not any(bool(snapshot.blocked[node]) for node in nodes)

        try:
            return self._witnesses.get_or_build(
                key, build, generation=snapshot.generation, revalidate=revalidate
            )
        except RoutingError:
            # A sufficient condition fired but the router could not
            # realize it -- defensive only; tallied, never raised to the
            # client (the verdict stands, the witness is just absent).
            self.witness_failures += 1
            return None

    def stats(self) -> dict[str, Any]:
        return {
            "generation": self.engine.generation,
            "snapshot_generation": self._snapshot.generation,
            "staleness": self.staleness(),
            "refreshes": self.refreshes,
            "witness_failures": self.witness_failures,
            "witness_cache": self._witnesses.stats(),
        }
