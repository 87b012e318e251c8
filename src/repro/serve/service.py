"""Routability answers against live fault state (the serve core).

:class:`RoutingService` owns an :class:`~repro.faults.incremental.
IncrementalFaultEngine` and answers the paper's question -- "is (s, d)
minimally routable, and by which strategy?" -- from an immutable
:class:`ServeSnapshot` of that engine's state.  The snapshot is the
torn-read defence: fault arrivals mutate the engine's grids *in place*
(that is what makes them O(affected)), so queries never touch the live
engine.  They grab the current snapshot reference once (a single atomic
read under the GIL) and evaluate the whole decision cascade against that
frozen generation; :meth:`RoutingService.refresh` builds a new snapshot
from the engine and publishes it with one reference assignment.

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
2. **Degraded** (:class:`ServiceBreaker` open) -- refreshes skip the
   O(n*m) MCC-level recompute, so MCC queries are answered from the
   block model with ``degraded=True``; path witnesses are skipped.
   Block-model verdicts stay exact: the safe conditions are evaluated
   on the snapshot either way.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.core.conditions import Decision, DecisionKind, safe_source_decision
from repro.core.extensions import (
    extension1_decision,
    extension2_decision,
    extension3_decision,
)
from repro.core.pivots import recursive_center_pivots
from repro.core.routing import WuRouter, route_with_decision
from repro.core.safety import SafetyLevels, compute_safety_levels
from repro.faults.blocks import BlockSet
from repro.faults.incremental import IncrementalFaultEngine, UpdateReport
from repro.faults.mcc import MCCType
from repro.mesh.geometry import Coord, Rect, manhattan_distance
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


class QueryError(ValueError):
    """A malformed query (endpoint outside the mesh, unknown model)."""


@dataclass(frozen=True)
class ServeSnapshot:
    """One generation's frozen artifacts; everything a query reads.

    Arrays are private copies (the engine mutates its own in place), so
    a snapshot stays valid forever -- an in-flight query keeps using the
    generation it grabbed even while newer snapshots are published.
    ``mcc_levels`` is None when the snapshot was built degraded (MCC
    recompute skipped under pressure).
    """

    generation: int
    blocked: np.ndarray
    levels: SafetyLevels
    block_set: BlockSet
    mcc_blocked: np.ndarray | None = None
    mcc_levels: SafetyLevels | None = None


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


class ServiceBreaker:
    """Latching degraded-mode switch driven by alert rules.

    Heartbeat rows go into a private :class:`SampleStore`; the
    :class:`AlertEngine` (the same latching evaluator the observatory
    uses) decides breaching.  The breaker *trips* the moment any rule
    fires and only *closes* after ``recovery_ticks`` consecutive healthy
    evaluations -- hysteresis so a borderline load doesn't flap the
    service between tiers.
    """

    def __init__(
        self,
        rules: Iterable[AlertRule] | None = None,
        recovery_ticks: int = 3,
        capacity: int = 512,
    ):
        if recovery_ticks < 1:
            raise ValueError(f"recovery_ticks must be >= 1, got {recovery_ticks}")
        self.store = SampleStore(capacity=capacity)
        self.alerts = AlertEngine(
            tuple(rules) if rules is not None else default_breaker_rules()
        )
        self.recovery_ticks = recovery_ticks
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
        auto_refresh: bool = True,
        witness_cache_size: int = 4096,
    ):
        self.mesh = mesh
        self.mcc_model = mcc_model
        self.auto_refresh = auto_refresh
        mcc_types = (MCCType.TYPE_ONE,) if mcc_model else ()
        self.engine = IncrementalFaultEngine(mesh, faults, mcc_types=mcc_types)
        self._lock = threading.Lock()
        self._witnesses = ArtifactCache(witness_cache_size)
        self.refreshes = 0
        self.degraded_refreshes = 0
        self.witness_failures = 0
        self._snapshot = self._build_snapshot(include_mcc=mcc_model)

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

    def _build_snapshot(self, include_mcc: bool) -> ServeSnapshot:
        eng = self.engine
        levels = SafetyLevels(
            self.mesh,
            eng.levels.east.copy(),
            eng.levels.south.copy(),
            eng.levels.west.copy(),
            eng.levels.north.copy(),
        )
        mcc_blocked = mcc_levels = None
        if include_mcc and self.mcc_model:
            mcc_blocked = eng.mcc_set(MCCType.TYPE_ONE).blocked.copy()
            mcc_levels = compute_safety_levels(self.mesh, mcc_blocked)
        return ServeSnapshot(
            generation=eng.generation,
            blocked=eng.unusable.copy(),
            levels=levels,
            block_set=eng.block_set(),
            mcc_blocked=mcc_blocked,
            mcc_levels=mcc_levels,
        )

    def refresh(self, *, include_mcc: bool = True) -> ServeSnapshot:
        """Publish a fresh snapshot of the engine state.

        ``include_mcc=False`` is the degraded tier: the O(n*m) MCC-level
        recompute is skipped, so the refresh costs only array copies and
        MCC queries fall back to the block model until a full refresh.
        No-op when the published snapshot is already current *and* at
        least as capable (a full snapshot is never replaced by a
        degraded one of the same generation).
        """
        with self._lock:
            current = self._snapshot
            want_mcc = include_mcc and self.mcc_model
            if current.generation == self.engine.generation and not (
                want_mcc and current.mcc_levels is None
            ):
                return current
            snapshot = self._build_snapshot(include_mcc=include_mcc)
            self.refreshes += 1
            if self.mcc_model and snapshot.mcc_levels is None:
                self.degraded_refreshes += 1
            self._snapshot = snapshot
            return snapshot

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
        skipped.

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
            if degraded or snapshot.mcc_levels is None:
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
        """The paper's escalation: Def-3, Ext-1/2/3 minimal, Ext-1 sub-minimal."""
        decision = safe_source_decision(levels, source, dest)
        if decision.kind is not DecisionKind.UNSAFE:
            return decision
        decision = extension1_decision(
            self.mesh, levels, blocked, source, dest, allow_sub_minimal=False
        )
        if decision.kind is not DecisionKind.UNSAFE:
            return decision
        decision = extension2_decision(self.mesh, levels, source, dest, segment_size=None)
        if decision.kind is not DecisionKind.UNSAFE:
            return decision
        bbox = Rect(
            min(source[0], dest[0]), max(source[0], dest[0]),
            min(source[1], dest[1]), max(source[1], dest[1]),
        )
        decision = extension3_decision(
            self.mesh, levels, blocked, source, dest,
            recursive_center_pivots(bbox, 3),
        )
        if decision.kind is not DecisionKind.UNSAFE:
            return decision
        decision = extension1_decision(self.mesh, levels, blocked, source, dest)
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
                WuRouter(self.mesh, snapshot.block_set), decision,
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
            "degraded_refreshes": self.degraded_refreshes,
            "witness_failures": self.witness_failures,
            "witness_cache": self._witnesses.stats(),
        }
