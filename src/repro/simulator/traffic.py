"""Packet-level traffic simulation with link contention.

The paper motivates minimal routing with end-to-end communication cost; this
module closes the loop by running whole *workloads* of packets through the
mesh under a link-capacity model and measuring what the routing policy
actually delivers:

- time advances in cycles; each directed link carries at most one packet
  per cycle (wormhole-style single-flit packets);
- a packet that loses arbitration for its chosen link stalls one cycle and
  retries (stalls accumulate as queueing latency);
- routers are consulted *per hop*, so adaptive policies (Wu's protocol, the
  greedy baseline, the oracle) re-decide under the same fault information
  they would hold in a deployed mesh; path-based policies (the detour
  baseline) precompute their route and then contend for links like everyone
  else;
- packets whose router gives up (greedy routing stuck against a block) are
  dropped and counted.

:func:`run_workload` returns per-policy delivery/latency/stretch statistics,
the raw material for the latency-versus-load curves in the examples and the
traffic bench.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from repro.mesh.geometry import Coord, Rect, manhattan_distance
from repro.mesh.topology import Mesh2D
from repro.parallel.cache import ArtifactCache
from repro.routing.packet import Packet, PacketStatus
from repro.routing.path import Path
from repro.routing.router import RoutingError

#: Bound on cached (source, dest) -> Path entries per policy.  Long traffic
#: runs revisit recent pairs far more often than old ones, so an LRU of
#: this size keeps the hit rate while capping memory.
PATH_CACHE_MAXSIZE = 1024

#: How many recent fault events a :class:`PathPolicy` keeps affected-window
#: records for.  An entry older than the window can no longer prove it
#: survived every intervening event and is rebuilt instead of revalidated.
FAULT_EVENT_HISTORY = 64

#: :func:`run_workload` drops the packets still in flight after
#: ``CYCLES_PER_SIDE * (n + m) + 8 * packets`` cycles.
CYCLES_PER_SIDE = 64


class RoutingPolicy(Protocol):
    """Anything that can name the next hop of an in-flight packet."""

    def next_hop(self, current: Coord, dest: Coord) -> Coord: ...


@dataclass
class PathPolicy:
    """Adapter: follow a precomputed path (for whole-route routers).

    Routes are memoised in a bounded LRU (:class:`repro.parallel.cache.ArtifactCache`),
    so unbounded workloads cannot grow memory without limit.

    Staleness is tracked per entry, not per cache: every fault event
    reported through :meth:`note_fault_event` bumps a generation counter
    and records the event's affected window, and a cached route built
    under an older generation is served again only if it avoids every
    window recorded since (otherwise just that route is recomputed).  A
    fault on the far side of the mesh therefore no longer evicts routes
    it cannot possibly touch.  :meth:`invalidate` keeps the old blunt
    drop-everything behaviour for callers without affected-window
    information.
    """

    route: Callable[[Coord, Coord], Path]
    _cache: ArtifactCache = field(
        default_factory=lambda: ArtifactCache(maxsize=PATH_CACHE_MAXSIZE), repr=False
    )
    _generation: int = field(default=0, repr=False)
    # (generation, affected Rect) per recent event, oldest first.
    _events: collections.deque = field(
        default_factory=lambda: collections.deque(maxlen=FAULT_EVENT_HISTORY),
        repr=False,
    )
    # Entries tagged below this generation predate the recorded history
    # (or a windowless invalidation) and cannot be revalidated.
    _floor: int = field(default=0, repr=False)

    def next_hop(self, current: Coord, dest: Coord) -> Coord:
        raise NotImplementedError("PathPolicy packets carry their own cursor")

    @property
    def generation(self) -> int:
        """Count of fault events this policy has been told about."""
        return self._generation

    def path_for(self, source: Coord, dest: Coord) -> Path:
        return self._cache.get_or_build(
            (source, dest),
            lambda: self.route(source, dest),
            generation=self._generation,
            revalidate=self._survives,
        )

    def _survives(self, path: Path, tag: int | None) -> bool:
        if tag is None or tag < self._floor:
            return False
        return not any(
            generation > tag and any(rect.contains(node) for node in path.nodes)
            for generation, rect in self._events
        )

    def note_fault_event(
        self, affected: Rect | None = None, generation: int | None = None
    ) -> None:
        """Record one fault arrival/revival.

        ``affected`` is the event's perturbed window (e.g.
        ``UpdateReport.affected_rect`` from
        :class:`repro.faults.incremental.IncrementalFaultEngine`); ``None``
        means "unknown", which marks every existing entry stale.  Passing
        the engine's ``generation`` keeps the policy's counter aligned
        with the mesh's; otherwise the policy counts events itself.
        """
        self._generation = (
            generation if generation is not None else self._generation + 1
        )
        if affected is None:
            self._events.clear()
            self._floor = self._generation
            return
        if len(self._events) == self._events.maxlen:
            # The oldest record falls off: entries tagged before it can no
            # longer check every intervening event.
            self._floor = self._events[0][0]
        self._events.append((self._generation, affected))

    def invalidate(self) -> None:
        """Drop every memoised path (call after the fault set changes).

        Cached paths were computed against the old fault information; a
        route threaded through a newly faulty region would otherwise keep
        being served for up to :data:`PATH_CACHE_MAXSIZE` pairs.  Prefer
        :meth:`note_fault_event` with an affected window when one is
        known -- it only drops the routes the event can actually touch.
        """
        self._cache.clear()
        self._events.clear()
        self._floor = self._generation


@dataclass
class _FlightState:
    packet: Packet
    inject_time: int
    cursor: int = 0  # position within a PathPolicy path
    path: Path | None = None
    stalls: int = 0
    delivered_time: int | None = None


@dataclass
class TrafficStats:
    """Aggregate results of one workload run."""

    offered: int
    delivered: int
    dropped: int
    total_cycles: int
    latencies: list[int] = field(default_factory=list)
    hop_counts: list[int] = field(default_factory=list)
    minimal_hop_counts: list[int] = field(default_factory=list)
    stall_cycles: int = 0

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.offered if self.offered else 0.0

    @property
    def average_latency(self) -> float:
        return sum(self.latencies) / len(self.latencies) if self.latencies else 0.0

    @property
    def average_stretch(self) -> float:
        """Mean hops divided by Manhattan distance over delivered packets."""
        if not self.hop_counts:
            return 0.0
        ratios = [
            hops / max(1, minimal)
            for hops, minimal in zip(self.hop_counts, self.minimal_hop_counts)
        ]
        return sum(ratios) / len(ratios)

    def __str__(self) -> str:
        return (
            f"{self.delivered}/{self.offered} delivered "
            f"({self.dropped} dropped), avg latency {self.average_latency:.2f} "
            f"cycles, stretch {self.average_stretch:.3f}, "
            f"{self.stall_cycles} stall-cycles in {self.total_cycles} cycles"
        )


def uniform_traffic(
    mesh: Mesh2D,
    blocked: np.ndarray,
    count: int,
    rng: np.random.Generator,
    injection_window: int,
) -> list[tuple[Coord, Coord, int]]:
    """``count`` random (source, dest, inject_time) triples on free nodes."""
    triples: list[tuple[Coord, Coord, int]] = []
    while len(triples) < count:
        source = (int(rng.integers(0, mesh.n)), int(rng.integers(0, mesh.m)))
        dest = (int(rng.integers(0, mesh.n)), int(rng.integers(0, mesh.m)))
        if source == dest or blocked[source] or blocked[dest]:
            continue
        triples.append((source, dest, int(rng.integers(0, injection_window))))
    return triples


def run_workload(
    mesh: Mesh2D,
    policy: RoutingPolicy | PathPolicy,
    traffic: list[tuple[Coord, Coord, int]],
) -> TrafficStats:
    """Drive a packet workload through the mesh under link contention."""
    limit = CYCLES_PER_SIDE * (mesh.n + mesh.m) + 8 * len(traffic)
    flights: list[_FlightState] = []
    for source, dest, inject_time in traffic:
        packet = Packet(source=source, dest=dest)
        state = _FlightState(packet=packet, inject_time=inject_time)
        if isinstance(policy, PathPolicy):
            try:
                state.path = policy.path_for(source, dest)
            except RoutingError as error:
                packet.drop(str(error))
        flights.append(state)

    stats = TrafficStats(offered=len(traffic), delivered=0, dropped=0, total_cycles=0)
    cycle = 0
    while cycle < limit:
        active = [
            f
            for f in flights
            if f.packet.status is PacketStatus.IN_FLIGHT and f.inject_time <= cycle
        ]
        pending = any(
            f.packet.status is PacketStatus.IN_FLIGHT and f.inject_time > cycle
            for f in flights
        )
        if not active and not pending:
            break
        links_used: set[tuple[Coord, Coord]] = set()
        # Oldest packets win arbitration (age-based priority, starvation-free).
        for state in sorted(active, key=lambda f: f.inject_time):
            packet = state.packet
            current = packet.current
            if state.path is not None:
                nxt = state.path.nodes[state.cursor + 1]
            else:
                try:
                    nxt = policy.next_hop(current, packet.dest)
                except RoutingError as error:
                    packet.drop(str(error))
                    continue
            if (current, nxt) in links_used:
                state.stalls += 1
                stats.stall_cycles += 1
                continue
            links_used.add((current, nxt))
            packet.record_hop(nxt)
            state.cursor += 1
            if packet.status is PacketStatus.DELIVERED:
                state.delivered_time = cycle + 1
        cycle += 1
    stats.total_cycles = cycle

    for state in flights:
        packet = state.packet
        if packet.status is PacketStatus.DELIVERED:
            stats.delivered += 1
            assert state.delivered_time is not None
            stats.latencies.append(state.delivered_time - state.inject_time)
            stats.hop_counts.append(packet.hops)
            stats.minimal_hop_counts.append(
                manhattan_distance(packet.source, packet.dest)
            )
        else:
            if packet.status is PacketStatus.IN_FLIGHT:
                packet.drop("simulation cycle limit reached")
            stats.dropped += 1
    return stats
