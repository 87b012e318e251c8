"""Simulator fast path: engine order, frozen protocol goldens, O(1)
accounting, cache bounds.

The engine must pop events in ``(time, insertion order)`` order for any
timestamp pattern.  Every protocol the repo ships must converge to its
centralized counterpart (the table in :mod:`repro.simulator`) with the
exact ``NetworkStats`` -- messages, drops, events, convergence time --
frozen as golden values while a reference binary-heap scheduler and a
per-channel-object delivery path still ran beside the current ones and
agreed with them on every value.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.chaos import ChannelFaultPlan, ChaosRunner, ChaosSchedule
from repro.core.boundaries import CanonicalBoundaryMap
from repro.core.safety import compute_safety_levels
from repro.faults.blocks import _connected_components, build_faulty_blocks
from repro.faults.injection import injection_sequence, uniform_faults
from repro.faults.mcc import MCCType, label_statuses
from repro.mesh.geometry import Direction
from repro.mesh.topology import Mesh2D
from repro.obs import MetricsSink, Tracer, use_tracer
from repro.obs.recorder import FlightRecorder, canonical_bytes
from repro.obs.tracer import NULL_TRACER
from repro.parallel.cache import ArtifactCache
from repro.simulator.engine import Engine
from repro.simulator.messages import Message
from repro.simulator.network import MeshNetwork, NetworkStats
from repro.simulator.process import NodeProcess
from repro.simulator.protocols import (
    run_block_formation,
    run_boundary_distribution,
    run_mcc_formation,
    run_pivot_broadcast,
    run_region_exchange,
    run_safety_propagation,
)
from repro.simulator.protocols.dynamic_update import DynamicMesh
from repro.simulator.traffic import PathPolicy


# ----------------------------------------------------------------------
# Engine.run(until=...) clock regression
# ----------------------------------------------------------------------
class TestRunUntilAdvancesClock:
    def test_clock_reaches_horizon_when_next_event_is_later(self):
        engine = Engine()
        hits = []
        for t in (1.0, 5.0):
            engine.schedule(t, hits.append, t)
        engine.run(until=3.0)
        assert hits == [1.0]
        assert engine.pending == 1
        # The clock must sit at the requested horizon, not lag at t=1.
        assert engine.now == 3.0

    def test_clock_reaches_horizon_when_queue_drains(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.run(until=7.5)
        assert engine.pending == 0
        assert engine.now == 7.5

    def test_resumed_run_schedules_relative_to_horizon(self):
        engine = Engine()
        engine.run(until=10.0)
        engine.schedule(1.0, lambda: None)
        engine.run()
        assert engine.now == 11.0

    def test_event_exactly_at_horizon_is_delivered(self):
        engine = Engine()
        hits = []
        engine.schedule(3.0, hits.append, 3.0)
        processed = engine.run(until=3.0)
        assert hits == [3.0]
        assert processed == 1
        assert engine.pending == 0

    def test_float_drift_does_not_strand_horizon_events(self):
        """Three chained 0.1 delays land at 0.30000000000000004 -- a few
        ulps past the horizon 0.3.  Such events must still be delivered
        (and counted), not stranded forever just past the clock."""
        engine = Engine()
        hits = []

        def hop(remaining):
            hits.append(engine.now)
            if remaining:
                engine.schedule(0.1, hop, remaining - 1)

        engine.schedule(0.1, hop, 2)
        engine.run(until=0.3)
        assert len(hits) == 3
        assert engine.pending == 0

    def test_horizon_slack_does_not_pull_in_later_events(self):
        """The ulp slack is microscopic: an event a genuine tick beyond
        the horizon stays pending."""
        engine = Engine()
        engine.schedule(3.0, lambda: None)
        engine.schedule(3.0000001, lambda: None)
        assert engine.run(until=3.0) == 1
        assert engine.pending == 1


# ----------------------------------------------------------------------
# Property: events pop in sorted((time, insertion index)) order
# ----------------------------------------------------------------------
class TestSchedulerOrderProperty:
    @pytest.mark.parametrize("mode", ["drain", "until", "max_events"])
    @pytest.mark.parametrize("hooked", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_identical_event_order_on_random_schedules(self, seed, hooked, mode):
        """Random delays (with deliberate timestamp collisions, float
        drift and zero delays) plus nested rescheduling: the executed
        order is exactly the pushes sorted by (time, insertion index),
        with or without a tick hook and whether ``run`` drains, stops at
        ``until`` horizons or counts against a ``max_events`` budget.
        Hook ticks never go backwards."""
        delays = [0.0, 0.1, 0.5, 1.0, 1.0, 1.5, 2.0, 2.5]
        rng = np.random.default_rng(seed)
        engine = Engine()
        pushed: list[tuple[float, int]] = []
        log: list[tuple[float, int]] = []
        ticks: list[float] = []
        if hooked:
            engine.set_tick_hook(ticks.append, interval=0.7)

        def push(depth: int) -> None:
            delay = delays[int(rng.integers(len(delays)))]
            index = len(pushed)
            pushed.append((engine.now + delay, index))
            engine.schedule(delay, fire, index, depth)

        def fire(index: int, depth: int) -> None:
            log.append((engine.now, index))
            if depth > 0:
                for _ in range(int(rng.integers(0, 3))):
                    push(depth - 1)

        for _ in range(20):
            push(3)
        assert engine.pending == 20
        if mode == "drain":
            engine.run()
        elif mode == "until":
            while engine.pending:
                engine.run(until=engine.now + 1.3)
        else:
            engine.run(max_events=10_000)
        assert len(log) == len(pushed) == engine.events_processed
        assert log == sorted(pushed)
        assert ticks == sorted(ticks)
        assert bool(ticks) == hooked


# ----------------------------------------------------------------------
# Every protocol: centralized counterpart + golden NetworkStats
# ----------------------------------------------------------------------
def _scenario(side=16, fault_count=14, seed=11):
    mesh = Mesh2D(side, side)
    rng = np.random.default_rng(seed)
    faults = uniform_faults(mesh, fault_count, rng, forbidden={mesh.center})
    blocks = build_faulty_blocks(mesh, faults)
    return mesh, faults, blocks


def _stats(messages, dropped, events, converged_at):
    return NetworkStats(messages, dropped, events, float(converged_at))


#: ``_scenario()`` sends no formation messages (14 scattered faults
#: disable nothing), so block and MCC formation are also pinned on
#: ``_scenario(fault_count=60)``.
GOLDEN_STATS = {
    "block_formation": _stats(0, 0, 0, 0),
    "block_formation_dense": _stats(558, 177, 558, 21),
    "mcc_formation": _stats(0, 0, 0, 0),
    "mcc_formation_dense": _stats(96, 37, 96, 9),
    "safety_propagation": _stats(248, 14, 248, 13),
    "boundary_distribution": _stats(197, 0, 197, 15),
    "region_exchange": _stats(858, 49, 858, 15),
    "pivot_broadcast": _stats(858, 49, 858, 25),
}

#: ``DynamicMesh`` on 14x14 with ``injection_sequence(mesh, 10, rng(5))``:
#: per injection (fault, messages, events, settled_at).
GOLDEN_DYNAMIC = [
    ((8, 11), 22, 26, 11.0), ((7, 3), 22, 26, 21.0), ((4, 0), 23, 26, 34.0),
    ((11, 3), 14, 18, 44.0), ((13, 9), 23, 26, 57.0), ((9, 5), 22, 26, 66.0),
    ((0, 4), 23, 26, 79.0), ((11, 4), 18, 21, 89.0), ((0, 10), 18, 21, 102.0),
    ((6, 7), 22, 26, 109.0),
]

PIVOTS = [(2, 2), (13, 4), (7, 12)]


def _assert_levels_equal(actual, expected, unusable):
    """ESLs agree on every free node (blocked nodes run no process)."""
    free = ~unusable
    for direction in ("east", "south", "west", "north"):
        got, want = getattr(actual, direction), getattr(expected, direction)
        assert np.array_equal(got[free], want[free])


def _runs(line):
    """Maximal runs of False in a 1-D blocked mask, as index ranges."""
    runs, start = [], None
    for i, blocked in enumerate(line.tolist() + [True]):
        if not blocked and start is None:
            start = i
        elif blocked and start is not None:
            runs.append(range(start, i))
            start = None
    return runs


class TestProtocolSchedulerEquivalence:
    """Each protocol equals its centralized counterpart, and its stats
    equal the values both former schedulers produced."""

    def test_block_formation(self):
        for key, count in (("block_formation", 14), ("block_formation_dense", 60)):
            mesh, faults, blocks = _scenario(fault_count=count)
            result = run_block_formation(mesh, faults)
            assert np.array_equal(result.unusable, blocks.unusable)
            assert result.stats == GOLDEN_STATS[key]

    def test_safety_propagation(self):
        mesh, _, blocks = _scenario()
        result = run_safety_propagation(mesh, blocks.unusable)
        _assert_levels_equal(
            result.levels, compute_safety_levels(mesh, blocks.unusable), blocks.unusable
        )
        assert result.stats == GOLDEN_STATS["safety_propagation"]

    def test_boundary_distribution(self):
        mesh, _, blocks = _scenario()
        rects = blocks.rects()
        result = run_boundary_distribution(mesh, rects, blocks.unusable)
        expected = CanonicalBoundaryMap.build(mesh, rects, blocks.unusable)

        def tags(annotations):
            return {
                coord: {(t.block_index, t.line): t.toward for t in found}
                for coord, found in annotations.items()
            }

        assert tags(result.annotations) == tags(expected.annotations)
        assert result.stats == GOLDEN_STATS["boundary_distribution"]

    def test_mcc_formation(self):
        for key, count in (("mcc_formation", 14), ("mcc_formation_dense", 60)):
            mesh, faults, _ = _scenario(fault_count=count)
            faulty = np.zeros((mesh.n, mesh.m), dtype=bool)
            for fault in faults:
                faulty[fault] = True
            result = run_mcc_formation(mesh, faults, MCCType.TYPE_ONE)
            expected = label_statuses(mesh, faulty, MCCType.TYPE_ONE)
            assert np.array_equal(result.status, expected)
            assert result.stats == GOLDEN_STATS[key]

    def test_region_exchange(self):
        """Each node learns the North levels of its row region and the
        East levels of its column region (Extension 2, segment size 1)."""
        mesh, _, blocks = _scenario()
        unusable = blocks.unusable
        levels = compute_safety_levels(mesh, unusable)
        result = run_region_exchange(mesh, unusable, levels)
        expected_rows, expected_columns = {}, {}
        for y in range(mesh.m):
            for region in _runs(unusable[:, y]):
                known = {x: int(levels.north[x, y]) for x in region}
                expected_rows.update({(x, y): known for x in region})
        for x in range(mesh.n):
            for region in _runs(unusable[x, :]):
                known = {y: int(levels.east[x, y]) for y in region}
                expected_columns.update({(x, y): known for y in region})
        assert result.row_knowledge == expected_rows
        assert result.column_knowledge == expected_columns
        assert result.stats == GOLDEN_STATS["region_exchange"]

    def test_pivot_broadcast(self):
        """Every free node holds the ESL of each free pivot in its
        4-connected free component, and nothing else."""
        mesh, _, blocks = _scenario()
        levels = compute_safety_levels(mesh, blocks.unusable)
        result = run_pivot_broadcast(mesh, blocks.unusable, levels, PIVOTS)
        expected = {}
        for component in _connected_components(~blocks.unusable):
            members = set(component)
            table = {p: levels.esl(p) for p in PIVOTS if p in members}
            expected.update({coord: table for coord in component})
        assert result.tables == expected
        assert result.stats == GOLDEN_STATS["pivot_broadcast"]

    def test_dynamic_mesh_ten_faults(self):
        mesh = Mesh2D(14, 14)
        faults = injection_sequence(mesh, 10, np.random.default_rng(5))
        dynamic = DynamicMesh(mesh)
        for fault in faults:
            dynamic.inject_fault(fault)
        blocks = build_faulty_blocks(mesh, faults)
        assert np.array_equal(dynamic.unusable_grid(), blocks.unusable)
        _assert_levels_equal(
            dynamic.safety_levels(),
            compute_safety_levels(mesh, blocks.unusable),
            blocks.unusable,
        )
        assert [
            (r.fault, r.messages, r.events, r.settled_at) for r in dynamic.reports
        ] == GOLDEN_DYNAMIC
        assert all(r.newly_disabled == 0 for r in dynamic.reports)
        assert dynamic.total_messages == 207


# ----------------------------------------------------------------------
# Event order, event by event: digests of flight-recorded streams
# ----------------------------------------------------------------------
def _recorded_digest(run) -> tuple[str, int]:
    recorder = FlightRecorder()
    run(recorder)
    digest = hashlib.sha256()
    for event in recorder.canonical_stream():
        digest.update(canonical_bytes(event))
    return digest.hexdigest()[:16], len(recorder.events)


def _traced(run, *args, **kwargs):
    """``run(*args, **kwargs)`` with the recorder as the installed tracer."""
    def go(recorder):
        with use_tracer(recorder):
            run(*args, **kwargs)
    return go


def _recorded_runs():
    mesh, _, blocks = _scenario()
    _, dense_faults, _ = _scenario(fault_count=60)
    levels = compute_safety_levels(mesh, blocks.unusable)
    return {
        "block_formation": _traced(run_block_formation, mesh, dense_faults),
        "mcc_formation": _traced(run_mcc_formation, mesh, dense_faults, MCCType.TYPE_ONE),
        "boundary_distribution": _traced(
            run_boundary_distribution, mesh, blocks.rects(), blocks.unusable
        ),
        "region_exchange": _traced(run_region_exchange, mesh, blocks.unusable, levels),
        "pivot_broadcast": _traced(
            run_pivot_broadcast, mesh, blocks.unusable, levels, PIVOTS
        ),
        "safety_propagation": _traced(run_safety_propagation, mesh, blocks.unusable),
        "block_formation_hardened": _traced(
            run_block_formation, mesh, dense_faults, chaos=_lossy_plan()
        ),
        "safety_propagation_hardened": _traced(
            run_safety_propagation, mesh, blocks.unusable, chaos=_lossy_plan()
        ),
        "chaos_jitter0": lambda t: _chaos_run(jitter=0, recorder=t),
        "chaos_jitter1": lambda t: _chaos_run(jitter=1, recorder=t),
    }


def _lossy_plan(jitter: int = 0) -> ChannelFaultPlan:
    return ChannelFaultPlan(drop=0.05, duplicate=0.03, corrupt=0.03, jitter=jitter, seed=5)


def _chaos_run(jitter: int, recorder):
    """A flight-recorded hardened run: 16x16, initial faults, seeded
    crash/revive schedule, two stabilization pulses, and a lossy plan.
    ``jitter=0`` pins the plan's block-drawn verdict stream, ``jitter=1``
    the per-message draw order."""
    mesh = Mesh2D(16, 16)
    rng = np.random.default_rng(27)
    faults = uniform_faults(mesh, 10, rng)
    schedule = ChaosSchedule.random(mesh, rng, events=6, forbidden=set(faults))
    runner = ChaosRunner(
        mesh, faults, _lossy_plan(jitter), schedule, stabilize_rounds=2, recorder=recorder
    )
    return runner.run()


#: Frozen alongside GOLDEN_STATS.
GOLDEN_DIGESTS = {
    "block_formation": ("da70f69a9720bc77", 1320),
    "mcc_formation": ("91f942714f2f7f28", 244),
    "boundary_distribution": ("0b145b0b8d578104", 415),
    "region_exchange": ("7df37e186f6667cd", 1786),
    "pivot_broadcast": ("eee32e43849e37a0", 1796),
    "safety_propagation": ("b2e899bc19c311d9", 529),
    "block_formation_hardened": ("64879b3414361d55", 8210),
    "safety_propagation_hardened": ("9aa6b579f8de62bd", 2901),
    "chaos_jitter0": ("61abfb511aad5555", 4132),
    "chaos_jitter1": ("8dd73b8500e5d85e", 4607),
}


@pytest.mark.parametrize(
    "protocol",
    [
        # The hardened static runs pin the shared restart's event order;
        # the chaos gate runs them.
        pytest.param(p, marks=pytest.mark.chaos) if p.endswith("_hardened") else p
        for p in sorted(GOLDEN_DIGESTS)
    ],
)
def test_recorded_event_stream_matches_golden_digest(protocol):
    assert _recorded_digest(_recorded_runs()[protocol]) == GOLDEN_DIGESTS[protocol]


def _digests_under_hash_seeds(protocol: str) -> set[tuple[str, int]]:
    """The recorded digest of ``protocol`` under two ``PYTHONHASHSEED``s."""
    root = Path(__file__).resolve().parents[1]
    script = (
        "from tests.test_sim_fastpath import _recorded_digest, _recorded_runs\n"
        f"print(*_recorded_digest(_recorded_runs()[{protocol!r}]))"
    )
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
        out = subprocess.run(
            [sys.executable, "-c", script], cwd=root, env=env,
            capture_output=True, text=True, check=True,
        ).stdout.split()
        digests.add((out[0], int(out[1])))
    return digests


def test_safety_propagation_stream_ignores_the_hash_seed():
    """Start-up sends iterate ``ESL_ORDER``, never a frozenset of
    directions, so the recorded stream is the same under any
    ``PYTHONHASHSEED``."""
    protocol = "safety_propagation"
    assert _digests_under_hash_seeds(protocol) == {GOLDEN_DIGESTS[protocol]}


def test_chaos_stream_ignores_the_hash_seed():
    """``Direction`` hashes by identity, so a set of directions iterates
    in an address-dependent order; restarts and the reliability shim
    therefore walk ``ESL_ORDER`` and test membership, and a hardened chaos
    run records the same stream under any ``PYTHONHASHSEED``."""
    protocol = "chaos_jitter0"
    assert _digests_under_hash_seeds(protocol) == {GOLDEN_DIGESTS[protocol]}


# ----------------------------------------------------------------------
# Array-backed channel state and O(1) accounting
# ----------------------------------------------------------------------
class _Sink(NodeProcess):
    def on_message(self, message: Message) -> None:
        pass


class TestChannelArrays:
    def test_running_totals_match_per_channel_sums(self):
        mesh = Mesh2D(14, 14)
        dynamic = DynamicMesh(mesh)
        for fault in injection_sequence(mesh, 8, np.random.default_rng(3)):
            dynamic.inject_fault(fault)
        network = dynamic.network
        assert dynamic.total_messages == sum(
            c.messages_carried for c in network.channels.values()
        )
        assert dynamic.total_messages == sum(r.messages for r in dynamic.reports)
        assert network.messages_dropped_total == sum(
            c.messages_dropped for c in network.channels.values()
        )

    def test_channel_map_is_lazy_and_consistent(self):
        mesh = Mesh2D(3, 2)
        network = MeshNetwork(mesh, Engine(), _Sink)
        # 2 directed channels per undirected edge: 3*1 vertical + 2*2 horizontal.
        assert len(network.channels) == 2 * (3 * 1 + 2 * 2)
        assert set(network.channels) == {
            (coord, direction)
            for coord in mesh.nodes()
            for direction, _ in mesh.neighbor_items(coord)
        }
        assert network.channels.get(((0, 0), Direction.WEST)) is None
        with pytest.raises(KeyError):
            network.channels[((0, 0), Direction.WEST)]

    def test_view_counters_and_take_down(self):
        mesh = Mesh2D(3, 1)
        network = MeshNetwork(mesh, Engine(), _Sink)
        network.send_from((0, 0), Direction.EAST, "ping", None)
        channel = network.channels[((0, 0), Direction.EAST)]
        assert channel.up and channel.messages_carried == 1
        assert "up" in str(channel)
        channel.take_down()
        # Views are stateless facades: a fresh view sees the same state.
        assert not network.channels[((0, 0), Direction.EAST)].up
        network.send_from((0, 0), Direction.EAST, "ping", None)
        assert network.channels[((0, 0), Direction.EAST)].messages_dropped == 1
        assert network.messages_dropped_total == 1


# ----------------------------------------------------------------------
# Send-mode reconciliation: instruments observe, never perturb
# ----------------------------------------------------------------------
class _DropCounter:
    """Counts ``protocol_msg`` events sent into a down channel."""

    def __init__(self) -> None:
        self.dropped = 0

    def record(self, event) -> None:
        if event.kind == "protocol_msg" and event.data["dropped"]:
            self.dropped += 1


_CHANNEL_ARRAYS = (
    "channel_up", "channel_carried", "channel_dropped", "channel_lost",
    "channel_retried",
)


def _send_mode_run(lossy: bool, setup: str):
    """One seeded chaos run (14x14, 10 faults, crash/revive schedule)
    under ``setup``: ``"bare"`` (no instrument), ``"traced"``
    (``Tracer(MetricsSink())``) or ``"recorded"`` (a flight recorder).
    The hot counters are read from whichever tracer the run used."""
    mesh = Mesh2D(14, 14)
    rng = np.random.default_rng(4)
    faults = uniform_faults(mesh, 10, rng)
    schedule = ChaosSchedule.random(mesh, rng, events=6, forbidden=set(faults))
    plan = (
        ChannelFaultPlan(drop=0.05, duplicate=0.05, corrupt=0.03, jitter=1, seed=9)
        if lossy else None
    )
    recorder = FlightRecorder() if setup == "recorded" else None
    metrics, drops = MetricsSink(), _DropCounter()
    tracer = Tracer(metrics, drops) if setup == "traced" else NULL_TRACER
    with use_tracer(tracer):
        runner = ChaosRunner(mesh, faults, plan, schedule, recorder=recorder)
        outcome = runner.run()
    arrays = {name: getattr(runner.network, name).copy() for name in _CHANNEL_ARRAYS}
    hot = (recorder or tracer).hot
    return outcome.stats, arrays, hot, metrics, drops, recorder


class TestSendModeReconciliation:
    @pytest.mark.parametrize("lossy", [True, False], ids=["chaos", "reliable"])
    def test_counters_reconcile_across_instruments(self, lossy):
        runs = {
            setup: _send_mode_run(lossy, setup)
            for setup in ("bare", "traced", "recorded")
        }
        stats, arrays = runs["bare"][:2]
        if lossy:
            assert stats.lost and stats.duplicated and stats.retried
        else:
            assert stats.lost == stats.duplicated == 0
        assert stats.dropped > 0
        for setup in ("traced", "recorded"):
            other_stats, other_arrays, hot = runs[setup][:3]
            assert other_stats == stats, setup
            for name in _CHANNEL_ARRAYS:
                assert np.array_equal(other_arrays[name], arrays[name]), (setup, name)
            assert hot["sim.messages"] == stats.messages + stats.dropped
            assert hot["sim.dropped"] == stats.dropped
            assert hot["chaos.drops"] == stats.lost
            assert hot["chaos.duplicates"] == stats.duplicated
            assert hot["chaos.retries"] == stats.retried
        _, _, _, metrics, drops, _ = runs["traced"]
        assert metrics.event_counts["protocol_msg"] == stats.messages + stats.dropped
        assert drops.dropped == stats.dropped
        recorder = runs["recorded"][5]
        assert len([e for e in recorder.events if e.kind == "msg_drop"]) == stats.dropped


# ----------------------------------------------------------------------
# Bounded PathPolicy cache
# ----------------------------------------------------------------------
class TestPathPolicyCacheBound:
    def test_cache_is_bounded_lru(self):
        calls = []

        def route(source, dest):
            calls.append((source, dest))
            return (source, dest)

        policy = PathPolicy(route, ArtifactCache(maxsize=4))
        for i in range(10):
            policy.path_for((0, 0), (i, i))
        assert len(calls) == 10
        assert len(policy._cache) == 4
        # Recent entries hit; evicted entries rebuild.
        policy.path_for((0, 0), (9, 9))
        assert len(calls) == 10
        policy.path_for((0, 0), (0, 0))
        assert len(calls) == 11

    def test_default_cache_is_bounded(self):
        policy = PathPolicy(lambda s, d: (s, d))
        assert policy._cache.maxsize == 1024


class TestPathPolicyInvalidation:
    def test_stale_paths_dropped_when_fault_set_changes(self):
        """A live fault landing on a memoised route must not keep being
        served: invalidate() flushes the cache and the rebuilt path
        avoids the new fault."""
        from repro.routing.detour import DetourRouter

        mesh = Mesh2D(9, 9)
        faults: list = []

        def route(source, dest):
            return DetourRouter(mesh, build_faulty_blocks(mesh, faults)).route(
                source, dest
            )

        policy = PathPolicy(route)
        path = policy.path_for((0, 4), (8, 4))
        victim = path.nodes[len(path.nodes) // 2]
        faults.append(victim)
        # Without invalidation the cache still serves the stale route
        # straight through the fault -- that is the hazard.
        assert victim in policy.path_for((0, 4), (8, 4)).nodes
        policy.invalidate()
        fresh = policy.path_for((0, 4), (8, 4))
        assert victim not in fresh.nodes
        assert len(policy._cache) == 1

    def test_invalidate_on_empty_cache_is_harmless(self):
        policy = PathPolicy(lambda s, d: (s, d))
        policy.invalidate()
        assert len(policy._cache) == 0


class TestPathPolicyGenerations:
    """Per-entry staleness: a fault event only drops the routes it can
    actually touch (satellite of the incremental-maintenance engine)."""

    def _tracking_policy(self, mesh, faults):
        from repro.routing.detour import DetourRouter

        calls = []

        def route(source, dest):
            calls.append((source, dest))
            return DetourRouter(mesh, build_faulty_blocks(mesh, faults)).route(
                source, dest
            )

        return PathPolicy(route), calls

    def test_unaffected_route_survives_distant_fault(self):
        """The regression the issue names: a cached (s, d) route far from
        an injected fault must survive the event (revalidated, not
        rebuilt), while a route through the affected window is rebuilt."""
        from repro.faults.incremental import IncrementalFaultEngine

        mesh = Mesh2D(16, 16)
        faults: list = []
        policy, calls = self._tracking_policy(mesh, faults)
        near = policy.path_for((0, 4), (8, 4))
        policy.path_for((15, 0), (15, 15))  # distant: hugs the far column
        assert len(calls) == 2

        engine = IncrementalFaultEngine(mesh)
        victim = near.nodes[len(near.nodes) // 2]
        faults.append(victim)
        report = engine.inject(victim)
        policy.note_fault_event(report.affected_rect, report.generation)
        assert policy.generation == 1

        # The distant route survives without a rebuild...
        policy.path_for((15, 0), (15, 15))
        assert len(calls) == 2
        assert policy._cache.revalidated == 1
        # ...while the route through the fault is recomputed and avoids it.
        fresh = policy.path_for((0, 4), (8, 4))
        assert len(calls) == 3
        assert victim not in fresh.nodes

    def test_windowless_event_marks_everything_stale(self):
        policy, calls = self._tracking_policy(Mesh2D(8, 8), [])
        policy.path_for((0, 0), (7, 7))
        policy.note_fault_event()  # no affected window known
        policy.path_for((0, 0), (7, 7))
        assert len(calls) == 2

    def test_history_overflow_forces_rebuild(self):
        from repro.mesh.geometry import Rect
        from repro.simulator.traffic import FAULT_EVENT_HISTORY

        policy, calls = self._tracking_policy(Mesh2D(8, 8), [])
        policy.path_for((0, 0), (0, 7))
        # Flood the event history with windows that never touch the route;
        # once the record of an intervening event is lost, the entry can
        # no longer prove it survived and must rebuild.
        for _ in range(FAULT_EVENT_HISTORY + 1):
            policy.note_fault_event(Rect(7, 7, 0, 0))
        policy.path_for((0, 0), (0, 7))
        assert len(calls) == 2

    def test_invalidate_still_flushes_everything(self):
        policy, calls = self._tracking_policy(Mesh2D(8, 8), [])
        policy.path_for((0, 0), (7, 7))
        policy.invalidate()
        policy.path_for((0, 0), (7, 7))
        assert len(calls) == 2
