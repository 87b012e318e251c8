"""Flight recorder: causal lineage, deterministic replay, bisection.

The acceptance gates of the observability PR:

- **record -> replay is bit-identical**: a seeded chaos run (crash/revive
  schedule, 5% loss) recorded once and re-executed from its recipe emits
  the same canonical event stream and lands on the same final state;
- **recording is transparent**: a recorded run produces exactly the
  state and stats an unrecorded run produces;
- **bisection is exact**: fed a deliberately perturbed replay, the
  bisector names the *first* divergent event id and attaches both causal
  ancestries, and the log variant gets there through the sidecar index
  in O(log ticks) digest probes instead of a full scan.
"""

import hashlib
import math
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro.chaos import ChannelFaultPlan, ChaosEvent, ChaosRunner, ChaosSchedule
from repro.mesh.topology import Mesh2D
from repro.obs import (
    FlightRecorder,
    RecorderSink,
    TraceEvent,
    ancestry,
    bisect_logs,
    bisect_streams,
    canonical,
    read_index,
    read_recording,
    render_lineage,
    replay_events,
    replay_recording,
    state_at,
)
from repro.obs.recorder import canonical_bytes, index_path_for
from repro.obs.replay import build_runner, recipe_of

FAULTS = [(3, 3), (3, 4), (7, 7)]


def _plan() -> ChannelFaultPlan:
    return ChannelFaultPlan(drop=0.05, duplicate=0.02, corrupt=0.02, jitter=1, seed=5)


def _schedule(mesh: Mesh2D) -> ChaosSchedule:
    rng = np.random.default_rng(11)
    return ChaosSchedule.random(mesh, rng, events=8, forbidden=set(FAULTS))


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One seeded chaos run (crash/revive + 5% loss), flight-recorded to
    disk; shared by the whole module (every consumer only reads it)."""
    log = tmp_path_factory.mktemp("recording") / "run.jsonl"
    mesh = Mesh2D(10, 10)
    recorder = FlightRecorder(log)
    runner = ChaosRunner(
        mesh,
        faults=FAULTS,
        plan=_plan(),
        schedule=_schedule(mesh),
        stabilize_rounds=2,
        recorder=recorder,
    )
    outcome = runner.run()
    recorder.close()
    return SimpleNamespace(
        log=log,
        recorder=recorder,
        runner=runner,
        outcome=outcome,
        events=recorder.events,
    )


class TestRecordingStructure:
    def test_run_meta_header_carries_the_recipe(self, recorded):
        header = recorded.events[0]
        assert header.kind == "run_meta"
        recipe = recipe_of(recorded.events)
        assert recipe["n"] == recipe["m"] == 10
        assert sorted(tuple(c) for c in recipe["faults"]) == sorted(FAULTS)
        assert recipe["plan"]["drop"] == 0.05
        assert recipe["plan"]["seed"] == 5
        assert len(recipe["schedule"]) == 8
        assert recipe["stabilize_rounds"] == 2

    def test_event_ids_are_positions_and_causes_point_backwards(self, recorded):
        for position, event in enumerate(recorded.events):
            assert event.seq == position
            if event.cause is not None:
                assert 0 <= event.cause < event.seq

    def test_every_delivery_chains_to_its_send(self, recorded):
        table = {event.seq: event for event in recorded.events}
        deliveries = [e for e in recorded.events if e.kind == "msg_deliver"]
        assert deliveries, "the run delivered no messages?"
        for delivery in deliveries:
            assert delivery.cause is not None
            assert table[delivery.cause].kind in ("msg_send", "msg_dup")

    def test_chaos_verdicts_are_recorded(self, recorded):
        kinds = [event.kind for event in recorded.events]
        assert kinds.count("chaos_crash") == len(recorded.outcome.crashed)
        assert kinds.count("chaos_revive") == len(recorded.outcome.revived)
        assert "msg_lost" in kinds  # the 5% loss actually fired
        # 2 stabilization pulses + one epoch bump per revive
        assert kinds.count("epoch_bump") == 2 + len(recorded.outcome.revived)

    def test_tick_events_are_strictly_monotone(self, recorded):
        times = [e.data["time"] for e in recorded.events if e.kind == "tick"]
        assert len(times) > 10
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_canonical_strips_wall_clock_fields(self):
        payload = {
            "kind": "span_end",
            "seq": 4,
            "data": {"name": "x", "span_id": 0, "duration": 0.25},
        }
        assert canonical(payload)["data"] == {"name": "x", "span_id": 0}
        assert "duration" not in str(canonical_bytes(payload))


class TestRecordingTransparency:
    def test_recorded_run_matches_unrecorded_state_and_stats(self, recorded):
        bare = build_runner(recipe_of(recorded.events))  # no recorder
        bare.run()
        assert np.array_equal(bare.unusable_grid(), recorded.runner.unusable_grid())
        ours, theirs = recorded.runner.safety_levels(), bare.safety_levels()
        for direction in ("east", "south", "west", "north"):
            assert np.array_equal(getattr(ours, direction), getattr(theirs, direction))
        assert bare.network.current_stats() == recorded.outcome.stats


class TestReplay:
    def test_replay_is_bit_identical(self, recorded):
        result = replay_events(recorded.events)
        assert result.identical, result.summary()
        assert result.events_replayed == result.events_recorded == len(recorded.events)
        assert result.divergence.probes == 0
        assert "REPLAY OK" in result.summary()

    def test_replay_reaches_the_same_final_state(self, recorded):
        replay_recorder = FlightRecorder()
        rerun = build_runner(recipe_of(recorded.events), recorder=replay_recorder)
        outcome = rerun.run()
        assert outcome.final_faults == recorded.outcome.final_faults
        assert outcome.stats == recorded.outcome.stats
        assert np.array_equal(rerun.unusable_grid(), recorded.runner.unusable_grid())
        assert replay_recorder.canonical_stream() == recorded.recorder.canonical_stream()

    def test_replay_from_disk(self, recorded):
        result = replay_recording(recorded.log)
        assert result.identical, result.summary()

    def test_recording_with_retired_scheduler_key_replays(self):
        """A recording written while the engine still offered a binary-heap
        scheduler carries ``"scheduler": "heap"`` in its recipe; it still
        replays bit for bit."""
        log = pathlib.Path(__file__).parent / "data" / "chaos_run_heap_scheduler.jsonl"
        events = read_recording(log)
        assert recipe_of(events)["scheduler"] == "heap"
        result = replay_events(events)
        assert result.identical, result.summary()
        assert result.events_replayed == len(events) == 150
        replayed_recipe = recipe_of(result.replayed)
        assert "scheduler" not in replayed_recipe
        assert replayed_recipe == {
            k: v for k, v in recipe_of(events).items() if k != "scheduler"
        }

    def test_log_round_trips_canonically(self, recorded):
        loaded = read_recording(recorded.log)
        assert [canonical(e.to_dict()) for e in loaded] == (
            recorded.recorder.canonical_stream()
        )

    def test_index_digest_covers_the_whole_stream(self, recorded):
        index = read_index(recorded.log)
        assert index["version"] == 1
        assert index["events"] == len(recorded.events)
        assert len(index["ticks"]) > 10
        digest = hashlib.sha256()
        for event in recorded.events:
            digest.update(canonical_bytes(event.to_dict()))
        assert index["digest"] == digest.hexdigest()
        # Each mark's digest covers exactly the prefix before its tick.
        mark = index["ticks"][len(index["ticks"]) // 2]
        prefix = hashlib.sha256()
        for event in recorded.events[: mark["event_id"]]:
            prefix.update(canonical_bytes(event.to_dict()))
        assert mark["digest"] == prefix.hexdigest()

    def test_stream_without_run_meta_is_not_replayable(self):
        orphan = [TraceEvent(kind="tick", seq=0, data={"time": 1.0})]
        with pytest.raises(ValueError, match="not replayable"):
            replay_events(orphan)


def _tamper(events, log_b):
    """Rewrite ``events`` to ``log_b`` with one mid-stream delivery's
    payload altered; returns the perturbed event."""
    deliveries = [e for e in events if e.kind == "msg_deliver"]
    target = min(deliveries, key=lambda e: abs(e.seq - len(events) // 2))
    tampered = TraceEvent(
        kind=target.kind,
        seq=target.seq,
        data={**dict(target.data), "msg": "tampered"},
        cause=target.cause,
    )
    sink = RecorderSink(log_b)
    for event in events:
        sink.record(tampered if event.seq == target.seq else event)
    sink.close()
    return tampered


class TestBisection:
    @pytest.fixture(scope="class")
    def perturbed(self, recorded, tmp_path_factory):
        log_b = tmp_path_factory.mktemp("perturbed") / "run_b.jsonl"
        tampered = _tamper(recorded.events, log_b)
        return SimpleNamespace(log=log_b, tampered=tampered)

    def test_stream_bisection_pinpoints_the_exact_event(self, recorded, perturbed):
        report = bisect_streams(recorded.events, read_recording(perturbed.log))
        assert not report.identical
        assert report.index == perturbed.tampered.seq
        assert report.event_a.kind == report.event_b.kind == "msg_deliver"
        assert report.event_b.data["msg"] == "tampered"
        assert f"first divergence at event {report.index}" in report.summary()

    def test_bisection_attaches_both_ancestries(self, recorded, perturbed):
        report = bisect_streams(recorded.events, read_recording(perturbed.log))
        for chain in (report.ancestry_a, report.ancestry_b):
            assert len(chain) >= 2  # at least the msg_send behind the delivery
            assert chain[-1].seq == report.index
            for parent, child in zip(chain, chain[1:]):
                assert child.cause == parent.seq
        rendered = report.render()
        assert "--- A:" in rendered and "--- B:" in rendered
        assert "tampered" in rendered

    def test_log_bisection_binary_searches_the_index(self, recorded, perturbed):
        report = bisect_logs(recorded.log, perturbed.log)
        assert not report.identical
        assert report.index == perturbed.tampered.seq
        ticks = read_index(recorded.log)["ticks"]
        assert 1 <= report.probes <= math.ceil(math.log2(len(ticks))) + 1

    def test_identical_logs(self, recorded):
        report = bisect_logs(recorded.log, recorded.log)
        assert report.identical
        assert report.probes >= 1
        assert "identical" in report.summary()

    def test_prefix_stream_reports_the_truncation_point(self, recorded):
        report = bisect_streams(recorded.events, recorded.events[:-10])
        assert not report.identical
        assert report.index == len(recorded.events) - 10
        assert report.event_b is None
        assert "continues past" in report.summary()


class TestLineage:
    def test_ancestry_is_root_first_and_consistent(self, recorded):
        delivery = next(e for e in recorded.events if e.kind == "msg_deliver")
        chain = ancestry(recorded.events, delivery.seq)
        assert chain[-1] is delivery
        assert chain[0].cause is None
        for parent, child in zip(chain, chain[1:]):
            assert child.cause == parent.seq

    def test_retransmit_chains_to_the_original_attempt(self, recorded):
        sends = {e.seq: e for e in recorded.events if e.kind == "msg_send"}
        chained = [e for e in sends.values() if e.cause in sends]
        assert chained, "5% loss over 8 chaos events never forced a retransmit?"

    def test_unknown_event_raises(self, recorded):
        with pytest.raises(KeyError):
            ancestry(recorded.events, len(recorded.events) + 5)

    def test_cycle_detection(self):
        loop = [
            TraceEvent(kind="msg_send", seq=0, data={}, cause=1),
            TraceEvent(kind="msg_deliver", seq=1, data={}, cause=0),
        ]
        with pytest.raises(ValueError, match="cycle"):
            ancestry(loop, 1)

    def test_render_lineage_shows_the_chain(self, recorded):
        delivery = next(e for e in recorded.events if e.kind == "msg_deliver")
        rendered = render_lineage(recorded.events, delivery.seq)
        lines = rendered.splitlines()
        assert len(lines) == len(ancestry(recorded.events, delivery.seq))
        assert "msg_deliver" in lines[-1]


class TestTimeTravel:
    @pytest.fixture(scope="class")
    def scripted(self):
        """A fully deterministic run whose only chaos is one late crash."""
        mesh = Mesh2D(8, 8)
        recorder = FlightRecorder()
        runner = ChaosRunner(
            mesh,
            faults=[(2, 2)],
            schedule=ChaosSchedule([ChaosEvent(40.0, "crash", (6, 6))]),
            recorder=recorder,
        )
        runner.run()
        return recorder.events

    def test_snapshot_before_the_crash(self, scripted):
        snapshot = state_at(scripted, 10.0)
        assert snapshot.faults == ((2, 2),)
        assert (6, 6) not in snapshot.unusable
        assert snapshot.events_processed > 0
        assert "t=" in snapshot.summary()

    def test_snapshot_after_the_crash(self, scripted):
        snapshot = state_at(scripted, 60.0)
        assert snapshot.faults == ((2, 2), (6, 6))
        assert (6, 6) in snapshot.unusable
        # Free nodes expose their four extended safety levels.
        coords = {coord for coord, _ in snapshot.levels}
        assert (0, 0) in coords and (2, 2) not in coords
        assert all(len(esl) == 4 for _, esl in snapshot.levels)

    def test_snapshots_are_monotone_in_time(self, scripted):
        early, late = state_at(scripted, 5.0), state_at(scripted, 60.0)
        assert early.events_processed < late.events_processed
        assert early.time <= late.time
