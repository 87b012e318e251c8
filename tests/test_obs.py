"""Tests for the observability layer (repro.obs) and its integration."""

import io
import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.extensions import extension1_decision
from repro.core.routing import WuRouter, route_with_decision
from repro.core.safety import compute_safety_levels
from repro.faults.blocks import build_faulty_blocks
from repro.faults.injection import generate_scenario
from repro.mesh.topology import Mesh2D
from repro.obs import (
    EVENT_KINDS,
    JsonlDecodeError,
    JsonlSink,
    MetricsSink,
    NULL_TRACER,
    RingBufferSink,
    TraceEvent,
    Tracer,
    get_tracer,
    read_jsonl,
    set_tracer,
    use_tracer,
)
from repro.obs.tracer import _NULL_SPAN, NullTracer
from repro.routing.detour import DetourRouter
from repro.routing.router import GreedyAdaptiveRouter, RoutingError, x_first_tie_breaker


def _scenario(side=24, faults=20, seed=7):
    mesh = Mesh2D(side, side)
    rng = np.random.default_rng(seed)
    return generate_scenario(mesh, faults, rng), rng


class TestEvents:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TraceEvent(kind="banana", seq=0)

    def test_jsonable_payload(self):
        from repro.mesh.geometry import Direction

        event = TraceEvent(
            kind="hop",
            seq=3,
            data={"at": (1, 2), "dir": Direction.EAST, "n": np.int64(5)},
        )
        payload = event.to_dict()
        assert payload["data"] == {"at": [1, 2], "dir": "EAST", "n": 5}
        json.dumps(payload)  # serializable end-to-end

    def test_vocabulary_is_closed(self):
        assert "hop" in EVENT_KINDS and "span_end" in EVENT_KINDS


class TestNullTracer:
    """The uninstrumented path must stay observably free of work."""

    def test_default_tracer_is_null(self):
        assert get_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled

    def test_null_span_is_shared_singleton(self):
        assert NULL_TRACER.span("esl.compute", n=8) is _NULL_SPAN
        assert NULL_TRACER.span("other") is NULL_TRACER.span("another")

    def test_emit_is_noop(self):
        NULL_TRACER.emit("hop", at=(0, 0), to=(1, 0))  # must not raise or buffer

    def test_uninstrumented_route_emits_nothing(self):
        ring = RingBufferSink()
        tracer = Tracer(ring)
        scenario, _ = _scenario(side=16, faults=0, seed=1)
        router = WuRouter(scenario.mesh, scenario.blocks)
        router.route((0, 0), (3, 3))  # tracer never installed
        assert len(ring) == 0
        with use_tracer(tracer):
            router.route((0, 0), (3, 3))
        assert len(ring) > 0

    def test_use_tracer_restores_previous(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER
        previous = set_tracer(tracer)
        assert previous is NULL_TRACER
        assert set_tracer(None) is tracer
        assert get_tracer() is NULL_TRACER


class TestSpanIds:
    def test_interleaved_spans_pair_by_span_id(self):
        """Same-name spans overlap; span_id (not name) is what pairs them,
        and each span_end names its own span_start as its cause."""
        ring = RingBufferSink()
        tracer = Tracer(ring)
        outer, inner = tracer.span("esl.compute", n=1), tracer.span("esl.compute", n=2)
        outer.__enter__()
        inner.__enter__()
        outer.__exit__(None, None, None)  # out of order on purpose
        inner.__exit__(None, None, None)
        assert outer.span_id != inner.span_id
        starts = {e.data["span_id"]: e for e in ring if e.kind == "span_start"}
        ends = [e for e in ring if e.kind == "span_end"]
        assert len(starts) == len(ends) == 2
        for end in ends:
            start = starts[end.data["span_id"]]
            assert end.cause == start.seq
            assert end.data["n"] == start.data["n"]
        assert [end.data["n"] for end in ends] == [1, 2]

    def test_span_ids_are_per_tracer(self):
        a, b = Tracer(RingBufferSink()), Tracer(RingBufferSink())
        with a.span("x") as first, b.span("x") as other:
            assert first.span_id == other.span_id == 0
        with a.span("x") as second:
            assert second.span_id == 1


class TestSinks:
    def test_ring_buffer_drops_oldest(self):
        ring = RingBufferSink(capacity=3)
        tracer = Tracer(ring)
        for i in range(5):
            tracer.emit("hop", index=i)
        assert len(ring) == 3
        assert [event.data["index"] for event in ring] == [2, 3, 4]

    def test_jsonl_round_trip(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonlSink(target))
        tracer.emit("route_start", source=(0, 0), dest=(5, 5), distance=10)
        tracer.emit("hop", at=(0, 0), to=(1, 0), index=0, rule="adaptive")
        with tracer.span("esl.compute", n=8):
            pass
        tracer.close()

        events = read_jsonl(target)
        assert [e.kind for e in events] == ["route_start", "hop", "span_start", "span_end"]
        assert [e.seq for e in events] == [0, 1, 2, 3]
        assert events[1].data["to"] == [1, 0]
        assert events[3].data["duration"] >= 0.0
        # Round trip is exact at the canonical-dict level.
        original = [e.to_dict() for e in [*read_jsonl(target)]]
        assert [e.to_dict() for e in events] == original

    def test_jsonl_context_manager_closes(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        with JsonlSink(target) as sink:
            Tracer(sink).emit("hop", at=(0, 0), to=(1, 0))
        assert sink._stream.closed
        assert [e.kind for e in read_jsonl(target)] == ["hop"]

    def test_jsonl_round_trips_non_ascii_and_nested_payloads(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        payload = {
            "note": "ésumé — ブロック ✓",
            "nested": {"rect": {"min": [0, 0], "max": [3, 4]}, "tags": ["a", "ü"]},
        }
        with JsonlSink(target) as sink:
            Tracer(sink).emit("block_hit", **payload)
        event = read_jsonl(target)[0]
        assert event.data["note"] == payload["note"]
        assert event.data["nested"] == payload["nested"]

    def test_read_jsonl_names_the_offending_line(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        good = '{"kind": "hop", "seq": 0, "data": {}}'
        target.write_text(good + "\n\n" + "{not json\n" + good + "\n")
        with pytest.raises(JsonlDecodeError) as excinfo:
            read_jsonl(target)
        assert excinfo.value.line_number == 3
        assert excinfo.value.source == str(target)
        assert "line 3" in str(excinfo.value)

    def test_read_jsonl_rejects_wrong_shape_with_line(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        target.write_text('{"kind": "hop", "seq": 0, "data": {}}\n{"seq": 1}\n')
        with pytest.raises(JsonlDecodeError) as excinfo:
            read_jsonl(target)
        assert excinfo.value.line_number == 2

    def test_read_jsonl_stream_source_named(self):
        stream = io.StringIO("{broken\n")
        with pytest.raises(JsonlDecodeError) as excinfo:
            read_jsonl(stream)
        assert excinfo.value.source == "<stream>"
        assert excinfo.value.line_number == 1

    def test_jsonl_does_not_close_borrowed_stream(self):
        stream = io.StringIO()
        with JsonlSink(stream) as sink:
            Tracer(sink).emit("hop", at=(0, 0), to=(1, 0))
        assert not stream.closed
        stream.seek(0)
        assert len(read_jsonl(stream)) == 1

    def test_multiple_sinks_see_every_event(self):
        ring, metrics = RingBufferSink(), MetricsSink()
        tracer = Tracer(ring, metrics)
        tracer.emit("detour", at=(0, 0), to=(0, 1))
        assert len(ring) == 1
        assert metrics.event_counts["detour"] == 1


class TestJsonlRotation:
    def test_unbounded_sink_never_rotates(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        with JsonlSink(target) as sink:
            tracer = Tracer(sink)
            for i in range(200):
                tracer.emit("hop", index=i)
        assert sink.events_written == 200
        assert len(read_jsonl(target)) == 200


class _ParanoidTracer(NullTracer):
    """A null tracer that fails the test if anything emits through it."""

    def emit(self, kind, *, cause=None, **data):
        raise AssertionError(f"uninstrumented run emitted {kind!r}: {data}")


class TestUninstrumentedFastPath:
    """With the null tracer installed, no protocol or router may build or
    emit a single event (spans are legitimately unguarded; only ``emit``
    must stay silent)."""

    def test_all_six_protocols_emit_nothing(self):
        from repro.core.pivots import recursive_center_pivots
        from repro.faults.mcc import MCCType
        from repro.mesh.geometry import Rect
        from repro.simulator.protocols import (
            run_block_formation,
            run_boundary_distribution,
            run_mcc_formation,
            run_pivot_broadcast,
            run_region_exchange,
            run_safety_propagation,
        )

        scenario, _ = _scenario(side=10, faults=6, seed=2)
        mesh, blocks = scenario.mesh, scenario.blocks
        unusable = blocks.unusable
        levels = compute_safety_levels(mesh, unusable)
        pivots = recursive_center_pivots(Rect(0, mesh.n - 1, 0, mesh.m - 1), 2)
        with use_tracer(_ParanoidTracer()):
            run_block_formation(mesh, scenario.faults)
            run_mcc_formation(mesh, scenario.faults, MCCType.TYPE_ONE)
            run_safety_propagation(mesh, unusable)
            run_boundary_distribution(mesh, blocks.rects(), unusable)
            run_region_exchange(mesh, unusable, levels)
            run_pivot_broadcast(mesh, unusable, levels, pivots)

    def test_both_routers_emit_nothing(self):
        import contextlib

        mesh = Mesh2D(12, 12)
        blocks = build_faulty_blocks(mesh, [(4, 4), (5, 5)])
        with use_tracer(_ParanoidTracer()):
            with contextlib.suppress(RoutingError):
                WuRouter(mesh, blocks).route((0, 0), (9, 9))
            with contextlib.suppress(RoutingError):
                DetourRouter(mesh, blocks).route((0, 0), (9, 9))
            with contextlib.suppress(RoutingError):
                GreedyAdaptiveRouter(
                    mesh, blocks.unusable, tie_breaker=x_first_tie_breaker
                ).route((5, 0), (5, 8))


class TestMetricsInvariants:
    def test_hop_events_equal_total_path_length(self):
        """Sum of ``hop`` events over a routed batch == sum of path lengths,
        including the manually reported neighbour hop of two-phase routes."""
        scenario, rng = _scenario(side=24, faults=20, seed=7)
        mesh, blocks = scenario.mesh, scenario.blocks
        blocked = blocks.unusable
        levels = compute_safety_levels(mesh, blocked)
        router = WuRouter(mesh, blocks)
        fallback = DetourRouter(mesh, blocks)
        free = [c for c in mesh.nodes() if not blocked[c]]

        metrics = MetricsSink()
        total_hops = 0
        decisions = set()
        with use_tracer(Tracer(metrics)):
            for _ in range(60):
                src = free[int(rng.integers(len(free)))]
                dst = free[int(rng.integers(len(free)))]
                if src == dst:
                    continue
                decision = extension1_decision(mesh, levels, blocked, src, dst)
                decisions.add(decision.kind.value)
                try:
                    if decision.ensures_sub_minimal:
                        path = route_with_decision(router, decision, blocked=blocked)
                    else:
                        path = fallback.route(src, dst)
                except RoutingError:
                    continue
                total_hops += path.hops
        assert total_hops > 0
        assert metrics.event_counts["hop"] == total_hops
        assert len(decisions) >= 2  # the batch exercised several rules

    def test_route_and_span_aggregation(self):
        metrics = MetricsSink()
        tracer = Tracer(metrics)
        tracer.emit("route_end", hops=10, minimal=True, detours=0)
        tracer.emit("route_end", hops=12, minimal=False, detours=1)
        tracer.emit("route_failed", at=(0, 0), reason="stuck")
        tracer.emit("extension_fired", decision="pivot-safe")
        with tracer.span("esl.compute", n=8):
            pass
        snapshot = metrics.snapshot()
        assert snapshot["routes"] == {
            "delivered": 2,
            "minimal": 1,
            "sub_minimal": 1,
            "failed": 1,
            "hops": metrics.hops_per_route.summary(),
            "detours": metrics.detours_per_route.summary(),
        }
        assert snapshot["decisions"] == {"pivot-safe": 1}
        assert snapshot["spans"]["esl.compute"]["count"] == 1
        json.dumps(snapshot)

    def test_protocol_msg_aggregation(self):
        metrics = MetricsSink()
        tracer = Tracer(metrics)
        for t, queue in ((0, 4), (0, 6), (1, 2)):
            tracer.emit("protocol_msg", msg="esl", time=t, queue=queue)
        assert metrics.message_counts == {"esl": 3}
        assert metrics.queue_depth.mean == 4.0
        per_tick = metrics.messages_per_tick()
        assert per_tick.count == 2 and per_tick.max == 2

    def test_table_renders_all_sections(self):
        scenario, _ = _scenario(side=16, faults=10, seed=3)
        metrics = MetricsSink()
        with use_tracer(Tracer(metrics)):
            from repro.simulator.protocols import run_safety_propagation

            run_safety_propagation(scenario.mesh, scenario.blocks.unusable)
            WuRouter(scenario.mesh, scenario.blocks).route((0, 0), (2, 2))
        table = metrics.to_table()
        for section in ("events", "protocol messages", "routes", "simulator", "engine", "spans"):
            assert section in table
        assert "protocol.safety_propagation" in metrics.span_durations


class TestPartialTraceWidening:
    def test_greedy_stuck_error_carries_full_trace(self):
        """Satellite fix: RoutingError.partial is the whole walk, not just
        the stuck node (tests the paper's Figure-3 greedy failure)."""
        mesh = Mesh2D(12, 12)
        blocks = build_faulty_blocks(mesh, [(4, 4), (5, 5)])
        router = GreedyAdaptiveRouter(mesh, blocks.unusable, tie_breaker=x_first_tie_breaker)
        with pytest.raises(RoutingError) as excinfo:
            router.route((5, 0), (5, 8))
        partial = excinfo.value.partial
        assert partial[0] == (5, 0)  # starts at the source...
        assert len(partial) > 1  # ...and accumulates the walk
        assert partial == [(5, 0), (5, 1), (5, 2), (5, 3)]

    def test_route_failed_event_carries_partial(self):
        mesh = Mesh2D(12, 12)
        blocks = build_faulty_blocks(mesh, [(4, 4), (5, 5)])
        router = GreedyAdaptiveRouter(mesh, blocks.unusable, tie_breaker=x_first_tie_breaker)
        ring = RingBufferSink()
        with use_tracer(Tracer(ring)):
            with pytest.raises(RoutingError):
                router.route((5, 0), (5, 8))
        failed = [e for e in ring if e.kind == "route_failed"]
        assert len(failed) == 1
        assert failed[0].data["partial"] == [(5, 0), (5, 1), (5, 2), (5, 3)]


class TestEngineCounters:
    def test_run_counts_against_lifetime_total(self):
        from repro.simulator.engine import Engine

        engine = Engine()
        for _ in range(3):
            engine.schedule(1.0, lambda: None)
        assert engine.run() == 3
        assert engine.events_processed == 3
        for _ in range(2):
            engine.schedule(1.0, lambda: None)
        assert engine.run() == 2  # per-run delta, not the lifetime total
        assert engine.events_processed == 5
        assert engine.metrics_snapshot() == {
            "now": 2.0,
            "pending": 0,
            "events_processed": 5,
        }

    def test_max_events_budget_uses_unified_counter(self):
        from repro.simulator.engine import Engine

        engine = Engine()

        def reschedule():
            engine.schedule(1.0, reschedule)

        engine.schedule(0.0, reschedule)
        with pytest.raises(RuntimeError, match="budget of 10"):
            engine.run(max_events=10)  # pre-warm the lifetime counter
        assert engine.events_processed == 10
        with pytest.raises(RuntimeError, match="budget of 5"):
            engine.run(max_events=5)  # must budget 5 *new* events, not 5 total
        assert engine.events_processed == 15


def _run_cli(argv):
    lines = []
    code = main(argv, out=lines.append)
    return code, "\n".join(lines)


class TestTraceCliDeterminism:
    SMOKE = ["trace", "0,0", "7,7", "--faults", "3", "--seed", "1"]
    SUBMIN = ["trace", "0,0", "0,4", "--side", "24", "--faults", "20", "--seed", "7"]

    def test_smoke_trace_is_deterministic(self):
        code1, out1 = _run_cli(self.SMOKE)
        code2, out2 = _run_cli(self.SMOKE)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "hop" in out1 and "WuRouter" in out1

    def test_sub_minimal_trace_names_the_justification(self):
        code, output = _run_cli(self.SUBMIN)
        assert code == 0
        assert "spare-neighbor-safe" in output  # which extension fired...
        assert "stay-on-line" in output  # ...and the per-hop rule
        assert "sub-minimal, +2" in output
        assert output == _run_cli(self.SUBMIN)[1]
