"""Hot counters on the tracer (``Tracer.count``), timed stages as spans,
and the ``repro stats --profile`` cProfile table."""

import ast
import cProfile
import pathlib

import numpy as np
import pytest

from repro.cli import _top_functions, main
from repro.core.safety import compute_safety_levels
from repro.faults.blocks import build_faulty_blocks
from repro.faults.injection import uniform_faults
from repro.faults.mcc import MCCType, build_mccs
from repro.mesh.topology import Mesh2D
from repro.obs import MetricsSink, RingBufferSink
from repro.obs.tracer import (
    HOT_COUNTER_NAMES,
    NULL_TRACER,
    NullTracer,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)
from repro.routing.router import GreedyAdaptiveRouter

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def counted_names(root: pathlib.Path) -> set[str]:
    """Every string literal passed as the first argument of a ``.count``
    call in the Python files under ``root``."""
    names = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "count"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                names.add(node.args[0].value)
    return names


def _stats(extra):
    lines = []
    code = main(["stats", "--side", "10", "--faults", "4", "--seed", "3",
                 "--routes", "3", *extra], out=lines.append)
    return code, "\n".join(lines)


@pytest.fixture
def faulty_mesh():
    mesh = Mesh2D(12, 12)
    faults = uniform_faults(mesh, 4, np.random.default_rng(5))
    return mesh, faults


class TestHotCounters:
    def test_count_accumulates(self):
        tracer = Tracer()
        tracer.count("router.steps")
        tracer.count("router.steps", 4)
        assert tracer.hot["router.steps"] == 5

    def test_router_bumps_route_and_step_counters(self):
        mesh = Mesh2D(12, 12)
        router = GreedyAdaptiveRouter(mesh, np.zeros((12, 12), dtype=bool))
        with use_tracer(Tracer()) as tracer:
            path = router.route((0, 0), (10, 10))
        assert tracer.hot["router.routes"] == 1
        assert tracer.hot["router.steps"] == len(path) - 1

    def test_substrate_builders_bump_counters(self, faulty_mesh):
        mesh, faults = faulty_mesh
        with use_tracer(Tracer()) as tracer:
            blocks = build_faulty_blocks(mesh, faults)
            build_mccs(mesh, faults, MCCType.TYPE_ONE)
            compute_safety_levels(mesh, blocks.unusable)
        assert tracer.hot["blocks.build"] == 1
        assert tracer.hot["mcc.build"] == 1
        assert tracer.hot["esl.recompute"] == 1

    def test_documented_names_cover_producers(self):
        # Every name src/ counts is documented, and every documented name
        # is counted somewhere: a misspelt producer or a dead entry fails.
        assert counted_names(SRC) == HOT_COUNTER_NAMES

    def test_scan_sees_a_misspelt_producer(self, tmp_path):
        (tmp_path / "producer.py").write_text(
            'def f(trc):\n    trc.count("chaos.dups")\n    "x".count("y")\n'
        )
        assert counted_names(tmp_path) == {"chaos.dups", "y"}
        assert not counted_names(tmp_path) <= HOT_COUNTER_NAMES

    def test_counting_emits_no_event(self):
        ring = RingBufferSink()
        tracer = Tracer(ring)
        tracer.count("sim.messages", 3)
        assert list(ring) == []
        assert tracer.hot["sim.messages"] == 3


class TestSections:
    def test_section_times_land_in_histogram(self):
        metrics = MetricsSink()
        tracer = Tracer(metrics)
        for _ in range(3):
            with tracer.span("work"):
                sum(range(1000))
        histogram = metrics.span_durations["work"]
        assert histogram.count == 3
        assert histogram.min > 0

    def test_snapshot_shape(self):
        import json

        code, output = _stats(["--json"])
        assert code == 0
        snapshot = json.loads(output)
        assert snapshot["hot_counters"]["router.routes"] >= 1
        assert set(snapshot["hot_counters"]) <= HOT_COUNTER_NAMES
        assert snapshot["spans"]["stats.routing"]["count"] == 1
        assert "top_functions" not in snapshot  # not profiled

    def test_detailed_names_hot_frames(self):
        with cProfile.Profile() as profile:
            build_faulty_blocks(Mesh2D(8, 8), {(2, 2)})
        rows = _top_functions(profile)
        assert 0 < len(rows) <= 10, "the profiled run should capture frames"
        assert all("function" in row and "cumtime_s" in row for row in rows)
        # sorted by cumulative time, hottest first
        cum = [row["cumtime_s"] for row in rows]
        assert cum == sorted(cum, reverse=True)

    def test_nested_sections_time_independently(self):
        metrics = MetricsSink()
        tracer = Tracer(metrics)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = metrics.span_durations["outer"], metrics.span_durations["inner"]
        assert outer.count == inner.count == 1
        assert outer.total >= inner.total

    def test_to_table_mentions_everything(self):
        code, table = _stats([])
        assert code == 0
        assert "spans" in table
        assert "stats.routing" in table
        assert "hot counters" in table
        assert "sim.messages" in table


class TestInstallation:
    def test_null_profiler_is_default_and_inert(self):
        assert get_tracer() is NULL_TRACER
        assert NULL_TRACER.enabled is False
        NULL_TRACER.count("router.steps", 100)
        with NULL_TRACER.span("ignored"):
            pass
        assert not NULL_TRACER.hot

    def test_use_profiler_scopes_and_restores(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER

    def test_set_profiler_none_restores_null(self):
        previous = set_tracer(Tracer())
        assert previous is NULL_TRACER
        set_tracer(None)
        assert get_tracer() is NULL_TRACER

    def test_uninstalled_producers_pay_nothing(self, faulty_mesh):
        mesh, faults = faulty_mesh
        build_faulty_blocks(mesh, faults)  # must not raise, nothing recorded
        assert isinstance(get_tracer(), NullTracer)
        assert not NULL_TRACER.hot
