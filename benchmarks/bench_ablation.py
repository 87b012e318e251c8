"""Ablation benches for the design choices DESIGN.md calls out.

1. **Segment representative tie-break** (Extension 2): the paper-faithful
   "far" tie-break versus our "near" improvement.  At low fault density most
   safety levels tie at unbounded, so the choice decides whether the
   "(max)" variation's representative is usable -- "near" should close most
   of the gap between "(max)" and full information.

2. **Information cost versus effectiveness** (the paper's stated future
   work): messages spent by each information model (boundary lines, ESL
   formation, region exchange, pivot broadcast) against the percentage of
   minimal paths the corresponding condition ensures.
"""

import numpy as np
import pytest

from repro.core.conditions import DecisionKind, is_safe
from repro.core.extensions import (
    extension2_decision,
    extension2_decision_from_segments,
    extension3_decision,
)
from repro.core.pivots import recursive_center_pivots
from repro.core.safety import compute_safety_levels
from repro.core.segments import build_axis_segments
from repro.experiments import ExperimentConfig
from repro.faults.injection import generate_scenario
from repro.mesh.frames import Frame
from repro.mesh.geometry import Direction
from repro.mesh.topology import Mesh2D
from repro.simulator.protocols import (
    run_boundary_distribution,
    run_pivot_broadcast,
    run_region_exchange,
    run_safety_propagation,
)

from conftest import OUT_DIR


def _condition_rates(config, tie_break):
    """Fraction of destinations each Extension-2 variation ensures.

    The tie-break is a knob of the scalar reference only, so the decision
    runs on ``build_axis_segments`` + ``extension2_decision_from_segments``.
    """
    rng = np.random.default_rng(config.seed)
    rates = {size: 0 for size in config.segment_sizes}
    trials = 0
    for fault_count in config.fault_counts[len(config.fault_counts) // 2 :]:
        for _ in range(config.patterns_per_count):
            scenario = generate_scenario(config.mesh, fault_count, rng, source=config.source)
            levels = compute_safety_levels(config.mesh, scenario.blocks.unusable)
            for _ in range(config.destinations_per_pattern):
                dest = scenario.pick_destination(
                    rng, config.destination_region, exclude={config.source}
                )
                trials += 1
                frame = Frame.for_pair(config.source, dest)
                for size in config.segment_sizes:
                    east, north = (
                        build_axis_segments(config.mesh, levels, frame, axis, size, tie_break)
                        for axis in (Direction.EAST, Direction.NORTH)
                    )
                    decision = extension2_decision_from_segments(
                        levels, config.source, dest, east, north
                    )
                    if decision.kind is not DecisionKind.UNSAFE:
                        rates[size] += 1
    return {size: count / trials for size, count in rates.items()}


def test_ablation_segment_tie_break(benchmark, capsys):
    """'near' representatives recover most of the loss of coarse segments."""
    config = ExperimentConfig.from_environment()
    far = benchmark.pedantic(_condition_rates, args=(config, "far"), rounds=1, iterations=1)
    near = _condition_rates(config, "near")

    lines = ["segment-size  far(paper)  near(ours)"]
    for size in config.segment_sizes:
        label = "max" if size is None else str(size)
        lines.append(f"{label:>12}  {far[size]:10.4f}  {near[size]:10.4f}")
    report = "\n".join(lines)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "ablation_tie_break.txt").write_text(report + "\n")
    with capsys.disabled():
        print("\n" + report)

    # 'near' never hurts, and helps exactly where sampling is coarse.
    for size in config.segment_sizes:
        assert near[size] >= far[size] - 1e-9
    assert near[None] >= far[None]
    benchmark.extra_info["near_max_rate"] = near[None]
    benchmark.extra_info["far_max_rate"] = far[None]


def test_ablation_information_cost(benchmark, capsys):
    """Messages spent per information model vs the coverage it buys."""
    side = 60 if ExperimentConfig.from_environment().mesh_side < 200 else 200
    mesh = Mesh2D(side, side)
    rng = np.random.default_rng(11)
    fault_count = max(4, round(200 * (side / 200) ** 2))
    scenario = generate_scenario(mesh, fault_count, rng, source=mesh.center)
    blocks = scenario.blocks
    levels = compute_safety_levels(mesh, blocks.unusable)
    pivots = recursive_center_pivots(
        ExperimentConfig.scaled(side, 1, 1).pivot_region, 3
    )

    def run_all():
        esl = run_safety_propagation(mesh, blocks.unusable)
        boundary = run_boundary_distribution(mesh, blocks.rects(), blocks.unusable)
        region = run_region_exchange(mesh, blocks.unusable, levels)
        pivot = run_pivot_broadcast(mesh, blocks.unusable, levels, pivots)
        return esl, boundary, region, pivot

    esl, boundary, region, pivot = benchmark.pedantic(run_all, rounds=1, iterations=1)

    # Effectiveness: sample destinations, measure what each condition ensures.
    source = mesh.center
    hits = {"safe_source": 0, "ext2_full": 0, "ext3_level3": 0}
    trials = 200
    region_rect = ExperimentConfig.scaled(side, 1, 1).destination_region
    for _ in range(trials):
        dest = scenario.pick_destination(rng, region_rect, exclude={source})
        if is_safe(levels, source, dest):
            hits["safe_source"] += 1
        decision = extension2_decision(mesh, levels, source, dest, 1)
        if decision.kind is not DecisionKind.UNSAFE:
            hits["ext2_full"] += 1
        decision = extension3_decision(mesh, levels, blocks.unusable, source, dest, pivots)
        if decision.kind is not DecisionKind.UNSAFE:
            hits["ext3_level3"] += 1

    rows = [
        ("esl-formation (Def.3 / safe source)", esl.stats.messages, hits["safe_source"] / trials),
        ("esl + region exchange (Extension 2)", esl.stats.messages + region.stats.messages, hits["ext2_full"] / trials),
        ("esl + pivot broadcast (Extension 3)", esl.stats.messages + pivot.stats.messages, hits["ext3_level3"] / trials),
        ("boundary lines (routing support)", boundary.stats.messages, float("nan")),
    ]
    lines = [f"{'information model':<38} {'messages':>10} {'ensured':>9}"]
    for name, messages, rate in rows:
        lines.append(f"{name:<38} {messages:>10} {rate:>9.3f}")
    report = "\n".join(lines)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "ablation_info_cost.txt").write_text(report + "\n")
    with capsys.disabled():
        print("\n" + report)

    # Costlier information models ensure at least as many minimal paths.
    assert hits["ext2_full"] >= hits["safe_source"]
    assert hits["ext3_level3"] >= hits["safe_source"]
    # Pivot broadcast floods the whole mesh: costlier than the region sweep.
    assert pivot.stats.messages > region.stats.messages
