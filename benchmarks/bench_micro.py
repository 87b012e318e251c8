"""Micro-benchmarks of the core building blocks.

Not paper figures -- these time the substrate so regressions in the hot
paths (block formation, ESL computation, the DP oracle, Wu-protocol
routing, the distributed protocols) are visible.
"""

import numpy as np
import pytest

from repro.core.boundaries import BoundaryMap
from repro.core.routing import WuRouter
from repro.core.safety import compute_safety_levels
from repro.faults.blocks import build_faulty_blocks
from repro.faults.coverage import minimal_path_exists
from repro.faults.injection import uniform_faults
from repro.faults.mcc import MCCType, build_mccs
from repro.mesh.topology import Mesh2D
from repro.simulator.protocols import run_block_formation, run_safety_propagation

SIDE = 100
FAULTS = 50


@pytest.fixture(scope="module")
def workload():
    mesh = Mesh2D(SIDE, SIDE)
    rng = np.random.default_rng(7)
    faults = uniform_faults(mesh, FAULTS, rng, forbidden={mesh.center})
    blocks = build_faulty_blocks(mesh, faults)
    levels = compute_safety_levels(mesh, blocks.unusable)
    return mesh, faults, blocks, levels


def test_block_formation_speed(benchmark, workload):
    mesh, faults, _, _ = workload
    result = benchmark(build_faulty_blocks, mesh, faults)
    assert result.num_faulty == FAULTS


def test_mcc_labeling_speed(benchmark, workload):
    mesh, faults, _, _ = workload
    result = benchmark(build_mccs, mesh, faults, MCCType.TYPE_ONE)
    assert result.num_faulty == FAULTS


def test_safety_levels_speed(benchmark, workload):
    mesh, _, blocks, _ = workload
    levels = benchmark(compute_safety_levels, mesh, blocks.unusable)
    assert levels.east.shape == (SIDE, SIDE)


def test_existence_oracle_speed(benchmark, workload):
    mesh, _, blocks, _ = workload
    source = mesh.center
    dest = (SIDE - 2, SIDE - 2)
    benchmark(minimal_path_exists, blocks.unusable, source, dest)


def test_reachability_map_speed(benchmark):
    """One quadrant existence map over a stacked batch at the figures'
    scale: 20 patterns of 200x200 with 200 uniform faults each, formed
    into faulty blocks, source at the centre."""
    from repro.core.batched_patterns import batch_disable_fixpoint, batch_reachability_map
    from repro.faults.injection import uniform_faults_batch

    mesh = Mesh2D(200, 200)
    rngs = [np.random.default_rng(seed) for seed in np.random.SeedSequence(7).spawn(20)]
    faults = uniform_faults_batch(mesh, np.full(20, 200), rngs, forbidden={mesh.center})
    blocked = batch_disable_fixpoint(faults)
    reach = benchmark(batch_reachability_map, blocked, mesh.center)
    assert reach.shape == (20, 100, 100) and reach[:, 0, 0].all()


def test_extension3_kernel_speed(benchmark):
    """Extension 3 over a stacked batch at the figures' scale: 20 patterns
    of 200x200 with 200 uniform faults each, formed into faulty blocks,
    the level-3 centre pivots of quadrant I and 30 block-free quadrant-I
    destinations per pattern.  Each call reads its ESLs through a fresh
    view, so no call reuses another's line scans."""
    from repro.core.batched_patterns import (
        batch_disable_fixpoint,
        batch_pattern_extension3,
        batch_safety_levels,
    )
    from repro.core.pivots import recursive_center_pivots
    from repro.experiments.config import ExperimentConfig
    from repro.faults.injection import uniform_faults_batch

    config = ExperimentConfig()
    mesh, source = config.mesh, config.source
    rngs = [np.random.default_rng(seed) for seed in np.random.SeedSequence(7).spawn(20)]
    faults = uniform_faults_batch(mesh, np.full(20, 200), rngs, forbidden={source})
    blocked = batch_disable_fixpoint(faults)
    pivots = np.array(recursive_center_pivots(config.pivot_region, 3), dtype=np.int64)
    region = config.destination_region
    dests = np.zeros((20, 30, 2), dtype=np.int64)
    for b, rng in enumerate(rngs):
        free = np.argwhere(~blocked[b, region.xmin :, region.ymin :]) + (region.xmin, region.ymin)
        free = free[(free != source).any(axis=1)]
        dests[b] = free[rng.choice(len(free), size=30, replace=False)]

    def run():
        return batch_pattern_extension3(
            blocked, batch_safety_levels(blocked), source, dests, pivots
        )

    mask = benchmark(run)
    assert mask.shape == (20, 30) and mask.any()


def test_wu_routing_speed(benchmark, workload):
    """Route one long quadrant-I path with Wu's protocol (boundary map
    prebuilt, as a deployed system would hold it)."""
    mesh, _, blocks, levels = workload
    from repro.core.conditions import is_safe

    router = WuRouter(mesh, blocks, boundary_map=BoundaryMap.for_blocks(blocks))
    source = mesh.center
    dest = next(
        (SIDE - 1 - i, SIDE - 1 - i)
        for i in range(SIDE // 2)
        if not blocks.unusable[(SIDE - 1 - i, SIDE - 1 - i)]
        and is_safe(levels, source, (SIDE - 1 - i, SIDE - 1 - i))
    )
    router.route(source, dest)  # warm the canonical boundary cache

    path = benchmark(router.route, source, dest)
    assert path.is_minimal


def test_witness_warmup_speed(benchmark):
    """``repro serve``'s read-mostly set-up: a fresh service on the
    64x64 / 40-fault network of perfbench's ``serve_read`` (fault seed
    2002) answers its 250 hot block-model pairs with path witnesses."""
    from repro.serve import RoutingService

    mesh = Mesh2D(64, 64)
    network = np.random.default_rng(2002)
    faults = uniform_faults(mesh, 40, network)
    usable = np.argwhere(~build_faulty_blocks(mesh, faults).unusable)
    rows = network.integers(0, len(usable), size=(250, 2))
    rows[:, 1] = np.where(rows[:, 0] == rows[:, 1], (rows[:, 1] + 1) % len(usable), rows[:, 1])
    pairs = [(tuple(map(int, usable[a])), tuple(map(int, usable[b]))) for a, b in rows]

    def warm():
        service = RoutingService(mesh, faults)
        return sum(
            service.answer(s, d, model="block", want_path=True).path is not None
            for s, d in pairs
        )

    witnesses = benchmark(warm)
    assert witnesses > 200


BATCH = 256


@pytest.fixture(scope="module")
def batched_workload():
    """One stacked fault batch shared by the batched/scalar formation pair,
    so both benches below time the identical patterns."""
    from repro.faults.injection import uniform_faults_batch

    mesh = Mesh2D(SIDE, SIDE)
    seeds = np.random.SeedSequence(7).spawn(BATCH)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    counts = np.full(BATCH, FAULTS)
    grids = uniform_faults_batch(mesh, counts, rngs, forbidden={mesh.center})
    fault_lists = [
        [(int(x), int(y)) for x, y in np.argwhere(grid)] for grid in grids
    ]
    return mesh, grids, fault_lists


def test_block_formation_batched_speed(benchmark, batched_workload):
    from repro.core.batched_patterns import batch_disable_fixpoint

    _, grids, _ = batched_workload
    blocked = benchmark(batch_disable_fixpoint, grids)
    assert blocked.shape == (BATCH, SIDE, SIDE)


def test_block_formation_scalar_loop_speed(benchmark, batched_workload):
    """Per-pattern baseline over the same batch: the ratio against
    ``test_block_formation_batched_speed`` is the lockstep speedup."""
    mesh, _, fault_lists = batched_workload

    def run():
        return [build_faulty_blocks(mesh, faults) for faults in fault_lists]

    results = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(results) == BATCH


def test_block_formation_batched_matches_scalar(batched_workload):
    from repro.core.batched_patterns import batch_disable_fixpoint

    mesh, grids, fault_lists = batched_workload
    blocked = batch_disable_fixpoint(grids)
    for index in (0, BATCH // 2, BATCH - 1):
        expected = build_faulty_blocks(mesh, fault_lists[index]).unusable
        np.testing.assert_array_equal(blocked[index], expected)


def test_distributed_block_formation_speed(benchmark):
    mesh = Mesh2D(40, 40)
    rng = np.random.default_rng(7)
    faults = uniform_faults(mesh, 30, rng)
    result = benchmark.pedantic(
        run_block_formation, args=(mesh, faults), rounds=3, iterations=1
    )
    assert result.unusable.sum() >= 30


def test_distributed_safety_formation_speed(benchmark):
    mesh = Mesh2D(40, 40)
    rng = np.random.default_rng(7)
    blocks = build_faulty_blocks(mesh, uniform_faults(mesh, 30, rng))
    result = benchmark.pedantic(
        run_safety_propagation, args=(mesh, blocks.unusable), rounds=3, iterations=1
    )
    assert result.stats.messages > 0


@pytest.mark.parametrize("side,faults", [(200, 400), (512, 2000)])
def test_snapshot_refresh_speed(benchmark, side, faults):
    """One serve refresh, ``RoutingService._build_snapshot``: copying the
    engine's live blocked and int16 ESL grids (block and MCC models) into
    a new snapshot.  The block set is captured, not built; the first
    path witness on the snapshot builds it."""
    from repro.serve import RoutingService

    mesh = Mesh2D(side, side)
    service = RoutingService(mesh, uniform_faults(mesh, faults, np.random.default_rng(11)))
    snapshot = benchmark(service._build_snapshot)
    assert snapshot.generation == service.generation
    assert "block_set" not in vars(snapshot)
