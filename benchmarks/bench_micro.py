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
    from repro.core.array_api import to_numpy
    from repro.core.batched_patterns import batch_disable_fixpoint

    mesh, grids, fault_lists = batched_workload
    blocked = to_numpy(batch_disable_fixpoint(grids))
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
