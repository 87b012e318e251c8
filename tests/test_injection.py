"""Unit tests for the fault workload generators."""

import numpy as np
import pytest

from repro.faults import injection
from repro.faults.injection import (
    clustered_faults,
    generate_scenario,
    uniform_faults,
    uniform_faults_batch,
)
from repro.mesh.geometry import Rect, chebyshev_distance
from repro.mesh.topology import Mesh2D


class TestUniformFaults:
    def test_count_and_uniqueness(self, rng):
        mesh = Mesh2D(50, 50)
        faults = uniform_faults(mesh, 100, rng)
        assert len(faults) == 100
        assert len(set(faults)) == 100
        for coord in faults:
            assert mesh.in_bounds(coord)

    def test_forbidden_respected(self, rng):
        mesh = Mesh2D(10, 10)
        forbidden = {(x, y) for x in range(5) for y in range(10)}
        faults = uniform_faults(mesh, 40, rng, forbidden=forbidden)
        assert not set(faults) & forbidden

    def test_can_fill_everything_allowed(self, rng):
        mesh = Mesh2D(4, 4)
        faults = uniform_faults(mesh, 16, rng)
        assert len(faults) == 16

    def test_too_many_raises(self, rng):
        mesh = Mesh2D(4, 4)
        with pytest.raises(ValueError):
            uniform_faults(mesh, 17, rng)
        with pytest.raises(ValueError):
            uniform_faults(mesh, 16, rng, forbidden={(0, 0)})

    def test_reproducible(self):
        mesh = Mesh2D(30, 30)
        a = uniform_faults(mesh, 50, np.random.default_rng(5))
        b = uniform_faults(mesh, 50, np.random.default_rng(5))
        assert a == b

    def test_dense_draw_fills_all_but_one(self, rng):
        """Rejection sampling would thrash here; the dense path must place
        size-1 faults in one without-replacement draw."""
        mesh = Mesh2D(20, 20)
        faults = uniform_faults(mesh, mesh.size - 1, rng)
        assert len(faults) == mesh.size - 1
        assert len(set(faults)) == mesh.size - 1

    def test_dense_draw_respects_forbidden(self, rng):
        mesh = Mesh2D(8, 8)
        forbidden = {(x, 0) for x in range(8)}
        faults = uniform_faults(mesh, 56, rng, forbidden=forbidden)
        assert len(faults) == 56
        assert not set(faults) & forbidden

    def test_dense_draw_exact_fill(self, rng):
        mesh = Mesh2D(12, 12)
        forbidden = {(0, 0), (11, 11)}
        faults = uniform_faults(mesh, mesh.size - 2, rng, forbidden=forbidden)
        assert set(faults) == set(mesh.nodes()) - forbidden

    def test_dense_draw_reproducible(self):
        mesh = Mesh2D(10, 10)
        a = uniform_faults(mesh, 70, np.random.default_rng(9))
        b = uniform_faults(mesh, 70, np.random.default_rng(9))
        assert a == b

    def test_out_of_bounds_forbidden_does_not_shrink_capacity(self, rng):
        mesh = Mesh2D(4, 4)
        faults = uniform_faults(mesh, 16, rng, forbidden={(99, 99)})
        assert len(faults) == 16


@pytest.mark.parametrize(
    "draw",
    [
        lambda mesh, count: uniform_faults(mesh, count, np.random.default_rng(1)),
        lambda mesh, count: uniform_faults_batch(mesh, [count], [1]),
        lambda mesh, count: uniform_faults_batch(mesh, count, [1, 2]),
        lambda mesh, count: clustered_faults(mesh, count, np.random.default_rng(1)),
    ],
    ids=["uniform", "uniform_batch_list", "uniform_batch_shared", "clustered"],
)
@pytest.mark.parametrize("count", [-1, -2])
def test_negative_fault_count_raises(draw, count):
    with pytest.raises(ValueError, match="non-negative"):
        draw(Mesh2D(3, 3), count)


class TestClusteredFaults:
    def test_faults_near_centers(self, rng):
        mesh = Mesh2D(60, 60)
        faults = clustered_faults(mesh, 30, rng, clusters=3, radius=4)
        assert len(faults) == 30
        # All faults are in-bounds and distinct (generator asserts proximity).
        assert len(set(faults)) == 30

    def test_tiny_radius_produces_dense_blocks(self, rng):
        mesh = Mesh2D(60, 60)
        faults = clustered_faults(mesh, 20, rng, clusters=1, radius=3)
        rect = Rect.bounding(faults)
        assert rect.width <= 7 and rect.height <= 7

    def test_impossible_count_raises(self, rng):
        mesh = Mesh2D(60, 60)
        with pytest.raises(RuntimeError):
            clustered_faults(mesh, 200, rng, clusters=1, radius=2)  # 25 cells max

    def test_invalid_clusters(self, rng):
        with pytest.raises(ValueError):
            clustered_faults(Mesh2D(10, 10), 5, rng, clusters=0)


class TestGenerateScenario:
    def test_source_outside_blocks(self, rng):
        mesh = Mesh2D(40, 40)
        for _ in range(10):
            scenario = generate_scenario(mesh, 40, rng)
            assert not scenario.blocks.is_unusable(mesh.center)
            assert mesh.center not in scenario.faults

    def test_explicit_source(self, rng):
        mesh = Mesh2D(40, 40)
        scenario = generate_scenario(mesh, 20, rng, source=(5, 5))
        assert not scenario.blocks.is_unusable((5, 5))

    def test_num_faults(self, rng):
        scenario = generate_scenario(Mesh2D(40, 40), 25, rng)
        assert scenario.num_faults == 25
        assert scenario.blocks.num_faulty == 25

    def test_mcc_cache(self, rng):
        from repro.faults.mcc import MCCType

        scenario = generate_scenario(Mesh2D(30, 30), 15, rng)
        first = scenario.mccs(MCCType.TYPE_ONE)
        assert scenario.mccs(MCCType.TYPE_ONE) is first
        assert scenario.mccs(MCCType.TYPE_TWO) is not first

    def test_pick_destination_outside_blocks(self, rng):
        mesh = Mesh2D(40, 40)
        scenario = generate_scenario(mesh, 60, rng)
        region = Rect(20, 39, 20, 39)
        for _ in range(50):
            dest = scenario.pick_destination(rng, region)
            assert region.contains(dest)
            assert not scenario.blocks.is_unusable(dest)

    def test_pick_destination_excludes(self, rng, monkeypatch):
        monkeypatch.setattr(injection, "MAX_DESTINATION_DRAWS", 50)
        mesh = Mesh2D(10, 10)
        scenario = generate_scenario(mesh, 0, rng)
        region = Rect(0, 0, 0, 0)
        with pytest.raises(RuntimeError):
            scenario.pick_destination(rng, region, exclude={(0, 0)})

    def test_pick_destination_outside_mesh_raises(self, rng):
        scenario = generate_scenario(Mesh2D(10, 10), 0, rng)
        with pytest.raises(ValueError):
            scenario.pick_destination(rng, Rect(20, 30, 20, 30))
