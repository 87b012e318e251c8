"""Unit tests for the fault workload generators."""

import hashlib

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import MCC_MODEL, ConditionExperiment, MetricSpec
from repro.faults import injection
from repro.faults.blocks import build_faulty_blocks
from repro.faults.injection import (
    FaultScenario,
    block_free_fault_stack,
    clustered_faults,
    generate_scenario,
    uniform_faults,
    uniform_faults_batch,
)
from repro.mesh.geometry import Rect, chebyshev_distance
from repro.mesh.topology import Mesh2D
from repro.parallel.cache import ArtifactCache, use_artifact_cache
from tests.test_figure_goldens import ShiftedRegionConfig


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


def _digest(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(f"{part.dtype}{part.shape}".encode())
            part = part.tobytes()
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
    return digest.hexdigest()


def _next_draw(rng: np.random.Generator) -> int:
    """The generator's next value: equal ones after equal outputs pin how
    far a draw advanced it."""
    return int(rng.integers(1 << 62))


class TestFrozenDraws:
    """sha256 digests of the fault, scenario and destination draws, each
    followed by its generator's next value.  The paper's Sec. 5 protocol
    draws from one seeded stream per pattern, so any change to a draw's
    values or to how far it advances its generator shifts every figure
    after it; these pin both."""

    def test_uniform_faults_sparse(self):
        mesh = Mesh2D(40, 40)
        forbidden = {mesh.center, (0, 0), (39, 39), (99, 99)}
        parts = []
        for seed in range(12):
            rng = np.random.default_rng(seed)
            for count in (0, 1, 37, 400, 797):
                parts.append(uniform_faults(mesh, count, rng, forbidden))
            parts.append(_next_draw(rng))
        assert _digest(*parts) == (
            "c37a00101f2ea592ec303608b2165d7156ffaa8860a06d368f41536d7722ade4"
        )

    def test_uniform_faults_dense(self):
        mesh = Mesh2D(12, 12)
        forbidden = {(x, 0) for x in range(12)} | {(6, 6)}
        parts = []
        for seed in range(12):
            rng = np.random.default_rng(seed)
            for count in (66, 100, 131):
                parts.append(uniform_faults(mesh, count, rng, forbidden))
            parts.append(uniform_faults(mesh, 144, rng))
            parts.append(_next_draw(rng))
        assert _digest(*parts) == (
            "282d49ff4d911c57464dfabd6a88303f4793393be7769110d1684f032c12a012"
        )

    @staticmethod
    def _scenario_parts(scenario, rng):
        blocks = scenario.blocks
        return [scenario.faults, blocks.rects(), blocks.unusable, blocks.block_id, _next_draw(rng)]

    @pytest.mark.parametrize("workload, expected", [
        ("uniform", "d6cfa0e7203bc7102cc87eb165522702923d3cf82de2e8ab05fb3ec67f13cb95"),
        ("clustered", "3896b8d7ce62ec70a7ffbfebabda780f3eaeccdcacff035b0248ba08efbbdb9f"),
    ])
    def test_generate_scenario(self, workload, expected):
        """One scenario per draw, as ``generate_scenario`` (the uniform
        workload) or the figure sweeps (either workload) draw it."""
        mesh = Mesh2D(30, 30)
        parts = []
        for seed in range(8):
            rng = np.random.default_rng(seed)
            for count, source in ((0, mesh.center), (40, mesh.center), (90, (3, 25))):
                if workload == "uniform":
                    scenario = generate_scenario(mesh, count, rng, source=source)
                else:
                    faults, _ = block_free_fault_stack(mesh, count, [rng], source, workload)
                    cells = [(int(x), int(y)) for x, y in np.argwhere(faults[0])]
                    scenario = FaultScenario(mesh, cells, build_faulty_blocks(mesh, cells))
                parts += self._scenario_parts(scenario, rng)
        assert _digest(*parts) == expected

    def test_generate_scenario_with_resamples(self):
        """At 12x12 with 30 faults some first draws swallow the centre
        source; the scenario is then a later draw of the same stream."""
        mesh = Mesh2D(12, 12)
        source = mesh.center
        parts, resampled = [], 0
        for seed in range(20):
            first = uniform_faults(mesh, 30, np.random.default_rng(seed), {source})
            rng = np.random.default_rng(seed)
            scenario = generate_scenario(mesh, 30, rng)
            if build_faulty_blocks(mesh, first).is_unusable(source):
                resampled += 1
                assert scenario.faults != first
            parts += self._scenario_parts(scenario, rng)
        assert resampled >= 1
        assert _digest(*parts) == (
            "770daf76dab896489e2513d0df64544a505fa165956f7b221b73705cc2fd8596"
        )

    def test_pick_destination(self):
        mesh = Mesh2D(30, 30)
        rng = np.random.default_rng(77)
        scenario = generate_scenario(mesh, 120, rng)
        picks = [scenario.pick_destination(rng, Rect(15, 29, 15, 29)) for _ in range(60)]
        picks += [
            scenario.pick_destination(rng, Rect(-5, 8, 20, 40), exclude={(0, 20), (1, 21)})
            for _ in range(60)
        ]
        assert _digest(picks, _next_draw(rng)) == (
            "a3c9e08b3a6e73ffebd52d6c555ca8eff4b7dc1d709e15fbc3a25fe9150d0fbc"
        )

    @pytest.mark.parametrize("config_class, workload, counts, expected", [
        (
            ExperimentConfig, "uniform", (0, 30, 70),
            "9597ca76ec98ee0ae3246d0df8a7f753ebc792c7c627ce49d65db4d16295d134",
        ),
        (
            ShiftedRegionConfig, "uniform", (0, 30, 70),
            "30753e819837de8b18efcf3542f06dcb922334bcc3476132ce70daab3d092178",
        ),
        (
            ExperimentConfig, "clustered", (0, 30, 70),
            "27a1215f238a5bf6e718b920b2d785ccba73ee2c15cf0fa0be89f570d2d85160",
        ),
        (
            ExperimentConfig, "uniform", (130,),
            "73fb03705565257ecdcae51e712b0078c0824bf3d0803e8fb6f08e6ca27ca580",
        ),
    ], ids=["square", "non_square", "clustered", "resampled"])
    def test_runner_shard_draws(self, config_class, workload, counts, expected):
        """The figure sweeps' drawn inputs -- grids, strategy pivots and
        destinations of both fault models -- for a square destination
        region, whose attempts are drawn in chunks, and a non-square one,
        drawn one attempt at a time.  At 130 faults the six patterns'
        sources were swallowed 403 times in all, so each pattern is redrawn
        from its own generator alone."""
        config = config_class(
            mesh_side=24, fault_counts=counts, patterns_per_count=6,
            destinations_per_pattern=9, seed=31, workload=workload,
        )
        seen = []

        def record(pctx):
            seen.append((pctx.blocked, pctx.strategy_pivots, pctx.strategy_valid, pctx.dests))
            return np.ones(pctx.dests.shape[:2], dtype=bool)

        metrics = [MetricSpec("b", record), MetricSpec("a", record, MCC_MODEL)]
        with use_artifact_cache(ArtifactCache()):
            ConditionExperiment(config, metrics).run("f", "t")
        assert len(seen) == 2 * len(config.fault_counts)
        assert _digest(*(array for arrays in seen for array in arrays)) == expected
