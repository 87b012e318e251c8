"""Unit and smoke tests for the experiment harness (Figures 7-12)."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import (
    ExperimentConfig,
    fig7_affected_rows,
    fig8_disabled_nodes,
    fig9_extension1,
    fig10_extension2,
    fig11_extension3,
    fig12_strategies,
)
from repro.experiments import figures, runner
from repro.experiments.figures import fig9_block_metrics, fig9_metrics
from repro.experiments.runner import BLOCK_MODEL, MCC_MODEL, ConditionExperiment, MetricSpec
from repro.mesh.geometry import Rect
from repro.parallel.cache import ArtifactCache, use_artifact_cache
from tests.test_figure_goldens import ShiftedRegionConfig

TINY = ExperimentConfig.scaled(side=32, patterns_per_count=2, destinations_per_pattern=5)


class TestConfig:
    def test_paper_scale(self):
        config = ExperimentConfig.paper()
        assert config.mesh_side == 200
        assert config.source == (100, 100)
        assert max(config.fault_counts) == 200
        assert config.destination_region == Rect(100, 199, 100, 199)

    def test_scaled_preserves_density(self):
        config = ExperimentConfig.scaled(side=100, patterns_per_count=2, destinations_per_pattern=2)
        # 200 faults at 200^2 nodes -> 50 at 100^2.
        assert max(config.fault_counts) == 50

    def test_from_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert ExperimentConfig.from_environment().mesh_side == 60
        monkeypatch.setenv("REPRO_FULL", "1")
        assert ExperimentConfig.from_environment().mesh_side == 200

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mesh_side=4)
        with pytest.raises(ValueError):
            ExperimentConfig(mesh_side=20, fault_counts=(200,))
        with pytest.raises(ValueError):
            ExperimentConfig(fault_counts=())

    @pytest.mark.parametrize(
        "field, value",
        [
            ("patterns_per_count", 0),
            ("patterns_per_count", -1),
            ("destinations_per_pattern", 0),
            ("fault_counts", (-3,)),
            ("fault_counts", (5, -1)),
        ],
    )
    def test_rejects_empty_or_negative_sizes(self, field, value):
        with pytest.raises(ValueError, match=field):
            replace(TINY, **{field: value})

    def test_describe_mentions_scale(self):
        assert "200x200" in ExperimentConfig.paper().describe()


def _constant(value):
    """A ``pattern_fn`` answering ``value`` for every (pattern, destination)."""
    return lambda pctx: np.full(pctx.dests.shape[:2], value)


class TestRunner:
    def test_duplicate_metric_names_rejected(self):
        metric = MetricSpec("m", _constant(True))
        with pytest.raises(ValueError):
            ConditionExperiment(TINY, [metric, MetricSpec("m", _constant(False))])

    def test_empty_metrics_rejected(self):
        with pytest.raises(ValueError):
            ConditionExperiment(TINY, [])

    def test_invalid_model_rejected(self):
        with pytest.raises(ValueError):
            MetricSpec("m", _constant(True), model="torus")

    def test_constant_metrics(self):
        always = MetricSpec("always", _constant(True))
        never = MetricSpec("never", _constant(False), model=BLOCK_MODEL)
        series = ConditionExperiment(TINY, [always, never]).run("figX", "constant")
        assert all(v == 1.0 for v in series.column("always"))
        assert all(v == 0.0 for v in series.column("never"))
        assert len(series.xs) == len(TINY.fault_counts)

    def test_deterministic_given_seed(self):
        def odd_block_count(pctx):
            odd = pctx.blocked.sum(axis=(1, 2)) % 2 == 1
            return np.broadcast_to(odd[:, None], pctx.dests.shape[:2])

        metric = MetricSpec("safe", odd_block_count)
        a = ConditionExperiment(TINY, [metric]).run("figX", "t")
        b = ConditionExperiment(TINY, [metric]).run("figX", "t")
        assert a.column("safe") == b.column("safe")

    def test_progress_callback(self):
        seen = []
        metric = MetricSpec("m", _constant(True))
        ConditionExperiment(TINY, [metric]).run("figX", "t", progress=seen.append)
        assert len(seen) == len(TINY.fault_counts)

    def test_destinations_in_region_and_free(self):
        observed = []

        def recorder(pctx):
            observed.append(pctx)
            return np.ones(pctx.dests.shape[:2], dtype=bool)

        metrics = [MetricSpec("rec", recorder), MetricSpec("reca", recorder, MCC_MODEL)]
        ConditionExperiment(TINY, metrics).run("figX", "t")
        region = TINY.destination_region
        assert {pctx.blocked.shape[0] for pctx in observed} == {TINY.patterns_per_count}
        for pctx in observed:
            for b, row in enumerate(pctx.dests):
                for x, y in row.tolist():
                    assert region.contains((x, y))
                    assert not pctx.blocked[b, x, y]
                    assert (x, y) != pctx.source

    def test_mcc_grid_is_inside_the_block_grid(self):
        """Both models see the same patterns: every type-one MCC node lies
        in a faulty block, and the destinations are shared."""
        seen = {}

        def recorder(model):
            def record(pctx):
                seen[model] = pctx
                return np.ones(pctx.dests.shape[:2], dtype=bool)

            return record

        metrics = [
            MetricSpec("b", recorder(BLOCK_MODEL)),
            MetricSpec("a", recorder(MCC_MODEL), MCC_MODEL),
        ]
        single = replace(TINY, fault_counts=(max(TINY.fault_counts),))
        ConditionExperiment(single, metrics).run("figX", "t")
        block, mcc = seen[BLOCK_MODEL], seen[MCC_MODEL]
        assert not (mcc.blocked & ~block.blocked).any()
        assert np.array_equal(block.dests, mcc.dests)


def _spy(monkeypatch, module, name):
    """Wrap ``module.name`` so its calls are counted; returns the tally."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


class _Everywhere:
    """A metric that succeeds on every trial and records each call."""

    def __init__(self):
        self.calls = []

    def __call__(self, pctx):
        self.calls.append(pctx)
        return np.ones(pctx.dests.shape[:2], dtype=bool)


class TestShardMemo:
    """Each shard is drawn, labelled and counted once per artifact cache."""

    @pytest.fixture(autouse=True)
    def cache(self):
        with use_artifact_cache(ArtifactCache()) as cache:
            yield cache

    def test_fig10_after_fig9_reuses_draws_and_existence(self, monkeypatch):
        labels = _spy(monkeypatch, runner, "batch_label_closure")
        draws = _spy(monkeypatch, runner, "block_free_fault_stack")
        oracle = _spy(monkeypatch, figures, "batch_pattern_path_exists")
        fig9_extension1(TINY)
        fig10_extension2(TINY)
        shards = len(TINY.fault_counts)
        assert len(labels) == 2 * shards  # once per shard and label
        assert len(draws) == shards
        assert len(oracle) == 2 * shards  # once per shard and fault model

    def test_fig12_runs_each_extension_once_per_shard_and_model(self, monkeypatch):
        ext1 = _spy(monkeypatch, figures, "batch_pattern_extension1")
        ext2 = _spy(monkeypatch, figures, "batch_pattern_extension2")
        ext3 = _spy(monkeypatch, figures, "batch_pattern_extension3")
        fig12_strategies(TINY)
        per_run = 2 * len(TINY.fault_counts)  # once per shard and fault model
        assert (len(ext1), len(ext2), len(ext3)) == (per_run, per_run, per_run)

    def test_fig12_after_fig9_and_fig10_reuses_their_extension_masks(self, monkeypatch):
        fig9_extension1(TINY)
        fig10_extension2(TINY)
        ext1 = _spy(monkeypatch, figures, "batch_pattern_extension1")
        ext2 = _spy(monkeypatch, figures, "batch_pattern_extension2")
        ext3 = _spy(monkeypatch, figures, "batch_pattern_extension3")
        fig12_strategies(TINY)
        per_run = 2 * len(TINY.fault_counts)  # once per shard and fault model
        assert (len(ext1), len(ext2), len(ext3)) == (0, 0, per_run)

    def test_subclassed_region_misses_a_plain_entry(self, cache):
        fig9_extension1(TINY)
        fields = {name: getattr(TINY, name) for name in TINY.__dataclass_fields__}
        fig9_extension1(ShiftedRegionConfig(**fields))
        assert (cache.hits, cache.misses) == (0, 2 * len(TINY.fault_counts))

    def test_block_only_draw_is_not_served_by_a_two_model_draw(self):
        both = ConditionExperiment(TINY, fig9_metrics(TINY)).run("f", "t")
        warm = ConditionExperiment(TINY, fig9_block_metrics(TINY)).run("f", "t")
        with use_artifact_cache(ArtifactCache()):
            cold = ConditionExperiment(TINY, fig9_block_metrics(TINY)).run("f", "t")
        assert warm.series == cold.series
        # MCC pivots shift the destinations, so the draws really differ.
        assert any(cold.column(name) != both.column(name) for name in cold.series)

    def test_second_run_reuses_stored_counts(self):
        everywhere = _Everywhere()  # reusable, so its counts are stored
        metrics = [MetricSpec("m", everywhere), MetricSpec("ma", everywhere, MCC_MODEL)]
        experiment = ConditionExperiment(TINY, metrics)
        first = experiment.run("f", "t")
        assert len(everywhere.calls) == 2 * len(TINY.fault_counts)  # per shard and model
        assert experiment.run("f", "t").series == first.series
        assert len(everywhere.calls) == 2 * len(TINY.fault_counts)

    def test_closure_counts_are_not_kept(self):
        calls = []

        def closure(pctx):
            calls.append(pctx)
            return np.ones(pctx.dests.shape[:2], dtype=bool)

        experiment = ConditionExperiment(TINY, [MetricSpec("m", closure)])
        experiment.run("f", "t")
        experiment.run("f", "t")
        assert len(calls) == 2 * len(TINY.fault_counts)

    def test_memoised_destinations_are_read_only(self):
        seen = []

        def record(pctx):
            seen.append(pctx.dests)
            return np.ones(pctx.dests.shape[:2], dtype=bool)

        ConditionExperiment(TINY, [MetricSpec("m", record)]).run("f", "t")
        with pytest.raises(ValueError):
            seen[0][0, 0, 0] = 0

    def test_memoised_masks_and_pivots_are_read_only(self):
        fig9_extension1(TINY)
        fig11_extension3(TINY)
        seen = []

        def unbuilt():
            raise AssertionError("an earlier figure memoised this")

        def record(pctx):
            seen.append(pctx.memo("ext1_min", unbuilt))
            seen.append(pctx.pivot_array(TINY.pivot_levels[-1]))
            return np.ones(pctx.dests.shape[:2], dtype=bool)

        metrics = [MetricSpec("m", record), MetricSpec("ma", record, MCC_MODEL)]
        ConditionExperiment(TINY, metrics).run("f", "t")
        assert len(seen) == 4 * len(TINY.fault_counts)  # two per shard and model
        for array in seen:
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0


class TestFigureSmoke:
    """Each figure runs at tiny scale and yields well-formed series."""

    def test_fig7(self):
        series = fig7_affected_rows(TINY)
        assert set(series.series) == {"analytical", "experimental"}
        assert len(series.xs) == len(TINY.fault_counts)

    def test_fig8(self):
        series = fig8_disabled_nodes(TINY)
        assert set(series.series) == {"wu_model", "mcc"}
        for w, m in zip(series.column("wu_model"), series.column("mcc")):
            assert m <= w + 1e-9

    #: Figure 8 on a uniform 32x32 config, recorded before the figure drew
    #: through ``block_free_fault_stack``: sha256 of the xs and of every
    #: (value, half-width, samples) point.
    FIG8_UNIFORM = "fbd57af566c9fd41"
    FIG8_CONFIG = ExperimentConfig(
        mesh_side=32, fault_counts=(20, 60, 120), patterns_per_count=4,
        destinations_per_pattern=1,
    )

    @staticmethod
    def _fig8_digest(series) -> str:
        rows = {
            name: [(e.value, e.half_width, e.samples) for e in points]
            for name, points in series.series.items()
        }
        return hashlib.sha256(repr((series.xs, rows)).encode()).hexdigest()[:16]

    def test_fig8_uniform_series_pinned(self):
        assert self._fig8_digest(fig8_disabled_nodes(self.FIG8_CONFIG)) == self.FIG8_UNIFORM

    def test_fig8_follows_the_workload(self):
        clustered = fig8_disabled_nodes(replace(self.FIG8_CONFIG, workload="clustered"))
        assert self._fig8_digest(clustered) != self.FIG8_UNIFORM
        uniform = fig8_disabled_nodes(self.FIG8_CONFIG)
        # Clustered damage disables far more nodes per block at the top count.
        assert clustered.column("wu_model")[-1] > uniform.column("wu_model")[-1]

    def test_fig9(self):
        series = fig9_extension1(TINY)
        assert {"safe_source", "ext1_min", "existence", "safe_sourcea"} <= set(series.series)
        for s, e in zip(series.column("safe_source"), series.column("ext1_min")):
            assert e >= s

    def test_fig10(self):
        series = fig10_extension2(TINY)
        assert {"ext2_1", "ext2_5", "ext2_10", "ext2_max"} <= set(series.series)
        for fine, coarse in zip(series.column("ext2_1"), series.column("ext2_max")):
            assert fine >= coarse

    def test_fig11(self):
        series = fig11_extension3(TINY)
        for l2, l3 in zip(series.column("ext3_level2"), series.column("ext3_level3")):
            assert l3 >= l2

    def test_fig12(self):
        series = fig12_strategies(TINY)
        assert {"strategy1", "strategy4", "strategy4a"} <= set(series.series)
        for s1, s4 in zip(series.column("strategy1"), series.column("strategy4")):
            assert s4 >= s1 - 1e-9
