"""Tests for ``repro.parallel``: the artifact cache, and the condition
experiments' metric-list checks."""

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import BLOCK_MODEL, ConditionExperiment, MetricSpec
from repro.obs import Tracer, use_tracer
from repro.parallel.cache import (
    ArtifactCache,
    StaleArtifactError,
    get_artifact_cache,
    use_artifact_cache,
)


def _tiny_config(seed=11):
    return ExperimentConfig.scaled(
        side=32, patterns_per_count=3, destinations_per_pattern=5, seed=seed
    )


class TestArtifactCache:
    def test_hit_miss_accounting_and_lru_eviction(self):
        cache = ArtifactCache(maxsize=2)
        assert cache.get_or_build("a", lambda: 1) == 1
        assert cache.get_or_build("a", lambda: 2) == 1  # hit: build not called
        assert cache.get_or_build("b", lambda: 2) == 2
        assert cache.get_or_build("c", lambda: 3) == 3  # evicts "a" (LRU)
        assert "a" not in cache and "b" in cache and "c" in cache
        assert cache.get_or_build("a", lambda: 9) == 9
        assert cache.stats() == {
            "entries": 2,
            "maxsize": 2,
            "hits": 1,
            "misses": 4,
            "stale": 0,
            "revalidated": 0,
        }

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError, match="maxsize"):
            ArtifactCache(maxsize=0)

    def test_use_artifact_cache_scopes_the_installation(self):
        outer = get_artifact_cache()
        replacement = ArtifactCache()
        with use_artifact_cache(replacement) as installed:
            assert installed is replacement
            assert get_artifact_cache() is replacement
        assert get_artifact_cache() is outer

    def test_profiler_counters_track_hits_and_misses(self):
        cache = ArtifactCache()
        tracer = Tracer()
        with use_tracer(tracer):
            cache.get_or_build("k", lambda: 1)
            cache.get_or_build("k", lambda: 1)
            cache.get_or_build("j", lambda: 2)
        assert tracer.hot["cache.misses"] == 2
        assert tracer.hot["cache.hits"] == 1

    def test_generation_tagged_entries_go_stale(self):
        cache = ArtifactCache()
        assert cache.get_or_build("k", lambda: 1, generation=1) == 1
        assert cache.get_or_build("k", lambda: 2, generation=1) == 1  # hit
        assert cache._tags.get("k") == 1
        # A newer generation without a revalidator rebuilds the entry.
        assert cache.get_or_build("k", lambda: 2, generation=2) == 2
        assert cache._tags.get("k") == 2
        assert cache.stats()["stale"] == 1
        assert cache.stats()["hits"] == 1

    def test_revalidate_retags_surviving_entries(self):
        cache = ArtifactCache()
        seen: list = []

        def revalidate(value, tag):
            seen.append((value, tag))
            return True

        cache.get_or_build("k", lambda: 1, generation=1)
        got = cache.get_or_build(
            "k", lambda: 2, generation=5, revalidate=revalidate
        )
        assert got == 1  # survived: old value kept
        assert seen == [(1, 1)]
        assert cache._tags.get("k") == 5
        assert cache.stats()["revalidated"] == 1
        # Once retagged, the same generation is a plain hit (no recheck).
        cache.get_or_build("k", lambda: 2, generation=5, revalidate=revalidate)
        assert seen == [(1, 1)]

    def test_revalidate_rejection_rebuilds(self):
        cache = ArtifactCache()
        cache.get_or_build("k", lambda: 1, generation=1)
        got = cache.get_or_build(
            "k", lambda: 2, generation=2, revalidate=lambda v, t: False
        )
        assert got == 2
        assert cache.stats() == {
            "entries": 1,
            "maxsize": cache.maxsize,
            "hits": 0,
            "misses": 2,
            "stale": 1,
            "revalidated": 0,
        }

    def test_untagged_callers_keep_legacy_behaviour(self):
        cache = ArtifactCache()
        cache.get_or_build("k", lambda: 1)
        assert cache.get_or_build("k", lambda: 2) == 1
        assert cache._tags.get("k") is None
        # An untagged lookup of a tagged entry is also a plain hit.
        cache.get_or_build("g", lambda: 3, generation=7)
        assert cache.get_or_build("g", lambda: 4) == 3

    def test_staleness_profiler_counters(self):
        cache = ArtifactCache()
        tracer = Tracer()
        with use_tracer(tracer):
            cache.get_or_build("k", lambda: 1, generation=1)
            cache.get_or_build("k", lambda: 2, generation=2)
            cache.get_or_build(
                "k", lambda: 3, generation=3, revalidate=lambda v, t: True
            )
        assert tracer.hot["cache.stale"] == 1
        assert tracer.hot["cache.revalidated"] == 1


class TestStalenessBudget:
    def test_within_budget_still_revalidates(self):
        cache = ArtifactCache()
        cache.get_or_build("k", lambda: 1, generation=1)
        got = cache.get_or_build(
            "k", lambda: 2, generation=3, revalidate=lambda v, t: True,
        )
        assert got == 1
        assert cache.stats()["revalidated"] == 1

    def test_over_budget_raises_typed_error(self):
        error = StaleArtifactError("k", 1, 5)
        assert error.key == "k"
        assert error.tag == 1
        assert error.generation == 5
        assert error.age == 4
        assert "4 generation(s) old" in str(error)

    def test_untagged_entry_over_any_budget(self):
        error = StaleArtifactError("k", None, 1)
        assert error.tag is None
        assert error.age is None
        assert "untagged" in str(error)

    def test_current_generation_ignores_budget(self):
        cache = ArtifactCache()
        cache.get_or_build("k", lambda: 1, generation=4)
        got = cache.get_or_build("k", lambda: 2, generation=4)
        assert got == 1  # fresh: plain hit

    def test_default_budget_is_unlimited(self):
        cache = ArtifactCache()
        cache.get_or_build("k", lambda: 1, generation=1)
        got = cache.get_or_build(
            "k", lambda: 2, generation=100, revalidate=lambda v, t: True,
        )
        assert got == 1

    def test_stale_error_is_a_lookup_error(self):
        assert issubclass(StaleArtifactError, LookupError)


class TestBatchedMetricsInTheRunner:
    def test_duplicate_metric_names_rejected(self):
        config = _tiny_config()
        metric = MetricSpec(
            "m", lambda pctx: np.ones(pctx.dests.shape[:2], dtype=bool), BLOCK_MODEL
        )
        with pytest.raises(ValueError, match="duplicate"):
            ConditionExperiment(config, [metric, metric])
