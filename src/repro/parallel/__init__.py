"""Caching and process-pool sharding.

- :mod:`repro.parallel.cache` -- a keyed, generation-aware LRU artifact
  cache (served path witnesses, simulator routes), with ``cache.hits`` /
  ``cache.misses`` counters wired into the :mod:`repro.obs.prof`
  profiler;
- :mod:`repro.parallel.pool` -- deterministic sharding of the condition
  experiments' ``patterns_per_count`` across a
  :class:`concurrent.futures.ProcessPoolExecutor`, seeded via
  ``np.random.SeedSequence.spawn`` so serial and parallel runs produce
  bit-identical results; each shard is stacked and decided by the
  cross-pattern kernels of :mod:`repro.core.batched_patterns`.
"""

from repro.parallel.cache import (
    ArtifactCache,
    StaleArtifactError,
    get_artifact_cache,
    use_artifact_cache,
)
from repro.parallel.pool import ShardPlan, plan_shards

__all__ = [
    "ArtifactCache",
    "ShardPlan",
    "StaleArtifactError",
    "get_artifact_cache",
    "plan_shards",
    "use_artifact_cache",
]
