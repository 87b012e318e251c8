"""Caching.

- :mod:`repro.parallel.cache` -- a keyed, generation-aware LRU artifact
  cache (served path witnesses, simulator routes, the condition sweeps'
  memoised fault-pattern draws), with ``cache.hits`` / ``cache.misses``
  counters wired into the :mod:`repro.obs.prof` profiler.
"""

from repro.parallel.cache import (
    ArtifactCache,
    StaleArtifactError,
    get_artifact_cache,
    use_artifact_cache,
)

__all__ = [
    "ArtifactCache",
    "StaleArtifactError",
    "get_artifact_cache",
    "use_artifact_cache",
]
