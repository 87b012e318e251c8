"""Keyed artifact cache (``repro.parallel.cache``).

:class:`ArtifactCache` is a small LRU keyed by whatever the caller hashes
its artifact with, with optional generation tags for artifacts derived
from a changing fault set.  The served path witnesses
(:class:`repro.serve.service.RoutingService`) and the simulator's route
cache (:class:`repro.simulator.traffic.PathPolicy`) are built on it.
Hits and misses are tallied on the cache *and* counted as ``cache.hits``
/ ``cache.misses`` hot counters on the installed tracer
(:meth:`repro.obs.Tracer.count`), so ``repro stats`` surfaces the reuse
rate.

A process-wide default cache lives in a module-level slot
(:func:`get_artifact_cache`); swap it with :func:`use_artifact_cache`
for isolation in tests.  The condition sweeps memoise each shard's drawn
fault patterns and curve counts in it (:mod:`repro.experiments.runner`).
"""

from __future__ import annotations

import collections
import contextlib
from typing import Any, Callable, Hashable, Iterator

from repro.obs import get_tracer

#: Default entry bound.  Entries may hold whole grids, so the bound is on
#: entries, not bytes, which keeps worst-case memory modest: a sweep's
#: shard draw is about 0.2 MB (20 bit-packed patterns on 200x200).
DEFAULT_MAXSIZE = 128


class StaleArtifactError(LookupError):
    """An artifact is older than the caller's staleness budget.

    The cache itself never raises it: the routing service raises it when
    its published snapshot lags the fault engine by more than the
    query's budget, and the query pipeline catches it to retry or serve
    the stale answer (:mod:`repro.serve`).
    """

    def __init__(self, key: Hashable, tag: int | None, generation: int):
        self.key = key
        self.tag = tag
        self.generation = generation
        age = "untagged" if tag is None else f"{generation - tag} generation(s) old"
        super().__init__(f"artifact {key!r} is stale: {age} at generation {generation}")

    @property
    def age(self) -> int | None:
        """Generations between the entry's tag and now (None: untagged)."""
        return None if self.tag is None else self.generation - self.tag


class ArtifactCache:
    """A bounded LRU mapping pattern keys to derived-artifact bundles."""

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        if maxsize < 1:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self.revalidated = 0
        self._entries: collections.OrderedDict[Hashable, Any] = collections.OrderedDict()
        # Generation tag per key (see get_or_build); absent/None means the
        # entry predates generation tracking and never goes stale.
        self._tags: dict[Hashable, int | None] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get_or_build(
        self,
        key: Hashable,
        build: Callable[[], Any],
        *,
        generation: int | None = None,
        revalidate: Callable[[Any, int | None], bool] | None = None,
    ) -> Any:
        """The cached value for ``key``, building (and storing) on a miss.

        With ``generation`` set, entries are tagged with the generation
        they were built under; a later lookup under a newer generation is
        *stale* rather than a plain hit.  ``revalidate(value, tag)`` then
        gets a chance to prove the entry survived every event between its
        tag and now (e.g. no fault landed on a cached path) -- returning
        True retags it to the current generation, False rebuilds.  Without
        ``revalidate``, stale entries are always rebuilt.  Callers that
        pass no ``generation`` keep the original untagged LRU behaviour.
        """
        trc = get_tracer()
        if key in self._entries:
            tag = self._tags.get(key)
            fresh = generation is None or tag == generation
            if not fresh and revalidate is not None and revalidate(
                self._entries[key], tag
            ):
                self._tags[key] = generation
                self.revalidated += 1
                if trc.enabled:
                    trc.count("cache.revalidated")
                fresh = True
            if fresh:
                self.hits += 1
                if trc.enabled:
                    trc.count("cache.hits")
                self._entries.move_to_end(key)
                return self._entries[key]
            self.stale += 1
            if trc.enabled:
                trc.count("cache.stale")
            del self._entries[key]
            del self._tags[key]
        self.misses += 1
        if trc.enabled:
            trc.count("cache.misses")
        value = build()
        self._entries[key] = value
        self._tags[key] = generation
        if len(self._entries) > self.maxsize:
            evicted, _ = self._entries.popitem(last=False)
            self._tags.pop(evicted, None)
        return value

    def clear(self) -> None:
        self._entries.clear()
        self._tags.clear()

    def stats(self) -> dict[str, int]:
        """JSON-ready counters (sizes and hit/miss/staleness tallies)."""
        return {
            "entries": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "stale": self.stale,
            "revalidated": self.revalidated,
        }


_current = ArtifactCache()


def get_artifact_cache() -> ArtifactCache:
    """The process-wide artifact cache currently installed."""
    return _current


def set_artifact_cache(cache: ArtifactCache | None) -> ArtifactCache:
    """Install ``cache`` (None installs a fresh default-sized one);
    returns the previously installed cache."""
    global _current
    previous = _current
    _current = cache if cache is not None else ArtifactCache()
    return previous


@contextlib.contextmanager
def use_artifact_cache(cache: ArtifactCache) -> Iterator[ArtifactCache]:
    """Install ``cache`` for the duration of a ``with`` block."""
    previous = set_artifact_cache(cache)
    try:
        yield cache
    finally:
        set_artifact_cache(previous)
