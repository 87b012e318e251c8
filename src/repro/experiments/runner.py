"""Scenario/trial driver for the condition experiments (Figures 9-12).

One *pattern* is a random fault placement; the runner evaluates every
registered metric on a fixed number of random destinations per pattern.
Metrics under the block and MCC models see the *same* fault patterns and
destinations, so the paper's (a)/(b) figure pairs are paired comparisons.

A shard (one fault count's patterns) is evaluated as one pattern batch
(see ``docs/API.md``, "Batched pattern engine"):

- the shard's fault patterns are drawn as ``(batch, n, m)`` grids, and
  their faulty blocks formed in lockstep, by the same rejection loop
  that draws one scenario
  (:func:`~repro.faults.injection.block_free_fault_stack`), for either
  workload;
- each fault model gets its own stacked grid and
  :class:`PatternBatchContext`: the faulty blocks for the block model,
  Definition 2's type-one MCCs (both labels taken over the whole stack
  in lockstep by :func:`~repro.core.batched_patterns.batch_label_closure`)
  for the MCC model;
- every metric's ``pattern_fn`` -- built on the cross-pattern kernels of
  :mod:`repro.core.batched_patterns` -- decides its model's whole
  ``(batch, k)`` (pattern, destination) grid in one call.

Every pattern owns a :class:`numpy.random.SeedSequence` spawned along a
fixed tree (:func:`pattern_seed_tree`), and its stream is consumed in a
fixed order: faults (with rejection redraws), block-model strategy
pivots, MCC-model strategy pivots (each drawn by
:func:`~repro.core.pivots.draw_random_pivots` over bounds computed once
per shard), destinations.

Figures 9-12 draw the same shards, so each shard's drawn inputs, its
success counts and, per fault model, its context memo (pivot arrays and
extension masks) are kept in the process-wide artifact cache (see
:func:`_evaluate_shard_patterns`): a later figure neither redraws nor
relabels a pattern, reuses the curves it shares, and takes the extension
masks an earlier figure built -- Figure 12's strategies recompute only
the random-pivot Extension 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.analysis.statistics import proportion_ci
from repro.core.batched_patterns import (
    BatchedSafetyLevels,
    batch_label_closure,
    batch_safety_levels,
)
from repro.core.pivots import draw_random_pivots, random_pivot_bounds, recursive_center_pivots
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import FigureSeries
from repro.faults.injection import (
    MAX_DESTINATION_DRAWS,
    block_free_fault_stack,
    draw_destination,
)
from repro.faults.mcc import _LABEL_RULES, MCCType, NodeStatus
from repro.mesh.geometry import Coord
from repro.mesh.topology import Mesh2D
from repro.parallel.cache import get_artifact_cache

#: The fault models a metric can run under.
BLOCK_MODEL = "block"
MCC_MODEL = "mcc"

@dataclass
class PatternBatchContext:
    """Everything a cross-pattern kernel may consult for one shard and model.

    ``blocked`` is the model's stacked ``(batch, n, m)`` grid (faulty
    blocks, or type-one MCCs) and ``levels`` the view that reads its ESLs
    on demand; ``dests`` is ``(batch, k, 2)`` and the same
    for both models.  The per-pattern random strategy pivots, drawn once
    per model, are padded to ``(batch, p, 2)`` with ``strategy_valid``
    masking the padding.  Reachability maps are kept on the context, and
    :meth:`memo` holds every other product -- pivot arrays and extension
    masks -- in a store that the runner hands every context of one shard
    and model (:class:`_ShardDraw`), so metrics sharing one build it once
    per shard and model, across figures.  Memoised arrays are shared and
    read-only.
    """

    mesh: Mesh2D
    source: Coord
    blocked: np.ndarray
    levels: BatchedSafetyLevels
    dests: np.ndarray
    pivots_by_level: dict[int, list[Coord]]
    strategy_pivots: np.ndarray
    strategy_valid: np.ndarray
    reachability_maps: dict[tuple[bool, bool], np.ndarray] = field(default_factory=dict)
    _memo: dict[Any, np.ndarray] = field(default_factory=dict)

    def memo(self, key: Any, build: Callable[[], np.ndarray]) -> np.ndarray:
        """``build()``, called only the first time ``key`` is asked for,
        and stored read-only."""
        if key not in self._memo:
            array = build()
            array.flags.writeable = False
            self._memo[key] = array
        return self._memo[key]

    def pivot_array(self, level: int) -> np.ndarray:
        """The shared recursive-centre pivots for ``level`` as ``(p, 2)``."""
        return self.memo(("pivots", level), lambda: np.array(
            self.pivots_by_level[level], dtype=np.int64
        ).reshape(-1, 2))


PatternMetricFn = Callable[[PatternBatchContext], np.ndarray]


@dataclass(frozen=True)
class MetricSpec:
    """One curve of a figure: a predicate over (pattern, destination) pairs.

    ``pattern_fn`` receives the :class:`PatternBatchContext` of ``model``
    and returns a ``(batch, k)`` boolean numpy mask; the curve's value at a
    fault count is the fraction of true entries over all of that count's
    patterns and destinations.
    """

    name: str
    pattern_fn: PatternMetricFn
    model: str = BLOCK_MODEL

    def __post_init__(self) -> None:
        if self.model not in (BLOCK_MODEL, MCC_MODEL):
            raise ValueError(f"unknown model {self.model!r}")


def pattern_seed_tree(
    seed: int, fault_counts: tuple[int, ...], patterns_per_count: int
) -> list[list[np.random.SeedSequence]]:
    """Per-fault-count lists of per-pattern seed sequences.

    The spawn tree is ``root -> one child per fault count -> one
    grandchild per pattern``, so every pattern's stream depends only on
    ``(seed, len(fault_counts), patterns_per_count)`` and its position.
    """
    root = np.random.SeedSequence(seed)
    count_seqs = root.spawn(len(fault_counts))
    return [seq.spawn(patterns_per_count) for seq in count_seqs]


def _pick_destinations_batch(
    config: ExperimentConfig,
    blocked: np.ndarray,
    rngs: list[np.random.Generator],
) -> np.ndarray:
    """``(batch, k, 2)`` destinations, exactly what
    ``FaultScenario.pick_destination`` draws from each generator.

    The destinations are the *last* thing the per-pattern streams feed, so
    only their values must match -- and on a square region the x and y
    draws share one bounded distribution, whose block draws
    (``rng.integers(lo, hi, size=k)``) produce exactly the values of ``k``
    sequential scalar calls.  The fast path therefore draws attempt pairs
    in chunks and accepts the first ``k`` valid ones vectorised (validity
    is a fixed predicate of the grid, so acceptance commutes with block
    drawing); other regions draw one attempt at a time, through
    :func:`~repro.faults.injection.draw_destination`.
    """
    clipped = config.destination_region.clip(config.mesh.bounds)
    if clipped is None:
        raise ValueError(f"region {config.destination_region} lies outside the mesh")
    source = config.source
    count = config.destinations_per_pattern
    dests = np.empty((len(rngs), count, 2), dtype=np.int64)
    symmetric = clipped.xmin == clipped.ymin and clipped.xmax == clipped.ymax
    for b, rng in enumerate(rngs):
        grid = blocked[b]
        if symmetric:
            picked = 0
            attempts = 0
            while picked < count:
                if attempts > count * MAX_DESTINATION_DRAWS:
                    raise RuntimeError(
                        f"no block-free destination found in {clipped} "
                        f"after {MAX_DESTINATION_DRAWS} draws"
                    )
                need = count - picked
                draws = rng.integers(
                    clipped.xmin, clipped.xmax + 1, size=2 * (2 * need + 8)
                )
                xs, ys = draws[0::2], draws[1::2]
                attempts += len(xs)
                ok = ~grid[xs, ys]
                ok &= (xs != source[0]) | (ys != source[1])
                good = np.flatnonzero(ok)[:need]
                taken = len(good)
                dests[b, picked : picked + taken, 0] = xs[good]
                dests[b, picked : picked + taken, 1] = ys[good]
                picked += taken
            continue
        for i in range(count):
            dests[b, i] = draw_destination(rng, clipped, grid, (source,))
    return dests


def _pad_pivots(pivot_lists: list[list[Coord]]) -> tuple[np.ndarray, np.ndarray]:
    """Stack ragged per-pattern pivot lists to ``(batch, p, 2)`` + mask."""
    width = max((len(p) for p in pivot_lists), default=0)
    pivots = np.zeros((len(pivot_lists), width, 2), dtype=np.int64)
    valid = np.zeros((len(pivot_lists), width), dtype=bool)
    for b, plist in enumerate(pivot_lists):
        if plist:
            pivots[b, : len(plist)] = np.array(plist, dtype=np.int64)
            valid[b, : len(plist)] = True
    return pivots, valid


def _mcc_grids(faults: np.ndarray) -> np.ndarray:
    """Every pattern's type-one MCC grid (Definition 2), ``(batch, n, m)``.

    The figures' destinations lie in quadrant I, which type-one MCCs
    serve.  The blocked grid is the faults plus the useless and the
    can't-reach closures, each taken over the whole stack in lockstep;
    it equals ``build_mccs(mesh, cells of faults[b], TYPE_ONE).blocked``
    for every pattern ``b``.
    """
    useless, cant_reach = (
        batch_label_closure(faults, _LABEL_RULES[(MCCType.TYPE_ONE, label)])
        for label in (NodeStatus.USELESS, NodeStatus.CANT_REACH)
    )
    return faults | useless | cant_reach


@dataclass
class _ShardDraw:
    """One shard's read-only draw -- destinations, and per model a
    bit-packed grid, padded strategy pivots and mask -- plus its counts
    and, per model, the :meth:`PatternBatchContext.memo` store.

    The store outlives the figure call that filled it, so a later figure
    reuses its pivot arrays and extension masks.  The unpacked grids and
    the :class:`BatchedSafetyLevels` read memo stay on each fresh context
    instead: kept here, the grids alone would add 0.8 MB per shard and
    model at paper scale.
    """

    dests: np.ndarray
    models: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]
    memos: dict[str, dict[Any, np.ndarray]]
    counts: dict[tuple[str, PatternMetricFn], int] = field(default_factory=dict)


def _draw_shard(
    config: ExperimentConfig,
    fault_count: int,
    seeds: list[np.random.SeedSequence],
    with_mcc: bool,
) -> _ShardDraw:
    """Draw one shard's patterns: faults, block-model strategy pivots,
    MCC-model strategy pivots (``with_mcc`` only), destinations, then the
    type-one MCC labelling, each pattern from its own spawned stream."""
    rngs = [np.random.default_rng(seed_seq) for seed_seq in seeds]
    faults, blocked = block_free_fault_stack(
        config.mesh, fault_count, rngs, config.source, config.workload
    )
    models = (BLOCK_MODEL, MCC_MODEL) if with_mcc else (BLOCK_MODEL,)
    bounds = random_pivot_bounds(config.pivot_region, config.strategy_pivot_levels)
    strategy = [_pad_pivots([draw_random_pivots(bounds, rng) for rng in rngs]) for _ in models]
    dests = _pick_destinations_batch(config, blocked, rngs)
    arrays = {}
    for model, pivots in zip(models, strategy):
        grid = blocked if model == BLOCK_MODEL else _mcc_grids(faults)
        arrays[model] = (np.packbits(grid, axis=-1), *pivots)
    for array in (dests, *(array for group in arrays.values() for array in group)):
        array.flags.writeable = False
    return _ShardDraw(dests, arrays, {model: {} for model in models})


def _pattern_context(
    config: ExperimentConfig, draw: _ShardDraw, model: str
) -> PatternBatchContext:
    """A fresh context over ``model``'s unpacked grid of ``draw``, sharing
    the draw's memo store for ``model``."""
    packed, pivots, valid = draw.models[model]
    blocked = np.unpackbits(packed, axis=-1, count=config.mesh.m).view(bool)
    return PatternBatchContext(
        mesh=config.mesh,
        source=config.source,
        blocked=blocked,
        levels=batch_safety_levels(blocked),
        dests=draw.dests,
        pivots_by_level={
            level: recursive_center_pivots(config.pivot_region, level)
            for level in config.pivot_levels
        },
        strategy_pivots=pivots,
        strategy_valid=valid,
        _memo=draw.memos[model],
    )


def _evaluate_shard_patterns(
    config: ExperimentConfig,
    metrics: list[MetricSpec],
    fault_count: int,
    seeds: list[np.random.SeedSequence],
) -> dict[str, int]:
    """Every metric's success count over one shard: the patterns of one
    fault count, one per seed sequence.

    Stacks the shard's patterns into one grid per fault model and
    evaluates every metric in one ``pattern_fn`` call.  Each pattern
    consumes only its own spawned RNG stream -- faults, block-model
    strategy pivots, MCC-model strategy pivots (only when an MCC metric is
    registered), then destinations -- so the result depends on the shard
    contents alone, never on what ran before it in the same process.

    The draw is memoised in ``get_artifact_cache()`` (``clear()`` resets
    it), keyed by the config itself -- frozen, and equal only to a config
    of the same class, so a subclass overriding a derived region misses --
    the fault count, every pattern's seed (two equal fault counts in one
    config get different seed subtrees), and whether MCC pivots are drawn
    (they shift the destinations).  Grids are bit-packed so a sweep's
    entries stay small; each call unpacks fresh contexts, which share the
    draw's memo store for their model.  Counts are memoised per
    ``(model, pattern_fn)``, so a module-level ``pattern_fn`` runs once
    per shard and model.  Closures are rebuilt by every ``figN_metrics``
    call and could never be hit again, so their counts are not stored;
    the masks they take through :meth:`PatternBatchContext.memo` are.
    """
    with_mcc = any(metric.model == MCC_MODEL for metric in metrics)
    seed_key = tuple((seq.entropy, seq.spawn_key, seq.pool_size) for seq in seeds)
    draw_key = ("experiments.runner.shard", config, fault_count, with_mcc, seed_key)
    draw = get_artifact_cache().get_or_build(
        draw_key, lambda: _draw_shard(config, fault_count, seeds, with_mcc)
    )
    contexts: dict[str, PatternBatchContext] = {}
    successes = {}
    for metric in metrics:
        key = (metric.model, metric.pattern_fn)
        count = draw.counts.get(key)
        if count is None:
            if metric.model not in contexts:
                contexts[metric.model] = _pattern_context(config, draw, metric.model)
            count = int(np.count_nonzero(metric.pattern_fn(contexts[metric.model])))
            if getattr(metric.pattern_fn, "__closure__", None) is None:
                draw.counts[key] = count
        successes[metric.name] = count
    return successes


class ConditionExperiment:
    """Sweep fault counts, measuring each metric's success proportion."""

    def __init__(self, config: ExperimentConfig, metrics: list[MetricSpec]):
        if not metrics:
            raise ValueError("need at least one metric")
        names = [m.name for m in metrics]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate metric names in {names}")
        self.config = config
        self.metrics = metrics

    # ------------------------------------------------------------------
    def run(
        self,
        figure_id: str,
        title: str,
        progress: Callable[[str], None] | None = None,
    ) -> FigureSeries:
        """Run the sweep, one fault count at a time.

        Each fault count's patterns are stacked and decided by the
        metrics' cross-pattern kernels.  The fault-pattern RNG streams are
        spawned per pattern from the config seed, so a run's
        :class:`FigureSeries` depends only on the config and the metrics.
        """
        config = self.config
        series = FigureSeries(figure_id=figure_id, title=title, x_label="faults")
        series.notes.append(config.describe())
        tree = pattern_seed_tree(config.seed, config.fault_counts, config.patterns_per_count)
        trials = config.patterns_per_count * config.destinations_per_pattern
        for fault_count, seeds in zip(config.fault_counts, tree):
            successes = _evaluate_shard_patterns(config, self.metrics, fault_count, seeds)
            series.xs.append(float(fault_count))
            for metric in self.metrics:
                series.add_point(metric.name, proportion_ci(successes[metric.name], trials))
            if progress is not None:
                progress(f"{figure_id}: k={fault_count} done ({trials} trials)")
        series.validate()
        return series
