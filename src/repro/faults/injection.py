"""Fault workload generators.

The paper's evaluation uses uniformly random node faults in a 200x200 mesh
with the source and destination constrained to lie outside every faulty
block.  Each step has one implementation, batched over fault patterns,
which the single-scenario API runs as a batch of one:
:func:`uniform_faults_batch` draws the faults, :func:`block_free_fault_stack`
redraws the patterns whose blocks swallow the source (uniform or clustered
workload), and :func:`draw_destination` draws a block-free destination
one attempt at a time.  The other generators provide the additional
workloads used by the examples and the ablation benches.

All randomness flows through an explicit :class:`numpy.random.Generator` so
every experiment is reproducible from a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Collection, Sequence

import numpy as np

from repro.faults.blocks import BlockSet, build_faulty_blocks
from repro.faults.mcc import MCCSet, MCCType, build_mccs
from repro.mesh.geometry import Coord, Rect, chebyshev_distance
from repro.mesh.topology import Mesh2D

#: Default Chebyshev radius of a fault cluster around its epicentre.
CLUSTER_RADIUS = 3

#: Epicentres of :func:`block_free_fault_stack`'s clustered workload.
CLUSTER_COUNT = 4

#: Fault patterns drawn before a source that keeps landing inside a
#: faulty block is given up on.
MAX_REJECTIONS = 1000

#: Draws per destination before a region counts as saturated by blocks.
MAX_DESTINATION_DRAWS = 10_000

__all__ = [
    "FaultScenario",
    "block_free_fault_stack",
    "clustered_faults",
    "draw_destination",
    "generate_scenario",
    "injection_events",
    "injection_sequence",
    "uniform_faults",
    "uniform_faults_batch",
]


def _require_non_negative(count: int) -> None:
    if count < 0:
        raise ValueError(f"fault count must be non-negative, got {count}")


def _cells(grid: np.ndarray) -> list[Coord]:
    """The True cells of one ``(n, m)`` grid, sorted."""
    xs, ys = np.nonzero(grid)
    return list(zip(xs.tolist(), ys.tolist()))


def uniform_faults(
    mesh: Mesh2D,
    count: int,
    rng: np.random.Generator,
    forbidden: frozenset[Coord] | set[Coord] = frozenset(),
) -> list[Coord]:
    """``count`` distinct uniformly random faulty nodes avoiding
    ``forbidden``, sorted: the cells of :func:`uniform_faults_batch` run
    as a batch of one."""
    return _cells(uniform_faults_batch(mesh, count, [rng], forbidden)[0])


def uniform_faults_batch(
    mesh: Mesh2D,
    counts: int | Sequence[int],
    rngs: Sequence[np.random.Generator | np.random.SeedSequence | int],
    forbidden: frozenset[Coord] | set[Coord] = frozenset(),
) -> np.ndarray:
    """Stacked ``(batch, n, m)`` fault grids, one pattern per generator.

    ``grids[b]`` holds ``counts[b]`` (or the shared ``counts``) distinct
    uniformly random nodes avoiding ``forbidden``, drawn from ``rngs[b]``
    alone -- a :class:`numpy.random.Generator` (consumed in place), a seed
    int or a ``SeedSequence`` -- so no pattern depends on the others.

    Sparse draws (the paper's regime) use rejection sampling: each round
    draws integers and accepts the first occurrence of each allowed node.
    Dense draws -- a count within a factor of two of the available nodes
    -- would make rejection thrash on the last few slots, so they take one
    without-replacement :meth:`~numpy.random.Generator.choice` over the
    allowed nodes instead.  Both are uniform over the same support but
    consume the generator differently.
    """
    batch = len(rngs)
    count_list = [counts] * batch if isinstance(counts, int) else list(counts)
    if len(count_list) != batch:
        raise ValueError(
            f"got {len(count_list)} counts for {batch} generators"
        )
    for count in count_list:
        _require_non_negative(count)
    forbidden_flat = np.array(
        sorted(x * mesh.m + y for x, y in forbidden if mesh.in_bounds((x, y))),
        dtype=np.int64,
    )
    available = mesh.size - len(forbidden_flat)
    grids = np.zeros((batch, mesh.n, mesh.m), dtype=bool)
    for b, (rng_like, count) in enumerate(zip(rngs, count_list)):
        rng = (
            rng_like
            if isinstance(rng_like, np.random.Generator)
            else np.random.default_rng(rng_like)
        )
        if count > available:
            raise ValueError(
                f"cannot place {count} faults in {available} available nodes"
            )
        flat_grid = grids[b].reshape(-1)
        if 2 * count >= available:
            # Dense regime: rejection would thrash on near-full meshes.
            allowed = np.ones(mesh.size, dtype=bool)
            allowed[forbidden_flat] = False
            picks = rng.choice(np.flatnonzero(allowed), size=count, replace=False)
            flat_grid[picks] = True
            continue
        taken = np.zeros(mesh.size, dtype=bool)
        taken[forbidden_flat] = True
        placed = 0
        while placed < count:
            draws = rng.integers(0, mesh.size, size=2 * (count - placed) + 8)
            # First occurrence of each value, in draw order.
            _, first_index = np.unique(draws, return_index=True)
            candidates = draws[np.sort(first_index)]
            candidates = candidates[~taken[candidates]]
            accepted = candidates[: count - placed]
            taken[accepted] = True
            flat_grid[accepted] = True
            placed += len(accepted)
    return grids


def injection_sequence(mesh: Mesh2D, count: int, rng: np.random.Generator) -> list[Coord]:
    """``count`` distinct faults in a random *injection order*.

    :func:`uniform_faults` returns its draw sorted (set semantics for the
    static scenarios); live-injection workloads --
    :class:`repro.simulator.protocols.dynamic_update.DynamicMesh` --
    additionally need the order in which the faults strike, so this
    shuffles the draw under the same generator.
    """
    faults = uniform_faults(mesh, count, rng)
    order = rng.permutation(len(faults))
    return [faults[int(i)] for i in order]


def injection_events(
    mesh: Mesh2D,
    count: int,
    rng: np.random.Generator,
    revive_fraction: float = 0.0,
) -> list[tuple[str, Coord]]:
    """A mixed ``("inject" | "revive", coord)`` event stream.

    Extends :func:`injection_sequence` for delta-maintenance workloads
    (:class:`repro.faults.incremental.IncrementalFaultEngine`,
    ``benchmarks/check_incremental.py``): ``count`` distinct faults strike
    in a random order, and after each arrival a currently faulty node is
    revived with probability ``revive_fraction`` (drawn under the same
    generator, so the stream is reproducible from the seed).  Every revive
    targets a fault that is live at that point, so the stream is valid to
    replay from an empty mesh.
    """
    if not 0.0 <= revive_fraction <= 1.0:
        raise ValueError(f"revive_fraction must be in [0, 1], got {revive_fraction}")
    events: list[tuple[str, Coord]] = []
    alive: list[Coord] = []
    for coord in injection_sequence(mesh, count, rng):
        events.append(("inject", coord))
        alive.append(coord)
        if revive_fraction > 0 and alive and rng.random() < revive_fraction:
            victim = alive.pop(int(rng.integers(len(alive))))
            events.append(("revive", victim))
    return events


def clustered_faults(
    mesh: Mesh2D,
    count: int,
    rng: np.random.Generator,
    clusters: int = 4,
    radius: int = CLUSTER_RADIUS,
    forbidden: frozenset[Coord] | set[Coord] = frozenset(),
) -> list[Coord]:
    """Faults concentrated around ``clusters`` random epicentres.

    Each fault is placed uniformly within Chebyshev distance ``radius`` of a
    randomly chosen epicentre; models localized physical damage, which
    produces larger faulty blocks than the uniform workload.
    """
    _require_non_negative(count)
    if clusters < 1:
        raise ValueError("need at least one cluster")
    centers = [
        (int(rng.integers(0, mesh.n)), int(rng.integers(0, mesh.m))) for _ in range(clusters)
    ]
    faults: set[Coord] = set()
    attempts = 0
    max_attempts = 1000 * count + 1000
    while len(faults) < count:
        attempts += 1
        if attempts > max_attempts:
            raise RuntimeError(
                f"could not place {count} clustered faults "
                f"(clusters={clusters}, radius={radius}); region too small"
            )
        cx, cy = centers[int(rng.integers(0, clusters))]
        coord = (
            int(cx + rng.integers(-radius, radius + 1)),
            int(cy + rng.integers(-radius, radius + 1)),
        )
        if not mesh.in_bounds(coord) or coord in forbidden or coord in faults:
            continue
        faults.add(coord)
    assert all(
        any(chebyshev_distance(f, c) <= radius for c in centers) for f in faults
    )
    return sorted(faults)


@dataclass
class FaultScenario:
    """A fully built fault scenario: faults, blocks, and both MCC types.

    The MCC decompositions are built lazily (many experiments only need the
    faulty block model).
    """

    mesh: Mesh2D
    faults: list[Coord]
    blocks: BlockSet
    _mcc_cache: dict[MCCType, MCCSet] = field(default_factory=dict, repr=False)

    @property
    def num_faults(self) -> int:
        return len(self.faults)

    def mccs(self, mcc_type: MCCType = MCCType.TYPE_ONE) -> MCCSet:
        if mcc_type not in self._mcc_cache:
            self._mcc_cache[mcc_type] = build_mccs(self.mesh, self.faults, mcc_type)
        return self._mcc_cache[mcc_type]

    def pick_destination(
        self,
        rng: np.random.Generator,
        region: Rect,
        exclude: frozenset[Coord] | set[Coord] = frozenset(),
    ) -> Coord:
        """A uniformly random destination in ``region`` outside every block.

        Mirrors the paper's protocol: "we randomly pick a destination in the
        first quadrant ... the source and destination are outside of any
        faulty block".
        """
        clipped = region.clip(self.mesh.bounds)
        if clipped is None:
            raise ValueError(f"region {region} lies outside the mesh")
        return draw_destination(rng, clipped, self.blocks.unusable, exclude)


def draw_destination(
    rng: np.random.Generator,
    region: Rect,
    unusable: np.ndarray,
    exclude: Collection[Coord],
) -> Coord:
    """A uniformly random node of ``region`` (inside the mesh) that is
    neither ``unusable`` nor in ``exclude``.

    Each attempt draws an x, then a y; up to ``MAX_DESTINATION_DRAWS``
    attempts before the region counts as saturated by blocks.
    """
    for _ in range(MAX_DESTINATION_DRAWS):
        coord = (
            int(rng.integers(region.xmin, region.xmax + 1)),
            int(rng.integers(region.ymin, region.ymax + 1)),
        )
        if coord not in exclude and not unusable[coord]:
            return coord
    raise RuntimeError(
        f"no block-free destination found in {region} "
        f"after {MAX_DESTINATION_DRAWS} draws"
    )


def _fault_stack(
    mesh: Mesh2D,
    count: int,
    rngs: list[np.random.Generator],
    forbidden: frozenset[Coord],
    workload: str,
) -> np.ndarray:
    """One ``(batch, n, m)`` draw of ``workload``, a pattern per generator."""
    if workload == "uniform":
        return uniform_faults_batch(mesh, count, rngs, forbidden)
    # Keep the cluster regions comfortably larger than the fault budget
    # (3x slack) so dense budgets remain placeable.
    needed = math.ceil(math.sqrt(3 * count / CLUSTER_COUNT))
    radius = max(CLUSTER_RADIUS, (needed - 1) // 2 + 1)
    grids = np.zeros((len(rngs), mesh.n, mesh.m), dtype=bool)
    for grid, rng in zip(grids, rngs):
        faults = clustered_faults(
            mesh, count, rng, clusters=CLUSTER_COUNT, radius=radius, forbidden=forbidden
        )
        for coord in faults:
            grid[coord] = True
    return grids


def block_free_fault_stack(
    mesh: Mesh2D,
    count: int,
    rngs: list[np.random.Generator],
    source: Coord,
    workload: str,
) -> tuple[np.ndarray, np.ndarray]:
    """``(faults, unusable)`` ``(batch, n, m)`` stacks, one pattern per
    generator, each with ``source`` outside every faulty block.

    Faults never land on the source, and a pattern whose blocks swallow it
    is redrawn from its own generator, up to ``MAX_REJECTIONS`` draws; the
    blocks of the whole stack are formed in lockstep.  ``workload`` is
    ``"uniform"`` (the paper's) or ``"clustered"``: the same budget around
    ``CLUSTER_COUNT`` epicentres, modelling localized damage.
    """
    # A module-level import of repro.core would be an import cycle.
    from repro.core.batched_patterns import batch_disable_fixpoint

    if workload not in ("uniform", "clustered"):
        raise ValueError(f"unknown workload {workload!r}")
    mesh.require_in_bounds(source)
    forbidden = frozenset({source})
    faults = _fault_stack(mesh, count, rngs, forbidden, workload)
    unusable = batch_disable_fixpoint(faults)
    sx, sy = source
    bad = np.flatnonzero(unusable[:, sx, sy])
    draws = 1
    while bad.size:
        if draws == MAX_REJECTIONS:
            raise RuntimeError(
                f"source {source} kept falling inside a faulty block "
                f"after {MAX_REJECTIONS} resamples"
            )
        draws += 1
        redrawn = _fault_stack(mesh, count, [rngs[b] for b in bad], forbidden, workload)
        faults[bad] = redrawn
        unusable[bad] = batch_disable_fixpoint(redrawn)
        bad = bad[unusable[bad, sx, sy]]
    return faults, unusable


def generate_scenario(
    mesh: Mesh2D,
    num_faults: int,
    rng: np.random.Generator,
    source: Coord | None = None,
) -> FaultScenario:
    """The paper's uniform random-fault scenario with a block-free source
    (the mesh centre unless given): :func:`block_free_fault_stack` run as
    a batch of one, with the blocks of the accepted draw."""
    src = source if source is not None else mesh.center
    faults, _ = block_free_fault_stack(mesh, num_faults, [rng], src, "uniform")
    cells = _cells(faults[0])
    return FaultScenario(mesh=mesh, faults=cells, blocks=build_faulty_blocks(mesh, cells))
