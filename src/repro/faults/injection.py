"""Fault workload generators.

The paper's evaluation uses uniformly random node faults in a 200x200 mesh
with the source and destination constrained to lie outside every faulty
block.  :func:`generate_scenario` reproduces that protocol (including the
rare rejection/resampling when the fixed source lands inside a block); the
other generators provide the additional workloads used by the examples and
the ablation benches (clustered failures modelling localized damage, wall
workloads stressing the covering-sequence machinery).

All randomness flows through an explicit :class:`numpy.random.Generator` so
every experiment is reproducible from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.faults.blocks import BlockSet, build_faulty_blocks
from repro.faults.mcc import MCCSet, MCCType, build_mccs
from repro.mesh.geometry import Coord, Rect, chebyshev_distance
from repro.mesh.topology import Mesh2D

#: Default Chebyshev radius of a fault cluster around its epicentre.
CLUSTER_RADIUS = 3

__all__ = [
    "FaultScenario",
    "clustered_faults",
    "generate_scenario",
    "injection_events",
    "injection_sequence",
    "uniform_faults",
    "uniform_faults_batch",
    "wall_faults",
]


def _require_non_negative(count: int) -> None:
    if count < 0:
        raise ValueError(f"fault count must be non-negative, got {count}")


def uniform_faults(
    mesh: Mesh2D,
    count: int,
    rng: np.random.Generator,
    forbidden: frozenset[Coord] | set[Coord] = frozenset(),
) -> list[Coord]:
    """``count`` distinct uniformly random faulty nodes avoiding ``forbidden``.

    Sparse draws (the paper's regime: a few hundred faults in a 200x200
    mesh) use batched rejection sampling.  Dense draws -- ``count`` within
    a factor of two of the available nodes -- would make rejection spin
    almost forever on the last few slots, so they switch to a single
    without-replacement :meth:`~numpy.random.Generator.choice` over the
    allowed flat indices instead.  Both paths are uniform over the same
    support; they do consume the generator differently, so a given seed
    yields different (equally valid) draws on either side of the
    threshold.
    """
    _require_non_negative(count)
    available = mesh.size - sum(1 for c in forbidden if mesh.in_bounds(c))
    if count > available:
        raise ValueError(f"cannot place {count} faults in {available} available nodes")
    if 2 * count >= available:
        # Dense regime: rejection would thrash on near-full meshes.
        allowed = np.ones(mesh.size, dtype=bool)
        for x, y in forbidden:
            if mesh.in_bounds((x, y)):
                allowed[x * mesh.m + y] = False
        picks = rng.choice(np.flatnonzero(allowed), size=count, replace=False)
        return sorted((int(flat) // mesh.m, int(flat) % mesh.m) for flat in picks)
    faults: set[Coord] = set()
    while len(faults) < count:
        # Draw in batches; duplicates and forbidden nodes are simply retried.
        draws = rng.integers(0, mesh.size, size=2 * (count - len(faults)) + 8)
        for flat in draws.tolist():
            coord = (flat // mesh.m, flat % mesh.m)
            if coord in forbidden or coord in faults:
                continue
            faults.add(coord)
            if len(faults) == count:
                break
    return sorted(faults)


def uniform_faults_batch(
    mesh: Mesh2D,
    counts: int | Sequence[int],
    rngs: Sequence[np.random.Generator | np.random.SeedSequence | int],
    forbidden: frozenset[Coord] | set[Coord] = frozenset(),
) -> np.ndarray:
    """Stacked ``(batch, n, m)`` fault grids, one pattern per generator.

    ``grids[b]`` is **bit-identical** to ``uniform_faults(mesh, counts[b],
    rngs[b], forbidden)`` rendered as a boolean grid, and each generator is
    advanced exactly as the scalar call advances it -- draws made *after*
    this call (pivots, destinations) therefore match the scalar pipeline
    draw for draw.  That equivalence is what lets the batched experiment
    engine (:mod:`repro.experiments.runner`) reproduce the per-pattern
    sweeps bit for bit; the property tests assert it over 100 seeds.

    ``counts`` may be a single count shared by every pattern or one count
    per generator.  Generators may be given as :class:`numpy.random.
    Generator` (consumed in place), seed ints, or ``SeedSequence`` s.

    The per-round bookkeeping (dedup, forbidden filtering, acceptance) is
    vectorised; only the generator draws stay per pattern, because each
    pattern owns an independent RNG stream by design.
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
            # Dense regime: the same without-replacement choice as the
            # scalar path (identical generator consumption).
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
            # First occurrence of each value, in draw order -- the
            # vectorised equivalent of the scalar accept loop.
            _, first_index = np.unique(draws, return_index=True)
            candidates = draws[np.sort(first_index)]
            candidates = candidates[~taken[candidates]]
            accepted = candidates[: count - placed]
            taken[accepted] = True
            flat_grid[accepted] = True
            placed += len(accepted)
    return grids


def injection_sequence(
    mesh: Mesh2D,
    count: int,
    rng: np.random.Generator,
    source: Coord | None = None,
) -> list[Coord]:
    """``count`` distinct faults in a random *injection order*.

    :func:`uniform_faults` returns its draw sorted (set semantics for the
    static scenarios); live-injection workloads --
    :class:`repro.simulator.protocols.dynamic_update.DynamicMesh` --
    additionally need the order in which the faults strike, so this
    shuffles the draw under the same generator.
    """
    forbidden: frozenset[Coord] = frozenset({source} if source is not None else ())
    faults = uniform_faults(mesh, count, rng, forbidden=forbidden)
    order = rng.permutation(len(faults))
    return [faults[int(i)] for i in order]


def injection_events(
    mesh: Mesh2D,
    count: int,
    rng: np.random.Generator,
    source: Coord | None = None,
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
    for coord in injection_sequence(mesh, count, rng, source=source):
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


def wall_faults(
    mesh: Mesh2D,
    rng: np.random.Generator,
    walls: int = 2,
    length: int = 10,
    gap_probability: float = 0.0,
) -> list[Coord]:
    """Straight fault segments ("walls") with optional gaps.

    Stresses the covering-sequence logic: walls spanning the region between a
    source and destination create exactly the barriers Wang's condition
    detects.  A gap probability above zero punches holes that minimal routes
    can slip through.
    """
    faults: set[Coord] = set()
    for _ in range(walls):
        horizontal = bool(rng.integers(0, 2))
        if horizontal:
            y = int(rng.integers(0, mesh.m))
            x0 = int(rng.integers(0, max(1, mesh.n - length)))
            cells = [(x0 + i, y) for i in range(min(length, mesh.n - x0))]
        else:
            x = int(rng.integers(0, mesh.n))
            y0 = int(rng.integers(0, max(1, mesh.m - length)))
            cells = [(x, y0 + i) for i in range(min(length, mesh.m - y0))]
        for cell in cells:
            if gap_probability > 0 and rng.random() < gap_probability:
                continue
            faults.add(cell)
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
        max_attempts: int = 10_000,
    ) -> Coord:
        """A uniformly random destination in ``region`` outside every block.

        Mirrors the paper's protocol: "we randomly pick a destination in the
        first quadrant ... the source and destination are outside of any
        faulty block".
        """
        clipped = region.clip(self.mesh.bounds)
        if clipped is None:
            raise ValueError(f"region {region} lies outside the mesh")
        for _ in range(max_attempts):
            coord = (
                int(rng.integers(clipped.xmin, clipped.xmax + 1)),
                int(rng.integers(clipped.ymin, clipped.ymax + 1)),
            )
            if coord in exclude:
                continue
            if not self.blocks.is_unusable(coord):
                return coord
        raise RuntimeError(
            f"no block-free destination found in {clipped} after {max_attempts} draws"
        )


def generate_scenario(
    mesh: Mesh2D,
    num_faults: int,
    rng: np.random.Generator,
    source: Coord | None = None,
    max_rejections: int = 1000,
    workload: str = "uniform",
    clusters: int = 4,
) -> FaultScenario:
    """The paper's random-fault scenario with a block-free source.

    Faults never land on the source itself, and fault patterns whose blocks
    grow to swallow the source are rejected and resampled (rare for the
    paper's parameters: scattered faults form mostly 1x1 blocks).

    ``workload`` selects the fault distribution: ``"uniform"`` is the
    paper's; ``"clustered"`` concentrates the same fault budget around
    ``clusters`` epicentres (radius ``CLUSTER_RADIUS``), modelling localized
    damage -- used by the beyond-the-paper robustness sweeps.
    """
    if workload not in ("uniform", "clustered"):
        raise ValueError(f"unknown workload {workload!r}")
    src = source if source is not None else mesh.center
    mesh.require_in_bounds(src)
    forbidden = frozenset({src})
    for _ in range(max_rejections):
        if workload == "uniform":
            faults = uniform_faults(mesh, num_faults, rng, forbidden=forbidden)
        else:
            # Keep the cluster regions comfortably larger than the fault
            # budget (3x slack) so dense budgets remain placeable.
            import math

            needed = math.ceil(math.sqrt(3 * num_faults / clusters))
            radius = max(CLUSTER_RADIUS, (needed - 1) // 2 + 1)
            faults = clustered_faults(
                mesh,
                num_faults,
                rng,
                clusters=clusters,
                radius=radius,
                forbidden=forbidden,
            )
        blocks = build_faulty_blocks(mesh, faults)
        if not blocks.is_unusable(src):
            return FaultScenario(mesh=mesh, faults=faults, blocks=blocks)
    raise RuntimeError(
        f"source {src} kept falling inside a faulty block after {max_rejections} resamples"
    )
