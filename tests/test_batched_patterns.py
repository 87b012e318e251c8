"""Equivalence suite: cross-pattern batched kernels vs the scalar reference.

Every kernel in :mod:`repro.core.batched_patterns` promises bit-identical
results to its scalar counterpart (:mod:`repro.core.conditions`,
:mod:`repro.core.extensions`, :mod:`repro.core.strategies`, the existence
oracle), pattern by pattern.  The two fixpoints are the only from-scratch
implementations of Definitions 1 and 2, so they are held to the scalar
walks the incremental engine extends a fixpoint with, seeded at every
fault (``spread_disabled`` and ``extend_label``).  The suite asserts that
promise:

- **exhaustively** over every 4x4 fault pattern (all 65536, in chunks) for
  block formation, and over every *reachable* blocked grid (the 3360
  distinct fixpoints of those patterns -- the ESL and condition kernels
  consume only the blocked grid, so this is exhaustive for them too);
- over **seeded random 32x32 patterns** (50 seeds) with destinations in
  every quadrant, against per-destination scalar decisions -- including
  the figures' strategy curves (an OR of kernels) against
  ``strategy_decision``;
- over **stacked type-one MCC grids** (the MCC-model curves of Figures
  9-12), against the scalar predicates on
  ``compute_safety_levels(mcc.blocked)``.

The shift helper behind both fixpoints (``_shifted_batch``) is checked
against a naive index loop in a module of its own.

The bit-packed existence map (``batch_reachability_map``) is checked cell
for cell against the scalar ``monotone_reachability`` in every quadrant,
at packed widths that do and do not cross byte and word boundaries, for
sources on mesh edges, blocked sources, and a stack whose guard rows
alone keep one pattern's carry out of the next.

Definition 2's labelling (``batch_label_closure``) is checked against
the ``extend_label`` walk and ``label_closures`` for both labels of both
MCC types over every 4x4 pattern in one batch, thin meshes, seeded random
32x32 stacks and the full-mesh staircase, its worst case in rounds.

The draws behind the experiment engine's reproducibility --
``uniform_faults_batch`` over 100 seeds and the strategy pivots' one-call
draw -- are pinned by frozen digests of their values and of each
generator's next value (the scenario and destination draws are pinned in
``test_injection.py``); the engine's figure series are pinned in
``test_figure_goldens.py``.
"""

import hashlib

import numpy as np
import pytest

from repro.core.batched_patterns import (
    batch_disable_fixpoint,
    batch_label_closure,
    batch_pattern_extension1,
    batch_pattern_extension2,
    batch_pattern_extension3,
    batch_pattern_is_safe,
    batch_pattern_path_exists,
    batch_reachability_map,
    batch_safety_levels,
    build_source_sample_tables,
)
from repro.core.conditions import is_safe
from repro.core.extensions import (
    extension1_decision,
    extension2_decision_from_segments,
    extension3_decision,
)
from repro.core.pivots import (
    draw_random_pivots,
    random_pivot_bounds,
    random_pivots,
    recursive_center_pivots,
)
from repro.core.safety import compute_safety_levels
from repro.core.segments import build_axis_segments
from repro.core.strategies import Strategy, StrategyConfig, strategy_decision
from repro.faults.coverage import minimal_path_exists, monotone_reachability
from repro.faults.injection import uniform_faults, uniform_faults_batch
from repro.faults.mcc import (
    _LABEL_RULES,
    MCCType,
    NodeStatus,
    _status_grid,
    build_mccs,
    extend_label,
    label_closures,
)
from repro.mesh.frames import Frame
from repro.mesh.geometry import ESL_ORDER, Direction, Rect
from repro.mesh.topology import Mesh2D
from tests.test_blocks import walk_fixpoint


def _all_4x4_patterns() -> np.ndarray:
    bits = np.arange(1 << 16, dtype=np.uint32)
    cells = (bits[:, None] >> np.arange(16, dtype=np.uint32)) & 1
    return cells.astype(bool).reshape(-1, 4, 4)


def _permuted_nodes(
    mesh: Mesh2D, batch: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(px, py, order)``: every mesh node, edges included, in a different
    random order per pattern, so each pattern's point reads land on rows
    and columns no other pattern reads at the same position."""
    rng = np.random.default_rng(seed)
    order = np.stack([rng.permutation(mesh.n * mesh.m) for _ in range(batch)])
    return order // mesh.m, order % mesh.m, order


def _assert_reads_match_scalar(mesh: Mesh2D, grids: np.ndarray) -> None:
    """The view's node, point and axis-line reads equal
    ``compute_safety_levels`` at every node of every pattern -- mesh-edge
    nodes (whose lines beyond them are empty) included -- and the point
    reads also under a different node order per pattern."""
    levels = batch_safety_levels(grids)
    references = [compute_safety_levels(mesh, grid) for grid in grids]
    # (batch, 4, n, m), the second axis in (E, S, W, N) order
    expected = np.stack([[r.east, r.south, r.west, r.north] for r in references])
    batch = len(grids)
    for x in range(mesh.n):
        for y in range(mesh.m):
            got = np.stack(levels.node((x, y)), axis=1)
            np.testing.assert_array_equal(got, expected[:, :, x, y], err_msg=str((x, y)))
            north_line, east_line = levels.axis_lines((x, y))
            np.testing.assert_array_equal(north_line, expected[:, 3, x + 1 :, y])
            np.testing.assert_array_equal(east_line, expected[:, 0, x, y + 1 :])
    xs, ys = np.meshgrid(np.arange(mesh.n), np.arange(mesh.m), indexing="ij")
    px = np.broadcast_to(xs.reshape(1, -1), (batch, mesh.n * mesh.m))
    py = np.broadcast_to(ys.reshape(1, -1), (batch, mesh.n * mesh.m))
    got = np.stack([levels.point_side(px, py, side) for side in ESL_ORDER], axis=1)
    np.testing.assert_array_equal(got, expected.reshape(batch, 4, -1))
    px, py, order = _permuted_nodes(mesh, batch)
    got = np.stack([levels.point_side(px, py, side) for side in ESL_ORDER], axis=1)
    flat = expected.reshape(batch, 4, -1)
    np.testing.assert_array_equal(got, np.take_along_axis(flat, order[:, None, :], axis=2))


# ----------------------------------------------------------------------
# Exhaustive 4x4
# ----------------------------------------------------------------------


def exhaustive_4x4() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(patterns, blocked, unique_blocked) over every 4x4 fault pattern."""
    patterns = _all_4x4_patterns()
    chunks = [
        batch_disable_fixpoint(patterns[start : start + 8192])
        for start in range(0, len(patterns), 8192)
    ]
    blocked = np.concatenate(chunks)
    codes = blocked.reshape(-1, 16) @ (1 << np.arange(16, dtype=np.int64))
    _, first = np.unique(codes, return_index=True)
    return patterns, blocked, blocked[np.sort(first)]


@pytest.fixture(scope="module")
def exhaustive():
    return exhaustive_4x4()


class TestExhaustive4x4:
    def test_formation_matches_scalar(self, exhaustive):
        patterns, blocked, _ = exhaustive
        expected = np.stack([walk_fixpoint(grid) for grid in patterns])
        np.testing.assert_array_equal(blocked, expected)

    def test_esl_matches_scalar(self, exhaustive):
        _, _, unique_blocked = exhaustive
        _assert_reads_match_scalar(Mesh2D(4, 4), unique_blocked)

    @pytest.fixture(scope="class")
    def condition_case(self, exhaustive):
        """Every reachable blocked grid whose source node survives, with all
        16 destinations -- exhaustive input space for the condition kernels."""
        _, _, unique_blocked = exhaustive
        mesh = Mesh2D(4, 4)
        source = (1, 1)
        grids = unique_blocked[~unique_blocked[:, source[0], source[1]]]
        levels = batch_safety_levels(grids)
        dests_one = np.array(
            [(x, y) for x in range(4) for y in range(4)], dtype=np.int64
        )
        dests = np.broadcast_to(dests_one, (len(grids),) + dests_one.shape)
        scalar = [compute_safety_levels(mesh, grid) for grid in grids]
        return mesh, grids, levels, source, dests, dests_one, scalar

    def test_def3_matches_scalar(self, condition_case):
        _, grids, levels, source, dests, dests_one, scalar = condition_case
        mask = batch_pattern_is_safe(levels, source, dests)
        for b in range(len(grids)):
            expected = [
                is_safe(scalar[b], source, tuple(map(int, dest)))
                for dest in dests_one
            ]
            assert mask[b].tolist() == expected

    @pytest.mark.parametrize("allow_sub_minimal", [False, True])
    def test_extension1_matches_scalar(self, condition_case, allow_sub_minimal):
        mesh, grids, levels, source, dests, dests_one, scalar = condition_case
        mask = batch_pattern_extension1(
            grids, levels, source, dests, allow_sub_minimal=allow_sub_minimal
        )
        for b in range(len(grids)):
            for i, dest in enumerate(dests_one):
                decision = extension1_decision(
                    mesh, scalar[b], grids[b], source, tuple(map(int, dest)),
                    allow_sub_minimal=allow_sub_minimal,
                )
                expected = (
                    decision.ensures_sub_minimal
                    if allow_sub_minimal
                    else decision.ensures_minimal
                )
                assert bool(mask[b, i]) == expected, (b, i)

    @pytest.mark.parametrize("segment_size", [1, 2, None])
    def test_extension2_matches_scalar(self, condition_case, segment_size):
        mesh, grids, levels, source, dests, dests_one, scalar = condition_case
        mask = batch_pattern_extension2(
            levels, source, dests, segment_size, (mesh.n, mesh.m)
        )
        frame = Frame(origin=source)
        for b in range(len(grids)):
            east = build_axis_segments(
                mesh, scalar[b], frame, Direction.EAST, segment_size
            )
            north = build_axis_segments(
                mesh, scalar[b], frame, Direction.NORTH, segment_size
            )
            for i, dest in enumerate(dests_one):
                expected = extension2_decision_from_segments(
                    scalar[b], source, tuple(map(int, dest)), east, north
                ).ensures_minimal
                assert bool(mask[b, i]) == expected, (b, i)

    def test_extension3_matches_scalar(self, condition_case):
        mesh, grids, levels, source, dests, dests_one, scalar = condition_case
        region = Rect(source[0], mesh.n - 1, source[1], mesh.m - 1)
        pivots = recursive_center_pivots(region, 2)
        pivot_arr = np.array(pivots, dtype=np.int64).reshape(-1, 2)
        mask = batch_pattern_extension3(grids, levels, source, dests, pivot_arr)
        for b in range(len(grids)):
            for i, dest in enumerate(dests_one):
                expected = extension3_decision(
                    mesh, scalar[b], grids[b], source, tuple(map(int, dest)), pivots
                ).ensures_minimal
                assert bool(mask[b, i]) == expected, (b, i)

    def test_path_exists_matches_scalar(self, condition_case):
        _, grids, _, source, dests, dests_one, _ = condition_case
        mask = batch_pattern_path_exists(grids, source, dests)
        for b in range(len(grids)):
            for i, dest in enumerate(dests_one):
                if grids[b, dest[0], dest[1]]:
                    continue  # the protocol only queries block-free endpoints
                expected = minimal_path_exists(
                    grids[b], source, tuple(map(int, dest))
                )
                assert bool(mask[b, i]) == expected, (b, i)


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (2, 5)])
def test_esl_reads_on_thin_meshes_match_scalar(shape):
    """One- and two-wide meshes: most lines beyond a node are empty."""
    mesh = Mesh2D(*shape)
    grids = np.random.default_rng(sum(shape)).random((40,) + shape) < 0.3
    _assert_reads_match_scalar(mesh, grids)


def _line_end_grids(n: int, m: int) -> np.ndarray:
    """Clear, fully blocked, a blocked row and column through the middle,
    and a blocked rim around a clear interior."""
    grids = np.zeros((4, n, m), dtype=bool)
    grids[1] = True
    grids[2, n // 2, :] = True
    grids[2, :, m // 2] = True
    grids[3, [0, -1], :] = True
    grids[3, :, [0, -1]] = True
    return grids


@pytest.mark.parametrize("shape", [(1, 7), (7, 1), (6, 9)])
def test_point_reads_at_line_ends_on_blocked_and_clear_lines(shape):
    """Point reads at line positions 0 and ``length-1`` (and every other
    node) on fully blocked and fully clear lines: the first-hit search
    ahead and behind finds no cell, or one right beside the node."""
    _assert_reads_match_scalar(Mesh2D(*shape), _line_end_grids(*shape))


# ----------------------------------------------------------------------
# The bit-packed existence map against the scalar DP
# ----------------------------------------------------------------------


QUADRANTS = [(False, False), (True, False), (False, True), (True, True)]


def _assert_map_matches_scalar(grids: np.ndarray, source, flip_x: bool, flip_y: bool):
    """``batch_reachability_map`` equals, cell for cell, the scalar DP to
    the quadrant's far corner (the DP is a prefix computation, so that one
    grid holds every destination of the quadrant)."""
    n, m = grids.shape[1:]
    corner = (0 if flip_x else n - 1, 0 if flip_y else m - 1)
    got = batch_reachability_map(grids, source, flip_x, flip_y)
    assert got.dtype == np.bool_
    for b, grid in enumerate(grids):
        np.testing.assert_array_equal(
            got[b], monotone_reachability(grid, source, corner), err_msg=str(b)
        )


class TestPackedReachabilityMap:
    @pytest.mark.parametrize("flip_x,flip_y", QUADRANTS)
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("height", [6, 7, 8, 63, 64])
    def test_matches_scalar_across_byte_and_word_boundaries(
        self, height, batch, flip_x, flip_y
    ):
        """Quadrant heights with ``height + 1`` (one guard row per pattern)
        of 7, 8, 9, 64 and 65 bits, in every quadrant."""
        n, m = 7, 2 * height - 1
        source = (3, height - 1)
        rng = np.random.default_rng(height * 10 + batch)
        grids = rng.random((batch, n, m)) < 0.25
        grids[:, source[0], source[1]] = False
        _assert_map_matches_scalar(grids, source, flip_x, flip_y)

    @pytest.mark.parametrize("flip_x,flip_y", QUADRANTS)
    @pytest.mark.parametrize(
        "source", [(0, 4), (8, 4), (4, 0), (4, 8), (0, 0), (8, 8), (0, 8)]
    )
    def test_one_wide_quadrants_on_mesh_edges(self, source, flip_x, flip_y):
        grids = np.random.default_rng(sum(source)).random((3, 9, 9)) < 0.3
        grids[:, source[0], source[1]] = False
        _assert_map_matches_scalar(grids, source, flip_x, flip_y)

    @pytest.mark.parametrize("flip_x,flip_y", QUADRANTS)
    def test_blocked_source_gives_all_false_map(self, flip_x, flip_y):
        grids = np.random.default_rng(5).random((3, 10, 10)) < 0.2
        source = (4, 5)
        grids[:, source[0], source[1]] = [False, True, False]
        got = batch_reachability_map(grids, source, flip_x, flip_y)
        assert got[0, 0, 0] and got[2, 0, 0]
        assert not got[1].any()
        _assert_map_matches_scalar(grids, source, flip_x, flip_y)

    @pytest.mark.parametrize("flip_x,flip_y", QUADRANTS)
    @pytest.mark.parametrize("height", [7, 8, 64])
    def test_guard_row_stops_the_carry_between_patterns(self, height, flip_x, flip_y):
        """Pattern ``b`` is free to its top edge in every column, so its
        carry leaves the top of each column; pattern ``b+1`` has only its
        source blocked, so without a guard row that carry would make it
        reachable from the second column on."""
        n, m = 5, 2 * height - 1
        source = (2, height - 1)
        grids = np.zeros((4, n, m), dtype=bool)
        grids[[1, 3], source[0], source[1]] = True
        got = batch_reachability_map(grids, source, flip_x, flip_y)
        assert got[0].all() and got[2].all()
        assert not got[1].any() and not got[3].any()
        _assert_map_matches_scalar(grids, source, flip_x, flip_y)

    @pytest.mark.parametrize("flip_x,flip_y", QUADRANTS)
    @pytest.mark.parametrize("source", [(-1, 2), (8, 2), (2, -1), (2, 8)])
    def test_source_outside_mesh_raises(self, source, flip_x, flip_y):
        """A negative source coordinate would otherwise slice from the
        far edge and return a map for a node that does not exist."""
        grids = np.zeros((1, 8, 8), dtype=bool)
        grids[0, 5, :] = True
        with pytest.raises(ValueError, match="outside the 8x8 mesh"):
            batch_reachability_map(grids, source, flip_x, flip_y)


# ----------------------------------------------------------------------
# Seeded random 32x32
# ----------------------------------------------------------------------


SIDE = 32
N_PATTERNS = 50


@pytest.fixture(scope="module")
def random_case():
    """50 seeded random 32x32 patterns with per-pattern destinations in
    every quadrant of the (central) source."""
    mesh = Mesh2D(SIDE, SIDE)
    source = mesh.center
    rng = np.random.default_rng(99)
    patterns = []
    while len(patterns) < N_PATTERNS:
        faults = uniform_faults(mesh, 40, rng, forbidden={source})
        grid = np.zeros((SIDE, SIDE), dtype=bool)
        for coord in faults:
            grid[coord] = True
        blocked = walk_fixpoint(grid)
        if not blocked[source]:
            patterns.append((grid, blocked))
    faulty = np.stack([grid for grid, _ in patterns])
    blocked = np.stack([blocked for _, blocked in patterns])
    dests = np.zeros((N_PATTERNS, 24, 2), dtype=np.int64)
    for b in range(N_PATTERNS):
        free = np.argwhere(~blocked[b])
        dests[b] = free[rng.integers(len(free), size=24)]
    return mesh, source, faulty, blocked, dests


class TestRandom32x32:
    def test_formation_and_esl_match_scalar(self, random_case):
        mesh, _, faulty, blocked, _ = random_case
        got = batch_disable_fixpoint(faulty)
        np.testing.assert_array_equal(got, blocked)
        _assert_reads_match_scalar(mesh, blocked)

    def test_conditions_match_scalar(self, random_case):
        mesh, source, _, blocked, dests = random_case
        levels = batch_safety_levels(blocked)
        region = Rect(source[0], mesh.n - 1, source[1], mesh.m - 1)
        pivots = recursive_center_pivots(region, 3)
        pivot_arr = np.array(pivots, dtype=np.int64).reshape(-1, 2)
        safe = batch_pattern_is_safe(levels, source, dests)
        ext1_min = batch_pattern_extension1(
            blocked, levels, source, dests, allow_sub_minimal=False
        )
        ext1_sub = batch_pattern_extension1(
            blocked, levels, source, dests, allow_sub_minimal=True
        )
        ext2 = batch_pattern_extension2(levels, source, dests, 5, (mesh.n, mesh.m))
        ext3 = batch_pattern_extension3(blocked, levels, source, dests, pivot_arr)
        exists = batch_pattern_path_exists(blocked, source, dests)
        frame = Frame(origin=source)
        for b in range(N_PATTERNS):
            scalar = compute_safety_levels(mesh, blocked[b])
            east = build_axis_segments(mesh, scalar, frame, Direction.EAST, 5)
            north = build_axis_segments(mesh, scalar, frame, Direction.NORTH, 5)
            for i in range(dests.shape[1]):
                dest = (int(dests[b, i, 0]), int(dests[b, i, 1]))
                assert bool(safe[b, i]) == is_safe(scalar, source, dest)
                d_min = extension1_decision(
                    mesh, scalar, blocked[b], source, dest,
                    allow_sub_minimal=False,
                )
                d_sub = extension1_decision(
                    mesh, scalar, blocked[b], source, dest,
                    allow_sub_minimal=True,
                )
                assert bool(ext1_min[b, i]) == d_min.ensures_minimal
                assert bool(ext1_sub[b, i]) == d_sub.ensures_sub_minimal
                assert bool(ext2[b, i]) == extension2_decision_from_segments(
                    scalar, source, dest, east, north
                ).ensures_minimal
                assert bool(ext3[b, i]) == extension3_decision(
                    mesh, scalar, blocked[b], source, dest, pivots
                ).ensures_minimal
                assert bool(exists[b, i]) == minimal_path_exists(
                    blocked[b], source, dest
                )

    def test_random_pivots_per_pattern(self, random_case):
        """Ragged per-pattern pivot lists (the random schemes) via padding
        + validity mask match the scalar decision pattern for pattern."""
        mesh, source, _, blocked, dests = random_case
        levels = batch_safety_levels(blocked)
        rng = np.random.default_rng(7)
        region = Rect(0, mesh.n - 1, 0, mesh.m - 1)
        pivot_lists = [
            random_pivots(region, 2, rng) for _ in range(N_PATTERNS)
        ]
        padded, valid = _pad_pivots(pivot_lists)
        mask = batch_pattern_extension3(
            blocked, levels, source, dests, padded, pivot_valid=valid
        )
        for b in range(0, N_PATTERNS, 10):
            scalar = compute_safety_levels(mesh, blocked[b])
            for i in range(dests.shape[1]):
                dest = (int(dests[b, i, 0]), int(dests[b, i, 1]))
                expected = extension3_decision(
                    mesh, scalar, blocked[b], source, dest, pivot_lists[b]
                ).ensures_minimal
                assert bool(mask[b, i]) == expected, (b, i)


# ----------------------------------------------------------------------
# Generator-stream fidelity
# ----------------------------------------------------------------------


class TestUniformFaultsBatch:
    def test_bit_identical_over_100_seeds(self):
        """100 patterns of one batch, and each generator's next value,
        against a digest frozen when the scalar draw they were checked
        equal to still existed."""
        mesh = Mesh2D(16, 16)
        forbidden = {mesh.center}
        seeds = np.random.SeedSequence(1234).spawn(100)
        counts = [1 + (i * 7) % 40 for i in range(100)]
        batch_rngs = [np.random.default_rng(seed) for seed in seeds]
        grids = uniform_faults_batch(mesh, counts, batch_rngs, forbidden)
        digest = hashlib.sha256(grids.tobytes())
        digest.update(repr([int(rng.integers(1 << 30)) for rng in batch_rngs]).encode())
        assert digest.hexdigest() == (
            "fdf19b274ce9529449d4ed219ff5b8d7134b214f5a989fd3052be5c61c171603"
        )

    def test_random_pivot_replay_matches_random_pivots(self):
        """The experiment engine's pivot draw over bounds computed once
        per shard equals ``random_pivots``, and both match a digest of the
        pivots and each generator's next value frozen when the per-cell
        scalar draws still existed."""
        from repro.experiments.config import ExperimentConfig

        config = ExperimentConfig()
        region, levels = config.pivot_region, config.strategy_pivot_levels
        bounds = random_pivot_bounds(region, levels)
        digest = hashlib.sha256()
        for seed in range(250):
            replay_rng = np.random.default_rng(seed)
            rng = np.random.default_rng(seed)
            pivots = draw_random_pivots(bounds, replay_rng)
            assert pivots == random_pivots(region, levels, rng), seed
            next_value = replay_rng.random()
            assert next_value == rng.random(), seed
            digest.update(repr((pivots, next_value)).encode())
        assert digest.hexdigest() == (
            "c961e172130a44d8c230500f1113ed33cc107c705ac9e57fd844137b3cdac7bf"
        )

    def test_scalar_count_broadcasts(self):
        mesh = Mesh2D(8, 8)
        grids = uniform_faults_batch(mesh, 5, [1, 2, 3])
        assert grids.shape == (3, 8, 8)
        assert (grids.sum(axis=(1, 2)) == 5).all()


# ----------------------------------------------------------------------
# Stacked type-one MCC grids (the MCC model's "a" curves)
# ----------------------------------------------------------------------


MCC_SEEDS = range(8)


def _mcc_case(seed, side=14, faults=18, batch=4, dests=40):
    """A stack of random type-one MCC grids around one shared free source.

    Returns ``(mesh, grids, levels, reference, source, dests, rng)``:
    ``levels`` are the batched ESLs of the stack, ``reference[b]`` the
    scalar ``compute_safety_levels(mcc.blocked)`` of pattern ``b``, and
    ``dests`` ``(batch, k, 2)`` MCC-free cells over the whole mesh, so
    every quadrant relative to the source is exercised.
    """
    rng = np.random.default_rng(seed)
    mesh = Mesh2D(side, side)
    grids = np.stack(
        [
            build_mccs(mesh, uniform_faults(mesh, faults, rng), MCCType.TYPE_ONE).blocked
            for _ in range(batch)
        ]
    )
    free_everywhere = np.argwhere(~grids.any(axis=0))
    source = tuple(int(v) for v in free_everywhere[rng.integers(len(free_everywhere))])
    dest_arr = np.zeros((batch, dests, 2), dtype=np.int64)
    for b in range(batch):
        free = np.argwhere(~grids[b])
        dest_arr[b] = free[rng.integers(len(free), size=dests)]
    reference = [compute_safety_levels(mesh, grid) for grid in grids]
    return mesh, grids, batch_safety_levels(grids), reference, source, dest_arr, rng


def _each_dest(dests):
    for b in range(dests.shape[0]):
        for i in range(dests.shape[1]):
            yield b, i, (int(dests[b, i, 0]), int(dests[b, i, 1]))


class TestStackedMCCGrids:
    @pytest.mark.parametrize("seed", MCC_SEEDS)
    def test_esl_matches_scalar(self, seed):
        mesh, grids, _, _, _, _, _ = _mcc_case(seed)
        assert grids.any(axis=(1, 2)).all()
        _assert_reads_match_scalar(mesh, grids)

    @pytest.mark.parametrize("seed", MCC_SEEDS)
    def test_matches_scalar_definition3(self, seed):
        _, _, levels, reference, source, dests, _ = _mcc_case(seed)
        mask = batch_pattern_is_safe(levels, source, dests)
        for b, i, dest in _each_dest(dests):
            assert bool(mask[b, i]) == is_safe(reference[b], source, dest), (b, i)

    @pytest.mark.parametrize("seed", MCC_SEEDS)
    @pytest.mark.parametrize("allow_sub_minimal", [False, True])
    def test_matches_scalar_theorem1a(self, seed, allow_sub_minimal):
        mesh, grids, levels, reference, source, dests, _ = _mcc_case(seed)
        mask = batch_pattern_extension1(
            grids, levels, source, dests, allow_sub_minimal=allow_sub_minimal
        )
        for b, i, dest in _each_dest(dests):
            decision = extension1_decision(
                mesh, reference[b], grids[b], source, dest,
                allow_sub_minimal=allow_sub_minimal,
            )
            expected = (
                decision.ensures_sub_minimal if allow_sub_minimal else decision.ensures_minimal
            )
            assert bool(mask[b, i]) == expected, (b, i)

    @pytest.mark.parametrize("seed", MCC_SEEDS)
    @pytest.mark.parametrize("segment_size", [1, 3, None])
    def test_matches_scalar_theorem1b(self, seed, segment_size):
        mesh, _, levels, reference, source, dests, _ = _mcc_case(seed)
        mask = batch_pattern_extension2(levels, source, dests, segment_size, (mesh.n, mesh.m))
        frame = Frame(origin=source)
        for b, i, dest in _each_dest(dests):
            east = build_axis_segments(mesh, reference[b], frame, Direction.EAST, segment_size)
            north = build_axis_segments(
                mesh, reference[b], frame, Direction.NORTH, segment_size
            )
            expected = extension2_decision_from_segments(
                reference[b], source, dest, east, north
            ).ensures_minimal
            assert bool(mask[b, i]) == expected, (b, i)

    @pytest.mark.parametrize("seed", MCC_SEEDS)
    def test_matches_scalar_theorem1c_center_pivots(self, seed):
        mesh, grids, levels, reference, source, dests, _ = _mcc_case(seed)
        pivots = recursive_center_pivots(Rect(source[0], mesh.n - 1, source[1], mesh.m - 1), 3)
        pivot_arr = np.array(pivots, dtype=np.int64).reshape(-1, 2)
        mask = batch_pattern_extension3(grids, levels, source, dests, pivot_arr)
        for b, i, dest in _each_dest(dests):
            expected = extension3_decision(
                mesh, reference[b], grids[b], source, dest, pivots
            ).ensures_minimal
            assert bool(mask[b, i]) == expected, (b, i)

    @pytest.mark.parametrize("seed", MCC_SEEDS)
    def test_matches_scalar_theorem1c_random_pivots(self, seed):
        mesh, grids, levels, reference, source, dests, rng = _mcc_case(seed)
        region = Rect(0, mesh.n - 1, 0, mesh.m - 1)
        pivot_lists = [random_pivots(region, 3, rng) for _ in range(len(grids))]
        padded, valid = _pad_pivots(pivot_lists)
        mask = batch_pattern_extension3(grids, levels, source, dests, padded, pivot_valid=valid)
        for b, i, dest in _each_dest(dests):
            expected = extension3_decision(
                mesh, reference[b], grids[b], source, dest, pivot_lists[b]
            ).ensures_minimal
            assert bool(mask[b, i]) == expected, (b, i)

    def test_unmasked_pivot_outside_mesh_raises(self):
        mesh, grids, levels, _, source, dests, _ = _mcc_case(0)
        outside = np.array([(2, 2), (3, mesh.m)], dtype=np.int64)
        with pytest.raises(ValueError, match="outside"):
            batch_pattern_extension3(grids, levels, source, dests, outside)
        per_pattern = np.broadcast_to(outside, (len(grids),) + outside.shape)
        valid = np.ones(per_pattern.shape[:2], dtype=bool)
        with pytest.raises(ValueError, match="outside"):
            batch_pattern_extension3(
                grids, levels, source, dests, per_pattern, pivot_valid=valid
            )

    def test_masked_padding_pivot_outside_mesh_is_ignored(self):
        mesh, grids, levels, _, source, dests, _ = _mcc_case(0)
        inside = np.array([(2, 2), (mesh.n - 1, mesh.m - 1)], dtype=np.int64)
        padded = np.concatenate([inside, [(3, mesh.m)]])
        valid = np.array([True, True, False])
        batch = len(grids)
        mask = batch_pattern_extension3(
            grids, levels, source, dests,
            np.broadcast_to(padded, (batch,) + padded.shape),
            pivot_valid=np.broadcast_to(valid, (batch, 3)),
        )
        expected = batch_pattern_extension3(grids, levels, source, dests, inside)
        np.testing.assert_array_equal(mask, expected)

    def test_no_usable_pivots_reduces_to_definition3(self):
        _, grids, levels, _, source, dests, _ = _mcc_case(3)
        empty = np.zeros((0, 2), dtype=np.int64)
        mask = batch_pattern_extension3(grids, levels, source, dests, empty)
        safe = batch_pattern_is_safe(levels, source, dests)
        np.testing.assert_array_equal(mask, safe)

    @pytest.mark.parametrize("seed", MCC_SEEDS)
    def test_path_exists_matches_scalar(self, seed):
        _, grids, _, _, source, dests, _ = _mcc_case(seed)
        mask = batch_pattern_path_exists(grids, source, dests)
        for b, i, dest in _each_dest(dests):
            assert bool(mask[b, i]) == minimal_path_exists(grids[b], source, dest), (b, i)


# ----------------------------------------------------------------------
# Extension 3 reads only the pivot sides its destinations use
# ----------------------------------------------------------------------


#: Destination stacks by the quadrants they draw from, each quadrant as
#: (East-or-level, North-or-level) of the source, and the pivot sides
#: Extension 3 must read for them.
DEST_STACKS = {
    "north_east": (((True, True),), {Direction.EAST, Direction.NORTH}),
    "south_west": (((False, False),), {Direction.WEST, Direction.SOUTH}),
    "x_reversed": (((False, True),), {Direction.WEST, Direction.NORTH}),
    "mixed": (
        ((True, True), (False, True), (False, False), (True, False)),
        {Direction.EAST, Direction.SOUTH, Direction.WEST, Direction.NORTH},
    ),
}


def _one_sided_case(model, quadrants, seed=4, side=16, batch=5, per_quadrant=6):
    """``(mesh, grids, source, dests, rng)``: a stack of random faulty-block
    or type-one MCC grids around a shared free central source, with
    ``per_quadrant`` free destinations per pattern from each of
    ``quadrants``."""
    rng = np.random.default_rng(seed)
    mesh = Mesh2D(side, side)
    source = mesh.center
    grids = []
    while len(grids) < batch:
        faults = uniform_faults(mesh, 24, rng, forbidden={source})
        if model == "mcc":
            grid = build_mccs(mesh, faults, MCCType.TYPE_ONE).blocked
        else:
            grid = np.zeros((side, side), dtype=bool)
            grid[tuple(np.array(faults).T)] = True
            grid = walk_fixpoint(grid)
        if not grid[source]:
            grids.append(grid)
    grids = np.stack(grids)
    dests = np.zeros((batch, per_quadrant * len(quadrants), 2), dtype=np.int64)
    for b in range(batch):
        free = np.argwhere(~grids[b])
        free = free[(free[:, 0] != source[0]) | (free[:, 1] != source[1])]
        picks = []
        for east, north in quadrants:
            sel = free[((free[:, 0] >= source[0]) == east) & ((free[:, 1] >= source[1]) == north)]
            picks.append(sel[rng.integers(len(sel), size=per_quadrant)])
        dests[b] = np.concatenate(picks)
    return mesh, grids, source, dests, rng


class TestOneSidedPivotReads:
    """``batch_pattern_extension3`` reads a pivot level only on the sides
    some destination lies on, and still equals the scalar decision for
    every destination stack: all North-East of the source (the figures'
    case), all South-West, one axis reversed, and mixed."""

    @pytest.mark.parametrize("model", ["block", "mcc"])
    @pytest.mark.parametrize("stack", sorted(DEST_STACKS))
    @pytest.mark.parametrize("scheme", ["center", "random"])
    def test_matches_scalar_and_reads_only_used_sides(self, monkeypatch, model, stack, scheme):
        from repro.core.batched_patterns import BatchedSafetyLevels

        quadrants, sides = DEST_STACKS[stack]
        mesh, grids, source, dests, rng = _one_sided_case(model, quadrants)
        region = Rect(0, mesh.n - 1, 0, mesh.m - 1)
        if scheme == "center":
            center = recursive_center_pivots(region, 3)
            pivot_lists = [center] * len(grids)
            pivots, valid = np.array(center, dtype=np.int64), None
        else:
            pivot_lists = [random_pivots(region, 3, rng) for _ in range(len(grids))]
            pivots, valid = _pad_pivots(pivot_lists)
        read = []
        real = BatchedSafetyLevels.point_side

        def spy(self, px, py, side):
            read.append(side)
            return real(self, px, py, side)

        monkeypatch.setattr(BatchedSafetyLevels, "point_side", spy)
        mask = batch_pattern_extension3(
            grids, batch_safety_levels(grids), source, dests, pivots, pivot_valid=valid
        )
        assert set(read) == sides and len(read) == len(sides)
        for b, i, dest in _each_dest(dests):
            expected = extension3_decision(
                mesh, compute_safety_levels(mesh, grids[b]), grids[b], source, dest,
                pivot_lists[b],
            ).ensures_minimal
            assert bool(mask[b, i]) == expected, (b, i)


# ----------------------------------------------------------------------
# Definition 2's MCC labels in lockstep
# ----------------------------------------------------------------------


LABELS = (NodeStatus.USELESS, NodeStatus.CANT_REACH)


def _batch_statuses(faulty: np.ndarray, mcc_type: MCCType) -> np.ndarray:
    """The status stack rebuilt from the batched closures: a
    node in both closures reports USELESS."""
    useless, cant_reach = (
        batch_label_closure(faulty, _LABEL_RULES[(mcc_type, label)])
        for label in LABELS
    )
    status = np.zeros(faulty.shape, dtype=np.int8)
    status[faulty] = NodeStatus.FAULTY
    status[useless] = NodeStatus.USELESS
    status[cant_reach & ~useless] = NodeStatus.CANT_REACH
    return status


def _walk_label(faulty: np.ndarray, offsets) -> np.ndarray:
    """One label's closure by the scalar walk, ``extend_label`` seeded at
    every fault, faults excluded: the reference the lockstep closure is
    held to."""
    blocked = faulty.copy()
    xs, ys = np.nonzero(faulty)
    extend_label(blocked, offsets, zip(xs.tolist(), ys.tolist()))
    return blocked & ~faulty


def _assert_labels_match_scalar(faulty: np.ndarray, mcc_type: MCCType) -> None:
    """Both labels equal the scalar walk's closure, and the walks' status
    grid equals the one folded from ``label_closures`` and the one rebuilt
    from the batched closures, pattern by pattern; for type one, so does
    the experiment runner's blocked MCC grid."""
    from repro.experiments.runner import _mcc_grids

    walks = {}
    for label in LABELS:
        offsets = _LABEL_RULES[(mcc_type, label)]
        walks[label] = np.stack([_walk_label(grid, offsets) for grid in faulty])
        got = batch_label_closure(faulty, offsets)
        np.testing.assert_array_equal(got, walks[label], err_msg=str(label))
    expected = _status_grid(faulty, *(walks[label] for label in LABELS))
    np.testing.assert_array_equal(_batch_statuses(faulty, mcc_type), expected)
    statuses = np.stack([_status_grid(grid, *label_closures(grid, mcc_type)) for grid in faulty])
    np.testing.assert_array_equal(statuses, expected)
    if mcc_type is MCCType.TYPE_ONE:
        # The figure series cannot see can't-reach nodes (the goldens pass
        # without them), so the runner's grid is pinned here.
        np.testing.assert_array_equal(_mcc_grids(faulty), expected != NodeStatus.FAULT_FREE)


def _staircase(n: int, m: int) -> np.ndarray:
    """Faults on the top row and the east column: every other node is
    type-one useless, one anti-diagonal per round."""
    faulty = np.zeros((1, n, m), dtype=bool)
    faulty[0, :, m - 1] = True
    faulty[0, n - 1, :] = True
    return faulty


@pytest.mark.parametrize("mcc_type", list(MCCType), ids=lambda t: t.name.lower())
class TestMCCLabels:
    def test_every_4x4_pattern_in_one_batch(self, mcc_type):
        _assert_labels_match_scalar(_all_4x4_patterns(), mcc_type)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (2, 5)])
    def test_thin_meshes(self, mcc_type, shape):
        faulty = np.random.default_rng(sum(shape)).random((40,) + shape) < 0.4
        _assert_labels_match_scalar(faulty, mcc_type)

    @pytest.mark.parametrize("density", [0.05, 0.15, 0.3])
    def test_random_32x32_stacks(self, mcc_type, density):
        faulty = np.random.default_rng(int(density * 100)).random((12, SIDE, SIDE)) < density
        _assert_labels_match_scalar(faulty, mcc_type)

    @pytest.mark.parametrize("shape", [(2, 2), (5, 9), (9, 5), (32, 32)])
    def test_full_mesh_staircase(self, mcc_type, shape):
        # Stacked over a fault-free pattern, which is done after one round
        # but must come out unchanged from the lockstep rounds.
        faulty = np.concatenate([_staircase(*shape), np.zeros((1,) + shape, dtype=bool)])
        _assert_labels_match_scalar(faulty, mcc_type)


@pytest.mark.parametrize("shape", [(2, 2), (5, 9), (9, 5), (32, 32)])
def test_staircase_labels_every_node_in_n_plus_m_minus_2_rounds(monkeypatch, shape):
    from repro.core import batched_patterns

    shifts = []
    real = batched_patterns._shifted_batch

    def spy(*args):
        shifts.append(args)
        return real(*args)

    monkeypatch.setattr(batched_patterns, "_shifted_batch", spy)
    faulty = _staircase(*shape)
    offsets = _LABEL_RULES[(MCCType.TYPE_ONE, NodeStatus.USELESS)]
    useless = batch_label_closure(faulty, offsets)
    np.testing.assert_array_equal(useless, ~faulty)
    n, m = shape
    assert len(shifts) == 2 * (n + m - 2)  # two shifted reads per round


# ----------------------------------------------------------------------
# Strategies 1-4 as an OR of kernels (the figures' Figure 12 curves)
# ----------------------------------------------------------------------


class TestStrategyCurves:
    @pytest.mark.parametrize("model", ["block", "mcc"])
    def test_kernel_or_matches_strategy_decision(self, random_case, model):
        """Each Figure 12 curve's ``pattern_fn`` equals ``strategy_decision``
        per destination on the seeded 32x32 cases, under the figures'
        random per-pattern pivots and quadrant-I destinations."""
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.figures import fig12_metrics
        from repro.experiments.runner import PatternBatchContext

        mesh, source, faulty, blocked, _ = random_case
        if model == "mcc":
            grids = np.stack(
                [
                    build_mccs(mesh, [tuple(c) for c in np.argwhere(f)], MCCType.TYPE_ONE).blocked
                    for f in faulty
                ]
            )
        else:
            grids = blocked
        config = ExperimentConfig(mesh_side=SIDE, fault_counts=(40,))
        assert config.source == source
        rng = np.random.default_rng(5)
        dests = np.zeros((N_PATTERNS, 12, 2), dtype=np.int64)
        for b in range(N_PATTERNS):
            free = np.argwhere(~blocked[b])
            quadrant1 = free[(free[:, 0] >= source[0]) & (free[:, 1] >= source[1])]
            dests[b] = quadrant1[rng.integers(len(quadrant1), size=12)]
        pivot_lists = [
            random_pivots(config.pivot_region, config.strategy_pivot_levels, rng)
            for _ in range(N_PATTERNS)
        ]
        padded, valid = _pad_pivots(pivot_lists)
        pctx = PatternBatchContext(
            mesh=mesh, source=source, blocked=grids,
            levels=batch_safety_levels(grids), dests=dests,
            pivots_by_level={}, strategy_pivots=padded, strategy_valid=valid,
        )
        strategy_config = StrategyConfig(
            segment_size=config.strategy_segment_size,
            pivot_levels=config.strategy_pivot_levels,
            pivot_scheme="random",
        )
        suffix = "a" if model == "mcc" else ""
        metrics = {metric.name: metric for metric in fig12_metrics(config)}
        for strategy in Strategy:
            mask = metrics[f"strategy{strategy.value}{suffix}"].pattern_fn(pctx)
            for b in range(0, N_PATTERNS, 5):
                levels_b = compute_safety_levels(mesh, grids[b])
                for i in range(dests.shape[1]):
                    dest = (int(dests[b, i, 0]), int(dests[b, i, 1]))
                    expected = strategy_decision(
                        strategy, mesh, levels_b, grids[b], source, dest,
                        pivot_lists[b], strategy_config,
                    ).ensures_minimal
                    assert bool(mask[b, i]) == expected, (strategy, b, i)


def _pad_pivots(pivot_lists):
    width = max(len(p) for p in pivot_lists)
    padded = np.zeros((len(pivot_lists), width, 2), dtype=np.int64)
    valid = np.zeros((len(pivot_lists), width), dtype=bool)
    for b, pivots in enumerate(pivot_lists):
        padded[b, : len(pivots)] = pivots
        valid[b, : len(pivots)] = True
    return padded, valid


# ----------------------------------------------------------------------
# The view's read memo
# ----------------------------------------------------------------------


class TestReadMemo:
    def test_repeated_reads_scan_no_line(self, monkeypatch):
        from repro.core import batched_patterns

        _, grids, _, _, source, _, _ = _mcc_case(1)
        levels = batch_safety_levels(grids)
        scans = []
        real = batched_patterns._clear_run

        def spy(*args, **kwargs):
            scans.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(batched_patterns, "_clear_run", spy)
        first_node = levels.node(source)
        first_lines = levels.axis_lines(source)
        assert len(scans) == 6  # four node lines, two quadrant reductions
        assert levels.node(source) is first_node
        assert levels.axis_lines(source) is first_lines
        assert len(scans) == 6
        levels.node((source[0] + 1, source[1]))
        assert len(scans) == 10

    def test_kernels_leave_memoised_reads_intact(self):
        """Every condition kernel, run twice on one view, leaves each
        memoised read equal to the same read on a fresh view."""
        mesh, grids, levels, _, source, dests, rng = _mcc_case(2)
        region = Rect(source[0], mesh.n - 1, source[1], mesh.m - 1)
        center = np.array(recursive_center_pivots(region, 3), dtype=np.int64).reshape(-1, 2)
        padded, valid = _pad_pivots([random_pivots(region, 3, rng) for _ in range(len(grids))])
        for _ in range(2):
            batch_pattern_is_safe(levels, source, dests)
            for allow in (False, True):
                batch_pattern_extension1(grids, levels, source, dests, allow_sub_minimal=allow)
            for size in (None, 1, 3):
                batch_pattern_extension2(levels, source, dests, size, (mesh.n, mesh.m))
            batch_pattern_extension3(grids, levels, source, dests, center)
            batch_pattern_extension3(grids, levels, source, dests, padded, pivot_valid=valid)
        fresh = batch_safety_levels(grids)
        assert len(levels._reads) == 6  # the source, its four neighbours, its axis lines
        for (name, coord), memoised in levels._reads.items():
            for got, want in zip(memoised, getattr(fresh, name)(coord)):
                np.testing.assert_array_equal(got, want, err_msg=name)


# ----------------------------------------------------------------------
# Engine options
# ----------------------------------------------------------------------


class TestEngineEquivalence:
    @pytest.fixture(scope="class")
    def tiny_config(self):
        from repro.experiments import ExperimentConfig

        return ExperimentConfig.scaled(20, 3, 5, seed=31)

    def test_unknown_engine_rejected(self, tiny_config):
        from repro.experiments.figures import fig9_extension1

        for engine in ("warp", "batched", "scalar"):
            with pytest.raises(ValueError, match="engine"):
                fig9_extension1(tiny_config, engine=engine)
