"""Unit tests for the faulty block model (Definition 1)."""

import numpy as np
import pytest

from repro.core.batched_patterns import batch_disable_fixpoint
from repro.faults.blocks import build_faulty_blocks, spread_disabled
from repro.mesh.geometry import Rect
from repro.mesh.topology import Mesh2D

from tests.conftest import FIGURE1_FAULTS, random_block_set


def walk_fixpoint(faulty: np.ndarray) -> np.ndarray:
    """Definition 1's fixpoint by the scalar walk, ``spread_disabled``
    seeded at every fault: the reference the lockstep fixpoint is held
    to."""
    unusable = faulty.copy()
    xs, ys = np.nonzero(faulty)
    spread_disabled(unusable, zip(xs.tolist(), ys.tolist()))
    return unusable


def _dense(faulty: np.ndarray) -> np.ndarray:
    """``batch_disable_fixpoint`` as a batch of one, as
    ``build_faulty_blocks`` runs it."""
    return batch_disable_fixpoint(faulty[None])[0]


class TestPaperExample:
    """The worked example of paper Figure 1 (a)."""

    def test_eight_faults_form_the_paper_block(self, figure1_blocks):
        assert len(figure1_blocks) == 1
        assert figure1_blocks.blocks[0].rect == Rect(2, 6, 3, 6)

    def test_faulty_and_disabled_partition_the_rectangle(self, figure1_blocks):
        block = figure1_blocks.blocks[0]
        assert block.num_faulty == len(FIGURE1_FAULTS)
        assert block.num_faulty + block.num_disabled == block.rect.area
        assert set(block.faulty) | set(block.disabled) == set(block.rect.coords())

    def test_grid_accessors(self, figure1_blocks):
        assert figure1_blocks.faulty[3, 3]
        assert figure1_blocks.is_unusable((4, 3))  # disabled corner-fill
        assert not figure1_blocks.faulty[4, 3]
        assert not figure1_blocks.is_unusable((0, 0))
        assert figure1_blocks.block_at((4, 5)) is figure1_blocks.blocks[0]
        assert figure1_blocks.block_at((0, 0)) is None


class TestDisableRule:
    def test_no_faults_no_disabling(self):
        mesh = Mesh2D(6, 6)
        blocks = build_faulty_blocks(mesh, [])
        assert len(blocks) == 0
        assert blocks.num_faulty == 0 and blocks.num_disabled == 0

    def test_single_fault_is_own_block(self):
        blocks = build_faulty_blocks(Mesh2D(6, 6), [(2, 3)])
        assert len(blocks) == 1
        assert blocks.blocks[0].rect == Rect(2, 2, 3, 3)
        assert blocks.blocks[0].num_disabled == 0

    def test_diagonal_faults_fill_square(self):
        """Two diagonal faults pinch both off-diagonal nodes."""
        blocks = build_faulty_blocks(Mesh2D(6, 6), [(1, 1), (2, 2)])
        assert len(blocks) == 1
        assert blocks.blocks[0].rect == Rect(1, 2, 1, 2)
        assert blocks.blocks[0].num_disabled == 2

    def test_same_dimension_neighbors_do_not_disable(self):
        """Faults at (x, y-1) and (x, y+1) are in the same dimension."""
        blocks = build_faulty_blocks(Mesh2D(6, 6), [(2, 1), (2, 3)])
        assert len(blocks) == 2
        assert not blocks.is_unusable((2, 2))

    def test_staircase_fills_bounding_square(self):
        blocks = build_faulty_blocks(Mesh2D(8, 8), [(1, 1), (2, 2), (3, 3)])
        assert len(blocks) == 1
        assert blocks.blocks[0].rect == Rect(1, 3, 1, 3)
        assert blocks.blocks[0].num_disabled == 9 - 3

    def test_corner_of_mesh_fills(self):
        """Faults at (0,1) and (1,0) disable the mesh corner (0,0)."""
        blocks = build_faulty_blocks(Mesh2D(6, 6), [(0, 1), (1, 0)])
        assert blocks.is_unusable((0, 0))
        assert blocks.is_unusable((1, 1))
        assert blocks.blocks[0].rect == Rect(0, 1, 0, 1)

    def test_touching_blocks_merge(self):
        """Side-by-side faults connect into a single block."""
        blocks = build_faulty_blocks(Mesh2D(8, 8), [(2, 2), (3, 2)])
        assert len(blocks) == 1
        assert blocks.blocks[0].rect == Rect(2, 3, 2, 2)

    def test_gap_of_one_in_same_dimension_stays_separate(self):
        blocks = build_faulty_blocks(Mesh2D(8, 8), [(2, 2), (4, 2)])
        assert len(blocks) == 2
        assert not blocks.is_unusable((3, 2))

    def test_fixpoint_is_idempotent(self, rng):
        mesh = Mesh2D(30, 30)
        faulty = np.zeros((30, 30), dtype=bool)
        for _ in range(40):
            faulty[rng.integers(0, 30), rng.integers(0, 30)] = True
        once = _dense(faulty)
        twice = _dense(once)
        assert np.array_equal(once, twice)


class TestBlockSetInvariants:
    @pytest.mark.parametrize("num_faults", [5, 25, 60])
    def test_random_blocks_are_disjoint_rectangles(self, rng, num_faults):
        mesh = Mesh2D(40, 40)
        for _ in range(5):
            blocks = random_block_set(mesh, num_faults, rng)
            # Definition 1 converged without the defensive completion.
            assert blocks.rectangularization_rounds == 0
            # Components exactly fill their rectangles and never overlap.
            covered = np.zeros((mesh.n, mesh.m), dtype=bool)
            for block in blocks:
                for coord in block.rect.coords():
                    assert blocks.unusable[coord]
                    assert not covered[coord]
                    covered[coord] = True
            assert np.array_equal(covered, blocks.unusable)

    def test_block_id_grid_matches_blocks(self, rng):
        mesh = Mesh2D(30, 30)
        blocks = random_block_set(mesh, 30, rng)
        for index, block in enumerate(blocks):
            for coord in block.rect.coords():
                assert blocks.block_id[coord] == index

    def test_counts(self, figure1_blocks):
        assert figure1_blocks.num_faulty == 8
        assert figure1_blocks.num_disabled == 20 - 8
        assert figure1_blocks.average_disabled_per_block() == 12.0

    def test_average_disabled_empty(self):
        blocks = build_faulty_blocks(Mesh2D(5, 5), [])
        assert blocks.average_disabled_per_block() == 0.0

    def test_out_of_bounds_fault_raises(self):
        with pytest.raises(ValueError):
            build_faulty_blocks(Mesh2D(5, 5), [(5, 0)])


class TestImplementationCrossValidation:
    """The dense full-grid fixpoint (``batch_disable_fixpoint``, which
    ``build_faulty_blocks`` runs as a batch of one) must equal the scalar
    walk seeded at every fault, and the walk seeded from one more fault
    must reach the dense fixpoint of the grown fault set; the
    run-labelled components must be the 4-connected components by their
    defining properties."""

    def _random_masks(self, count=40, seed=123):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n = int(rng.integers(1, 24))
            m = int(rng.integers(1, 24))
            density = rng.uniform(0.0, 0.6)
            yield rng.random((n, m)) < density

    def test_frontier_fixpoint_matches_dense(self):
        """Each random mask is checked twice: from scratch, and in the
        incremental engine's form -- from its fixpoint one more cell turns
        unusable and ``spread_disabled`` from that cell alone must reach
        the dense fixpoint of the grown fault set."""
        rng = np.random.default_rng(456)
        for faulty in self._random_masks():
            unusable = walk_fixpoint(faulty)
            assert np.array_equal(unusable, _dense(faulty))
            free = np.argwhere(~unusable)
            if not len(free):
                continue
            x, y = (int(v) for v in free[rng.integers(len(free))])
            before = unusable.copy()
            unusable[x, y] = True
            newly = spread_disabled(unusable, [(x, y)])
            grown = faulty.copy()
            grown[x, y] = True
            assert np.array_equal(unusable, _dense(grown))
            changed = {(int(a), int(b)) for a, b in np.argwhere(unusable != before)}
            assert changed == {(x, y), *newly}

    def test_frontier_fixpoint_structured_cases(self):
        cases = [
            np.zeros((5, 5), dtype=bool),  # no faults
            np.ones((4, 4), dtype=bool),  # everything faulty
            np.eye(8, dtype=bool),  # diagonal: cascades to the full square
        ]
        checker = np.zeros((6, 6), dtype=bool)
        checker[::2, ::2] = True
        cases.append(checker)
        for faulty in cases:
            assert np.array_equal(walk_fixpoint(faulty), _dense(faulty))

    def test_run_components_are_the_4_connected_components(self):
        """Components partition the mask, each is 4-connected, and no two
        are 4-adjacent."""
        from repro.faults.blocks import _connected_components

        def neighbours(x, y):
            return ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1))

        for mask in self._random_masks(seed=321):
            components = _connected_components(mask)
            label = {}
            for index, cells in enumerate(components):
                for cell in cells:
                    assert cell not in label  # disjoint
                    label[cell] = index
            xs, ys = np.nonzero(mask)
            assert set(label) == set(zip(xs.tolist(), ys.tolist()))  # covering
            for index, cells in enumerate(components):
                members = set(cells)
                reached, stack = {cells[0]}, [cells[0]]
                while stack:
                    for nb in neighbours(*stack.pop()):
                        if nb in members and nb not in reached:
                            reached.add(nb)
                            stack.append(nb)
                assert reached == members  # 4-connected
                for cell in cells:
                    for nb in neighbours(*cell):
                        assert label.get(nb, index) == index  # maximal
