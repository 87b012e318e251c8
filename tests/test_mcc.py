"""Unit tests for the MCC model (Definition 2), against the paper's
Figure 1 worked example."""

import numpy as np
import pytest

from repro.faults.blocks import build_faulty_blocks
from repro.faults.mcc import (
    MCCType,
    NodeStatus,
    build_mccs,
)
from repro.mesh.geometry import Rect
from repro.mesh.topology import Mesh2D

from tests.conftest import FIGURE1_FAULTS

MESH10 = Mesh2D(10, 10)


@pytest.fixture
def type_one():
    return build_mccs(MESH10, FIGURE1_FAULTS, MCCType.TYPE_ONE)


@pytest.fixture
def type_two():
    return build_mccs(MESH10, FIGURE1_FAULTS, MCCType.TYPE_TWO)


class TestFigure1Example:
    """Paper Figure 1 (b) and (c): the MCCs of the [2:6, 3:6] block.

    Node-status claims in the paper's prose: (2,6) is (fault-free,
    disabled), (4,5) is (disabled, disabled), (2,3) is (disabled,
    fault-free).  The prose also claims (4,3) is (fault-free, fault-free),
    but that is a typo: (4,3)'s North neighbour (4,4) and West neighbour
    (3,3) are both *faulty*, so a quadrant-II minimal route entering (4,3)
    must leave East or South -- by Definition 2 it is useless for type two.
    We assert the definition, not the typo.
    """

    def test_type_one_removes_nw_and_se_corner_sections(self, type_one):
        # SE corner section of the block stays usable ...
        for coord in [(4, 3), (5, 3), (6, 3)]:
            assert not type_one.is_blocked(coord)
        # ... as does the NW corner section.
        assert not type_one.is_blocked((2, 6))
        # The NE corner section is can't-reach / blocked.
        for coord in [(4, 5), (4, 6), (5, 6), (6, 5), (6, 6), (3, 5)]:
            assert type_one.is_blocked(coord)
        # The SW corner section is useless / blocked.
        for coord in [(2, 3), (2, 4)]:
            assert type_one.is_blocked(coord)

    def test_type_two_removes_sw_and_ne_corner_sections(self, type_two):
        for coord in [(2, 3), (2, 4)]:  # SW stays usable
            assert not type_two.is_blocked(coord)
        for coord in [(4, 6), (5, 6), (6, 6), (6, 5)]:  # NE stays usable
            assert not type_two.is_blocked(coord)
        for coord in [(4, 3), (5, 3), (6, 3)]:  # SE section blocked
            assert type_two.is_blocked(coord)
        assert type_two.is_blocked((2, 6))  # NW section blocked

    def test_paper_status_pairs(self, type_one, type_two):
        def pair(coord):
            return (type_one.is_blocked(coord), type_two.is_blocked(coord))

        assert pair((2, 6)) == (False, True)
        assert pair((4, 5)) == (True, True)
        assert pair((2, 3)) == (True, False)
        # The corrected (4, 3): fault-free for type one, useless for type two.
        assert pair((4, 3)) == (False, True)
        assert type_two.status_at((4, 3)) is NodeStatus.USELESS

    def test_specific_labels_type_one(self, type_one):
        assert type_one.status_at((2, 4)) is NodeStatus.USELESS
        assert type_one.status_at((2, 3)) is NodeStatus.USELESS
        assert type_one.status_at((4, 5)) is NodeStatus.CANT_REACH
        assert type_one.status_at((6, 6)) is NodeStatus.CANT_REACH
        assert type_one.status_at((3, 3)) is NodeStatus.FAULTY
        assert type_one.status_at((0, 0)) is NodeStatus.FAULT_FREE

    def test_dual_label_node_reports_useless(self, type_two):
        # (3,5) satisfies both closures for type two; one status is reported
        # but the node is blocked either way.
        assert type_two.is_blocked((3, 5))
        assert type_two.status_at((3, 5)) is NodeStatus.USELESS

    def test_mcc_smaller_than_faulty_block(self, type_one, type_two):
        block = build_faulty_blocks(MESH10, FIGURE1_FAULTS)
        assert type_one.num_disabled == 8
        assert type_two.num_disabled == 6
        assert block.num_disabled == 12
        assert type_one.num_disabled < block.num_disabled
        assert type_two.num_disabled < block.num_disabled

    def test_single_connected_component(self, type_one):
        assert len(type_one) == 1
        component = type_one.components[0]
        assert component.rect == Rect(2, 6, 3, 6)
        assert component.size == 8 + 8

    def test_components_are_orthogonally_convex(self, type_one, type_two):
        for mcc_set in (type_one, type_two):
            for component in mcc_set:
                assert component.is_orthogonally_convex()


class TestClosureSemantics:
    def test_no_faults_no_labels(self):
        mccs = build_mccs(Mesh2D(6, 6), [], MCCType.TYPE_ONE)
        assert len(mccs) == 0
        assert not mccs.blocked.any()

    def test_single_fault_stays_alone(self):
        mccs = build_mccs(Mesh2D(6, 6), [(2, 2)], MCCType.TYPE_ONE)
        assert mccs.num_disabled == 0
        assert len(mccs) == 1

    def test_useless_chain_propagates_southwest(self):
        """A NE wall of faults makes the pocket node useless (type one)."""
        # Faults at (1,2) and (2,1) pocket (1,1): N=(1,2) faulty, E=(2,1) faulty.
        mccs = build_mccs(Mesh2D(6, 6), [(1, 2), (2, 1)], MCCType.TYPE_ONE)
        assert mccs.status_at((1, 1)) is NodeStatus.USELESS
        # And the propagation continues: (0,1)'s E=(1,1) useless, N=(0,2)? free.
        assert mccs.status_at((0, 1)) is NodeStatus.FAULT_FREE

    def test_cant_reach_chain_propagates_northeast(self):
        mccs = build_mccs(Mesh2D(6, 6), [(1, 2), (2, 1)], MCCType.TYPE_ONE)
        assert mccs.status_at((2, 2)) is NodeStatus.CANT_REACH

    def test_mesh_edges_count_as_healthy(self):
        """A corner node with a single faulty neighbour is not labelled."""
        mccs = build_mccs(Mesh2D(6, 6), [(0, 1)], MCCType.TYPE_ONE)
        assert mccs.status_at((0, 0)) is NodeStatus.FAULT_FREE
        mccs = build_mccs(Mesh2D(6, 6), [(1, 0)], MCCType.TYPE_ONE)
        assert mccs.status_at((0, 0)) is NodeStatus.FAULT_FREE

    def test_closure_matches_naive_fixpoint(self, rng):
        """The worklist closure equals a brute-force fixpoint computation."""
        mesh = Mesh2D(15, 15)
        for _ in range(10):
            faulty = np.zeros((15, 15), dtype=bool)
            count = int(rng.integers(1, 20))
            for _ in range(count):
                faulty[rng.integers(0, 15), rng.integers(0, 15)] = True
            for mcc_type in MCCType:
                faults = [tuple(cell) for cell in np.argwhere(faulty).tolist()]
                blocked = build_mccs(mesh, faults, mcc_type).blocked
                naive = _naive_blocked(mesh, faulty, mcc_type)
                assert np.array_equal(blocked, naive), f"{mcc_type} mismatch"

    def test_build_status_pairs(self):
        one, two = (build_mccs(MESH10, FIGURE1_FAULTS, t) for t in MCCType)
        assert one.mcc_type is MCCType.TYPE_ONE
        assert two.mcc_type is MCCType.TYPE_TWO
        assert np.array_equal(one.faulty, two.faulty)

    def test_component_lookup(self, rng):
        mesh = Mesh2D(20, 20)
        faults = [(2, 2), (3, 3), (10, 10)]
        mccs = build_mccs(mesh, faults, MCCType.TYPE_ONE)
        for index, component in enumerate(mccs):
            for coord in component.coords:
                assert mccs.component_id[coord] == index
        assert mccs.component_id[0, 19] == -1


def _naive_blocked(mesh, faulty, mcc_type):
    """Brute-force Definition 2 fixpoint for cross-validation."""
    from repro.faults.mcc import _LABEL_RULES

    blocked_total = faulty.copy()
    for label in (NodeStatus.USELESS, NodeStatus.CANT_REACH):
        (ax, ay), (bx, by) = _LABEL_RULES[(mcc_type, label)]
        blocked = faulty.copy()
        changed = True
        while changed:
            changed = False
            for x in range(mesh.n):
                for y in range(mesh.m):
                    if blocked[x, y]:
                        continue
                    a_ok = 0 <= x + ax < mesh.n and 0 <= y + ay < mesh.m and blocked[x + ax, y + ay]
                    b_ok = 0 <= x + bx < mesh.n and 0 <= y + by < mesh.m and blocked[x + bx, y + by]
                    if a_ok and b_ok:
                        blocked[x, y] = True
                        changed = True
        blocked_total |= blocked
    return blocked_total


class TestLabelledOnce:
    def test_tracked_type_labels_each_closure_once(self, monkeypatch, rng):
        """Building an engine that tracks one MCC type labels each of
        Definition 2's two closures once: the state keeps the label grids
        its build computed instead of labelling again."""
        from repro.core import batched_patterns
        from repro.faults import incremental
        from repro.faults.incremental import IncrementalFaultEngine
        from repro.faults.injection import uniform_faults

        calls = []
        closure = batched_patterns.batch_label_closure

        def counting(faulty, offsets):
            calls.append(offsets)
            return closure(faulty, offsets)

        monkeypatch.setattr(batched_patterns, "batch_label_closure", counting)
        monkeypatch.setattr(incremental, "batch_label_closure", counting, raising=False)
        mesh = Mesh2D(24, 24)
        faults = uniform_faults(mesh, 40, rng)
        engine = IncrementalFaultEngine(mesh, faults, mcc_types=(MCCType.TYPE_ONE,))
        assert len(calls) == 2
        built = build_mccs(mesh, faults, MCCType.TYPE_ONE)
        tracked = engine.mcc_set(MCCType.TYPE_ONE)
        for got, want in zip(tracked.labels, built.labels):
            assert np.array_equal(got, want)
