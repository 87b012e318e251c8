"""Property-based tests (hypothesis) for the core invariants.

These pin the load-bearing claims of the reproduction on randomized inputs:

- Definition 1's fixpoint yields disjoint rectangles (no completion needed).
- Wang's coverage condition == the monotone DP (necessary & sufficient).
- MCC-avoidance existence == faulty-only existence (Wang's MCC theorem).
- Theorem 1 soundness: safe => minimal path exists => Wu's protocol
  delivers in exactly D hops.
- ESL region identity: E + W + 1 equals the free-run length of the row.
- Frames and reflections are involutions.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.conditions import is_safe
from repro.core.routing import WuRouter
from repro.core.safety import UNBOUNDED, compute_safety_levels
from repro.faults.blocks import build_faulty_blocks
from repro.faults.coverage import minimal_path_exists, minimal_path_exists_wang
from repro.faults.mcc import MCCType, build_mccs
from repro.mesh.frames import Frame
from repro.mesh.geometry import Rect
from repro.mesh.topology import Mesh2D

SIDE = 16
MESH = Mesh2D(SIDE, SIDE)

coords = st.tuples(st.integers(0, SIDE - 1), st.integers(0, SIDE - 1))
fault_sets = st.lists(coords, min_size=0, max_size=24, unique=True)

COMMON = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@COMMON
@given(faults=fault_sets)
def test_blocks_are_disjoint_rectangles(faults):
    blocks = build_faulty_blocks(MESH, faults)
    assert blocks.rectangularization_rounds == 0
    covered = np.zeros((SIDE, SIDE), dtype=bool)
    for block in blocks:
        for coord in block.rect.coords():
            assert blocks.unusable[coord]
            assert not covered[coord]
            covered[coord] = True
    assert np.array_equal(covered, blocks.unusable)


@COMMON
@given(faults=fault_sets)
def test_blocks_never_touch(faults):
    """Converged blocks are separated (touching regions would have merged)."""
    rects = build_faulty_blocks(MESH, faults).rects()
    for i, a in enumerate(rects):
        for b in rects[i + 1 :]:
            grown = Rect(a.xmin - 1, a.xmax + 1, a.ymin - 1, a.ymax + 1)
            assert not grown.intersects(b)


@COMMON
@given(faults=fault_sets, source=coords, dest=coords)
def test_wang_equals_dp(faults, source, dest):
    blocks = build_faulty_blocks(MESH, faults)
    dp = minimal_path_exists(blocks.unusable, source, dest)
    wang = minimal_path_exists_wang(blocks.rects(), source, dest)
    assert dp == wang


@COMMON
@given(faults=fault_sets, source=coords, dest=coords)
def test_mcc_preserves_minimal_reachability(faults, source, dest):
    """Wang's MCC theorem: blocking the MCC nodes removes no minimal path.

    For a quadrant-I/III pair, a minimal path avoiding only the faulty
    nodes exists iff one avoiding the whole type-one MCC does.
    """
    frame = Frame.for_pair(source, dest)
    mcc_type = MCCType.TYPE_ONE if frame.flip_x == frame.flip_y else MCCType.TYPE_TWO
    mccs = build_mccs(MESH, faults, mcc_type)
    if mccs.is_blocked(source) or mccs.is_blocked(dest):
        return  # endpoints must be usable in both models to compare
    faulty_only = mccs.faulty
    assert minimal_path_exists(faulty_only, source, dest) == minimal_path_exists(
        mccs.blocked, source, dest
    )


@COMMON
@given(faults=fault_sets, source=coords, dest=coords)
def test_theorem1_end_to_end(faults, source, dest):
    """Safe => oracle agrees => Wu's protocol delivers minimally."""
    blocks = build_faulty_blocks(MESH, faults)
    if blocks.is_unusable(source) or blocks.is_unusable(dest):
        return
    levels = compute_safety_levels(MESH, blocks.unusable)
    if not is_safe(levels, source, dest):
        return
    assert minimal_path_exists(blocks.unusable, source, dest)
    path = WuRouter(MESH, blocks).route(source, dest)
    assert path.is_minimal
    assert path.avoids(blocks.unusable)


@COMMON
@given(faults=fault_sets)
def test_esl_region_identity(faults):
    """Within a row, E + W + 1 equals the length of the node's free run."""
    blocks = build_faulty_blocks(MESH, faults)
    levels = compute_safety_levels(MESH, blocks.unusable)
    unusable = blocks.unusable
    for y in range(SIDE):
        run_start = 0
        x = 0
        while x < SIDE:
            if unusable[x, y]:
                run_start = x + 1
                x += 1
                continue
            run_end = x
            while run_end + 1 < SIDE and not unusable[run_end + 1, y]:
                run_end += 1
            touches_edge = run_start == 0 or run_end == SIDE - 1
            for cx in range(run_start, run_end + 1):
                east, _, west, _ = levels.esl((cx, y))
                if touches_edge:
                    assert east == UNBOUNDED or west == UNBOUNDED
                if east != UNBOUNDED and west != UNBOUNDED:
                    assert east + west + 1 == run_end - run_start + 1
            x = run_end + 1
            run_start = x


@COMMON
@given(source=coords, dest=coords, probe=coords)
def test_frame_is_involution(source, dest, probe):
    frame = Frame.for_pair(source, dest)
    assert frame.to_global(frame.to_local(probe)) == probe
    lx, ly = frame.to_local(dest)
    assert lx >= 0 and ly >= 0


@COMMON
@given(
    xmin=st.integers(0, SIDE - 1),
    ymin=st.integers(0, SIDE - 1),
    width=st.integers(1, 6),
    height=st.integers(1, 6),
    probe=coords,
)
def test_rect_membership_consistency(xmin, ymin, width, height, probe):
    rect = Rect(xmin, min(xmin + width - 1, SIDE - 1), ymin, min(ymin + height - 1, SIDE - 1))
    assert rect.contains(probe) == (probe in set(rect.coords()))


@COMMON
@given(faults=fault_sets)
def test_mcc_subset_of_block(faults):
    """MCCs refine blocks: every MCC node lies inside some faulty block."""
    blocks = build_faulty_blocks(MESH, faults)
    for mcc_type in MCCType:
        mccs = build_mccs(MESH, faults, mcc_type)
        assert not (mccs.blocked & ~blocks.unusable).any()


@COMMON
@given(faults=fault_sets)
def test_mcc_components_orthogonally_convex(faults):
    for mcc_type in MCCType:
        for component in build_mccs(MESH, faults, mcc_type):
            assert component.is_orthogonally_convex()
