"""The batched kernels on strict numpy inputs, and the shift helper against
a naive index loop.

A *strict* input is a read-only, non-contiguous view of a copy of the
data (:func:`_strict`).  The kernels meet such arrays in practice --
``np.broadcast_to`` views of pivots and offsets, slices of destination
stacks -- so each must accept one without writing into it or assuming C
order, and return exactly what it returns for the plain array.

The shift helper behind both fixpoints (``_shifted_batch``) is
parametrised over shifts and shapes against a naive index loop, on plain
and strict inputs.  Every cross-pattern kernel then runs end to end on
strict inputs and is compared against the plain run; the plain runs are
checked against the scalar reference in ``test_batched_patterns.py``.
"""

import numpy as np
import pytest

from repro.core.batched_patterns import (
    _shifted_batch,
    batch_disable_fixpoint,
    batch_label_closure,
    batch_pattern_extension1,
    batch_pattern_extension2,
    batch_pattern_extension3,
    batch_pattern_is_safe,
    batch_pattern_path_exists,
    batch_reachability_map,
    batch_safety_levels,
)
from repro.core.safety import compute_safety_levels
from repro.faults.mcc import _LABEL_RULES
from repro.mesh.geometry import ESL_ORDER
from repro.mesh.topology import Mesh2D


def _strict(array: np.ndarray) -> np.ndarray:
    """A read-only view of a copy of ``array``, strided along every axis."""
    array = np.asarray(array)
    spread = np.zeros(tuple(2 * k for k in array.shape), dtype=array.dtype)
    view = spread[tuple(slice(None, None, 2) for _ in array.shape)]
    view[...] = array
    view.flags.writeable = False
    return view


def test_strict_inputs_are_read_only_strided_copies():
    data = np.arange(6).reshape(2, 3)
    view = _strict(data)
    np.testing.assert_array_equal(view, data)
    assert not view.flags.writeable and not view.flags.c_contiguous
    assert not np.shares_memory(view, data)


# ----------------------------------------------------------------------
# The shift helper, against a naive index loop
# ----------------------------------------------------------------------


def _naive_shift(mask: np.ndarray, dx: int, dy: int) -> np.ndarray:
    batch, n, m = mask.shape
    out = np.zeros_like(mask)
    for b in range(batch):
        for x in range(n):
            for y in range(m):
                if 0 <= x + dx < n and 0 <= y + dy < m:
                    out[b, x, y] = mask[b, x + dx, y + dy]
    return out


SHAPES = [(1, 1, 1), (2, 1, 7), (3, 5, 2)]
INPUTS = {"numpy": np.asarray, "strict": _strict}


def _shift(inputs: str, mask: np.ndarray, dx: int, dy: int) -> np.ndarray:
    out = _shifted_batch(INPUTS[inputs](mask), dx, dy)
    assert type(out) is np.ndarray
    return out


@pytest.mark.parametrize("inputs", list(INPUTS))
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("dx, dy", [(dx, dy) for dx in range(-2, 3) for dy in range(-2, 3)])
def test_shifted_batch_matches_index_loop(inputs, shape, dx, dy):
    mask = np.random.default_rng(sum(shape)).random(shape) < 0.5
    got = _shift(inputs, mask, dx, dy)
    assert got.shape == shape and got.dtype == np.bool_
    np.testing.assert_array_equal(got, _naive_shift(mask, dx, dy))


@pytest.mark.parametrize("inputs", list(INPUTS))
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("axis", [1, 2])
@pytest.mark.parametrize("factor", [1, 1.5, 2, -1, -1.5, -2])
def test_shift_at_least_the_axis_length_reads_nothing(inputs, shape, axis, factor):
    step = int(factor * shape[axis])
    dx, dy = (step, 0) if axis == 1 else (0, step)
    got = _shift(inputs, np.ones(shape, dtype=bool), dx, dy)
    assert got.shape == shape and not got.any()


# ----------------------------------------------------------------------
# Kernels on strict inputs
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def case():
    """A seeded random (faulty, blocked, source, dests) case."""
    rng = np.random.default_rng(21)
    batch, n, m = 12, 18, 18
    faulty = rng.random((batch, n, m)) < 0.05
    source = (n // 2, m // 2)
    faulty[:, source[0], source[1]] = False
    blocked = batch_disable_fixpoint(faulty)
    # keep the source usable so condition semantics match the protocol
    blocked[:, source[0], source[1]] = False
    dests = rng.integers(0, n, size=(batch, 16, 2)).astype(np.int64)
    return faulty, blocked, source, dests


def test_formation_strict_matches_numpy(case):
    faulty, _, _, _ = case
    strict_out = batch_disable_fixpoint(_strict(faulty))
    assert type(strict_out) is np.ndarray
    np.testing.assert_array_equal(strict_out, batch_disable_fixpoint(faulty))


@pytest.mark.parametrize("rule", list(_LABEL_RULES), ids=lambda r: f"{r[0].name}-{r[1].name}")
def test_label_closure_strict_matches_numpy(rule):
    faulty = np.random.default_rng(5).random((12, 18, 18)) < 0.25
    strict_out = batch_label_closure(_strict(faulty), _LABEL_RULES[rule])
    assert type(strict_out) is np.ndarray
    numpy_out = batch_label_closure(faulty, _LABEL_RULES[rule])
    assert numpy_out.any()
    np.testing.assert_array_equal(strict_out, numpy_out)


def test_safety_levels_strict_matches_numpy(case):
    """Node, point and axis-line ESL reads at every node, strict vs numpy."""
    _, blocked, _, _ = case
    batch, n, m = blocked.shape
    strict_levels = batch_safety_levels(_strict(blocked))
    numpy_levels = batch_safety_levels(blocked)
    pairs = []
    for x in range(n):
        for y in range(m):
            pairs += zip(numpy_levels.node((x, y)), strict_levels.node((x, y)))
            pairs += zip(numpy_levels.axis_lines((x, y)), strict_levels.axis_lines((x, y)))
    xs, ys = np.meshgrid(np.arange(n), np.arange(m), indexing="ij")
    px = np.broadcast_to(xs.reshape(1, -1), (batch, n * m))
    py = np.broadcast_to(ys.reshape(1, -1), (batch, n * m))
    pairs += (
        (numpy_levels.point_side(px, py, side),
         strict_levels.point_side(_strict(px), _strict(py), side))
        for side in ESL_ORDER
    )
    for numpy_out, strict_out in pairs:
        assert type(strict_out) is np.ndarray
        np.testing.assert_array_equal(strict_out, numpy_out)


def test_strict_point_reads_with_per_pattern_nodes(case):
    """Point reads where each pattern visits every node, edges included, in
    its own order -- a gather that mixed up patterns' lines would fail."""
    _, blocked, _, _ = case
    batch, n, m = blocked.shape
    mesh = Mesh2D(n, m)
    rng = np.random.default_rng(3)
    order = np.stack([rng.permutation(n * m) for _ in range(batch)])
    px, py = order // m, order % m
    levels = batch_safety_levels(_strict(blocked))
    got = [levels.point_side(_strict(px), _strict(py), side) for side in ESL_ORDER]
    for b in range(batch):
        reference = compute_safety_levels(mesh, blocked[b])
        grids = (reference.east, reference.south, reference.west, reference.north)
        for out, grid in zip(got, grids):
            assert type(out) is np.ndarray
            np.testing.assert_array_equal(out[b], grid[px[b], py[b]])


def test_condition_kernels_strict_match_numpy(case):
    _, blocked, source, dests = case
    numpy_levels = batch_safety_levels(blocked)
    strict_levels = batch_safety_levels(_strict(blocked))
    strict_blocked = _strict(blocked)
    strict_dests = _strict(dests)
    pivots = np.array(
        [(source[0] + 2, source[1] + 2), (source[0] + 5, source[1] + 1)],
        dtype=np.int64,
    )

    pairs = [
        (
            batch_pattern_is_safe(numpy_levels, source, dests),
            batch_pattern_is_safe(strict_levels, source, strict_dests),
        ),
        (
            batch_pattern_extension1(blocked, numpy_levels, source, dests),
            batch_pattern_extension1(
                strict_blocked, strict_levels, source, strict_dests
            ),
        ),
        (
            batch_pattern_extension2(
                numpy_levels, source, dests, 3, blocked.shape[-2:]
            ),
            batch_pattern_extension2(
                strict_levels, source, strict_dests, 3, blocked.shape[-2:]
            ),
        ),
        (
            batch_pattern_extension3(
                blocked, numpy_levels, source, dests, pivots
            ),
            batch_pattern_extension3(
                strict_blocked, strict_levels, source, strict_dests,
                _strict(pivots),
            ),
        ),
        (
            batch_pattern_path_exists(blocked, source, dests),
            batch_pattern_path_exists(strict_blocked, source, strict_dests),
        ),
    ]
    for numpy_out, strict_out in pairs:
        assert type(strict_out) is np.ndarray
        np.testing.assert_array_equal(strict_out, numpy_out)


@pytest.mark.parametrize("flip_x", [False, True])
@pytest.mark.parametrize("flip_y", [False, True])
def test_reachability_strict_matches_numpy(case, flip_x, flip_y):
    _, blocked, source, _ = case
    numpy_map = batch_reachability_map(blocked, source, flip_x, flip_y)
    strict_map = batch_reachability_map(_strict(blocked), source, flip_x, flip_y)
    np.testing.assert_array_equal(strict_map, numpy_map)
