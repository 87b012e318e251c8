"""The strict array-API wrapper, and the kernel suite running under it.

Two halves.  The first checks the wrapper itself: :class:`StrictArray`
exposes only the standard surface and *rejects* numpy-only idioms
(integer fancy indexing, ufunc/array method access, arithmetic with raw
ndarrays, implicit ``__array__`` conversion), and
:func:`resolve_backend` maps CLI names to namespaces with clear errors.

The second checks the shift helper behind the fixpoints, parametrised
over shifts and shapes against a naive index loop, and runs every
cross-pattern kernel end to end on strict arrays
and compares against the numpy backend -- the proof that no numpy-only
call leaks into :mod:`repro.core.batched_patterns`' portable paths.  (The
numpy backend itself takes a ``ufunc.accumulate`` fast path; this suite is
what keeps the generic Hillis-Steele path honest.)
"""

import numpy as np
import pytest

from repro.core.array_api import (
    BACKENDS,
    StrictArray,
    array_namespace,
    resolve_backend,
    strict_namespace,
    to_numpy,
)
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
from repro.mesh.topology import Mesh2D

XP = strict_namespace()


def _strict(array: np.ndarray) -> StrictArray:
    return XP.asarray(array)


# ----------------------------------------------------------------------
# Wrapper surface
# ----------------------------------------------------------------------


class TestNamespaceResolution:
    def test_numpy_is_the_default(self):
        assert array_namespace(np.zeros(3)) is np
        assert array_namespace(1, 2.5) is np
        assert array_namespace() is np

    def test_strict_arrays_carry_their_namespace(self):
        assert array_namespace(_strict(np.zeros(3))) is XP

    def test_mixed_namespaces_rejected(self):
        with pytest.raises(TypeError, match="mixed"):
            array_namespace(np.zeros(3), _strict(np.zeros(3)))

    def test_resolve_backend_names(self):
        assert resolve_backend("numpy") is np
        assert resolve_backend("strict") is XP
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("fortran")

    @pytest.mark.parametrize("name", ["cupy", "torch"])
    def test_missing_optional_backends_fail_clearly(self, name):
        import importlib.util

        if importlib.util.find_spec(name) is not None:
            pytest.skip(f"{name} is installed here")
        with pytest.raises(RuntimeError, match=name):
            resolve_backend(name)

    def test_backends_constant_matches_cli_choices(self):
        assert BACKENDS == ("numpy", "strict", "cupy", "torch")


class TestStrictArrayRejections:
    def test_integer_fancy_indexing_rejected(self):
        a = _strict(np.arange(10))
        idx = XP.asarray(np.array([1, 2]))
        with pytest.raises(IndexError, match="take"):
            a[idx]

    def test_boolean_mask_is_allowed_but_only_alone(self):
        a = _strict(np.arange(10))
        mask = a > 5
        assert to_numpy(a[mask]).tolist() == [6, 7, 8, 9]
        b = _strict(np.zeros((3, 3)))
        with pytest.raises(IndexError, match="sole index"):
            b[XP.asarray(np.ones(3, dtype=bool)), 0]

    def test_arithmetic_with_raw_ndarray_rejected(self):
        a = _strict(np.arange(3))
        with pytest.raises(TypeError, match="strict arrays"):
            a + np.arange(3)
        with pytest.raises(TypeError, match="strict arrays"):
            a & np.ones(3, dtype=bool)

    def test_numpy_methods_absent(self):
        a = _strict(np.arange(3))
        with pytest.raises(AttributeError, match="standard"):
            a.sum()
        with pytest.raises(AttributeError, match="standard"):
            a.reshape(3, 1)

    def test_no_implicit_array_conversion(self):
        a = _strict(np.arange(3))
        with pytest.raises(AttributeError):
            a.__array__

    def test_nonstandard_namespace_functions_absent(self):
        with pytest.raises(AttributeError):
            XP.vstack
        with pytest.raises(AttributeError):
            XP.cumsum  # the standard name is cumulative_sum

    def test_scalar_operands_and_operators_work(self):
        a = _strict(np.arange(4, dtype=np.int64))
        b = (a * 2 + 1) % 3
        assert to_numpy(b).tolist() == [1, 0, 2, 1]
        assert bool(XP.any(a > 2))
        assert int(XP.sum(a)) == 6

    def test_standard_attributes(self):
        a = _strict(np.zeros((2, 3)))
        assert a.shape == (2, 3) and a.ndim == 2 and a.size == 6
        assert a.device == "cpu"
        assert a.T.shape == (3, 2) and a.mT.shape == (3, 2)
        assert len(a) == 2


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
BACKEND_WRAPPERS = {"numpy": lambda a: a, "strict": _strict}


def _shift(backend: str, mask: np.ndarray, dx: int, dy: int) -> np.ndarray:
    wrapped = BACKEND_WRAPPERS[backend](mask)
    out = _shifted_batch(array_namespace(wrapped), wrapped, dx, dy)
    assert type(out) is type(wrapped)
    return to_numpy(out)


@pytest.mark.parametrize("backend", list(BACKEND_WRAPPERS))
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("dx, dy", [(dx, dy) for dx in range(-2, 3) for dy in range(-2, 3)])
def test_shifted_batch_matches_index_loop(backend, shape, dx, dy):
    mask = np.random.default_rng(sum(shape)).random(shape) < 0.5
    got = _shift(backend, mask, dx, dy)
    assert got.shape == shape and got.dtype == np.bool_
    np.testing.assert_array_equal(got, _naive_shift(mask, dx, dy))


@pytest.mark.parametrize("backend", list(BACKEND_WRAPPERS))
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("axis", [1, 2])
@pytest.mark.parametrize("factor", [1, 1.5, 2, -1, -1.5, -2])
def test_shift_at_least_the_axis_length_reads_nothing(backend, shape, axis, factor):
    step = int(factor * shape[axis])
    dx, dy = (step, 0) if axis == 1 else (0, step)
    got = _shift(backend, np.ones(shape, dtype=bool), dx, dy)
    assert got.shape == shape and not got.any()


# ----------------------------------------------------------------------
# Kernels under the strict namespace
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def case():
    """A seeded random (faulty, blocked, levels, source, dests) case, with
    both numpy and strict handles to the same data."""
    rng = np.random.default_rng(21)
    batch, n, m = 12, 18, 18
    faulty = rng.random((batch, n, m)) < 0.05
    source = (n // 2, m // 2)
    faulty[:, source[0], source[1]] = False
    blocked_np = to_numpy(batch_disable_fixpoint(faulty))
    # keep the source usable so condition semantics match the protocol
    blocked_np[:, source[0], source[1]] = False
    dests = rng.integers(0, n, size=(batch, 16, 2)).astype(np.int64)
    return faulty, blocked_np, source, dests


def test_formation_strict_matches_numpy(case):
    faulty, _, _, _ = case
    strict_out = batch_disable_fixpoint(_strict(faulty))
    assert isinstance(strict_out, StrictArray)
    np.testing.assert_array_equal(
        to_numpy(strict_out), to_numpy(batch_disable_fixpoint(faulty))
    )


@pytest.mark.parametrize("rule", list(_LABEL_RULES), ids=lambda r: f"{r[0].name}-{r[1].name}")
def test_label_closure_strict_matches_numpy(rule):
    faulty = np.random.default_rng(5).random((12, 18, 18)) < 0.25
    strict_out = batch_label_closure(_strict(faulty), _LABEL_RULES[rule])
    assert isinstance(strict_out, StrictArray)
    numpy_out = batch_label_closure(faulty, _LABEL_RULES[rule])
    assert numpy_out.any()
    np.testing.assert_array_equal(to_numpy(strict_out), numpy_out)


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
    pairs += zip(
        numpy_levels.points(px, py), strict_levels.points(_strict(px), _strict(py))
    )
    for numpy_out, strict_out in pairs:
        assert isinstance(strict_out, StrictArray)
        np.testing.assert_array_equal(to_numpy(strict_out), numpy_out)


def test_strict_point_reads_with_per_pattern_nodes(case):
    """Point reads where each pattern visits every node, edges included, in
    its own order -- a gather that mixed up patterns' lines would fail."""
    _, blocked, _, _ = case
    batch, n, m = blocked.shape
    mesh = Mesh2D(n, m)
    rng = np.random.default_rng(3)
    order = np.stack([rng.permutation(n * m) for _ in range(batch)])
    px, py = order // m, order % m
    got = batch_safety_levels(_strict(blocked)).points(_strict(px), _strict(py))
    for b in range(batch):
        reference = compute_safety_levels(mesh, blocked[b])
        grids = (reference.east, reference.south, reference.west, reference.north)
        for out, grid in zip(got, grids):
            assert isinstance(out, StrictArray)
            np.testing.assert_array_equal(to_numpy(out)[b], grid[px[b], py[b]])


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
        assert isinstance(strict_out, StrictArray)
        np.testing.assert_array_equal(to_numpy(strict_out), to_numpy(numpy_out))


@pytest.mark.parametrize("flip_x", [False, True])
@pytest.mark.parametrize("flip_y", [False, True])
def test_reachability_strict_matches_numpy(case, flip_x, flip_y):
    _, blocked, source, _ = case
    numpy_map = batch_reachability_map(blocked, source, flip_x, flip_y)
    strict_map = batch_reachability_map(_strict(blocked), source, flip_x, flip_y)
    np.testing.assert_array_equal(to_numpy(strict_map), to_numpy(numpy_map))
