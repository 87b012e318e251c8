"""Unit tests for Extension 3's pivot-selection schemes."""

import hashlib

import numpy as np
import pytest

from repro.core.pivots import (
    latin_pivots,
    pivot_count_for_levels,
    random_pivots,
    recursive_center_pivots,
)
from repro.mesh.geometry import Rect


class TestPivotCounts:
    def test_formula(self):
        assert pivot_count_for_levels(1) == 1
        assert pivot_count_for_levels(2) == 5
        assert pivot_count_for_levels(3) == 21  # the paper's strategy 2 count

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            pivot_count_for_levels(0)


class TestRecursiveCenters:
    def test_level_one_is_region_center(self):
        region = Rect(0, 99, 0, 99)
        assert recursive_center_pivots(region, 1) == [(49, 49)]

    def test_exact_counts_on_large_region(self):
        region = Rect(0, 99, 0, 99)
        for level in (1, 2, 3):
            pivots = recursive_center_pivots(region, level)
            assert len(pivots) == pivot_count_for_levels(level)

    def test_all_inside_region(self):
        region = Rect(10, 60, 20, 90)
        for pivot in recursive_center_pivots(region, 3):
            assert region.contains(pivot)

    def test_coarse_pivots_first(self):
        region = Rect(0, 99, 0, 99)
        pivots = recursive_center_pivots(region, 2)
        assert pivots[0] == (49, 49)
        assert len(pivots[1:]) == 4

    def test_deduplicates_on_tiny_region(self):
        region = Rect(0, 1, 0, 1)
        pivots = recursive_center_pivots(region, 3)
        assert len(pivots) == len(set(pivots))
        for pivot in pivots:
            assert region.contains(pivot)

    def test_spread_covers_quarters(self):
        region = Rect(0, 99, 0, 99)
        pivots = recursive_center_pivots(region, 2)
        quadrant_hits = {(px > 49, py > 49) for px, py in pivots[1:]}
        assert len(quadrant_hits) == 4


class TestRandomPivots:
    def test_counts_and_bounds(self, rng):
        region = Rect(0, 99, 0, 99)
        pivots = random_pivots(region, 3, rng)
        assert len(pivots) <= pivot_count_for_levels(3)
        assert len(pivots) >= 15  # collisions are rare on a 100x100 region
        for pivot in pivots:
            assert region.contains(pivot)

    def test_reproducible_from_seed(self):
        region = Rect(0, 49, 0, 49)
        a = random_pivots(region, 2, np.random.default_rng(42))
        b = random_pivots(region, 2, np.random.default_rng(42))
        assert a == b

    def test_invalid_level(self, rng):
        with pytest.raises(ValueError):
            random_pivots(Rect(0, 9, 0, 9), 0, rng)


def _sub_rects(side):
    for xmin in range(side):
        for xmax in range(xmin, side):
            for ymin in range(side):
                for ymax in range(ymin, side):
                    yield Rect(xmin, xmax, ymin, ymax)


class TestPinnedPivots:
    """Golden digests over every sub-rectangle of a 12x12 region at levels
    1-3: the pivot lists (and, for the random scheme, the order of the
    generator draws behind Figure 12's strategy 2) must not change."""

    def test_recursive_centers(self):
        digest = hashlib.sha256()
        for rect in _sub_rects(12):
            for level in (1, 2, 3):
                digest.update(repr(recursive_center_pivots(rect, level)).encode())
        assert digest.hexdigest() == (
            "8a9d103cf85cfcd4cc66fb98db610c34bb5710d6a76013d650525f96638de387"
        )

    def test_random_draw_order(self):
        digest = hashlib.sha256()
        rng = np.random.default_rng(12)
        for rect in _sub_rects(12):
            for level in (1, 2, 3):
                digest.update(repr(random_pivots(rect, level, rng)).encode())
        assert digest.hexdigest() == (
            "27cf8b3df66f3e59b506232db1ba24ee2c66f05d79d8bd398d95b2fa6ecd76e7"
        )


class TestLatinPivots:
    def test_row_column_distinct(self, rng):
        region = Rect(0, 49, 0, 49)
        pivots = latin_pivots(region, 8, rng)
        xs = [p[0] for p in pivots]
        ys = [p[1] for p in pivots]
        assert len(set(xs)) == 8 and len(set(ys)) == 8

    def test_even_spread(self, rng):
        region = Rect(0, 79, 0, 79)
        pivots = latin_pivots(region, 8, rng)
        # One pivot per column band of width 10.
        bands = sorted(p[0] // 10 for p in pivots)
        assert bands == list(range(8))

    def test_too_many_raises(self, rng):
        with pytest.raises(ValueError):
            latin_pivots(Rect(0, 4, 0, 4), 6, rng)

    def test_at_least_one(self, rng):
        with pytest.raises(ValueError):
            latin_pivots(Rect(0, 4, 0, 4), 0, rng)
