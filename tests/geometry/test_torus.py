"""Tests for the toroidal region geometry."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import InvalidParameterError
from repro.geometry.torus import UNIT_SQUARE, UNIT_TORUS, Region

coords = st.floats(min_value=0.0, max_value=0.999999, allow_nan=False)
points = st.tuples(coords, coords)


class TestRegionConstruction:
    def test_defaults(self):
        region = Region()
        assert region.side == 1.0
        assert region.torus

    def test_area(self):
        assert Region(side=2.0).area == 4.0

    def test_invalid_side(self):
        with pytest.raises(InvalidParameterError):
            Region(side=0.0)
        with pytest.raises(InvalidParameterError):
            Region(side=-1.0)
        with pytest.raises(InvalidParameterError):
            Region(side=math.inf)

    def test_constants(self):
        assert UNIT_TORUS.torus and not UNIT_SQUARE.torus


class TestWrapping:
    def test_wrap_inside_unchanged(self):
        assert UNIT_TORUS.wrap_point((0.3, 0.7)) == (0.3, 0.7)

    def test_wrap_outside(self):
        assert UNIT_TORUS.wrap_point((1.2, -0.3)) == pytest.approx((0.2, 0.7))

    def test_no_wrap_on_square(self):
        assert UNIT_SQUARE.wrap_point((1.2, -0.3)) == (1.2, -0.3)

    def test_wrap_points_array(self):
        pts = np.array([[1.5, -0.25]])
        assert np.allclose(UNIT_TORUS.wrap_points(pts), [[0.5, 0.75]])

    def test_contains(self):
        assert UNIT_TORUS.contains((0.0, 0.999))
        assert not UNIT_TORUS.contains((1.0, 0.5))


class TestDisplacement:
    def test_plain(self):
        assert UNIT_TORUS.displacement((0.2, 0.2), (0.5, 0.6)) == pytest.approx((0.3, 0.4))

    def test_wraps_short_way(self):
        dx, dy = UNIT_TORUS.displacement((0.9, 0.5), (0.1, 0.5))
        assert dx == pytest.approx(0.2)
        assert dy == pytest.approx(0.0)

    def test_square_does_not_wrap(self):
        dx, dy = UNIT_SQUARE.displacement((0.9, 0.5), (0.1, 0.5))
        assert dx == pytest.approx(-0.8)

    def test_component_range_on_torus(self):
        dx, dy = UNIT_TORUS.displacement((0.0, 0.0), (0.5, 0.5))
        assert -0.5 <= dx < 0.5 and -0.5 <= dy < 0.5

    @given(points, points)
    def test_displacement_components_bounded(self, a, b):
        dx, dy = UNIT_TORUS.displacement(a, b)
        assert -0.5 - 1e-9 <= dx <= 0.5 + 1e-9
        assert -0.5 - 1e-9 <= dy <= 0.5 + 1e-9

    @given(points, points)
    def test_vectorised_matches_scalar(self, a, b):
        scalar = UNIT_TORUS.displacement(a, b)
        vector = UNIT_TORUS.displacements(a, np.array([b]))[0]
        assert scalar[0] == pytest.approx(vector[0], abs=1e-12)
        assert scalar[1] == pytest.approx(vector[1], abs=1e-12)


class TestDistance:
    def test_simple(self):
        assert UNIT_TORUS.distance((0.0, 0.0), (0.3, 0.4)) == pytest.approx(0.5)

    def test_across_seam(self):
        assert UNIT_TORUS.distance((0.95, 0.5), (0.05, 0.5)) == pytest.approx(0.1)

    def test_square_across_is_long(self):
        assert UNIT_SQUARE.distance((0.95, 0.5), (0.05, 0.5)) == pytest.approx(0.9)

    @given(points, points)
    def test_symmetry(self, a, b):
        assert UNIT_TORUS.distance(a, b) == pytest.approx(
            UNIT_TORUS.distance(b, a), abs=1e-12
        )

    @given(points, points)
    def test_torus_never_longer_than_plane(self, a, b):
        plane = math.hypot(a[0] - b[0], a[1] - b[1])
        assert UNIT_TORUS.distance(a, b) <= plane + 1e-12

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        assert UNIT_TORUS.distance(a, c) <= (
            UNIT_TORUS.distance(a, b) + UNIT_TORUS.distance(b, c) + 1e-9
        )

    @given(points, points, st.tuples(coords, coords))
    def test_translation_invariance(self, a, b, offset):
        a2 = UNIT_TORUS.wrap_point((a[0] + offset[0], a[1] + offset[1]))
        b2 = UNIT_TORUS.wrap_point((b[0] + offset[0], b[1] + offset[1]))
        assert UNIT_TORUS.distance(a2, b2) == pytest.approx(
            UNIT_TORUS.distance(a, b), abs=1e-9
        )

    def test_distances_vectorised(self):
        targets = np.array([[0.3, 0.4], [0.95, 0.0]])
        out = UNIT_TORUS.distances((0.0, 0.0), targets)
        assert np.allclose(out, [0.5, 0.05])


class TestDirection:
    def test_east(self):
        assert UNIT_TORUS.direction((0.5, 0.5), (0.7, 0.5)) == pytest.approx(0.0)

    def test_across_seam(self):
        # Shortest path from 0.95 to 0.05 heads east (+x).
        assert UNIT_TORUS.direction((0.95, 0.5), (0.05, 0.5)) == pytest.approx(0.0)

    def test_coincident_raises(self):
        with pytest.raises(ValueError):
            UNIT_TORUS.direction((0.5, 0.5), (0.5, 0.5))


class TestPairwise:
    def test_shape(self):
        src = np.zeros((3, 2))
        dst = np.zeros((5, 2))
        out = UNIT_TORUS.pairwise_displacements(src, dst)
        assert out.shape == (3, 5, 2)

    def test_values_match_scalar(self):
        src = np.array([[0.9, 0.9]])
        dst = np.array([[0.1, 0.1]])
        out = UNIT_TORUS.pairwise_displacements(src, dst)[0, 0]
        assert np.allclose(out, [0.2, 0.2])
