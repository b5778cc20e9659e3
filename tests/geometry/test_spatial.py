"""Tests for the toroidal cell index."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidParameterError
from repro.geometry.spatial import ToroidalCellIndex
from repro.geometry.torus import UNIT_SQUARE, UNIT_TORUS

coords = st.floats(min_value=0.0, max_value=0.999999, allow_nan=False)
#: Coordinates that may fall outside the unit square.
wide = st.floats(min_value=-0.3, max_value=1.3, allow_nan=False)


def brute_force_query(points, probe, radius, region):
    dists = region.distances(probe, points)
    return set(np.flatnonzero(dists <= radius).tolist())


class TestConstruction:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ToroidalCellIndex(np.zeros((3, 2)), cell_size=0.0)

    def test_len(self):
        idx = ToroidalCellIndex(np.random.default_rng(0).uniform(size=(10, 2)), 0.1)
        assert len(idx) == 10

    def test_empty(self):
        idx = ToroidalCellIndex(np.empty((0, 2)), 0.1)
        assert len(idx) == 0
        assert idx.query((0.5, 0.5), 0.2).size == 0

    def test_points_wrapped(self):
        idx = ToroidalCellIndex(np.array([[1.3, -0.2]]), 0.1)
        assert np.allclose(idx.points, [[0.3, 0.8]])

    @pytest.mark.parametrize("region", [UNIT_TORUS, UNIT_SQUARE])
    def test_cell_count_bounded_by_point_count(self, rng, region):
        # A tiny cell size must not buy a cell table far larger than
        # the point set: 10 points get tens of cells, not (1 / 1e-4)**2.
        points = rng.uniform(size=(10, 2))
        idx = ToroidalCellIndex(points, cell_size=1e-4, region=region)
        assert idx._cells_per_side**2 <= 100
        for probe in [(0.5, 0.5), (0.01, 0.99), (0.0, 0.0)]:
            for radius in (1e-4, 0.05, 0.3):
                expected = brute_force_query(points, probe, radius, region)
                assert set(idx.query(probe, radius).tolist()) == expected


class TestQuery:
    def test_matches_brute_force_basic(self, rng):
        points = rng.uniform(size=(200, 2))
        idx = ToroidalCellIndex(points, cell_size=0.1)
        for probe in [(0.5, 0.5), (0.01, 0.99), (0.0, 0.0)]:
            expected = brute_force_query(points, probe, 0.15, UNIT_TORUS)
            actual = set(idx.query(probe, 0.15).tolist())
            assert actual == expected

    def test_query_radius_larger_than_cell(self, rng):
        points = rng.uniform(size=(100, 2))
        idx = ToroidalCellIndex(points, cell_size=0.05)
        expected = brute_force_query(points, (0.3, 0.3), 0.3, UNIT_TORUS)
        assert set(idx.query((0.3, 0.3), 0.3).tolist()) == expected

    def test_query_spanning_whole_region(self, rng):
        points = rng.uniform(size=(50, 2))
        idx = ToroidalCellIndex(points, cell_size=0.2)
        hits = idx.query((0.5, 0.5), 1.0)
        assert hits.size == 50

    def test_bounded_square(self, rng):
        points = rng.uniform(size=(100, 2))
        idx = ToroidalCellIndex(points, cell_size=0.1, region=UNIT_SQUARE)
        probe = (0.02, 0.02)
        expected = brute_force_query(points, probe, 0.15, UNIT_SQUARE)
        assert set(idx.query(probe, 0.15).tolist()) == expected

    def test_negative_radius_raises(self, rng):
        idx = ToroidalCellIndex(rng.uniform(size=(10, 2)), 0.1)
        with pytest.raises(InvalidParameterError):
            idx.query((0.5, 0.5), -0.1)

    def test_zero_radius_exact_hit(self):
        idx = ToroidalCellIndex(np.array([[0.5, 0.5]]), 0.1)
        assert idx.query((0.5, 0.5), 0.0).tolist() == [0]

    @given(
        st.lists(st.tuples(coords, coords), min_size=1, max_size=60),
        st.tuples(coords, coords),
        st.floats(min_value=0.01, max_value=0.6),
        st.floats(min_value=0.02, max_value=0.3),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force_property(self, pts, probe, radius, cell):
        points = np.array(pts)
        idx = ToroidalCellIndex(points, cell_size=cell)
        expected = brute_force_query(points, probe, radius, UNIT_TORUS)
        actual = set(idx.query(probe, radius).tolist())
        assert actual == expected


class TestCandidates:
    def test_superset_of_query(self, rng):
        points = rng.uniform(size=(150, 2))
        idx = ToroidalCellIndex(points, cell_size=0.12)
        hits = set(idx.query((0.4, 0.6), 0.12).tolist())
        candidates = set(idx.candidates_within((0.4, 0.6), 0.12).tolist())
        assert hits <= candidates


class TestQueryRadiusBatch:
    def _rows(self, indptr, indices):
        return [indices[indptr[i] : indptr[i + 1]].tolist() for i in range(len(indptr) - 1)]

    def test_matches_scalar_query(self, rng):
        points = rng.uniform(size=(200, 2))
        idx = ToroidalCellIndex(points, cell_size=0.1)
        probes = rng.uniform(size=(40, 2))
        indptr, indices = idx.query_radius_batch(probes, 0.15)
        assert indptr.shape == (41,)
        assert indptr[-1] == indices.shape[0]
        for i, row in enumerate(self._rows(indptr, indices)):
            assert row == idx.query(tuple(probes[i]), 0.15).tolist()

    def test_unrefined_matches_candidates_within(self, rng):
        points = rng.uniform(size=(150, 2))
        idx = ToroidalCellIndex(points, cell_size=0.12)
        probes = rng.uniform(size=(25, 2))
        indptr, indices = idx.query_radius_batch(probes, 0.12, refine=False)
        for i, row in enumerate(self._rows(indptr, indices)):
            assert row == idx.candidates_within(tuple(probes[i]), 0.12).tolist()

    def test_wrap_seam_probes(self, rng):
        points = rng.uniform(size=(120, 2))
        idx = ToroidalCellIndex(points, cell_size=0.1)
        probes = np.array([[0.0, 0.0], [0.999, 0.001], [0.001, 0.999], [0.999, 0.999]])
        indptr, indices = idx.query_radius_batch(probes, 0.2)
        for i, row in enumerate(self._rows(indptr, indices)):
            expected = brute_force_query(points, tuple(probes[i]), 0.2, UNIT_TORUS)
            assert set(row) == expected

    def test_radius_spanning_whole_region(self, rng):
        points = rng.uniform(size=(30, 2))
        idx = ToroidalCellIndex(points, cell_size=0.2)
        indptr, indices = idx.query_radius_batch(rng.uniform(size=(5, 2)), 1.0, refine=False)
        for row in self._rows(indptr, indices):
            assert row == list(range(30))

    def test_empty_probe_set(self, rng):
        idx = ToroidalCellIndex(rng.uniform(size=(10, 2)), 0.1)
        indptr, indices = idx.query_radius_batch(np.empty((0, 2)), 0.2)
        assert indptr.tolist() == [0]
        assert indices.size == 0

    def test_empty_index(self):
        idx = ToroidalCellIndex(np.empty((0, 2)), 0.1)
        indptr, indices = idx.query_radius_batch(np.array([[0.5, 0.5]]), 0.2)
        assert indptr.tolist() == [0, 0]
        assert indices.size == 0

    def test_bounded_square(self, rng):
        points = rng.uniform(size=(100, 2))
        idx = ToroidalCellIndex(points, cell_size=0.1, region=UNIT_SQUARE)
        probes = np.array([[0.02, 0.02], [0.98, 0.5], [0.5, 0.5]])
        indptr, indices = idx.query_radius_batch(probes, 0.15)
        for i, row in enumerate(self._rows(indptr, indices)):
            expected = brute_force_query(points, tuple(probes[i]), 0.15, UNIT_SQUARE)
            assert set(row) == expected

    def test_negative_radius_raises(self, rng):
        idx = ToroidalCellIndex(rng.uniform(size=(10, 2)), 0.1)
        with pytest.raises(InvalidParameterError):
            idx.query_radius_batch(np.array([[0.5, 0.5]]), -0.1)

    def test_rows_sorted_and_unique(self, rng):
        points = rng.uniform(size=(300, 2))
        idx = ToroidalCellIndex(points, cell_size=0.07)
        indptr, indices = idx.query_radius_batch(rng.uniform(size=(50, 2)), 0.11, refine=False)
        for row in self._rows(indptr, indices):
            assert row == sorted(set(row))

    @given(
        st.lists(st.tuples(coords, coords), min_size=1, max_size=50),
        st.lists(st.tuples(coords, coords), min_size=1, max_size=10),
        st.floats(min_value=0.01, max_value=0.6),
        st.floats(min_value=0.02, max_value=0.3),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force_property(self, pts, probes, radius, cell):
        points = np.array(pts)
        idx = ToroidalCellIndex(points, cell_size=cell)
        indptr, indices = idx.query_radius_batch(np.array(probes), radius)
        for i, row in enumerate(self._rows(indptr, indices)):
            assert set(row) == brute_force_query(points, probes[i], radius, UNIT_TORUS)


def within_squared(points, probe, radius, region):
    """Ids passing the kernels' exact test: ``dist² <= r²`` under
    ``Region.displacements`` of the raw coordinates."""
    delta = region.displacements(probe, points)
    return set(np.flatnonzero(delta[:, 0] ** 2 + delta[:, 1] ** 2 <= radius**2).tolist())


def assert_superset(points, probes, radius, cell, region):
    """Unrefined batch rows hold every exact pair and equal the scalar rows."""
    points = np.asarray(points, dtype=float)
    probes = np.asarray(probes, dtype=float)
    idx = ToroidalCellIndex(points, cell_size=cell, region=region)
    indptr, indices = idx.query_radius_batch(probes, radius, refine=False)
    for i, probe in enumerate(map(tuple, probes)):
        row = indices[indptr[i] : indptr[i + 1]].tolist()
        missing = within_squared(points, probe, radius, region) - set(row)
        assert not missing, (probe, radius, cell, points[sorted(missing)])
        assert row == idx.candidates_within(probe, radius).tolist()


def lattice(step):
    """Coordinates ``k * step``, from a little below 0 to past 1."""
    return np.arange(-2, round(1 / step) + 3) * step


class TestSupersetAdversarial:
    """The unrefined rows are a superset of every pair the sparse kernels'
    exact ``dist² <= r²`` test keeps, where float rounding bites."""

    @pytest.mark.parametrize("region", [UNIT_TORUS, UNIT_SQUARE])
    @pytest.mark.parametrize("cell", [0.05, 0.1, 0.125, 0.2, 1 / 3])
    def test_points_on_cell_boundaries(self, region, cell):
        xs = lattice(cell)
        points = np.array([(x, y) for x in xs for y in xs])
        probes = np.array([(x, y) for x in xs for y in xs[::3]])
        for radius in (cell, 2 * cell, 0.1, 0.25):
            assert_superset(points, probes, radius, cell, region)

    @pytest.mark.parametrize("region", [UNIT_TORUS, UNIT_SQUARE])
    @pytest.mark.parametrize("radius", [0.05, 0.1, 0.2, 0.25])
    def test_points_at_exactly_r_along_an_axis(self, region, radius):
        # Sensors at probe ± r on each axis, unwrapped and wrapped, with
        # probes on, near and across the seam.
        for px in (0.0, 0.02, 0.05, 0.3, 0.5, 0.75, 0.95, 0.98, 0.999):
            points = []
            for x in (px + radius, px - radius):
                points += [(x, 0.5), (x % 1.0, 0.5), (0.5, x), (0.5, x % 1.0)]
            probes = [(px, 0.5), (0.5, px)]
            for cell in (radius, radius / 2, 0.05, 0.1):
                assert_superset(points, probes, radius, cell, region)

    @pytest.mark.parametrize("radius", [0.1, 0.2, 0.25])
    @pytest.mark.parametrize("cell", [0.05, 0.1, 0.125, 0.25])
    def test_radius_exact_multiple_of_cell_on_torus(self, rng, radius, cell):
        points = np.vstack([rng.uniform(size=(300, 2)), lattice(0.05)[:, None].repeat(2, 1)])
        probes = np.vstack([rng.uniform(size=(40, 2)), lattice(0.05)[:, None].repeat(2, 1)])
        assert_superset(points, probes, radius, cell, UNIT_TORUS)

    def test_sensor_outside_bounded_square(self):
        # The sensor is bucketed into the last cell by clipping; a probe
        # range that does not clip the same way would skip that cell.
        assert_superset([(1.05, 0.5)], [(1.14, 0.5)], 0.1, 0.05, UNIT_SQUARE)
        assert_superset([(0.5, 1.05)], [(0.5, 1.14)], 0.1, 0.05, UNIT_SQUARE)
        assert_superset([(-0.05, -0.05)], [(-0.12, -0.1)], 0.1, 0.05, UNIT_SQUARE)

    @given(
        st.lists(st.tuples(st.integers(-6, 26), st.integers(-6, 26)), min_size=1, max_size=40),
        st.lists(st.tuples(st.integers(-6, 26), st.integers(-6, 26)), min_size=1, max_size=8),
        st.integers(1, 8),
        st.sampled_from([0.05, 0.1, 0.125, 0.2, 0.25]),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_lattice_property(self, pts, probes, steps, cell, torus):
        # Coordinates and radii on a 0.05 lattice put points on cell
        # boundaries and at distance exactly r, inside and outside the
        # square.
        region = UNIT_TORUS if torus else UNIT_SQUARE
        assert_superset(
            np.array(pts) * 0.05, np.array(probes) * 0.05, steps * 0.05, cell, region
        )

    @given(
        st.lists(st.tuples(wide, wide), min_size=1, max_size=40),
        st.lists(st.tuples(wide, wide), min_size=1, max_size=8),
        st.floats(min_value=0.0, max_value=0.6),
        st.floats(min_value=0.02, max_value=0.3),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounded_square_property(self, pts, probes, radius, cell):
        assert_superset(pts, probes, radius, cell, UNIT_SQUARE)


class TestNearest:
    def test_simple(self):
        points = np.array([[0.1, 0.1], [0.9, 0.9]])
        idx = ToroidalCellIndex(points, cell_size=0.1)
        i, d = idx.nearest((0.12, 0.1))
        assert i == 0
        assert d == pytest.approx(0.02)

    def test_wraps(self):
        points = np.array([[0.02, 0.5], [0.5, 0.5]])
        idx = ToroidalCellIndex(points, cell_size=0.1)
        i, d = idx.nearest((0.98, 0.5))
        assert i == 0
        assert d == pytest.approx(0.04)

    def test_empty_raises(self):
        idx = ToroidalCellIndex(np.empty((0, 2)), 0.1)
        with pytest.raises(ValueError):
            idx.nearest((0.5, 0.5))

    @given(st.lists(st.tuples(coords, coords), min_size=1, max_size=40), st.tuples(coords, coords))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force(self, pts, probe):
        points = np.array(pts)
        idx = ToroidalCellIndex(points, cell_size=0.15)
        _, d = idx.nearest(probe)
        expected = UNIT_TORUS.distances(probe, points).min()
        assert d == pytest.approx(float(expected), abs=1e-12)
