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


def rows(indptr, indices):
    return [indices[indptr[i] : indptr[i + 1]].tolist() for i in range(len(indptr) - 1)]


def within_squared(points, probe, radius, region, extents=None):
    """Ids whose box lies within ``radius`` of the probe.

    The probe's offset from each anchor is the kernels' wrapped
    displacement ``Region.displacements`` of the raw coordinates,
    negated, so for zero-size boxes this is their exact ``dist² <= r²``
    test.  On a torus the box is read modulo the region: the nearest of
    the offset's images one side either way counts.
    """
    rel = -region.displacements(probe, points)
    if extents is None:
        extents = np.zeros((rel.shape[0], 4))
    extents = np.asarray(extents, dtype=float)
    shifts = (-region.side, 0.0, region.side) if region.torus else (0.0,)
    images = rel[:, :, None] + np.array(shifts)
    low, high = extents[:, :2, None], extents[:, 2:, None]
    gap = np.maximum(np.maximum(low - images, images - high), 0.0).min(axis=2)
    return set(np.flatnonzero(gap[:, 0] ** 2 + gap[:, 1] ** 2 <= radius**2).tolist())


def assert_superset(points, probes, radius, cell, region=UNIT_TORUS, extents=None):
    """Batch rows hold every member whose box lies within ``radius``:
    at radius 0, every member whose box contains the probe."""
    points = np.asarray(points, dtype=float)
    probes = np.asarray(probes, dtype=float)
    idx = ToroidalCellIndex(points, cell_size=cell, region=region, extents=extents)
    indptr, indices = idx.query_radius_batch(probes, radius)
    for probe, row in zip(map(tuple, probes), rows(indptr, indices)):
        missing = within_squared(points, probe, radius, region, extents) - set(row)
        assert not missing, (probe, radius, cell, points[sorted(missing)])


@st.composite
def boxes(draw, count, step=None):
    """``count`` box offsets ``(left, bottom, right, top)``: zero-size,
    thin and wider than the torus, on a ``step`` lattice if given."""
    if step is None:
        low = st.floats(min_value=-0.7, max_value=0.3)
        span = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.2))
    else:
        low = st.integers(-14, 6).map(lambda k: k * step)
        span = st.integers(0, 24).map(lambda k: k * step)
    rows_ = []
    for _ in range(count):
        x, y, w, h = draw(st.tuples(low, low, span, span))
        rows_.append((x, y, x + w, y + h))
    return np.array(rows_, dtype=float).reshape(-1, 4)


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
        assert idx.query_radius_batch(np.array([[0.5, 0.5]]), 0.2)[1].size == 0

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
        for radius in (1e-4, 0.05, 0.3):
            assert_superset(points, [(0.5, 0.5), (0.01, 0.99), (0.0, 0.0)], radius, 1e-4, region)


def brute_force_query(points, probe, radius, region):
    dists = region.distances(probe, points)
    return set(np.flatnonzero(dists <= radius).tolist())


def query(idx, probe, radius):
    """One probe's candidate row, refined by the region's distance test
    the way the sparse kernel refines it."""
    _, row = idx.query_radius_batch(np.array([probe], dtype=float), radius)
    dists = idx.region.distances(probe, idx.points[row])
    return set(row[dists <= radius].tolist())


class TestQuery:
    """A single probe's row, refined exactly, is the brute-force set."""

    def test_matches_brute_force_basic(self, rng):
        points = rng.uniform(size=(200, 2))
        idx = ToroidalCellIndex(points, cell_size=0.1)
        for probe in [(0.5, 0.5), (0.01, 0.99), (0.0, 0.0)]:
            assert query(idx, probe, 0.15) == brute_force_query(points, probe, 0.15, UNIT_TORUS)

    def test_query_spanning_whole_region(self, rng):
        points = rng.uniform(size=(50, 2))
        idx = ToroidalCellIndex(points, cell_size=0.2)
        assert query(idx, (0.5, 0.5), 1.0) == set(range(50))

    def test_bounded_square(self, rng):
        points = rng.uniform(size=(100, 2))
        idx = ToroidalCellIndex(points, cell_size=0.1, region=UNIT_SQUARE)
        probe = (0.02, 0.02)
        assert query(idx, probe, 0.15) == brute_force_query(points, probe, 0.15, UNIT_SQUARE)

    def test_negative_radius_raises(self, rng):
        idx = ToroidalCellIndex(rng.uniform(size=(10, 2)), 0.1)
        with pytest.raises(InvalidParameterError):
            idx.query_radius_batch(np.array([[0.5, 0.5]]), -0.1)

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
        assert query(idx, probe, radius) == brute_force_query(points, probe, radius, UNIT_TORUS)


class TestCandidates:
    def test_superset_of_query(self, rng):
        # The row holds every hit and nothing beyond the reachable
        # cells: on each axis, at most one cell past the radius.
        points = rng.uniform(size=(150, 2))
        idx = ToroidalCellIndex(points, cell_size=0.12)
        probe = (0.4, 0.6)
        _, row = idx.query_radius_batch(np.array([probe]), 0.12)
        assert query(idx, probe, 0.12) <= set(row.tolist())
        reach = np.abs(UNIT_TORUS.displacements(probe, idx.points[row]))
        assert np.all(reach <= 0.12 + idx._cell_size + 1e-12)


class TestQueryRadiusBatch:
    """Rows are candidate supersets: every point within the radius is in
    its probe's row, sorted and unique; the caller refines."""

    def test_wrap_seam_probes(self, rng):
        probes = [(0.0, 0.0), (0.999, 0.001), (0.001, 0.999), (0.999, 0.999)]
        assert_superset(rng.uniform(size=(120, 2)), probes, 0.2, 0.1)

    def test_radius_larger_than_cell(self, rng):
        assert_superset(rng.uniform(size=(100, 2)), [(0.3, 0.3), (0.02, 0.97)], 0.3, 0.05)

    def test_zero_radius_exact_hit(self):
        idx = ToroidalCellIndex(np.array([[0.5, 0.5]]), 0.1)
        indptr, indices = idx.query_radius_batch(np.array([[0.5, 0.5]]), 0.0)
        assert indices.tolist() == [0]

    def test_radius_spanning_whole_region(self, rng):
        points = rng.uniform(size=(30, 2))
        idx = ToroidalCellIndex(points, cell_size=0.2)
        indptr, indices = idx.query_radius_batch(rng.uniform(size=(5, 2)), 1.0)
        for row in rows(indptr, indices):
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
        probes = [(0.02, 0.02), (0.98, 0.5), (0.5, 0.5)]
        assert_superset(rng.uniform(size=(100, 2)), probes, 0.15, 0.1, UNIT_SQUARE)

    def test_negative_radius_raises(self, rng):
        idx = ToroidalCellIndex(rng.uniform(size=(10, 2)), 0.1)
        with pytest.raises(InvalidParameterError):
            idx.query_radius_batch(np.array([[0.5, 0.5]]), -0.1)

    def test_rows_sorted_and_unique(self, rng):
        points = rng.uniform(size=(300, 2))
        idx = ToroidalCellIndex(points, cell_size=0.07)
        indptr, indices = idx.query_radius_batch(rng.uniform(size=(50, 2)), 0.11)
        assert indptr.shape == (51,) and indptr[-1] == indices.shape[0]
        for row in rows(indptr, indices):
            assert row == sorted(set(row))

    @given(
        st.lists(st.tuples(coords, coords), min_size=1, max_size=50),
        st.lists(st.tuples(coords, coords), min_size=1, max_size=10),
        st.floats(min_value=0.01, max_value=0.6),
        st.floats(min_value=0.02, max_value=0.3),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force_property(self, pts, probes, radius, cell, data):
        assert_superset(pts, probes, radius, cell)
        extents = data.draw(boxes(len(pts)))
        for r in (0.0, radius):
            assert_superset(pts, probes, r, cell, extents=extents)


def lattice(step):
    """Coordinates ``k * step``, from a little below 0 to past 1."""
    return np.arange(-2, round(1 / step) + 3) * step


class TestSupersetAdversarial:
    """The rows are a superset of every pair the sparse kernels' exact
    ``dist² <= r²`` test keeps, where float rounding bites."""

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
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_lattice_property(self, pts, probes, steps, cell, torus, data):
        # Coordinates, radii and box ends on a 0.05 lattice put points
        # and box edges on cell boundaries and at distance exactly r,
        # inside and outside the square.
        region = UNIT_TORUS if torus else UNIT_SQUARE
        pts, probes = np.array(pts) * 0.05, np.array(probes) * 0.05
        assert_superset(pts, probes, steps * 0.05, cell, region)
        extents = data.draw(boxes(len(pts), step=0.05))
        for radius in (0.0, steps * 0.05):
            assert_superset(pts, probes, radius, cell, region, extents)

    @given(
        st.lists(st.tuples(wide, wide), min_size=1, max_size=40),
        st.lists(st.tuples(wide, wide), min_size=1, max_size=8),
        st.floats(min_value=0.0, max_value=0.6),
        st.floats(min_value=0.02, max_value=0.3),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounded_square_property(self, pts, probes, radius, cell, data):
        assert_superset(pts, probes, radius, cell, UNIT_SQUARE)
        extents = data.draw(boxes(len(pts)))
        for r in (0.0, radius):
            assert_superset(pts, probes, r, cell, UNIT_SQUARE, extents)
