"""Tests: the vectorised batch path is bit-identical to the scalar path."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.batch import (
    condition_mask,
    coverage_counts,
    coverage_fraction_fast,
    covering_and_directions,
    full_view_mask,
    max_gaps,
)
from repro.core.conditions import (
    condition_fraction,
    necessary_condition_holds,
    sufficient_condition_holds,
)
from repro.core.full_view import is_full_view_covered
from repro.deployment.uniform import UniformDeployment
from repro.errors import InvalidParameterError
from repro.geometry.angles import TWO_PI
from repro.geometry.intervals import max_circular_gap
from repro.geometry.torus import UNIT_SQUARE, UNIT_TORUS
from repro.sensors.fleet import SensorFleet
from repro.sensors.model import CameraSpec, HeterogeneousProfile

coords = st.floats(min_value=0.0, max_value=0.999999, allow_nan=False)

#: Both evaluation paths: every scalar-reference test checks each one.
KERNELS = ("dense", "sparse")

#: Probes where floats bite: on the wrap seam and in its corners, and
#: exactly at three of ``edge_fleet``'s sensors (a coincident sensor;
#: the origin is both).
EDGE_PROBES = np.array(
    [
        [0.0, 0.0],
        [0.0, 0.62],
        [0.41, 0.0],
        [0.9999999, 0.15],
        [0.5, 0.9999999],
        [0.0, 0.3],
        [0.73, 0.41],
    ]
)


@pytest.fixture(scope="module")
def fleet():
    profile = HeterogeneousProfile.from_pairs(
        [
            (CameraSpec(radius=0.25, angle_of_view=math.pi / 2), 0.5),
            (CameraSpec(radius=0.15, angle_of_view=2.0), 0.5),
        ]
    )
    return UniformDeployment().deploy(profile, 150, np.random.default_rng(3))


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(4).uniform(size=(60, 2))


@pytest.fixture(scope="module")
def edge_fleet():
    """Sensors on the seam and at probes, radii >= 0.5, phi = 2*pi."""
    rng = np.random.default_rng(6)
    positions = np.vstack(
        [[[0.0, 0.0], [0.0, 0.3], [0.73, 0.41]], rng.uniform(size=(37, 2))]
    )
    n = positions.shape[0]
    orientations = rng.uniform(0.0, 2.0 * math.pi, size=n)
    # Facing 0, the first two cover the probe they sit on only through
    # the coincidence rule: the wedge test alone rejects it.
    orientations[:2] = 0.0
    return SensorFleet(
        positions=positions,
        orientations=orientations,
        radii=np.where(np.arange(n) % 2 == 0, 0.6, 0.12),
        angles=np.array([math.pi / 2, 2.0, 2.0 * math.pi])[np.arange(n) % 3],
    )


#: ``(orientation, angle of view, radius)`` of cameras whose wedge has
#: an edge exactly on an axis direction (``orientation ± phi/2`` in
#: ``{0, pi/2, pi, 3*pi/2}``), holds an axis direction inside, or is a
#: whole disk; dyadic radii put ``apex ± r`` exactly at distance ``r``.
AXIS_CAMERAS = (
    (math.pi / 4, math.pi / 2, 0.125),
    (3 * math.pi / 4, math.pi / 2, 0.3125),
    (5 * math.pi / 4, math.pi / 2, 0.125),
    (7 * math.pi / 4, math.pi / 2, 0.625),
    (math.pi / 2, math.pi, 0.3125),
    (math.pi, math.pi, 0.125),
    (math.pi / 3, 2 * math.pi / 3, 0.3125),
    (1.5 * math.pi + 0.3, 0.6, 0.625),
    (0.0, math.pi / 2, 0.3125),
    (math.pi / 2, 1.0, 0.625),
    (0.0, TWO_PI, 0.125),
    (2.0, TWO_PI, 0.625),
)

#: Dyadic apexes of ``AXIS_CAMERAS`` on the torus: on the seam, in its
#: corners and inside.
AXIS_APEXES_TORUS = (
    (0.0, 0.375), (0.625, 0.0), (0.96875, 0.03125), (0.25, 0.75),
    (0.5625, 0.4375), (0.125, 0.125), (0.875, 0.625), (0.375, 0.9375),
    (0.71875, 0.28125), (0.0, 0.0), (0.46875, 0.5), (0.8125, 0.84375),
)

#: The same on the bounded square, four of them outside it.
AXIS_APEXES_SQUARE = (
    (1.09375, 0.5), (0.625, 0.0), (-0.0625, 0.3125), (0.25, 0.75),
    (0.5625, 0.4375), (0.5, 1.1875), (0.875, 0.625), (-0.09375, -0.09375),
    (0.71875, 0.28125), (0.0, 0.0), (0.46875, 0.5), (0.8125, 0.84375),
)


def axis_case(apexes, region):
    """``AXIS_CAMERAS`` at ``apexes``, probed at each apex, each arc
    endpoint, ``±r`` along both axes and on the seam."""
    orientations, angles, radii = (np.array(column) for column in zip(*AXIS_CAMERAS))
    fleet = SensorFleet(
        positions=np.array(apexes),
        orientations=orientations,
        radii=radii,
        angles=angles,
        region=region,
    )
    probes = [EDGE_PROBES]
    for (x, y), f, phi, r in zip(apexes, orientations, angles, radii):
        edges = f + np.array([-0.5, 0.5]) * phi
        probes.append([(x, y), (x + r, y), (x - r, y), (x, y + r), (x, y - r)])
        probes.append(np.column_stack([x + r * np.cos(edges), y + r * np.sin(edges)]))
    return fleet, np.vstack(probes)


@pytest.fixture(scope="module")
def cases(fleet, points, edge_fleet):
    """(fleet, points) inputs of the scalar-reference tests."""
    edge_points = np.vstack(
        [EDGE_PROBES, np.random.default_rng(8).uniform(size=(30, 2))]
    )
    return (
        (fleet, points),
        (edge_fleet, edge_points),
        axis_case(AXIS_APEXES_TORUS, UNIT_TORUS),
        axis_case(AXIS_APEXES_SQUARE, UNIT_SQUARE),
    )


def scalar_directions(fleet, points):
    """The scalar reference's viewed directions, point by point."""
    return [
        fleet.covering_directions((float(x), float(y)))
        for x, y in points
    ]


class TestCoveringMatrix:
    def test_matches_scalar_covering(self, fleet, points):
        covers, _ = covering_and_directions(fleet, points)
        for i, (x, y) in enumerate(points):
            expected = set(fleet.covering((float(x), float(y))).tolist())
            actual = set(np.flatnonzero(covers[i]).tolist())
            assert actual == expected

    def test_directions_match_scalar(self, fleet, points):
        covers, directions = covering_and_directions(fleet, points)
        for i, (x, y) in enumerate(points):
            expected = np.sort(
                fleet.covering_directions((float(x), float(y)))
            )
            mask = covers[i] & ~np.isnan(directions[i])
            actual = np.sort(directions[i][mask])
            assert np.allclose(actual, expected, atol=1e-12)

    def test_empty_fleet(self, points):
        empty = SensorFleet(
            positions=np.empty((0, 2)),
            orientations=np.empty(0),
            radii=np.empty(0),
            angles=np.empty(0),
        )
        covers, directions = covering_and_directions(empty, points)
        assert covers.shape == (60, 0)

    def test_coincident_pair_covers_but_nan_direction(self):
        fleet = SensorFleet(
            positions=np.array([[0.5, 0.5]]),
            orientations=np.array([0.0]),
            radii=np.array([0.2]),
            angles=np.array([1.0]),
        )
        covers, directions = covering_and_directions(fleet, np.array([[0.5, 0.5]]))
        assert covers[0, 0]
        assert math.isnan(directions[0, 0])


class TestCoverageCounts:
    def test_matches_scalar(self, cases):
        for fleet, points in cases:
            scalar = fleet.coverage_counts(points)
            for kernel in KERNELS:
                batch = coverage_counts(fleet, points, kernel=kernel)
                assert (batch == scalar).all(), kernel


class TestMaxGaps:
    def test_matches_scalar(self, cases):
        for fleet, points in cases:
            expected = [max_circular_gap(d) for d in scalar_directions(fleet, points)]
            for kernel in KERNELS:
                gaps = max_gaps(fleet, points, kernel=kernel)
                assert gaps == pytest.approx(np.array(expected), abs=1e-12), kernel


class TestFullViewMask:
    @pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 3, math.pi / 2, math.pi])
    def test_matches_scalar(self, cases, theta):
        for fleet, points in cases:
            expected = [
                is_full_view_covered(d, theta) for d in scalar_directions(fleet, points)
            ]
            for kernel in KERNELS:
                mask = full_view_mask(fleet, points, theta, kernel=kernel)
                assert mask.tolist() == expected, kernel

    @given(st.tuples(coords, coords), st.floats(min_value=0.1, max_value=math.pi))
    @example((0.0, 0.0), math.pi)
    @example((0.73, 0.41), 1.0)
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_property(self, edge_fleet, probe, theta):
        profile = HeterogeneousProfile.homogeneous(
            CameraSpec(radius=0.3, angle_of_view=2.0)
        )
        fleet = UniformDeployment().deploy(profile, 60, np.random.default_rng(11))
        for case in (fleet, edge_fleet):
            dirs = case.covering_directions(probe)
            for kernel in KERNELS:
                mask = full_view_mask(case, np.array([probe]), theta, kernel=kernel)
                assert bool(mask[0]) == is_full_view_covered(dirs, theta), kernel


class TestConditionMask:
    @pytest.mark.parametrize("condition", ["necessary", "sufficient"])
    @pytest.mark.parametrize(
        "theta", [math.pi / 4, math.pi / 3, 0.4 * math.pi, math.pi]
    )
    def test_matches_scalar(self, cases, condition, theta):
        check = (
            necessary_condition_holds
            if condition == "necessary"
            else sufficient_condition_holds
        )
        for fleet, points in cases:
            expected = [check(d, theta) for d in scalar_directions(fleet, points)]
            for kernel in KERNELS:
                mask = condition_mask(fleet, points, theta, condition, kernel=kernel)
                assert mask.tolist() == expected, kernel

    def test_unknown_condition(self, fleet, points):
        with pytest.raises(InvalidParameterError):
            condition_mask(fleet, points, 1.0, "bogus")

    def test_sandwich_vectorised(self, fleet, points):
        theta = math.pi / 3
        suf = condition_mask(fleet, points, theta, "sufficient")
        exact = condition_mask(fleet, points, theta, "exact")
        nec = condition_mask(fleet, points, theta, "necessary")
        assert (suf <= exact).all()
        assert (exact <= nec).all()


class TestFraction:
    def test_matches_scalar_fraction(self, fleet, points):
        theta = math.pi / 3
        for condition in ("exact", "necessary", "sufficient"):
            fast = coverage_fraction_fast(fleet, points, theta, condition)
            slow = condition_fraction(fleet, points, theta, condition)
            assert fast == pytest.approx(slow)

    def test_empty_points(self, fleet):
        with pytest.raises(InvalidParameterError):
            coverage_fraction_fast(fleet, np.empty((0, 2)), 1.0)


class TestChunking:
    def test_results_stable_across_chunk_sizes(self, fleet, monkeypatch):
        import repro.core.batch as batch_module

        points = np.random.default_rng(5).uniform(size=(30, 2))
        full = full_view_mask(fleet, points, math.pi / 3)
        monkeypatch.setattr(batch_module, "_MAX_PAIRS_PER_CHUNK", 500)
        chunked = full_view_mask(fleet, points, math.pi / 3)
        assert (full == chunked).all()


class TestKCoverage:
    """The issue's property: k_coverage mask == (coverage_counts >= k)."""

    @given(k=st.integers(min_value=1, max_value=8))
    @settings(max_examples=16, deadline=None)
    def test_mask_equals_count_threshold(self, fleet, points, k):
        mask = condition_mask(fleet, points, math.pi / 3, "k_coverage", k=k)
        assert (mask == (coverage_counts(fleet, points) >= k)).all()

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        k=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=10, deadline=None)
    def test_property_on_random_points(self, fleet, seed, k):
        pts = np.random.default_rng(seed).uniform(size=(25, 2))
        mask = condition_mask(fleet, pts, 1.0, "k_coverage", k=k)
        assert (mask == (coverage_counts(fleet, pts) >= k)).all()

    def test_k1_is_plain_coverage(self, fleet, points):
        mask = condition_mask(fleet, points, 1.0, "k_coverage")
        assert (mask == (coverage_counts(fleet, points) >= 1)).all()

    def test_invalid_k(self, fleet, points):
        with pytest.raises(InvalidParameterError):
            condition_mask(fleet, points, 1.0, "k_coverage", k=0)

    def test_fraction_forwards_k(self, fleet, points):
        fraction = coverage_fraction_fast(fleet, points, 1.0, "k_coverage", k=3)
        expected = float((coverage_counts(fleet, points) >= 3).mean())
        assert fraction == expected


class TestMaxGapsVectorised:
    """The vectorised gap rows agree with the scalar circular-gap helper."""

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_matches_scalar_gap(self, fleet, edge_fleet, seed):
        pts = np.vstack([np.random.default_rng(seed).uniform(size=(20, 2)), EDGE_PROBES])
        for case in (fleet, edge_fleet):
            expected = [max_circular_gap(d) for d in scalar_directions(case, pts)]
            for kernel in KERNELS:
                gaps = max_gaps(case, pts, kernel=kernel)
                assert gaps == pytest.approx(np.array(expected), abs=1e-12), kernel
