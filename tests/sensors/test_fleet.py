"""Tests for the deployed sensor fleet."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.conditions import condition_fraction
from repro.core.kcoverage import k_coverage_fraction
from repro.errors import InvalidParameterError
from repro.geometry.angles import TWO_PI, angular_distance
from repro.geometry.spatial import ToroidalCellIndex
from repro.geometry.torus import UNIT_TORUS
from repro.sensors.fleet import SensorFleet, fleet_from_profile_arrays
from repro.sensors.model import CameraSpec, HeterogeneousProfile

coords = st.floats(min_value=0.0, max_value=0.999999, allow_nan=False)


def make_fleet(positions, orientations, radius=0.25, angle=math.pi / 2):
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    return SensorFleet(
        positions=positions,
        orientations=np.asarray(orientations, dtype=float),
        radii=np.full(n, radius),
        angles=np.full(n, angle),
    )


class TestConstruction:
    def test_empty(self):
        fleet = SensorFleet(
            positions=np.empty((0, 2)),
            orientations=np.empty(0),
            radii=np.empty(0),
            angles=np.empty(0),
        )
        assert len(fleet) == 0
        assert fleet.max_radius == 0.0
        assert fleet.covering((0.5, 0.5)).size == 0

    def test_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            SensorFleet(
                positions=np.zeros((2, 2)),
                orientations=np.zeros(3),
                radii=np.ones(2),
                angles=np.ones(2),
            )

    def test_invalid_radius(self):
        with pytest.raises(InvalidParameterError):
            make_fleet([[0.5, 0.5]], [0.0], radius=0.0)

    def test_invalid_angle(self):
        with pytest.raises(InvalidParameterError):
            make_fleet([[0.5, 0.5]], [0.0], angle=TWO_PI + 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("array", ["positions", "orientations", "radii", "angles"])
    def test_non_finite_rejected(self, array, bad):
        # nan passes every ordering test, so each array is checked for
        # finite values before any index or kernel reads it.
        arrays = dict(
            positions=np.array([[0.5, 0.5], [0.2, 0.7]]),
            orientations=np.array([0.0, 1.0]),
            radii=np.array([0.2, 0.3]),
            angles=np.array([1.0, 2.0]),
        )
        arrays[array].flat[1] = bad
        with pytest.raises(InvalidParameterError, match=array):
            SensorFleet(**arrays)

    def test_positions_wrapped(self):
        fleet = make_fleet([[1.2, -0.3]], [0.0])
        assert np.allclose(fleet.positions, [[0.2, 0.7]])

    def test_arrays_read_only(self):
        fleet = make_fleet([[0.5, 0.5]], [0.0])
        with pytest.raises(ValueError):
            fleet.positions[0, 0] = 0.0

    def test_input_arrays_copied(self):
        positions = np.array([[0.5, 0.5]])
        fleet = make_fleet(positions, [0.0])
        positions[0, 0] = 0.9
        assert fleet.positions[0, 0] == 0.5

    def test_group_ids_default_zero(self):
        fleet = make_fleet([[0.5, 0.5], [0.2, 0.2]], [0.0, 1.0])
        assert fleet.group_ids.tolist() == [0, 0]


class TestCovering:
    def test_sensor_looking_at_point(self):
        # Sensor east of the point, looking west.
        fleet = make_fleet([[0.6, 0.5]], [math.pi])
        assert fleet.covering((0.5, 0.5)).tolist() == [0]

    def test_sensor_looking_away(self):
        fleet = make_fleet([[0.6, 0.5]], [0.0])
        assert fleet.covering((0.5, 0.5)).size == 0

    def test_out_of_range(self):
        fleet = make_fleet([[0.9, 0.5]], [math.pi], radius=0.2)
        assert fleet.covering((0.5, 0.5)).size == 0

    def test_coincident_sensor_covers(self):
        fleet = make_fleet([[0.5, 0.5]], [0.0])
        assert fleet.covering((0.5, 0.5)).tolist() == [0]

    def test_across_seam(self):
        fleet = make_fleet([[0.02, 0.5]], [math.pi])  # looks west, across seam
        assert fleet.covering((0.9, 0.5)).tolist() == [0]

    def test_matches_scalar_sector(self, small_fleet, rng):
        """Fleet covering() must agree with the scalar Sector reference."""
        probes = rng.uniform(size=(30, 2))
        for probe in probes:
            point = (float(probe[0]), float(probe[1]))
            expected = {
                i for i in range(len(small_fleet)) if small_fleet.sensor(i).contains(point)
            }
            actual = set(small_fleet.covering(point).tolist())
            assert actual == expected

    def test_scalar_queries_never_read_the_index(self, small_fleet, rng, monkeypatch):
        # The per-point queries are the brute-force reference: with the
        # fleet's cell index built but unusable, every one still answers.
        def unusable(index, points, radius):
            raise AssertionError("a per-point query read the cell index")

        assert small_fleet.index is not None
        monkeypatch.setattr(ToroidalCellIndex, "_candidates", unusable)
        probes = rng.uniform(size=(10, 2))
        counts = []
        for probe in probes:
            point = (float(probe[0]), float(probe[1]))
            expected = [i for i in range(len(small_fleet)) if small_fleet.sensor(i).contains(point)]
            assert small_fleet.covering(point).tolist() == expected
            assert small_fleet.covering_directions(point).size <= len(expected)
            assert small_fleet.coverage_count(point) == len(expected)
            counts.append(len(expected))
        assert small_fleet.coverage_counts(probes).tolist() == counts
        assert 0.0 <= condition_fraction(small_fleet, probes, math.pi / 3, "exact") <= 1.0
        assert k_coverage_fraction(small_fleet, probes, 1) == np.mean(np.array(counts) >= 1)

    @given(
        st.lists(st.tuples(coords, coords, st.floats(min_value=0, max_value=TWO_PI)), min_size=1, max_size=30),
        st.tuples(coords, coords),
    )
    @settings(max_examples=100, deadline=None)
    def test_covering_matches_definition(self, sensors, probe):
        positions = [(x, y) for x, y, _ in sensors]
        orientations = [o for _, _, o in sensors]
        fleet = make_fleet(positions, orientations, radius=0.3, angle=1.2)
        covered = set(fleet.covering(probe).tolist())
        for i, (pos, orient) in enumerate(zip(positions, orientations)):
            dist = UNIT_TORUS.distance(pos, probe)
            if dist > 1e-12 and dist < 0.3 - 1e-9:
                bearing = UNIT_TORUS.direction(pos, probe)
                offset = angular_distance(bearing, orient)
                if offset < 0.6 - 1e-9:
                    assert i in covered
                elif offset > 0.6 + 1e-9:
                    assert i not in covered


class TestCoveringDirections:
    def test_direction_points_at_sensor(self):
        fleet = make_fleet([[0.7, 0.5]], [math.pi])
        dirs = fleet.covering_directions((0.5, 0.5))
        assert dirs.shape == (1,)
        assert dirs[0] == pytest.approx(0.0)  # sensor is east of the point

    def test_coincident_sensor_dropped(self):
        fleet = make_fleet([[0.5, 0.5]], [0.0])
        assert fleet.covering_directions((0.5, 0.5)).size == 0

    def test_multiple_sensors(self):
        fleet = make_fleet(
            [[0.7, 0.5], [0.5, 0.7], [0.3, 0.5]],
            [math.pi, -math.pi / 2, 0.0],
        )
        dirs = sorted(fleet.covering_directions((0.5, 0.5)).tolist())
        assert dirs == pytest.approx([0.0, math.pi / 2, math.pi])


class TestCoverageCounts:
    def test_count(self):
        fleet = make_fleet([[0.6, 0.5], [0.4, 0.5]], [math.pi, 0.0])
        assert fleet.coverage_count((0.5, 0.5)) == 2

    def test_counts_vector(self):
        fleet = make_fleet([[0.6, 0.5]], [math.pi])
        counts = fleet.coverage_counts(np.array([[0.5, 0.5], [0.0, 0.0]]))
        assert counts.tolist() == [1, 0]


class TestSensingAreas:
    def test_per_sensor(self):
        fleet = make_fleet([[0.5, 0.5]], [0.0], radius=0.2, angle=1.0)
        assert fleet.sensing_areas()[0] == pytest.approx(0.02)

    def test_total_weighted(self, two_group_profile, rng):
        from repro.deployment.uniform import UniformDeployment

        fleet = UniformDeployment().deploy(two_group_profile, 1000, rng)
        assert fleet.total_weighted_sensing_area() == pytest.approx(
            two_group_profile.weighted_sensing_area, rel=1e-9
        )

    def test_empty_fleet_zero(self):
        fleet = SensorFleet(
            positions=np.empty((0, 2)),
            orientations=np.empty(0),
            radii=np.empty(0),
            angles=np.empty(0),
        )
        assert fleet.total_weighted_sensing_area() == 0.0


class TestSubsetConcat:
    def test_subset(self, small_fleet):
        sub = small_fleet.subset([0, 5, 10])
        assert len(sub) == 3
        assert np.allclose(sub.positions[1], small_fleet.positions[5])

    def test_concat(self, small_fleet):
        both = small_fleet.concat(small_fleet)
        assert len(both) == 2 * len(small_fleet)
        # Group ids shifted for the second half.
        assert both.group_ids[len(small_fleet)] == small_fleet.group_ids.max() + 1

    def test_concat_region_mismatch(self, small_fleet):
        from repro.geometry.torus import Region

        other = SensorFleet(
            positions=np.array([[0.5, 0.5]]),
            orientations=np.array([0.0]),
            radii=np.array([0.1]),
            angles=np.array([1.0]),
            region=Region(side=2.0),
        )
        with pytest.raises(InvalidParameterError):
            small_fleet.concat(other)


class TestSensorAccessor:
    def test_round_trip(self, small_fleet):
        s = small_fleet.sensor(3)
        assert s.radius == small_fleet.radii[3]
        assert s.angle == small_fleet.angles[3]
        assert s.orientation == pytest.approx(small_fleet.orientations[3])


class TestFleetFromProfile:
    def test_group_assignment(self, two_group_profile, rng):
        n = 100
        positions = rng.uniform(size=(n, 2))
        orientations = rng.uniform(0, TWO_PI, size=n)
        fleet = fleet_from_profile_arrays(two_group_profile, positions, orientations)
        sizes = fleet.group_sizes()
        assert sizes.tolist() == two_group_profile.group_counts(n)
        # Radii match the group parameters.
        for gid, group in enumerate(two_group_profile.groups):
            mask = fleet.group_ids == gid
            assert np.allclose(fleet.radii[mask], group.radius)
            assert np.allclose(fleet.angles[mask], group.angle_of_view)

    def test_repr(self, small_fleet):
        assert "SensorFleet" in repr(small_fleet)
