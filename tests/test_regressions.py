"""Regression pins for bugs found during development.

Each test reproduces a concrete failure that property-based testing or
fuzzing surfaced, so the fix can never silently regress.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.csa import csa_necessary
from repro.errors import FullViewError
from repro.geometry.angles import TWO_PI, normalize_angle
from repro.geometry.intervals import AngularInterval, AngularIntervalSet
from repro.geometry.obstacles import ObstacleField
from repro.geometry.sector import Sector, sector_area
from repro.sensors.fleet import SensorFleet


class TestNormalizeAngleUlp:
    def test_tiny_negative_array_does_not_return_two_pi(self):
        """np.mod(-1e-64, 2*pi) rounds to exactly 2*pi; must map to 0."""
        out = normalize_angle(np.array([-1.2704758872296637e-64]))
        assert out[0] < TWO_PI


class TestIntervalSetSeamContainment:
    def test_probe_one_ulp_below_two_pi(self):
        """A probe at 2*pi - ulp is the same direction as 0 and must be
        inside an arc starting at 0."""
        s = AngularIntervalSet([AngularInterval(0.0, 1.0)])
        assert s.contains(6.283185307179585, tol=1e-6)


class TestApexEpsilon:
    def test_point_epsilon_from_apex_is_covered(self):
        """A point 1e-16 from the apex has a numerically meaningless
        bearing; the binary model covers it regardless of wedge."""
        sector = Sector((0.0, 0.0), radius=0.375, angle=1.0, orientation=0.0)
        point = (4.4989204517465445e-17, 7.00665346415799e-17)
        assert sector.contains(point)

    def test_fleet_matches_sector_at_epsilon(self):
        fleet = SensorFleet(
            positions=np.array([[0.0, 0.0]]),
            orientations=np.array([0.0]),
            radii=np.array([0.375]),
            angles=np.array([1.0]),
        )
        point = (4.4989204517465445e-17, 7.00665346415799e-17)
        assert fleet.covering(point).tolist() == [0]
        # And the bearing-less sensor contributes no viewed direction.
        assert fleet.covering_directions(point).size == 0


class TestSectorAreaOverflow:
    def test_underflow_rejected(self):
        with pytest.raises(FullViewError):
            sector_area(1.5353911529847533e-298, 1.0)

    def test_overflow_rejected(self):
        with pytest.raises(FullViewError):
            sector_area(1e200, 1.0)

    def test_boundary_radius_keeps_invariant(self):
        """r = 1.34078...e154 squares to within one ulp of DBL_MAX; it
        may be accepted, but only with a finite positive area (the
        original fuzz contract)."""
        try:
            area = sector_area(1.3407807929942597e154, 1.0)
        except FullViewError:
            return
        assert math.isfinite(area) and area > 0


class TestTinyThetaCsa:
    def test_denormal_theta_raises_library_error(self):
        """pi/theta overflowing int conversion must raise FullViewError,
        not OverflowError."""
        with pytest.raises(FullViewError):
            csa_necessary(100, 5e-324)

    def test_small_but_evaluable_theta_ok(self):
        value = csa_necessary(1000, 1e-3)
        assert value > 0 and math.isfinite(value)


class TestObstacleTorusImages:
    def test_segment_blocked_by_far_image(self):
        """The geodesic 0.625 -> 0 wraps east; the obstacle at x=0.125
        blocks it near the wrapped endpoint even though its nearest
        image to the source lies west."""
        field = ObstacleField(np.array([[0.125, 0.0]]), np.array([0.1875]))
        assert field.blocks((0.625, 0.0), (0.0, 0.0))


class TestWilsonDegenerateEndpoints:
    def test_full_success_upper_is_one(self):
        from repro.simulation.statistics import wilson_interval

        lo, hi = wilson_interval(41, 41)
        assert hi == 1.0
        assert lo <= 1.0
