"""Failure injection: adversarial inputs must raise library errors.

Every public constructor/entry point is fuzzed with malformed values
(NaN, infinities, wrong signs, out-of-domain angles, shape mismatches).
The contract: either a valid result or a :class:`FullViewError`
subclass — never a silent wrong answer, never an unrelated traceback
like ``ZeroDivisionError`` leaking from internals.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    CameraSpec,
    FullViewError,
    HeterogeneousProfile,
    MonteCarloConfig,
    Region,
    SensorFleet,
)
from repro.core.csa import csa_necessary, csa_sufficient
from repro.core.full_view import is_full_view_covered
from repro.errors import InvalidParameterError
from repro.core.poisson_theory import poisson_necessary_probability
from repro.core.uniform_theory import necessary_failure_probability
from repro.geometry.intervals import AngularInterval
from repro.sensors.model import GroupSpec

# Values mixing valid and hostile floats.
hostile_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.sampled_from([0.0, -0.0, 1e-300, 1e300, -1.0, 2 * math.pi, math.pi]),
)


class TestCameraSpecFuzz:
    @given(hostile_floats, hostile_floats)
    @settings(max_examples=300)
    def test_construct(self, radius, angle):
        try:
            spec = CameraSpec(radius=radius, angle_of_view=angle)
        except FullViewError:
            return
        # If accepted, the invariants must hold.
        assert spec.radius > 0
        assert 0 < spec.angle_of_view <= 2 * math.pi + 1e-9
        assert spec.sensing_area > 0

    @given(hostile_floats, hostile_floats)
    @settings(max_examples=200)
    def test_from_area(self, area, angle):
        try:
            spec = CameraSpec.from_area(area, angle)
        except FullViewError:
            return
        assert math.isfinite(spec.radius)
        assert spec.sensing_area == pytest.approx(area, rel=1e-6)


class TestProfileFuzz:
    @given(st.lists(st.floats(min_value=-1.0, max_value=2.0), min_size=1, max_size=5))
    @settings(max_examples=200)
    def test_fractions(self, fractions):
        specs = [
            CameraSpec(radius=0.1 + 0.01 * i, angle_of_view=1.0)
            for i in range(len(fractions))
        ]
        try:
            profile = HeterogeneousProfile(
                GroupSpec(spec, frac) for spec, frac in zip(specs, fractions)
            )
        except FullViewError:
            return
        assert sum(profile.fractions()) == pytest.approx(1.0)


class TestRegionFuzz:
    @given(hostile_floats)
    @settings(max_examples=200)
    def test_side(self, side):
        try:
            region = Region(side=side)
        except FullViewError:
            return
        assert region.side > 0 and math.isfinite(region.side)


class TestIntervalFuzz:
    @given(hostile_floats, hostile_floats)
    @settings(max_examples=300)
    def test_construct(self, start, extent):
        try:
            arc = AngularInterval(start, extent)
        except (FullViewError, ValueError):
            return
        assert 0 <= arc.start < 2 * math.pi
        assert 0 <= arc.extent <= 2 * math.pi


class TestTheoryFuzz:
    @given(
        st.integers(min_value=-5, max_value=10_000),
        hostile_floats,
    )
    @settings(max_examples=300)
    def test_csa(self, n, theta):
        try:
            value = csa_necessary(n, theta)
            value_s = csa_sufficient(n, theta)
        except FullViewError:
            return
        assert value > 0 and math.isfinite(value)
        assert value_s > value

    @given(st.integers(min_value=-5, max_value=5000), hostile_floats)
    @settings(max_examples=200)
    def test_failure_probabilities(self, n, theta):
        profile = HeterogeneousProfile.homogeneous(
            CameraSpec(radius=0.1, angle_of_view=1.0)
        )
        try:
            p = necessary_failure_probability(profile, n, theta)
            q = poisson_necessary_probability(profile, max(n, 1), theta)
        except FullViewError:
            return
        assert 0.0 <= p <= 1.0
        assert 0.0 <= q <= 1.0


class TestFullViewFuzz:
    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), max_size=16),
        hostile_floats,
    )
    @settings(max_examples=300)
    def test_is_full_view_covered(self, dirs, theta):
        try:
            result = is_full_view_covered(dirs, theta)
        except FullViewError:
            return
        assert isinstance(result, (bool, np.bool_))


class TestFleetFuzz:
    def test_nan_position_rejected_or_harmless(self):
        """A NaN position must not silently corrupt coverage queries:
        the fleet rejects it."""
        with pytest.raises(InvalidParameterError, match="positions"):
            SensorFleet(
                positions=np.array([[np.nan, 0.5], [0.5, 0.5]]),
                orientations=np.array([0.0, math.pi]),
                radii=np.array([0.2, 0.2]),
                angles=np.array([1.0, 1.0]),
            )

    @given(st.integers(min_value=-3, max_value=3))
    def test_config_trials(self, trials):
        try:
            cfg = MonteCarloConfig(trials=trials)
        except FullViewError:
            return
        assert cfg.trials >= 1
