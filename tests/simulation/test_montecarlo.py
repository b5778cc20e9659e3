"""Tests for the Monte-Carlo estimators."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.conditions import (
    necessary_condition_holds,
    sufficient_condition_holds,
)
from repro.core.full_view import is_full_view_covered
from repro.core.uniform_theory import necessary_failure_probability
from repro.deployment.poisson import PoissonDeployment
from repro.deployment.uniform import UniformDeployment
from repro.errors import InvalidParameterError
from repro.geometry.grid import DenseGrid
from repro.sensors.model import CameraSpec, HeterogeneousProfile
from repro.simulation.montecarlo import (
    ConditionChainTask,
    MonteCarloConfig,
    PointProbabilityTask,
    estimate_area_fraction,
    estimate_condition_chain,
    estimate_grid_failure_probability,
    estimate_point_probability,
)

THETA = math.pi / 3


@pytest.fixture
def profile():
    return HeterogeneousProfile.homogeneous(
        CameraSpec(radius=0.25, angle_of_view=math.pi / 2)
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            MonteCarloConfig(trials=0)

    def test_rngs_independent_and_reproducible(self):
        cfg = MonteCarloConfig(trials=5, seed=42)
        first = [g.random() for g in cfg.rngs()]
        second = [g.random() for g in MonteCarloConfig(trials=5, seed=42).rngs()]
        assert first == second
        assert len(set(first)) == 5  # distinct streams

    def test_rngs_is_lazy(self):
        import types

        gen = MonteCarloConfig(trials=10**9, seed=0).rngs()
        assert isinstance(gen, types.GeneratorType)
        # A billion-trial config must yield its first stream instantly.
        assert next(gen).random() == MonteCarloConfig(
            trials=10**9, seed=0
        ).rng_for_trial(0).random()

    def test_rngs_match_spawned_seed_sequences(self):
        # rng_for_trial uses explicit spawn keys; they must equal the
        # historical SeedSequence.spawn streams bit for bit.
        cfg = MonteCarloConfig(trials=3, seed=123)
        spawned = np.random.SeedSequence(123).spawn(3)
        for trial, seq in enumerate(spawned):
            expected = np.random.Generator(np.random.PCG64(seq)).random()
            assert cfg.rng_for_trial(trial).random() == expected

    def test_rng_for_trial_bounds(self):
        cfg = MonteCarloConfig(trials=3, seed=0)
        with pytest.raises(InvalidParameterError):
            cfg.rng_for_trial(-1)
        with pytest.raises(InvalidParameterError):
            cfg.rng_for_trial(3)


class TestPointProbabilityTask:
    def test_dispatch(self, profile):
        # The task grades the trial's own fleet by the named condition:
        # k-coverage flips exactly at the scalar covering count.
        scheme = UniformDeployment()
        point = (0.5, 0.5)
        fleet = scheme.deploy(profile, 120, np.random.default_rng(3))
        count = fleet.coverage_count(point)
        dirs = fleet.covering_directions(point)

        def verdict(condition, k=1):
            task = PointProbabilityTask(
                profile=profile, n=120, theta=THETA, scheme=scheme,
                condition=condition, point=point, k=k,
            )
            return task(0, np.random.default_rng(3))

        assert count >= 1
        assert verdict("k_coverage", k=count)
        assert not verdict("k_coverage", k=count + 1)
        assert verdict("exact") == is_full_view_covered(dirs, THETA)

    def test_validation(self, profile):
        common = dict(
            profile=profile, n=10, theta=THETA, scheme=UniformDeployment(),
            point=(0.5, 0.5),
        )
        with pytest.raises(InvalidParameterError):
            PointProbabilityTask(condition="bogus", **common)
        with pytest.raises(InvalidParameterError):
            PointProbabilityTask(condition="k_coverage", k=0, **common)


class TestEstimatePointProbability:
    def test_reproducible(self, profile):
        cfg = MonteCarloConfig(trials=50, seed=7)
        a = estimate_point_probability(profile, 100, THETA, "exact", cfg)
        b = estimate_point_probability(profile, 100, THETA, "exact", cfg)
        assert a.successes == b.successes

    def test_matches_theory_necessary(self, profile):
        """Simulation agrees with eq. (2) within the Wilson interval."""
        n = 300
        cfg = MonteCarloConfig(trials=500, seed=11)
        est = estimate_point_probability(profile, n, THETA, "necessary", cfg)
        theory = 1.0 - necessary_failure_probability(profile, n, THETA)
        assert est.contains(theory, slack=0.03)

    def test_point_choice_immaterial_on_torus(self, profile):
        """Any probe point gives statistically identical results."""
        cfg = MonteCarloConfig(trials=400, seed=3)
        centre = estimate_point_probability(profile, 200, THETA, "exact", cfg)
        corner = estimate_point_probability(
            profile, 200, THETA, "exact", cfg, point=(0.01, 0.99)
        )
        # Two-proportion comparison: within 4 pooled standard errors.
        diff = abs(centre.proportion - corner.proportion)
        pooled = (centre.proportion + corner.proportion) / 2
        se = math.sqrt(max(pooled * (1 - pooled), 1e-6) * 2 / 400)
        assert diff < 4 * se + 0.02

    def test_poisson_scheme(self, profile):
        cfg = MonteCarloConfig(trials=100, seed=5)
        est = estimate_point_probability(
            profile, 200, THETA, "exact", cfg, scheme=PoissonDeployment()
        )
        assert 0.0 <= est.proportion <= 1.0

    def test_more_sensors_help(self, profile):
        cfg = MonteCarloConfig(trials=200, seed=1)
        small = estimate_point_probability(profile, 50, THETA, "exact", cfg)
        large = estimate_point_probability(profile, 400, THETA, "exact", cfg)
        assert large.proportion >= small.proportion


class TestEstimateGridFailure:
    def test_zero_area_fleet_always_fails(self):
        tiny = HeterogeneousProfile.homogeneous(
            CameraSpec(radius=0.001, angle_of_view=0.1)
        )
        cfg = MonteCarloConfig(trials=10, seed=0)
        est = estimate_grid_failure_probability(
            tiny, 20, THETA, "necessary", cfg, max_grid_points=20
        )
        assert est.proportion == 1.0

    def test_huge_fleet_never_fails(self):
        big = HeterogeneousProfile.homogeneous(
            CameraSpec(radius=0.45, angle_of_view=2 * math.pi)
        )
        cfg = MonteCarloConfig(trials=10, seed=0)
        est = estimate_grid_failure_probability(
            big, 200, math.pi / 2, "necessary", cfg, max_grid_points=50
        )
        assert est.proportion < 0.5

    def test_custom_grid(self, profile):
        cfg = MonteCarloConfig(trials=5, seed=0)
        grid = DenseGrid(side=4)
        est = estimate_grid_failure_probability(
            profile, 100, THETA, "necessary", cfg, grid=grid
        )
        assert est.trials == 5

    def test_k_coverage_not_a_grid_condition(self, profile):
        """The vectorised grid estimator handles the three geometric
        conditions only; k_coverage is a point-level condition."""
        cfg = MonteCarloConfig(trials=2, seed=0)
        with pytest.raises(InvalidParameterError):
            estimate_grid_failure_probability(
                profile, 50, THETA, "k_coverage", cfg, max_grid_points=10
            )

    def test_subsample_lower_bounds_full(self, profile):
        """Failure measured on a grid subsample never exceeds full-grid."""
        cfg = MonteCarloConfig(trials=40, seed=2)
        grid = DenseGrid(side=8)
        sub = estimate_grid_failure_probability(
            profile, 60, THETA, "necessary", cfg, grid=grid, max_grid_points=8
        )
        full = estimate_grid_failure_probability(
            profile, 60, THETA, "necessary", cfg, grid=grid
        )
        assert sub.proportion <= full.proportion + 1e-9


class TestEstimateAreaFraction:
    def test_bounds(self, profile):
        cfg = MonteCarloConfig(trials=20, seed=0)
        mean, half = estimate_area_fraction(
            profile, 150, THETA, "exact", cfg, sample_points=64
        )
        assert 0.0 <= mean <= 1.0
        assert half >= 0.0

    def test_validation(self, profile):
        cfg = MonteCarloConfig(trials=5, seed=0)
        with pytest.raises(InvalidParameterError):
            estimate_area_fraction(profile, 100, THETA, "exact", cfg, sample_points=0)

    def test_condition_ordering(self, profile):
        """Area fractions preserve sufficient <= exact <= necessary."""
        cfg = MonteCarloConfig(trials=30, seed=4)
        nec, _ = estimate_area_fraction(profile, 200, THETA, "necessary", cfg, sample_points=64)
        exact, _ = estimate_area_fraction(profile, 200, THETA, "exact", cfg, sample_points=64)
        suf, _ = estimate_area_fraction(profile, 200, THETA, "sufficient", cfg, sample_points=64)
        assert suf <= exact + 1e-9
        assert exact <= nec + 1e-9


class _Planted(UniformDeployment):
    """Uniform deployment with one sensor moved onto ``spot``."""

    def __init__(self, spot):
        super().__init__()
        self.spot = spot

    def positions(self, n, rng):
        positions = super().positions(n, rng)
        positions[0] = self.spot
        return positions


class _Empty(UniformDeployment):
    """A deployment that realises no sensors at all."""

    def positions(self, n, rng):
        return np.empty((0, 2))


def _scalar_chain(fleet, point, theta):
    """Slow reference: scalar covering directions, one predicate each."""
    directions = fleet.covering_directions(point)
    return (
        bool(necessary_condition_holds(directions, theta)),
        bool(is_full_view_covered(directions, theta)),
        bool(sufficient_condition_holds(directions, theta)),
    )


class TestConditionChain:
    @pytest.mark.parametrize(
        "radius, theta, scheme, point",
        [
            (0.25, THETA, UniformDeployment(), (0.5, 0.5)),
            (0.25, THETA, _Empty(), (0.5, 0.5)),
            (0.25, THETA, _Planted((0.3, 0.7)), (0.3, 0.7)),
            (0.6, THETA, UniformDeployment(), (0.5, 0.5)),
            (0.25, math.pi, UniformDeployment(), (0.5, 0.5)),
            (0.25, THETA, UniformDeployment(), (0.0, 0.9995)),
        ],
        ids=["uniform", "empty", "coincident", "r0.6", "theta_pi", "wrap_seam"],
    )
    def test_matches_scalar_reference(self, radius, theta, scheme, point):
        profile = HeterogeneousProfile.homogeneous(
            CameraSpec(radius=radius, angle_of_view=math.pi / 2)
        )
        task = ConditionChainTask(
            profile=profile, n=120, theta=theta, scheme=scheme, point=point
        )
        cfg = MonteCarloConfig(trials=20, seed=5)
        for trial in range(cfg.trials):
            fleet = scheme.deploy(profile, 120, cfg.rng_for_trial(trial))
            expected = _scalar_chain(fleet, point, theta)
            assert task(trial, cfg.rng_for_trial(trial)) == expected, trial

    def test_sandwich_never_violated(self, profile):
        cfg = MonteCarloConfig(trials=150, seed=9)
        chain = estimate_condition_chain(profile, 250, THETA, cfg)
        assert chain["sandwich_violations"] == 0
        assert (
            chain["sufficient"].proportion
            <= chain["exact"].proportion
            <= chain["necessary"].proportion
        )
