"""Tests for deployment schemes."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.deployment.lattice import (
    SquareLatticeDeployment,
    TriangularLatticeDeployment,
)
from repro.deployment.poisson import PoissonDeployment
from repro.deployment.uniform import UniformDeployment
from repro.errors import InvalidParameterError
from repro.geometry.torus import Region


class TestUniformDeployment:
    def test_exact_count(self, homogeneous_profile, rng):
        fleet = UniformDeployment().deploy(homogeneous_profile, 137, rng)
        assert len(fleet) == 137

    def test_positions_in_region(self, homogeneous_profile, rng):
        fleet = UniformDeployment().deploy(homogeneous_profile, 500, rng)
        assert (fleet.positions >= 0).all()
        assert (fleet.positions < 1).all()

    def test_reproducible(self, homogeneous_profile):
        a = UniformDeployment().deploy(homogeneous_profile, 50, np.random.default_rng(5))
        b = UniformDeployment().deploy(homogeneous_profile, 50, np.random.default_rng(5))
        assert np.allclose(a.positions, b.positions)
        assert np.allclose(a.orientations, b.orientations)

    def test_different_seeds_differ(self, homogeneous_profile):
        a = UniformDeployment().deploy(homogeneous_profile, 50, np.random.default_rng(5))
        b = UniformDeployment().deploy(homogeneous_profile, 50, np.random.default_rng(6))
        assert not np.allclose(a.positions, b.positions)

    def test_count_validation(self, homogeneous_profile, rng):
        with pytest.raises(InvalidParameterError):
            UniformDeployment().deploy(homogeneous_profile, 0, rng)

    def test_group_counts(self, two_group_profile, rng):
        fleet = UniformDeployment().deploy(two_group_profile, 250, rng)
        assert fleet.group_sizes().tolist() == two_group_profile.group_counts(250)

    def test_group_membership_independent_of_location(self, two_group_profile):
        """Across many deployments, each group's mean x must be ~0.5."""
        xs = {0: [], 1: []}
        for seed in range(60):
            fleet = UniformDeployment().deploy(
                two_group_profile, 100, np.random.default_rng(seed)
            )
            for gid in (0, 1):
                xs[gid].append(float(fleet.positions[fleet.group_ids == gid, 0].mean()))
        for gid in (0, 1):
            assert np.mean(xs[gid]) == pytest.approx(0.5, abs=0.02)

    def test_uniformity_chi_square(self, homogeneous_profile):
        """Positions over many trials fill a 4x4 histogram uniformly."""
        counts = np.zeros((4, 4))
        for seed in range(20):
            fleet = UniformDeployment().deploy(
                homogeneous_profile, 200, np.random.default_rng(seed)
            )
            h, _, _ = np.histogram2d(
                fleet.positions[:, 0], fleet.positions[:, 1], bins=4, range=[[0, 1], [0, 1]]
            )
            counts += h
        expected = counts.sum() / 16
        chi2 = ((counts - expected) ** 2 / expected).sum()
        # 15 dof; 99.9th percentile ~ 37.7
        assert chi2 < 37.7

    def test_orientations_uniform(self, homogeneous_profile):
        fleet = UniformDeployment().deploy(
            homogeneous_profile, 5000, np.random.default_rng(0)
        )
        hist, _ = np.histogram(fleet.orientations, bins=8, range=(0, 2 * math.pi))
        expected = 5000 / 8
        chi2 = ((hist - expected) ** 2 / expected).sum()
        assert chi2 < 24.3  # 7 dof, 99.9th percentile

    def test_custom_region(self, homogeneous_profile, rng):
        region = Region(side=3.0)
        fleet = UniformDeployment(region).deploy(homogeneous_profile, 100, rng)
        assert (fleet.positions < 3.0).all()
        assert fleet.positions.max() > 1.0  # actually uses the larger square


class TestPoissonDeployment:
    def test_count_is_random_with_correct_mean(self, homogeneous_profile):
        counts = [
            len(PoissonDeployment().deploy(homogeneous_profile, 100, np.random.default_rng(s)))
            for s in range(300)
        ]
        assert np.mean(counts) == pytest.approx(100, abs=2.5)
        assert np.var(counts) == pytest.approx(100, rel=0.3)

    def test_zero_realisation_gives_empty_fleet(self, homogeneous_profile):
        # With expectation 1 some seeds realise 0 sensors.
        empties = sum(
            len(PoissonDeployment().deploy(homogeneous_profile, 1, np.random.default_rng(s))) == 0
            for s in range(100)
        )
        assert empties > 10  # P(0) = 1/e ~ 0.37

    def test_positions_in_region(self, homogeneous_profile, rng):
        fleet = PoissonDeployment().deploy(homogeneous_profile, 200, rng)
        assert (fleet.positions >= 0).all() and (fleet.positions < 1).all()

    def test_reproducible(self, homogeneous_profile):
        a = PoissonDeployment().deploy(homogeneous_profile, 80, np.random.default_rng(3))
        b = PoissonDeployment().deploy(homogeneous_profile, 80, np.random.default_rng(3))
        assert len(a) == len(b)
        assert np.allclose(a.positions, b.positions)


class TestSquareLattice:
    def test_count_is_square(self, homogeneous_profile, rng):
        fleet = SquareLatticeDeployment().deploy(homogeneous_profile, 100, rng)
        assert len(fleet) == 100

    def test_rounds_to_nearest_square(self, homogeneous_profile, rng):
        fleet = SquareLatticeDeployment().deploy(homogeneous_profile, 90, rng)
        side = round(math.sqrt(90))
        assert len(fleet) == side * side

    def test_deterministic_positions(self, homogeneous_profile):
        a = SquareLatticeDeployment().deploy(homogeneous_profile, 49, np.random.default_rng(0))
        b = SquareLatticeDeployment().deploy(homogeneous_profile, 49, np.random.default_rng(9))
        # Positions identical regardless of rng (orientations differ).
        assert np.allclose(np.sort(a.positions, axis=0), np.sort(b.positions, axis=0))

    def test_spacing_regular(self, homogeneous_profile, rng):
        fleet = SquareLatticeDeployment().deploy(homogeneous_profile, 16, rng)
        xs = np.unique(np.round(fleet.positions[:, 0], 9))
        assert len(xs) == 4
        assert np.allclose(np.diff(xs), 0.25)


class TestTriangularLattice:
    def test_count_close_to_requested(self, homogeneous_profile, rng):
        for n in (10, 100, 500):
            fleet = TriangularLatticeDeployment().deploy(homogeneous_profile, n, rng)
            assert abs(len(fleet) - n) / n < 0.35

    def test_single_point(self, homogeneous_profile, rng):
        fleet = TriangularLatticeDeployment().deploy(homogeneous_profile, 1, rng)
        assert len(fleet) == 1
        assert np.allclose(fleet.positions, [[0.5, 0.5]])

    def test_rows_offset(self, homogeneous_profile, rng):
        fleet = TriangularLatticeDeployment().deploy(homogeneous_profile, 100, rng)
        ys = np.unique(np.round(fleet.positions[:, 1], 9))
        assert len(ys) >= 2
        row0 = np.sort(fleet.positions[np.isclose(fleet.positions[:, 1], ys[0]), 0])
        row1 = np.sort(fleet.positions[np.isclose(fleet.positions[:, 1], ys[1]), 0])
        # Adjacent rows are shifted by half a column spacing.
        dx = row0[1] - row0[0]
        shift = abs(row1[0] - row0[0])
        assert shift == pytest.approx(dx / 2, rel=1e-6)

    def test_positions_in_region(self, homogeneous_profile, rng):
        fleet = TriangularLatticeDeployment().deploy(homogeneous_profile, 200, rng)
        assert (fleet.positions >= 0).all() and (fleet.positions < 1).all()


class TestLatticeVsRandomCoverage:
    def test_lattice_more_even_than_random(self, homogeneous_profile):
        """Lattice nearest-sensor distances have lower variance than random."""
        probes = np.random.default_rng(1).uniform(size=(100, 2))

        def nearest_spread(fleet):
            dists = [
                fleet.region.distances((float(x), float(y)), fleet.positions).min()
                for x, y in probes
            ]
            return np.var(dists)

        lattice = SquareLatticeDeployment().deploy(
            homogeneous_profile, 100, np.random.default_rng(0)
        )
        random_fleet = UniformDeployment().deploy(
            homogeneous_profile, 100, np.random.default_rng(0)
        )
        assert nearest_spread(lattice) < nearest_spread(random_fleet)
