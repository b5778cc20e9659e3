"""Tests for the Matérn cluster deployment."""

from __future__ import annotations

import numpy as np
import pytest

from repro.deployment.cluster import MaternClusterDeployment
from repro.errors import InvalidParameterError


class TestConstruction:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            MaternClusterDeployment(expected_parents=0.0)
        with pytest.raises(InvalidParameterError):
            MaternClusterDeployment(cluster_radius=0.0)
        with pytest.raises(InvalidParameterError):
            MaternClusterDeployment(cluster_radius=2.0)


class TestPositions:
    def test_expected_count(self, homogeneous_profile):
        counts = [
            len(
                MaternClusterDeployment(expected_parents=8).deploy(
                    homogeneous_profile, 200, np.random.default_rng(s)
                )
            )
            for s in range(200)
        ]
        assert np.mean(counts) == pytest.approx(200, rel=0.1)

    def test_positions_in_region(self, homogeneous_profile, rng):
        fleet = MaternClusterDeployment(expected_parents=5).deploy(
            homogeneous_profile, 300, rng
        )
        assert (fleet.positions >= 0).all() and (fleet.positions < 1).all()

    def test_reproducible(self, homogeneous_profile):
        a = MaternClusterDeployment().deploy(
            homogeneous_profile, 100, np.random.default_rng(3)
        )
        b = MaternClusterDeployment().deploy(
            homogeneous_profile, 100, np.random.default_rng(3)
        )
        assert len(a) == len(b)
        assert np.allclose(np.sort(a.positions, axis=0), np.sort(b.positions, axis=0))

    def test_zero_parents_possible(self, homogeneous_profile):
        """With tiny expected_parents some seeds realise an empty fleet."""
        empties = sum(
            len(
                MaternClusterDeployment(expected_parents=0.5).deploy(
                    homogeneous_profile, 50, np.random.default_rng(s)
                )
            )
            == 0
            for s in range(100)
        )
        assert empties > 20  # P(no parents) = e^{-0.5} ~ 0.61

    def test_clustering_is_real(self, homogeneous_profile):
        """Nearest-neighbour distances shrink versus uniform placement."""
        from repro.deployment.uniform import UniformDeployment

        def mean_nn(fleet):
            if len(fleet) < 2:
                return np.nan
            dists = []
            for i, (x, y) in enumerate(fleet.positions):
                others = fleet.region.distances((float(x), float(y)), fleet.positions)
                others[i] = np.inf
                if others.min() <= 0.2:
                    dists.append(others.min())
            return np.mean(dists) if dists else np.nan

        clustered = MaternClusterDeployment(
            expected_parents=4, cluster_radius=0.05
        ).deploy(homogeneous_profile, 300, np.random.default_rng(0))
        uniform = UniformDeployment().deploy(
            homogeneous_profile, 300, np.random.default_rng(0)
        )
        assert mean_nn(clustered) < mean_nn(uniform)

    def test_many_parents_fills_region(self, homogeneous_profile, rng):
        """With many parents the occupied area approaches uniform."""
        fleet = MaternClusterDeployment(
            expected_parents=200, cluster_radius=0.1
        ).deploy(homogeneous_profile, 2000, rng)
        h, _, _ = np.histogram2d(
            fleet.positions[:, 0], fleet.positions[:, 1], bins=4, range=[[0, 1], [0, 1]]
        )
        assert h.min() > 0.3 * h.max()
