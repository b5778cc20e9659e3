"""Tests for fleet persistence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.geometry.torus import Region
from repro.sensors.io import load_fleet, save_fleet


class TestRoundTrip:
    def test_identity(self, small_fleet, tmp_path):
        path = save_fleet(small_fleet, tmp_path / "fleet.npz")
        loaded = load_fleet(path)
        assert len(loaded) == len(small_fleet)
        assert np.allclose(loaded.positions, small_fleet.positions)
        assert np.allclose(loaded.orientations, small_fleet.orientations)
        assert np.allclose(loaded.radii, small_fleet.radii)
        assert np.allclose(loaded.angles, small_fleet.angles)
        assert (loaded.group_ids == small_fleet.group_ids).all()
        assert loaded.region == small_fleet.region

    def test_coverage_identical_after_reload(self, small_fleet, tmp_path):
        """The loaded fleet answers queries identically."""
        path = save_fleet(small_fleet, tmp_path / "fleet.npz")
        loaded = load_fleet(path)
        for probe in [(0.5, 0.5), (0.1, 0.9), (0.99, 0.01)]:
            a = set(small_fleet.covering(probe).tolist())
            b = set(loaded.covering(probe).tolist())
            assert a == b

    def test_region_preserved(self, tmp_path):
        from repro.deployment.uniform import UniformDeployment
        from repro.sensors.model import CameraSpec, HeterogeneousProfile

        region = Region(side=2.0, torus=False)
        profile = HeterogeneousProfile.homogeneous(
            CameraSpec(radius=0.3, angle_of_view=1.0)
        )
        fleet = UniformDeployment(region).deploy(profile, 20, np.random.default_rng(0))
        loaded = load_fleet(save_fleet(fleet, tmp_path / "f.npz"))
        assert loaded.region.side == 2.0
        assert not loaded.region.torus

    def test_suffix_added(self, small_fleet, tmp_path):
        path = save_fleet(small_fleet, tmp_path / "fleet")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            load_fleet(tmp_path / "nothing.npz")

    def test_non_finite_radius_rejected(self, small_fleet, tmp_path):
        path = save_fleet(small_fleet, tmp_path / "fleet.npz")
        with np.load(path) as data:
            arrays = dict(data)
        arrays["radii"] = arrays["radii"].copy()
        arrays["radii"][0] = np.inf
        np.savez(path, **arrays)
        with pytest.raises(InvalidParameterError, match="radii"):
            load_fleet(path)

    def test_creates_directories(self, small_fleet, tmp_path):
        path = save_fleet(small_fleet, tmp_path / "deep" / "dir" / "fleet.npz")
        assert path.exists()
