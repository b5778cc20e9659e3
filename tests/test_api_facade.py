"""Tests for the stable :mod:`repro.api` facade.

The facade re-exports blessed machinery, so these tests focus on the
facade's own responsibilities: argument normalisation and validation,
dispatch to the right estimator, and parity with the deep-module
spellings it wraps.
"""

import math

import numpy as np
import pytest

from repro.api import (
    GridEvaluation,
    deploy,
    estimate,
    evaluate_grid,
    load_results,
    run_experiment,
)
from repro.core.batch import full_view_mask
from repro.errors import ExperimentError, InvalidParameterError
from repro.geometry.grid import DenseGrid
from repro.sensors.fleet import SensorFleet
from repro.sensors.model import CameraSpec, HeterogeneousProfile
from repro.simulation.results import ResultTable
from repro.simulation.statistics import BernoulliEstimate

THETA = math.pi / 3
SPEC = CameraSpec(radius=0.25, angle_of_view=math.pi / 2)
PROFILE = HeterogeneousProfile.homogeneous(SPEC)


class TestDeploy:
    def test_returns_indexed_fleet(self):
        fleet = deploy(profile=PROFILE, n=20, seed=1)
        assert isinstance(fleet, SensorFleet)
        assert len(fleet) == 20
        assert fleet.index is not None

    def test_seed_is_deterministic(self):
        a = deploy(profile=PROFILE, n=15, seed=42)
        b = deploy(profile=PROFILE, n=15, seed=42)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.orientations, b.orientations)

    def test_rng_overrides_seed(self):
        a = deploy(profile=PROFILE, n=10, seed=0, rng=np.random.default_rng(9))
        b = deploy(profile=PROFILE, n=10, seed=123, rng=np.random.default_rng(9))
        assert np.array_equal(a.positions, b.positions)

    def test_camera_spec_treated_as_homogeneous(self):
        a = deploy(profile=SPEC, n=12, seed=3)
        b = deploy(profile=PROFILE, n=12, seed=3)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.radii, b.radii)

    def test_radius_angle_shorthand(self):
        a = deploy(radius=0.25, angle_of_view=math.pi / 2, n=12, seed=3)
        b = deploy(profile=PROFILE, n=12, seed=3)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.radii, b.radii)

    def test_profile_and_radius_conflict(self):
        with pytest.raises(InvalidParameterError, match="not both"):
            deploy(profile=PROFILE, radius=0.2, n=5)

    def test_no_camera_description(self):
        with pytest.raises(InvalidParameterError, match="radius"):
            deploy(n=5)

    def test_partial_shorthand_rejected(self):
        with pytest.raises(InvalidParameterError):
            deploy(radius=0.2, n=5)

    def test_build_index_false(self):
        fleet = deploy(profile=PROFILE, n=8, seed=0, build_index=False)
        assert fleet.index is None


class TestEvaluateGrid:
    def test_default_grid(self):
        fleet = deploy(profile=PROFILE, n=50, seed=2)
        result = evaluate_grid(fleet=fleet, theta=THETA)
        assert isinstance(result, GridEvaluation)
        assert len(result) == result.points.shape[0]
        assert 0.0 <= result.fraction <= 1.0
        assert result.num_covered == int(result.mask.sum())

    def test_matches_deep_module(self):
        fleet = deploy(profile=PROFILE, n=60, seed=4)
        grid = DenseGrid(side=12)
        result = evaluate_grid(fleet=fleet, theta=THETA, grid=grid)
        expected = full_view_mask(fleet, grid.points, THETA)
        assert np.array_equal(result.mask, expected)

    def test_resolution_shorthand(self):
        fleet = deploy(profile=PROFILE, n=30, seed=5)
        result = evaluate_grid(fleet=fleet, theta=THETA, resolution=7)
        assert len(result) == 49

    def test_explicit_points(self):
        fleet = deploy(profile=PROFILE, n=30, seed=5)
        pts = np.array([[0.5, 0.5], [0.1, 0.9]])
        result = evaluate_grid(fleet=fleet, theta=THETA, points=pts)
        assert len(result) == 2
        assert np.array_equal(result.points, pts)

    def test_point_sources_are_exclusive(self):
        fleet = deploy(profile=PROFILE, n=10, seed=0)
        with pytest.raises(InvalidParameterError, match="at most one"):
            evaluate_grid(
                fleet=fleet, theta=THETA, resolution=5, grid=DenseGrid(side=5)
            )

    def test_empty_mask_fraction_is_zero(self):
        ev = GridEvaluation(
            points=np.empty((0, 2)),
            mask=np.empty(0, dtype=bool),
            theta=THETA,
            condition="exact",
        )
        assert ev.fraction == 0.0


class TestEstimate:
    def test_point_kind(self):
        result = estimate(
            kind="point", profile=PROFILE, n=40, theta=THETA, trials=8, seed=0
        )
        assert isinstance(result, BernoulliEstimate)
        assert result.trials == 8

    def test_grid_failure_kind(self):
        result = estimate(
            kind="grid_failure",
            profile=PROFILE,
            n=40,
            theta=THETA,
            trials=6,
            seed=0,
            max_grid_points=16,
        )
        assert isinstance(result, BernoulliEstimate)

    def test_area_fraction_kind(self):
        mean, half = estimate(
            kind="area_fraction",
            profile=PROFILE,
            n=40,
            theta=THETA,
            trials=6,
            seed=0,
            sample_points=32,
        )
        assert 0.0 <= mean <= 1.0
        assert half >= 0.0

    def test_condition_chain_kind(self):
        result = estimate(
            kind="condition_chain", profile=PROFILE, n=40, theta=THETA,
            trials=6, seed=0,
        )
        assert {"necessary", "exact", "sufficient"} <= set(result)

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameterError, match="kind"):
            estimate(kind="bogus", profile=PROFILE, n=10, theta=THETA)

    def test_radius_shorthand_matches_profile(self):
        a = estimate(
            kind="point", profile=PROFILE, n=30, theta=THETA, trials=5, seed=1
        )
        b = estimate(
            kind="point", radius=0.25, angle_of_view=math.pi / 2,
            n=30, theta=THETA, trials=5, seed=1,
        )
        assert a == b


class TestRunExperiment:
    def test_runs_registered_experiment(self):
        result = run_experiment(experiment_id="FIG7", fast=True, seed=0)
        assert result.tables

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            run_experiment(experiment_id="NOPE")


class TestLoadResults:
    def test_round_trip_single_file(self, tmp_path):
        table = ResultTable(title="t", columns=["a", "b"])
        table.add_row(1, 2.5)
        table.add_row(3, None)
        path = table.save_csv(tmp_path / "t.csv")
        loaded = load_results(path=path)
        assert isinstance(loaded, ResultTable)
        assert loaded.title == "t"
        assert loaded.rows == [[1, 2.5], [3, None]]

    def test_directory_load(self, tmp_path):
        for name in ("one", "two"):
            t = ResultTable(title=name, columns=["x"])
            t.add_row(7)
            t.save_csv(tmp_path / f"{name}.csv")
        loaded = load_results(path=tmp_path)
        assert set(loaded) == {"one", "two"}
        assert loaded["one"].rows == [[7]]

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="no result file"):
            load_results(path=tmp_path / "absent.csv")

    def test_empty_directory(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="no .csv"):
            load_results(path=tmp_path)
