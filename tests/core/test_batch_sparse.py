"""Property tests: the sparse candidate-pruned kernels are bit-identical
to the dense kernels, for every public kernel and every edge case the
dispatch policy can route through them."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batch import (
    SparseCovering,
    condition_mask,
    coverage_counts,
    coverage_fraction_fast,
    covering_and_directions,
    full_view_mask,
    max_gaps,
    sparse_covering_pairs,
)
from repro.core.csa import csa_necessary
from repro.core.kernels import KERNEL_CHOICES, KernelPolicy, resolve_kernel
from repro.deployment.uniform import UniformDeployment
from repro.errors import InvalidParameterError
from repro.geometry.grid import DenseGrid
from repro.obs.metrics import MetricsRegistry, metrics_scope
from repro.sensors.fleet import SensorFleet
from repro.sensors.model import CameraSpec, HeterogeneousProfile
from repro.simulation.engine import MonteCarloConfig, execute_trials
from repro.simulation.montecarlo import AreaFractionTask, GridFailureTask

THETA = math.pi / 3

#: Wrap-seam probes: points hugging the torus seam in every corner, where
#: candidate cells wrap and dense/sparse disagreement would first show.
SEAM_POINTS = np.array(
    [[0.0, 0.0], [0.999, 0.001], [0.001, 0.999], [0.999, 0.999], [0.5, 0.0]]
)


def make_fleet(
    n: int, seed: int, radius: float = 0.2, mix: bool = True, angle: float = math.pi / 2
) -> SensorFleet:
    if n == 0:
        return SensorFleet(
            positions=np.empty((0, 2)),
            orientations=np.empty(0),
            radii=np.empty(0),
            angles=np.empty(0),
        )
    if mix and n > 1:
        profile = HeterogeneousProfile.from_pairs(
            [
                (CameraSpec(radius=radius, angle_of_view=angle), 0.4),
                (CameraSpec(radius=0.6 * radius, angle_of_view=2.0), 0.6),
            ]
        )
    else:
        profile = HeterogeneousProfile.homogeneous(
            CameraSpec(radius=radius, angle_of_view=angle)
        )
    return UniformDeployment().deploy(profile, n, np.random.default_rng(seed))


def grid_points(side: int = 9) -> np.ndarray:
    centres = (np.arange(side) + 0.5) / side
    xs, ys = np.meshgrid(centres, centres)
    return np.column_stack([xs.ravel(), ys.ravel()])


def assert_kernels_identical(fleet: SensorFleet, points: np.ndarray, theta: float):
    """Every public kernel must agree bit-for-bit between paths."""
    assert np.array_equal(
        coverage_counts(fleet, points, kernel="dense"),
        coverage_counts(fleet, points, kernel="sparse"),
    )
    assert np.array_equal(
        max_gaps(fleet, points, kernel="dense"),
        max_gaps(fleet, points, kernel="sparse"),
    )
    assert np.array_equal(
        full_view_mask(fleet, points, theta, kernel="dense"),
        full_view_mask(fleet, points, theta, kernel="sparse"),
    )
    for condition in ("exact", "necessary", "sufficient"):
        assert np.array_equal(
            condition_mask(fleet, points, theta, condition, kernel="dense"),
            condition_mask(fleet, points, theta, condition, kernel="sparse"),
        ), condition
    for k in (1, 2, 5):
        assert np.array_equal(
            condition_mask(fleet, points, theta, "k_coverage", k=k, kernel="dense"),
            condition_mask(fleet, points, theta, "k_coverage", k=k, kernel="sparse"),
        ), k


class TestSparseCoveringPairs:
    def test_pairs_match_dense_matrices(self):
        fleet = make_fleet(120, seed=0)
        points = grid_points(8)
        sp = sparse_covering_pairs(fleet, points)
        dense_covers, dense_dirs = covering_and_directions(fleet, points)
        sp_covers, sp_dirs = sp.to_dense(len(fleet))
        assert np.array_equal(sp_covers, dense_covers)
        # Directions only comparable where the pair covers (non-candidate
        # pairs are nan in the sparse scatter).
        cov = dense_covers
        assert np.array_equal(
            np.nan_to_num(sp_dirs[cov], nan=-1.0),
            np.nan_to_num(dense_dirs[cov], nan=-1.0),
        )

    def test_rows_sorted_within_point(self):
        fleet = make_fleet(80, seed=1)
        sp = sparse_covering_pairs(fleet, grid_points(6))
        for i in range(sp.num_points):
            row = sp.sensors[sp.indptr[i] : sp.indptr[i + 1]]
            assert np.all(np.diff(row) > 0)

    def test_empty_fleet(self):
        fleet = make_fleet(0, seed=0)
        sp = sparse_covering_pairs(fleet, SEAM_POINTS)
        assert sp.num_points == len(SEAM_POINTS)
        assert sp.sensors.size == 0

    def test_no_points(self):
        fleet = make_fleet(10, seed=0)
        sp = sparse_covering_pairs(fleet, np.empty((0, 2)))
        assert sp.num_points == 0

    @pytest.mark.parametrize(
        "radius,mix",
        [
            pytest.param(radius, mix, id=f"two-groups-{radius}" if mix else str(radius))
            for mix in (False, True)
            for radius in (math.sqrt(math.log(2000) / 2000), 0.1, 0.2, 0.25)
        ],
    )
    def test_candidate_budget(self, radius, mix):
        # Candidates must hug each sensor's own sector, including at
        # radii that divide the unit side exactly and for small sensors
        # beside large ones: at most three times the expected number of
        # covering sensors per point, sum_j phi_j r_j^2 / 2 on the unit
        # torus.
        n = 2000
        fleet = make_fleet(n, seed=0, radius=radius, mix=mix)
        points = np.random.default_rng(1).uniform(size=(256, 2))
        sp = sparse_covering_pairs(fleet, points)
        per_point = sp.sensors.shape[0] / sp.num_points
        assert per_point <= 3 * fleet.sensing_areas().sum()


class TestBitIdentity:
    @pytest.mark.parametrize("n,seed,radius", [
        (1, 0, 0.2),          # single sensor
        (25, 1, 0.05),        # tiny radius, mostly-empty candidate rows
        (150, 2, 0.2),        # moderate mixed fleet
        (400, 3, 0.08),       # paper regime: r ~ sqrt(log n / n)
        (60, 4, 0.9),         # radius spanning the whole torus
    ])
    def test_grid_sweep(self, n, seed, radius):
        fleet = make_fleet(n, seed=seed, radius=radius)
        assert_kernels_identical(fleet, grid_points(9), THETA)

    def test_wrap_seam_points(self):
        fleet = make_fleet(200, seed=5)
        assert_kernels_identical(fleet, SEAM_POINTS, THETA)

    def test_empty_fleet(self):
        fleet = make_fleet(0, seed=0)
        assert_kernels_identical(fleet, SEAM_POINTS, THETA)

    def test_no_points(self):
        fleet = make_fleet(30, seed=6)
        points = np.empty((0, 2))
        assert_kernels_identical(fleet, points, THETA)

    @pytest.mark.parametrize("theta", [0.05, math.pi / 6, math.pi / 2])
    def test_theta_sweep(self, theta):
        fleet = make_fleet(150, seed=7)
        assert_kernels_identical(fleet, grid_points(7), theta)

    def test_whole_torus_radius_candidates_are_all_sensors(self):
        # When a sensing disk spans the region the candidate superset
        # must degrade gracefully to the full sensor list.
        fleet = make_fleet(20, seed=8, radius=0.9, mix=False, angle=2 * math.pi)
        sp = sparse_covering_pairs(fleet, SEAM_POINTS)
        assert np.all(np.diff(sp.indptr) == len(fleet))

    def test_whole_torus_radius_candidates_hold_covering_sensors(self):
        # A sector reaching past the half-turn lists, at every seam
        # probe, each sensor the scalar path says covers it.
        fleet = make_fleet(20, seed=8, radius=0.9, mix=False)
        sp = sparse_covering_pairs(fleet, SEAM_POINTS)
        for i, (x, y) in enumerate(SEAM_POINTS):
            row = set(sp.sensors[sp.indptr[i] : sp.indptr[i + 1]].tolist())
            assert set(fleet.covering((float(x), float(y))).tolist()) <= row

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=1000),
        radius=st.floats(min_value=0.01, max_value=0.95),
        theta_frac=st.floats(min_value=0.02, max_value=0.5),
    )
    def test_property_sweep(self, n, seed, radius, theta_frac):
        fleet = make_fleet(n, seed=seed, radius=radius)
        points = np.vstack(
            [SEAM_POINTS, np.random.default_rng(seed + 1).uniform(size=(12, 2))]
        )
        assert_kernels_identical(fleet, points, theta_frac * math.pi)

    def test_coverage_fraction_fast_agrees(self):
        fleet = make_fleet(120, seed=9)
        points = grid_points(8)
        assert coverage_fraction_fast(
            fleet, points, THETA, kernel="dense"
        ) == coverage_fraction_fast(fleet, points, THETA, kernel="sparse")


def pinned(task, kernel: str):
    """``task`` with its kernel policy pinned to one path."""
    return dataclasses.replace(task, kernel=KernelPolicy(kernel=kernel))


class TestEstimatorLevelIdentity:
    """A KernelPolicy pinned on a task flows through the engine, serial
    and parallel alike, without changing one outcome."""

    PROFILE = HeterogeneousProfile.homogeneous(
        CameraSpec(radius=0.25, angle_of_view=math.pi / 2)
    )
    AREA = AreaFractionTask(
        profile=PROFILE,
        n=60,
        theta=THETA,
        scheme=UniformDeployment(),
        condition="exact",
        sample_points=64,
    )

    def test_area_fraction_serial_dense_vs_sparse(self):
        serial = MonteCarloConfig(trials=6, seed=0)
        dense = execute_trials(pinned(self.AREA, "dense"), serial)
        sparse = execute_trials(pinned(self.AREA, "sparse"), serial)
        assert dense == sparse

    def test_area_fraction_sparse_serial_vs_workers(self):
        task = pinned(self.AREA, "sparse")
        serial = execute_trials(task, MonteCarloConfig(trials=6, seed=0))
        parallel = execute_trials(task, MonteCarloConfig(trials=6, seed=0, workers=2))
        assert serial == parallel

    @pytest.mark.parametrize("q", [0.7, 1.0, 1.6])
    def test_phase_grid_failure_dense_sparse_serial_workers(self, q):
        # PHASE's fast-mode grid-failure trial at one q of its sweep:
        # both kernels, serial and on two workers, four identical runs.
        n, theta = 300, math.pi / 2
        scheme = UniformDeployment()
        task = GridFailureTask(
            profile=HeterogeneousProfile.homogeneous(
                CameraSpec.from_area(q * csa_necessary(n, theta), math.pi / 2)
            ),
            n=n,
            theta=theta,
            scheme=scheme,
            condition="necessary",
            grid=DenseGrid.for_sensor_count(n, scheme.region),
            max_grid_points=300,
        )
        runs = [
            execute_trials(
                pinned(task, kernel), MonteCarloConfig(trials=10, seed=7, workers=w)
            )
            for kernel in ("dense", "sparse")
            for w in (1, 2)
        ]
        assert all(run == runs[0] for run in runs[1:])


class TestResolveKernel:
    def test_explicit_choice_wins(self):
        fleet = make_fleet(10, seed=0)
        assert resolve_kernel(fleet, 5, "dense") == "dense"
        assert resolve_kernel(fleet, 5, "sparse") == "sparse"

    def test_invalid_kernel_rejected(self):
        fleet = make_fleet(5, seed=0)
        with pytest.raises(InvalidParameterError, match="kernel"):
            resolve_kernel(fleet, 5, "fast")

    def test_small_workloads_stay_dense(self):
        fleet = make_fleet(10, seed=0)
        assert resolve_kernel(fleet, 10, "auto") == "dense"

    def test_empty_fleet_stays_dense(self):
        fleet = make_fleet(0, seed=0)
        assert resolve_kernel(fleet, 10_000, "auto") == "dense"

    def test_large_low_density_goes_sparse(self):
        fleet = make_fleet(500, seed=0, radius=0.05)
        assert resolve_kernel(fleet, 500, "auto") == "sparse"

    def test_high_density_stays_dense(self):
        fleet = make_fleet(500, seed=0, radius=0.9, mix=False)
        assert resolve_kernel(fleet, 500, "auto") == "dense"



class TestKernelPolicy:
    def test_defaults_to_auto(self):
        assert KernelPolicy().kernel == "auto"

    @pytest.mark.parametrize("choice", KERNEL_CHOICES)
    def test_accepts_all_choices(self, choice):
        assert KernelPolicy(kernel=choice).kernel == choice

    def test_rejects_unknown(self):
        with pytest.raises(InvalidParameterError):
            KernelPolicy(kernel="gpu")

    def test_is_picklable(self):
        import pickle

        policy = KernelPolicy(kernel="sparse")
        assert pickle.loads(pickle.dumps(policy)) == policy


class TestObservability:
    def test_kernel_choice_counted(self):
        fleet = make_fleet(50, seed=0)
        points = grid_points(5)
        registry = MetricsRegistry()
        with metrics_scope(registry):
            full_view_mask(fleet, points, THETA, kernel="sparse")
            full_view_mask(fleet, points, THETA, kernel="dense")
            full_view_mask(fleet, points, THETA, kernel="dense")
        assert registry.counter("kernel_sparse") == 1
        assert registry.counter("kernel_dense") == 2

    def test_condition_mask_counts_once(self):
        # "exact" delegates internally; the choice must be counted once.
        fleet = make_fleet(50, seed=0)
        registry = MetricsRegistry()
        with metrics_scope(registry):
            condition_mask(fleet, grid_points(5), THETA, "exact", kernel="sparse")
        assert registry.counter("kernel_sparse") == 1
