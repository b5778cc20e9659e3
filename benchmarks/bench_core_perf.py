"""PERF — throughput of the core primitives (engineering benchmark).

Not a paper artifact: tracks the speed of the hot paths so performance
regressions in the geometry/fleet layers are visible.  These run with
real repetition (pytest-benchmark defaults) unlike the single-shot
experiment benches.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from _record import BENCH_CORE, record

from repro.core.conditions import necessary_condition_holds, sufficient_condition_holds
from repro.core.csa import csa_necessary, csa_sufficient
from repro.core.full_view import is_full_view_covered
from repro.core.uniform_theory import necessary_failure_probability
from repro.deployment.uniform import UniformDeployment
from repro.geometry.intervals import AngularIntervalSet, max_circular_gap
from repro.sensors.model import CameraSpec, HeterogeneousProfile

THETA = math.pi / 3


def _record_mean(bench: str, fn, *args, reps: int = 50, **kwargs) -> float:
    """Ledger a self-timed mean for ``fn`` into ``BENCH_core.json``.

    ``benchmark.stats`` is unavailable under ``--benchmark-disable``,
    so the recorded number comes from a short timed loop of its own.
    Returns the mean in microseconds so callers can compare paths.
    """
    start = time.perf_counter()
    for _ in range(reps):
        fn(*args, **kwargs)
    mean_us = (time.perf_counter() - start) / reps * 1e6
    record(bench, mean_us, "us/call", BENCH_CORE)
    return mean_us


@pytest.fixture(scope="module")
def fleet():
    profile = HeterogeneousProfile.homogeneous(
        CameraSpec(radius=0.1, angle_of_view=math.pi / 2)
    )
    fleet = UniformDeployment().deploy(profile, 2000, np.random.default_rng(0))
    fleet.build_index()
    return fleet


@pytest.fixture(scope="module")
def directions():
    return np.random.default_rng(1).uniform(0, 2 * math.pi, size=64)


def test_perf_covering_query(benchmark, fleet):
    """Brute-force covering query on a 2000-sensor fleet."""
    result = benchmark(fleet.covering, (0.5, 0.5))
    assert result is not None


def test_perf_covering_directions(benchmark, fleet):
    benchmark(fleet.covering_directions, (0.5, 0.5))


def test_perf_exact_full_view(benchmark, directions):
    benchmark(is_full_view_covered, directions, THETA)
    _record_mean("core_exact_full_view", is_full_view_covered, directions, THETA)


def test_perf_max_circular_gap(benchmark, directions):
    benchmark(max_circular_gap, directions)


def test_perf_interval_set_union(benchmark, directions):
    benchmark(AngularIntervalSet.from_directions, directions, THETA)


def test_perf_necessary_condition(benchmark, directions):
    benchmark(necessary_condition_holds, directions, THETA)


def test_perf_sufficient_condition(benchmark, directions):
    benchmark(sufficient_condition_holds, directions, THETA)


def test_perf_csa_formulas(benchmark):
    def both():
        csa_necessary(1000, THETA)
        csa_sufficient(1000, THETA)

    benchmark(both)


def test_perf_failure_probability(benchmark):
    profile = HeterogeneousProfile.homogeneous(
        CameraSpec(radius=0.1, angle_of_view=math.pi / 2)
    )
    benchmark(necessary_failure_probability, profile, 1000, THETA)


def test_perf_full_view_mask_batch(benchmark, fleet):
    """Vectorised batch checker over 256 points x 2000 sensors."""
    from repro.core.batch import full_view_mask

    points = np.random.default_rng(2).uniform(size=(256, 2))
    result = benchmark(full_view_mask, fleet, points, THETA)
    assert result.shape == (256,)
    _record_mean("core_full_view_mask_256", full_view_mask, fleet, points, THETA, reps=10)


@pytest.fixture(scope="module")
def paper_fleet():
    """The acceptance regime: n = 2000 sensors at r = sqrt(log n / n)."""
    n = 2000
    radius = math.sqrt(math.log(n) / n)
    profile = HeterogeneousProfile.homogeneous(
        CameraSpec(radius=radius, angle_of_view=math.pi / 2)
    )
    fleet = UniformDeployment().deploy(profile, n, np.random.default_rng(0))
    fleet.build_index()
    return fleet


def test_perf_full_view_mask_sparse(benchmark, paper_fleet):
    """Sparse candidate-pruned checker vs dense, same fleet and points.

    The sparse path must be at least 4x faster than the dense path in
    the paper's regime (r ~ sqrt(log n / n), so each point sees only
    O(log n) candidate sensors out of 2000).
    """
    from repro.core.batch import full_view_mask

    points = np.random.default_rng(2).uniform(size=(256, 2))
    result = benchmark(full_view_mask, paper_fleet, points, THETA, kernel="sparse")
    assert result.shape == (256,)
    sparse_us = _record_mean(
        "core_full_view_mask_sparse_256",
        full_view_mask, paper_fleet, points, THETA, reps=10, kernel="sparse",
    )
    dense_us = _record_mean(
        "core_full_view_mask_dense_256",
        full_view_mask, paper_fleet, points, THETA, reps=10, kernel="dense",
    )
    record("core_sparse_speedup_256", dense_us / sparse_us, "x", BENCH_CORE)
    assert dense_us / sparse_us >= 4.0


def test_perf_sparse_candidate_density_sweep(paper_fleet):
    """How sparse throughput scales with candidate density.

    Sweeps the sensing radius from the paper regime up towards
    region-scale disks, recording pairs-per-point and us/call per
    density so the dispatch cutoff stays grounded in measurements.
    """
    from repro.core.batch import full_view_mask, sparse_covering_pairs

    n = 2000
    points = np.random.default_rng(2).uniform(size=(256, 2))
    for radius in (math.sqrt(math.log(n) / n), 0.1, 0.2, 0.4):
        profile = HeterogeneousProfile.homogeneous(
            CameraSpec(radius=radius, angle_of_view=math.pi / 2)
        )
        fleet = UniformDeployment().deploy(profile, n, np.random.default_rng(0))
        fleet.build_index()
        sp = sparse_covering_pairs(fleet, points)
        pairs_per_point = sp.sensors.shape[0] / points.shape[0]
        tag = f"r{radius:.3f}".replace(".", "p")
        record(f"core_sparse_pairs_per_point_{tag}", pairs_per_point, "pairs", BENCH_CORE)
        _record_mean(
            f"core_full_view_mask_sparse_256_{tag}",
            full_view_mask, fleet, points, THETA, reps=5, kernel="sparse",
        )


def test_perf_breach_cost(benchmark, directions):
    from repro.core.redundancy import breach_cost

    benchmark(breach_cost, directions, THETA)


def test_perf_minimum_guard_set(benchmark, directions):
    from repro.core.redundancy import minimum_guard_set

    benchmark(minimum_guard_set, directions, THETA)


def test_perf_deployment(benchmark):
    profile = HeterogeneousProfile.homogeneous(
        CameraSpec(radius=0.1, angle_of_view=math.pi / 2)
    )

    def deploy():
        return UniformDeployment().deploy(profile, 1000, np.random.default_rng(0))

    fleet = benchmark(deploy)
    assert len(fleet) == 1000
