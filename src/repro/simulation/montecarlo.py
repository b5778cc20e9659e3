"""Seeded Monte-Carlo estimators for coverage probabilities.

Three estimators cover everything the paper's evaluation needs:

- :func:`estimate_point_probability` — the probability that a *fixed
  point* meets a condition (necessary / sufficient / exact full-view /
  k-coverage) over fresh random deployments.  This is the simulated
  counterpart of eq. (2), eq. (13) and Theorems 3-4.
- :func:`estimate_grid_failure_probability` — the probability that
  *some* point of the dense grid fails the condition, the event
  ``not H`` whose CSA-driven phase transition Theorems 1-2 describe.
- :func:`estimate_area_fraction` — the expected fraction of the region
  meeting a condition, the quantity Section V identifies with the
  per-point probability.

Each estimator is a thin wrapper over a *trial task* — a frozen,
picklable dataclass mapping ``(trial, rng)`` to a small record — run by
the shared engine (:mod:`repro.simulation.engine`).  The engine derives
each trial's generator from the :class:`MonteCarloConfig` master seed,
so runs are reproducible, trials are independent, and serial and
process-parallel execution tally bit-identical estimates.  Point
evaluation inside the tasks goes through the vectorised batch kernels
(:mod:`repro.core.batch`), which are property-tested bit-identical to
the scalar reference path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple

import numpy as np

from repro.core.batch import condition_mask
from repro.core.kernels import KernelPolicy
from repro.deployment.base import DeploymentScheme
from repro.deployment.uniform import UniformDeployment
from repro.errors import InvalidParameterError
from repro.geometry.angles import validate_effective_angle
from repro.geometry.grid import DenseGrid
from repro.sensors.model import HeterogeneousProfile
from repro.simulation.engine import MonteCarloConfig, execute_trials
from repro.simulation.statistics import BernoulliEstimate, mean_and_half_width

__all__ = [
    "AreaFractionTask",
    "ConditionChainTask",
    "EstimatorTask",
    "GridFailureTask",
    "MonteCarloConfig",
    "Point",
    "PointProbabilityTask",
    "estimate_area_fraction",
    "estimate_condition_chain",
    "estimate_grid_failure_probability",
    "estimate_point_probability",
]

Point = Tuple[float, float]

#: Conditions the point-level tasks accept.
_POINT_CONDITIONS = ("necessary", "sufficient", "exact", "k_coverage")

#: Conditions the grid failure estimator accepts (k-coverage of a grid
#: is a different quantity, served by :mod:`repro.core.kcoverage`).
_GRID_CONDITIONS = ("necessary", "sufficient", "exact")

#: The chain task's verdict order (weakest to strongest), as
#: :func:`estimate_condition_chain` unpacks it.
_CHAIN_CONDITIONS = ("necessary", "exact", "sufficient")


def _validate_point_condition(condition: str, theta: float, k: int) -> None:
    """Eagerly validate point-task parameters."""
    validate_effective_angle(theta)
    if condition not in _POINT_CONDITIONS:
        raise InvalidParameterError(
            "condition must be one of 'necessary', 'sufficient', 'exact', "
            f"'k_coverage'; got {condition!r}"
        )
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k!r}")


@dataclass(frozen=True, kw_only=True)
class EstimatorTask:
    """Shared keyword-only signature of the four estimator trial tasks.

    Every estimator task deploys ``n`` sensors drawn from ``profile``
    via ``scheme`` and evaluates some condition at effective angle
    ``theta`` through :func:`~repro.core.batch.condition_mask`.
    ``kernel`` is left at ``"auto"`` by the estimators, so the batch
    kernels pick the dense or sparse path themselves; tests and
    benchmarks replace it to pin one path, which never changes a
    verdict.  Subclasses add their own keyword-only fields and stay
    frozen and picklable for the process-pool executor.

    ``releases_gil`` advertises that the tasks spend their time inside
    numpy's batch kernels, which drop the GIL — the signal
    :func:`~repro.simulation.engine.executor_for` uses to pick the
    thread backend.  A class-level marker, not a field: it describes
    the task *code*, travels with the class, and keeps the engine free
    of any import of this module.
    """

    #: Estimator trials are numpy-kernel bound; ``auto`` may use threads.
    releases_gil: ClassVar[bool] = True

    profile: HeterogeneousProfile
    n: int
    theta: float
    scheme: DeploymentScheme
    kernel: KernelPolicy = KernelPolicy()

    def __post_init__(self) -> None:
        validate_effective_angle(self.theta)


@dataclass(frozen=True, kw_only=True)
class PointProbabilityTask(EstimatorTask):
    """One trial of :func:`estimate_point_probability`.

    Deploys a fresh fleet and reports whether the fixed ``point`` meets
    ``condition``.  Evaluation goes through the batch kernel, which
    never consults the spatial index for a dense evaluation (the sparse
    kernel builds the fleet's index on demand); the verdict is
    identical to the scalar reference path.  Frozen and picklable,
    so the parallel executor can ship it to worker processes.
    """

    condition: str
    point: Point
    k: int = 1

    def __post_init__(self) -> None:
        _validate_point_condition(self.condition, self.theta, self.k)

    def __call__(self, trial: int, rng: np.random.Generator) -> bool:
        """Deploy and test the fixed point (the trial index is unused)."""
        del trial
        fleet = self.scheme.deploy(self.profile, self.n, rng)
        pts = np.array([self.point], dtype=float)
        return bool(
            condition_mask(
                fleet, pts, self.theta, self.condition, k=self.k,
                kernel=self.kernel.kernel,
            )[0]
        )


@dataclass(frozen=True, kw_only=True)
class GridFailureTask(EstimatorTask):
    """One trial of :func:`estimate_grid_failure_probability`.

    Deploys a fresh fleet and reports whether *some* evaluation point
    fails ``condition`` — the event ``not H``.  The grid is subsampled
    per trial (consuming the trial generator after the deployment, in
    that order, for stream stability) when ``max_grid_points`` caps it.
    """

    condition: str
    grid: DenseGrid
    max_grid_points: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.condition not in _GRID_CONDITIONS:
            raise InvalidParameterError(
                "grid conditions are 'necessary', 'sufficient' or 'exact', "
                f"got {self.condition!r}"
            )

    def __call__(self, trial: int, rng: np.random.Generator) -> bool:
        """Deploy and scan the grid for a failing point."""
        del trial
        fleet = self.scheme.deploy(self.profile, self.n, rng)
        if self.max_grid_points is not None and self.max_grid_points < len(self.grid):
            points = self.grid.sample(self.max_grid_points, rng)
        else:
            points = self.grid.points
        if len(fleet) == 0:
            return True
        # Vectorised evaluation with growing chunks: small first chunks
        # keep the early exit cheap in failing regimes, large later
        # chunks amortise vectorisation when the trial is (nearly)
        # fully covered.  Verdict identical to a point-by-point scalar
        # loop.
        start = 0
        chunk = 32
        while start < points.shape[0]:
            mask = condition_mask(
                fleet,
                points[start : start + chunk],
                self.theta,
                self.condition,
                kernel=self.kernel.kernel,
            )
            if not mask.all():
                return True
            start += chunk
            chunk = min(4 * chunk, 2048)
        return False


@dataclass(frozen=True, kw_only=True)
class AreaFractionTask(EstimatorTask):
    """One trial of :func:`estimate_area_fraction`.

    Deploys a fresh fleet, draws ``sample_points`` uniform points with
    the same trial generator (after the deployment, preserving the
    historical draw order), and returns the fraction meeting
    ``condition`` — evaluated in one vectorised batch instead of a
    scalar per-point loop.
    """

    condition: str
    sample_points: int = 256
    k: int = 1

    def __post_init__(self) -> None:
        _validate_point_condition(self.condition, self.theta, self.k)
        if self.sample_points < 1:
            raise InvalidParameterError(
                f"sample_points must be >= 1, got {self.sample_points!r}"
            )

    def __call__(self, trial: int, rng: np.random.Generator) -> float:
        """Deploy and evaluate one batch of uniform sample points."""
        del trial
        fleet = self.scheme.deploy(self.profile, self.n, rng)
        points = rng.uniform(0.0, self.scheme.region.side, size=(self.sample_points, 2))
        mask = condition_mask(
            fleet, points, self.theta, self.condition, k=self.k,
            kernel=self.kernel.kernel,
        )
        return float(mask.mean())


@dataclass(frozen=True, kw_only=True)
class ConditionChainTask(EstimatorTask):
    """One trial of :func:`estimate_condition_chain`.

    Deploys one fleet and evaluates necessary / exact / sufficient at
    the fixed ``point`` on it through the batch kernel, returning the
    three verdicts as a tuple in that order.
    """

    point: Point

    def __call__(
        self, trial: int, rng: np.random.Generator
    ) -> Tuple[bool, bool, bool]:
        """Deploy once and evaluate all three conditions at the point."""
        del trial
        fleet = self.scheme.deploy(self.profile, self.n, rng)
        pts = np.array([self.point], dtype=float)
        return tuple(
            bool(
                condition_mask(
                    fleet, pts, self.theta, condition, kernel=self.kernel.kernel
                )[0]
            )
            for condition in _CHAIN_CONDITIONS
        )


def _default_point(scheme: DeploymentScheme, point: Optional[Point]) -> Point:
    """The fixed evaluation point: caller's choice or the region centre."""
    if point is not None:
        return (float(point[0]), float(point[1]))
    side = scheme.region.side
    return (0.5 * side, 0.5 * side)


def estimate_point_probability(
    profile: HeterogeneousProfile,
    n: int,
    theta: float,
    condition: str,
    config: MonteCarloConfig,
    scheme: Optional[DeploymentScheme] = None,
    point: Optional[Point] = None,
    k: int = 1,
) -> BernoulliEstimate:
    """P(a fixed point meets ``condition``) over random deployments.

    The default point is the region centre (on the torus every point is
    equivalent, so the choice is immaterial — property-tested).
    """
    scheme = scheme or UniformDeployment()
    task = PointProbabilityTask(
        profile=profile,
        n=n,
        theta=validate_effective_angle(theta),
        condition=condition,
        scheme=scheme,
        point=_default_point(scheme, point),
        k=k,
    )
    outcomes = execute_trials(task, config)
    successes = sum(1 for outcome in outcomes if outcome.value)
    return BernoulliEstimate(successes=successes, trials=config.trials)


def estimate_grid_failure_probability(
    profile: HeterogeneousProfile,
    n: int,
    theta: float,
    condition: str,
    config: MonteCarloConfig,
    scheme: Optional[DeploymentScheme] = None,
    grid: Optional[DenseGrid] = None,
    max_grid_points: Optional[int] = None,
) -> BernoulliEstimate:
    """P(some grid point fails ``condition``) — the event ``not H``.

    ``grid`` defaults to the paper's dense grid for ``n`` sensors.
    ``max_grid_points`` subsamples the grid (uniformly, per trial) to
    bound work on large grids; the resulting estimate lower-bounds the
    full-grid failure probability and converges to it as the cap grows.
    """
    scheme = scheme or UniformDeployment()
    task = GridFailureTask(
        profile=profile,
        n=n,
        theta=validate_effective_angle(theta),
        condition=condition,
        scheme=scheme,
        grid=grid or DenseGrid.for_sensor_count(n, scheme.region),
        max_grid_points=max_grid_points,
    )
    outcomes = execute_trials(task, config)
    failures = sum(1 for outcome in outcomes if outcome.value)
    return BernoulliEstimate(successes=failures, trials=config.trials)


def estimate_area_fraction(
    profile: HeterogeneousProfile,
    n: int,
    theta: float,
    condition: str,
    config: MonteCarloConfig,
    scheme: Optional[DeploymentScheme] = None,
    sample_points: int = 256,
    k: int = 1,
) -> Tuple[float, float]:
    """Expected fraction of the region meeting ``condition``.

    Each trial deploys a fleet and evaluates ``sample_points`` uniform
    random points; fractions are averaged across trials.  Returns
    ``(mean, ci_half_width)`` at 95% confidence.
    """
    scheme = scheme or UniformDeployment()
    task = AreaFractionTask(
        profile=profile,
        n=n,
        theta=validate_effective_angle(theta),
        condition=condition,
        scheme=scheme,
        sample_points=sample_points,
        k=k,
    )
    outcomes = execute_trials(task, config)
    return mean_and_half_width([outcome.value for outcome in outcomes])


def estimate_condition_chain(
    profile: HeterogeneousProfile,
    n: int,
    theta: float,
    config: MonteCarloConfig,
    scheme: Optional[DeploymentScheme] = None,
    point: Optional[Point] = None,
) -> dict:
    """Joint per-trial evaluation of necessary / exact / sufficient.

    Evaluates all three conditions on the *same* deployments, returning
    a dict of :class:`BernoulliEstimate` plus the count of sandwich
    violations (which must be zero: sufficient => exact => necessary).
    Used by the GAP experiment (Section VI-C).
    """
    scheme = scheme or UniformDeployment()
    task = ConditionChainTask(
        profile=profile,
        n=n,
        theta=validate_effective_angle(theta),
        scheme=scheme,
        point=_default_point(scheme, point),
    )
    outcomes = execute_trials(task, config)
    counts = {"necessary": 0, "exact": 0, "sufficient": 0}
    violations = 0
    for outcome in outcomes:
        nec, exact, suf = outcome.value
        counts["necessary"] += nec
        counts["exact"] += exact
        counts["sufficient"] += suf
        if (suf and not exact) or (exact and not nec):
            violations += 1
    estimates = {
        name: BernoulliEstimate(successes=val, trials=config.trials)
        for name, val in counts.items()
    }
    estimates["sandwich_violations"] = violations
    return estimates
