"""Network lifetime: coverage *over time* under progressive failures.

The paper's fault-tolerance argument (Section VII-B) is static: deploy
with k-fold slack and failures are absorbed.  This module makes the
claim dynamic.  A deployed fleet is stepped through discrete epochs; at
each epoch a :class:`~repro.resilience.failures.FailureSchedule` is
applied and the chosen full-view condition is re-evaluated on the dense
grid.  The *lifetime* of a deployment is the first epoch at which the
condition breaks somewhere on the grid; sweeping deployments yields
lifetime distributions and coverage-vs-time curves, the quantities that
price provisioning (deploying ``q`` times the sufficient CSA) in epochs
of guaranteed operation.

Related work runs on exactly this machinery: graceful degradation under
partial coverage (Tripathi et al.) is the coverage-fraction curve, and
coverage maintenance in mobile/failing camera networks is the survival
curve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional, Tuple

import numpy as np

from repro.core.batch import condition_mask
from repro.deployment.base import DeploymentScheme
from repro.deployment.uniform import UniformDeployment
from repro.errors import InvalidParameterError
from repro.geometry.angles import validate_effective_angle
from repro.geometry.grid import DenseGrid
from repro.obs import emit
from repro.obs.events import EpochAdvanced
from repro.obs.trace import span
from repro.resilience.failures import FailureModel
from repro.sensors.fleet import SensorFleet
from repro.sensors.model import HeterogeneousProfile
from repro.simulation.engine import MonteCarloConfig, execute_trials

__all__ = [
    "LifetimeDistribution",
    "LifetimeTask",
    "LifetimeTrace",
    "LifetimeValueTask",
    "lifetime_distribution",
    "make_lifetime_trial",
    "simulate_lifetime",
]

#: Conditions the lifetime clock can be tied to.
_CONDITIONS = ("necessary", "exact", "sufficient")


def _validate_condition(condition: str) -> str:
    if condition not in _CONDITIONS:
        raise InvalidParameterError(
            f"condition must be one of {_CONDITIONS}, got {condition!r}"
        )
    return condition


@dataclass(frozen=True)
class LifetimeTrace:
    """One deployment's trajectory through the failure epochs.

    Attributes
    ----------
    break_epoch:
        First epoch (0 = as deployed, before any failures) at which the
        condition failed somewhere on the evaluation points, or ``None``
        if it held through every simulated epoch (right-censored).
    epochs:
        Number of failure epochs simulated.
    coverage_fractions:
        Fraction of evaluation points meeting the condition at epochs
        ``0..k`` (``k <= epochs``; shorter when the simulation stopped
        at the break).
    alive_counts:
        Fleet size at the same epochs.
    """

    break_epoch: Optional[int]
    epochs: int
    coverage_fractions: Tuple[float, ...]
    alive_counts: Tuple[int, ...]

    @property
    def survived(self) -> bool:
        """Whether the condition held through every simulated epoch."""
        return self.break_epoch is None

    @property
    def lifetime(self) -> int:
        """Epochs of intact operation (censored at ``epochs``).

        A deployment broken as deployed has lifetime 0; one that first
        breaks after the ``t``-th failure epoch has lifetime ``t``; one
        that never breaks counts the full horizon ``epochs``.
        """
        return self.epochs if self.break_epoch is None else self.break_epoch


def simulate_lifetime(
    fleet: SensorFleet,
    schedule: FailureModel,
    theta: float,
    *,
    epochs: int,
    rng: np.random.Generator,
    condition: str = "necessary",
    points: Optional[np.ndarray] = None,
    stop_at_break: bool = False,
) -> LifetimeTrace:
    """Step one deployed fleet through failure epochs.

    ``points`` are the evaluation points (default: the paper's dense
    grid for the initial fleet size).  With ``stop_at_break`` the
    simulation ends at the first broken epoch (cheaper when only the
    lifetime is needed); otherwise it runs the full horizon so
    coverage-vs-time curves cover every epoch.
    """
    theta = validate_effective_angle(theta)
    condition = _validate_condition(condition)
    if not isinstance(schedule, FailureModel):
        raise InvalidParameterError(
            f"schedule must be a FailureModel, got {schedule!r}"
        )
    if epochs < 1:
        raise InvalidParameterError(f"epochs must be >= 1, got {epochs!r}")
    if points is None:
        points = DenseGrid.for_sensor_count(max(1, len(fleet)), fleet.region).points
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    if points.shape[0] == 0:
        raise InvalidParameterError("need at least one evaluation point")

    def evaluate(current: SensorFleet) -> float:
        if len(current) == 0:
            return 0.0
        return float(condition_mask(current, points, theta, condition).mean())

    fractions = [evaluate(fleet)]
    alive = [len(fleet)]
    break_epoch: Optional[int] = None if fractions[0] >= 1.0 else 0
    for epoch in range(1, epochs + 1):
        if stop_at_break and break_epoch is not None:
            break
        fleet = schedule.apply(fleet, rng)
        fraction = evaluate(fleet)
        fractions.append(fraction)
        alive.append(len(fleet))
        if break_epoch is None and fraction < 1.0:
            break_epoch = epoch
        # Telemetry only (no-op without an obs context; worker
        # processes never have one, while worker threads feed the
        # parent's thread-safe log and tracker).
        emit(EpochAdvanced(epoch=epoch, alive=len(fleet), coverage=fraction))
    return LifetimeTrace(
        break_epoch=break_epoch,
        epochs=epochs,
        coverage_fractions=tuple(fractions),
        alive_counts=tuple(alive),
    )


@dataclass(frozen=True)
class LifetimeDistribution:
    """Lifetimes of many independent deployments under one schedule.

    Attributes
    ----------
    lifetimes:
        Per-trial lifetimes (censored values equal ``epochs``).
    censored:
        Whether each trial survived the whole horizon.
    epochs:
        The simulated horizon.
    mean_coverage_by_epoch:
        Mean coverage fraction at epochs ``0..epochs`` across trials
        (empty when traces stopped at the break).
    """

    lifetimes: Tuple[int, ...]
    censored: Tuple[bool, ...]
    epochs: int
    mean_coverage_by_epoch: Tuple[float, ...] = ()

    @property
    def trials(self) -> int:
        return len(self.lifetimes)

    @property
    def mean_lifetime(self) -> float:
        return float(np.mean(self.lifetimes))

    @property
    def median_lifetime(self) -> float:
        return float(np.median(self.lifetimes))

    @property
    def censored_fraction(self) -> float:
        return sum(self.censored) / max(1, self.trials)

    def survival_curve(self) -> Tuple[float, ...]:
        """``S(t)``: fraction of deployments intact after epoch ``t``.

        Index ``t`` runs ``0..epochs``; censored trials count as intact
        through the horizon.  Nonincreasing by construction.
        """
        lifetimes = np.asarray(self.lifetimes)
        censored = np.asarray(self.censored)
        return tuple(
            float(np.mean((lifetimes > t) | ((lifetimes >= t) & censored)))
            for t in range(self.epochs + 1)
        )


@dataclass(frozen=True)
class LifetimeTask:
    """One lifetime trial: deploy, step the failure epochs, emit a trace.

    A frozen, picklable trial task for the shared engine
    (:mod:`repro.simulation.engine`): the per-trial generator drives the
    deployment, the optional grid subsample and the failure schedule —
    in that order, matching the historical serial loop, so lifetime
    sweeps are bit-identical across executors.  ``grid`` defaults to
    the paper's dense grid for ``n`` sensors (precompute it once via
    :func:`lifetime_distribution` / :func:`make_lifetime_trial` to
    avoid rebuilding per trial).
    """

    #: Every epoch is a batch coverage kernel, so ``executor_for`` may
    #: run lifetime sweeps on threads.
    releases_gil: ClassVar[bool] = True

    profile: HeterogeneousProfile
    n: int
    theta: float
    schedule: FailureModel
    epochs: int
    scheme: DeploymentScheme
    condition: str = "necessary"
    grid: Optional[DenseGrid] = None
    max_grid_points: Optional[int] = None
    track_curves: bool = False

    def __post_init__(self) -> None:
        validate_effective_angle(self.theta)
        _validate_condition(self.condition)
        if self.epochs < 1:
            raise InvalidParameterError(f"epochs must be >= 1, got {self.epochs!r}")

    def __call__(self, trial: int, rng: np.random.Generator) -> LifetimeTrace:
        """Run one deployment through the epochs (trial index unused)."""
        del trial
        with span("deploy"):
            fleet = self.scheme.deploy(self.profile, self.n, rng)
        grid = (
            self.grid
            if self.grid is not None
            else DenseGrid.for_sensor_count(self.n, self.scheme.region)
        )
        if self.max_grid_points is not None and self.max_grid_points < len(grid):
            points = grid.sample(self.max_grid_points, rng)
        else:
            points = grid.points
        return simulate_lifetime(
            fleet,
            self.schedule,
            self.theta,
            epochs=self.epochs,
            rng=rng,
            condition=self.condition,
            points=points,
            stop_at_break=not self.track_curves,
        )


@dataclass(frozen=True)
class LifetimeValueTask:
    """Scalar wrapper around :class:`LifetimeTask` for the runner.

    :func:`repro.simulation.runner.run_resilient_trials` records
    numeric outcomes, so this wrapper reduces each trace to its
    lifetime.  Frozen and picklable like the task it wraps.
    """

    releases_gil: ClassVar[bool] = True

    task: LifetimeTask

    def __call__(self, trial: int, rng: np.random.Generator) -> float:
        """The trial's lifetime in epochs (censored at the horizon)."""
        return float(self.task(trial, rng).lifetime)


def lifetime_distribution(
    profile: HeterogeneousProfile,
    n: int,
    theta: float,
    schedule: FailureModel,
    config: MonteCarloConfig,
    *,
    epochs: int,
    condition: str = "necessary",
    scheme: Optional[DeploymentScheme] = None,
    max_grid_points: Optional[int] = None,
    track_curves: bool = False,
    isolate: bool = False,
) -> LifetimeDistribution:
    """Monte-Carlo lifetime distribution over fresh deployments.

    Each trial deploys ``n`` sensors from ``profile``, then steps the
    failure schedule with the *same* trial generator, so the whole
    trajectory is reproducible from the config seed.  The dense grid is
    subsampled per trial to ``max_grid_points`` when set.  Trials run
    on the shared engine, so ``config.workers`` parallelises the sweep
    with bit-identical results.

    With ``isolate`` a failing (or quarantined) trial is dropped from
    the distribution with a warning instead of killing the sweep — the
    long-horizon regime where a single poisoned trial must not cost
    hours of completed epochs.
    """
    scheme = scheme or UniformDeployment()
    task = LifetimeTask(
        profile=profile,
        n=n,
        theta=validate_effective_angle(theta),
        schedule=schedule,
        epochs=epochs,
        scheme=scheme,
        condition=_validate_condition(condition),
        grid=DenseGrid.for_sensor_count(n, scheme.region),
        max_grid_points=max_grid_points,
        track_curves=track_curves,
    )
    outcomes = execute_trials(task, config, isolate=isolate)
    if isolate:
        lost = [outcome for outcome in outcomes if not outcome.ok]
        if lost:
            warnings.warn(
                f"lifetime sweep lost {len(lost)} of {len(outcomes)} trials "
                f"to isolated failures (first: trial {lost[0].trial}: "
                f"{lost[0].error}); the distribution covers the survivors",
                RuntimeWarning,
                stacklevel=2,
            )
        outcomes = [outcome for outcome in outcomes if outcome.ok]
    traces = [outcome.value for outcome in outcomes]
    curves = [t.coverage_fractions for t in traces] if track_curves else []
    mean_curve: Tuple[float, ...] = ()
    if track_curves and curves:
        mean_curve = tuple(float(x) for x in np.mean(np.asarray(curves), axis=0))
    return LifetimeDistribution(
        lifetimes=tuple(t.lifetime for t in traces),
        censored=tuple(t.survived for t in traces),
        epochs=epochs,
        mean_coverage_by_epoch=mean_curve,
    )


def make_lifetime_trial(
    profile: HeterogeneousProfile,
    n: int,
    theta: float,
    schedule: FailureModel,
    *,
    epochs: int,
    condition: str = "necessary",
    scheme: Optional[DeploymentScheme] = None,
    max_grid_points: Optional[int] = None,
) -> Callable[[int, np.random.Generator], float]:
    """A per-trial lifetime function for the resilient runner.

    Returns a picklable ``trial_fn(trial, rng) -> lifetime`` suitable
    for :func:`repro.simulation.runner.run_resilient_trials`, so long
    lifetime sweeps inherit checkpoint/resume, fault isolation *and*
    process-parallel execution.
    """
    scheme = scheme or UniformDeployment()
    return LifetimeValueTask(
        task=LifetimeTask(
            profile=profile,
            n=n,
            theta=validate_effective_angle(theta),
            schedule=schedule,
            epochs=epochs,
            scheme=scheme,
            condition=_validate_condition(condition),
            grid=DenseGrid.for_sensor_count(n, scheme.region),
            max_grid_points=max_grid_points,
        )
    )
