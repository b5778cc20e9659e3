"""The stable, high-level facade of the reproduction.

Five entry points cover the workflows notebooks and scripts actually
need, with keyword-only arguments and defaults matching the paper:

- :func:`deploy` — describe cameras, scatter ``n`` of them, get a
  :class:`~repro.sensors.fleet.SensorFleet`.
- :func:`evaluate_grid` — full-view (or any named condition) verdicts
  over a grid of points, through the batch kernels.
- :func:`estimate` — the four seeded Monte-Carlo estimators behind one
  ``kind`` switch.
- :func:`run_experiment` — any registered paper experiment by id.
- :func:`load_results` — read back the CSV tables ``fullview run
  --out`` wrote.

Two supporting pieces round out the facade: :func:`config_digest`
(with :func:`canonical_payload`, re-exported from :mod:`repro.ioutil`)
is the one canonical configuration hash shared by the coverage service
cache, the run ledger and checkpoint stamps; and
:mod:`repro.api.schemas` defines the ``fullview-api-v1`` wire bodies
the coverage service speaks.

Everything here re-exports blessed machinery from the deep modules —
no new behaviour, just a stable spelling.  Deep imports keep working;
this module exists so casual users never need them.

Quickstart::

    import math
    from repro.api import deploy, evaluate_grid

    fleet = deploy(radius=0.2, angle_of_view=math.pi / 3, n=500, seed=7)
    result = evaluate_grid(fleet=fleet, theta=math.pi / 3)
    print(f"full-view covered fraction: {result.fraction:.3f}")
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.core.batch import condition_mask
from repro.deployment.base import DeploymentScheme
from repro.deployment.uniform import UniformDeployment
from repro.errors import InvalidParameterError
from repro.experiments import registry as _registry
from repro.experiments.registry import ExperimentResult
from repro.geometry.angles import validate_effective_angle
from repro.geometry.grid import DenseGrid
from repro.sensors.fleet import SensorFleet
from repro.sensors.model import CameraSpec, HeterogeneousProfile
from repro.simulation.engine import MonteCarloConfig
from repro.simulation.montecarlo import (
    estimate_area_fraction,
    estimate_condition_chain,
    estimate_grid_failure_probability,
    estimate_point_probability,
)
from repro.simulation.results import ResultTable

from repro.api import schemas
from repro.ioutil import canonical_payload, config_digest

__all__ = [
    "GridEvaluation",
    "canonical_payload",
    "config_digest",
    "deploy",
    "estimate",
    "evaluate_grid",
    "load_results",
    "run_experiment",
    "schemas",
]

#: The estimator kinds :func:`estimate` dispatches on.
_ESTIMATE_KINDS = ("point", "grid_failure", "area_fraction", "condition_chain")


def _as_profile(
    profile: Optional[Union[HeterogeneousProfile, CameraSpec]],
    radius: Optional[float],
    angle_of_view: Optional[float],
) -> HeterogeneousProfile:
    """Normalise the three accepted camera descriptions to a profile."""
    if profile is not None:
        if radius is not None or angle_of_view is not None:
            raise InvalidParameterError(
                "pass either profile= or radius=/angle_of_view=, not both"
            )
        if isinstance(profile, CameraSpec):
            return HeterogeneousProfile.homogeneous(profile)
        return profile
    if radius is None or angle_of_view is None:
        raise InvalidParameterError(
            "describe the cameras with profile= (HeterogeneousProfile or "
            "CameraSpec) or with both radius= and angle_of_view="
        )
    return HeterogeneousProfile.homogeneous(
        CameraSpec(radius=radius, angle_of_view=angle_of_view)
    )


def deploy(
    *,
    profile: Optional[Union[HeterogeneousProfile, CameraSpec]] = None,
    radius: Optional[float] = None,
    angle_of_view: Optional[float] = None,
    n: int,
    seed: int = 0,
    rng: Optional[np.random.Generator] = None,
    scheme: Optional[DeploymentScheme] = None,
    build_index: bool = True,
) -> SensorFleet:
    """Deploy ``n`` cameras and return the fleet.

    Cameras are described either by a ``profile`` (a
    :class:`HeterogeneousProfile`, or a single :class:`CameraSpec`
    treated as homogeneous) or by ``radius``/``angle_of_view`` for the
    common homogeneous case.  ``scheme`` defaults to the paper's
    uniform deployment on the unit torus; randomness comes from ``rng``
    when given, else from ``seed`` (so equal seeds give bit-identical
    fleets).  ``build_index`` pre-builds the cell index the sparse
    kernel prunes candidates with (it is otherwise built on the first
    sparse evaluation); single-point queries never use it.
    """
    resolved = _as_profile(profile, radius, angle_of_view)
    scheme = scheme or UniformDeployment()
    if rng is None:
        rng = np.random.default_rng(seed)
    fleet = scheme.deploy(resolved, n=n, rng=rng)
    if build_index and len(fleet) > 0:
        fleet.build_index()
    return fleet


@dataclass(frozen=True)
class GridEvaluation:
    """The result of :func:`evaluate_grid`.

    ``points`` are the evaluated locations (``(m, 2)``) and ``mask``
    the per-point verdicts for ``condition`` at effective angle
    ``theta``.
    """

    points: np.ndarray
    mask: np.ndarray
    theta: float
    condition: str

    @property
    def fraction(self) -> float:
        """Fraction of evaluated points meeting the condition."""
        return float(self.mask.mean()) if self.mask.size else 0.0

    @property
    def num_covered(self) -> int:
        """How many evaluated points meet the condition."""
        return int(self.mask.sum())

    def __len__(self) -> int:
        return int(self.mask.shape[0])


def evaluate_grid(
    *,
    fleet: SensorFleet,
    theta: float,
    condition: str = "exact",
    grid: Optional[DenseGrid] = None,
    points: Optional[np.ndarray] = None,
    resolution: Optional[int] = None,
    k: int = 1,
) -> GridEvaluation:
    """Evaluate a named coverage condition over a grid of points.

    The evaluation points come from ``points`` (any ``(m, 2)`` array),
    an explicit ``grid``, a ``resolution`` (a ``resolution x
    resolution`` cell-centre grid), or — by default — the paper's dense
    grid for the fleet's sensor count.  ``condition`` is ``"exact"``
    (full-view), ``"necessary"``, ``"sufficient"`` or ``"k_coverage"``
    (with ``k``).  The batch kernels pick the dense or sparse
    evaluation path by candidate density; both are bit-identical.
    """
    theta = validate_effective_angle(theta)
    supplied = [points is not None, grid is not None, resolution is not None]
    if sum(supplied) > 1:
        raise InvalidParameterError(
            "pass at most one of points=, grid= or resolution="
        )
    if points is None:
        if grid is None:
            if resolution is not None:
                grid = DenseGrid(side=resolution, region=fleet.region)
            else:
                grid = DenseGrid.for_sensor_count(max(1, len(fleet)), fleet.region)
        points = grid.points
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    mask = condition_mask(fleet, points, theta, condition, k=k)
    return GridEvaluation(points=points, mask=mask, theta=theta, condition=condition)


def estimate(
    *,
    kind: str,
    profile: Optional[Union[HeterogeneousProfile, CameraSpec]] = None,
    radius: Optional[float] = None,
    angle_of_view: Optional[float] = None,
    n: int,
    theta: float,
    condition: str = "exact",
    trials: int = 200,
    seed: int = 0,
    workers: Optional[int] = None,
    scheme: Optional[DeploymentScheme] = None,
    point: Optional[Tuple[float, float]] = None,
    k: int = 1,
    sample_points: int = 256,
    grid: Optional[DenseGrid] = None,
    max_grid_points: Optional[int] = None,
) -> Any:
    """Run one of the seeded Monte-Carlo estimators.

    ``kind`` selects the estimator:

    - ``"point"`` — P(a fixed point meets ``condition``); returns a
      :class:`~repro.simulation.statistics.BernoulliEstimate`.
    - ``"grid_failure"`` — P(some grid point fails ``condition``);
      returns a ``BernoulliEstimate`` (honours ``grid`` and
      ``max_grid_points``).
    - ``"area_fraction"`` — expected fraction of the region meeting
      ``condition``; returns ``(mean, ci_half_width)`` (honours
      ``sample_points``).
    - ``"condition_chain"`` — necessary/exact/sufficient on the same
      deployments; returns a dict of estimates (``condition`` is
      ignored).

    All kinds share ``trials``/``seed`` (reproducible, bit-identical
    serial vs parallel) and ``workers``.
    """
    resolved = _as_profile(profile, radius, angle_of_view)
    config = MonteCarloConfig(trials=trials, seed=seed, workers=workers)
    if kind == "point":
        return estimate_point_probability(
            resolved, n, theta, condition, config,
            scheme=scheme, point=point, k=k,
        )
    if kind == "grid_failure":
        return estimate_grid_failure_probability(
            resolved, n, theta, condition, config,
            scheme=scheme, grid=grid, max_grid_points=max_grid_points,
        )
    if kind == "area_fraction":
        return estimate_area_fraction(
            resolved, n, theta, condition, config,
            scheme=scheme, sample_points=sample_points, k=k,
        )
    if kind == "condition_chain":
        return estimate_condition_chain(
            resolved, n, theta, config, scheme=scheme, point=point
        )
    raise InvalidParameterError(
        f"kind must be one of {_ESTIMATE_KINDS}, got {kind!r}"
    )


def run_experiment(
    *,
    experiment_id: str,
    fast: bool = True,
    seed: int = 0,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Run a registered paper experiment (PHASE, GAP, BARRIER, ...).

    ``fast`` trades trial counts for wall-clock (fast mode is the CI
    budget); ``seed`` pins every random stream; ``workers`` runs every
    Monte-Carlo sweep of the experiment on that many workers
    (bit-identical to serial).  See
    :func:`repro.experiments.registry.all_experiments` for the ids.
    """
    experiment = _registry.get_experiment(experiment_id)
    return experiment.run(fast=fast, seed=seed, workers=workers)


def load_results(
    *, path: Union[str, Path]
) -> Union[ResultTable, Dict[str, ResultTable]]:
    """Load result tables saved by ``fullview run --out``.

    A CSV file loads as one :class:`ResultTable`; a directory loads
    every ``*.csv`` inside it as a dict keyed by file stem.  Raises
    :class:`~repro.errors.InvalidParameterError` when the path does not
    exist or a directory holds no CSV files.
    """
    path = Path(path)
    if path.is_dir():
        tables = {
            csv_path.stem: ResultTable.load_csv(csv_path)
            for csv_path in sorted(path.glob("*.csv"))
        }
        if not tables:
            raise InvalidParameterError(f"no .csv result files in {path}")
        return tables
    return ResultTable.load_csv(path)
