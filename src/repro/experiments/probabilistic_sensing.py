"""PROB — probabilistic sensing behaves like a shrunken binary sensor.

The paper's second named future work is "extending our results in
probabilistic sensing models" (Section VIII).  This extension tests the
natural reduction: under a distance-decaying detection model, each
sensor detects an in-sector object with mean probability
``rho = E[p(d)]`` (the model's expected coverage ratio), so — because
under uniform deployment only the *sensing area* matters (Section
VI-A) — a probabilistic fleet should meet the necessary condition at
the same rate as a binary fleet whose sensing areas are scaled by
``rho``.

Expected shape: the equivalent-area prediction tracks the simulated
probabilistic fleet within Monte-Carlo noise, across decay strengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.conditions import necessary_condition_holds
from repro.core.uniform_theory import necessary_failure_probability
from repro.deployment.uniform import UniformDeployment
from repro.experiments.registry import ExperimentResult, register
from repro.seeding import derive_seed
from repro.sensors.model import CameraSpec, HeterogeneousProfile
from repro.sensors.probabilistic import (
    ExponentialDecayModel,
    probabilistic_covering_directions,
)
from repro.simulation.engine import execute_trials
from repro.simulation.montecarlo import MonteCarloConfig
from repro.simulation.results import ResultTable
from repro.simulation.statistics import BernoulliEstimate

__all__ = ["run"]


@dataclass(frozen=True)
class _ProbabilisticNecessaryTrial:
    """Deploy, draw probabilistic detections, test the probe point."""

    profile: HeterogeneousProfile
    n: int
    theta: float
    model: ExponentialDecayModel
    point: Tuple[float, float]

    def __call__(self, trial: int, rng: np.random.Generator) -> bool:
        del trial
        fleet = UniformDeployment().deploy(self.profile, self.n, rng)
        dirs = probabilistic_covering_directions(fleet, self.point, self.model, rng)
        return bool(necessary_condition_holds(dirs, self.theta))


@register(
    "PROB",
    "Probabilistic sensing == binary sensing at rho-scaled area (extension)",
    "Section VIII future work",
)
def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    """Match probabilistic sensing to binary sensing at rho-scaled area."""
    n = 350
    theta = math.pi / 3.0
    trials = 300 if fast else 2000
    base = HeterogeneousProfile.homogeneous(
        CameraSpec(radius=0.28, angle_of_view=math.pi / 2)
    )
    point = (0.5, 0.5)
    betas = [0.5, 1.0, 2.0, 4.0]
    table = ResultTable(
        title=f"PROB: probabilistic fleets vs rho-scaled binary theory "
        f"(n={n}, theta=pi/3)",
        columns=[
            "beta",
            "rho",
            "simulated_p_necessary",
            "equivalent_area_theory",
            "agrees",
        ],
    )
    checks = {}
    for i, beta in enumerate(betas):
        model = ExponentialDecayModel(beta=beta, gamma=2.0)
        rho = model.expected_coverage_ratio()
        cfg = MonteCarloConfig(trials=trials, seed=derive_seed(seed, 17000, i))
        outcomes = execute_trials(
            _ProbabilisticNecessaryTrial(
                profile=base, n=n, theta=theta, model=model, point=point
            ),
            cfg,
        )
        successes = sum(1 for outcome in outcomes if outcome.value)
        estimate = BernoulliEstimate(successes=successes, trials=trials)
        scaled = base.scaled_to_weighted_area(rho * base.weighted_sensing_area)
        theory = 1.0 - necessary_failure_probability(scaled, n, theta)
        agrees = estimate.contains(theory, slack=0.04)
        table.add_row(beta, rho, estimate.proportion, theory, agrees)
        checks[f"equivalent_area_predicts_beta{beta}"] = agrees
    notes = [
        "rho = E[p(d)] over a uniform in-sector point; the binary "
        "comparator scales every radius by sqrt(rho) so the per-sensor "
        "area is rho * s.",
        "Agreement across decay strengths extends the Section VI-A "
        "area-decisiveness principle to probabilistic sensing: the "
        "*expected* sensing area is what matters.",
    ]
    return ExperimentResult(
        experiment_id="PROB",
        title="Probabilistic sensing == binary sensing at rho-scaled area",
        tables=[table],
        checks=checks,
        notes=notes,
    )
