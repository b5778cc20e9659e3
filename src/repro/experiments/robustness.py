"""ROBUST — sensor failures: graceful degradation and breach costs.

Robustness questions a deployed network faces, answered with the
resilience subsystem's failure models (:mod:`repro.resilience.failures`)
plus the reproduction's theory:

1. *Random failures* (:class:`BernoulliFailure`).  If each sensor
   independently dies with probability ``p``, the survivors of a
   uniform deployment are again a uniform deployment of ``~n(1-p)``
   sensors, so eq. (2) evaluated at the survivor count predicts the
   per-point necessary-condition probability of the thinned fleet.
   (The paper's motivation for k-coverage — fault tolerance — made
   quantitative for full view.)

2. *Orientation drift* (:class:`OrientationDrift`).  Uniform headings
   plus independent noise are still uniform on the circle, so coverage
   statistics are invariant under arbitrary drift — the model's uniform
   orientation assumption is a fixed point of this failure mode.

3. *Radius degradation* (:class:`RadiusDegradation`).  Shrinking every
   radius by ``f`` scales the weighted sensing area by ``f**2``, so
   eq. (2) at the scaled profile predicts the aged fleet's coverage.

4. *Adversarial failures.*  The breach cost (minimum sensors an
   adversary must disable to break full-view coverage of a point,
   :mod:`repro.core.redundancy`) should grow with provisioning: fleets
   above the sufficient CSA are not just covered but *robustly*
   covered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.csa import csa_sufficient
from repro.core.redundancy import breach_cost
from repro.core.uniform_theory import necessary_failure_probability
from repro.core.conditions import necessary_condition_holds
from repro.deployment.uniform import UniformDeployment
from repro.experiments.registry import ExperimentResult, register
from repro.resilience.failures import (
    BernoulliFailure,
    FailureModel,
    OrientationDrift,
    RadiusDegradation,
)
from repro.seeding import derive_seed
from repro.sensors.model import CameraSpec, HeterogeneousProfile
from repro.simulation.engine import execute_trials
from repro.simulation.montecarlo import MonteCarloConfig
from repro.simulation.results import ResultTable
from repro.simulation.statistics import BernoulliEstimate

__all__ = ["run"]

_PHI = math.pi / 2.0

_POINT = (0.5, 0.5)


@dataclass(frozen=True)
class _NecessaryRateTrial:
    """Deploy, apply an optional failure model, test the probe point."""

    profile: HeterogeneousProfile
    n: int
    theta: float
    model: Optional[FailureModel] = None

    def __call__(self, trial: int, rng: np.random.Generator) -> bool:
        del trial
        fleet = UniformDeployment().deploy(self.profile, self.n, rng)
        if self.model is not None:
            fleet = self.model.apply(fleet, rng)
        dirs = fleet.covering_directions(_POINT)
        return bool(necessary_condition_holds(dirs, self.theta))


@dataclass(frozen=True)
class _BreachCostTrial:
    """Deploy and compute the adversarial breach cost at the probe point."""

    profile: HeterogeneousProfile
    n: int
    theta: float

    def __call__(self, trial: int, rng: np.random.Generator) -> int:
        del trial
        fleet = UniformDeployment().deploy(self.profile, self.n, rng)
        dirs = fleet.covering_directions(_POINT)
        return int(breach_cost(dirs, self.theta))


def _necessary_rate(profile, n, theta, cfg, model=None):
    """P(point meets necessary condition) after an optional failure model."""
    task = _NecessaryRateTrial(profile=profile, n=n, theta=theta, model=model)
    outcomes = execute_trials(task, cfg)
    successes = sum(1 for outcome in outcomes if outcome.value)
    return BernoulliEstimate(successes=successes, trials=cfg.trials)


@register(
    "ROBUST",
    "Random and adversarial sensor failures (extension)",
    "Section VII-B fault-tolerance motivation",
)
def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    """Stress coverage under random and adversarial sensor failures."""
    n = 400
    theta = math.pi / 3.0
    trials = 250 if fast else 1500
    profile = HeterogeneousProfile.homogeneous(
        CameraSpec(radius=0.28, angle_of_view=_PHI)
    )
    checks = {}

    # 1. Random failures vs survivor-count theory.
    failure_table = ResultTable(
        title=f"ROBUST: random failure rate p vs survivor theory "
        f"(n={n}, theta=pi/3)",
        columns=["p_failure", "simulated_p_necessary", "survivor_theory", "agrees"],
    )
    for i, p in enumerate([0.0, 0.2, 0.4, 0.6]):
        cfg = MonteCarloConfig(trials=trials, seed=derive_seed(seed, 21000, i))
        estimate = _necessary_rate(profile, n, theta, cfg, BernoulliFailure(p))
        survivors = max(1, round(n * (1.0 - p)))
        theory = 1.0 - necessary_failure_probability(profile, survivors, theta)
        agrees = estimate.contains(theory, slack=0.04)
        failure_table.add_row(p, estimate.proportion, theory, agrees)
        checks[f"survivor_theory_p{p}"] = agrees

    # 2. Orientation drift invariance: uniform headings stay uniform.
    drift_table = ResultTable(
        title="ROBUST: orientation drift sigma vs undrifted baseline",
        columns=["sigma", "simulated_p_necessary", "baseline", "agrees"],
    )
    base_cfg = MonteCarloConfig(trials=trials, seed=derive_seed(seed, 41000))
    baseline = _necessary_rate(profile, n, theta, base_cfg)
    for i, sigma in enumerate([0.3, 1.5]):
        cfg = MonteCarloConfig(trials=trials, seed=derive_seed(seed, 42000, i))
        estimate = _necessary_rate(
            profile, n, theta, cfg, OrientationDrift(sigma)
        )
        agrees = estimate.contains(baseline.proportion, slack=0.04)
        drift_table.add_row(sigma, estimate.proportion, baseline.proportion, agrees)
        checks[f"drift_invariance_sigma{sigma}"] = agrees

    # 3. Radius degradation vs area-scaled theory.
    decay_table = ResultTable(
        title="ROBUST: radius degradation factor f vs f^2-scaled-area theory",
        columns=["factor", "simulated_p_necessary", "scaled_theory", "agrees"],
    )
    s_c = profile.weighted_sensing_area
    for i, factor in enumerate([1.0, 0.8, 0.6]):
        cfg = MonteCarloConfig(trials=trials, seed=derive_seed(seed, 43000, i))
        estimate = _necessary_rate(
            profile, n, theta, cfg, RadiusDegradation(factor)
        )
        aged = profile.scaled_to_weighted_area(factor**2 * s_c)
        theory = 1.0 - necessary_failure_probability(aged, n, theta)
        agrees = estimate.contains(theory, slack=0.04)
        decay_table.add_row(factor, estimate.proportion, theory, agrees)
        checks[f"degradation_theory_f{factor}"] = agrees

    # 4. Breach cost vs provisioning.
    breach_table = ResultTable(
        title="ROBUST: mean adversarial breach cost vs provisioning q",
        columns=["q_of_sufficient_csa", "mean_breach_cost", "p_full_view"],
    )
    breach_trials = 120 if fast else 600
    base = csa_sufficient(n, theta)
    mean_costs = []
    for i, q in enumerate([0.5, 1.0, 2.0, 4.0]):
        scaled = profile.scaled_to_weighted_area(q * base)
        cfg = MonteCarloConfig(trials=breach_trials, seed=derive_seed(seed, 31000, i))
        outcomes = execute_trials(
            _BreachCostTrial(profile=scaled, n=n, theta=theta), cfg
        )
        costs = [outcome.value for outcome in outcomes]
        covered = sum(1 for cost in costs if cost > 0)
        mean_cost = float(np.mean(costs))
        mean_costs.append(mean_cost)
        breach_table.add_row(q, mean_cost, covered / breach_trials)
    # Monotone up to noise; at large q the sensing radius saturates the
    # torus reach and the breach cost plateaus rather than keeps rising.
    checks["breach_cost_nondecreasing_with_q"] = all(
        b >= a - 1.0 for a, b in zip(mean_costs, mean_costs[1:])
    )
    checks["breach_cost_grows_substantially"] = mean_costs[-1] > 2.0 * mean_costs[0]
    checks["overprovisioned_fleet_robust"] = mean_costs[-1] >= 3.0
    notes = [
        "Random thinning of a uniform fleet is a uniform fleet of the "
        "survivor count; eq. (2) at n(1-p) predicts the degraded "
        "coverage within Monte-Carlo noise at every failure rate.",
        "Orientation drift leaves uniform headings uniform, so coverage "
        "statistics are drift-invariant; radius aging by f matches the "
        "theory of a fresh fleet with f^2-scaled sensing areas.",
        "Breach cost = minimum sensors an adversary must disable to open "
        "an unsafe facing direction at the probe point; provisioning at "
        f"4x the sufficient CSA buys a mean breach cost of "
        f"{mean_costs[-1]:.1f} sensors.",
    ]
    return ExperimentResult(
        experiment_id="ROBUST",
        title="Random and adversarial sensor failures",
        tables=[failure_table, drift_table, decay_table, breach_table],
        checks=checks,
        notes=notes,
    )
