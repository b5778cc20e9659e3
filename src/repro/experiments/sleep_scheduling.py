"""SLEEP — shift scheduling: buying lifetime with the CSA.

Section VII-B adopts Kumar et al.'s framing where each sensor sleeps
with probability ``p`` and only ``np`` sensors are awake.  The design
version: partition a fleet of ``n`` sensors into ``k`` disjoint shifts
and run one shift at a time — lifetime multiplies by ``k`` while each
shift is a uniform random deployment of ``n/k`` sensors, so coverage
per shift is governed by the theory at ``n/k``.

This extension validates that reduction (each shift's simulated
necessary-condition probability matches eq. (2) at ``n/k``) and
tabulates the lifetime-coverage frontier: the k at which per-shift
coverage collapses is exactly where ``s_c`` crosses the CSA of
``n/k``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.conditions import necessary_condition_holds
from repro.core.csa import csa_necessary
from repro.core.uniform_theory import necessary_failure_probability
from repro.deployment.uniform import UniformDeployment
from repro.experiments.registry import ExperimentResult, register
from repro.seeding import derive_seed
from repro.sensors.model import CameraSpec, HeterogeneousProfile
from repro.simulation.montecarlo import MonteCarloConfig
from repro.simulation.results import ResultTable
from repro.simulation.statistics import BernoulliEstimate

__all__ = ["run"]


@register(
    "SLEEP",
    "Shift scheduling: lifetime vs per-shift coverage (extension)",
    "Section VII-B sleep-probability framing",
)
def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    """Trade lifetime against per-shift coverage via shift scheduling."""
    n_total = 1200
    theta = math.pi / 3.0
    trials = 200 if fast else 1200
    profile = HeterogeneousProfile.homogeneous(
        CameraSpec(radius=0.22, angle_of_view=math.pi / 2)
    )
    scheme = UniformDeployment()
    point = (0.5, 0.5)
    ks = [1, 2, 4, 8, 16]
    table = ResultTable(
        title=f"SLEEP: per-shift coverage vs shift count k "
        f"(n_total={n_total}, theta=pi/3)",
        columns=[
            "k_shifts",
            "n_per_shift",
            "lifetime_factor",
            "simulated_shift_coverage",
            "theory_at_n_over_k",
            "s_c_over_csa_necessary",
            "agrees",
        ],
    )
    checks = {}
    coverages = []
    for i, k in enumerate(ks):
        n_shift = n_total // k
        cfg = MonteCarloConfig(trials=trials, seed=derive_seed(seed, 27000, i))
        successes = 0
        for rng in cfg.rngs():
            # Deploy the full fleet and activate one random shift — the
            # shift is then a uniform deployment of n/k sensors.
            fleet = scheme.deploy(profile, n_total, rng)
            shift = rng.permutation(n_total)[:n_shift]
            active = fleet.subset(shift)
            dirs = active.covering_directions(point)
            successes += necessary_condition_holds(dirs, theta)
        estimate = BernoulliEstimate(successes=successes, trials=trials)
        simulated = estimate.proportion
        theory = 1.0 - necessary_failure_probability(profile, n_shift, theta)
        margin = profile.weighted_sensing_area / csa_necessary(n_shift, theta)
        agrees = estimate.contains(theory, slack=0.03)
        table.add_row(k, n_shift, k, simulated, theory, margin, agrees)
        checks[f"shift_theory_k{k}"] = agrees
        coverages.append(simulated)
    checks["coverage_decreases_with_k"] = all(
        coverages[i + 1] <= coverages[i] + 0.03 for i in range(len(coverages) - 1)
    )
    checks["frontier_exists"] = coverages[0] > 0.9 and coverages[-1] < 0.9
    notes = [
        "Each shift is a uniform deployment of n/k sensors, so eq. (2) at "
        "n/k predicts per-shift coverage — validated at every k.",
        "Designers read the frontier right-to-left: the largest k whose "
        "per-shift coverage meets the requirement multiplies network "
        "lifetime by k at zero hardware cost.",
    ]
    return ExperimentResult(
        experiment_id="SLEEP",
        title="Shift scheduling: lifetime vs per-shift coverage",
        tables=[table],
        checks=checks,
        notes=notes,
    )
