"""LIFETIME — network lifetime under progressive failures (extension).

The paper prices full-view coverage in *sensing area at deployment
time*; this experiment prices it in *epochs of guaranteed operation*.
Fleets provisioned at ``q`` times the sufficient CSA are stepped
through a fixed per-epoch failure schedule — independent deaths,
a spatially-correlated disk blackout, and radius aging
(:mod:`repro.resilience.failures`) — and the lifetime clock stops at
the first epoch where the necessary full-view condition breaks on the
(subsampled) dense grid.

Expected shapes:

- lifetime grows with provisioning ``q`` (the k-coverage fault
  tolerance argument of Section VII-B, made dynamic), with diminishing
  returns once sensing radii saturate the torus reach;
- the mean coverage fraction decays monotonically over epochs (fleets
  only lose capability under this schedule);
- the survival curve ``S(t)`` shifts right as ``q`` grows.
"""

from __future__ import annotations

import math

from repro.core.csa import csa_sufficient
from repro.experiments.registry import ExperimentResult, register
from repro.resilience.failures import (
    BernoulliFailure,
    DiskBlackout,
    FailureSchedule,
    RadiusDegradation,
)
from repro.resilience.lifetime import lifetime_distribution
from repro.seeding import derive_seed
from repro.sensors.model import CameraSpec, HeterogeneousProfile
from repro.simulation.montecarlo import MonteCarloConfig

__all__ = ["run"]

_PHI = math.pi / 2.0

#: Per-epoch degradation: 8% independent deaths, one blackout disk of
#: radius 0.12, and 3% radius shrink — a mixed, realistic failure diet.
_SCHEDULE = FailureSchedule(
    [BernoulliFailure(0.08), DiskBlackout(0.12), RadiusDegradation(0.97)]
)


def _profile_at(q: float, base_area: float) -> HeterogeneousProfile:
    profile = HeterogeneousProfile.homogeneous(
        CameraSpec(radius=0.25, angle_of_view=_PHI)
    )
    return profile.scaled_to_weighted_area(q * base_area)


@register(
    "LIFETIME",
    "Network lifetime under progressive sensor failures (extension)",
    "Section VII-B fault-tolerance motivation, dynamic form",
)
def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    """Simulate network lifetime under progressive sensor failures."""
    from repro.simulation.results import ResultTable

    n = 240
    theta = math.pi / 3.0
    epochs = 18
    trials = 25 if fast else 150
    grid_cap = 81 if fast else 256
    base = csa_sufficient(n, theta)
    checks = {}

    # 1. Lifetime vs provisioning.
    q_values = [0.5, 1.0, 2.0, 4.0]
    lifetime_table = ResultTable(
        title=f"LIFETIME: epochs until the necessary condition breaks "
        f"(n={n}, theta=pi/3, {epochs}-epoch horizon)",
        columns=[
            "q_of_sufficient_csa",
            "mean_lifetime",
            "median_lifetime",
            "censored_fraction",
        ],
    )
    means = []
    for i, q in enumerate(q_values):
        cfg = MonteCarloConfig(trials=trials, seed=derive_seed(seed, 51000, i))
        dist = lifetime_distribution(
            _profile_at(q, base),
            n,
            theta,
            _SCHEDULE,
            cfg,
            epochs=epochs,
            condition="necessary",
            max_grid_points=grid_cap,
            isolate=True,
        )
        means.append(dist.mean_lifetime)
        lifetime_table.add_row(
            q, dist.mean_lifetime, dist.median_lifetime, dist.censored_fraction
        )
    checks["lifetime_nondecreasing_with_q"] = all(
        b >= a - 0.75 for a, b in zip(means, means[1:])
    )
    checks["provisioning_buys_lifetime"] = means[-1] >= means[0] + 2.0
    checks["underprovisioned_dies_early"] = means[0] < 0.5 * epochs

    # 2. Coverage-vs-time and survival curves at q = 2.
    cfg = MonteCarloConfig(trials=trials, seed=derive_seed(seed, 52000))
    curve_dist = lifetime_distribution(
        _profile_at(2.0, base),
        n,
        theta,
        _SCHEDULE,
        cfg,
        epochs=epochs,
        condition="necessary",
        max_grid_points=grid_cap,
        track_curves=True,
        isolate=True,
    )
    survival = curve_dist.survival_curve()
    curve_table = ResultTable(
        title="LIFETIME: coverage decay and survival over epochs (q=2)",
        columns=["epoch", "mean_coverage_fraction", "survival"],
    )
    for epoch, (fraction, alive) in enumerate(
        zip(curve_dist.mean_coverage_by_epoch, survival)
    ):
        curve_table.add_row(epoch, fraction, alive)
    checks["coverage_curve_nonincreasing"] = all(
        b <= a + 0.02
        for a, b in zip(
            curve_dist.mean_coverage_by_epoch, curve_dist.mean_coverage_by_epoch[1:]
        )
    )
    checks["survival_starts_full"] = survival[0] >= 0.9
    checks["horizon_exhausts_q2_fleets"] = survival[-1] <= 0.25

    notes = [
        "Lifetime = first epoch at which some grid point fails the "
        "necessary full-view condition; the per-epoch schedule is 8% "
        "independent deaths + one blackout disk (r=0.12) + 3% radius "
        "aging.",
        f"Provisioning at 4x the sufficient CSA extends mean lifetime "
        f"from {means[0]:.1f} to {means[-1]:.1f} epochs; returns "
        "diminish once radii saturate the torus reach (cf. ROBUST's "
        "breach-cost plateau).",
    ]
    return ExperimentResult(
        experiment_id="LIFETIME",
        title="Network lifetime under progressive sensor failures",
        tables=[lifetime_table, curve_table],
        checks=checks,
        notes=notes,
    )
