"""CLUSTER — clustered drops degrade full-view coverage.

The paper's random-deployment motivation (air drops, artillery) is
modelled as uniform/Poisson, but each pass of a plane scatters a
*cluster* of sensors.  This ablation deploys Matérn cluster processes
at fixed expected count and fixed per-sensor sensing area, varying the
number of cluster parents, and measures per-point exact full-view
coverage.

Expected shape: few parents (heavily clustered) cover far worse than
the Poisson baseline — clusters over-cover their neighbourhoods and
leave the rest bare — and coverage recovers monotonically toward the
baseline as the parent count grows, quantifying how load-bearing the
idealised randomness assumption is.
"""

from __future__ import annotations

import math

from repro.deployment.cluster import MaternClusterDeployment
from repro.deployment.poisson import PoissonDeployment
from repro.experiments.registry import ExperimentResult, register
from repro.sensors.model import CameraSpec, HeterogeneousProfile
from repro.simulation.montecarlo import MonteCarloConfig, estimate_point_probability
from repro.simulation.results import ResultTable

__all__ = ["run"]


def _point_probability(scheme, profile, n, theta, trials, seed) -> float:
    cfg = MonteCarloConfig(trials=trials, seed=seed)
    return estimate_point_probability(
        profile, n, theta, "exact", cfg, scheme=scheme
    ).proportion


@register(
    "CLUSTER",
    "Clustered (Matern) drops degrade full-view coverage (extension)",
    "Section I deployment motivation ablation",
)
def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    """Quantify how clustered (Matern) drops degrade full-view coverage."""
    n = 400
    theta = math.pi / 3.0
    trials = 250 if fast else 1500
    profile = HeterogeneousProfile.homogeneous(
        CameraSpec(radius=0.3, angle_of_view=math.pi / 2)
    )
    cluster_radius = 0.08
    parent_counts = [2, 4, 8, 16, 64]
    table = ResultTable(
        title=f"CLUSTER: full-view point probability vs cluster parents "
        f"(n={n}, theta=pi/3, cluster radius {cluster_radius})",
        columns=["deployment", "p_full_view"],
    )
    baseline = _point_probability(
        PoissonDeployment(), profile, n, theta, trials, seed
    )
    table.add_row("poisson_baseline", baseline)
    series = []
    for i, parents in enumerate(parent_counts):
        scheme = MaternClusterDeployment(
            expected_parents=parents, cluster_radius=cluster_radius
        )
        p = _point_probability(scheme, profile, n, theta, trials, seed + 41000 * i)
        table.add_row(f"matern_{parents}_parents", p)
        series.append(p)
    checks = {
        "heavy_clustering_hurts": series[0] < baseline - 0.15,
        "recovers_towards_poisson": series[-1] > baseline - 0.1,
        "roughly_monotone_in_parents": all(
            series[i + 1] >= series[i] - 0.08 for i in range(len(series) - 1)
        ),
    }
    notes = [
        f"Poisson baseline: {baseline:.3f}; heavily clustered (2 parents): "
        f"{series[0]:.3f}; 64 parents: {series[-1]:.3f}.",
        "Clusters waste sensing area on over-covered neighbourhoods and "
        "leave hole directions elsewhere — planners using the paper's "
        "thresholds must deploy enough independent passes for the "
        "uniformity assumption to hold.",
    ]
    return ExperimentResult(
        experiment_id="CLUSTER",
        title="Clustered (Matern) drops degrade full-view coverage",
        tables=[table],
        checks=checks,
        notes=notes,
    )
