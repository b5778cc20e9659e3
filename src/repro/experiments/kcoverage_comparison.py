"""KCOV — Section VII-B: full view demands more than the k-coverage it implies.

Full-view coverage with effective angle ``theta`` forces at least
``k = ceil(pi/theta)`` covering sensors per point, hence implies
k-coverage.  The paper proves the converse fails at the CSA level:
``s_N,c(n) >= s_K(n)`` where
``s_K(n) = (log n + k log log n)/n`` is Kumar et al.'s sufficient
sensing area for asymptotic k-coverage — meeting the k-coverage
threshold cannot guarantee even the *necessary* condition of full-view
coverage.

Checks: the analytic margin is non-negative over a grid of (n, theta);
and on simulated deployments every full-view-covered point is
k-covered while the reverse implication fails on a positive fraction.
"""

from __future__ import annotations

import math

from repro.core.csa import csa_necessary
from repro.core.full_view import is_full_view_covered
from repro.core.kcoverage import implied_k, kumar_sufficient_area
from repro.deployment.uniform import UniformDeployment
from repro.experiments.registry import ExperimentResult, register
from repro.sensors.model import CameraSpec, HeterogeneousProfile
from repro.simulation.montecarlo import MonteCarloConfig
from repro.simulation.results import ResultTable

__all__ = ["run"]


@register(
    "KCOV",
    "Full-view CSA dominates the k-coverage threshold (Section VII-B)",
    "Section VII-B inequality",
)
def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    """Compare the full-view CSA against the k-coverage threshold."""
    ns = [100, 1000, 10_000] if fast else [100, 300, 1000, 3000, 10_000, 100_000]
    thetas = [math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2, math.pi]
    table = ResultTable(
        title="KCOV: s_N,c(n) vs Kumar's k-coverage area at k = ceil(pi/theta)",
        columns=["n", "theta", "k", "csa_necessary", "kumar_area", "margin"],
    )
    all_nonnegative = True
    for n in ns:
        for theta in thetas:
            k = implied_k(theta)
            nec = csa_necessary(n, theta)
            kum = kumar_sufficient_area(n, k)
            margin = nec - kum
            all_nonnegative &= margin >= -1e-12
            table.add_row(n, theta, k, nec, kum, margin)
    checks = {"csa_dominates_kumar_everywhere": bool(all_nonnegative)}

    # Simulation: full view => k-coverage, and not conversely.
    n, theta = (250, math.pi / 3.0) if fast else (1000, math.pi / 4.0)
    k = implied_k(theta)
    trials = 250 if fast else 1500
    # Pin the fleet to the marginal regime: the expected number of
    # sensors covering a point is n * s, so s = (k + 2)/n makes
    # k-coverage common while full view (which also needs angular
    # spread) still fails often — the regime where the two notions
    # separate observably.
    profile = HeterogeneousProfile.homogeneous(
        CameraSpec.from_area((k + 2) / n, math.pi / 2.0)
    )
    scheme = UniformDeployment()
    cfg = MonteCarloConfig(trials=trials, seed=seed)
    implication_violations = 0
    k_covered_not_full_view = 0
    full_view_count = 0
    point = (0.5, 0.5)
    for rng in cfg.rngs():
        fleet = scheme.deploy(profile, n, rng)
        directions = fleet.covering_directions(point)
        fv = is_full_view_covered(directions, theta)
        kc = directions.size >= k
        full_view_count += fv
        if fv and not kc:
            implication_violations += 1
        if kc and not fv:
            k_covered_not_full_view += 1
    checks["full_view_implies_k_coverage"] = implication_violations == 0
    checks["k_coverage_does_not_imply_full_view"] = k_covered_not_full_view > 0
    notes = [
        f"k = ceil(pi/theta): full-view coverage needs >= k sensors around "
        "every point; the implication held on every trial "
        f"({trials} deployments).",
        f"{k_covered_not_full_view}/{trials} deployments were k-covered at "
        "the probe point yet NOT full-view covered — k-coverage places no "
        "constraint on the angular spread of sensors.",
    ]
    return ExperimentResult(
        experiment_id="KCOV",
        title="Full-view CSA dominates the k-coverage threshold",
        tables=[table],
        checks=checks,
        notes=notes,
    )
