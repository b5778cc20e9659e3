"""ORIENT — the uniform-orientation assumption is load-bearing.

The model (Section II-A) draws every camera's orientation uniformly on
the circle, which is where the ``phi/(2*pi)`` orientation-success factor
in every formula comes from.  This extension experiment quantifies what
happens when installation bias violates that assumption: orientations
are drawn von-Mises concentrated around a common heading with
increasing ``kappa``.

Expected shape: 1-coverage of a point *improves or holds* modestly…
actually no — a point's coverage by a sensor depends on the *relative*
bearing, so 1-coverage stays roughly flat; but *full-view* coverage
collapses, because all cameras watching from compatible bearings leave
whole facing-direction ranges unsafe.  The experiment contrasts the two
to show the failure is specifically full-view.
"""

from __future__ import annotations

import math

from repro.core.full_view import is_full_view_covered
from repro.deployment.orientation import UniformOrientation, VonMisesOrientation
from repro.deployment.uniform import UniformDeployment
from repro.experiments.registry import ExperimentResult, register
from repro.seeding import derive_seed
from repro.sensors.fleet import fleet_from_profile_arrays
from repro.sensors.model import CameraSpec, HeterogeneousProfile
from repro.simulation.montecarlo import MonteCarloConfig
from repro.simulation.results import ResultTable

__all__ = ["run"]


@register(
    "ORIENT",
    "Orientation bias collapses full-view coverage but not detection (extension)",
    "Section II-A model assumption ablation",
)
def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    """Show orientation bias collapses full-view coverage, not detection."""
    n = 300
    theta = math.pi / 3.0
    trials = 250 if fast else 2000
    profile = HeterogeneousProfile.homogeneous(
        CameraSpec(radius=0.3, angle_of_view=math.pi / 2)
    )
    kappas = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
    scheme = UniformDeployment()
    point = (0.5, 0.5)
    table = ResultTable(
        title=f"ORIENT: point coverage vs orientation concentration kappa "
        f"(n={n}, theta=pi/3)",
        columns=["kappa", "p_full_view", "p_detected", "mean_covering_sensors"],
    )
    full_view_series = []
    detect_series = []
    for i, kappa in enumerate(kappas):
        sampler = (
            UniformOrientation()
            if kappa == 0.0  # fvlint: disable=FV004 (exact sweep-grid sentinel)
            else VonMisesOrientation(mean=1.0, kappa=kappa)
        )
        cfg = MonteCarloConfig(trials=trials, seed=derive_seed(seed, i))
        fv = detected = 0
        covering_total = 0
        for rng in cfg.rngs():
            positions = scheme.positions(n, rng)
            orientations = sampler.sample(positions, rng)
            fleet = fleet_from_profile_arrays(profile, positions, orientations)
            dirs = fleet.covering_directions(point)
            covering_total += dirs.size
            detected += dirs.size > 0
            fv += is_full_view_covered(dirs, theta)
        table.add_row(kappa, fv / trials, detected / trials, covering_total / trials)
        full_view_series.append(fv / trials)
        detect_series.append(detected / trials)
    checks = {
        "full_view_collapses": full_view_series[-1] < 0.3 * max(full_view_series[0], 1e-9),
        "full_view_monotone_decline": all(
            full_view_series[i + 1] <= full_view_series[i] + 0.08
            for i in range(len(full_view_series) - 1)
        ),
        "detection_robust": min(detect_series) > 0.8 * max(detect_series),
    }
    notes = [
        "Detection (1-coverage) barely moves with kappa: a biased camera "
        "still covers the points that happen to lie in front of it.  "
        "Full-view coverage collapses, because aligned cameras all view "
        "an object from the same side, leaving the opposite facing "
        "directions unsafe — the assumption of uniform orientations is "
        "essential to the paper's thresholds.",
        f"Full-view probability fell {full_view_series[0]:.2f} -> "
        f"{full_view_series[-1]:.2f} as kappa rose 0 -> 8.",
    ]
    return ExperimentResult(
        experiment_id="ORIENT",
        title="Orientation bias collapses full-view coverage but not detection",
        tables=[table],
        checks=checks,
        notes=notes,
    )
