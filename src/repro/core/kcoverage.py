"""Classic 1-/k-coverage machinery for the Section VII comparisons.

Three reference results are implemented:

- The 1-coverage critical sensing area ``(log n + log log n)/n``
  (eq. (19)), equivalently Wang et al.'s critical effective sensing
  radius ``R*(n) = sqrt((log n + log log n)/(pi n))`` for disk sensors —
  the paper shows its necessary CSA degenerates to exactly this at
  ``theta = pi``.
- Kumar et al.'s sufficient per-sensor area for asymptotic
  ``k``-coverage, ``s_K(n) = (log n + k log log n + u(n))/n``
  (eq. (21)); the paper proves ``s_N,c(n) >= s_K(n)`` for
  ``k = ceil(pi/theta)``, i.e. full-view coverage demands strictly more
  than the k-coverage it implies.
- Simulation-side k-coverage checks against a deployed fleet.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.full_view import validate_effective_angle
from repro.errors import InvalidParameterError
from repro.sensors.fleet import SensorFleet

__all__ = [
    "Point",
    "critical_esr",
    "full_view_vs_k_coverage_margin",
    "implied_k",
    "is_k_covered",
    "k_coverage_fraction",
    "kumar_sufficient_area",
    "one_coverage_csa",
    "wang_cao_lattice_edge",
]

Point = tuple


def one_coverage_csa(n: int) -> float:
    """Critical sensing area for 1-coverage: ``(log n + log log n)/n``.

    Valid for ``n >= 3`` (needs ``log log n`` defined and positive).
    """
    if n < 3:
        raise InvalidParameterError(f"need n >= 3, got {n!r}")
    return (math.log(n) + math.log(math.log(n))) / n


def critical_esr(n: int) -> float:
    """Wang et al.'s critical effective sensing radius for disk sensors.

    ``R*(n) = sqrt((log n + log log n) / (pi n))`` — converting the
    disk of this radius to a sensing area gives exactly
    :func:`one_coverage_csa`.
    """
    return math.sqrt(one_coverage_csa(n) / math.pi)


def implied_k(theta: float) -> int:
    """The coverage multiplicity full-view coverage implies: ``ceil(pi/theta)``.

    Full-view coverage with effective angle ``theta`` requires at least
    this many covering sensors per point (Section VII-B), hence implies
    ``k``-coverage with this ``k``.
    """
    theta = validate_effective_angle(theta)
    return math.ceil(math.pi / theta - 1e-12)


def kumar_sufficient_area(n: int, k: int, u_n: float = 0.0) -> float:
    """Kumar et al.'s sufficient sensing area for asymptotic k-coverage.

    ``s_K(n) = (log n + k log log n + u(n)) / n`` (eq. (21)), with
    ``u(n) = o(log log n)`` a slack term (0 by default, giving the
    order-level threshold used in the paper's comparison).
    """
    if n < 3:
        raise InvalidParameterError(f"need n >= 3, got {n!r}")
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k!r}")
    return (math.log(n) + k * math.log(math.log(n)) + u_n) / n


def full_view_vs_k_coverage_margin(n: int, theta: float) -> float:
    """``s_N,c(n) - s_K(n)`` at ``k = implied_k(theta)``.

    Section VII-B argues this margin is non-negative: the *necessary*
    condition of full-view coverage is more demanding than the
    *sufficient* condition of the k-coverage it implies.

    Reproduction note: the paper's derivation replaces the exact CSA
    coefficient ``pi/theta`` by ``k = ceil(pi/theta)``.  When
    ``pi/theta`` is an integer the two coincide and the margin is
    provably non-negative for every ``n`` (that is
    ``k log n >= log n``); for non-integer ratios (e.g. ``theta`` just
    below ``pi``) the exact margin can be *slightly* negative because
    ``pi/theta < k`` — the inequality then holds only in the paper's
    rounded form.  The KCOV experiment evaluates the grid
    ``theta = pi/k`` where the claim is exact.
    """
    from repro.core.csa import csa_necessary  # local import avoids a cycle

    return csa_necessary(n, theta) - kumar_sufficient_area(n, implied_k(theta))


def is_k_covered(fleet: SensorFleet, point: Point, k: int) -> bool:
    """Whether at least ``k`` sensors cover ``point``."""
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k!r}")
    return fleet.coverage_count(point) >= k


def k_coverage_fraction(fleet: SensorFleet, points: np.ndarray, k: int) -> float:
    """Fraction of ``points`` covered by at least ``k`` sensors."""
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k!r}")
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] == 0:
        raise InvalidParameterError("need at least one evaluation point")
    hits = sum(1 for x, y in pts if fleet.coverage_count((float(x), float(y))) >= k)
    return hits / pts.shape[0]


def wang_cao_lattice_edge(
    delta_r: float, delta_phi_min: float, delta_theta: float
) -> float:
    """Wang & Cao's lattice edge bound (their Lemma 4.5, Section VII-C).

    The triangular-lattice discretisation of [4] requires edge length
    ``l <= min(2*delta_r, delta_phi_min) / (sqrt(3) * cot(delta_theta))``
    so that full-view coverage of the lattice points with parameters
    ``(r, phi, theta)`` extends to the whole region with
    ``(r + delta_r, phi + delta_phi, theta + delta_theta)``.

    Note: the source text of this formula is OCR-degraded; this
    implementation follows the quoted form literally and is used only
    for the qualitative Section VII-C comparison (our square-grid
    discretisation does not depend on it).
    """
    if delta_r <= 0 or delta_phi_min <= 0:
        raise InvalidParameterError("delta_r and delta_phi_min must be positive")
    if not (0.0 < delta_theta < 0.5 * math.pi):
        raise InvalidParameterError(
            f"delta_theta must be in (0, pi/2), got {delta_theta!r}"
        )
    cot = math.cos(delta_theta) / math.sin(delta_theta)
    return min(2.0 * delta_r, delta_phi_min) / (math.sqrt(3.0) * cot)
