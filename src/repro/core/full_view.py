"""Exact full-view coverage (Definition 1).

A point ``P`` is *full-view covered* with effective angle
``theta in (0, pi]`` when every facing direction ``d`` is *safe*: some
sensor ``S`` covers ``P`` with ``angle(d, PS) <= theta``.

Let ``psi_1 .. psi_k`` be the viewed directions (headings ``P -> S``)
of the sensors covering ``P``.  The set of safe facing directions is
the union of arcs ``[psi_i - theta, psi_i + theta]``, so ``P`` is
full-view covered **iff** that union is the whole circle — equivalently
iff the largest circular gap between consecutive viewed directions is
at most ``2 * theta``.  The paper uses this fact implicitly throughout
(it is what makes a sensor-free ``2*theta`` sector fatal); here it is
the primary, exact test, against which the paper's necessary and
sufficient sector conditions are sandwiched
(``sufficient => exact => necessary``, property-tested).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import full_view_mask
from repro.errors import InvalidParameterError
from repro.geometry.angles import TWO_PI, normalize_angle, validate_effective_angle
from repro.geometry.intervals import AngularIntervalSet, max_circular_gap
from repro.sensors.fleet import SensorFleet

__all__ = [
    "FullViewDiagnostics",
    "Point",
    "diagnose_point",
    "full_view_coverage_fraction",
    "is_full_view_covered",
    "minimum_sensors_for_full_view",
    "point_is_full_view_covered",
    "safe_direction_set",
    "validate_effective_angle",
]

Point = Tuple[float, float]


def is_full_view_covered(viewed_directions: Sequence[float], theta: float) -> bool:
    """Exact full-view test from viewed directions alone.

    Parameters
    ----------
    viewed_directions:
        Headings ``P -> S`` of the sensors covering the point.
    theta:
        Effective angle in ``(0, pi]``.

    Returns
    -------
    ``True`` iff the maximum circular gap between consecutive viewed
    directions is at most ``2 * theta`` (and the point is covered by at
    least one sensor).
    """
    theta = validate_effective_angle(theta)
    directions = np.asarray(viewed_directions, dtype=float).ravel()
    if directions.size == 0:
        return False
    return max_circular_gap(directions) <= 2.0 * theta + 1e-12


def safe_direction_set(
    viewed_directions: Sequence[float], theta: float
) -> AngularIntervalSet:
    """The set of safe facing directions as an angular interval set.

    This is the union of arcs of half-width ``theta`` around each
    viewed direction — full-view coverage is exactly this set covering
    the circle.
    """
    theta = validate_effective_angle(theta)
    return AngularIntervalSet.from_directions(
        np.asarray(viewed_directions, dtype=float).ravel(), theta
    )


def point_is_full_view_covered(
    fleet: SensorFleet, point: Point, theta: float
) -> bool:
    """Exact full-view test for a point against a deployed fleet."""
    return is_full_view_covered(fleet.covering_directions(point), theta)


@dataclass(frozen=True)
class FullViewDiagnostics:
    """Per-point diagnostics of the full-view criterion.

    Attributes
    ----------
    covered:
        Whether the point is full-view covered (exact test).
    num_covering_sensors:
        Size of the covering set.
    max_gap:
        Largest circular gap between consecutive viewed directions
        (``2*pi`` when fewer than two sensors cover the point).
    safe_measure:
        Angular measure of the safe facing-direction set, in
        ``[0, 2*pi]``.
    worst_direction:
        A facing direction maximally far from every viewed direction
        (midpoint of the widest gap), or ``None`` when no sensor covers
        the point.  When ``covered`` is false this is a concrete
        unsafe direction — a witness to the failure.
    slack:
        ``2*theta - max_gap``: positive slack means the point tolerates
        that much additional gap before losing full-view coverage.
    """

    covered: bool
    num_covering_sensors: int
    max_gap: float
    safe_measure: float
    worst_direction: Optional[float]
    slack: float


def diagnose_point(
    fleet: SensorFleet, point: Point, theta: float
) -> FullViewDiagnostics:
    """Full diagnostics of a point's full-view status against a fleet."""
    theta = validate_effective_angle(theta)
    directions = fleet.covering_directions(point)
    k = int(directions.size)
    if k == 0:
        return FullViewDiagnostics(
            covered=False,
            num_covering_sensors=0,
            max_gap=TWO_PI,
            safe_measure=0.0,
            worst_direction=None,
            slack=2.0 * theta - TWO_PI,
        )
    gap = max_circular_gap(directions)
    safe = safe_direction_set(directions, theta)
    ordered = np.sort(normalize_angle(directions))
    if k == 1:
        worst = normalize_angle(float(ordered[0]) + math.pi)
    else:
        diffs = np.diff(ordered)
        wrap = TWO_PI - (ordered[-1] - ordered[0])
        if wrap >= diffs.max():
            worst = normalize_angle(float(ordered[-1]) + 0.5 * wrap)
        else:
            widest = int(np.argmax(diffs))
            worst = normalize_angle(float(ordered[widest]) + 0.5 * float(diffs[widest]))
    return FullViewDiagnostics(
        covered=gap <= 2.0 * theta + 1e-12,
        num_covering_sensors=k,
        max_gap=float(gap),
        safe_measure=safe.measure(),
        worst_direction=float(worst),
        slack=2.0 * theta - float(gap),
    )


def full_view_coverage_fraction(
    fleet: SensorFleet,
    points: np.ndarray,
    theta: float,
) -> float:
    """Fraction of ``points`` that are full-view covered (exact test).

    When edge effects are neglected this estimates the expected covered
    *area* fraction, the interpretation Section V gives to the per-point
    probabilities.

    Evaluation is vectorised through
    :func:`repro.core.batch.full_view_mask` (bit-identical to the
    scalar gap test, property-tested) and never mutates ``fleet``.
    """
    theta = validate_effective_angle(theta)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] == 0:
        raise InvalidParameterError("need at least one evaluation point")
    return float(full_view_mask(fleet, pts, theta).mean())


def minimum_sensors_for_full_view(theta: float) -> int:
    """Fewest sensors that can full-view cover a point: ``ceil(pi/theta)``.

    Section III: the necessary condition "indicates that at least
    ``ceil(pi/theta)`` sensors are needed to achieve full view coverage
    of a point" — achieved by spacing viewed directions evenly.
    """
    theta = validate_effective_angle(theta)
    return math.ceil(math.pi / theta - 1e-12)
