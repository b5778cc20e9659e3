"""The paper's geometric necessary and sufficient conditions.

Section III (necessary, Fig. 4) partitions the circle around a point
``P`` into sectors of central angle ``2*theta``: full sectors
``T_1 .. T_kN`` (``kN = floor(pi/theta)``) swept anticlockwise from a
start line, a remainder ``T_alpha`` of angle
``alpha = 2*pi - kN*2*theta in (0, 2*theta)`` when ``pi/theta`` is not
an integer, and a *patch* sector ``T_{kN+1}`` of angle ``2*theta``
sharing ``T_alpha``'s bisector.  The necessary condition: every one of
these ``ceil(pi/theta)`` sectors contains at least one sensor covering
``P`` — otherwise the empty sector's bisector is an unsafe facing
direction.

Section IV (sufficient, Fig. 6) repeats the construction with sector
angle ``theta`` (``kS = floor(2*pi/theta)`` full sectors, patch of
angle ``theta``), giving ``ceil(2*pi/theta)`` sectors: when every one
holds a covering sensor, any facing direction shares a ``theta``-wide
sector with some covering sensor and is therefore safe.

The chain ``sufficient => exact full-view => necessary`` is the
sandwich that motivates the CSA gap discussion in Section VI-C, and is
property-tested in the suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.geometry.angles import TWO_PI, normalize_angle, validate_effective_angle
from repro.geometry.intervals import AngularInterval
from repro.sensors.fleet import SensorFleet

__all__ = [
    "Point",
    "SectorPartition",
    "condition_fraction",
    "necessary_condition_holds",
    "necessary_partition",
    "point_meets_necessary_condition",
    "point_meets_sufficient_condition",
    "sector_count_necessary",
    "sector_count_sufficient",
    "sufficient_condition_holds",
    "sufficient_partition",
]

Point = Tuple[float, float]

#: Remainder angles below this are treated as zero (no patch sector).
_ALPHA_TOL = 1e-9


def sector_count_necessary(theta: float) -> int:
    """Total sectors in the necessary partition: ``ceil(pi/theta)``.

    Equals ``kN`` when ``pi/theta`` is an integer (no patch sector) and
    ``kN + 1`` otherwise.
    """
    theta = validate_effective_angle(theta)
    ratio = math.pi / theta
    if not ratio < 2**31:
        raise InvalidParameterError(
            f"theta={theta!r} is too small: the sector count overflows"
        )
    return math.ceil(ratio - _ALPHA_TOL)


def sector_count_sufficient(theta: float) -> int:
    """Total sectors in the sufficient partition: ``ceil(2*pi/theta)``."""
    theta = validate_effective_angle(theta)
    ratio = TWO_PI / theta
    if not ratio < 2**31:
        raise InvalidParameterError(
            f"theta={theta!r} is too small: the sector count overflows"
        )
    return math.ceil(ratio - _ALPHA_TOL)


@dataclass(frozen=True)
class SectorPartition:
    """A concrete sector partition around a point.

    Attributes
    ----------
    sectors:
        The arcs that must each contain a covering sensor.  The last
        entry is the patch sector when the remainder ``alpha`` is
        positive; it overlaps its neighbours by construction.
    sector_angle:
        Central angle of each sector (``2*theta`` or ``theta``).
    alpha:
        The remainder angle (``0`` when the sector angle divides
        ``2*pi``).
    start:
        Heading of the start line the sweep began from.
    """

    sectors: Tuple[AngularInterval, ...]
    sector_angle: float
    alpha: float
    start: float

    @property
    def num_full_sectors(self) -> int:
        """The paper's ``k`` (sectors before the patch)."""
        return len(self.sectors) - (1 if self.alpha > _ALPHA_TOL else 0)

    def occupancy(self, directions: Sequence[float]) -> np.ndarray:
        """Boolean vector: does each sector contain some direction?"""
        directions = np.asarray(directions, dtype=float).ravel()
        result = np.zeros(len(self.sectors), dtype=bool)
        if directions.size == 0:
            return result
        offsets = normalize_angle(directions)
        for i, sector in enumerate(self.sectors):
            rel = np.mod(offsets - sector.start, TWO_PI)
            result[i] = bool((rel <= sector.extent + 1e-12).any())
        return result

    def all_occupied(self, directions: Sequence[float]) -> bool:
        """Whether every sector contains at least one direction."""
        return bool(self.occupancy(directions).all())

    def empty_sector_bisectors(self, directions: Sequence[float]) -> np.ndarray:
        """Bisectors of unoccupied sectors — the unsafe witnesses.

        For the necessary condition these are exactly the facing
        directions the paper exhibits to break full-view coverage.
        """
        occupied = self.occupancy(directions)
        return np.array(
            [s.midpoint for s, occ in zip(self.sectors, occupied) if not occ]
        )


def _build_partition(sector_angle: float, start: float) -> SectorPartition:
    """Sweep sectors of ``sector_angle`` anticlockwise from ``start``.

    Implements the construction shared by Figs. 4 and 6: full sectors,
    then a patch sector of the same angle centred on the remainder's
    bisector when the remainder is positive.
    """
    if not (0.0 < sector_angle <= TWO_PI + 1e-12):
        raise InvalidParameterError(
            f"sector angle must be in (0, 2*pi], got {sector_angle!r}"
        )
    sector_angle = min(sector_angle, TWO_PI)
    k = int(math.floor(TWO_PI / sector_angle + _ALPHA_TOL))
    alpha = TWO_PI - k * sector_angle
    if alpha < _ALPHA_TOL:
        alpha = 0.0
    sectors = [
        AngularInterval(start + j * sector_angle, sector_angle) for j in range(k)
    ]
    if alpha > 0.0:
        # Patch sector: same angle, bisector aligned with T_alpha's.
        alpha_bisector = start + k * sector_angle + 0.5 * alpha
        sectors.append(AngularInterval.centered(alpha_bisector, 0.5 * sector_angle))
    return SectorPartition(
        sectors=tuple(sectors),
        sector_angle=sector_angle,
        alpha=alpha,
        start=normalize_angle(start),
    )


def necessary_partition(theta: float, start: float = 0.0) -> SectorPartition:
    """The Fig. 4 partition: sectors of angle ``2*theta``."""
    theta = validate_effective_angle(theta)
    return _build_partition(2.0 * theta, start)


def sufficient_partition(theta: float, start: float = 0.0) -> SectorPartition:
    """The Fig. 6 partition: sectors of angle ``theta``."""
    theta = validate_effective_angle(theta)
    return _build_partition(theta, start)


def necessary_condition_holds(
    viewed_directions: Sequence[float], theta: float, start: float = 0.0
) -> bool:
    """Necessary condition from viewed directions alone.

    Every sector of the Fig. 4 partition (anchored at ``start``) must
    contain at least one viewed direction.  Full-view coverage implies
    this for *every* anchor; the paper fixes one start line, as we do
    by default.
    """
    return necessary_partition(theta, start).all_occupied(viewed_directions)


def sufficient_condition_holds(
    viewed_directions: Sequence[float], theta: float, start: float = 0.0
) -> bool:
    """Sufficient condition from viewed directions alone (Fig. 6)."""
    return sufficient_partition(theta, start).all_occupied(viewed_directions)


def point_meets_necessary_condition(
    fleet: SensorFleet, point: Point, theta: float, start: float = 0.0
) -> bool:
    """Necessary-condition test for a point against a deployed fleet."""
    return necessary_condition_holds(fleet.covering_directions(point), theta, start)


def point_meets_sufficient_condition(
    fleet: SensorFleet, point: Point, theta: float, start: float = 0.0
) -> bool:
    """Sufficient-condition test for a point against a deployed fleet."""
    return sufficient_condition_holds(fleet.covering_directions(point), theta, start)


def condition_fraction(
    fleet: SensorFleet,
    points: np.ndarray,
    theta: float,
    condition: str,
    start: float = 0.0,
) -> float:
    """Fraction of points meeting the named condition.

    ``condition`` is ``"necessary"``, ``"sufficient"`` or ``"exact"``;
    the last delegates to the exact gap test so sweep drivers can treat
    all three uniformly.
    """
    from repro.core.full_view import is_full_view_covered  # local to avoid cycle

    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] == 0:
        raise InvalidParameterError("need at least one evaluation point")
    if condition == "necessary":
        partition = necessary_partition(theta, start)
        test = partition.all_occupied
    elif condition == "sufficient":
        partition = sufficient_partition(theta, start)
        test = partition.all_occupied
    elif condition == "exact":
        test = lambda dirs: is_full_view_covered(dirs, theta)  # noqa: E731
    else:
        raise InvalidParameterError(
            f"condition must be 'necessary', 'sufficient' or 'exact', got {condition!r}"
        )
    hits = 0
    for x, y in pts:
        directions = fleet.covering_directions((float(x), float(y)))
        if test(directions):
            hits += 1
    return hits / pts.shape[0]
