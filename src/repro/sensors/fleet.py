"""A deployed population of camera sensors, stored column-wise.

:class:`SensorFleet` is the workhorse of the simulation layer: it holds
the positions, orientations and sensing parameters of all ``n`` deployed
sensors as flat numpy arrays, and answers the two queries every coverage
check reduces to:

- :meth:`SensorFleet.covering` — which sensors cover a point ``P``
  (binary sector model: ``|PS| <= r`` and the bearing from the sensor to
  ``P`` lies within ``phi/2`` of its orientation);
- :meth:`SensorFleet.covering_directions` — the *viewed directions*
  ``P -> S`` of those sensors, the inputs to the full-view criterion.

Both are the readable scalar reference: a brute-force test of the point
against every sensor, with no index and no vectorisation over points.
The fleet also caches the :class:`~repro.geometry.spatial.ToroidalCellIndex`
of its sensors' sector boxes that the sparse batch kernel in
:mod:`repro.core.batch` prunes its candidate pairs with; the per-point
queries never read it.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.geometry.angles import TWO_PI, normalize_angle
from repro.geometry.sector import Sector
from repro.geometry.spatial import ToroidalCellIndex
from repro.geometry.torus import Region, UNIT_TORUS
from repro.sensors.model import HeterogeneousProfile

__all__ = ["Point", "SensorFleet", "fleet_from_profile_arrays"]

Point = Tuple[float, float]

#: Angular slack used in wedge tests, mirroring :class:`Sector`.
_ANGLE_TOL = 1e-12

#: Squared apex tolerance, mirroring :data:`repro.geometry.sector._APEX_TOL_SQ`.
_APEX_TOL_SQ = 1e-24

#: Slack of a sector's bounding box, in radians and in radii: the box
#: spans every axis direction within this angle of the wedge and is
#: padded by this fraction of the radius on every side, far past the
#: verdicts' ``1e-12`` rad wedge tolerance.
_BOX_SLACK = 1e-9

#: Absolute padding of a sector's bounding box on every side: ten times
#: the apex tolerance, inside which a sensor covers a point whatever its
#: heading.
_APEX_PAD = 1e-11

#: The axis directions ``0, pi/2, pi, 3*pi/2`` a wedge may contain.
_AXIS_DIRECTIONS = np.arange(4) * (0.5 * math.pi)


class SensorFleet:
    """A fixed set of deployed camera sensors.

    Construct directly from arrays, or via the deployment schemes in
    :mod:`repro.deployment` which return fleets.  The fleet is
    logically immutable; arrays are copied on construction and exposed
    as read-only views.

    Parameters
    ----------
    positions:
        ``(n, 2)`` sensor locations.
    orientations:
        ``(n,)`` orientation headings ``f`` (angular bisector of the
        sector), radians.
    radii:
        ``(n,)`` sensing radii.
    angles:
        ``(n,)`` angles of view in ``(0, 2*pi]``.
    group_ids:
        ``(n,)`` integer group labels (``0..u-1``); optional, defaults
        to all zeros.
    region:
        Geometry provider; defaults to the unit torus.
    """

    __slots__ = (
        "region",
        "_positions",
        "_orientations",
        "_radii",
        "_angles",
        "_half_angles",
        "_group_ids",
        "_index",
        "_max_radius",
    )

    def __init__(
        self,
        positions: np.ndarray,
        orientations: np.ndarray,
        radii: np.ndarray,
        angles: np.ndarray,
        group_ids: Optional[np.ndarray] = None,
        region: Region = UNIT_TORUS,
    ) -> None:
        positions = np.asarray(positions, dtype=float).reshape(-1, 2)
        n = positions.shape[0]
        orientations = np.asarray(orientations, dtype=float).reshape(-1)
        radii = np.asarray(radii, dtype=float).reshape(-1)
        angles = np.asarray(angles, dtype=float).reshape(-1)
        if orientations.shape[0] != n or radii.shape[0] != n or angles.shape[0] != n:
            raise InvalidParameterError(
                "positions, orientations, radii and angles must have equal length"
            )
        for name, values in (
            ("positions", positions),
            ("orientations", orientations),
            ("radii", radii),
            ("angles", angles),
        ):
            if not np.isfinite(values).all():
                raise InvalidParameterError(f"all sensor {name} must be finite")
        orientations = normalize_angle(orientations)
        if n and (radii <= 0).any():
            raise InvalidParameterError("all sensing radii must be positive")
        if n and ((angles <= 0) | (angles > TWO_PI + 1e-12)).any():
            raise InvalidParameterError("all angles of view must be in (0, 2*pi]")
        if group_ids is None:
            group_ids = np.zeros(n, dtype=np.intp)
        else:
            group_ids = np.asarray(group_ids, dtype=np.intp).reshape(-1)
            if group_ids.shape[0] != n:
                raise InvalidParameterError("group_ids length must match positions")
        self.region = region
        self._positions = region.wrap_points(positions).copy()
        self._orientations = orientations.copy()
        self._radii = radii.copy()
        self._angles = np.minimum(angles, TWO_PI).copy()
        self._half_angles = 0.5 * self._angles
        self._group_ids = group_ids.copy()
        self._index: Optional[ToroidalCellIndex] = None
        self._max_radius = float(radii.max()) if n else 0.0

    # -- basic accessors ----------------------------------------------------

    def __len__(self) -> int:
        return self._positions.shape[0]

    @property
    def positions(self) -> np.ndarray:
        return self._read_only(self._positions)

    @property
    def orientations(self) -> np.ndarray:
        return self._read_only(self._orientations)

    @property
    def radii(self) -> np.ndarray:
        return self._read_only(self._radii)

    @property
    def angles(self) -> np.ndarray:
        return self._read_only(self._angles)

    @property
    def group_ids(self) -> np.ndarray:
        return self._read_only(self._group_ids)

    @property
    def max_radius(self) -> float:
        """Largest sensing radius in the fleet (coverage reach bound)."""
        return self._max_radius

    @staticmethod
    def _read_only(array: np.ndarray) -> np.ndarray:
        view = array.view()
        view.flags.writeable = False
        return view

    def sensing_areas(self) -> np.ndarray:
        """Per-sensor sensing areas ``phi * r**2 / 2``."""
        return 0.5 * self._angles * self._radii**2

    def total_weighted_sensing_area(self) -> float:
        """Empirical ``s_c``: mean per-sensor sensing area.

        For a fleet drawn from a :class:`HeterogeneousProfile` this
        estimates the profile's weighted sensing area (and equals it
        exactly when group counts are exact multiples).
        """
        if len(self) == 0:
            return 0.0
        return float(self.sensing_areas().mean())

    def sensor(self, index: int) -> Sector:
        """The ``index``-th sensor as a scalar :class:`Sector`."""
        x, y = self._positions[index]
        return Sector(
            apex=(float(x), float(y)),
            radius=float(self._radii[index]),
            angle=float(self._angles[index]),
            orientation=float(self._orientations[index]),
            region=self.region,
        )

    def subset(self, indices: Sequence[int]) -> "SensorFleet":
        """A new fleet containing only the selected sensors."""
        idx = np.asarray(indices, dtype=np.intp)
        return SensorFleet(
            positions=self._positions[idx],
            orientations=self._orientations[idx],
            radii=self._radii[idx],
            angles=self._angles[idx],
            group_ids=self._group_ids[idx],
            region=self.region,
        )

    def replace(
        self,
        *,
        positions: Optional[np.ndarray] = None,
        orientations: Optional[np.ndarray] = None,
        radii: Optional[np.ndarray] = None,
        angles: Optional[np.ndarray] = None,
        group_ids: Optional[np.ndarray] = None,
    ) -> "SensorFleet":
        """A new fleet with some per-sensor arrays swapped out.

        The hook the failure models in :mod:`repro.resilience` build on:
        orientation drift swaps headings, radius degradation swaps
        radii, and the constructor re-validates every invariant.  The
        cell index is not carried over (positions or radii may have
        changed); the sparse kernel builds a fresh one on demand.
        """
        return SensorFleet(
            positions=self._positions if positions is None else positions,
            orientations=self._orientations if orientations is None else orientations,
            radii=self._radii if radii is None else radii,
            angles=self._angles if angles is None else angles,
            group_ids=self._group_ids if group_ids is None else group_ids,
            region=self.region,
        )

    def concat(self, other: "SensorFleet") -> "SensorFleet":
        """Union of two fleets over the same region.

        Group ids of ``other`` are shifted past this fleet's maximum so
        the two populations stay distinguishable.
        """
        if other.region != self.region:
            raise InvalidParameterError("cannot concat fleets over different regions")
        shift = int(self._group_ids.max()) + 1 if len(self) else 0
        return SensorFleet(
            positions=np.concatenate([self._positions, other._positions]),
            orientations=np.concatenate([self._orientations, other._orientations]),
            radii=np.concatenate([self._radii, other._radii]),
            angles=np.concatenate([self._angles, other._angles]),
            group_ids=np.concatenate([self._group_ids, other._group_ids + shift]),
            region=self.region,
        )

    # -- spatial index -------------------------------------------------------

    def build_index(self) -> ToroidalCellIndex:
        """Build (and cache) the sparse kernel's index of sensor sectors.

        Each sensor is listed in every cell its own sector's bounding
        box overlaps (:meth:`_sector_boxes`), so the cell a point sits
        in holds every sensor whose sector may contain it.  Cells are a
        quarter of the maximum sensing radius: a quarter-disk sector
        then spans about 30 cells, and the cell a point reads holds
        about 0.6 of a sensing disk's worth of sensors at ``phi =
        pi/2`` (1.6 for ``phi = 2*pi`` disks; DESIGN.md §8).
        """
        cell_size = 0.25 * self._max_radius if self._max_radius > 0 else self.region.side
        self._index = ToroidalCellIndex(
            self._positions, cell_size, self.region, extents=self._sector_boxes()
        )
        return self._index

    def _sector_boxes(self) -> np.ndarray:
        """Each sensor's sector bounding box, as offsets from its apex.

        Returns ``(n, 4)`` offsets ``(left, bottom, right, top)``.  A
        box spans the apex, both arc endpoints and the radius along
        every axis direction the wedge contains, so it holds the whole
        sector (the disk's box when ``phi = 2*pi``).  All of its float
        slack errs wide: the axis-direction test is inclusive by
        ``_BOX_SLACK`` rad, and every side is padded by ``_BOX_SLACK``
        radii plus ``_APEX_PAD``.  On a torus the box is clipped to the
        half-turn around the apex, because minimum-image displacements
        never leave it.
        """
        radii, headings, half = self._radii, self._orientations, self._half_angles
        start, stop = headings - half, headings + half
        start_x, stop_x = radii * np.cos(start), radii * np.cos(stop)
        start_y, stop_y = radii * np.sin(start), radii * np.sin(stop)
        offset = np.abs(np.mod(_AXIS_DIRECTIONS - headings[:, None] + math.pi, TWO_PI) - math.pi)
        reach = np.where(offset <= half[:, None] + _BOX_SLACK, radii[:, None], 0.0)
        pad = _BOX_SLACK * radii + _APEX_PAD
        boxes = np.column_stack(
            [
                np.minimum(np.minimum(start_x, stop_x), -reach[:, 2]) - pad,
                np.minimum(np.minimum(start_y, stop_y), -reach[:, 3]) - pad,
                np.maximum(np.maximum(start_x, stop_x), reach[:, 0]) + pad,
                np.maximum(np.maximum(start_y, stop_y), reach[:, 1]) + pad,
            ]
        )
        if self.region.torus:
            half_turn = 0.5 * self.region.side
            np.clip(boxes, -half_turn, half_turn, out=boxes)
        return boxes

    @property
    def index(self) -> Optional[ToroidalCellIndex]:
        """The cached index, or ``None`` before :meth:`build_index`."""
        return self._index

    # -- coverage queries -------------------------------------------------------

    def covering(self, point: Point) -> np.ndarray:
        """Indices of sensors covering ``point`` under the sector model.

        A sensor ``S`` covers ``P`` when ``|PS| <= r_S`` and the bearing
        ``S -> P`` lies within ``phi_S / 2`` of the orientation of
        ``S``.  A sensor exactly at ``P`` covers it.  Every sensor is
        tested; the result is ascending.
        """
        # Displacement from sensor to point (the direction the sensor
        # must look along to see P).
        delta = -self.region.displacements(point, self._positions)
        dist_sq = delta[:, 0] ** 2 + delta[:, 1] ** 2
        within = dist_sq <= self._radii**2
        if not within.any():
            return np.empty(0, dtype=np.intp)
        bearing = np.arctan2(delta[:, 1], delta[:, 0])
        offset = np.abs(np.mod(bearing - self._orientations + math.pi, TWO_PI) - math.pi)
        in_wedge = offset <= self._half_angles + _ANGLE_TOL
        at_apex = dist_sq <= _APEX_TOL_SQ
        return np.flatnonzero(within & (in_wedge | at_apex))

    def covering_directions(self, point: Point) -> np.ndarray:
        """Viewed directions ``P -> S`` of the sensors covering ``point``.

        Sensors coincident with the point are dropped (their viewed
        direction is undefined); under continuous random deployment this
        is a measure-zero event.
        """
        idx = self.covering(point)
        if idx.size == 0:
            return np.empty(0, dtype=float)
        delta = self.region.displacements(point, self._positions[idx])
        # Sensors within the apex tolerance have no meaningful bearing.
        apart = delta[:, 0] ** 2 + delta[:, 1] ** 2 > _APEX_TOL_SQ
        delta = delta[apart]
        if delta.shape[0] == 0:
            return np.empty(0, dtype=float)
        return normalize_angle(np.arctan2(delta[:, 1], delta[:, 0]))

    def coverage_count(self, point: Point) -> int:
        """Number of sensors covering ``point`` (for k-coverage checks)."""
        return int(self.covering(point).size)

    def coverage_counts(self, points: np.ndarray) -> np.ndarray:
        """Vector of coverage counts for an ``(m, 2)`` array of points."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        return np.array(
            [self.coverage_count((float(x), float(y))) for x, y in pts], dtype=np.intp
        )

    # -- reporting ---------------------------------------------------------------

    def group_sizes(self) -> np.ndarray:
        """Sensor count per group id (length = max group id + 1)."""
        if len(self) == 0:
            return np.zeros(0, dtype=np.intp)
        return np.bincount(self._group_ids)

    def __repr__(self) -> str:
        return (
            f"SensorFleet(n={len(self)}, groups={len(self.group_sizes())}, "
            f"max_radius={self._max_radius:.4g}, region_side={self.region.side:g})"
        )


def fleet_from_profile_arrays(
    profile: HeterogeneousProfile,
    positions: np.ndarray,
    orientations: np.ndarray,
    region: Region = UNIT_TORUS,
) -> SensorFleet:
    """Assemble a fleet from a profile plus position/orientation arrays.

    The first ``n_1`` rows get group 1's parameters, the next ``n_2``
    group 2's, and so on, with ``n_y`` from
    :meth:`HeterogeneousProfile.group_counts`.  Deployment schemes
    shuffle positions before calling this, so the block assignment does
    not bias geometry.
    """
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    n = positions.shape[0]
    counts = profile.group_counts(n)
    radii = np.empty(n, dtype=float)
    angles = np.empty(n, dtype=float)
    group_ids = np.empty(n, dtype=np.intp)
    start = 0
    for gid, (group, count) in enumerate(zip(profile.groups, counts)):
        stop = start + count
        radii[start:stop] = group.radius
        angles[start:stop] = group.angle_of_view
        group_ids[start:stop] = gid
        start = stop
    return SensorFleet(
        positions=positions,
        orientations=orientations,
        radii=radii,
        angles=angles,
        group_ids=group_ids,
        region=region,
    )
