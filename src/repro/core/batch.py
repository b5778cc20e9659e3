"""Vectorised batch evaluation of coverage over many points.

The scalar path (:meth:`SensorFleet.covering_directions` per point, a
brute-force test against every sensor) is the readable reference; this
module evaluates *all* points of a grid at once, chunked to bound memory.
Results are bit-identical to the scalar path (property-tested), and the
speedup makes the grid-level experiments (PHASE, GAP, BARRIER) an order
of magnitude cheaper.

Every condition (exact gap test, sector occupancy, k-coverage) is a
reduction over one set of data: the *covering pairs* — each (point,
sensor) pair where the sensor covers the point, with its viewed
direction.  One formula, :func:`_pair_verdicts`, decides a pair's
verdict and direction, and the two evaluation paths differ only in
which pairs they hand it.  The *dense* path
(:func:`covering_and_directions`) broadcasts every point against every
sensor.  The *sparse* path (:func:`sparse_covering_pairs`), the one
user of the fleet's cell index, prunes candidates through
:meth:`ToroidalCellIndex.query_radius_batch` and evaluates only the
(point, sensor) pairs whose sector's bounding box overlaps the point's
cell — in the paper's regime (``r ~ sqrt(log n / n)``) that is
``O(log n)`` pairs per point instead of ``n``.  :func:`_covering_pairs`
picks the path through :func:`repro.core.kernels.resolve_kernel` (the
``kernel=`` argument every public kernel accepts) and flattens either
result into the same covering pairs, in ascending point order; each
reduction below is then written once, so both paths are bit-identical
by construction (property-tested).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.conditions import necessary_partition, sufficient_partition
from repro.core.kernels import resolve_kernel
from repro.errors import InvalidParameterError
from repro.geometry.angles import TWO_PI, validate_effective_angle
from repro.obs.metrics import active_metrics
from repro.obs.trace import span
from repro.sensors.fleet import SensorFleet

__all__ = [
    "SparseCovering",
    "condition_mask",
    "coverage_counts",
    "coverage_fraction_fast",
    "covering_and_directions",
    "full_view_mask",
    "max_gaps",
    "sparse_covering_pairs",
]

#: Cap on the pairwise block size (points x sensors) per chunk.
_MAX_PAIRS_PER_CHUNK = 4_000_000


def _chunk_rows(num_points: int, num_sensors: int) -> int:
    """Points per chunk so each pairwise block stays under the cap."""
    if num_sensors == 0:
        return num_points
    return max(1, _MAX_PAIRS_PER_CHUNK // max(1, num_sensors))


def _pair_verdicts(
    delta: np.ndarray,
    radii: np.ndarray,
    orientations: np.ndarray,
    half_angles: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Covering verdicts and viewed directions of (point, sensor) pairs.

    ``delta[..., :]`` is the wrapped displacement ``P -> S`` of each
    pair; the sensor arrays broadcast against ``delta[..., 0]``.  A
    sensor coincident with the point counts as covering, mirroring the
    scalar path, and gets a ``nan`` direction, which every reduction
    skips — matching the scalar path's drop of coincident sensors.
    """
    dist_sq = delta[..., 0] ** 2 + delta[..., 1] ** 2
    within = dist_sq <= radii**2
    heading_ps = np.arctan2(delta[..., 1], delta[..., 0])
    # Sensor-to-point bearing is the opposite heading.
    bearing_sp = heading_ps + math.pi
    offset = np.abs(np.mod(bearing_sp - orientations + math.pi, TWO_PI) - math.pi)
    in_wedge = offset <= half_angles + 1e-12
    coincident = dist_sq <= 1e-24  # apex tolerance, mirroring the scalar path
    directions = np.mod(heading_ps, TWO_PI)
    directions[coincident] = np.nan
    return within & (in_wedge | coincident), directions


def covering_and_directions(
    fleet: SensorFleet, points: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Covering matrix and viewed directions for every (point, sensor) pair.

    Returns
    -------
    covers:
        Boolean ``(m, n)``; ``covers[i, j]`` iff sensor ``j`` covers
        point ``i`` (sector model; a sensor coincident with the point
        counts as covering, mirroring the scalar path).
    directions:
        Float ``(m, n)``; heading ``P_i -> S_j`` in ``[0, 2*pi)``
        (``nan`` for coincident pairs, which the gap test skips —
        matching the scalar path's drop of coincident sensors).
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    m = points.shape[0]
    n = len(fleet)
    covers = np.zeros((m, n), dtype=bool)
    directions = np.full((m, n), np.nan)
    if n == 0 or m == 0:
        return covers, directions
    half_angles = 0.5 * fleet.angles
    rows = _chunk_rows(m, n)
    for start in range(0, m, rows):
        block = slice(start, start + rows)
        # delta[i, j] = S_j - P_i (wrapped): direction P -> S.
        delta = fleet.region.displacements(points[block, None, :], fleet.positions)
        covers[block], directions[block] = _pair_verdicts(
            delta, fleet.radii, fleet.orientations, half_angles
        )
    return covers, directions


@dataclass(frozen=True)
class SparseCovering:
    """CSR covering data over candidate (point, sensor) pairs only.

    The sparse analogue of :func:`covering_and_directions`: row ``i``
    of the CSR structure holds point ``i``'s candidate sensors (every
    sensor whose sector may contain the point: its bounding box
    overlaps the point's cell — a superset of its covering sensors),
    with the covering verdict and viewed direction evaluated per pair
    by the same :func:`_pair_verdicts` as the dense path.
    Pairs outside the candidate set are guaranteed non-covering, so
    every per-point reduction over this structure matches its dense
    counterpart bit for bit.
    """

    #: ``(m + 1,)`` prefix offsets; point ``i``'s pairs occupy
    #: ``[indptr[i], indptr[i + 1])`` of the flat arrays.
    indptr: np.ndarray
    #: ``(nnz,)`` sensor ids, ascending within each row.
    sensors: np.ndarray
    #: ``(nnz,)`` covering verdicts.
    covers: np.ndarray
    #: ``(nnz,)`` viewed directions in ``[0, 2*pi)``; ``nan`` for
    #: coincident pairs, matching the dense matrix.
    directions: np.ndarray

    @property
    def num_points(self) -> int:
        return self.indptr.shape[0] - 1

    def rows(self) -> np.ndarray:
        """Point id of each flat pair (``(nnz,)``)."""
        return np.repeat(
            np.arange(self.num_points, dtype=np.intp), np.diff(self.indptr)
        )

    def to_dense(self, num_sensors: int) -> Tuple[np.ndarray, np.ndarray]:
        """Scatter back to the dense ``(m, n)`` matrices (test helper).

        Non-candidate pairs get ``covers=False`` and ``nan`` direction —
        note the dense path stores real directions for non-covering
        pairs too, so only compare directions where ``covers`` is true.
        """
        m = self.num_points
        covers = np.zeros((m, num_sensors), dtype=bool)
        directions = np.full((m, num_sensors), np.nan)
        rows = self.rows()
        covers[rows, self.sensors] = self.covers
        directions[rows, self.sensors] = self.directions
        return covers, directions


def sparse_covering_pairs(fleet: SensorFleet, points: np.ndarray) -> SparseCovering:
    """Covering verdicts and directions over candidate pairs only.

    Candidates come from the fleet's cell index of sector boxes,
    built on demand and cached on the fleet, so a caller evaluating one
    fleet in several calls builds it once.  It is queried at radius 0:
    each point reads the one cell it sits in, which lists every sensor
    whose sector may contain the point.  The boxes carry all the float
    slack, so a borderline pair can never be lost before the exact
    test.  Each candidate pair is then evaluated by
    :func:`_pair_verdicts`, as in the dense path, chunked to bound
    memory.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    m = points.shape[0]
    n = len(fleet)
    if m == 0 or n == 0:
        return SparseCovering(
            indptr=np.zeros(m + 1, dtype=np.intp),
            sensors=np.empty(0, dtype=np.intp),
            covers=np.empty(0, dtype=bool),
            directions=np.empty(0, dtype=float),
        )
    index = fleet.index if fleet.index is not None else fleet.build_index()
    with span("sparse_pairs", points=m, sensors=n):
        indptr, sensors = index.query_radius_batch(points, 0.0)
        nnz = sensors.shape[0]
        rows = np.repeat(np.arange(m, dtype=np.intp), np.diff(indptr))
        covers = np.empty(nnz, dtype=bool)
        directions = np.empty(nnz, dtype=float)
        half_angles = 0.5 * fleet.angles
        for start in range(0, nnz, _MAX_PAIRS_PER_CHUNK):
            chunk = slice(start, start + _MAX_PAIRS_PER_CHUNK)
            s = sensors[chunk]
            delta = fleet.region.displacements(points[rows[chunk]], fleet.positions[s])
            covers[chunk], directions[chunk] = _pair_verdicts(
                delta, fleet.radii[s], fleet.orientations[s], half_angles[s]
            )
    return SparseCovering(
        indptr=indptr, sensors=sensors, covers=covers, directions=directions
    )


def _covering_pairs(
    fleet: SensorFleet, points: np.ndarray, kernel: str
) -> Tuple[np.ndarray, np.ndarray]:
    """The covering pairs of ``points``, enumerated by the chosen kernel.

    Resolves the kernel (counted in the obs registry) and returns two
    flat arrays over the pairs where a sensor covers a point: the point
    ids, ascending, and the viewed directions (``nan`` for a coincident
    sensor).  Both paths yield the same pairs in the same order — sensor
    ids ascend within a point — with the same scalars.
    """
    resolved = resolve_kernel(fleet, points.shape[0], kernel)
    registry = active_metrics()
    if registry is not None:
        registry.inc(f"kernel_{resolved}")
    if resolved == "sparse":
        sp = sparse_covering_pairs(fleet, points)
        return sp.rows()[sp.covers], sp.directions[sp.covers]
    covers, directions = covering_and_directions(fleet, points)
    return np.nonzero(covers)[0], directions[covers]


def _counts(rows: np.ndarray, num_points: int) -> np.ndarray:
    """Pairs per point, from the pairs' point ids."""
    # bincount has no array-API standard form: a port to another array
    # library must supply it.
    return np.bincount(rows, minlength=num_points)  # fvlint: disable=FV009 (see above)


def _max_gap_rows(directions_sorted: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Largest circular gap per row of a padded sorted-direction matrix.

    ``directions_sorted`` is ``(m, n)`` with each row's valid entries
    sorted ascending and invalid entries set to ``inf``; ``counts``
    holds the number of valid entries per row.
    """
    m, n = directions_sorted.shape
    gaps = np.full(m, TWO_PI)
    multi = counts >= 2
    if not multi.any():
        return gaps
    rows = directions_sorted[multi]
    k = counts[multi]
    # Zero the inf padding so np.diff never produces inf - inf, then
    # mask the invalid diff columns (j >= k - 1) out of the row max.
    vals = np.where(np.isfinite(rows), rows, 0.0)
    diffs = np.diff(vals, axis=1)
    valid = np.arange(n - 1)[None, :] < (k - 1)[:, None]
    inner = np.where(valid, diffs, -np.inf).max(axis=1)
    first = vals[:, 0]
    last = vals[np.arange(rows.shape[0]), k - 1]
    wrap = TWO_PI - (last - first)
    gaps[multi] = np.maximum(inner, wrap)
    return gaps


def _viewed_counts_and_gaps(
    rows: np.ndarray, directions: np.ndarray, num_points: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Viewed directions per point and their largest circular gap.

    Drops coincident (``nan``) pairs, then packs each point's directions
    into one row of an inf-padded matrix — ascending point ids make the
    slot of a pair its offset from the point's first pair — and sorts
    the rows for :func:`_max_gap_rows`.
    """
    viewed = ~np.isnan(directions)
    rows, directions = rows[viewed], directions[viewed]
    counts = _counts(rows, num_points)
    firsts = np.cumsum(counts) - counts
    padded = np.full((num_points, int(counts.max(initial=0))), np.inf)
    padded[rows, np.arange(rows.shape[0]) - firsts[rows]] = directions
    padded.sort(axis=1)
    return counts, _max_gap_rows(padded, counts)


def coverage_counts(
    fleet: SensorFleet, points: np.ndarray, kernel: str = "auto"
) -> np.ndarray:
    """Vectorised per-point covering-sensor counts."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    rows, _ = _covering_pairs(fleet, points, kernel)
    return _counts(rows, points.shape[0])


def max_gaps(
    fleet: SensorFleet, points: np.ndarray, kernel: str = "auto"
) -> np.ndarray:
    """Largest circular gap of covering viewed directions per point.

    Points with fewer than two covering sensors get ``2*pi`` (a single
    sensor leaves the opposite direction unsafe for any
    ``theta < pi``; the ``<=`` comparison handles ``theta = pi``).
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    rows, directions = _covering_pairs(fleet, points, kernel)
    return _viewed_counts_and_gaps(rows, directions, points.shape[0])[1]


def full_view_mask(
    fleet: SensorFleet, points: np.ndarray, theta: float, kernel: str = "auto"
) -> np.ndarray:
    """Exact full-view verdict for every point, vectorised.

    Equivalent to calling
    :func:`repro.core.full_view.point_is_full_view_covered` per point.
    """
    return condition_mask(fleet, points, theta, "exact", kernel=kernel)


def condition_mask(
    fleet: SensorFleet,
    points: np.ndarray,
    theta: float,
    condition: str,
    k: int = 1,
    kernel: str = "auto",
) -> np.ndarray:
    """Vectorised verdicts for any named condition.

    ``condition`` is ``"exact"``, ``"necessary"``, ``"sufficient"``
    (the sector conditions use the default start line, like the scalar
    path) or ``"k_coverage"`` — at least ``k`` covering sensors,
    equivalent to ``coverage_counts(fleet, points) >= k``
    (property-tested); ``k`` is ignored by the other conditions.
    """
    theta = validate_effective_angle(theta)
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    if condition == "k_coverage" and k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k!r}")
    if condition == "necessary":
        partition = necessary_partition(theta)
    elif condition == "sufficient":
        partition = sufficient_partition(theta)
    elif condition not in ("exact", "k_coverage"):
        raise InvalidParameterError(
            "condition must be 'exact', 'necessary', 'sufficient' or "
            f"'k_coverage', got {condition!r}"
        )
    m = points.shape[0]
    rows, directions = _covering_pairs(fleet, points, kernel)
    if condition == "k_coverage":
        return _counts(rows, m) >= k
    if condition == "exact":
        counts, gaps = _viewed_counts_and_gaps(rows, directions, m)
        return (counts >= 1) & (gaps <= 2.0 * theta + 1e-12)
    result = np.ones(m, dtype=bool)
    for sector in partition.sectors:
        # A coincident pair's nan direction compares false: never in a sector.
        rel = np.mod(directions - sector.start, TWO_PI)
        result &= _counts(rows[rel <= sector.extent + 1e-12], m) > 0
    return result


def coverage_fraction_fast(
    fleet: SensorFleet,
    points: np.ndarray,
    theta: float,
    condition: str = "exact",
    k: int = 1,
    kernel: str = "auto",
) -> float:
    """Vectorised counterpart of the scalar coverage-fraction helpers."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    if points.shape[0] == 0:
        raise InvalidParameterError("need at least one evaluation point")
    mask = condition_mask(fleet, points, theta, condition, k=k, kernel=kernel)
    return float(mask.mean())
