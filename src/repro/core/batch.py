"""Vectorised batch evaluation of coverage over many points.

The scalar path (:meth:`SensorFleet.covering_directions` per point) is
the readable reference; this module evaluates *all* points of a grid
against *all* sensors with numpy broadcasting, chunked to bound memory.
Results are bit-identical to the scalar path (property-tested), and the
speedup makes the grid-level experiments (PHASE, GAP, BARRIER) an order
of magnitude cheaper.

The core object is the boolean *covering matrix* ``C[i, j]`` — does
sensor ``j`` cover point ``i`` — together with the per-pair viewed
directions, from which every condition (exact gap test, sector
occupancy, k-coverage) is evaluated without further geometry.

Two evaluation paths produce that object. The *dense* path broadcasts
every point against every sensor. The *sparse* path prunes candidates
through :meth:`ToroidalCellIndex.query_radius_batch` and evaluates only
(point, sensor) pairs whose cells intersect the largest sensing disk —
in the paper's regime (``r ~ sqrt(log n / n)``) that is ``O(log n)``
pairs per point instead of ``n``. The sparse path applies the exact
same float formulas pairwise and feeds the same gap reduction, so both
paths are bit-identical (property-tested); dispatch between them goes
through :func:`repro.core.kernels.resolve_kernel` via the ``kernel=``
argument every public kernel accepts.
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
    positions = fleet.positions
    orientations = fleet.orientations
    radii = fleet.radii
    half_angles = 0.5 * fleet.angles
    region = fleet.region
    rows = _chunk_rows(m, n)
    for start in range(0, m, rows):
        stop = min(m, start + rows)
        block = points[start:stop]
        # delta[i, j] = S_j - P_i (wrapped): direction P -> S.
        delta = region.pairwise_displacements(block, positions)
        dist_sq = delta[..., 0] ** 2 + delta[..., 1] ** 2
        within = dist_sq <= radii[None, :] ** 2
        heading_ps = np.arctan2(delta[..., 1], delta[..., 0])
        # Sensor-to-point bearing is the opposite heading.
        bearing_sp = heading_ps + math.pi
        offset = np.abs(
            np.mod(bearing_sp - orientations[None, :] + math.pi, TWO_PI) - math.pi
        )
        in_wedge = offset <= half_angles[None, :] + 1e-12
        coincident = dist_sq <= 1e-24  # apex tolerance, mirroring the scalar path
        covers[start:stop] = within & (in_wedge | coincident)
        block_dirs = np.mod(heading_ps, TWO_PI)
        block_dirs[coincident] = np.nan
        directions[start:stop] = block_dirs
    return covers, directions


@dataclass(frozen=True)
class SparseCovering:
    """CSR covering data over candidate (point, sensor) pairs only.

    The sparse analogue of :func:`covering_and_directions`: row ``i``
    of the CSR structure holds point ``i``'s candidate sensors (cells
    intersecting the largest sensing disk — a superset of its covering
    sensors), with the covering verdict and viewed direction evaluated
    per pair by the exact dense formulas.  Pairs outside the candidate
    set are guaranteed non-covering, so every per-point reduction over
    this structure matches its dense counterpart bit for bit.
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

    Candidates come from the fleet's cell index (built on demand and
    cached on the fleet) queried at the largest sensing radius with no
    distance refinement — a cell-level superset, nudged up one ulp so
    borderline float comparisons can never lose a covering pair.  Each
    candidate pair is then evaluated with the same displacement, radius,
    wedge and coincidence formulas as the dense path, chunked to bound
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
    reach_radius = float(np.nextafter(fleet.max_radius, np.inf))
    with span("sparse_pairs", points=m, sensors=n):
        indptr, sensors = index.query_radius_batch(points, reach_radius, refine=False)
        nnz = sensors.shape[0]
        rows = np.repeat(np.arange(m, dtype=np.intp), np.diff(indptr))
        covers = np.empty(nnz, dtype=bool)
        directions = np.empty(nnz, dtype=float)
        positions = fleet.positions
        orientations = fleet.orientations
        radii = fleet.radii
        half_angles = 0.5 * fleet.angles
        region = fleet.region
        for start in range(0, nnz, _MAX_PAIRS_PER_CHUNK):
            sl = slice(start, min(nnz, start + _MAX_PAIRS_PER_CHUNK))
            s = sensors[sl]
            p = rows[sl]
            delta = region.elementwise_displacements(points[p], positions[s])
            dist_sq = delta[:, 0] ** 2 + delta[:, 1] ** 2
            within = dist_sq <= radii[s] ** 2
            heading_ps = np.arctan2(delta[:, 1], delta[:, 0])
            bearing_sp = heading_ps + math.pi
            offset = np.abs(
                np.mod(bearing_sp - orientations[s] + math.pi, TWO_PI) - math.pi
            )
            in_wedge = offset <= half_angles[s] + 1e-12
            coincident = dist_sq <= 1e-24  # apex tolerance, as in the dense path
            covers[sl] = within & (in_wedge | coincident)
            pair_dirs = np.mod(heading_ps, TWO_PI)
            pair_dirs[coincident] = np.nan
            directions[sl] = pair_dirs
    return SparseCovering(
        indptr=indptr, sensors=sensors, covers=covers, directions=directions
    )


def _resolve_and_count(fleet: SensorFleet, num_points: int, kernel: str) -> str:
    """Resolve the kernel choice and record it in the obs counters."""
    resolved = resolve_kernel(fleet, num_points, kernel)
    registry = active_metrics()
    if registry is not None:
        registry.inc(f"kernel_{resolved}")
    return resolved


def _sparse_valid_padded(sp: SparseCovering) -> Tuple[np.ndarray, np.ndarray]:
    """Per-point counts and inf-padded sorted direction rows.

    Packs each point's valid (covering, non-coincident) directions into
    a ``(m, width)`` matrix shaped exactly like the dense path's sorted
    masked rows — the same value set in the same ascending order, just
    narrower — so :func:`_max_gap_rows` runs unchanged on it and the
    gaps come out bit-identical.
    """
    m = sp.num_points
    valid = sp.covers & ~np.isnan(sp.directions)
    rows = sp.rows()[valid]
    dirs = sp.directions[valid]
    # bincount/lexsort are the sparse path's core and have no array-API
    # standard form: a port to another array library must supply them.
    counts = np.bincount(rows, minlength=m)  # fvlint: disable=FV009 (see above)
    width = int(counts.max()) if m > 0 else 0
    padded = np.full((m, width), np.inf)
    if dirs.size:
        order = np.lexsort((dirs, rows))  # fvlint: disable=FV009 (see above)
        rows_sorted = rows[order]
        starts = np.zeros(m, dtype=np.intp)
        np.cumsum(counts[:-1], out=starts[1:])
        slots = np.arange(rows_sorted.size, dtype=np.intp) - starts[rows_sorted]
        padded[rows_sorted, slots] = dirs[order]
    return counts, padded


def coverage_counts(
    fleet: SensorFleet, points: np.ndarray, kernel: str = "auto"
) -> np.ndarray:
    """Vectorised per-point covering-sensor counts."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    resolved = _resolve_and_count(fleet, points.shape[0], kernel)
    if resolved == "sparse":
        sp = sparse_covering_pairs(fleet, points)
        return np.bincount(  # fvlint: disable=FV009 (no array-API bincount)
            sp.rows()[sp.covers], minlength=sp.num_points
        )
    covers, _ = covering_and_directions(fleet, points)
    return covers.sum(axis=1)


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


def _max_gaps_impl(fleet: SensorFleet, points: np.ndarray, resolved: str) -> np.ndarray:
    """Gap computation for an already-resolved kernel choice."""
    if resolved == "sparse":
        sp = sparse_covering_pairs(fleet, points)
        counts, padded = _sparse_valid_padded(sp)
        return _max_gap_rows(padded, counts)
    covers, directions = covering_and_directions(fleet, points)
    masked = np.where(covers & ~np.isnan(directions), directions, np.inf)
    masked.sort(axis=1)
    counts = (covers & ~np.isnan(directions)).sum(axis=1)
    return _max_gap_rows(masked, counts)


def max_gaps(
    fleet: SensorFleet, points: np.ndarray, kernel: str = "auto"
) -> np.ndarray:
    """Largest circular gap of covering viewed directions per point.

    Points with fewer than two covering sensors get ``2*pi`` (a single
    sensor leaves the opposite direction unsafe for any
    ``theta < pi``; the ``<=`` comparison handles ``theta = pi``).
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    resolved = _resolve_and_count(fleet, points.shape[0], kernel)
    return _max_gaps_impl(fleet, points, resolved)


def _full_view_impl(
    fleet: SensorFleet, points: np.ndarray, theta: float, resolved: str
) -> np.ndarray:
    """Full-view verdicts for an already-resolved kernel choice."""
    if resolved == "sparse":
        sp = sparse_covering_pairs(fleet, points)
        counts, padded = _sparse_valid_padded(sp)
        gaps = _max_gap_rows(padded, counts)
        return (counts >= 1) & (gaps <= 2.0 * theta + 1e-12)
    covers, directions = covering_and_directions(fleet, points)
    valid = covers & ~np.isnan(directions)
    counts = valid.sum(axis=1)
    masked = np.where(valid, directions, np.inf)
    masked.sort(axis=1)
    gaps = _max_gap_rows(masked, counts)
    return (counts >= 1) & (gaps <= 2.0 * theta + 1e-12)


def full_view_mask(
    fleet: SensorFleet, points: np.ndarray, theta: float, kernel: str = "auto"
) -> np.ndarray:
    """Exact full-view verdict for every point, vectorised.

    Equivalent to calling
    :func:`repro.core.full_view.point_is_full_view_covered` per point.
    """
    theta = validate_effective_angle(theta)
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    resolved = _resolve_and_count(fleet, points.shape[0], kernel)
    return _full_view_impl(fleet, points, theta, resolved)


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
    elif condition in ("exact", "k_coverage"):
        partition = None
    else:
        raise InvalidParameterError(
            "condition must be 'exact', 'necessary', 'sufficient' or "
            f"'k_coverage', got {condition!r}"
        )
    resolved = _resolve_and_count(fleet, points.shape[0], kernel)
    if condition == "exact":
        return _full_view_impl(fleet, points, theta, resolved)
    if condition == "k_coverage":
        if resolved == "sparse":
            sp = sparse_covering_pairs(fleet, points)
            return (
                np.bincount(  # fvlint: disable=FV009 (no array-API bincount)
                    sp.rows()[sp.covers], minlength=sp.num_points
                )
                >= k
            )
        covers, _ = covering_and_directions(fleet, points)
        return covers.sum(axis=1) >= k
    if resolved == "sparse":
        sp = sparse_covering_pairs(fleet, points)
        valid = sp.covers & ~np.isnan(sp.directions)
        rows = sp.rows()
        m = sp.num_points
        result = np.ones(m, dtype=bool)
        for sector in partition.sectors:
            rel = np.mod(sp.directions - sector.start, TWO_PI)
            in_sector = valid & (rel <= sector.extent + 1e-12)
            result &= (  # fvlint: disable=FV009 (no array-API bincount)
                np.bincount(rows[in_sector], minlength=m) > 0
            )
        return result
    covers, directions = covering_and_directions(fleet, points)
    valid = covers & ~np.isnan(directions)
    m = covers.shape[0]
    result = np.ones(m, dtype=bool)
    for sector in partition.sectors:
        rel = np.mod(directions - sector.start, TWO_PI)
        in_sector = valid & (rel <= sector.extent + 1e-12)
        result &= in_sector.any(axis=1)
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
