"""A toroidal cell index: candidate pruning for the sparse kernel.

The sparse coverage kernel in :mod:`repro.core.batch` asks, for many
points at once, "which sensors could possibly cover this point?" — i.e.
which sensor apexes lie within the largest sensing radius of the point.
:class:`ToroidalCellIndex` buckets points into a uniform grid of cells
over the region and answers with the members of the cells the query
disk can reach: on each axis, the cells from ``⌊(x − R)/c⌋`` to
``⌊(x + R)/c⌋`` for a query coordinate ``x``, radius ``R`` and cell side
``c``, wrapping across the torus seam when the region wraps.  One
helper, :meth:`ToroidalCellIndex._cell_ranges`, computes those ranges
for every query and owns the float-safety slack, so a caller can query
at its exact radius and still never lose a point its own exact distance
test would keep.

Storage is a CSR-style cell layout built with vectorised numpy ops: the
indexed points are argsorted by flattened cell id into ``_members``, and
``_cell_starts`` holds the prefix offsets of each cell's slice.  Its one
query, :meth:`ToroidalCellIndex.query_radius_batch`, gathers the
candidates of *many* points at once with no per-point Python loops.
The cell grid is capped at ``O(sqrt(n))`` cells per side, so the
index's memory is ``O(n)`` whatever cell size is asked for.

For the sensor counts the paper studies (``n`` up to tens of thousands,
radii of order ``sqrt(log n / n)``), this turns per-point candidate
scans from ``O(n)`` into ``O(1)`` expected; with cells of half the
query radius the scanned cells cover about twice the query disk.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.geometry.torus import Region, UNIT_TORUS

__all__ = ["ToroidalCellIndex"]

#: Cells per side are capped at this many per ``sqrt(n)`` indexed
#: points (plus one), so the cell table holds about four cells per point.
_CELLS_PER_SQRT_POINT = 2

#: Slack, in cells, that widens both ends of every query's cell range:
#: far above the rounding error of a cell coordinate or a wrapped
#: distance, far below one cell.
_RANGE_SLACK = 1e-9


class ToroidalCellIndex:
    """Uniform-cell spatial index over a square (toroidal) region.

    Parameters
    ----------
    points:
        ``(n, 2)`` array of indexed points (wrapped into the region).
    cell_size:
        Side of each square cell.  Queries with a radius up to any value
        are supported; the cell size only affects performance.  A good
        default is half the typical query radius.  The index never uses
        more than ``2 * isqrt(n) + 1`` cells per side, so a smaller
        ``cell_size`` is coarsened.
    region:
        The geometry provider (wrapping behaviour comes from it).
    """

    def __init__(
        self,
        points: np.ndarray,
        cell_size: float,
        region: Region = UNIT_TORUS,
    ) -> None:
        if not (math.isfinite(cell_size) and cell_size > 0):
            raise InvalidParameterError(f"cell_size must be positive, got {cell_size!r}")
        self.region = region
        self._points = region.wrap_points(np.asarray(points, dtype=float).reshape(-1, 2))
        # Never more cells per side than points would justify, and at least 1.
        max_cells = _CELLS_PER_SQRT_POINT * math.isqrt(len(self)) + 1
        self._cells_per_side = max(1, int(min(region.side / cell_size, max_cells)))
        self._cell_size = region.side / self._cells_per_side
        cs = self._cells_per_side
        cx, cy = self._cell_coords(self._points)
        cell_ids = cx * cs + cy
        # CSR layout: point indices argsorted by cell id, plus per-cell
        # prefix offsets.  The stable sort keeps members of a cell in
        # ascending point-index order.
        self._members = np.argsort(cell_ids, kind="stable").astype(np.intp)
        counts = np.bincount(cell_ids, minlength=cs * cs)
        self._cell_starts = np.zeros(cs * cs + 1, dtype=np.intp)
        np.cumsum(counts, out=self._cell_starts[1:])

    def __len__(self) -> int:
        return self._points.shape[0]

    @property
    def points(self) -> np.ndarray:
        view = self._points.view()
        view.flags.writeable = False
        return view

    def _cell_coords(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised cell coordinates, clipped into the cell grid.

        Clipping guards points exactly on the far edge (torus) and
        out-of-region points (bounded square), matching the scalar
        guard the dict-bucket implementation applied per point.
        """
        cs = self._cells_per_side
        cx = np.clip((points[:, 0] / self._cell_size).astype(np.intp), 0, cs - 1)
        cy = np.clip((points[:, 1] / self._cell_size).astype(np.intp), 0, cs - 1)
        return cx, cy

    def _cell_ranges(self, points: np.ndarray, radius: float) -> Tuple[np.ndarray, np.ndarray]:
        """Per-point, per-axis cell ranges reaching ``radius``.

        Returns ``(first, width)``, both ``(m, 2)``: on each axis, cells
        ``first + k`` for ``0 <= k < width``, modulo the grid, hold
        every member whose coordinate lies within ``radius`` of the
        point's.  The range runs from ``⌊(x − R)/c⌋`` to ``⌊(x + R)/c⌋``,
        each end widened by ``_RANGE_SLACK`` cells — the only
        float-safety slack on the query path.  On a torus a range of a
        whole turn or more is the whole axis.  On a bounded square both
        ends are clipped into the grid exactly as :meth:`_cell_coords`
        clips members, so a member bucketed into an edge cell from
        outside the square stays reachable.
        """
        cs = self._cells_per_side
        if self.region.torus:
            # Beyond one side the range already spans every cell.
            radius = min(radius, self.region.side)
        low = (points - radius) / self._cell_size - _RANGE_SLACK
        high = (points + radius) / self._cell_size + _RANGE_SLACK
        if not self.region.torus:
            low = np.clip(low, 0, cs - 1)
            high = np.clip(high, 0, cs - 1)
        first = np.floor(low).astype(np.intp)
        width = np.minimum(np.floor(high).astype(np.intp) - first + 1, cs)
        return first, width

    def _candidates(self, points: np.ndarray, radius: float) -> Tuple[np.ndarray, np.ndarray]:
        """Members of the cells each query disk can reach.

        ``points`` are wrapped query points.  Returns the candidate
        count per point and the concatenated member ids, point by point
        in cell order; within one point they are distinct, because the
        wrapped cells of a range of at most ``cs`` cells are.
        """
        m = points.shape[0]
        cs = self._cells_per_side
        first, width = self._cell_ranges(points, radius)
        k = np.arange(int(width.max()), dtype=np.intp)
        axis_cells = (first[:, :, None] + k) % cs
        inside = k < width[:, :, None]
        # (m, k, k) flattened cell ids of each point's range block.
        cells = (axis_cells[:, 0, :, None] * cs + axis_cells[:, 1, None, :]).reshape(m, -1)
        valid = (inside[:, 0, :, None] & inside[:, 1, None, :]).reshape(m, -1)
        starts = self._cell_starts[cells]
        lengths = np.where(valid, self._cell_starts[cells + 1] - starts, 0)
        flat_starts = starts.ravel()
        flat_lengths = lengths.ravel()
        ends = np.cumsum(flat_lengths)
        # Position j of the output reads _members at
        # starts[cell of j] + (j - begin of that cell's output slice).
        take = np.arange(int(ends[-1]), dtype=np.intp) + np.repeat(
            flat_starts - (ends - flat_lengths), flat_lengths
        )
        return lengths.sum(axis=1), self._members[take]

    def query_radius_batch(
        self, points: np.ndarray, radius: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Candidates within ``radius`` of many points at once, CSR-style.

        Row ``i`` holds the members of every cell the disk of ``radius``
        around ``points[i]`` can reach: a superset of the indexed points
        within ``radius`` under the region's wrapping, which the caller
        refines with its own exact test.

        Parameters
        ----------
        points:
            ``(m, 2)`` array of query points.
        radius:
            Query radius (one value for all points).

        Returns
        -------
        indptr:
            ``(m + 1,)`` intp prefix offsets.
        indices:
            ``(nnz,)`` intp indexed-point ids; row ``i`` occupies
            ``indices[indptr[i]:indptr[i + 1]]``, ascending within the
            row and duplicate-free.

        The whole computation is vectorised over points *and* candidate
        cells — no per-point Python loops.
        """
        if radius < 0:
            raise InvalidParameterError(f"radius must be non-negative, got {radius!r}")
        pts = self.region.wrap_points(np.asarray(points, dtype=float).reshape(-1, 2))
        m = pts.shape[0]
        n = len(self)
        if m == 0 or n == 0:
            return np.zeros(m + 1, dtype=np.intp), np.empty(0, dtype=np.intp)
        per_point, cand = self._candidates(pts, radius)
        rows = np.repeat(np.arange(m, dtype=np.intp), per_point)
        # One sort of the key row * n + id orders every row's ids.  Rows
        # already ascend, so each key stays inside its row's slice, and
        # the keys are distinct, so any sort kind gives the same order.
        offsets = rows * n
        keys = offsets + cand
        keys.sort()
        cand = keys - offsets
        indptr = np.zeros(m + 1, dtype=np.intp)
        np.cumsum(per_point, out=indptr[1:])
        return indptr, cand
