"""A toroidal cell index of boxes: candidate pruning for the sparse kernel.

The sparse coverage kernel in :mod:`repro.core.batch` asks, for many
points at once, "which sensors could possibly cover this point?".
:class:`ToroidalCellIndex` answers it over a uniform grid of cells.
Each member is an anchor point plus an axis-aligned box around it, and
the member is listed in every cell its box overlaps: on each axis, the
cells from ``⌊low/c⌋`` to ``⌊high/c⌋`` for the box's ends ``low`` and
``high`` and cell side ``c``, wrapping across the torus seam when the
region wraps.  A plain point is the zero-size box.  The fleet lists
each sensor under its own sector's bounding box, so the cell a point
sits in already holds every sensor whose sector may contain it, and
the kernel queries at radius 0.

One helper, :meth:`ToroidalCellIndex._cell_ranges`, turns boxes into
cell ranges for members and queries alike.  All float-safety slack
sits on the member side: a member's range is widened by
``_RANGE_SLACK`` cells at both ends, and a query reads exactly the
cells its own box (the square of half-side ``radius`` around the
point) reaches, so a caller can query at its exact radius and still
never lose a member its own exact test would keep.

Storage is a CSR-style cell layout built with vectorised numpy ops: the
(member, cell) entries are sorted stably by cell id into ``_members``,
so members ascend within each cell, and ``_cell_starts`` holds the
prefix offsets of each cell's slice.  Its one query,
:meth:`ToroidalCellIndex.query_radius_batch`, gathers the candidates of
*many* points at once with no per-point Python loops.  The cell grid is
capped at ``O(sqrt(n))`` cells per side, so the cell table is ``O(n)``
whatever cell size is asked for; the entries are ``O(n)`` times the
cells one box overlaps.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.geometry.torus import Region, UNIT_TORUS

__all__ = ["ToroidalCellIndex"]

#: Cells per side are capped at this many per ``sqrt(n)`` indexed
#: points (plus one), so the cell table holds about four cells per point.
_CELLS_PER_SQRT_POINT = 2

#: Slack, in cells, that widens both ends of every member's cell range:
#: far above the rounding error of a cell coordinate or a wrapped
#: distance, far below one cell.
_RANGE_SLACK = 1e-9

#: Cell ids up to this count are sorted as ``uint16``, which numpy's
#: stable sort orders by radix sort; larger grids fall back to int64.
_RADIX_CELLS = 1 << 16


class ToroidalCellIndex:
    """Uniform-cell spatial index of boxes over a square (toroidal) region.

    Parameters
    ----------
    points:
        ``(n, 2)`` array of member anchor points (wrapped into the
        region).
    cell_size:
        Side of each square cell.  Queries with a radius up to any value
        are supported; the cell size only affects performance.  The
        index never uses more than ``2 * isqrt(n) + 1`` cells per side,
        so a smaller ``cell_size`` is coarsened.
    region:
        The geometry provider (wrapping behaviour comes from it).
    extents:
        Optional ``(n, 4)`` finite box offsets ``(left, bottom, right,
        top)`` of each member from its anchor, with ``left <= right``
        and ``bottom <= top``; ``None`` indexes the anchors as
        zero-size boxes.  On a torus the box is read modulo the region,
        so a box one side wide or wider spans its whole axis.
    """

    def __init__(
        self,
        points: np.ndarray,
        cell_size: float,
        region: Region = UNIT_TORUS,
        extents: Optional[np.ndarray] = None,
    ) -> None:
        if not (math.isfinite(cell_size) and cell_size > 0):
            raise InvalidParameterError(f"cell_size must be positive, got {cell_size!r}")
        self.region = region
        self._points = region.wrap_points(np.asarray(points, dtype=float).reshape(-1, 2))
        n = len(self)
        if extents is None:
            extents = np.zeros((n, 4))
        extents = np.asarray(extents, dtype=float).reshape(-1, 4)
        if extents.shape[0] != n:
            raise InvalidParameterError("extents must hold one box per point")
        if not (np.isfinite(self._points).all() and np.isfinite(extents).all()):
            raise InvalidParameterError("points and extents must be finite")
        if (extents[:, :2] > extents[:, 2:]).any():
            raise InvalidParameterError("extents must have left <= right and bottom <= top")
        low = self._points + extents[:, :2]
        high = self._points + extents[:, 2:]
        if region.torus:
            # Read modulo the region: each box starts within the first
            # turn, and one turn wide it already spans every cell.
            span = np.minimum(high - low, region.side)
            low = np.mod(low, region.side)
            high = low + span
        # Never more cells per side than points would justify, and at least 1.
        max_cells = _CELLS_PER_SQRT_POINT * math.isqrt(n) + 1
        self._cells_per_side = max(1, int(min(region.side / cell_size, max_cells)))
        self._cell_size = region.side / self._cells_per_side
        cs = self._cells_per_side
        first, width = self._cell_ranges(low, high, _RANGE_SLACK)
        cells, inside = self._range_cells(first, width)
        cells = cells[inside]
        # Entries come member by member, so a stable sort by cell id
        # keeps the members of each cell ascending.
        member = np.repeat(np.arange(n, dtype=np.intp), width[:, 0] * width[:, 1])
        key_type = np.uint16 if cs * cs <= _RADIX_CELLS else np.int64
        self._members = member[np.argsort(cells.astype(key_type), kind="stable")]
        counts = np.bincount(cells, minlength=cs * cs)
        self._cell_starts = np.zeros(cs * cs + 1, dtype=np.intp)
        np.cumsum(counts, out=self._cell_starts[1:])

    def __len__(self) -> int:
        return self._points.shape[0]

    @property
    def points(self) -> np.ndarray:
        view = self._points.view()
        view.flags.writeable = False
        return view

    def _cell_ranges(
        self, low: np.ndarray, high: np.ndarray, slack: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-box, per-axis cell ranges of the boxes ``[low, high]``.

        Returns ``(first, width)``, both ``(m, 2)``: on each axis, cells
        ``first + k`` for ``0 <= k < width``, modulo the grid, are the
        cells from ``⌊low/c⌋`` to ``⌊high/c⌋`` with both ends widened
        by ``slack`` cells.  On a torus a range of a whole turn or more
        is the whole axis.  On a bounded square both ends are clipped
        into the grid, the same for members and queries, so a member
        outside the square stays in the edge cell a query outside it
        reads.
        """
        cs = self._cells_per_side
        low = low / self._cell_size - slack
        high = high / self._cell_size + slack
        if not self.region.torus:
            low = np.clip(low, 0, cs - 1)
            high = np.clip(high, 0, cs - 1)
        first = np.floor(low).astype(np.intp)
        width = np.minimum(np.floor(high).astype(np.intp) - first + 1, cs)
        return first, width

    def _range_cells(
        self, first: np.ndarray, width: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Flattened cell ids of each box's range block, and which count.

        Returns two ``(m, k * k)`` arrays for the widest range ``k``:
        the cell ids of each box's block, row-major over its x and y
        cells, and a mask of those inside the box's own range.  Within
        a box the cells inside are distinct, because the wrapped cells
        of a range of at most ``cs`` cells are.
        """
        cs = self._cells_per_side
        k = np.arange(int(width.max(initial=1)), dtype=np.intp)
        axis_cells = (first[:, :, None] + k) % cs
        inside = k < width[:, :, None]
        cells = axis_cells[:, 0, :, None] * cs + axis_cells[:, 1, None, :]
        valid = inside[:, 0, :, None] & inside[:, 1, None, :]
        shape = (first.shape[0], k.shape[0] ** 2)
        return cells.reshape(shape), valid.reshape(shape)

    def _candidates(self, points: np.ndarray, radius: float) -> Tuple[np.ndarray, np.ndarray]:
        """Members of the cells each query's square can reach.

        ``points`` are wrapped query points.  Returns the candidate
        count per point and the concatenated member ids, point by point
        in cell order.  A box member listed in several of the cells one
        query reads appears once per cell.
        """
        if self.region.torus:
            # Beyond one side the range already spans every cell.
            radius = min(radius, self.region.side)
        first, width = self._cell_ranges(points - radius, points + radius, 0.0)
        cells, inside = self._range_cells(first, width)
        starts = self._cell_starts[cells]
        lengths = np.where(inside, self._cell_starts[cells + 1] - starts, 0)
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

        Row ``i`` holds the members of every cell that the square of
        half-side ``radius`` around ``points[i]`` reaches: a superset of
        the members whose box (wrapped on a torus, clipped into the
        grid on a bounded square) comes within ``radius`` of the point
        on both axes.  At ``radius=0`` each point reads only the cell it
        sits in, which lists every member whose box contains it.  The
        caller refines the row with its own exact test.

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
            ``(nnz,)`` intp member ids; row ``i`` occupies
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
        if radius > 0:
            # Several cells per row: order each row and drop the
            # members listed in more than one of its cells.  One sort
            # of the key row * n + id does both, because rows already
            # ascend, so each key stays inside its row's slice.
            rows = np.repeat(np.arange(m, dtype=np.intp), per_point)
            keys = rows * n + cand
            keys.sort()
            first = np.ones(keys.shape[0], dtype=bool)
            np.not_equal(keys[1:], keys[:-1], out=first[1:])
            rows = rows[first]
            cand = keys[first] - rows * n
            per_point = np.bincount(rows, minlength=m)
        # At radius 0 each row is one cell's slice: ascending and
        # duplicate-free as stored.
        indptr = np.zeros(m + 1, dtype=np.intp)
        np.cumsum(per_point, out=indptr[1:])
        return indptr, cand
