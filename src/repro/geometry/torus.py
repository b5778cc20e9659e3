"""The operational region: a unit square, optionally treated as a torus.

The paper deploys sensors in a unit square that "is supposed to be a
torus so that we can ignore the boundary effect" (Section II-A).
:class:`Region` encapsulates that choice: all displacement and distance
computations go through it, so a single flag switches between toroidal
wrap-around and a plain bounded square (the boundary-effect ablation
called out in DESIGN.md).

Coordinates live in ``[0, side)`` in each dimension; the default side
length is 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from repro.errors import InvalidParameterError
from repro.geometry.angles import normalize_angle

__all__ = ["Point", "Region", "UNIT_SQUARE", "UNIT_TORUS"]

Point = Tuple[float, float]


@dataclass(frozen=True)
class Region:
    """A square operational region of side ``side``.

    Parameters
    ----------
    side:
        Side length of the square; must be positive.  The paper uses a
        unit square (``side == 1``), the default.
    torus:
        When true (default, matching the paper) opposite edges are
        identified and displacements wrap; when false the region is a
        plain bounded square and no wrapping occurs.
    """

    side: float = 1.0
    torus: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.side) and self.side > 0):
            raise InvalidParameterError(f"region side must be positive, got {self.side!r}")

    @property
    def area(self) -> float:
        return self.side * self.side

    # -- scalar operations -------------------------------------------------

    def wrap_point(self, point: Point) -> Point:
        """Map a point into the canonical square ``[0, side)^2``."""
        if not self.torus:
            return (float(point[0]), float(point[1]))
        return (point[0] % self.side, point[1] % self.side)

    def contains(self, point: Point) -> bool:
        """Whether a point lies in the canonical square."""
        return 0.0 <= point[0] < self.side and 0.0 <= point[1] < self.side

    def displacement(self, source: Point, target: Point) -> Point:
        """Shortest displacement vector from ``source`` to ``target``.

        On the torus each component is wrapped into
        ``[-side/2, side/2)``; on the bounded square it is the plain
        difference.
        """
        dx = target[0] - source[0]
        dy = target[1] - source[1]
        if self.torus:
            half = 0.5 * self.side
            dx = (dx + half) % self.side - half
            dy = (dy + half) % self.side - half
        return (dx, dy)

    def distance(self, source: Point, target: Point) -> float:
        """Shortest distance between two points in the region."""
        dx, dy = self.displacement(source, target)
        return math.hypot(dx, dy)

    def direction(self, source: Point, target: Point) -> float:
        """Heading of the shortest path from ``source`` to ``target``.

        Raises :class:`~repro.errors.InvalidParameterError` for
        coincident points.
        """
        dx, dy = self.displacement(source, target)
        if dx == 0.0 and dy == 0.0:  # fvlint: disable=FV004 (exact zero-displacement sentinel)
            raise InvalidParameterError(
                "direction between coincident points is undefined"
            )
        return normalize_angle(math.atan2(dy, dx))

    # -- vectorised operations ----------------------------------------------

    def wrap_points(self, points: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`wrap_point` for an ``(n, 2)`` array."""
        points = np.asarray(points, dtype=float)
        if not self.torus:
            return points
        return np.mod(points, self.side)

    def displacements(
        self, source: Union[Point, np.ndarray], targets: np.ndarray
    ) -> np.ndarray:
        """Shortest displacement vectors from ``source`` to ``targets``.

        Parameters
        ----------
        source:
            A single ``(x, y)`` point, or an array of points that
            broadcasts against ``targets``: aligned ``(n, 2)`` arrays
            give one displacement per row, and an ``(m, 1, 2)`` source
            against ``(n, 2)`` targets gives every pair.
        targets:
            An ``(n, 2)`` array of points.

        Returns
        -------
        The broadcast ``(..., 2)`` array of displacement vectors.
        """
        targets = np.asarray(targets, dtype=float)
        delta = targets - np.asarray(source, dtype=float)
        if self.torus:
            half = 0.5 * self.side
            delta = np.mod(delta + half, self.side) - half
        return delta

    def distances(self, source: Point, targets: np.ndarray) -> np.ndarray:
        """Shortest distances from one point to many."""
        delta = self.displacements(source, targets)
        return np.hypot(delta[:, 0], delta[:, 1])

    def pairwise_displacements(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """All displacement vectors between two point sets.

        Returns an ``(n_sources, n_targets, 2)`` array; use sparingly —
        memory grows as the product of the set sizes.
        """
        sources = np.asarray(sources, dtype=float)
        return self.displacements(sources[:, None, :], targets)


#: The paper's operational region: the unit torus.
UNIT_TORUS = Region(side=1.0, torus=True)

#: The unit square without wrap-around, for boundary-effect ablations.
UNIT_SQUARE = Region(side=1.0, torus=False)
