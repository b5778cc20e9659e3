"""Kernel dispatch policy: dense vs sparse coverage evaluation.

The batch kernels in :mod:`repro.core.batch` come in two bit-identical
flavours: the *dense* path materialises the full ``(points, sensors)``
covering matrix, while the *sparse* path evaluates only candidate pairs
pruned through :meth:`ToroidalCellIndex.query_radius_batch`: the
sensors whose own sector's bounding box overlaps the point's cell,
about 2.5 times the sensors that cover it.  Which one wins depends on
candidate density: in the paper's regime (``r ~ sqrt(log n / n)``)
each point sees only ``O(log n)`` sensors and sparse is an order of
magnitude cheaper, but for small fleets the dense path's one broadcast
block wins.

Every public kernel routes through :func:`resolve_kernel`, which picks
the path by a density heuristic.  An explicit ``"dense"``/``"sparse"``
(the ``kernel=`` argument of the batch kernels, or the
:class:`KernelPolicy` estimator tasks embed) pins one path; tests and
benchmarks use that to compare the two, since no result depends on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import InvalidParameterError
from repro.sensors.fleet import SensorFleet

__all__ = [
    "KERNEL_CHOICES",
    "KernelPolicy",
    "resolve_kernel",
]

#: The accepted values for every ``kernel=`` argument.
KERNEL_CHOICES = ("auto", "dense", "sparse")

#: Below this many (point, sensor) pairs the dense path is always used:
#: candidate pruning cannot beat one small broadcast block.
_SPARSE_MIN_PAIRS = 16_384

#: Auto picks sparse only while a sensing disk covers at most this
#: fraction of the region.  Measured at the cutoff (r ~ 0.28 on the
#: unit torus), sparse wins 4.1x for phi = pi/2 cameras but only 1.7x
#: for phi = 2*pi disks, which fall under 1.4x near a third of the
#: region and cross dense by half of it (DESIGN.md §8); the cutoff
#: does not see phi, so it keeps that margin for disks.
_SPARSE_DENSITY_CUTOFF = 0.25


def _validate_kernel(kernel: str) -> str:
    if kernel not in KERNEL_CHOICES:
        raise InvalidParameterError(
            f"kernel must be one of {KERNEL_CHOICES}, got {kernel!r}"
        )
    return kernel


@dataclass(frozen=True)
class KernelPolicy:
    """Picklable kernel preference embedded in estimator tasks.

    ``kernel`` holds the requested evaluation path (``"auto"`` defers
    the choice to :func:`resolve_kernel` at evaluation time, per fleet
    and point count).  The estimators always leave it at ``"auto"``;
    tests and benchmarks replace it on a task to pin one path.  Both
    paths are bit-identical, so it never changes results.
    """

    kernel: str = "auto"

    def __post_init__(self) -> None:
        _validate_kernel(self.kernel)


def resolve_kernel(fleet: SensorFleet, num_points: int, kernel: str = "auto") -> str:
    """Pick ``"dense"`` or ``"sparse"`` for one kernel evaluation.

    An explicit ``kernel="dense"``/``"sparse"`` is honoured as-is.
    ``"auto"`` applies the density heuristic: sparse when the workload
    is large enough (``points * sensors >= 16384`` pairs) and the
    expected candidate density ``pi * r_max**2 / area`` is at most 25%.
    """
    _validate_kernel(kernel)
    if kernel != "auto":
        return kernel
    n = len(fleet)
    if n == 0 or num_points * n < _SPARSE_MIN_PAIRS:
        return "dense"
    density = math.pi * fleet.max_radius**2 / fleet.region.area
    return "sparse" if density <= _SPARSE_DENSITY_CUTOFF else "dense"
