"""Geometric substrate for camera-sensor coverage analysis.

This subpackage provides every geometric primitive the coverage theory
is built on:

- :mod:`repro.geometry.angles` — arithmetic on the circle ``S^1``
  (normalisation, signed/unsigned differences, containment in arcs).
- :mod:`repro.geometry.vec` — light-weight 2-D vector helpers backed by
  numpy, plus polar conversions.
- :mod:`repro.geometry.intervals` — an exact algebra of angular
  intervals (arcs): union, complement, gaps and measure.  This is the
  engine behind the *exact* full-view coverage test.
- :mod:`repro.geometry.sector` — the binary sector sensing region and
  containment predicates (scalar and vectorised).
- :mod:`repro.geometry.torus` — the unit square treated as a torus, as
  the paper assumes, so boundary effects vanish.
- :mod:`repro.geometry.grid` — the dense grid ``M`` with
  ``m >= n log n`` points used to discretise area coverage.
- :mod:`repro.geometry.spatial` — a toroidal cell index of boxes, the
  sparse batch kernel's candidate pruning for many points at once.
"""

from repro.geometry.angles import (
    TWO_PI,
    angular_distance,
    is_angle_between,
    normalize_angle,
    normalize_angle_signed,
    signed_angular_difference,
)
from repro.geometry.grid import DenseGrid, grid_side_for
from repro.geometry.intervals import AngularInterval, AngularIntervalSet
from repro.geometry.sector import Sector
from repro.geometry.spatial import ToroidalCellIndex
from repro.geometry.torus import Region
from repro.geometry.vec import (
    angle_of,
    from_polar,
    rotate,
    unit_vector,
)

__all__ = [
    "TWO_PI",
    "AngularInterval",
    "AngularIntervalSet",
    "DenseGrid",
    "Region",
    "Sector",
    "ToroidalCellIndex",
    "angle_of",
    "angular_distance",
    "from_polar",
    "grid_side_for",
    "is_angle_between",
    "normalize_angle",
    "normalize_angle_signed",
    "rotate",
    "signed_angular_difference",
    "unit_vector",
]
