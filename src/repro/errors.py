"""Exception hierarchy for the ``repro`` package.

All exceptions raised deliberately by this library derive from
:class:`FullViewError`, so callers can catch library failures without
also swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations

__all__ = [
    "ChaosError",
    "CheckpointError",
    "ConvergenceError",
    "DeploymentError",
    "ExperimentError",
    "FullViewError",
    "GridIndexError",
    "InvalidParameterError",
    "InvalidProfileError",
    "LintError",
    "ObservabilityError",
    "SchemaError",
    "ServiceError",
]


class FullViewError(Exception):
    """Base class for every error raised by this library."""


class InvalidParameterError(FullViewError, ValueError):
    """A model parameter is outside its documented domain.

    Raised, for example, for a non-positive sensing radius, an angle of
    view outside ``(0, 2*pi]``, or an effective angle outside ``(0, pi]``.
    """


class InvalidProfileError(FullViewError, ValueError):
    """A heterogeneous sensor profile violates its invariants.

    The paper (Section II-A) requires group fractions ``c_y`` with
    ``0 < c_y <= 1`` and ``sum(c_y) == 1``, and that no two groups share
    both radius and angle of view.
    """


class DeploymentError(FullViewError, RuntimeError):
    """A deployment scheme could not produce a valid sensor placement."""


class ConvergenceError(FullViewError, RuntimeError):
    """An iterative numerical routine failed to converge."""


class ExperimentError(FullViewError, RuntimeError):
    """An experiment driver was misconfigured or failed to run."""


class CheckpointError(FullViewError, RuntimeError):
    """A Monte-Carlo checkpoint is missing, corrupt or incompatible.

    Raised when resuming a sweep whose checkpoint does not match the
    requested configuration (different seed or trial count), or whose
    JSON payload cannot be parsed.
    """


class ChaosError(FullViewError, RuntimeError):
    """A fault injected on purpose by the chaos harness.

    Raised from inside ``_run_chunk`` when an active
    :class:`repro.simulation.faults.ChaosPolicy` decides (by seed) that
    this chunk attempt crashes.  Distinct from organic worker errors so
    tests and retry accounting can tell injected faults from real bugs.
    """


class GridIndexError(FullViewError, IndexError):
    """A dense-grid cell index is outside the grid.

    Keeps :class:`IndexError` lineage so sequence-protocol callers that
    catch ``IndexError`` keep working.
    """


class LintError(FullViewError, RuntimeError):
    """The ``fvlint`` static-analysis pass was misconfigured.

    Raised for unknown rule codes, unreadable lint targets, and corrupt
    baseline files.
    """


class ObservabilityError(FullViewError, RuntimeError):
    """A telemetry artifact is missing, corrupt or unwritable.

    Raised when a trace JSONL file cannot be parsed into a run report,
    or when an obs sink cannot be opened for writing.
    """


class SchemaError(FullViewError, ValueError):
    """A wire body violates the ``fullview-api-v1`` contract.

    Raised by :mod:`repro.api.schemas` for unknown fields, missing
    required fields, wrongly-typed values or an unsupported ``schema``
    tag; the coverage service maps it to one HTTP 400 response shape.
    """


class ServiceError(FullViewError, RuntimeError):
    """The coverage service could not accept or complete a request.

    Raised for server-side failures that are not the client's fault:
    a saturated work queue (mapped to HTTP 503), a shutdown in
    progress, or an unusable cache directory.
    """
