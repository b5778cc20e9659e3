"""Synchronous compute for service requests, through the facade.

Each wire request maps onto exactly one :mod:`repro.api` call, run in
a worker thread by the server and returned as a JSON-ready result
body.  The engine worker count is *server policy*, not part of the
wire schema or the cache key: the numbers a request produces are
bit-identical across executors (the engine guarantees it), so two
deployments of the service with different parallelism still share
cache entries.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro import api
from repro.api.schemas import (
    DeployRequest,
    EstimateRequest,
    EvaluateRequest,
    WireBody,
)
from repro.errors import ServiceError
from repro.simulation.statistics import BernoulliEstimate

__all__ = [
    "run_request",
]


def _serialize_estimate(kind: str, value: Any) -> Any:
    """A JSON-ready view of whatever an estimator kind returns."""
    if isinstance(value, BernoulliEstimate):
        low, high = value.wilson()
        return {
            "successes": value.successes,
            "trials": value.trials,
            "proportion": value.proportion,
            "wilson_95": [low, high],
        }
    if kind == "area_fraction":
        mean, half_width = value
        return {"mean": float(mean), "ci_half_width": float(half_width)}
    if isinstance(value, dict):
        return {
            name: _serialize_estimate(kind, item) for name, item in value.items()
        }
    if isinstance(value, (int, float, str)) or value is None:
        return value
    raise ServiceError(
        f"estimator kind {kind!r} returned unserializable {type(value).__name__}"
    )


def _run_deploy(request: DeployRequest) -> Dict[str, Any]:
    fleet = api.deploy(
        radius=request.radius,
        angle_of_view=request.angle_of_view,
        n=request.n,
        seed=request.seed,
        build_index=False,
    )
    return {
        "n": len(fleet),
        "seed": request.seed,
        "positions": fleet.positions.tolist(),
        "orientations": fleet.orientations.tolist(),
        "radii": fleet.radii.tolist(),
        "angles_of_view": fleet.angles.tolist(),
    }


def _run_evaluate(request: EvaluateRequest) -> Dict[str, Any]:
    fleet = api.deploy(
        radius=request.radius,
        angle_of_view=request.angle_of_view,
        n=request.n,
        seed=request.seed,
    )
    evaluation = api.evaluate_grid(
        fleet=fleet,
        theta=request.theta,
        condition=request.condition,
        resolution=request.resolution,
        k=request.k,
        kernel=request.kernel,
    )
    return {
        "fraction": evaluation.fraction,
        "num_covered": evaluation.num_covered,
        "num_points": len(evaluation),
        "theta": evaluation.theta,
        "condition": evaluation.condition,
    }


def _run_estimate(
    request: EstimateRequest, workers: Optional[int]
) -> Dict[str, Any]:
    value = api.estimate(
        kind=request.kind,
        radius=request.radius,
        angle_of_view=request.angle_of_view,
        n=request.n,
        theta=request.theta,
        condition=request.condition,
        trials=request.trials,
        seed=request.seed,
        workers=workers,
        point=request.point,
        k=request.k,
        sample_points=request.sample_points,
        max_grid_points=request.max_grid_points,
        kernel=request.kernel,
    )
    return {
        "kind": request.kind,
        "trials": request.trials,
        "estimate": _serialize_estimate(request.kind, value),
    }


def run_request(
    request: WireBody, *, workers: Optional[int] = None
) -> Dict[str, Any]:
    """Compute the result body for one parsed wire request."""
    if isinstance(request, DeployRequest):
        return _run_deploy(request)
    if isinstance(request, EvaluateRequest):
        return _run_evaluate(request)
    if isinstance(request, EstimateRequest):
        return _run_estimate(request, workers)
    raise ServiceError(
        f"no compute mapped for request type {type(request).__name__}"
    )
