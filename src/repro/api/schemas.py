"""The ``fullview-api-v1`` wire schema: typed request and error bodies.

The coverage service (:mod:`repro.service`) and any future client
speak JSON over HTTP; this module is the single place the request
shapes are defined.  Each request body is a frozen keyword-only
dataclass whose fields mirror the :mod:`repro.api` facade signatures
(``deploy`` / ``evaluate_grid`` / ``estimate``); every failure answers
with one :class:`ErrorBody`.  Bodies provide:

- :meth:`WireBody.from_wire` — strict parsing: unknown fields reject,
  missing required fields reject, types are checked (bools never pass
  as ints), and the optional ``schema`` tag must be exactly
  :data:`API_SCHEMA`.  Every violation raises
  :class:`~repro.errors.SchemaError`.
- :meth:`WireBody.to_wire` — the inverse: a JSON-ready dict carrying
  the ``schema`` tag, such that ``from_wire(to_wire(body)) == body``.
- :meth:`WireBody.canonical` — the body as canonical plain data with
  every default filled in and every field its computation ignores
  reset to its default, which is what
  :func:`repro.api.config_digest` hashes: two requests that mean the
  same computation digest identically no matter how they were spelled.

:func:`describe_schema` renders the whole contract (endpoints, fields,
types, defaults) as one JSON-ready dict — served at ``GET /v1/schema``
so clients can discover the contract without reading source.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Mapping, Optional, Tuple

from repro.errors import SchemaError
from repro.ioutil import canonical_payload

__all__ = [
    "API_SCHEMA",
    "DeployRequest",
    "ErrorBody",
    "EstimateRequest",
    "EvaluateRequest",
    "REQUEST_TYPES",
    "WireBody",
    "describe_schema",
    "parse_request",
]

#: Version tag of this wire contract; breaking changes bump it.
API_SCHEMA = "fullview-api-v1"

#: Estimator kinds the estimate endpoint accepts (mirrors repro.api).
_ESTIMATE_KINDS = ("point", "grid_failure", "area_fraction", "condition_chain")

#: Coverage conditions the evaluate/estimate endpoints accept.
_CONDITIONS = ("exact", "necessary", "sufficient", "k_coverage")


def _wire(kind: str, **kwargs: Any) -> Any:
    """A dataclass field carrying its wire-type tag in metadata."""
    return field(metadata={"wire": kind}, **kwargs)


def _coerce(owner: str, name: str, kind: str, value: Any) -> Any:
    """Check/convert one wire value against its declared ``kind``."""
    optional = kind.endswith("?")
    if optional:
        if value is None:
            return None
        kind = kind[:-1]
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"{owner}.{name} must be an integer, got {value!r}")
        return value
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"{owner}.{name} must be a number, got {value!r}")
        return float(value)
    if kind == "str":
        if not isinstance(value, str):
            raise SchemaError(f"{owner}.{name} must be a string, got {value!r}")
        return value
    if kind == "point":
        if (
            not isinstance(value, (list, tuple))
            or len(value) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)
        ):
            raise SchemaError(
                f"{owner}.{name} must be a two-number [x, y] pair, got {value!r}"
            )
        return (float(value[0]), float(value[1]))
    raise SchemaError(f"{owner}.{name} has unknown wire type {kind!r}")


@dataclass(frozen=True, kw_only=True)
class WireBody:
    """Base for every v1 wire body: strict parse, exact serialize."""

    #: The service route this body belongs to ("" for error bodies).
    ENDPOINT: ClassVar[str] = ""

    @classmethod
    def from_wire(cls, payload: Any) -> "WireBody":
        """Parse a decoded JSON object into a validated body.

        Rejects non-objects, a wrong ``schema`` tag, unknown fields,
        missing required fields and wrongly-typed values — all as
        :class:`~repro.errors.SchemaError`, so the service can map any
        parse failure to one 400 response shape.
        """
        if not isinstance(payload, Mapping):
            raise SchemaError(
                f"{cls.__name__} body must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        body = dict(payload)
        tag = body.pop("schema", API_SCHEMA)
        if tag != API_SCHEMA:
            raise SchemaError(
                f"unsupported schema {tag!r}; this server speaks {API_SCHEMA!r}"
            )
        known = {spec.name for spec in dataclasses.fields(cls)}
        unknown = sorted(set(body) - known)
        if unknown:
            raise SchemaError(
                f"{cls.__name__} does not accept field(s) {', '.join(unknown)}"
            )
        kwargs: Dict[str, Any] = {}
        for spec in dataclasses.fields(cls):
            kind = spec.metadata.get("wire", "float")
            if spec.name in body:
                kwargs[spec.name] = _coerce(cls.__name__, spec.name, kind, body[spec.name])
            elif (
                spec.default is dataclasses.MISSING
                and spec.default_factory is dataclasses.MISSING
            ):
                raise SchemaError(f"{cls.__name__} requires field {spec.name!r}")
        return cls(**kwargs)

    def to_wire(self) -> Dict[str, Any]:
        """The body as a JSON-ready dict, ``schema`` tag included."""
        wire = {"schema": API_SCHEMA}
        wire.update(canonical_payload(self))
        return wire

    def _ignored_fields(self) -> Tuple[str, ...]:
        """Fields this body's computation never reads (none by default)."""
        return ()

    def canonical(self) -> Dict[str, Any]:
        """Canonical plain data with every default filled in.

        This is the digest input: requests that mean the same
        computation canonicalize to the same dict regardless of which
        defaults were spelled out, field order, or a JSON round trip.
        Fields the computation ignores (:meth:`_ignored_fields`) are
        reset to their defaults, so they never split a cache key.
        """
        canonical = canonical_payload(self)
        ignored = self._ignored_fields()
        for spec in dataclasses.fields(self):
            if spec.name in ignored:
                canonical[spec.name] = canonical_payload(spec.default)
        canonical["endpoint"] = self.ENDPOINT
        return canonical


@dataclass(frozen=True, kw_only=True)
class DeployRequest(WireBody):
    """``POST /v1/deploy`` — scatter ``n`` seeded cameras, return the fleet."""

    ENDPOINT: ClassVar[str] = "deploy"

    radius: float = _wire("float")
    angle_of_view: float = _wire("float")
    n: int = _wire("int")
    seed: int = _wire("int", default=0)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise SchemaError(f"deploy.n must be >= 1, got {self.n!r}")


@dataclass(frozen=True, kw_only=True)
class EvaluateRequest(WireBody):
    """``POST /v1/evaluate`` — deploy then grade a grid of points."""

    ENDPOINT: ClassVar[str] = "evaluate"

    radius: float = _wire("float")
    angle_of_view: float = _wire("float")
    n: int = _wire("int")
    theta: float = _wire("float")
    seed: int = _wire("int", default=0)
    condition: str = _wire("str", default="exact")
    resolution: Optional[int] = _wire("int?", default=None)
    k: int = _wire("int", default=1)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise SchemaError(f"evaluate.n must be >= 1, got {self.n!r}")
        if self.condition not in _CONDITIONS:
            raise SchemaError(
                f"evaluate.condition must be one of {_CONDITIONS}, got "
                f"{self.condition!r}"
            )
        if self.resolution is not None and self.resolution < 1:
            raise SchemaError(
                f"evaluate.resolution must be >= 1, got {self.resolution!r}"
            )
        if self.k < 1:
            raise SchemaError(f"evaluate.k must be >= 1, got {self.k!r}")

    def _ignored_fields(self) -> Tuple[str, ...]:
        """``k`` matters only to the k-coverage condition."""
        return () if self.condition == "k_coverage" else ("k",)


@dataclass(frozen=True, kw_only=True)
class EstimateRequest(WireBody):
    """``POST /v1/estimate`` — one of the four Monte-Carlo estimators."""

    ENDPOINT: ClassVar[str] = "estimate"

    kind: str = _wire("str")
    radius: float = _wire("float")
    angle_of_view: float = _wire("float")
    n: int = _wire("int")
    theta: float = _wire("float")
    trials: int = _wire("int", default=200)
    seed: int = _wire("int", default=0)
    condition: str = _wire("str", default="exact")
    point: Optional[Tuple[float, float]] = _wire("point?", default=None)
    k: int = _wire("int", default=1)
    sample_points: int = _wire("int", default=256)
    max_grid_points: Optional[int] = _wire("int?", default=None)

    def __post_init__(self) -> None:
        if self.kind not in _ESTIMATE_KINDS:
            raise SchemaError(
                f"estimate.kind must be one of {_ESTIMATE_KINDS}, got {self.kind!r}"
            )
        if self.n < 1:
            raise SchemaError(f"estimate.n must be >= 1, got {self.n!r}")
        if self.trials < 1:
            raise SchemaError(f"estimate.trials must be >= 1, got {self.trials!r}")
        if self.condition not in _CONDITIONS:
            raise SchemaError(
                f"estimate.condition must be one of {_CONDITIONS}, got "
                f"{self.condition!r}"
            )
        if self.sample_points < 1:
            raise SchemaError(
                f"estimate.sample_points must be >= 1, got {self.sample_points!r}"
            )
        if self.k < 1:
            raise SchemaError(f"estimate.k must be >= 1, got {self.k!r}")

    def _ignored_fields(self) -> Tuple[str, ...]:
        """The fields ``kind`` (and, for ``k``, ``condition``) never read."""
        reads_k = self.condition == "k_coverage" and self.kind in ("point", "area_fraction")
        ignored = {
            "k": not reads_k,
            "sample_points": self.kind != "area_fraction",
            "max_grid_points": self.kind != "grid_failure",
            "point": self.kind not in ("point", "condition_chain"),
            "condition": self.kind == "condition_chain",
        }
        return tuple(name for name, unread in ignored.items() if unread)


@dataclass(frozen=True, kw_only=True)
class ErrorBody(WireBody):
    """Every service error response: one shape for every failure."""

    error: str = _wire("str")
    kind: str = _wire("str", default="FullViewError")
    status: int = _wire("int", default=400)


#: Endpoint name -> request class, the service's routing table.
REQUEST_TYPES: Dict[str, type] = {
    DeployRequest.ENDPOINT: DeployRequest,
    EvaluateRequest.ENDPOINT: EvaluateRequest,
    EstimateRequest.ENDPOINT: EstimateRequest,
}


def parse_request(endpoint: str, payload: Any) -> WireBody:
    """Parse ``payload`` as the request body for ``endpoint``."""
    request_type = REQUEST_TYPES.get(endpoint)
    if request_type is None:
        raise SchemaError(
            f"unknown endpoint {endpoint!r}; known: {sorted(REQUEST_TYPES)}"
        )
    return request_type.from_wire(payload)


def describe_schema() -> Dict[str, Any]:
    """The whole v1 contract as one JSON-ready dict (``GET /v1/schema``)."""
    endpoints: Dict[str, Any] = {}
    for endpoint, request_type in sorted(REQUEST_TYPES.items()):
        fields: Dict[str, Any] = {}
        for spec in dataclasses.fields(request_type):
            required = (
                spec.default is dataclasses.MISSING
                and spec.default_factory is dataclasses.MISSING
            )
            fields[spec.name] = {
                "type": spec.metadata.get("wire", "float"),
                "required": required,
                "default": None if required else canonical_payload(spec.default),
            }
        endpoints[endpoint] = {
            "method": "POST",
            "path": f"/v1/{endpoint}",
            "fields": fields,
        }
    return {"schema": API_SCHEMA, "endpoints": endpoints}
