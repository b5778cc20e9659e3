"""The fullview-api-v1 wire schema: strict parsing, exact round-trips."""

from __future__ import annotations

import json

import pytest

from repro.api import config_digest
from repro.api.schemas import (
    API_SCHEMA,
    DeployRequest,
    ErrorBody,
    EstimateRequest,
    EvaluateRequest,
    REQUEST_TYPES,
    describe_schema,
    parse_request,
)
from repro.errors import SchemaError


def estimate_body(**overrides):
    body = {
        "kind": "point",
        "radius": 0.25,
        "angle_of_view": 1.2,
        "n": 30,
        "theta": 1.0,
    }
    body.update(overrides)
    return body


class TestParsing:
    def test_round_trip_is_identity(self):
        request = EstimateRequest.from_wire(estimate_body(trials=32, seed=9))
        again = EstimateRequest.from_wire(json.loads(json.dumps(request.to_wire())))
        assert again == request

    def test_to_wire_carries_schema_tag(self):
        assert DeployRequest.from_wire(
            {"radius": 0.2, "angle_of_view": 1.0, "n": 4}
        ).to_wire()["schema"] == API_SCHEMA

    def test_wrong_schema_tag_rejected(self):
        with pytest.raises(SchemaError):
            EstimateRequest.from_wire(estimate_body(schema="fullview-api-v0"))

    def test_unknown_field_rejected_by_name(self):
        with pytest.raises(SchemaError, match="bogus"):
            EstimateRequest.from_wire(estimate_body(bogus=1))

    def test_missing_required_field_rejected_by_name(self):
        body = estimate_body()
        del body["theta"]
        with pytest.raises(SchemaError, match="theta"):
            EstimateRequest.from_wire(body)

    def test_non_object_body_rejected(self):
        with pytest.raises(SchemaError):
            EstimateRequest.from_wire([1, 2, 3])

    def test_bool_never_passes_as_int(self):
        with pytest.raises(SchemaError):
            EstimateRequest.from_wire(estimate_body(n=True))

    def test_string_never_passes_as_number(self):
        with pytest.raises(SchemaError):
            EstimateRequest.from_wire(estimate_body(radius="0.25"))

    def test_int_widens_to_float(self):
        request = EstimateRequest.from_wire(estimate_body(radius=1))
        assert request.radius == pytest.approx(1.0)
        assert isinstance(request.radius, float)

    def test_point_parses_to_tuple(self):
        request = EstimateRequest.from_wire(estimate_body(point=[0.5, 0.5]))
        assert request.point == (0.5, 0.5)

    def test_malformed_point_rejected(self):
        with pytest.raises(SchemaError):
            EstimateRequest.from_wire(estimate_body(point=[0.5]))

    def test_bad_kind_rejected(self):
        with pytest.raises(SchemaError, match="kind"):
            EstimateRequest.from_wire(estimate_body(kind="sideways"))

    def test_bad_condition_rejected(self):
        with pytest.raises(SchemaError, match="condition"):
            EvaluateRequest.from_wire(
                {
                    "radius": 0.2,
                    "angle_of_view": 1.0,
                    "n": 4,
                    "theta": 1.0,
                    "condition": "vibes",
                }
            )

    def test_parse_request_routes_by_endpoint(self):
        request = parse_request("deploy", {"radius": 0.2, "angle_of_view": 1.0, "n": 4})
        assert isinstance(request, DeployRequest)

    def test_parse_request_unknown_endpoint(self):
        with pytest.raises(SchemaError, match="endpoint"):
            parse_request("optimize", {})


class TestCanonical:
    def test_spelled_defaults_digest_identically(self):
        implicit = EstimateRequest.from_wire(estimate_body())
        explicit = EstimateRequest.from_wire(
            estimate_body(
                trials=200, seed=0, condition="exact", k=1, sample_points=256
            )
        )
        assert implicit.canonical() == explicit.canonical()
        assert config_digest(implicit.canonical()) == config_digest(
            explicit.canonical()
        )

    def test_canonical_embeds_endpoint(self):
        assert EstimateRequest.from_wire(estimate_body()).canonical()[
            "endpoint"
        ] == "estimate"

    def test_different_seeds_digest_differently(self):
        a = EstimateRequest.from_wire(estimate_body(seed=1))
        b = EstimateRequest.from_wire(estimate_body(seed=2))
        assert config_digest(a.canonical()) != config_digest(b.canonical())


class TestDescribe:
    def test_every_endpoint_described(self):
        description = describe_schema()
        assert description["schema"] == API_SCHEMA
        assert set(description["endpoints"]) == set(REQUEST_TYPES)

    def test_required_and_default_fields_marked(self):
        fields = describe_schema()["endpoints"]["estimate"]["fields"]
        assert fields["kind"]["required"] is True
        assert fields["seed"] == {"type": "int", "required": False, "default": 0}

    def test_description_is_json_serializable(self):
        json.dumps(describe_schema())


class TestErrorBody:
    def test_defaults(self):
        body = ErrorBody(error="nope")
        assert body.kind == "FullViewError"
        assert body.status == 400
        assert json.loads(json.dumps(body.to_wire()))["error"] == "nope"
