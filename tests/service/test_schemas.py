"""The fullview-api-v1 wire schema: strict parsing, exact round-trips."""

from __future__ import annotations

import asyncio
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
from repro.service import CoverageService, cache_key
from tests.service.conftest import post


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


def evaluate_body(**overrides):
    body = {"radius": 0.25, "angle_of_view": 1.2, "n": 30, "theta": 1.0}
    body.update(overrides)
    return body


def key(endpoint, body):
    return cache_key(parse_request(endpoint, body), git_sha="0" * 40)


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

    def test_one_key_per_computation(self):
        # (endpoint, base body, fields its computation ignores, fields it reads)
        cases = [
            ("estimate", estimate_body(kind="point"),
             dict(k=5, sample_points=64, max_grid_points=10),
             dict(point=[0.2, 0.3], condition="necessary")),
            ("estimate", estimate_body(kind="point", condition="k_coverage"),
             dict(sample_points=64), dict(k=2)),
            ("estimate", estimate_body(kind="grid_failure"),
             dict(k=3, sample_points=64, point=[0.2, 0.3]), dict(max_grid_points=10)),
            ("estimate", estimate_body(kind="area_fraction", condition="k_coverage"),
             dict(max_grid_points=10, point=[0.2, 0.3]), dict(k=2, sample_points=64)),
            ("estimate", estimate_body(kind="condition_chain"),
             dict(condition="necessary", k=4, sample_points=64, max_grid_points=10),
             dict(point=[0.2, 0.3])),
            ("evaluate", evaluate_body(), dict(k=7), dict(condition="necessary")),
            ("evaluate", evaluate_body(condition="k_coverage"), {}, dict(k=2)),
        ]
        for endpoint, base, ignored, read in cases:
            for name, value in ignored.items():
                assert key(endpoint, {**base, name: value}) == key(endpoint, base), name
            for name, value in read.items():
                assert key(endpoint, {**base, name: value}) != key(endpoint, base), name

    def test_spelled_defaults_keep_their_key(self):
        # Pinned: resetting ignored fields must not move the digest of a
        # body whose ignored fields already sit at their defaults (run
        # ledger rows are matched across revisions by this digest).
        pinned = [
            ("estimate",
             estimate_body(trials=200, seed=0, condition="exact", k=1,
                           sample_points=256, max_grid_points=None, point=None),
             "31b304a8993c85c92d843c8f07a1e1d6844c025c2d4b09fe70dc0bcb177d71be"),
            ("estimate", estimate_body(kind="grid_failure", max_grid_points=50,
                                       condition="necessary"),
             "bfc99d97b12dbbd8e862f4487b879eba78681d7f5184067b0813f99551d675f8"),
            ("evaluate", evaluate_body(seed=0, condition="exact", k=1, resolution=None),
             "7f5459830725e92f78905a5dad1854ed68c5b5ad51103728abc5d7681dbc0de0"),
        ]
        for endpoint, body, digest in pinned:
            assert config_digest(parse_request(endpoint, body).canonical()) == digest

    def test_k_below_one_is_a_400(self):
        async def main():
            service = CoverageService()
            await service.start()
            try:
                return [
                    await post(service.port, "estimate", estimate_body(k=0)),
                    await post(service.port, "evaluate", evaluate_body(k=0)),
                ]
            finally:
                await service.stop()

        for status, reply in asyncio.run(main()):
            assert status == 400
            assert reply["kind"] == "SchemaError"
            assert "k must be >= 1" in reply["error"]


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
