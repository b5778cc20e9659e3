"""The coverage service end to end: routing, caching, coalescing, drain.

Every test hosts a real :class:`CoverageService` on an ephemeral port
inside ``asyncio.run`` and talks raw HTTP to it.  Compute is replaced
by a counted (and, where ordering matters, event-gated) fake, so the
"exactly one engine run" properties are asserted deterministically
rather than by racing real Monte-Carlo timings.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.errors import InvalidParameterError
from repro.obs.ledger import load_runs
from repro.service import CoverageService, ResultCache
from tests.service.conftest import http_request, post


def body(seed: int = 0, **overrides):
    payload = {
        "kind": "point",
        "radius": 0.25,
        "angle_of_view": 1.2,
        "n": 30,
        "theta": 1.0,
        "trials": 8,
        "seed": seed,
    }
    payload.update(overrides)
    return payload


def run(coro):
    return asyncio.run(coro)


async def started(**kwargs) -> CoverageService:
    service = CoverageService(**kwargs)
    await service.start()
    return service


class TestRouting:
    def test_healthz_schema_stats_and_misses(self):
        async def main():
            service = await started()
            health = await http_request(service.port, "GET", "/v1/healthz")
            schema = await http_request(service.port, "GET", "/v1/schema")
            stats = await http_request(service.port, "GET", "/v1/stats")
            missing = await http_request(service.port, "GET", "/v1/nothing")
            wrong_verb = await http_request(service.port, "POST", "/v1/healthz", {})
            await service.stop()
            return health, schema, stats, missing, wrong_verb

        health, schema, stats, missing, wrong_verb = run(main())
        assert health == (200, {"status": "ok", "schema": "fullview-api-v1"})
        assert schema[0] == 200 and "estimate" in schema[1]["endpoints"]
        for endpoint in ("evaluate", "estimate"):
            assert "kernel" not in schema[1]["endpoints"][endpoint]["fields"]
        assert stats[0] == 200 and stats[1]["pending"] == 0
        assert missing[0] == 404
        assert wrong_verb[0] == 405

    def test_invalid_json_and_schema_violations_are_400(self):
        async def main():
            service = await started()
            bad_field = await post(service.port, "estimate", body(bogus=1))
            missing = await post(
                service.port, "estimate", {"kind": "point", "radius": 0.2}
            )
            evaluate = dict(radius=0.2, angle_of_view=1.0, n=4, theta=1.0)
            kernels = [
                await post(service.port, "estimate", body(kernel="dense")),
                await post(service.port, "evaluate", dict(evaluate, kernel="sparse")),
            ]
            await service.stop()
            return bad_field, missing, kernels

        bad_field, missing, kernels = run(main())
        assert bad_field[0] == 400
        assert bad_field[1]["kind"] == "SchemaError"
        assert missing[0] == 400
        # The code picks the evaluation path: a body that still names a
        # kernel is refused by field name like any other unknown field.
        for status, reply in kernels:
            assert status == 400
            assert reply["kind"] == "SchemaError"
            assert "kernel" in reply["error"]


class TestComputePath:
    def test_miss_then_warm_hit_computes_once(self, monkeypatch):
        calls = []

        def fake_run(request, *, workers=None):
            calls.append(request)
            return {"answer": 42}

        monkeypatch.setattr("repro.service.server.run_request", fake_run)

        async def main():
            service = await started()
            first = await post(service.port, "estimate", body())
            second = await post(service.port, "estimate", body())
            counters = service.metrics.snapshot()["counters"]
            await service.stop()
            return first, second, counters

        first, second, counters = run(main())
        assert len(calls) == 1, "warm cache hit must not re-compute"
        assert first[0] == second[0] == 200
        assert first[1]["source"] == "computed" and first[1]["cached"] is False
        assert second[1]["source"] == "memory" and second[1]["cached"] is True
        assert second[1]["result"] == first[1]["result"] == {"answer": 42}
        assert counters["service_cache_misses"] == 1
        assert counters["service_cache_hits"] == 1

    def test_n_concurrent_identical_requests_one_compute(self, monkeypatch):
        fan_out = 5
        calls = []
        gate = threading.Event()

        def fake_run(request, *, workers=None):
            calls.append(request)
            assert gate.wait(timeout=10)
            return {"answer": 42}

        monkeypatch.setattr("repro.service.server.run_request", fake_run)

        async def main():
            service = await started(queue_limit=fan_out, service_workers=2)
            tasks = [
                asyncio.ensure_future(post(service.port, "estimate", body()))
                for _ in range(fan_out)
            ]
            # Followers are parked on the leader's future once the
            # coalesce counter accounts for all N-1 of them.
            while service.metrics.counter("service_coalesced") < fan_out - 1:
                await asyncio.sleep(0.005)
            gate.set()
            responses = await asyncio.gather(*tasks)
            counters = service.metrics.snapshot()["counters"]
            await service.stop()
            return responses, counters

        responses, counters = run(main())
        assert len(calls) == 1, "N identical concurrent requests => 1 engine run"
        assert counters["service_coalesced"] == fan_out - 1
        assert counters["service_cache_misses"] == 1
        assert [status for status, _ in responses] == [200] * fan_out
        sources = sorted(envelope["source"] for _, envelope in responses)
        assert sources == ["coalesced"] * (fan_out - 1) + ["computed"]
        assert {tuple(sorted(envelope["result"].items())) for _, envelope in responses} == {
            (("answer", 42),)
        }

    def test_backpressure_refuses_with_503(self, monkeypatch):
        gate = threading.Event()

        def fake_run(request, *, workers=None):
            assert gate.wait(timeout=10)
            return {"answer": 42}

        monkeypatch.setattr("repro.service.server.run_request", fake_run)

        async def main():
            service = await started(queue_limit=1, service_workers=2)
            first = asyncio.ensure_future(post(service.port, "estimate", body(seed=1)))
            while service.metrics.gauge("service_queue_depth") != 1:
                await asyncio.sleep(0.005)
            refused = await post(service.port, "estimate", body(seed=2))
            gate.set()
            ok = await first
            counters = service.metrics.snapshot()["counters"]
            await service.stop()
            return refused, ok, counters

        refused, ok, counters = run(main())
        assert refused[0] == 503
        assert refused[1]["kind"] == "ServiceError"
        assert ok[0] == 200
        assert counters["service_rejections"] == 1

    def test_job_errors_reach_leader_and_followers(self, monkeypatch):
        gate = threading.Event()

        def fake_run(request, *, workers=None):
            assert gate.wait(timeout=10)
            raise InvalidParameterError("radius out of domain")

        monkeypatch.setattr("repro.service.server.run_request", fake_run)

        async def main():
            service = await started()
            leader = asyncio.ensure_future(post(service.port, "estimate", body()))
            follower = asyncio.ensure_future(post(service.port, "estimate", body()))
            while service.metrics.counter("service_coalesced") < 1:
                await asyncio.sleep(0.005)
            gate.set()
            responses = await asyncio.gather(leader, follower)
            await service.stop()
            return responses

        responses = run(main())
        for status, envelope in responses:
            assert status == 400
            assert envelope["kind"] == "InvalidParameterError"
            assert "radius" in envelope["error"]

    def test_failed_compute_is_not_cached(self, monkeypatch):
        calls = []

        def fake_run(request, *, workers=None):
            calls.append(request)
            if len(calls) == 1:
                raise InvalidParameterError("transient misconfiguration")
            return {"answer": 42}

        monkeypatch.setattr("repro.service.server.run_request", fake_run)

        async def main():
            service = await started()
            first = await post(service.port, "estimate", body())
            second = await post(service.port, "estimate", body())
            await service.stop()
            return first, second

        first, second = run(main())
        assert first[0] == 400
        assert second == (200, second[1])
        assert second[1]["source"] == "computed"
        assert len(calls) == 2

    def test_graceful_stop_drains_in_flight_compute(self, monkeypatch):
        gate = threading.Event()

        def fake_run(request, *, workers=None):
            assert gate.wait(timeout=10)
            return {"answer": 42}

        monkeypatch.setattr("repro.service.server.run_request", fake_run)

        async def main():
            service = await started()
            inflight = asyncio.ensure_future(post(service.port, "estimate", body()))
            while service.metrics.gauge("service_queue_depth") != 1:
                await asyncio.sleep(0.005)
            stopping = asyncio.ensure_future(service.stop())
            await asyncio.sleep(0.02)
            assert not stopping.done(), "stop must wait for in-flight work"
            gate.set()
            response = await inflight
            await stopping
            return response

        status, envelope = run(main())
        assert status == 200
        assert envelope["result"] == {"answer": 42}


class TestLedgerPolicy:
    def test_rows_for_misses_and_disk_hits_only(self, tmp_path, monkeypatch):
        """ok rows per compute, one cached row per disk hit, none for memory."""
        calls = []

        def fake_run(request, *, workers=None):
            calls.append(request)
            return {"answer": 42}

        monkeypatch.setattr("repro.service.server.run_request", fake_run)
        cache_dir = tmp_path / "cache"
        ledger = tmp_path / "runs.jsonl"

        async def generation_one():
            service = await started(
                cache=ResultCache(cache_dir), ledger_path=ledger
            )
            await post(service.port, "estimate", body())  # miss -> ok row
            await post(service.port, "estimate", body())  # memory -> no row
            await service.stop()

        async def generation_two():
            service = await started(
                cache=ResultCache(cache_dir), ledger_path=ledger
            )
            await post(service.port, "estimate", body())  # disk -> cached row
            await post(service.port, "estimate", body())  # memory -> no row
            await service.stop()

        run(generation_one())
        run(generation_two())

        rows, problems = load_runs(ledger)
        assert problems == []
        assert len(calls) == 1, "the second process must reuse the disk cache"
        assert [row["outcome"] for row in rows] == ["cached", "ok"]
        cached_row, ok_row = rows
        assert ok_row["experiment"] == "svc-estimate"
        assert ok_row["trials_completed"] == body()["trials"]
        # Cached rows carry no throughput, so rate numbers stay honest.
        assert cached_row["trials_completed"] == 0
        assert cached_row["trials_per_sec"] == pytest.approx(0.0)
        assert cached_row["config_digest"] == ok_row["config_digest"]

    def test_rows_record_resolved_workers(self, tmp_path, monkeypatch):
        """A server left to FULLVIEW_WORKERS logs the count it resolves."""

        def fake_run(request, *, workers=None):
            return {"answer": 42}

        monkeypatch.setattr("repro.service.server.run_request", fake_run)
        monkeypatch.setenv("FULLVIEW_WORKERS", "2")
        ledger = tmp_path / "runs.jsonl"

        async def main():
            service = await started(ledger_path=ledger)
            await post(service.port, "estimate", body())
            await service.stop()

        run(main())
        rows, problems = load_runs(ledger)
        assert problems == []
        assert [(row["workers"], row["executor"]) for row in rows] == [(2, "auto")]

    def test_error_outcome_row(self, tmp_path, monkeypatch):
        def fake_run(request, *, workers=None):
            raise InvalidParameterError("broken")

        monkeypatch.setattr("repro.service.server.run_request", fake_run)
        ledger = tmp_path / "runs.jsonl"

        async def main():
            service = await started(ledger_path=ledger)
            await post(service.port, "estimate", body())
            await service.stop()

        run(main())
        rows, problems = load_runs(ledger)
        assert problems == []
        assert [row["outcome"] for row in rows] == ["error"]
