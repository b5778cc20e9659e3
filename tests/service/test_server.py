"""The coverage service end to end: routing, caching, coalescing, drain.

Every test hosts a real :class:`CoverageService` on an ephemeral port
inside ``asyncio.run`` and talks raw HTTP to it.  Compute is replaced
by a counted (and, where ordering matters, event-gated) fake, so the
"exactly one engine run" properties are asserted deterministically
rather than by racing real Monte-Carlo timings.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading

import pytest

from repro.api.schemas import parse_request
from repro.errors import InvalidParameterError
from repro.obs.ledger import git_sha, load_runs
from repro.service import CoverageService, ResultCache
from repro.service.cache import cache_key
from tests.service.conftest import http_request, post, raw_request


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


    @pytest.mark.parametrize(
        "head",
        [
            b"POST /v1/estimate HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
            b"POST /v1/estimate HTTP/1.1\r\nContent-Length: -3\r\n\r\n",
            b"GARBAGE\r\n\r\n",
            b"GET /v1/healthz HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n",
        ],
        ids=[
            "length-not-a-number",
            "length-negative",
            "one-field-request-line",
            "head-line-over-64k",
        ],
    )
    def test_malformed_request_head_is_400(self, head):
        async def main():
            service = await started()
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            writer.write(head)
            await writer.drain()
            answer = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            health = await http_request(service.port, "GET", "/v1/healthz")
            await service.stop()
            return answer, health

        answer, health = run(main())
        status_line, _, rest = answer.partition(b"\r\n")
        assert status_line.split()[1] == b"400"
        reply = json.loads(rest.partition(b"\r\n\r\n")[2])
        assert reply["kind"] == "SchemaError" and reply["status"] == 400
        assert health[0] == 200


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

    def test_memory_hits_never_re_encode_the_result(self, monkeypatch):
        class CountingResult(dict):
            """A result that counts how often ``json`` serialises it."""

            encodes = 0

            def items(self):
                type(self).encodes += 1
                return super().items()

        monkeypatch.setattr(
            "repro.service.server.run_request",
            lambda request, *, workers=None: CountingResult(answer=42),
        )

        async def main():
            service = await started()
            computed = await post(service.port, "estimate", body())
            after_compute = CountingResult.encodes
            hits = [await post(service.port, "estimate", body()) for _ in range(5)]
            await service.stop()
            return computed, after_compute, hits

        computed, after_compute, hits = run(main())
        assert computed[1]["source"] == "computed"
        assert [envelope["source"] for _, envelope in hits] == ["memory"] * 5
        assert [envelope["result"] for _, envelope in hits] == [{"answer": 42}] * 5
        assert after_compute == 1, "the computed answer encodes its result once"
        assert CountingResult.encodes == 1, "a memory hit must not re-encode"

    def test_every_source_sends_json_dumps_of_the_envelope(
        self, tmp_path, monkeypatch
    ):
        """Computed, coalesced, memory and disk answers: the same bytes as
        ``json.dumps`` of the whole envelope with ``result`` last."""
        result = {
            "kind": "point",
            "estimate": {"proportion": 0.1 + 0.2, "wilson_95": (1 / 3, 2 / 3)},
            "fleet": [{"x": 1e-300, "y": -0.0, "label": "\u03b8 \u2264 \u03c0"}],
            "trials": 8,
        }
        gate = threading.Event()

        def fake_run(request, *, workers=None):
            assert gate.wait(timeout=10)
            return result

        monkeypatch.setattr("repro.service.server.run_request", fake_run)
        cache_dir = tmp_path / "cache"

        def ask(service):
            return raw_request(service.port, "POST", "/v1/estimate", body())

        async def generation_one():
            service = await started(cache=ResultCache(cache_dir))
            pair = [asyncio.ensure_future(ask(service)) for _ in range(2)]
            while service.metrics.counter("service_coalesced") < 1:
                await asyncio.sleep(0.005)
            gate.set()
            answers = list(await asyncio.gather(*pair))
            answers.append(await ask(service))
            await service.stop()
            return answers

        async def generation_two():
            service = await started(cache=ResultCache(cache_dir))
            answer = await ask(service)
            await service.stop()
            return answer

        answers = run(generation_one())
        answers.append(run(generation_two()))
        sources = []
        for status, raw in answers:
            assert status == 200
            envelope = json.loads(raw)
            source = envelope["source"]
            sources.append(source)
            expected = {
                "schema": "fullview-api-v1",
                "endpoint": "estimate",
                "key": envelope["key"],
                "cached": source in ("memory", "disk"),
                "source": source,
                "compute_seconds": envelope["compute_seconds"],
                "result": result,
            }
            assert raw == json.dumps(expected).encode("utf-8"), source
        assert sorted(sources) == ["coalesced", "computed", "disk", "memory"]
        assert len({json.loads(raw)["key"] for _, raw in answers}) == 1

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

    def test_failed_cache_write_fails_leader_and_followers(self, tmp_path, monkeypatch):
        gate = threading.Event()

        def fake_run(request, *, workers=None):
            assert gate.wait(timeout=10)
            return {"answer": 42}

        monkeypatch.setattr("repro.service.server.run_request", fake_run)
        cache_dir = tmp_path / "cache"
        key = cache_key(parse_request("estimate", body()), git_sha())
        # A plain file where the entry's fan-out directory belongs.
        blocker = cache_dir / key[:2]

        async def main():
            service = await started(cache=ResultCache(cache_dir))
            blocker.write_text("not a directory")
            leader = asyncio.ensure_future(post(service.port, "estimate", body()))
            follower = asyncio.ensure_future(post(service.port, "estimate", body()))
            while service.metrics.counter("service_coalesced") < 1:
                await asyncio.sleep(0.005)
            gate.set()
            failed = await asyncio.wait_for(asyncio.gather(leader, follower), 10)
            stats = await http_request(service.port, "GET", "/v1/stats")
            blocker.unlink()
            retried = await post(service.port, "estimate", body())
            await service.stop()
            return failed, stats, retried

        failed, stats, retried = run(main())
        for status, envelope in failed:
            assert status == 500
            assert envelope["kind"] == "FileExistsError"
        assert stats[1]["inflight_keys"] == 0
        # The failed write left no entry behind: the retry computes.
        assert retried[0] == 200
        assert retried[1]["source"] == "computed"
        assert retried[1]["result"] == {"answer": 42}

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

    def test_drain_answers_before_the_loop_ends(self, tmp_path, monkeypatch):
        """``fullview serve``'s SIGTERM path, with the ledger on."""
        gate = threading.Event()

        def fake_run(request, *, workers=None):
            assert gate.wait(timeout=10)
            return {"answer": 42}

        monkeypatch.setattr("repro.service.server.run_request", fake_run)
        ledger = tmp_path / "runs.jsonl"
        answers = []

        def client(port):
            # A thread, so the end of asyncio.run cannot cancel it.
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                connection.request("POST", "/v1/estimate", json.dumps(body()))
                response = connection.getresponse()
                answers.append((response.status, json.loads(response.read())))
            except Exception as exc:
                answers.append(exc)
            finally:
                connection.close()

        async def main():
            service = await started(ledger_path=ledger)
            serving = asyncio.ensure_future(service.serve_forever())
            thread = threading.Thread(target=client, args=(service.port,))
            thread.start()
            while service.metrics.gauge("service_queue_depth") != 1:
                await asyncio.sleep(0.005)
            serving.cancel()
            stopping = asyncio.ensure_future(service.stop())
            await asyncio.sleep(0.02)
            gate.set()
            await stopping
            return thread

        # asyncio.run cancels whatever is still running once main returns.
        thread = run(main())
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(answers) == 1
        status, envelope = answers[0]
        assert status == 200
        assert envelope["result"] == {"answer": 42}
        rows, problems = load_runs(ledger)
        assert problems == []
        assert [row["outcome"] for row in rows] == ["ok"]


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
