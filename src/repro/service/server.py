"""The coverage service: a stdlib-asyncio HTTP+JSON server.

One long-running process answers deploy/evaluate/estimate questions
over the ``fullview-api-v1`` wire schema (:mod:`repro.api.schemas`).
The request path is, in order:

1. **Parse** — strict body validation; any contract violation is one
   HTTP 400 ``ErrorBody``.  A malformed request head (a request line
   without a target, a ``Content-Length`` that is not a decimal
   count) or an oversize body is a 400 too, after which the
   connection closes.
2. **Cache** — the request's content address
   (:func:`repro.service.cache.cache_key`) is looked up in the
   two-tier :class:`~repro.service.cache.ResultCache`.  Memory hits
   answer immediately; disk hits additionally append one
   ``outcome="cached"`` ledger row (once per key per process, because
   the entry is promoted to memory).
3. **Coalesce** — on a miss, concurrent identical requests share one
   future (:class:`~repro.service.coalesce.Coalescer`): the leader
   computes, the other N-1 wait and bump ``service_coalesced``.
4. **Backpressure** — a leader that would push the number of pending
   computations past ``queue_limit`` is refused with HTTP 503
   (``service_rejections``), keeping the worker pool's queue bounded.
5. **Compute** — the leader runs the job in a thread pool through the
   engine, inside a ``service.<endpoint>`` trace span, then caches,
   resolves followers and appends an ``outcome="ok"`` ledger row.
   Only misses append ok/error rows, so ledger throughput numbers
   count real engine runs.

Shutdown is graceful: the listener closes first, in-flight
computations drain, then the pool stops.  Counters, gauges
(``service_queue_depth``) and the ``service_compute_seconds``
histogram live in a :class:`~repro.obs.metrics.MetricsRegistry`
exported at ``GET /v1/stats``.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.api.schemas import (
    API_SCHEMA,
    ErrorBody,
    REQUEST_TYPES,
    WireBody,
    describe_schema,
    parse_request,
)
from repro.errors import FullViewError, SchemaError, ServiceError
from repro.ioutil import config_digest
from repro.obs.ledger import append_run, build_row, git_sha, new_run_id
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span
from repro.service.cache import ResultCache, cache_key
from repro.service.coalesce import Coalescer
from repro.service.jobs import run_request
from repro.simulation.engine import MonteCarloConfig

__all__ = [
    "CoverageService",
]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Largest request body the server will read, in bytes.
_MAX_BODY_BYTES = 1 << 20


class CoverageService:
    """The asyncio HTTP server wrapping the :mod:`repro.api` facade.

    Parameters
    ----------
    cache:
        Result store; defaults to a memory-only
        :class:`~repro.service.cache.ResultCache`.
    queue_limit:
        Maximum computations pending at once; leaders beyond it get 503.
    service_workers:
        Threads in the compute pool.
    workers:
        Engine workers forwarded to every job (the ``--workers``
        equivalent; ``None`` defers to ``FULLVIEW_WORKERS``); not part
        of the cache key.
    metrics:
        Registry for the service counters; defaults to a fresh one.
    ledger_path:
        When set, cache misses append ``ok``/``error`` rows and disk
        hits append ``cached`` rows to this run ledger.
    """

    def __init__(
        self,
        *,
        cache: Optional[ResultCache] = None,
        queue_limit: int = 8,
        service_workers: int = 2,
        workers: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        ledger_path: Optional[Union[str, Path]] = None,
    ) -> None:
        if queue_limit < 1:
            raise ServiceError(f"queue_limit must be >= 1, got {queue_limit!r}")
        if service_workers < 1:
            raise ServiceError(
                f"service_workers must be >= 1, got {service_workers!r}"
            )
        self.cache = cache if cache is not None else ResultCache()
        self.coalescer = Coalescer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.queue_limit = queue_limit
        self.service_workers = service_workers
        self.workers = workers
        self.ledger_path = Path(ledger_path) if ledger_path is not None else None
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._git_sha = git_sha()
        self._pending = 0
        self._draining = False
        self._idle = asyncio.Event()
        self._idle.set()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._server: Optional[asyncio.base_events.Server] = None

    # -- lifecycle -----------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start accepting connections (port 0 = ephemeral)."""
        if self._server is not None:
            raise ServiceError("service already started")
        self._pool = ThreadPoolExecutor(
            max_workers=self.service_workers,
            thread_name_prefix="fullview-svc",
        )
        self._server = await asyncio.start_server(self._serve_connection, host, port)
        bound = self._server.sockets[0].getsockname()
        self.host, self.port = bound[0], bound[1]

    async def serve_forever(self) -> None:
        """Block serving requests until cancelled or :meth:`stop`."""
        if self._server is None:
            raise ServiceError("service not started")
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def stop(self, drain_timeout: float = 30.0) -> None:
        """Graceful shutdown: stop accepting, drain in-flight, stop pool."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=drain_timeout)
        except asyncio.TimeoutError:
            pass
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # -- HTTP plumbing -------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    break
                headers: Dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                # The head is read in full before any 400, so closing with
                # unread head bytes cannot reset the answer away.
                parts = request_line.decode("latin-1").split()
                if len(parts) < 2:
                    await self._refuse(writer, "malformed request line")
                    break
                method, target = parts[0].upper(), parts[1]
                raw_length = headers.get("content-length", "0") or "0"
                if not (raw_length.isascii() and raw_length.isdigit()):
                    await self._refuse(writer, f"malformed Content-Length {raw_length!r}")
                    break
                length = int(raw_length)
                if length > _MAX_BODY_BYTES:
                    await self._refuse(writer, f"body exceeds {_MAX_BODY_BYTES} bytes")
                    break
                body = await reader.readexactly(length) if length else b""
                status, payload = await self._route(method, target, body)
                keep_alive = (
                    headers.get("connection", "").lower() != "close"
                    and not self._draining
                )
                await self._respond(writer, status, payload, keep_alive=keep_alive)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _refuse(self, writer: asyncio.StreamWriter, error: str) -> None:
        """Answer a malformed request head with a 400 and close."""
        payload = ErrorBody(error=error, kind="SchemaError", status=400).to_wire()
        await self._respond(writer, 400, payload, keep_alive=False)

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        *,
        keep_alive: bool,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    async def _route(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, Any]:
        path = target.split("?", 1)[0]
        if path == "/v1/healthz":
            if method != "GET":
                return self._method_not_allowed(method, path)
            return 200, {"status": "ok", "schema": API_SCHEMA}
        if path == "/v1/schema":
            if method != "GET":
                return self._method_not_allowed(method, path)
            return 200, describe_schema()
        if path == "/v1/stats":
            if method != "GET":
                return self._method_not_allowed(method, path)
            return 200, {
                "schema": API_SCHEMA,
                "pending": self._pending,
                "inflight_keys": len(self.coalescer),
                "cache_entries": len(self.cache),
                "metrics": self.metrics.snapshot(),
            }
        if path.startswith("/v1/"):
            endpoint = path[len("/v1/"):]
            if endpoint in REQUEST_TYPES:
                if method != "POST":
                    return self._method_not_allowed(method, path)
                return await self._handle_compute(endpoint, body)
        return 404, ErrorBody(
            error=f"no route for {path}", kind="ServiceError", status=404
        ).to_wire()

    @staticmethod
    def _method_not_allowed(method: str, path: str) -> Tuple[int, Any]:
        return 405, ErrorBody(
            error=f"{method} not allowed on {path}",
            kind="ServiceError",
            status=405,
        ).to_wire()

    # -- the compute path ----------------------------------------------

    async def _handle_compute(self, endpoint: str, body: bytes) -> Tuple[int, Any]:
        self.metrics.inc("service_requests_total")
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except ValueError:
            return 400, ErrorBody(
                error="request body is not valid JSON",
                kind="SchemaError",
                status=400,
            ).to_wire()
        try:
            request = parse_request(endpoint, payload)
        except SchemaError as exc:
            self.metrics.inc("service_schema_rejections")
            return 400, ErrorBody(
                error=str(exc), kind="SchemaError", status=400
            ).to_wire()

        key = cache_key(request, self._git_sha)
        result, tier = self.cache.get(key)
        if tier == "memory":
            self.metrics.inc("service_cache_hits")
            self.metrics.inc("service_cache_hits_memory")
            return 200, self._envelope(endpoint, key, result, source="memory")
        if tier == "disk":
            self.metrics.inc("service_cache_hits")
            self.metrics.inc("service_cache_hits_disk")
            await self._append_ledger_row(
                endpoint, request, outcome="cached", wall_seconds=0.0
            )
            return 200, self._envelope(endpoint, key, result, source="disk")

        leader, future = self.coalescer.claim(key)
        if not leader:
            self.metrics.inc("service_coalesced")
            try:
                result = await asyncio.shield(future)
            except FullViewError as exc:
                return self._error_response(exc)
            except Exception as exc:  # leader crashed unexpectedly
                return 500, ErrorBody(
                    error=str(exc), kind=type(exc).__name__, status=500
                ).to_wire()
            return 200, self._envelope(endpoint, key, result, source="coalesced")

        if self._draining or self._pending >= self.queue_limit:
            self.metrics.inc("service_rejections")
            reason = "shutting down" if self._draining else "work queue is full"
            refusal = ServiceError(f"request refused: {reason}")
            self.coalescer.fail(key, refusal)
            # Retrieve the exception so a followerless future never
            # logs "exception was never retrieved".
            future.exception()
            return self._error_response(refusal, status=503)

        self._pending += 1
        self._idle.clear()
        self.metrics.set_gauge("service_queue_depth", self._pending)
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        try:
            with span(f"service.{endpoint}", key=key[:12]):
                result = await loop.run_in_executor(
                    self._pool, partial(run_request, request, workers=self.workers)
                )
        except Exception as exc:
            elapsed = time.perf_counter() - started
            self.coalescer.fail(key, exc)
            future.exception()
            await self._append_ledger_row(
                endpoint, request, outcome="error", wall_seconds=elapsed
            )
            if isinstance(exc, FullViewError):
                return self._error_response(exc)
            return 500, ErrorBody(
                error=str(exc), kind=type(exc).__name__, status=500
            ).to_wire()
        finally:
            self._pending -= 1
            self.metrics.set_gauge("service_queue_depth", self._pending)
            if self._pending == 0:
                self._idle.set()

        elapsed = time.perf_counter() - started
        self.metrics.inc("service_cache_misses")
        self.metrics.observe("service_compute_seconds", elapsed)
        self.cache.put(key, result)
        self.coalescer.resolve(key, result)
        await self._append_ledger_row(
            endpoint, request, outcome="ok", wall_seconds=elapsed
        )
        return 200, self._envelope(
            endpoint, key, result, source="computed", compute_seconds=elapsed
        )

    @staticmethod
    def _envelope(
        endpoint: str,
        key: str,
        result: Any,
        *,
        source: str,
        compute_seconds: Optional[float] = None,
    ) -> Dict[str, Any]:
        return {
            "schema": API_SCHEMA,
            "endpoint": endpoint,
            "key": key,
            "cached": source in ("memory", "disk"),
            "source": source,
            "compute_seconds": compute_seconds,
            "result": result,
        }

    @staticmethod
    def _error_response(
        error: FullViewError, status: Optional[int] = None
    ) -> Tuple[int, Any]:
        resolved = status if status is not None else 400
        return resolved, ErrorBody(
            error=str(error), kind=type(error).__name__, status=resolved
        ).to_wire()

    async def _append_ledger_row(
        self,
        endpoint: str,
        request: WireBody,
        *,
        outcome: str,
        wall_seconds: float,
    ) -> None:
        if self.ledger_path is None:
            return
        canonical = request.canonical()
        trials = int(canonical.get("trials", 0) or 0)
        engine = MonteCarloConfig(trials=1, workers=self.workers)
        row = build_row(
            run_id=new_run_id(),
            experiment=f"svc-{endpoint}",
            config_digest=config_digest(canonical),
            seed=int(canonical.get("seed", 0) or 0),
            git_sha=self._git_sha,
            executor=engine.resolved_executor(),
            workers=engine.resolved_workers(),
            wall_seconds=wall_seconds,
            outcome=outcome,
            started_unix=time.time(),
            # The request's own fault tallies are not collected yet, so
            # every fault column is 0.
            counters={"trials_completed": trials if outcome == "ok" else 0},
        )
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, append_run, self.ledger_path, row)
