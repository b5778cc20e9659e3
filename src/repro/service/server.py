"""The coverage service: a stdlib-asyncio HTTP+JSON server.

One long-running process answers deploy/evaluate/estimate questions
over the ``fullview-api-v1`` wire schema (:mod:`repro.api.schemas`).
The request path is, in order:

1. **Parse** — strict body validation; any contract violation is one
   HTTP 400 ``ErrorBody``.  A malformed request head (a request line
   without a target, a ``Content-Length`` that is not a decimal
   count, a line over the 64 KiB stream limit) or an oversize body is
   a 400 too, after which the connection closes.
2. **Cache** — the request's content address
   (:func:`repro.service.cache.cache_key`) is looked up in the
   two-tier :class:`~repro.service.cache.ResultCache`, whose memory
   tier holds each result already encoded.  A memory hit is answered
   by splicing those bytes into the envelope (:meth:`CoverageService.
   _envelope`), so it never re-encodes the result; a disk hit
   additionally appends one ``outcome="cached"`` ledger row (once per
   key per process, because the entry is promoted to memory).
3. **Coalesce** — on a miss, concurrent identical requests share one
   future (:class:`~repro.service.coalesce.Coalescer`): the leader
   computes, the other N-1 wait for its encoded result and bump
   ``service_coalesced``.
4. **Backpressure** — a leader that would push the number of pending
   computations past ``queue_limit`` is refused with HTTP 503
   (``service_rejections``), keeping the worker pool's queue bounded.
5. **Compute** — the leader runs the job in a thread pool through the
   engine, inside a ``service.<endpoint>`` trace span, then caches
   (the one encode of the result), resolves followers and appends an
   ``outcome="ok"`` ledger row.  A job that raises, or a result the
   cache cannot store, fails the leader and every follower alike and
   appends an ``outcome="error"`` row instead.
   Only misses append ok/error rows, so ledger throughput numbers
   count real engine runs.

Shutdown is graceful: the listener closes first, every request already
admitted gets its answer written (ledger row included), then the pool
stops.  Counters, gauges
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

#: Longest request-head line, in bytes (asyncio's default stream limit).
_HEAD_LINE_LIMIT = 1 << 16


def _encode(payload: Any) -> bytes:
    """A small JSON body (status, schema, stats, errors) as wire bytes."""
    return json.dumps(payload).encode("utf-8")


def _error(status: int, error: str, kind: str) -> Tuple[int, bytes]:
    """An encoded ``ErrorBody`` answer."""
    return status, _encode(ErrorBody(error=error, kind=kind, status=status).to_wire())


def _failure(exc: Exception) -> Tuple[int, bytes]:
    """A job's exception as an answer: 400 for a ``FullViewError``, else 500."""
    status = 400 if isinstance(exc, FullViewError) else 500
    return _error(status, str(exc), type(exc).__name__)


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
        self._answering = 0
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
        self._server = await asyncio.start_server(
            self._serve_connection, host, port, limit=_HEAD_LINE_LIMIT
        )
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

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, answer admitted requests, stop pool."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._idle.wait()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # -- HTTP plumbing -------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
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
                except ValueError:
                    # readline() dropped a line over the stream limit.
                    await self._skip_head(reader)
                    await self._refuse(
                        writer, f"request head line exceeds {_HEAD_LINE_LIMIT} bytes"
                    )
                    break
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
                # A drain waits until every request it admitted is answered.
                self._answering += 1
                self._idle.clear()
                try:
                    status, reply = await self._route(method, target, body)
                    keep_alive = (
                        headers.get("connection", "").lower() != "close"
                        and not self._draining
                    )
                    await self._respond(writer, status, reply, keep_alive=keep_alive)
                finally:
                    self._answering -= 1
                    if self._answering == 0:
                        self._idle.set()
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

    @staticmethod
    async def _skip_head(reader: asyncio.StreamReader) -> None:
        """Read what is left of an overlong head, up to the body cap.

        Closing with unread head bytes could reset the 400 away.  Each
        line readline() refuses drops at least ``_HEAD_LINE_LIMIT`` bytes.
        """
        budget = _MAX_BODY_BYTES
        while budget > 0:
            try:
                line = await reader.readline()
            except ValueError:
                budget -= _HEAD_LINE_LIMIT
                continue
            if line in (b"\r\n", b"\n", b""):
                return
            budget -= len(line)

    async def _refuse(self, writer: asyncio.StreamWriter, error: str) -> None:
        """Answer a malformed request head with a 400 and close."""
        status, body = _error(400, error, "SchemaError")
        await self._respond(writer, status, body, keep_alive=False)

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        *,
        keep_alive: bool,
    ) -> None:
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
    ) -> Tuple[int, bytes]:
        path = target.split("?", 1)[0]
        if path == "/v1/healthz":
            if method != "GET":
                return self._method_not_allowed(method, path)
            return 200, _encode({"status": "ok", "schema": API_SCHEMA})
        if path == "/v1/schema":
            if method != "GET":
                return self._method_not_allowed(method, path)
            return 200, _encode(describe_schema())
        if path == "/v1/stats":
            if method != "GET":
                return self._method_not_allowed(method, path)
            return 200, _encode({
                "schema": API_SCHEMA,
                "pending": self._pending,
                "inflight_keys": len(self.coalescer),
                "cache_entries": len(self.cache),
                "metrics": self.metrics.snapshot(),
            })
        if path.startswith("/v1/"):
            endpoint = path[len("/v1/"):]
            if endpoint in REQUEST_TYPES:
                if method != "POST":
                    return self._method_not_allowed(method, path)
                return await self._handle_compute(endpoint, body)
        return _error(404, f"no route for {path}", "ServiceError")

    @staticmethod
    def _method_not_allowed(method: str, path: str) -> Tuple[int, bytes]:
        return _error(405, f"{method} not allowed on {path}", "ServiceError")

    # -- the compute path ----------------------------------------------

    async def _handle_compute(self, endpoint: str, body: bytes) -> Tuple[int, bytes]:
        self.metrics.inc("service_requests_total")
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except ValueError:
            return _error(400, "request body is not valid JSON", "SchemaError")
        try:
            request = parse_request(endpoint, payload)
        except SchemaError as exc:
            self.metrics.inc("service_schema_rejections")
            return _error(400, str(exc), "SchemaError")

        key = cache_key(request, self._git_sha)
        encoded, tier = self.cache.get(key)
        if tier == "memory":
            self.metrics.inc("service_cache_hits")
            self.metrics.inc("service_cache_hits_memory")
            return 200, self._envelope(endpoint, key, encoded, source="memory")
        if tier == "disk":
            self.metrics.inc("service_cache_hits")
            self.metrics.inc("service_cache_hits_disk")
            await self._append_ledger_row(
                endpoint, request, outcome="cached", wall_seconds=0.0
            )
            return 200, self._envelope(endpoint, key, encoded, source="disk")

        leader, future = self.coalescer.claim(key)
        if not leader:
            self.metrics.inc("service_coalesced")
            try:
                encoded = await asyncio.shield(future)
            except Exception as exc:  # the leader's job failed or crashed
                return _failure(exc)
            return 200, self._envelope(endpoint, key, encoded, source="coalesced")

        if self._draining or self._pending >= self.queue_limit:
            self.metrics.inc("service_rejections")
            reason = "shutting down" if self._draining else "work queue is full"
            refusal = ServiceError(f"request refused: {reason}")
            self.coalescer.fail(key, refusal)
            # Retrieve the exception so a followerless future never
            # logs "exception was never retrieved".
            future.exception()
            return _error(503, str(refusal), "ServiceError")

        self._pending += 1
        self.metrics.set_gauge("service_queue_depth", self._pending)
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        try:
            with span(f"service.{endpoint}", key=key[:12]):
                result = await loop.run_in_executor(
                    self._pool, partial(run_request, request, workers=self.workers)
                )
            elapsed = time.perf_counter() - started
            # A result the cache cannot store fails like the job itself.
            encoded = self.cache.put(key, result)
        except Exception as exc:
            elapsed = time.perf_counter() - started
            self.coalescer.fail(key, exc)
            future.exception()
            await self._append_ledger_row(
                endpoint, request, outcome="error", wall_seconds=elapsed
            )
            return _failure(exc)
        finally:
            self._pending -= 1
            self.metrics.set_gauge("service_queue_depth", self._pending)

        self.metrics.inc("service_cache_misses")
        self.metrics.observe("service_compute_seconds", elapsed)
        self.coalescer.resolve(key, encoded)
        await self._append_ledger_row(
            endpoint, request, outcome="ok", wall_seconds=elapsed
        )
        return 200, self._envelope(
            endpoint, key, encoded, source="computed", compute_seconds=elapsed
        )

    @staticmethod
    def _envelope(
        endpoint: str,
        key: str,
        encoded: bytes,
        *,
        source: str,
        compute_seconds: Optional[float] = None,
    ) -> bytes:
        """The answer envelope around an already-encoded result.

        Byte-identical to ``json.dumps`` of this dict with the result
        in place of ``None``: only the small head is encoded, and the
        trailing ``null}`` is swapped for ``encoded`` and the brace, so
        an answer never re-encodes its result.
        """
        envelope = json.dumps({
            "schema": API_SCHEMA,
            "endpoint": endpoint,
            "key": key,
            "cached": source in ("memory", "disk"),
            "source": source,
            "compute_seconds": compute_seconds,
            "result": None,
        })
        head = envelope[: -len("null}")].encode("utf-8")
        return b"".join((head, encoded, b"}"))

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
