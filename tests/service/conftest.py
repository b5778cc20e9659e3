"""Shared helpers for the coverage-service tests.

The server is exercised from *inside* its own event loop via raw
asyncio streams (no third-party HTTP client, no extra threads), so
tests can deterministically interleave requests with gated fake
computations.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple


async def raw_request(
    port: int,
    method: str,
    path: str,
    payload: Optional[Dict[str, Any]] = None,
    host: str = "127.0.0.1",
) -> Tuple[int, bytes]:
    """One HTTP exchange against a CoverageService; returns (status, raw body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = json.dumps(payload).encode("utf-8") if payload is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()
        status_line = await reader.readline()
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        return status, await reader.readexactly(length) if length else b""
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def http_request(
    port: int,
    method: str,
    path: str,
    payload: Optional[Dict[str, Any]] = None,
    host: str = "127.0.0.1",
) -> Tuple[int, Any]:
    """One HTTP exchange against a CoverageService; returns (status, body)."""
    status, raw = await raw_request(port, method, path, payload, host)
    return status, json.loads(raw.decode("utf-8")) if raw else None


def post(port: int, endpoint: str, payload: Dict[str, Any]):
    """Coroutine POSTing ``payload`` to ``/v1/<endpoint>``."""
    return http_request(port, "POST", f"/v1/{endpoint}", payload)
