"""Coalescing of concurrent identical requests onto one computation.

When N clients ask the coverage service the same question at the same
moment, exactly one engine run should happen: the first request to
arrive becomes the *leader* and computes; the other N-1 become
*followers* and await the leader's future.  The future carries the
result already encoded (the bytes the result cache stores), so the
followers' answers splice it and none encodes it again.  Keys are the
same content addresses the result cache uses, so "identical" means
identical in the canonical-digest sense — spelling differences never
split a computation.

The :class:`Coalescer` is event-loop-local state: every method must be
called from the loop thread, which is why there are no locks — the
dict mutations are serialized by the loop itself.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Tuple

__all__ = [
    "Coalescer",
]


class Coalescer:
    """Futures keyed by content address; one leader per key."""

    def __init__(self) -> None:
        self._inflight: Dict[str, asyncio.Future] = {}

    def claim(self, key: str) -> Tuple[bool, "asyncio.Future[Any]"]:
        """Join the in-flight computation for ``key``.

        Returns ``(leader, future)``: the first caller for a key gets
        ``leader=True`` and must eventually :meth:`resolve` or
        :meth:`fail` the future; later callers get ``leader=False`` and
        simply await it.
        """
        future = self._inflight.get(key)
        if future is not None:
            return False, future
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        return True, future

    def resolve(self, key: str, result: Any) -> None:
        """Deliver ``result`` to every waiter and retire the key.

        The service resolves with the result's JSON encoding.
        """
        future = self._inflight.pop(key, None)
        if future is not None and not future.done():
            future.set_result(result)

    def fail(self, key: str, error: BaseException) -> None:
        """Deliver ``error`` to every waiter and retire the key."""
        future = self._inflight.pop(key, None)
        if future is not None and not future.done():
            future.set_exception(error)

    def __len__(self) -> int:
        return len(self._inflight)
