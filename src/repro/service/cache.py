"""Content-addressed result cache for the coverage service.

Every service computation is deterministic given its request body (the
seed is part of the body) and the code that runs it, so results are
cached under a content address: :func:`cache_key` hashes the request's
canonical configuration digest together with the seed and the git sha
via the same :func:`repro.ioutil.config_digest` that stamps
checkpoints and fills ledger rows.  Two requests that mean the same
computation — however they were spelled — share one cache entry; a new
code revision gets a fresh namespace for free.

:class:`ResultCache` layers a process-local dict over an optional
on-disk store.  The memory tier holds each result's JSON encoding,
made exactly once — by :meth:`ResultCache.put` or when a disk entry is
promoted — so the service answers a hit by splicing those bytes into
its envelope instead of encoding the result again.  Disk entries are
``fullview-cache-v1`` JSON envelopes around the result object, written
through :func:`repro.ioutil.write_json_atomic` (fsync before rename)
and checksum-stamped, so a torn or hand-edited entry fails
verification and is treated as a miss rather than served as truth.
Disk hits are promoted into memory, which is what lets the service
ledger count a persistent-cache hit exactly once per process.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.api.schemas import API_SCHEMA, WireBody
from repro.errors import ServiceError
from repro.ioutil import (
    config_digest,
    stamp_checksum,
    verify_checksum,
    write_json_atomic,
)

__all__ = [
    "CACHE_FORMAT",
    "ResultCache",
    "cache_key",
]

#: Schema tag written into every on-disk cache envelope.
CACHE_FORMAT = "fullview-cache-v1"


def cache_key(request: WireBody, git_sha: Optional[str] = None) -> str:
    """The content address of ``request``'s result.

    The key is ``config_digest`` over the tuple the ISSUE prescribes:
    the request's canonical configuration digest (which already folds
    in every default), its seed, and the git sha of the serving code.
    ``git_sha=None`` (an unversioned working tree) still produces a
    stable key — it just shares a namespace across such trees.
    """
    canonical = request.canonical()
    return config_digest(
        {
            "schema": API_SCHEMA,
            "config_digest": config_digest(canonical),
            "seed": canonical.get("seed"),
            "git_sha": git_sha,
        }
    )


def _encode(result: Any) -> bytes:
    # Default separators: the same bytes ``json.dumps`` of the whole
    # response envelope would put after its ``"result": ``.
    return json.dumps(result).encode("utf-8")


class ResultCache:
    """Two-tier (memory over optional disk) content-addressed cache.

    Memory holds each result's UTF-8 JSON encoding; disk holds the
    result object inside a checksummed envelope.  Floats round-trip
    through ``repr``, so re-encoding a disk entry's parsed result gives
    the bytes the computing process encoded.

    Not safe for concurrent mutation from multiple threads; the service
    only touches it from the event-loop thread.  Distinct *processes*
    may share a cache directory: writes are atomic renames, so readers
    never observe torn files.
    """

    def __init__(self, cache_dir: Optional[Union[str, Path]] = None) -> None:
        self._memory: Dict[str, bytes] = {}
        self._dir: Optional[Path] = None
        if cache_dir is not None:
            self._dir = Path(cache_dir)
            try:
                self._dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ServiceError(
                    f"cache directory {self._dir} is unusable: {exc}"
                ) from exc

    @property
    def directory(self) -> Optional[Path]:
        """The on-disk store's root (``None`` = memory-only cache)."""
        return self._dir

    def _entry_path(self, key: str) -> Path:
        # Two-level fan-out keeps any one directory small even with
        # hundreds of thousands of entries.
        assert self._dir is not None
        return self._dir / key[:2] / f"{key}.json"

    def get(self, key: str) -> Tuple[Optional[bytes], Optional[str]]:
        """Look up ``key``; returns ``(encoded result, tier)``.

        ``tier`` is ``"memory"`` or ``"disk"`` on a hit and ``None`` on
        a miss.  A memory hit is one dict lookup.  A disk hit parses and
        verifies the entry, encodes its result once and promotes the
        bytes to memory.  A disk entry that fails JSON parsing, checksum
        verification or format matching is silently a miss — corruption
        must never be served as a result.
        """
        encoded = self._memory.get(key)
        if encoded is not None:
            return encoded, "memory"
        if self._dir is None:
            return None, None
        path = self._entry_path(key)
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None, None
        if (
            not isinstance(envelope, dict)
            or envelope.get("format") != CACHE_FORMAT
            or envelope.get("key") != key
            or not verify_checksum(envelope)
        ):
            return None, None
        encoded = _encode(envelope.get("result"))
        self._memory[key] = encoded
        return encoded, "disk"

    def put(self, key: str, result: Any) -> bytes:
        """Store ``result`` under ``key``; returns its encoding.

        The result is encoded once, into memory.  With a directory the
        ``fullview-cache-v1`` envelope around the result object (its
        checksum taken over that object) is written to disk first, so a
        failed write raises and leaves no entry in either tier.
        """
        encoded = _encode(result)
        if self._dir is not None:
            envelope = stamp_checksum(
                {"format": CACHE_FORMAT, "key": key, "result": result}
            )
            write_json_atomic(self._entry_path(key), envelope)
        self._memory[key] = encoded
        return encoded

    def __len__(self) -> int:
        return len(self._memory)
