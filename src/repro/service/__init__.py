"""The coverage service: serve the paper's estimators over HTTP.

The ROADMAP north-star has many clients asking overlapping deployment
questions; this package turns the one-shot :mod:`repro.api` facade
into a long-running stdlib-asyncio server that computes each distinct
question once and serves it many times:

- :mod:`repro.service.server` — the HTTP listener, request routing,
  backpressure and graceful drain (:class:`CoverageService`);
- :mod:`repro.service.cache` — two-tier content-addressed result
  cache keyed by (config digest, seed, git sha);
- :mod:`repro.service.coalesce` — concurrent identical requests share
  one in-flight computation;
- :mod:`repro.service.jobs` — the synchronous request-to-facade
  mapping, executed in a worker pool;
- :mod:`repro.service.client` — a blocking stdlib client for tests,
  benchmarks and scripts.

Start one from the CLI with ``fullview serve``.
"""

from __future__ import annotations

from repro.service.cache import CACHE_FORMAT, ResultCache, cache_key
from repro.service.client import ServiceClient
from repro.service.coalesce import Coalescer
from repro.service.server import CoverageService

__all__ = [
    "CACHE_FORMAT",
    "Coalescer",
    "CoverageService",
    "ResultCache",
    "ServiceClient",
    "cache_key",
]
