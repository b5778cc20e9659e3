"""Counters, gauges and fixed-bucket histograms for engine telemetry.

A :class:`MetricsRegistry` is a thread-safe, name-keyed store of three
instrument kinds:

- **counters** — monotone integer totals (``trials_completed``,
  ``chunk_fallbacks``, ``checkpoint_writes``, ``pool_warmups``);
- **gauges** — last-written floats (``executor_workers``);
- **histograms** — fixed-bucket distributions (``trial_seconds``),
  with an overflow bucket plus count/total/min/max, so per-trial wall
  times summarize without storing every observation.

The fault and lifecycle counters (``chunk_retries``,
``checkpoint_writes`` ...) are not bumped by their call sites: those
call :func:`repro.obs.emit`, and :data:`~repro.obs.events.TALLIES`
names the counter each event feeds.  The trial counters are bumped by
the engine's sweep bracket, net of trials resumed from a checkpoint.

Like tracing, metrics are **off by default**: the process-wide active
registry is ``None`` and instrumented call sites guard on
:func:`active_metrics`, so the disabled cost is one global read.
:meth:`MetricsRegistry.export_json` snapshots the registry to disk via
a durable atomic write (fsync before rename) with a schema/format tag
and the package version, so trajectories of snapshots are comparable
across PRs.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from repro._version import __version__
from repro.errors import InvalidParameterError
from repro.ioutil import write_json_atomic

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "Histogram",
    "METRICS_FORMAT",
    "MetricsRegistry",
    "active_metrics",
    "metrics_scope",
    "set_metrics",
]

#: Schema tag written into every metrics snapshot.
METRICS_FORMAT = "fullview-metrics-v1"

#: Default histogram bucket upper bounds for durations in seconds
#: (10 us .. 60 s, roughly decade-spaced; observations above the last
#: bound land in the overflow bucket).
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1e-5,
    1e-4,
    1e-3,
    1e-2,
    1e-1,
    1.0,
    10.0,
    60.0,
)

#: The process-wide active registry (``None`` — the default — disables
#: metrics collection; call sites guard on :func:`active_metrics`).
_ACTIVE: Optional["MetricsRegistry"] = None


class Histogram:
    """A fixed-bucket histogram with overflow, count, sum, min and max.

    ``buckets`` are ascending upper bounds; an observation lands in the
    first bucket whose bound is >= the value, or in the overflow bucket
    past the last bound.  Not thread-safe on its own — the owning
    registry serializes access.
    """

    __slots__ = ("buckets", "counts", "count", "total", "min", "max")

    def __init__(self, buckets: Sequence[float] = DEFAULT_TIME_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise InvalidParameterError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise InvalidParameterError(
                f"bucket bounds must be strictly ascending, got {bounds!r}"
            )
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready view of the histogram state."""
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Thread-safe named counters, gauges and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    def inc(self, name: str, amount: int = 1) -> int:
        """Increment counter ``name`` by ``amount``; returns the new total."""
        if amount < 0:
            raise InvalidParameterError(
                f"counters are monotone; cannot inc {name!r} by {amount!r}"
            )
        with self._lock:
            value = self._counters.get(name, 0) + amount
            self._counters[name] = value
        return value

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> None:
        """Record ``value`` into histogram ``name`` (created on first use)."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = Histogram(buckets)
                self._histograms[name] = histogram
            histogram.observe(value)

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def gauge(self, name: str) -> Optional[float]:
        """Current value of gauge ``name`` (``None`` if never set)."""
        with self._lock:
            return self._gauges.get(name)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of every instrument, schema-tagged."""
        with self._lock:
            return {
                "format": METRICS_FORMAT,
                "version": __version__,
                "exported_unix": time.time(),
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "histograms": {
                    name: histogram.snapshot()
                    for name, histogram in sorted(self._histograms.items())
                },
            }

    def export_json(self, path: Union[str, Path]) -> Path:
        """Durably write :meth:`snapshot` to ``path`` (atomic, fsynced)."""
        return write_json_atomic(path, self.snapshot())


def active_metrics() -> Optional[MetricsRegistry]:
    """The registry instrumentation currently feeds (``None`` = disabled)."""
    return _ACTIVE


def set_metrics(registry: Optional[MetricsRegistry]) -> Optional[MetricsRegistry]:
    """Install ``registry`` as the active registry; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    return previous


class metrics_scope:
    """Context manager scoping an active registry (restores on exit)."""

    def __init__(self, registry: Optional[MetricsRegistry]) -> None:
        self._registry = registry
        self._previous: Optional[MetricsRegistry] = None

    def __enter__(self) -> Optional[MetricsRegistry]:
        self._previous = set_metrics(self._registry)
        return self._registry

    def __exit__(self, exc_type, exc, tb) -> None:
        set_metrics(self._previous)
