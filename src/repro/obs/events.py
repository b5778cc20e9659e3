"""Typed lifecycle events, the table of what each one feeds, and a JSONL sink.

Each event is a small frozen dataclass naming one engine lifecycle
moment — a sweep starting, a chunk going out to the pool, a chunk
falling back in-process, a checkpoint hitting disk, a lifetime epoch
advancing, a sweep finishing.  :data:`TALLIES` maps every fault and
lifecycle event to the metrics counter, the progress tally and the
:class:`~repro.obs.report.RunReport` field it feeds; call sites record
a moment once through :func:`repro.obs.emit`, which applies the table
and appends the line, and :func:`~repro.obs.report.build_report` counts
trace lines through the same table, so the four views cannot drift.

The :class:`EventLog` serializes each event as one JSON line tagged
``{"kind": "event"}`` with a strictly increasing sequence number and a
monotonic ``t_ns`` timestamp (:func:`time.perf_counter_ns`), so a trace
file totally orders what happened even when wall clocks step.

Events are emitted **only in the parent process**: worker processes
start with no active log, so instrumentation inside trial tasks is
naturally silent there (worker-side activity reaches the trace as
aggregated chunk summaries instead — see :mod:`repro.obs.trace`).
As with spans and metrics, the disabled cost is one global read.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass
from typing import IO, Dict, NamedTuple, Optional, Union

from repro.errors import ObservabilityError

__all__ = [
    "CheckpointRecovered",
    "CheckpointWritten",
    "ChunkDispatched",
    "ChunkFellBack",
    "ChunkRetried",
    "EpochAdvanced",
    "EventLog",
    "PoolRespawned",
    "RunFinished",
    "RunProgress",
    "RunStarted",
    "TALLIES",
    "Tally",
    "TrialQuarantined",
    "active_event_log",
    "event_scope",
    "set_event_log",
]

#: The process-wide active event log (``None`` — the default — disables
#: event emission; :func:`repro.obs.emit` guards on it).
_ACTIVE: Optional["EventLog"] = None


@dataclass(frozen=True)
class RunStarted:
    """A trial sweep began: budget, seed and resolved worker count."""

    trials: int
    seed: int
    workers: int
    source: str = "engine"


@dataclass(frozen=True)
class ChunkDispatched:
    """A contiguous chunk of trials was submitted to the process pool."""

    chunk: int
    first_trial: int
    trials: int


@dataclass(frozen=True)
class ChunkFellBack:
    """A chunk was re-executed in-process after its future failed."""

    chunk: int
    first_trial: int
    trials: int
    reason: str


@dataclass(frozen=True)
class ChunkRetried:
    """A chunk's pool attempt failed and it was resubmitted.

    ``attempt`` is the 1-based retry index (1 = first resubmission) and
    ``reason`` names what killed the previous attempt (``"timeout"``,
    ``"broken-pool"`` or ``"worker-error"``).
    """

    chunk: int
    first_trial: int
    trials: int
    attempt: int
    reason: str


@dataclass(frozen=True)
class PoolRespawned:
    """The warm process pool was discarded and a fresh one spawned."""

    workers: int
    reason: str


@dataclass(frozen=True)
class TrialQuarantined:
    """Bisection isolated a repeatedly-failing trial; it was recorded
    as a failed :class:`~repro.simulation.engine.TrialOutcome` and the
    sweep continued without it."""

    trial: int
    error: str


@dataclass(frozen=True)
class CheckpointWritten:
    """A checkpoint reached disk (durably, post-fsync).

    ``checkpoint_kind`` distinguishes trial-level checkpoints
    (``"trial"``, from the resilient runner) from experiment-level run
    checkpoints (``"run"``, from ``fullview run --checkpoint``).  The
    name is deliberately not ``kind``: event fields are splatted into
    the JSONL line, whose ``kind`` key tags the line type itself.
    """

    path: str
    checkpoint_kind: str
    next_trial: int = 0


@dataclass(frozen=True)
class CheckpointRecovered:
    """A corrupt main checkpoint was healed from its last good backup."""

    path: str
    recovered_from: str
    next_trial: int


@dataclass(frozen=True)
class EpochAdvanced:
    """A lifetime simulation stepped one failure epoch."""

    epoch: int
    alive: int
    coverage: float


@dataclass(frozen=True)
class RunProgress:
    """A throttled heartbeat from the live progress tracker.

    Emitted parent-side by :class:`~repro.obs.progress.ProgressTracker`
    as trials complete: cumulative position (``done``/``total``/
    ``failed`` — monotone across the sweeps of one command), the
    trials/sec EWMA, the derived ETA (``None`` until a rate exists, so
    the JSON stays standard — never ``Infinity``), and the
    fault-handling tallies accumulated so far.
    """

    done: int
    total: int
    failed: int
    trials_per_sec: float
    eta_seconds: Optional[float]
    retries: int
    respawns: int
    quarantined: int
    fallbacks: int
    epochs: int


@dataclass(frozen=True)
class RunFinished:
    """A trial sweep completed (or stopped): tallies and clock readings."""

    completed: int
    failed: int
    wall_ns: int
    cpu_ns: int
    source: str = "engine"


class Tally(NamedTuple):
    """What one lifecycle event feeds besides its JSONL line."""

    #: Metrics counter bumped by one (``None``: no counter).
    counter: Optional[str]
    #: :class:`~repro.obs.progress.ProgressTracker` tally bumped by one
    #: (``None``: not tallied).
    progress: Optional[str]
    #: :class:`~repro.obs.report.RunReport` field that counts the lines.
    report: str


#: The one table of what each fault/lifecycle event feeds.  The sweep
#: bracket events (``RunStarted``/``RunFinished``) and the heartbeats
#: (``RunProgress``) carry their own payloads and are not tallied.
TALLIES: Dict[type, Tally] = {
    ChunkDispatched: Tally("chunks_dispatched", None, "chunks_dispatched"),
    ChunkRetried: Tally("chunk_retries", "retries", "chunks_retried"),
    PoolRespawned: Tally("pool_respawns", "respawns", "pools_respawned"),
    TrialQuarantined: Tally("trials_quarantined", "quarantined", "trials_quarantined"),
    ChunkFellBack: Tally("chunk_fallbacks", "fallbacks", "chunk_fallbacks"),
    CheckpointWritten: Tally("checkpoint_writes", None, "checkpoints_written"),
    CheckpointRecovered: Tally("checkpoint_recoveries", None, "checkpoints_recovered"),
    EpochAdvanced: Tally(None, "epochs", "epochs_advanced"),
}


class EventLog:
    """Append-only JSONL sink with sequence numbers and monotonic time.

    ``sink`` is any writable text file object; the log writes one line
    per event and flushes immediately, so a crashed run leaves every
    emitted event on disk.  Thread-safe: sequence assignment and the
    write happen under one lock.
    """

    def __init__(self, sink: IO[str]) -> None:
        self._sink = sink
        self._lock = threading.Lock()
        self._seq = 0

    def emit(
        self,
        event: Union[
            RunStarted,
            ChunkDispatched,
            ChunkFellBack,
            ChunkRetried,
            PoolRespawned,
            TrialQuarantined,
            CheckpointWritten,
            CheckpointRecovered,
            EpochAdvanced,
            RunProgress,
            RunFinished,
        ],
    ) -> int:
        """Append one event; returns its sequence number."""
        payload = {
            "kind": "event",
            "event": type(event).__name__,
            **asdict(event),
        }
        with self._lock:
            payload["seq"] = self._seq
            payload["t_ns"] = time.perf_counter_ns()
            self._seq += 1
            try:
                self._sink.write(json.dumps(payload) + "\n")
                self._sink.flush()
            except (OSError, ValueError) as exc:
                raise ObservabilityError(
                    f"cannot append event to JSONL sink: {exc}"
                ) from exc
        return payload["seq"]

    @property
    def emitted(self) -> int:
        """How many events have been written so far."""
        with self._lock:
            return self._seq


def active_event_log() -> Optional[EventLog]:
    """The log events currently append to (``None`` = disabled)."""
    return _ACTIVE


def set_event_log(log: Optional[EventLog]) -> Optional[EventLog]:
    """Install ``log`` as the active event log; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = log
    return previous


class event_scope:
    """Context manager scoping an active event log (restores on exit)."""

    def __init__(self, log: Optional[EventLog]) -> None:
        self._log = log
        self._previous: Optional[EventLog] = None

    def __enter__(self) -> Optional[EventLog]:
        self._previous = set_event_log(self._log)
        return self._log

    def __exit__(self, exc_type, exc, tb) -> None:
        set_event_log(self._previous)
