"""Live run progress: throttled heartbeats, EWMA throughput, ETA, status.

The rest of :mod:`repro.obs` is a flight recorder — spans, events and
metrics are written as they happen but only *consumable* after the run.
This module is the cockpit view: a thread-safe :class:`ProgressTracker`
fed **parent-side** by the engine's shared sweep bracket (``begin`` at
sweep start, ``advance`` on every batch the sweep loop takes, ``finish``
at the end; :mod:`repro.simulation.engine`) and by
:func:`repro.obs.emit`, which bumps the fault/lifecycle tallies named
in :data:`~repro.obs.events.TALLIES`.  No new state ever crosses the
worker seam.  The tracker emits throttled
:class:`~repro.obs.events.RunProgress` heartbeat events into the trace
JSONL and, optionally, keeps a small live *status file* up to date via
atomic replacement — the file ``fullview watch`` tails.

Each heartbeat carries the sweep position (trials done/total/failed), a
trials/sec EWMA, the derived ETA and the fault-handling tallies
(retries, respawns, quarantines, fallbacks, epochs).  Heartbeats are
throttled to at most one per ``heartbeat_seconds`` except at forced
moments (sweep begin/finish and final close), so telemetry cost stays
bounded however many trials complete per second; totals accumulate
across sweeps under one tracker, so ``done`` is monotone over a whole
multi-experiment command.

Like tracing, metrics and events, progress is **off by default**: the
process-wide active tracker is ``None``, its feeders guard on
:func:`active_progress`, and the disabled cost is one global read.
Nothing here touches random state — progress-tracked and untracked
runs are bit-identical (pinned in ``tests/obs/test_identity.py``).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.errors import InvalidParameterError
from repro.obs.events import TALLIES, RunProgress, active_event_log

__all__ = [
    "DEFAULT_HEARTBEAT_SECONDS",
    "NOTE_KINDS",
    "ProgressTracker",
    "STATUS_FORMAT",
    "active_progress",
    "progress_scope",
    "set_progress",
]

#: Schema tag written into every live status file.
STATUS_FORMAT = "fullview-status-v1"

#: Default minimum spacing between heartbeats (seconds).
DEFAULT_HEARTBEAT_SECONDS = 0.5

#: Fault/lifecycle tallies a tracker accumulates via :meth:`ProgressTracker.note`
#: — the progress column of :data:`~repro.obs.events.TALLIES`, in table order.
NOTE_KINDS = tuple(
    tally.progress for tally in TALLIES.values() if tally.progress is not None
)

#: EWMA smoothing factor for the instantaneous trials/sec estimate.
_EWMA_ALPHA = 0.3

#: Clock checks per heartbeat window.  ``advance`` only consults the
#: clock every *stride* trials, with the stride sized so roughly this
#: many checks land inside one ``heartbeat_seconds`` interval — cheap
#: trials amortise the clock away, slow trials degrade to a check per
#: advance and heartbeats still land on time.
_CHECKS_PER_HEARTBEAT = 8

#: The process-wide active tracker (``None`` — the default — disables
#: progress; its feeders guard on :func:`active_progress`).
_ACTIVE: Optional["ProgressTracker"] = None


class ProgressTracker:
    """Run-progress accumulator with throttled emission.

    Concurrency contract: *single producer, any readers*.  The feed
    methods (:meth:`begin`/:meth:`advance`/:meth:`note`/:meth:`finish`)
    are called from the one parent thread draining executor batches —
    except :meth:`note`, which takes the lock and so is also safe from
    trial threads (lifetime epochs are emitted from them); the read side
    (:meth:`snapshot`, the properties, a ``watch`` follower) is safe
    from any thread at any time.

    Parameters
    ----------
    status_path:
        Optional live status file; every heartbeat atomically replaces
        it with a ``fullview-status-v1`` JSON document (rename-based,
        so a reader can never observe a torn status).
    heartbeat_seconds:
        Minimum spacing between non-forced heartbeats.
    run_id:
        Identifier stamped into the status file (usually the owning
        :class:`~repro.obs.ObsContext`'s run id).
    """

    def __init__(
        self,
        status_path: Optional[Union[str, Path]] = None,
        heartbeat_seconds: float = DEFAULT_HEARTBEAT_SECONDS,
        run_id: Optional[str] = None,
    ) -> None:
        if heartbeat_seconds < 0.0:
            raise InvalidParameterError(
                f"heartbeat_seconds must be >= 0, got {heartbeat_seconds!r}"
            )
        self.status_path = Path(status_path) if status_path is not None else None
        self.heartbeat_seconds = float(heartbeat_seconds)
        self.run_id = run_id
        self._lock = threading.Lock()
        self._total = 0
        self._done = 0
        self._failed = 0
        self._notes: Dict[str, int] = {kind: 0 for kind in NOTE_KINDS}
        self._rate: Optional[float] = None
        self._started_ns = time.perf_counter_ns()
        self._last_check_ns = self._started_ns
        self._last_check_done = 0
        self._next_check_done = 1
        self._last_emit_ns: Optional[int] = None
        self._last_status_ns: Optional[int] = None
        self._heartbeats = 0
        self._finished = False

    # ------------------------------------------------------------------
    # feeding (the sweep bracket and ``repro.obs.emit``)

    def begin(self, trials: int) -> None:
        """A sweep of ``trials`` started; totals accumulate across sweeps."""
        if trials < 0:
            raise InvalidParameterError(f"trials must be >= 0, got {trials!r}")
        with self._lock:
            self._total += trials
        self._emit(force=True)

    def advance(self, count: int, failed: int = 0) -> None:
        """``count`` trials completed (``failed`` of them with errors).

        The hot path is count bookkeeping only: the clock, the EWMA and
        the heartbeat throttle run every *stride* trials (sized from the
        observed rate, see :data:`_CHECKS_PER_HEARTBEAT`), so a sweep of
        microsecond-cheap trials pays integer adds per batch, not clock
        reads.
        """
        if count <= 0:
            return
        # Lock-free fast path: the feed is single-producer (the sweep
        # bracket advances from the one thread draining batches), so
        # plain increments cannot race each other; concurrent *readers*
        # see either the old or the new count, never a torn one.
        self._done += count
        if failed:
            self._failed += failed
        if self._done < self._next_check_done:
            return
        with self._lock:
            now = time.perf_counter_ns()
            elapsed = now - self._last_check_ns
            advanced = self._done - self._last_check_done
            if elapsed > 0 and advanced > 0:
                instantaneous = advanced / (elapsed / 1e9)
                self._rate = (
                    instantaneous
                    if self._rate is None
                    else _EWMA_ALPHA * instantaneous + (1.0 - _EWMA_ALPHA) * self._rate
                )
            self._last_check_ns = now
            self._last_check_done = self._done
            stride = 1
            if self._rate is not None and self.heartbeat_seconds > 0.0:
                stride = max(
                    1,
                    int(self._rate * self.heartbeat_seconds / _CHECKS_PER_HEARTBEAT),
                )
            self._next_check_done = self._done + stride
        self._emit()

    def note(self, kind: str, count: int = 1) -> None:
        """Tally one fault-handling/lifecycle moment (see :data:`NOTE_KINDS`)."""
        if kind not in self._notes:
            raise InvalidParameterError(
                f"unknown progress note kind {kind!r}; known: {NOTE_KINDS}"
            )
        with self._lock:
            self._notes[kind] += count
        self._emit()

    def finish(self) -> None:
        """A sweep completed; force one heartbeat at the boundary."""
        self._emit(force=True)

    def close(self) -> None:
        """The whole run is over: final forced heartbeat, status ``finished``."""
        with self._lock:
            self._finished = True
        self._emit(force=True)

    # ------------------------------------------------------------------
    # reading

    @property
    def done(self) -> int:
        """Trials completed so far (monotone, across sweeps)."""
        with self._lock:
            return self._done

    @property
    def total(self) -> int:
        """Trials requested so far (accumulated across sweeps)."""
        with self._lock:
            return self._total

    @property
    def heartbeats(self) -> int:
        """Heartbeats emitted (events and/or status writes)."""
        with self._lock:
            return self._heartbeats

    def eta_seconds(self) -> Optional[float]:
        """Estimated seconds to completion (``None`` before a rate exists)."""
        with self._lock:
            return self._eta_locked()

    def _eta_locked(self) -> Optional[float]:
        remaining = self._total - self._done
        if remaining <= 0:
            return 0.0
        if self._rate is None or self._rate <= 0.0:
            return None
        return remaining / self._rate

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready ``fullview-status-v1`` view of the tracker state."""
        with self._lock:
            return {
                "format": STATUS_FORMAT,
                "run_id": self.run_id,
                "state": "finished" if self._finished else "running",
                "done": self._done,
                "total": self._total,
                "failed": self._failed,
                "trials_per_sec": self._rate if self._rate is not None else 0.0,
                "eta_seconds": self._eta_locked(),
                "elapsed_seconds": (
                    (time.perf_counter_ns() - self._started_ns) / 1e9
                ),
                "heartbeats": self._heartbeats,
                "updated_unix": time.time(),
                **dict(self._notes),
            }

    # ------------------------------------------------------------------
    # emission

    def _emit(self, force: bool = False) -> None:
        now = time.perf_counter_ns()
        with self._lock:
            if (
                not force
                and self._last_emit_ns is not None
                and now - self._last_emit_ns < self.heartbeat_seconds * 1e9
            ):
                return
            self._last_emit_ns = now
            self._heartbeats += 1
            # The status file has its own, stricter throttle: a rename
            # costs real milliseconds on some filesystems, so forced
            # *event* heartbeats (every sweep begin/finish) don't each
            # rewrite it.  It is written on the first heartbeat, at the
            # final close (``state: finished`` must land), and otherwise
            # at most once per heartbeat interval.
            write_status = self.status_path is not None and (
                self._finished
                or self._last_status_ns is None
                or now - self._last_status_ns >= self.heartbeat_seconds * 1e9
            )
            if write_status:
                self._last_status_ns = now
            event = RunProgress(
                done=self._done,
                total=self._total,
                failed=self._failed,
                trials_per_sec=self._rate if self._rate is not None else 0.0,
                eta_seconds=self._eta_locked(),
                **self._notes,
            )
        log = active_event_log()
        if log is not None:
            log.emit(event)
        if write_status:
            self._write_status()

    def _write_status(self) -> None:
        # Atomic rename so a reader never sees a torn document — but no
        # fsync: the status file is advisory and goes stale the moment
        # the run dies, while an fsync costs milliseconds per heartbeat.
        self.status_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.status_path.with_suffix(self.status_path.suffix + ".tmp")
        tmp.write_text(json.dumps(self.snapshot()), encoding="utf-8")
        os.replace(tmp, self.status_path)


def active_progress() -> Optional[ProgressTracker]:
    """The tracker progress currently feeds (``None`` = disabled)."""
    return _ACTIVE


def set_progress(tracker: Optional[ProgressTracker]) -> Optional[ProgressTracker]:
    """Install ``tracker`` as the active tracker; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracker
    return previous


class progress_scope:
    """Context manager scoping an active tracker (restores on exit)."""

    def __init__(self, tracker: Optional[ProgressTracker]) -> None:
        self._tracker = tracker
        self._previous: Optional[ProgressTracker] = None

    def __enter__(self) -> Optional[ProgressTracker]:
        self._previous = set_progress(self._tracker)
        return self._tracker

    def __exit__(self, exc_type, exc, tb) -> None:
        set_progress(self._previous)
