"""``repro.obs`` — structured run telemetry for the Monte-Carlo engine.

Four zero-dependency pieces, all off by default and near-free when
disabled:

- :mod:`repro.obs.trace` — nested, thread-safe spans on
  ``time.perf_counter_ns`` whose records survive the process-pool
  boundary as per-chunk aggregates;
- :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket
  histograms with a durable atomic JSON snapshot exporter;
- :mod:`repro.obs.events` — typed lifecycle events appended to a JSONL
  sink with sequence numbers and monotonic timestamps, and
  :data:`~repro.obs.events.TALLIES`, the one table of which counter,
  progress tally and report field each fault/lifecycle event feeds;
- :mod:`repro.obs.report` — a run-report builder (trials/sec, wall vs.
  CPU, worker utilization, fallback counts, slowest trials) over the
  trace file.

The live layer sits on the same substrate:

- :mod:`repro.obs.progress` — a thread-safe progress tracker fed
  parent-side by the engine's sweep bracket, emitting throttled
  ``RunProgress`` heartbeats and an atomically-replaced live status
  file;
- :mod:`repro.obs.ledger` — a persistent append-only run ledger
  (one ``fullview-ledger-v1`` row per observed run);
- :mod:`repro.obs.export` — Chrome-trace / flamegraph / Prometheus
  exporters over recorded artifacts.

:func:`emit` is how the engine records a lifecycle moment: once, at its
call site, and the table decides what else it feeds.
:class:`ObsContext` (usually via :func:`observe`) bundles the
collectors, installs them as the process-wide actives, and on exit
writes the trace JSONL (manifest first, then events as they happened,
then span/trial/chunk summaries and a metrics snapshot), the metrics
JSON, the final ``finished`` status and the ledger row.
Instrumentation never touches random state: traced and untraced runs
produce bit-identical trial outcomes.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import IO, Any, Dict, Mapping, Optional, Union

from repro._version import __version__
from repro.errors import ObservabilityError
from repro.obs.events import (
    TALLIES,
    EventLog,
    active_event_log,
    event_scope,
    set_event_log,
)
from repro.obs.ledger import append_run, build_row, git_sha, new_run_id
from repro.obs.metrics import MetricsRegistry, active_metrics, set_metrics
from repro.obs.progress import (
    DEFAULT_HEARTBEAT_SECONDS,
    ProgressTracker,
    active_progress,
    set_progress,
)
from repro.obs.report import TRACE_FORMAT
from repro.obs.trace import TraceRecorder, recording, set_recorder, span
from repro.ioutil import config_digest

__all__ = [
    "ObsContext",
    "emit",
    "obs_self_check",
    "observe",
]

#: Span iterations used by the self-check's overhead estimate.
_SELF_CHECK_SPANS = 20_000


def emit(event: Any) -> None:
    """Record one engine moment in every active view.

    Bumps the metrics counter and the progress tally that
    :data:`~repro.obs.events.TALLIES` names for the event's type, then
    appends the event's JSONL line.  Each view is skipped when it has
    no active sink, so with telemetry off this costs a table lookup and
    at most three global reads.
    """
    tally = TALLIES.get(type(event))
    if tally is not None:
        metrics = active_metrics()
        if metrics is not None and tally.counter is not None:
            metrics.inc(tally.counter)
        progress = active_progress()
        if progress is not None and tally.progress is not None:
            progress.note(tally.progress)
    log = active_event_log()
    if log is not None:
        log.emit(event)


class ObsContext:
    """One run's telemetry: recorder + metrics + event log + sinks.

    Entering installs the collectors as the process-wide actives (the
    previous actives are restored on exit, so contexts nest).  On exit
    the trace JSONL gains the span summaries, per-trial wall times,
    chunk traces and a metrics snapshot, and the metrics JSON is
    exported durably.  A context created with neither sink is inert:
    entering it changes nothing, so call sites need no conditionals.
    """

    def __init__(
        self,
        trace_path: Optional[Union[str, Path]] = None,
        metrics_path: Optional[Union[str, Path]] = None,
        meta: Optional[Mapping[str, Any]] = None,
        status_path: Optional[Union[str, Path]] = None,
        ledger_path: Optional[Union[str, Path]] = None,
        heartbeat_seconds: float = DEFAULT_HEARTBEAT_SECONDS,
    ) -> None:
        self.trace_path = Path(trace_path) if trace_path is not None else None
        self.metrics_path = Path(metrics_path) if metrics_path is not None else None
        self.status_path = Path(status_path) if status_path is not None else None
        self.ledger_path = Path(ledger_path) if ledger_path is not None else None
        self.meta: Dict[str, Any] = dict(meta or {})
        self.enabled = any(
            sink is not None
            for sink in (
                self.trace_path,
                self.metrics_path,
                self.status_path,
                self.ledger_path,
            )
        )
        self.run_id: Optional[str] = new_run_id() if self.enabled else None
        self.recorder: Optional[TraceRecorder] = (
            TraceRecorder() if self.enabled else None
        )
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if self.enabled else None
        )
        self.progress: Optional[ProgressTracker] = (
            ProgressTracker(
                status_path=self.status_path,
                heartbeat_seconds=heartbeat_seconds,
                run_id=self.run_id,
            )
            if self.enabled
            else None
        )
        self.event_log: Optional[EventLog] = None
        self._trace_file: Optional[IO[str]] = None
        self._previous: Optional[tuple] = None
        self._started_unix: Optional[float] = None
        self._started_perf_ns: Optional[int] = None

    def __enter__(self) -> "ObsContext":
        if not self.enabled:
            return self
        self._started_unix = time.time()
        self._started_perf_ns = time.perf_counter_ns()
        if self.trace_path is not None:
            self.trace_path.parent.mkdir(parents=True, exist_ok=True)
            try:
                self._trace_file = open(self.trace_path, "w", encoding="utf-8")
            except OSError as exc:
                raise ObservabilityError(
                    f"cannot open trace sink {self.trace_path}: {exc}"
                ) from exc
            self._trace_file.write(_json_line(self._manifest()))
            self._trace_file.flush()
            self.event_log = EventLog(self._trace_file)
        self._previous = (
            set_recorder(self.recorder),
            set_metrics(self.metrics),
            set_event_log(self.event_log),
            set_progress(self.progress),
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self.enabled:
            return
        if self._previous is not None:
            prev_recorder, prev_metrics, prev_log, prev_progress = self._previous
            set_recorder(prev_recorder)
            set_metrics(prev_metrics)
            set_event_log(prev_log)
            set_progress(prev_progress)
            self._previous = None
        # The final heartbeat (state "finished") must land in the trace
        # before the tail summaries, while the event log is still open.
        if self.progress is not None:
            with event_scope(self.event_log):
                self.progress.close()
        if self._trace_file is not None:
            try:
                self._write_trace_tail()
            finally:
                self._trace_file.close()
                self._trace_file = None
        if self.metrics_path is not None and self.metrics is not None:
            self.metrics.export_json(self.metrics_path)
        if self.ledger_path is not None:
            append_run(self.ledger_path, self._ledger_row(exc_type))

    def _manifest(self) -> Dict[str, Any]:
        return {
            "kind": "manifest",
            "format": TRACE_FORMAT,
            "version": __version__,
            "created_unix": time.time(),
            "run_id": self.run_id,
            "meta": self.meta,
        }

    def _ledger_row(self, exc_type: Optional[type]) -> Dict[str, Any]:
        """The run's ``fullview-ledger-v1`` row, from metrics + clocks."""
        assert self.metrics is not None and self.run_id is not None
        snapshot = self.metrics.snapshot()
        counters: Mapping[str, Any] = snapshot.get("counters", {})
        gauges: Mapping[str, Any] = snapshot.get("gauges", {})
        executor = "unknown"
        selected = {
            name[len("executor_selected_"):]: count
            for name, count in counters.items()
            if name.startswith("executor_selected_")
        }
        if selected:
            executor = max(selected, key=lambda kind: (selected[kind], kind))
        workers = max(1, int(gauges.get("executor_workers", 1)))
        wall_seconds = 0.0
        if self._started_perf_ns is not None:
            wall_seconds = (time.perf_counter_ns() - self._started_perf_ns) / 1e9
        seed = self.meta.get("seed")
        return build_row(
            run_id=self.run_id,
            experiment=str(self.meta.get("experiment", self.meta.get("command", "?"))),
            config_digest=config_digest(self.meta),
            seed=int(seed) if seed is not None else None,
            git_sha=git_sha(),
            executor=executor,
            workers=workers,
            wall_seconds=wall_seconds,
            outcome="ok" if exc_type is None else "error",
            started_unix=self._started_unix if self._started_unix else 0.0,
            counters=counters,
            trace_path=str(self.trace_path) if self.trace_path else None,
            metrics_path=str(self.metrics_path) if self.metrics_path else None,
        )

    def _write_trace_tail(self) -> None:
        assert self.recorder is not None and self._trace_file is not None
        write = self._trace_file.write
        for summary in self.recorder.iter_summary_rows():
            write(
                _json_line(
                    {
                        "kind": "span_summary",
                        "name": summary.name,
                        "parent": summary.parent,
                        "count": summary.count,
                        "total_ns": summary.total_ns,
                        "min_ns": summary.min_ns,
                        "max_ns": summary.max_ns,
                    }
                )
            )
        for trial, dur_ns in self.recorder.trial_durations():
            write(_json_line({"kind": "trial", "trial": trial, "dur_ns": dur_ns}))
        for chunk in self.recorder.chunks:
            write(
                _json_line(
                    {
                        "kind": "chunk",
                        "first_trial": chunk.trials[0] if chunk.trials else -1,
                        "trials": len(chunk.trials),
                        "wall_ns": chunk.wall_ns,
                    }
                )
            )
        if self.metrics is not None:
            write(
                _json_line({"kind": "metrics", "snapshot": self.metrics.snapshot()})
            )
        self._trace_file.flush()


def _json_line(payload: Mapping[str, Any]) -> str:
    return json.dumps(payload) + "\n"


def observe(
    trace: Optional[Union[str, Path]] = None,
    metrics: Optional[Union[str, Path]] = None,
    meta: Optional[Mapping[str, Any]] = None,
    status: Optional[Union[str, Path]] = None,
    ledger: Optional[Union[str, Path]] = None,
    heartbeat_seconds: float = DEFAULT_HEARTBEAT_SECONDS,
) -> ObsContext:
    """An :class:`ObsContext` for the given sinks (inert when all None).

    The CLI's ``--trace``/``--metrics``/``--status``/``--ledger`` flags
    funnel straight here::

        with observe(trace=args.trace, metrics=args.metrics,
                     meta={"command": "run"}):
            ...  # everything inside is instrumented
    """
    return ObsContext(
        trace_path=trace,
        metrics_path=metrics,
        meta=meta,
        status_path=status,
        ledger_path=ledger,
        heartbeat_seconds=heartbeat_seconds,
    )


def obs_self_check(directory: Optional[Union[str, Path]] = None) -> Dict[str, Any]:
    """Measure recorder overhead and probe the JSONL sink for writability.

    Returns ``disabled_ns_per_span`` (cost of an instrumented call site
    with tracing off), ``enabled_ns_per_span`` (with a live recorder),
    and ``sink_writable`` / ``sink_dir`` for a probe file appended and
    removed in ``directory`` (default: the working directory).  Used by
    ``fullview diagnose``.
    """
    with recording(None):
        start = time.perf_counter_ns()
        for _ in range(_SELF_CHECK_SPANS):
            with span("self_check"):
                pass
        disabled_ns = (time.perf_counter_ns() - start) / _SELF_CHECK_SPANS
    with recording(TraceRecorder()):
        start = time.perf_counter_ns()
        for _ in range(_SELF_CHECK_SPANS):
            with span("self_check"):
                pass
        enabled_ns = (time.perf_counter_ns() - start) / _SELF_CHECK_SPANS
    sink_dir = Path(directory) if directory is not None else Path.cwd()
    probe = sink_dir / ".fullview-obs-probe.jsonl"
    try:
        with open(probe, "a", encoding="utf-8") as handle:
            handle.write(_json_line({"kind": "event", "event": "probe"}))
        probe.unlink()
        writable = True
    except OSError:
        writable = False
    return {
        "disabled_ns_per_span": disabled_ns,
        "enabled_ns_per_span": enabled_ns,
        "sink_dir": str(sink_dir),
        "sink_writable": writable,
    }
