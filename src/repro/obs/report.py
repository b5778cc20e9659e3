"""Run reports: summarize a trace JSONL file into throughput numbers.

:func:`load_trace` parses the JSONL file written by
:class:`repro.obs.ObsContext` (manifest, events, span summaries,
per-trial wall times, chunk traces, optional metrics snapshot) into a
:class:`TraceData`; :func:`build_report` reduces that to the numbers an
operator compares across runs — trials/sec, wall vs. CPU time, a
worker-utilization estimate, retry/fallback and checkpoint counts, the
span-time breakdown and a slowest-trial table — rendered as text
(:meth:`RunReport.render_text`) or JSON (:meth:`RunReport.to_json`).
The fault and lifecycle counts are read through
:data:`~repro.obs.events.TALLIES`, the same table that decides which
counter and progress tally :func:`repro.obs.emit` bumps, so a report
counts exactly what the metrics snapshot and the status file count.

The worker-utilization estimate divides the wall-clock the chunks spent
busy inside workers by ``workers x run wall``: 1.0 means every worker
was busy for the whole sweep, lower values mean dispatch overhead or
load imbalance.  It is an estimate — chunk wall includes per-chunk
setup, and the parent's own span time is not subtracted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.errors import ObservabilityError
from repro.obs.events import TALLIES

__all__ = [
    "RunReport",
    "TRACE_FORMAT",
    "TraceData",
    "build_report",
    "load_trace",
]

#: Schema tag the trace manifest must carry.
TRACE_FORMAT = "fullview-trace-v1"

#: Line kinds a trace file may contain.
_KINDS = ("manifest", "event", "span_summary", "trial", "chunk", "metrics")

#: Rows in the slowest-trial table.
_SLOWEST = 5


@dataclass(frozen=True)
class TraceData:
    """A parsed trace file, one attribute per line kind."""

    manifest: Mapping[str, Any]
    events: Tuple[Mapping[str, Any], ...]
    span_summaries: Tuple[Mapping[str, Any], ...]
    trials: Tuple[Tuple[int, int], ...]
    chunks: Tuple[Mapping[str, Any], ...]
    metrics: Optional[Mapping[str, Any]] = None


def load_trace(path: Union[str, Path]) -> TraceData:
    """Parse a trace JSONL file, validating the manifest and line kinds."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ObservabilityError(f"cannot read trace {path}: {exc}") from exc
    manifest: Optional[Mapping[str, Any]] = None
    events: List[Mapping[str, Any]] = []
    span_summaries: List[Mapping[str, Any]] = []
    trials: List[Tuple[int, int]] = []
    chunks: List[Mapping[str, Any]] = []
    metrics: Optional[Mapping[str, Any]] = None
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except ValueError as exc:
            raise ObservabilityError(
                f"{path}:{number}: not valid JSON: {exc}"
            ) from exc
        kind = row.get("kind") if isinstance(row, dict) else None
        if kind not in _KINDS:
            raise ObservabilityError(
                f"{path}:{number}: unknown trace line kind {kind!r}"
            )
        if kind == "manifest":
            if row.get("format") != TRACE_FORMAT:
                raise ObservabilityError(
                    f"{path}:{number}: manifest format is "
                    f"{row.get('format')!r}, expected {TRACE_FORMAT!r}"
                )
            manifest = row
        elif kind == "event":
            events.append(row)
        elif kind == "span_summary":
            span_summaries.append(row)
        elif kind == "trial":
            trials.append((int(row["trial"]), int(row["dur_ns"])))
        elif kind == "chunk":
            chunks.append(row)
        else:
            metrics = row.get("snapshot")
    if manifest is None:
        raise ObservabilityError(f"{path}: no manifest line (is this a trace?)")
    return TraceData(
        manifest=manifest,
        events=tuple(events),
        span_summaries=tuple(span_summaries),
        trials=tuple(sorted(trials)),
        chunks=tuple(chunks),
        metrics=metrics,
    )


def _percentile_ms(sorted_ns: List[int], q: float) -> float:
    """Nearest-rank percentile of ascending durations, in milliseconds."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_ns)))
    return sorted_ns[min(rank, len(sorted_ns)) - 1] / 1e6


@dataclass(frozen=True)
class RunReport:
    """The derived summary of one trace file."""

    manifest: Mapping[str, Any]
    runs: int
    trials_completed: int
    trials_failed: int
    wall_seconds: float
    cpu_seconds: float
    trials_per_second: float
    workers: int
    worker_utilization: Optional[float]
    chunks_dispatched: int
    chunk_fallbacks: int
    checkpoints_written: int
    epochs_advanced: int
    chunks_retried: int = 0
    pools_respawned: int = 0
    trials_quarantined: int = 0
    checkpoints_recovered: int = 0
    trial_p50_ms: Optional[float] = None
    trial_p90_ms: Optional[float] = None
    trial_p99_ms: Optional[float] = None
    span_rows: Tuple[Mapping[str, Any], ...] = ()
    slowest_trials: Tuple[Tuple[int, int], ...] = ()
    counters: Mapping[str, int] = field(default_factory=dict)

    def to_json(self) -> str:
        """The report as a JSON document."""
        payload = {
            "manifest": dict(self.manifest),
            "runs": self.runs,
            "trials_completed": self.trials_completed,
            "trials_failed": self.trials_failed,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "trials_per_second": self.trials_per_second,
            "workers": self.workers,
            "worker_utilization": self.worker_utilization,
            "chunks_dispatched": self.chunks_dispatched,
            "chunk_fallbacks": self.chunk_fallbacks,
            "checkpoints_written": self.checkpoints_written,
            "epochs_advanced": self.epochs_advanced,
            "chunks_retried": self.chunks_retried,
            "pools_respawned": self.pools_respawned,
            "trials_quarantined": self.trials_quarantined,
            "checkpoints_recovered": self.checkpoints_recovered,
            "trial_latency_ms": {
                "p50": self.trial_p50_ms,
                "p90": self.trial_p90_ms,
                "p99": self.trial_p99_ms,
            },
            "spans": [dict(row) for row in self.span_rows],
            "slowest_trials": [
                {"trial": trial, "dur_ns": dur} for trial, dur in self.slowest_trials
            ],
            "counters": dict(self.counters),
        }
        return json.dumps(payload, indent=2)

    def render_text(self) -> str:
        """The report as a human-readable block."""
        meta = self.manifest.get("meta", {})
        lines = [
            f"== fullview run report ({self.manifest.get('version', '?')}) ==",
        ]
        if meta:
            described = ", ".join(f"{k}={v}" for k, v in sorted(meta.items()))
            lines.append(f"run: {described}")
        lines += [
            f"sweeps: {self.runs} | trials: {self.trials_completed} completed, "
            f"{self.trials_failed} failed",
            f"wall: {self.wall_seconds:.3f} s | parent CPU: "
            f"{self.cpu_seconds:.3f} s | throughput: "
            f"{self.trials_per_second:.1f} trials/s",
        ]
        if self.workers > 1:
            utilization = (
                f"{self.worker_utilization:.0%}"
                if self.worker_utilization is not None
                else "n/a"
            )
            lines.append(
                f"workers: {self.workers} | chunks: {self.chunks_dispatched} "
                f"dispatched, {self.chunk_fallbacks} fell back | estimated "
                f"utilization: {utilization}"
            )
        else:
            lines.append("workers: 1 (serial)")
        lines.append(
            f"checkpoints written: {self.checkpoints_written} | lifetime "
            f"epochs advanced: {self.epochs_advanced}"
        )
        faults = (
            self.chunks_retried
            + self.pools_respawned
            + self.trials_quarantined
            + self.checkpoints_recovered
        )
        if faults:
            lines.append(
                f"fault handling: {self.chunks_retried} chunk retries, "
                f"{self.pools_respawned} pool respawns, "
                f"{self.trials_quarantined} trials quarantined, "
                f"{self.checkpoints_recovered} checkpoints recovered"
            )
        if self.span_rows:
            labels = [
                row["name"] + (f" <{row['parent']}" if row.get("parent") else "")
                for row in self.span_rows
            ]
            width = max(16, *(len(label) for label in labels))
            lines.append("")
            lines.append("span breakdown (total time, descending):")
            lines.append(f"  {'name':<{width}} count      total_ms     mean_us")
            for label, row in zip(labels, self.span_rows):
                total_ms = row["total_ns"] / 1e6
                mean_us = row["total_ns"] / max(1, row["count"]) / 1e3
                lines.append(
                    f"  {label:<{width}} {row['count']:>5} {total_ms:>13.3f} "
                    f"{mean_us:>11.1f}"
                )
        if self.trial_p50_ms is not None:
            lines.append(
                f"trial latency: p50 {self.trial_p50_ms:.3f} ms | "
                f"p90 {self.trial_p90_ms:.3f} ms | p99 {self.trial_p99_ms:.3f} ms"
            )
        if self.slowest_trials:
            lines.append("")
            lines.append("slowest trials:")
            for trial, dur in self.slowest_trials:
                lines.append(f"  trial {trial:>6}: {dur / 1e6:.3f} ms")
        if self.counters:
            lines.append("")
            lines.append("counters:")
            for name, value in sorted(self.counters.items()):
                lines.append(f"  {name}: {value}")
        return "\n".join(lines)


def build_report(data: TraceData) -> RunReport:
    """Reduce parsed trace data to a :class:`RunReport`."""
    completed = failed = runs = 0
    wall_ns = cpu_ns = 0
    workers = 1
    field_of = {event.__name__: tally.report for event, tally in TALLIES.items()}
    tallied = dict.fromkeys(field_of.values(), 0)
    for event in data.events:
        name = event.get("event")
        if name in field_of:
            tallied[field_of[name]] += 1
        elif name == "RunStarted":
            workers = max(workers, int(event.get("workers", 1)))
        elif name == "RunFinished":
            runs += 1
            completed += int(event.get("completed", 0))
            failed += int(event.get("failed", 0))
            wall_ns += int(event.get("wall_ns", 0))
            cpu_ns += int(event.get("cpu_ns", 0))
    # Without Run events (e.g. a truncated trace) fall back to the
    # event clock: monotonic t_ns of the first and last events.
    if wall_ns <= 0 and len(data.events) >= 2:
        wall_ns = int(data.events[-1]["t_ns"]) - int(data.events[0]["t_ns"])
    if completed <= 0:
        completed = len(data.trials)
    wall_seconds = wall_ns / 1e9
    throughput = completed / wall_seconds if wall_seconds > 0 else 0.0
    utilization: Optional[float] = None
    if workers > 1 and data.chunks and wall_ns > 0:
        busy = sum(int(chunk.get("wall_ns", 0)) for chunk in data.chunks)
        utilization = min(1.0, busy / (workers * wall_ns))
    slowest = tuple(
        sorted(data.trials, key=lambda pair: -pair[1])[:_SLOWEST]
    )
    p50 = p90 = p99 = None
    if data.trials:
        durations = sorted(dur for _trial, dur in data.trials)
        p50, p90, p99 = (
            _percentile_ms(durations, q) for q in (50.0, 90.0, 99.0)
        )
    span_rows = tuple(
        sorted(data.span_summaries, key=lambda row: -int(row.get("total_ns", 0)))
    )
    counters: Dict[str, int] = {}
    if data.metrics:
        counters = {
            str(k): int(v) for k, v in data.metrics.get("counters", {}).items()
        }
    return RunReport(
        manifest=data.manifest,
        runs=runs,
        trials_completed=completed,
        trials_failed=failed,
        wall_seconds=wall_seconds,
        cpu_seconds=cpu_ns / 1e9,
        trials_per_second=throughput,
        workers=workers,
        worker_utilization=utilization,
        trial_p50_ms=p50,
        trial_p90_ms=p90,
        trial_p99_ms=p99,
        span_rows=span_rows,
        slowest_trials=slowest,
        counters=counters,
        **tallied,
    )
