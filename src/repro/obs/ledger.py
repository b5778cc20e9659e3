"""Persistent append-only run ledger (``fullview-ledger-v1``).

Where a trace answers "what happened inside that run", the ledger
answers "which runs happened at all": one JSONL row per observed run —
id, experiment, config digest, seed, git sha, executor and worker
count, wall time, throughput, outcome, fault-handling totals and the
paths of the run's trace/metrics artifacts — appended when the owning
:class:`~repro.obs.ObsContext` closes, or per computed request by the
coverage service.  Both build their rows with :func:`build_row`, which
reads the trial and fault columns off a metrics snapshot's counters.
Rows go out through :func:`repro.ioutil.append_jsonl_line` (single
fsynced ``O_APPEND`` write), so concurrent runs can grow the same
ledger without tearing a line, and a crash mid-run simply records
nothing.

The default ledger lives at ``~/.fullview/runs.jsonl``; ``--ledger
PATH`` on the CLI or the ``FULLVIEW_LEDGER`` environment variable
redirect it.  ``fullview runs`` lists/inspects the rows (newest first,
schema-validated on read: a corrupt or foreign line is reported and
skipped, never trusted).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import uuid
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

__all__ = [
    "LEDGER_ENV_VAR",
    "LEDGER_FORMAT",
    "append_run",
    "build_row",
    "default_ledger_path",
    "git_sha",
    "load_runs",
    "new_run_id",
    "render_runs_table",
    "validate_row",
]

#: Schema tag stamped into every ledger row.
LEDGER_FORMAT = "fullview-ledger-v1"

#: Environment variable overriding the default ledger location.
LEDGER_ENV_VAR = "FULLVIEW_LEDGER"

#: ``field name -> (required types, may be null)`` for a v1 row.
_ROW_FIELDS: Dict[str, Tuple[tuple, bool]] = {
    "format": ((str,), False),
    "run_id": ((str,), False),
    "experiment": ((str,), False),
    "config_digest": ((str,), True),
    "seed": ((int,), True),
    "git_sha": ((str,), True),
    "executor": ((str,), False),
    "workers": ((int,), False),
    "wall_seconds": ((int, float), False),
    "trials_per_sec": ((int, float), False),
    "trials_completed": ((int,), False),
    "trials_failed": ((int,), False),
    "outcome": ((str,), False),
    "retries": ((int,), False),
    "respawns": ((int,), False),
    "quarantined": ((int,), False),
    "checkpoints_recovered": ((int,), False),
    "trace_path": ((str,), True),
    "metrics_path": ((str,), True),
    "started_unix": ((int, float), False),
}

#: Values ``outcome`` may take.  ``cached`` marks a coverage-service
#: request answered from the persistent result cache without any
#: engine run, so throughput analyses can exclude it.
_OUTCOMES = ("ok", "error", "cached")


def default_ledger_path() -> Path:
    """``$FULLVIEW_LEDGER`` if set, else ``~/.fullview/runs.jsonl``."""
    override = os.environ.get(LEDGER_ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".fullview" / "runs.jsonl"


def new_run_id() -> str:
    """A fresh 12-hex-char run identifier.

    Random by design — run ids must differ between identically-seeded
    runs; nothing downstream of the ledger feeds back into trial RNG.
    """
    return uuid.uuid4().hex[:12]


def git_sha() -> Optional[str]:
    """The working tree's HEAD sha, or ``None`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5.0,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def build_row(
    *,
    run_id: str,
    experiment: str,
    config_digest: Optional[str],
    seed: Optional[int],
    git_sha: Optional[str],
    executor: str,
    workers: int,
    wall_seconds: float,
    outcome: str,
    started_unix: float,
    counters: Mapping[str, Any],
    trace_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
) -> Dict[str, Any]:
    """One v1 ledger row.

    The trial and fault columns are the totals of the metrics
    ``counters`` that feed them (a missing counter counts 0), and
    ``trials_per_sec`` is completed trials over ``wall_seconds``.
    """
    completed = int(counters.get("trials_completed", 0))
    return {
        "format": LEDGER_FORMAT,
        "run_id": run_id,
        "experiment": experiment,
        "config_digest": config_digest,
        "seed": seed,
        "git_sha": git_sha,
        "executor": executor,
        "workers": workers,
        "wall_seconds": wall_seconds,
        "trials_per_sec": completed / wall_seconds if wall_seconds > 0 else 0.0,
        "trials_completed": completed,
        "trials_failed": int(counters.get("trials_failed", 0)),
        "outcome": outcome,
        "retries": int(counters.get("chunk_retries", 0)),
        "respawns": int(counters.get("pool_respawns", 0)),
        "quarantined": int(counters.get("trials_quarantined", 0)),
        "checkpoints_recovered": int(counters.get("checkpoint_recoveries", 0)),
        "trace_path": trace_path,
        "metrics_path": metrics_path,
        "started_unix": started_unix,
    }


def validate_row(row: Any) -> Optional[str]:
    """``None`` if ``row`` is a well-formed v1 ledger row, else why not."""
    if not isinstance(row, dict):
        return "row is not a JSON object"
    if row.get("format") != LEDGER_FORMAT:
        return f"format is {row.get('format')!r}, expected {LEDGER_FORMAT!r}"
    for field, (types, nullable) in _ROW_FIELDS.items():
        if field not in row:
            return f"missing field {field!r}"
        value = row[field]
        if value is None:
            if not nullable:
                return f"field {field!r} must not be null"
            continue
        # bool is an int subclass; a ledger count of ``true`` is a bug.
        if isinstance(value, bool) or not isinstance(value, types):
            return f"field {field!r} has type {type(value).__name__}"
        if isinstance(value, float) and not math.isfinite(value):
            return f"field {field!r} is not finite"
    if row["outcome"] not in _OUTCOMES:
        return f"outcome {row['outcome']!r} not in {_OUTCOMES}"
    for field in ("workers",):
        if row[field] < 1:
            return f"field {field!r} must be >= 1"
    for field in (
        "wall_seconds",
        "trials_per_sec",
        "trials_completed",
        "trials_failed",
        "retries",
        "respawns",
        "quarantined",
        "checkpoints_recovered",
    ):
        if row[field] < 0:
            return f"field {field!r} must be >= 0"
    return None


def append_run(path: Union[str, Path], row: Dict[str, Any]) -> Path:
    """Validate ``row`` and durably append it to the ledger at ``path``."""
    from repro.errors import ObservabilityError
    from repro.ioutil import append_jsonl_line

    problem = validate_row(row)
    if problem is not None:
        raise ObservabilityError(f"refusing to append invalid ledger row: {problem}")
    try:
        return append_jsonl_line(path, row)
    except OSError as exc:
        raise ObservabilityError(f"cannot append to run ledger {path}: {exc}") from exc


def load_runs(path: Union[str, Path]) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Ledger rows newest-first plus a list of skipped-line diagnostics.

    Unparseable or schema-invalid lines never abort the load — a ledger
    shared across versions/processes must degrade to "show what's
    valid, name what isn't".
    """
    path = Path(path)
    rows: List[Dict[str, Any]] = []
    problems: List[str] = []
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        from repro.errors import ObservabilityError

        raise ObservabilityError(f"cannot read run ledger {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except ValueError:
            problems.append(f"{path}:{lineno}: not valid JSON; skipped")
            continue
        problem = validate_row(row)
        if problem is not None:
            problems.append(f"{path}:{lineno}: {problem}; skipped")
            continue
        rows.append(row)
    rows.reverse()
    return rows, problems


def render_runs_table(rows: List[Dict[str, Any]]) -> str:
    """A fixed-width text table over ledger rows (newest first)."""
    header = (
        f"{'RUN':<13} {'EXPERIMENT':<12} {'SEED':>6} {'EXEC':<8} "
        f"{'W':>2} {'TRIALS':>7} {'TRIALS/S':>9} {'WALL':>8} {'OUTCOME':<7}"
    )
    lines = [header]
    for row in rows:
        seed = row["seed"] if row["seed"] is not None else "-"
        lines.append(
            f"{row['run_id']:<13} {row['experiment'][:12]:<12} {seed!s:>6} "
            f"{row['executor'][:8]:<8} {row['workers']:>2} "
            f"{row['trials_completed']:>7} {row['trials_per_sec']:>9.1f} "
            f"{row['wall_seconds']:>7.2f}s {row['outcome']:<7}"
        )
    return "\n".join(lines)
