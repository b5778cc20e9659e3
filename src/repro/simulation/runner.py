"""A resilient Monte-Carlo executor: fault isolation, checkpoints, budgets.

The plain estimators in :mod:`repro.simulation.montecarlo` run a tight
``for rng in config.rngs()`` loop: one crashing trial kills the sweep,
an interrupted sweep restarts from zero, and a sweep never stops early.
Production-scale trial counts need the opposite properties, and this
module provides them around *any* per-trial function:

- **Fault isolation** — a trial that raises records a
  :class:`TrialFailure` (index + error) and the sweep continues; the
  final estimate can be widened to bound the effect of the lost trials
  (:meth:`ResilientResult.widened_interval`).
- **Checkpointing** — periodic atomic JSON checkpoints carry the seed,
  the next trial index and the partial tallies.  Because every trial's
  generator is addressable (:meth:`MonteCarloConfig.rng_for_trial`), a
  resumed sweep replays the remaining trials with bit-identical
  streams, so interrupt-at-any-index + resume equals one uninterrupted
  run, exactly.
- **Time budgets** — an optional wall-clock budget stops the sweep
  before it takes its next batch, returning a partial result flagged
  ``truncated`` (and a checkpoint to resume from).

The trial function receives ``(trial_index, rng)`` and returns a number
(booleans for Bernoulli sweeps, e.g. lifetimes for resilience sweeps).
It must derive all randomness from ``rng`` for determinism to hold.

The sweep is the engine's :class:`~repro.simulation.engine.Sweep`, the
loop :func:`~repro.simulation.engine.execute_trials` runs too, with the
budget as its deadline; this module adds only the argument checks, the
checkpoint (loaded, recovered, written every ``checkpoint_every``
trials and on an interrupt) and the :class:`ResilientResult`.  Because
executors yield outcomes in trial order the checkpoint always holds a
contiguous prefix of the sweep — checkpoint/resume and parallelism
compose, with bit-identical results either way.  The deadline and
``BaseException`` handling act per batch: per trial serially, per
chunk with workers; a trial function that cannot cross the process
boundary (e.g. a closure) transparently falls back to in-process
execution.

Checkpoints are written durably (fsynced before the atomic rename, so
a crash can never leave a torn file behind the rename) and stamped
with the package version and seed for provenance.  ``RunStarted``/
``RunFinished``, progress and the trial counters come from the sweep
(resumed trials count as done, not as newly run); each checkpoint
write or recovery is one :func:`repro.obs.emit`.  As everywhere,
telemetry is off by default and never touches the trial generators.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from repro._version import __version__
from repro.errors import CheckpointError, InvalidParameterError
from repro.ioutil import (
    config_digest,
    stamp_checksum,
    verify_checksum,
    write_json_atomic,
)
from repro.obs import emit
from repro.obs.events import CheckpointRecovered, CheckpointWritten
from repro.simulation.engine import MonteCarloConfig, Sweep
from repro.simulation.faults import ChaosPolicy, resolve_chaos_policy
from repro.simulation.statistics import BernoulliEstimate, wilson_interval

__all__ = [
    "CHECKPOINT_BACKUP_FILENAME",
    "CHECKPOINT_FILENAME",
    "CHECKPOINT_FORMAT",
    "ResilientResult",
    "TrialFailure",
    "TrialFn",
    "check_resume_options",
    "parse_checkpoint",
    "run_resilient_trials",
]

#: Schema tag written into every checkpoint file.
CHECKPOINT_FORMAT = "fullview-mc-checkpoint-v1"

#: File name used inside a checkpoint directory.
CHECKPOINT_FILENAME = "checkpoint.json"

#: Rotated copy of the previous checkpoint, kept as the recovery source
#: when the main file is found corrupt or truncated at resume time.
CHECKPOINT_BACKUP_FILENAME = CHECKPOINT_FILENAME + ".bak"

#: Appended to corruption errors so the operator knows the way out.
_RECOVERY_HINT = (
    "delete the checkpoint directory (or run with resume disabled) to "
    "start the sweep fresh"
)

TrialFn = Callable[[int, np.random.Generator], Union[bool, int, float]]


@dataclass(frozen=True)
class TrialFailure:
    """One isolated per-trial exception."""

    trial: int
    error: str


@dataclass(frozen=True)
class ResilientResult:
    """Outcome of a resilient sweep (possibly partial).

    Attributes
    ----------
    requested:
        Trials the configuration asked for.
    outcomes:
        ``(trial, value)`` pairs for every trial that completed, in
        trial order.  Values are floats (booleans record as 0.0/1.0).
    failures:
        Isolated per-trial exceptions, in trial order.
    truncated:
        Whether the wall-clock budget stopped the sweep early.
    resumed_trials:
        How many of the outcomes/failures were restored from a
        checkpoint rather than executed in this call.
    """

    requested: int
    outcomes: Tuple[Tuple[int, float], ...]
    failures: Tuple[TrialFailure, ...]
    truncated: bool
    resumed_trials: int = 0

    @property
    def completed(self) -> int:
        """Trials that ran to completion."""
        return len(self.outcomes)

    @property
    def attempted(self) -> int:
        """Trials that ran at all (completed + failed)."""
        return len(self.outcomes) + len(self.failures)

    @property
    def values(self) -> Tuple[float, ...]:
        """Completed trial values, in trial order."""
        return tuple(value for _, value in self.outcomes)

    @property
    def successes(self) -> int:
        """Count of truthy outcomes (Bernoulli sweeps)."""
        return sum(1 for _, value in self.outcomes if value)

    @property
    def estimate(self) -> Optional[BernoulliEstimate]:
        """Bernoulli estimate over the completed trials, if any ran."""
        if not self.outcomes:
            return None
        return BernoulliEstimate(successes=self.successes, trials=self.completed)

    def widened_interval(self, confidence: float = 0.95) -> Tuple[float, float]:
        """A Wilson interval widened to bound the lost trials.

        Failed trials could have gone either way, so the lower bound
        counts them all as failures and the upper bound counts them all
        as successes.  With no failures this is the plain Wilson
        interval over the completed trials.
        """
        if self.attempted == 0:
            raise InvalidParameterError("no trials attempted; nothing to estimate")
        lower = wilson_interval(self.successes, self.attempted, confidence)[0]
        upper = wilson_interval(
            self.successes + len(self.failures), self.attempted, confidence
        )[1]
        return (lower, upper)


def _checkpoint_path(checkpoint_dir: Union[str, Path]) -> Path:
    return Path(checkpoint_dir) / CHECKPOINT_FILENAME


def _backup_path(path: Path) -> Path:
    return path.with_name(CHECKPOINT_BACKUP_FILENAME)


def _write_checkpoint(
    path: Path,
    config: MonteCarloConfig,
    next_trial: int,
    outcomes: List[Tuple[int, float]],
    failures: List[TrialFailure],
    chaos: Optional[ChaosPolicy] = None,
    write_index: int = 0,
) -> None:
    payload = stamp_checksum(
        {
            "format": CHECKPOINT_FORMAT,
            "version": __version__,
            # The same canonical digest the run ledger and the coverage
            # service cache use, so a checkpoint can be matched to its
            # ledger row and cache entries by eye.
            "config_digest": config_digest(
                {"seed": config.seed, "trials": config.trials}
            ),
            "seed": config.seed,
            "trials": config.trials,
            "next_trial": next_trial,
            "outcomes": [[trial, value] for trial, value in outcomes],
            "failures": [{"trial": f.trial, "error": f.error} for f in failures],
        }
    )
    # Rotate the previous checkpoint to the .bak slot before publishing
    # the new one: if the new file is later found corrupt at rest, the
    # backup still holds a valid (merely older) resume point.
    if path.exists():
        try:
            os.replace(path, _backup_path(path))
        except OSError:
            pass
    # Durable atomic write: fsync before the rename, so a crash can
    # never publish a torn checkpoint over a good one.
    write_json_atomic(path, payload)
    if chaos is not None and chaos.corrupts_checkpoint(write_index):
        # The checkpoint-write chaos seam: model corruption *at rest*
        # (a torn sector, a truncating crash) by chopping the published
        # file after the durable write succeeded.
        text = path.read_text()
        path.write_text(text[: max(1, len(text) // 2)])
    emit(CheckpointWritten(path=str(path), checkpoint_kind="trial", next_trial=next_trial))


def parse_checkpoint(path: Path, format_tag: str = CHECKPOINT_FORMAT) -> dict:
    """Read and integrity-check one checkpoint file (no config checks).

    The one reader for both checkpoint kinds: the trial checkpoint here
    and ``fullview run``'s experiment checkpoint (``format_tag``).
    Raises :class:`CheckpointError` for every *corruption* shape —
    unreadable file, truncated/invalid JSON, not a JSON object, wrong
    format tag, failed checksum — which is exactly the class of failure
    the backup file can recover from.  A payload with no checksum
    passes (see :func:`~repro.ioutil.verify_checksum`).
    """
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckpointError(
            f"cannot read checkpoint {path}: {exc}; {_RECOVERY_HINT}"
        ) from exc
    if not isinstance(payload, dict) or payload.get("format") != format_tag:
        raise CheckpointError(
            f"{path} is not a {format_tag} checkpoint; {_RECOVERY_HINT}"
        )
    if not verify_checksum(payload):
        raise CheckpointError(
            f"checkpoint {path} failed its sha256 integrity check "
            f"(truncated or corrupted at rest); {_RECOVERY_HINT}"
        )
    return payload


def _validate_checkpoint(path: Path, payload: dict, config: MonteCarloConfig):
    """Check a parsed checkpoint against ``config`` and unpack it.

    Returns ``(outcomes, failures)``, which together hold exactly the
    trials ``0..next_trial-1``.  Seed/trial mismatches are
    *configuration* errors, not corruption: they raise even when a
    backup exists, because the backup was written for the same sweep.
    """
    if payload.get("seed") != config.seed or payload.get("trials") != config.trials:
        raise CheckpointError(
            f"checkpoint {path} was written for seed={payload.get('seed')}, "
            f"trials={payload.get('trials')}; the current config has "
            f"seed={config.seed}, trials={config.trials}"
        )
    try:
        next_trial = int(payload["next_trial"])
        outcomes = [(int(t), float(v)) for t, v in payload["outcomes"]]
        failures = [
            TrialFailure(trial=int(f["trial"]), error=str(f["error"]))
            for f in payload["failures"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint {path} is malformed: {exc}; {_RECOVERY_HINT}"
        ) from exc
    if not (0 <= next_trial <= config.trials):
        raise CheckpointError(
            f"checkpoint {path} has next_trial={next_trial} outside "
            f"[0, {config.trials}]; {_RECOVERY_HINT}"
        )
    # A resume starts after the recorded trials, so they must be the
    # whole prefix: no gap, no duplicate.
    recorded = sorted([trial for trial, _ in outcomes] + [f.trial for f in failures])
    if recorded != list(range(next_trial)):
        raise CheckpointError(
            f"checkpoint {path} is malformed: its trials are not exactly "
            f"0..{next_trial - 1}; {_RECOVERY_HINT}"
        )
    return outcomes, failures


def _load_or_recover_checkpoint(path: Path, config: MonteCarloConfig):
    """Load the main checkpoint, healing from the backup if corrupt.

    A corrupt or missing main file falls back to the rotated ``.bak``;
    when that parses, the good payload is republished as the main
    checkpoint (so the next rotation starts from a valid file), a
    :class:`CheckpointRecovered` event is emitted, and the sweep
    resumes from the backup's (older) trial index — bit-identical to an
    uninterrupted run, because the replayed trials re-derive the same
    streams.  A backup that is itself unreadable re-raises the main
    file's original error.
    """
    backup = _backup_path(path)
    try:
        payload = parse_checkpoint(path)
    except CheckpointError as exc:
        if not backup.exists():
            raise
        try:
            payload = parse_checkpoint(backup)
        except CheckpointError:
            raise exc from None
        outcomes, failures = _validate_checkpoint(backup, payload, config)
        write_json_atomic(path, payload)
        emit(
            CheckpointRecovered(
                path=str(path),
                recovered_from=str(backup),
                next_trial=len(outcomes) + len(failures),
            )
        )
        return outcomes, failures
    return _validate_checkpoint(path, payload, config)


def check_resume_options(
    resume: bool,
    checkpoint_dir: Optional[Union[str, Path]],
    time_budget: Optional[float],
) -> None:
    """The checks every resumable driver makes of its resume and budget.

    Shared by :func:`run_resilient_trials` and ``fullview run``: a
    resume needs a checkpoint directory, and a budget must be a
    positive number of seconds.
    """
    if time_budget is not None and not time_budget > 0.0:
        raise InvalidParameterError(
            f"time_budget must be positive seconds, got {time_budget!r}"
        )
    if resume and checkpoint_dir is None:
        raise InvalidParameterError("resume=True requires a checkpoint_dir")


def run_resilient_trials(
    trial_fn: TrialFn,
    config: MonteCarloConfig,
    *,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    checkpoint_every: int = 64,
    resume: bool = False,
    time_budget: Optional[float] = None,
) -> ResilientResult:
    """Run a seeded sweep with fault isolation, checkpoints and budgets.

    Parameters
    ----------
    trial_fn:
        ``(trial_index, rng) -> value``; exceptions it raises are
        recorded per trial, not propagated (``KeyboardInterrupt`` and
        other ``BaseException`` still propagate — after a final
        checkpoint is written, so no completed work is lost).
    config:
        The usual trial budget + master seed.
    checkpoint_dir:
        Directory for the JSON checkpoint (created if missing).  ``None``
        disables checkpointing.
    checkpoint_every:
        Trials between periodic checkpoint writes.
    resume:
        Load ``checkpoint_dir``'s checkpoint and continue from its next
        trial index.  A missing file starts a fresh sweep; an
        incompatible or corrupt file raises :class:`CheckpointError`.
    time_budget:
        Wall-clock seconds, made the sweep's deadline; checked before
        each batch (each trial serially, each chunk with workers), so
        the sweep stops gracefully between batches and the result is
        flagged ``truncated``.
    """
    if checkpoint_every < 1:
        raise InvalidParameterError(
            f"checkpoint_every must be >= 1, got {checkpoint_every!r}"
        )
    check_resume_options(resume, checkpoint_dir, time_budget)

    path = _checkpoint_path(checkpoint_dir) if checkpoint_dir is not None else None
    chaos = resolve_chaos_policy(None)
    write_index = 0
    outcomes: List[Tuple[int, float]] = []
    failures: List[TrialFailure] = []
    if resume and (path.exists() or _backup_path(path).exists()):
        outcomes, failures = _load_or_recover_checkpoint(path, config)
    resumed = (len(outcomes), len(failures))
    start = next_trial = sum(resumed)

    def checkpoint(at_trial: int) -> None:
        # Each write carries its ordinal so the chaos corrupt seam can
        # target one specific write deterministically.
        nonlocal write_index
        _write_checkpoint(
            path, config, at_trial, outcomes, failures, chaos, write_index
        )
        write_index += 1

    deadline = time.monotonic() + time_budget if time_budget is not None else None
    with Sweep(
        trial_fn,
        config,
        isolate=True,
        resumed=resumed,
        deadline=deadline,
        source="runner",
    ) as sweep:
        try:
            for batch in sweep:
                for outcome in batch:
                    if outcome.ok:
                        outcomes.append((outcome.trial, float(outcome.value)))
                    else:
                        failures.append(
                            TrialFailure(trial=outcome.trial, error=outcome.error)
                        )
                    next_trial = outcome.trial + 1
                    if path is not None and (next_trial - start) % checkpoint_every == 0:
                        checkpoint(next_trial)
        except BaseException:
            # Interrupts and crashes must not lose completed work.
            if path is not None:
                checkpoint(next_trial)
            raise
        if path is not None:
            checkpoint(next_trial)
    return ResilientResult(
        requested=config.trials,
        outcomes=tuple(outcomes),
        failures=tuple(failures),
        truncated=next_trial < config.trials,
        resumed_trials=start,
    )
