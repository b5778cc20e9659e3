"""Resilient runner: fault isolation, checkpoint/resume determinism, budgets.

These tests implement the issue's acceptance criterion with a cheap
trial function, so the whole module runs in well under a second: a
sweep interrupted at *any* trial index and resumed from its checkpoint
must produce bit-identical outcomes to an uninterrupted run, and an
injected per-trial exception must be recorded rather than propagated.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import CheckpointError, InvalidParameterError
from repro.ioutil import verify_checksum
from repro.simulation.faults import ChaosPolicy, fault_scope
from repro.simulation.montecarlo import MonteCarloConfig
from repro.simulation.runner import (
    CHECKPOINT_BACKUP_FILENAME,
    CHECKPOINT_FILENAME,
    ResilientResult,
    TrialFailure,
    run_resilient_trials,
)


def coin_trial(trial: int, rng: np.random.Generator) -> bool:
    """A cheap seeded Bernoulli trial."""
    return bool(rng.random() < 0.5)


def crash_at(bad_trial: int, exc: BaseException):
    """A coin trial that raises ``exc`` when it reaches ``bad_trial``."""

    def trial(index: int, rng: np.random.Generator) -> bool:
        if index == bad_trial:
            raise exc
        return coin_trial(index, rng)

    return trial


CONFIG = MonteCarloConfig(trials=20, seed=99)


@pytest.fixture
def baseline():
    """The uninterrupted reference sweep every variant must reproduce."""
    return run_resilient_trials(coin_trial, CONFIG)


class TestPlainSweep:
    def test_runs_every_trial(self, baseline):
        assert baseline.requested == 20
        assert baseline.completed == 20
        assert baseline.attempted == 20
        assert not baseline.truncated
        assert baseline.failures == ()
        assert [t for t, _ in baseline.outcomes] == list(range(20))

    def test_deterministic(self, baseline):
        again = run_resilient_trials(coin_trial, CONFIG)
        assert again.outcomes == baseline.outcomes

    def test_estimate_over_completed_trials(self, baseline):
        est = baseline.estimate
        assert est is not None
        assert est.trials == 20
        assert est.successes == baseline.successes

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            run_resilient_trials(coin_trial, CONFIG, checkpoint_every=0)
        with pytest.raises(InvalidParameterError):
            run_resilient_trials(coin_trial, CONFIG, time_budget=0.0)
        with pytest.raises(InvalidParameterError):
            run_resilient_trials(coin_trial, CONFIG, resume=True)


class TestFaultIsolation:
    def test_exception_recorded_not_propagated(self, baseline):
        result = run_resilient_trials(crash_at(3, ValueError("boom")), CONFIG)
        assert result.attempted == 20
        assert result.completed == 19
        assert result.failures == (
            TrialFailure(trial=3, error="ValueError: boom"),
        )
        # Every other trial's value is bit-identical to the clean sweep.
        expected = [(t, v) for t, v in baseline.outcomes if t != 3]
        assert list(result.outcomes) == expected

    def test_widened_interval_bounds_lost_trials(self, baseline):
        result = run_resilient_trials(crash_at(3, ValueError("boom")), CONFIG)
        lo, hi = result.widened_interval()
        clean_lo, clean_hi = baseline.estimate.wilson()
        assert lo <= clean_lo or lo == pytest.approx(clean_lo, abs=0.05)
        assert 0.0 <= lo < hi <= 1.0

    def test_widened_interval_without_failures_is_wilson(self, baseline):
        assert baseline.widened_interval() == pytest.approx(
            baseline.estimate.wilson()
        )

    def test_widened_interval_needs_attempts(self):
        empty = ResilientResult(
            requested=5, outcomes=(), failures=(), truncated=True
        )
        with pytest.raises(InvalidParameterError):
            empty.widened_interval()

    def test_keyboard_interrupt_propagates(self, tmp_path):
        with pytest.raises(KeyboardInterrupt):
            run_resilient_trials(
                crash_at(5, KeyboardInterrupt()), CONFIG, checkpoint_dir=tmp_path
            )
        # ... but not before writing a checkpoint with the completed work.
        # Serial checkpoints record every finished trial; parallel ones
        # stop at the last complete chunk boundary before the crash.
        payload = json.loads((tmp_path / CHECKPOINT_FILENAME).read_text())
        if CONFIG.resolved_workers() == 1:
            assert payload["next_trial"] == 5
        else:
            assert payload["next_trial"] <= 5
        assert len(payload["outcomes"]) == payload["next_trial"]


class TestCheckpointResume:
    @pytest.mark.parametrize("interrupt_at", [0, 1, 7, 19])
    def test_interrupt_anywhere_resume_bit_identical(
        self, tmp_path, baseline, interrupt_at
    ):
        """The acceptance criterion: crash at any index, resume, equal result."""
        with pytest.raises(KeyboardInterrupt):
            run_resilient_trials(
                crash_at(interrupt_at, KeyboardInterrupt()),
                CONFIG,
                checkpoint_dir=tmp_path,
                checkpoint_every=4,
            )
        resumed = run_resilient_trials(
            coin_trial, CONFIG, checkpoint_dir=tmp_path, resume=True
        )
        assert resumed.outcomes == baseline.outcomes
        assert resumed.successes == baseline.successes
        # Serial execution checkpoints every trial; a parallel executor
        # checkpoints per chunk, so the resume point is the last complete
        # chunk boundary at or before the crash.  Outcome equality above
        # is the exact bit-identity criterion either way.
        if CONFIG.resolved_workers() == 1:
            assert resumed.resumed_trials == interrupt_at
        else:
            assert resumed.resumed_trials <= interrupt_at
        assert resumed.estimate.wilson() == baseline.estimate.wilson()

    def test_resume_after_completion_is_noop(self, tmp_path, baseline):
        run_resilient_trials(coin_trial, CONFIG, checkpoint_dir=tmp_path)
        calls = []

        def counting(trial, rng):
            calls.append(trial)
            return coin_trial(trial, rng)

        resumed = run_resilient_trials(
            counting, CONFIG, checkpoint_dir=tmp_path, resume=True
        )
        assert calls == []
        assert resumed.outcomes == baseline.outcomes
        assert resumed.resumed_trials == 20

    def test_resume_missing_checkpoint_starts_fresh(self, tmp_path, baseline):
        result = run_resilient_trials(
            coin_trial, CONFIG, checkpoint_dir=tmp_path, resume=True
        )
        assert result.outcomes == baseline.outcomes
        assert result.resumed_trials == 0

    def test_resume_preserves_recorded_failures(self, tmp_path):
        def flaky_then_crashing(t, rng):
            if t == 2:
                raise ValueError("x")
            if t == 6:
                raise KeyboardInterrupt()
            return coin_trial(t, rng)

        with pytest.raises(KeyboardInterrupt):
            run_resilient_trials(
                flaky_then_crashing, CONFIG, checkpoint_dir=tmp_path
            )
        resumed = run_resilient_trials(
            coin_trial, CONFIG, checkpoint_dir=tmp_path, resume=True
        )
        assert resumed.failures == (
            TrialFailure(trial=2, error="ValueError: x"),
        )
        assert resumed.attempted == 20

    def test_mismatched_seed_raises(self, tmp_path):
        run_resilient_trials(coin_trial, CONFIG, checkpoint_dir=tmp_path)
        other = MonteCarloConfig(trials=20, seed=100)
        with pytest.raises(CheckpointError):
            run_resilient_trials(
                coin_trial, other, checkpoint_dir=tmp_path, resume=True
            )

    def test_mismatched_trials_raises(self, tmp_path):
        run_resilient_trials(coin_trial, CONFIG, checkpoint_dir=tmp_path)
        other = MonteCarloConfig(trials=21, seed=99)
        with pytest.raises(CheckpointError):
            run_resilient_trials(
                coin_trial, other, checkpoint_dir=tmp_path, resume=True
            )

    def test_corrupt_checkpoint_raises(self, tmp_path):
        (tmp_path / CHECKPOINT_FILENAME).write_text("{not json")
        with pytest.raises(CheckpointError):
            run_resilient_trials(
                coin_trial, CONFIG, checkpoint_dir=tmp_path, resume=True
            )

    def test_wrong_format_tag_raises(self, tmp_path):
        (tmp_path / CHECKPOINT_FILENAME).write_text(
            json.dumps({"format": "something-else"})
        )
        with pytest.raises(CheckpointError):
            run_resilient_trials(
                coin_trial, CONFIG, checkpoint_dir=tmp_path, resume=True
            )

    @pytest.mark.parametrize(
        "next_trial, outcomes, failures",
        [
            # Trials 3 and 4 missing: a resume at 5 would skip them.
            (5, [0, 1, 2], []),
            # Trial 1 recorded twice (once ok, once failed), 2 missing.
            (3, [0, 1], [1]),
        ],
        ids=["gap", "duplicate"],
    )
    def test_recorded_trials_must_be_the_whole_prefix(
        self, tmp_path, next_trial, outcomes, failures
    ):
        # Unstamped, as legacy checkpoints are (and still load).
        (tmp_path / CHECKPOINT_FILENAME).write_text(
            json.dumps(
                {
                    "format": "fullview-mc-checkpoint-v1",
                    "seed": CONFIG.seed,
                    "trials": CONFIG.trials,
                    "next_trial": next_trial,
                    "outcomes": [[trial, 1.0] for trial in outcomes],
                    "failures": [{"trial": trial, "error": "E: x"} for trial in failures],
                }
            )
        )
        with pytest.raises(CheckpointError, match="malformed"):
            run_resilient_trials(
                coin_trial, CONFIG, checkpoint_dir=tmp_path, resume=True
            )

    def test_no_stray_tmp_files(self, tmp_path):
        run_resilient_trials(
            coin_trial, CONFIG, checkpoint_dir=tmp_path, checkpoint_every=1
        )
        # Only the checkpoint and its rotated backup may remain — no
        # .tmp droppings from the atomic-write dance.
        leftovers = sorted(p.name for p in tmp_path.iterdir())
        assert leftovers == [CHECKPOINT_FILENAME, CHECKPOINT_BACKUP_FILENAME]


class TestCheckpointSelfHealing:
    """Corrupt checkpoints heal from the rotated backup, bit-identically."""

    def _seed_files(self, tmp_path):
        """A finished sweep's checkpoint pair (main + rotated backup)."""
        run_resilient_trials(
            coin_trial, CONFIG, checkpoint_dir=tmp_path, checkpoint_every=8
        )
        main = tmp_path / CHECKPOINT_FILENAME
        backup = tmp_path / CHECKPOINT_BACKUP_FILENAME
        assert main.exists() and backup.exists()
        return main, backup

    def test_truncated_main_recovers_from_backup(self, tmp_path, baseline):
        main, backup = self._seed_files(tmp_path)
        text = main.read_text()
        main.write_text(text[: len(text) // 2])
        result = run_resilient_trials(
            coin_trial, CONFIG, checkpoint_dir=tmp_path, resume=True
        )
        # The backup holds an older resume point; replaying the tail
        # re-derives the same streams, so the healed run is identical.
        assert result.outcomes == baseline.outcomes
        assert result.resumed_trials == 16
        healed = json.loads(main.read_text())
        assert verify_checksum(healed)

    def test_missing_main_recovers_from_backup(self, tmp_path, baseline):
        main, backup = self._seed_files(tmp_path)
        main.unlink()
        result = run_resilient_trials(
            coin_trial, CONFIG, checkpoint_dir=tmp_path, resume=True
        )
        assert result.outcomes == baseline.outcomes

    def test_corrupt_main_without_backup_raises_with_hint(self, tmp_path):
        main, backup = self._seed_files(tmp_path)
        main.write_text("{not json")
        backup.unlink()
        with pytest.raises(CheckpointError, match="start the sweep fresh"):
            run_resilient_trials(
                coin_trial, CONFIG, checkpoint_dir=tmp_path, resume=True
            )

    def test_tampered_payload_fails_checksum(self, tmp_path):
        main, backup = self._seed_files(tmp_path)
        payload = json.loads(main.read_text())
        payload["next_trial"] = 3  # parseable, but no longer what was written
        main.write_text(json.dumps(payload))
        backup.unlink()
        with pytest.raises(CheckpointError, match="sha256"):
            run_resilient_trials(
                coin_trial, CONFIG, checkpoint_dir=tmp_path, resume=True
            )

    def test_corrupt_backup_reraises_main_error(self, tmp_path):
        main, backup = self._seed_files(tmp_path)
        main.write_text("{not json")
        backup.write_text("also {not json")
        with pytest.raises(CheckpointError, match="cannot read checkpoint"):
            run_resilient_trials(
                coin_trial, CONFIG, checkpoint_dir=tmp_path, resume=True
            )

    def test_legacy_checkpoint_without_checksum_loads(self, tmp_path, baseline):
        main, backup = self._seed_files(tmp_path)
        payload = json.loads(main.read_text())
        del payload["sha256"]
        main.write_text(json.dumps(payload))
        result = run_resilient_trials(
            coin_trial, CONFIG, checkpoint_dir=tmp_path, resume=True
        )
        assert result.outcomes == baseline.outcomes

    def test_chaos_corrupted_write_recovers_on_resume(self, tmp_path, baseline):
        # Find a chaos seed whose corrupt draw hits exactly the final
        # checkpoint write (index 2 of: trial 8, trial 16, final).
        chaos = None
        for seed in range(256):
            candidate = ChaosPolicy(seed=seed, corrupt=0.5)
            if (
                candidate.corrupts_checkpoint(2)
                and not candidate.corrupts_checkpoint(0)
                and not candidate.corrupts_checkpoint(1)
            ):
                chaos = candidate
                break
        assert chaos is not None
        with fault_scope(chaos=chaos):
            first = run_resilient_trials(
                coin_trial, CONFIG, checkpoint_dir=tmp_path, checkpoint_every=8
            )
        assert first.outcomes == baseline.outcomes
        main = tmp_path / CHECKPOINT_FILENAME
        try:
            corrupt = not verify_checksum(json.loads(main.read_text()))
        except ValueError:
            corrupt = True
        assert corrupt, "the chaos seam should have truncated the final write"
        # Resume (chaos-free) heals from the backup and replays the
        # tail into the same outcomes as an uninterrupted run.
        resumed = run_resilient_trials(
            coin_trial, CONFIG, checkpoint_dir=tmp_path, resume=True
        )
        assert resumed.outcomes == baseline.outcomes
        assert resumed.resumed_trials == 16


class TestTimeBudget:
    def test_tiny_budget_truncates_gracefully(self, tmp_path, baseline):
        result = run_resilient_trials(
            coin_trial,
            CONFIG,
            checkpoint_dir=tmp_path,
            time_budget=1e-9,
        )
        assert result.truncated
        assert result.attempted < 20
        # The checkpoint left behind lets a resume finish the sweep.
        resumed = run_resilient_trials(
            coin_trial, CONFIG, checkpoint_dir=tmp_path, resume=True
        )
        assert not resumed.truncated
        assert resumed.outcomes == baseline.outcomes

    def test_generous_budget_completes(self):
        result = run_resilient_trials(coin_trial, CONFIG, time_budget=60.0)
        assert not result.truncated
        assert result.completed == 20

    def test_no_outcomes_estimate_is_none(self):
        result = run_resilient_trials(
            coin_trial, CONFIG, time_budget=1e-9
        )
        if result.completed == 0:
            assert result.estimate is None
