"""Fault injection and the hardened execution path.

The contract under test: every injected fault — worker crash, hang,
slow chunk, pickle failure, corrupt checkpoint, poison trial — is (a)
reproducible from the chaos seed and (b) *invisible in the results*.
Trial generators are O(1)-addressable, chaos fires only at the worker
boundary, and the retry/respawn/degrade ladder re-runs work instead of
losing it, so a chaos run must tally bit-identical outcomes to a
fault-free run (minus explicitly quarantined poison trials).
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.errors import ChaosError, InvalidParameterError
from repro.obs.events import EventLog, event_scope
from repro.obs.metrics import MetricsRegistry, metrics_scope
from repro.simulation.engine import (
    MonteCarloConfig,
    ParallelExecutor,
    ThreadExecutor,
    _pool_for,
    execute_trials,
)
from repro.simulation.faults import (
    CHAOS_ENV_VAR,
    CHUNK_TIMEOUT_ENV_VAR,
    MAX_RETRIES_ENV_VAR,
    ChaosPolicy,
    RetryPolicy,
    active_chaos_policy,
    active_retry_policy,
    fault_scope,
    resolve_chaos_policy,
    resolve_retry_policy,
)


def draw_trial(trial: int, rng: np.random.Generator) -> float:
    """A cheap picklable task whose value fingerprints the rng stream."""
    return float(rng.random())


#: Fast retries for tests: no backoff sleeps, bounded attempts.
FAST_RETRY = RetryPolicy(max_retries=2, backoff_base=0.0, max_pool_respawns=2)

#: Both parallel backends walk the same chunk ladder; every chaos case
#: runs on each.
BACKENDS = pytest.mark.parametrize(
    "backend", [ThreadExecutor, ParallelExecutor], ids=["thread", "process"]
)


def _values(outcomes):
    return [outcome.value for outcome in outcomes]


def _run_with_obs(executor, config, isolate=False):
    """Run a sweep capturing (outcomes, event names, metrics)."""
    sink = io.StringIO()
    metrics = MetricsRegistry()
    with event_scope(EventLog(sink)), metrics_scope(metrics):
        outcomes = execute_trials(
            draw_trial, config, executor=executor, isolate=isolate
        )
    events = [
        json.loads(line)["event"] for line in sink.getvalue().splitlines() if line
    ]
    return outcomes, events, metrics


class TestChaosPolicySpec:
    def test_parse_roundtrip(self):
        policy = ChaosPolicy(
            seed=7, crash=0.2, hang=0.1, slow=0.05, pickle_error=0.3,
            corrupt=0.15, poison_trial=9, attempts=2,
        )
        assert ChaosPolicy.parse(policy.render_spec()) == policy

    def test_parse_defaults_render(self):
        assert ChaosPolicy.parse("seed=0") == ChaosPolicy()
        assert ChaosPolicy().render_spec() == "seed=0"

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(InvalidParameterError):
            ChaosPolicy.parse("seed=1,explode=0.5")

    def test_parse_rejects_malformed_value(self):
        with pytest.raises(InvalidParameterError):
            ChaosPolicy.parse("crash=lots")

    def test_rates_validated(self):
        with pytest.raises(InvalidParameterError):
            ChaosPolicy(crash=1.5)
        with pytest.raises(InvalidParameterError):
            ChaosPolicy(hang_seconds=-1.0)
        with pytest.raises(InvalidParameterError):
            ChaosPolicy(attempts=0)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV_VAR, "seed=4,crash=0.25,poison=7")
        policy = ChaosPolicy.from_env()
        assert policy == ChaosPolicy(seed=4, crash=0.25, poison_trial=7)
        monkeypatch.setenv(CHAOS_ENV_VAR, "")
        assert ChaosPolicy.from_env() is None


class TestChaosPolicyDecisions:
    def test_decisions_are_deterministic(self):
        a = ChaosPolicy(seed=11, crash=0.5)
        b = ChaosPolicy(seed=11, crash=0.5)
        for first in range(32):
            assert a._fires(a.crash, 1, first, 0) == b._fires(b.crash, 1, first, 0)

    def test_crash_raises_then_clears(self):
        policy = ChaosPolicy(seed=0, crash=1.0)
        with pytest.raises(ChaosError):
            policy.perturb_chunk((0, 1, 2), attempt=0)
        # attempts=1 (default): the fault clears on the first retry.
        policy.perturb_chunk((0, 1, 2), attempt=1)

    def test_poison_fires_on_every_attempt(self):
        policy = ChaosPolicy(seed=0, poison_trial=5)
        for attempt in range(4):
            with pytest.raises(ChaosError):
                policy.perturb_chunk((4, 5, 6), attempt=attempt)
        # Chunks without the poison trial are untouched.
        policy.perturb_chunk((0, 1, 2), attempt=0)

    def test_corrupts_checkpoint_deterministic(self):
        policy = ChaosPolicy(seed=9, corrupt=0.5)
        draws = [policy.corrupts_checkpoint(i) for i in range(64)]
        assert draws == [policy.corrupts_checkpoint(i) for i in range(64)]
        assert any(draws) and not all(draws)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(InvalidParameterError):
            RetryPolicy(chunk_timeout=0.0)
        with pytest.raises(InvalidParameterError):
            RetryPolicy(max_pool_respawns=-1)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(MAX_RETRIES_ENV_VAR, "5")
        monkeypatch.setenv(CHUNK_TIMEOUT_ENV_VAR, "2.5")
        policy = RetryPolicy.from_env()
        assert policy.max_retries == 5
        assert policy.chunk_timeout == 2.5

    def test_from_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(MAX_RETRIES_ENV_VAR, "many")
        with pytest.raises(InvalidParameterError):
            RetryPolicy.from_env()

    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_max=0.4)
        for attempt in (1, 2, 3, 4):
            delay = policy.backoff_seconds(17, 8, attempt)
            assert delay == policy.backoff_seconds(17, 8, attempt)
            cap = min(0.4, 0.1 * 2 ** (attempt - 1))
            assert 0.5 * cap <= delay < cap

    def test_zero_base_means_no_sleep(self):
        assert RetryPolicy(backoff_base=0.0).backoff_seconds(0, 0, 1) == 0.0


class TestFaultScope:
    def test_scope_installs_and_restores(self):
        retry = RetryPolicy(max_retries=7)
        chaos = ChaosPolicy(seed=3, crash=0.1)
        assert active_retry_policy() is None
        with fault_scope(retry=retry, chaos=chaos):
            assert active_retry_policy() is retry
            assert active_chaos_policy() is chaos
            assert resolve_retry_policy(None) is retry
            assert resolve_chaos_policy(None) is chaos
        assert active_retry_policy() is None
        assert active_chaos_policy() is None

    def test_explicit_beats_scope(self):
        scoped = RetryPolicy(max_retries=7)
        explicit = RetryPolicy(max_retries=1)
        with fault_scope(retry=scoped):
            assert resolve_retry_policy(explicit) is explicit

    def test_scope_beats_environment(self, monkeypatch):
        monkeypatch.setenv(MAX_RETRIES_ENV_VAR, "9")
        with fault_scope(retry=RetryPolicy(max_retries=2)):
            assert resolve_retry_policy(None).max_retries == 2
        assert resolve_retry_policy(None).max_retries == 9


class TestChaosBitIdentity:
    """Seeded chaos profiles complete and tally fault-free results."""

    CONFIG = MonteCarloConfig(trials=24, seed=123)

    @pytest.fixture(scope="class")
    def baseline(self):
        return _values(execute_trials(draw_trial, self.CONFIG))

    @BACKENDS
    def test_crash_profile(self, baseline, backend):
        executor = backend(
            2, chunk_size=4, retry=FAST_RETRY,
            chaos=ChaosPolicy(seed=5, crash=0.6),
        )
        outcomes, events, metrics = _run_with_obs(executor, self.CONFIG)
        assert _values(outcomes) == baseline
        assert "ChunkRetried" in events
        assert metrics.counter("chunk_retries") > 0

    @BACKENDS
    def test_pickle_profile(self, baseline, backend):
        executor = backend(
            2, chunk_size=4, retry=FAST_RETRY,
            chaos=ChaosPolicy(seed=2, pickle_error=0.7),
        )
        outcomes = execute_trials(draw_trial, self.CONFIG, executor=executor)
        assert _values(outcomes) == baseline

    @BACKENDS
    def test_slow_profile(self, baseline, backend):
        executor = backend(
            2, chunk_size=6, retry=FAST_RETRY,
            chaos=ChaosPolicy(seed=1, slow=1.0, slow_seconds=0.002),
        )
        outcomes = execute_trials(draw_trial, self.CONFIG, executor=executor)
        assert _values(outcomes) == baseline

    @BACKENDS
    def test_hang_profile_with_deadline(self, baseline, backend):
        # Every chunk's first attempt hangs well past the deadline; the
        # executor must time it out and retry (the hang clears on
        # attempt 1).  Processes kill the hung worker by respawning the
        # pool, and cold worker start can eat further deadlines, so only
        # completion + identity + the first retry are asserted there —
        # whatever rung the ladder ends on.  A hung thread cannot be
        # killed: its retry goes to a fresh future on the same pool, and
        # a short hang keeps the abandoned thread from outliving the test
        # by much.
        config = MonteCarloConfig(trials=6, seed=123)
        serial = _values(execute_trials(draw_trial, config))
        processes = backend is ParallelExecutor
        executor = backend(
            2,
            chunk_size=6,
            retry=RetryPolicy(
                max_retries=2, chunk_timeout=2.0 if processes else 0.3,
                backoff_base=0.0, max_pool_respawns=2,
            ),
            chaos=ChaosPolicy(
                seed=3, hang=1.0, hang_seconds=8.0 if processes else 1.0
            ),
        )
        outcomes, events, metrics = _run_with_obs(executor, config)
        assert _values(outcomes) == serial
        assert "ChunkRetried" in events
        if processes:
            assert "PoolRespawned" in events or "ChunkFellBack" in events
        else:
            assert "PoolRespawned" not in events

    @BACKENDS
    def test_env_activated_chaos(self, baseline, monkeypatch, backend):
        monkeypatch.setenv(CHAOS_ENV_VAR, "seed=6,crash=1.0")
        executor = backend(2, chunk_size=4, retry=FAST_RETRY)
        assert executor.chaos == ChaosPolicy(seed=6, crash=1.0)
        outcomes = execute_trials(draw_trial, self.CONFIG, executor=executor)
        assert _values(outcomes) == baseline


@BACKENDS
class TestQuarantine:
    def test_poison_trial_is_quarantined(self, backend):
        config = MonteCarloConfig(trials=12, seed=9)
        serial = execute_trials(draw_trial, config)
        executor = backend(
            2,
            chunk_size=4,
            retry=RetryPolicy(max_retries=1, backoff_base=0.0),
            chaos=ChaosPolicy(seed=0, poison_trial=6),
        )
        sink = io.StringIO()
        metrics = MetricsRegistry()
        with event_scope(EventLog(sink)), metrics_scope(metrics):
            outcomes = execute_trials(
                draw_trial, config, executor=executor, isolate=True
            )
        assert len(outcomes) == config.trials
        by_trial = {outcome.trial: outcome for outcome in outcomes}
        assert not by_trial[6].ok
        assert "poison" in by_trial[6].error
        for trial, outcome in by_trial.items():
            if trial == 6:
                continue
            assert outcome.ok
            assert outcome.value == serial[trial].value
        events = [
            json.loads(line) for line in sink.getvalue().splitlines() if line
        ]
        quarantined = [e for e in events if e["event"] == "TrialQuarantined"]
        assert [e["trial"] for e in quarantined] == [6]
        assert metrics.counter("trials_quarantined") == 1

    def test_unisolated_poison_falls_back_and_completes(self, backend):
        # Without isolation there is no quarantine: the in-process
        # fallback re-runs the chunk chaos-free and the sweep completes
        # bit-identically (the "fault" was injected, not the task's).
        config = MonteCarloConfig(trials=8, seed=4)
        serial = _values(execute_trials(draw_trial, config))
        executor = backend(
            2,
            chunk_size=4,
            retry=RetryPolicy(max_retries=1, backoff_base=0.0),
            chaos=ChaosPolicy(seed=0, poison_trial=2),
        )
        outcomes = execute_trials(draw_trial, config, executor=executor)
        assert _values(outcomes) == serial


class TestPoolCacheRegression:
    def test_broken_pool_is_not_reused(self):
        pool = _pool_for(2)
        # Simulate mid-sweep breakage the way the stdlib records it.
        pool._broken = "simulated BrokenProcessPool"
        fresh = _pool_for(2)
        assert fresh is not pool
        assert not getattr(fresh, "_broken", False)
        # The replacement is cached and stays cached while healthy.
        assert _pool_for(2) is fresh


class TestDegradationLadder:
    def test_exhausted_respawn_budget_degrades_to_serial(self):
        # Hangs fire on every attempt and the respawn budget is zero:
        # the first deadline miss must push the sweep down to the
        # in-process rung, which completes bit-identically.
        config = MonteCarloConfig(trials=4, seed=77)
        serial = _values(execute_trials(draw_trial, config))
        executor = ParallelExecutor(
            2,
            chunk_size=4,
            retry=RetryPolicy(
                max_retries=3, chunk_timeout=0.2,
                backoff_base=0.0, max_pool_respawns=0,
            ),
            chaos=ChaosPolicy(seed=1, hang=1.0, hang_seconds=5.0, attempts=99),
        )
        outcomes, events, metrics = _run_with_obs(executor, config)
        assert _values(outcomes) == serial
        assert "ChunkFellBack" in events
        assert metrics.counter("chunk_fallbacks") > 0
