"""Trial-execution engine: executors are interchangeable, bit for bit.

The engine's load-bearing guarantee is that the *executor is not part
of the statistical model*: because trial ``i``'s generator is
``SeedSequence(seed, spawn_key=(i,))``, any execution order — serial,
chunked across processes, replayed after a checkpoint — produces the
same outcomes.  These tests pin that guarantee for the raw executors,
for every estimator, and for the checkpointed resilient runner.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.deployment.uniform import UniformDeployment
from repro.errors import InvalidParameterError
from repro.geometry.grid import DenseGrid
from repro.resilience.failures import FailureSchedule
from repro.resilience.lifetime import LifetimeTask, LifetimeValueTask
from repro.sensors.model import CameraSpec, HeterogeneousProfile
from repro.simulation.engine import (
    WORKERS_ENV_VAR,
    MonteCarloConfig,
    ParallelExecutor,
    SerialExecutor,
    ThreadExecutor,
    TrialOutcome,
    execute_trials,
    executor_for,
    run_trial,
)
from repro.simulation.montecarlo import (
    AreaFractionTask,
    ConditionChainTask,
    GridFailureTask,
    PointProbabilityTask,
    estimate_area_fraction,
    estimate_condition_chain,
    estimate_grid_failure_probability,
    estimate_point_probability,
)
from repro.simulation.runner import run_resilient_trials


def draw_trial(trial: int, rng: np.random.Generator) -> float:
    """A cheap picklable task whose value fingerprints the rng stream."""
    return float(rng.random())


def failing_trial(trial: int, rng: np.random.Generator) -> float:
    """Fails on trial 3, succeeds elsewhere."""
    if trial == 3:
        raise ValueError("injected failure")
    return draw_trial(trial, rng)


def interrupting_trial(trial: int, rng: np.random.Generator) -> float:
    """Fails on trial 2, interrupts on trial 6, succeeds elsewhere."""
    if trial == 2:
        raise ValueError("injected failure")
    if trial == 6:
        raise KeyboardInterrupt()
    return draw_trial(trial, rng)


PROFILE = HeterogeneousProfile.homogeneous(
    CameraSpec(radius=0.3, angle_of_view=math.pi / 2)
)
THETA = math.pi / 3


@pytest.fixture
def profile():
    return PROFILE


class TestMonteCarloConfig:
    def test_rejects_bad_trials(self):
        with pytest.raises(InvalidParameterError):
            MonteCarloConfig(trials=0)

    def test_rejects_bad_workers(self):
        with pytest.raises(InvalidParameterError):
            MonteCarloConfig(trials=5, workers=0)

    def test_rng_for_trial_bounds(self):
        cfg = MonteCarloConfig(trials=5, seed=1)
        with pytest.raises(InvalidParameterError):
            cfg.rng_for_trial(5)
        with pytest.raises(InvalidParameterError):
            cfg.rng_for_trial(-1)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_streams_match_legacy_spawn(self, seed):
        # The historical eager spawn and O(1) addressing are the same
        # streams; this is the identity every executor leans on.
        cfg = MonteCarloConfig(trials=8, seed=seed)
        legacy = np.random.SeedSequence(seed).spawn(8)
        for trial, seq in enumerate(legacy):
            expected = np.random.Generator(np.random.PCG64(seq)).random(4)
            actual = cfg.rng_for_trial(trial).random(4)
            assert (expected == actual).all()

    def test_resolved_workers_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "7")
        assert MonteCarloConfig(trials=1, workers=3).resolved_workers() == 3

    def test_resolved_workers_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "4")
        assert MonteCarloConfig(trials=1).resolved_workers() == 4

    def test_resolved_workers_default_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert MonteCarloConfig(trials=1).resolved_workers() == 1

    @pytest.mark.parametrize("raw", ["zero", "-2", "0", "1.5"])
    def test_resolved_workers_rejects_bad_env(self, monkeypatch, raw):
        monkeypatch.setenv(WORKERS_ENV_VAR, raw)
        with pytest.raises(InvalidParameterError):
            MonteCarloConfig(trials=1).resolved_workers()

    def test_executor_for_respects_workers(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert isinstance(executor_for(MonteCarloConfig(trials=1)), SerialExecutor)
        assert isinstance(
            executor_for(MonteCarloConfig(trials=1, workers=2)), ParallelExecutor
        )


class TestExecutorSelection:
    """One worker is serial; otherwise ``releases_gil`` picks threads."""

    POINT_TASK = PointProbabilityTask(
        profile=PROFILE,
        n=10,
        theta=THETA,
        condition="necessary",
        scheme=UniformDeployment(),
        point=(0.5, 0.5),
    )

    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)

    def test_default_is_auto(self):
        # "auto" is the only parallel kind; one worker resolves serial.
        assert MonteCarloConfig(trials=1, workers=2).resolved_executor() == "auto"
        assert MonteCarloConfig(trials=1).resolved_executor() == "serial"

    def test_single_worker_always_serial(self):
        cfg = MonteCarloConfig(trials=1)
        assert isinstance(executor_for(cfg, draw_trial), SerialExecutor)
        assert isinstance(executor_for(cfg, self.POINT_TASK), SerialExecutor)

    def test_auto_picks_threads_for_gil_releasing_tasks(self):
        # Estimator and lifetime tasks advertise releases_gil (numpy
        # kernels); plain callables do not, so processes stay the safe
        # default.
        lifetime = LifetimeTask(
            profile=PROFILE,
            n=10,
            theta=THETA,
            schedule=FailureSchedule([]),
            epochs=2,
            scheme=UniformDeployment(),
        )
        cfg = MonteCarloConfig(trials=1, workers=2)
        for task in (self.POINT_TASK, lifetime, LifetimeValueTask(task=lifetime)):
            assert isinstance(executor_for(cfg, task), ThreadExecutor)
        assert isinstance(executor_for(cfg, draw_trial), ParallelExecutor)

    def test_selection_metrics_recorded(self):
        from repro.obs.metrics import MetricsRegistry, metrics_scope

        registry = MetricsRegistry()
        with metrics_scope(registry):
            executor_for(MonteCarloConfig(trials=1, workers=2), self.POINT_TASK)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["executor_selected_thread"] == 1
        assert snapshot["gauges"]["executor_workers"] == 2.0


class TestRunTrial:
    def test_isolated_failure_is_recorded(self):
        cfg = MonteCarloConfig(trials=5, seed=0)
        outcome = run_trial(failing_trial, cfg, 3, isolate=True)
        assert not outcome.ok
        assert outcome.error == "ValueError: injected failure"
        assert outcome.value is None

    def test_unisolated_failure_propagates(self):
        cfg = MonteCarloConfig(trials=5, seed=0)
        with pytest.raises(ValueError):
            run_trial(failing_trial, cfg, 3)

    def test_outcome_is_picklable(self):
        outcome = TrialOutcome(trial=2, value=0.5)
        assert pickle.loads(pickle.dumps(outcome)) == outcome


class TestExecutorEquivalence:
    """Serial and parallel executors must agree bit for bit."""

    CFG = MonteCarloConfig(trials=17, seed=42)

    def _serial(self):
        return execute_trials(draw_trial, self.CFG, executor=SerialExecutor())

    def test_serial_covers_trials_in_order(self):
        outcomes = self._serial()
        assert [o.trial for o in outcomes] == list(range(17))

    @pytest.mark.parametrize("chunk_size", [None, 1, 4, 17, 100])
    def test_parallel_matches_serial(self, chunk_size):
        parallel = execute_trials(
            draw_trial,
            self.CFG,
            executor=ParallelExecutor(workers=2, chunk_size=chunk_size),
        )
        assert parallel == self._serial()

    def test_closure_task_falls_back_in_process(self):
        # Closures cannot pickle into workers; the per-chunk fallback
        # must still complete the sweep with identical results.
        offset = 0.0
        parallel = execute_trials(
            lambda trial, rng: float(rng.random()) + offset,
            self.CFG,
            executor=ParallelExecutor(workers=2),
        )
        assert parallel == self._serial()

    def test_parallel_isolated_failures_recorded(self):
        outcomes = execute_trials(
            failing_trial,
            self.CFG,
            executor=ParallelExecutor(workers=2, chunk_size=5),
            isolate=True,
        )
        assert len(outcomes) == 17
        bad = [o for o in outcomes if not o.ok]
        assert [o.trial for o in bad] == [3]
        assert bad[0].error == "ValueError: injected failure"

    def test_parallel_unisolated_failure_propagates(self):
        with pytest.raises(ValueError):
            execute_trials(
                failing_trial, self.CFG, executor=ParallelExecutor(workers=2)
            )

    @pytest.mark.parametrize("chunk_size", [None, 1, 4, 17, 100])
    def test_thread_matches_serial(self, chunk_size):
        threaded = execute_trials(
            draw_trial,
            self.CFG,
            executor=ThreadExecutor(workers=2, chunk_size=chunk_size),
        )
        assert threaded == self._serial()

    def test_thread_closure_task_needs_no_fallback(self):
        # Threads share the interpreter: closures never hit a pickle
        # boundary, so they run directly and still match serial.
        offset = 0.0
        threaded = execute_trials(
            lambda trial, rng: float(rng.random()) + offset,
            self.CFG,
            executor=ThreadExecutor(workers=2),
        )
        assert threaded == self._serial()

    def test_thread_isolated_failures_recorded(self):
        outcomes = execute_trials(
            failing_trial,
            self.CFG,
            executor=ThreadExecutor(workers=2, chunk_size=5),
            isolate=True,
        )
        assert len(outcomes) == 17
        bad = [o for o in outcomes if not o.ok]
        assert [o.trial for o in bad] == [3]
        assert bad[0].error == "ValueError: injected failure"

    def test_thread_unisolated_failure_propagates(self):
        with pytest.raises(ValueError):
            execute_trials(
                failing_trial, self.CFG, executor=ThreadExecutor(workers=2)
            )

    def test_invalid_executor_parameters(self):
        with pytest.raises(InvalidParameterError):
            ParallelExecutor(workers=0)
        with pytest.raises(InvalidParameterError):
            ParallelExecutor(workers=2, chunk_size=0)
        with pytest.raises(InvalidParameterError):
            ThreadExecutor(workers=0)
        with pytest.raises(InvalidParameterError):
            ThreadExecutor(workers=2, chunk_size=0)

    def test_empty_trial_range_yields_nothing(self):
        batches = list(ParallelExecutor(workers=2).run(draw_trial, self.CFG, []))
        assert batches == []
        batches = list(ThreadExecutor(workers=2).run(draw_trial, self.CFG, []))
        assert batches == []


class TestAdaptiveChunking:
    """Default chunking probes per-trial cost and targets >= 50 ms/chunk."""

    def test_slow_trials_get_small_chunks(self):
        # A probed trial slower than the target means one trial per chunk.
        assert ParallelExecutor(workers=4)._adaptive_size(0.2, 100) == 1

    def test_fast_trials_get_large_chunks(self):
        # 1 ms/trial -> 50 trials reach the 50 ms target.
        assert ParallelExecutor(workers=2)._adaptive_size(0.001, 1000) == 50

    def test_chunks_capped_by_max_auto_chunk(self):
        from repro.simulation.engine import _MAX_AUTO_CHUNK

        assert (
            ParallelExecutor(workers=1)._adaptive_size(1e-9, 10**6)
            == _MAX_AUTO_CHUNK
        )

    def test_chunks_never_starve_workers(self):
        # 8 remaining trials over 4 workers: at most 2 per chunk, however
        # cheap the probe says they are.
        assert ParallelExecutor(workers=4)._adaptive_size(1e-6, 8) == 2

    def test_probe_first_batch_is_trial_zero(self):
        cfg = MonteCarloConfig(trials=9, seed=3)
        batches = list(
            ParallelExecutor(workers=2).run(draw_trial, cfg, list(range(9)))
        )
        assert [o.trial for o in batches[0]] == [0]
        assert [o.trial for batch in batches for o in batch] == list(range(9))

    def test_chunk_size_gauge_recorded(self):
        from repro.obs.metrics import MetricsRegistry, metrics_scope

        cfg = MonteCarloConfig(trials=6, seed=5)
        registry = MetricsRegistry()
        with metrics_scope(registry):
            execute_trials(
                draw_trial, cfg, executor=ParallelExecutor(workers=2)
            )
        snapshot = registry.snapshot()
        assert snapshot["gauges"]["parallel_chunk_size"] >= 1
        assert "parallel_probe_seconds" in snapshot["gauges"]

    def test_interrupt_preserves_completed_chunk_outcomes(self):
        # An interrupt mid-chunk must not discard the chunk's completed
        # trials — however coarse the adaptive sizing made the chunk.
        cfg = MonteCarloConfig(trials=20, seed=99)
        seen = []
        with pytest.raises(KeyboardInterrupt):
            for batch in ParallelExecutor(workers=2).run(
                interrupting_trial, cfg, list(range(20)), isolate=True
            ):
                seen.extend(batch)
        trials_seen = [o.trial for o in seen]
        assert trials_seen == list(range(6))
        assert [o.trial for o in seen if not o.ok] == [2]

    def test_explicit_chunk_size_gauge_recorded(self):
        from repro.obs.metrics import MetricsRegistry, metrics_scope

        cfg = MonteCarloConfig(trials=6, seed=5)
        registry = MetricsRegistry()
        with metrics_scope(registry):
            execute_trials(
                draw_trial,
                cfg,
                executor=ParallelExecutor(workers=2, chunk_size=3),
            )
        assert registry.snapshot()["gauges"]["parallel_chunk_size"] == 3


class TestEstimatorBitIdentity:
    """The issue's acceptance criterion: every estimator, workers > 1
    == serial, exactly."""

    def _cfg(self, workers, seed=11, trials=10):
        return MonteCarloConfig(trials=trials, seed=seed, workers=workers)

    def test_point_probability(self, profile):
        serial = estimate_point_probability(
            profile, 60, THETA, "necessary", self._cfg(1)
        )
        parallel = estimate_point_probability(
            profile, 60, THETA, "necessary", self._cfg(2)
        )
        assert serial == parallel

    def test_grid_failure(self, profile):
        serial = estimate_grid_failure_probability(
            profile, 40, THETA, "exact", self._cfg(1), max_grid_points=25
        )
        parallel = estimate_grid_failure_probability(
            profile, 40, THETA, "exact", self._cfg(2), max_grid_points=25
        )
        assert serial == parallel

    def test_area_fraction(self, profile):
        serial = estimate_area_fraction(
            profile, 40, THETA, "k_coverage", self._cfg(1), sample_points=32, k=2
        )
        parallel = estimate_area_fraction(
            profile, 40, THETA, "k_coverage", self._cfg(2), sample_points=32, k=2
        )
        assert serial == parallel

    def test_condition_chain(self, profile):
        serial = estimate_condition_chain(profile, 60, THETA, self._cfg(1))
        parallel = estimate_condition_chain(profile, 60, THETA, self._cfg(2))
        assert serial == parallel

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=5, deadline=None)
    def test_point_probability_any_seed(self, seed):
        serial = estimate_point_probability(
            PROFILE, 50, THETA, "exact", self._cfg(1, seed=seed, trials=6)
        )
        parallel = estimate_point_probability(
            PROFILE, 50, THETA, "exact", self._cfg(2, seed=seed, trials=6)
        )
        assert serial == parallel

    def test_env_var_path_matches(self, profile, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        serial = estimate_point_probability(
            profile, 60, THETA, "sufficient", self._cfg(None)
        )
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        parallel = estimate_point_probability(
            profile, 60, THETA, "sufficient", self._cfg(None)
        )
        assert serial == parallel


class TestThreeExecutorIdentity:
    """serial == thread == process, bit for bit, on every estimator task.

    Each task runs through explicit executor instances, so both
    parallel backends are covered whichever one ``executor_for`` would
    pick for it.
    """

    CFG = MonteCarloConfig(trials=10, seed=11)

    def _task(self, estimator):
        scheme = UniformDeployment()
        common = dict(profile=PROFILE, theta=THETA, scheme=scheme)
        if estimator == "point":
            return PointProbabilityTask(
                n=60, condition="necessary", point=(0.5, 0.5), **common
            )
        if estimator == "grid":
            return GridFailureTask(
                n=40,
                condition="exact",
                grid=DenseGrid.for_sensor_count(40, scheme.region),
                max_grid_points=25,
                **common,
            )
        if estimator == "area":
            return AreaFractionTask(
                n=40, condition="k_coverage", sample_points=32, k=2, **common
            )
        return ConditionChainTask(n=60, point=(0.5, 0.5), **common)

    @pytest.mark.parametrize("estimator", ["point", "grid", "area", "chain"])
    def test_all_backends_agree(self, estimator):
        task = self._task(estimator)
        serial = execute_trials(task, self.CFG, executor=SerialExecutor())
        threaded = execute_trials(
            task, self.CFG, executor=ThreadExecutor(workers=2)
        )
        process = execute_trials(
            task, self.CFG, executor=ParallelExecutor(workers=2)
        )
        assert serial == threaded
        assert serial == process

    def test_auto_uses_threads_and_matches(self, profile):
        # Estimator tasks release the GIL, so auto lands on threads —
        # and the answer is still the serial answer.
        from repro.obs.metrics import MetricsRegistry, metrics_scope

        def estimate(workers):
            cfg = MonteCarloConfig(trials=10, seed=11, workers=workers)
            return estimate_point_probability(profile, 60, THETA, "necessary", cfg)

        serial = estimate(1)
        registry = MetricsRegistry()
        with metrics_scope(registry):
            auto = estimate(2)
        assert auto == serial
        assert registry.snapshot()["counters"]["executor_selected_thread"] >= 1


class TestParallelCheckpointResume:
    """Checkpoint/resume under the parallel executor == uninterrupted."""

    TASK = PointProbabilityTask(
        profile=PROFILE,
        n=50,
        theta=THETA,
        condition="necessary",
        scheme=UniformDeployment(),
        point=(0.5, 0.5),
    )

    def test_interrupted_parallel_equals_uninterrupted_serial(self, tmp_path):
        serial_cfg = MonteCarloConfig(trials=16, seed=7, workers=1)
        parallel_cfg = MonteCarloConfig(trials=16, seed=7, workers=2)
        baseline = run_resilient_trials(self.TASK, serial_cfg)
        truncated = run_resilient_trials(
            self.TASK,
            parallel_cfg,
            checkpoint_dir=tmp_path,
            checkpoint_every=1,
            time_budget=1e-9,
        )
        assert truncated.truncated
        resumed = run_resilient_trials(
            self.TASK, parallel_cfg, checkpoint_dir=tmp_path, resume=True
        )
        assert not resumed.truncated
        assert resumed.outcomes == baseline.outcomes

    def test_parallel_sweep_matches_serial(self):
        serial = run_resilient_trials(
            self.TASK, MonteCarloConfig(trials=12, seed=3, workers=1)
        )
        parallel = run_resilient_trials(
            self.TASK, MonteCarloConfig(trials=12, seed=3, workers=2)
        )
        assert parallel.outcomes == serial.outcomes

    def test_area_task_is_picklable(self):
        # Every estimator task must cross the process boundary.
        task = AreaFractionTask(
            profile=PROFILE,
            n=10,
            theta=THETA,
            condition="exact",
            scheme=UniformDeployment(),
            sample_points=8,
        )
        clone = pickle.loads(pickle.dumps(task))
        rng = np.random.SeedSequence(5)
        original = task(0, np.random.Generator(np.random.PCG64(rng)))
        restored = clone(0, np.random.Generator(np.random.PCG64(rng)))
        assert original == restored
