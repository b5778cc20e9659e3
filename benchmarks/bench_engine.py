"""Trial-execution engine: dispatch overhead and parallel speedup.

Two questions a user of ``--workers`` cares about:

1. *What does the engine cost per trial?*  A sweep of cheap trials is
   timed through the raw ``for`` loop, the serial engine and the
   chunk ladder on its process backend; the per-trial difference is
   the dispatch overhead, reported in ``extra_info`` (microseconds per
   trial).
2. *What does each backend buy with 2 workers?*  One workload on each
   side of ``executor_for``'s rule: the mc-grid-shaped grid sweep
   (numpy kernels that release the GIL) on threads, and ROBUST's
   per-point necessary-rate trial (Python-level, holds the GIL) on
   processes and on threads.  Each speedup is the median of
   alternating rounds and must clear a floor set below its measured
   median whenever at least 2 cores are usable — a row that cannot
   fail on a 2-core machine would prove nothing.

Every timing path asserts bit-identical outcomes first — the engine's
defining property — so the numbers can never come from divergent work.
"""

from __future__ import annotations

import math
import os
import statistics
import time

import numpy as np
from _record import record

from repro.core.csa import csa_necessary
from repro.deployment.uniform import UniformDeployment
from repro.experiments.robustness import _NecessaryRateTrial
from repro.geometry.grid import DenseGrid
from repro.obs.progress import ProgressTracker, progress_scope
from repro.resilience.failures import BernoulliFailure
from repro.sensors.model import CameraSpec, HeterogeneousProfile
from repro.simulation.engine import (
    MonteCarloConfig,
    ParallelExecutor,
    SerialExecutor,
    ThreadExecutor,
    execute_trials,
)
from repro.simulation.faults import RetryPolicy
from repro.simulation.montecarlo import GridFailureTask

CHEAP_TRIALS = 2000
CHEAP_CFG = MonteCarloConfig(trials=CHEAP_TRIALS, seed=17)

#: Workers behind every speedup row, and the cores they need before
#: a floor is asserted.
SPEEDUP_WORKERS = 2

#: Alternating rounds per speedup row; each ratio is of medians.
SPEEDUP_ROUNDS = 3

#: The mc-grid workload's task: one PHASE point at the necessary CSA
#: (q = 1) with an early exit over up to 2000 grid points per trial.
GRID_N = 1000
GRID_TRIALS = 20
GRID_TASK = GridFailureTask(
    profile=HeterogeneousProfile.homogeneous(
        CameraSpec.from_area(csa_necessary(GRID_N, math.pi / 2), math.pi / 2)
    ),
    n=GRID_N,
    theta=math.pi / 2,
    scheme=UniformDeployment(),
    condition="necessary",
    grid=DenseGrid.for_sensor_count(GRID_N, UniformDeployment().region),
    max_grid_points=2000,
)

#: ROBUST's first table, full budget: thin a 400-sensor fleet, then
#: test the probe point with scalar covering directions.
ROBUST_TRIALS = 1500
ROBUST_TASK = _NecessaryRateTrial(
    profile=HeterogeneousProfile.homogeneous(
        CameraSpec(radius=0.28, angle_of_view=math.pi / 2)
    ),
    n=400,
    theta=math.pi / 3,
    model=BernoulliFailure(0.2),
)

#: Floors, each set below the median of four runs on a 2-core x86-64
#: VM (noted beside it): threads on the grid sweep, processes on the
#: GIL-bound trial, and processes over threads on that trial.
THREAD_SPEEDUP_FLOOR = 1.4  # measured 1.79x
PROCESS_SPEEDUP_FLOOR = 1.2  # measured 1.69x
PROCESS_OVER_THREAD_FLOOR = 2.0  # measured 2.64x


def cheap_trial(trial: int, rng: np.random.Generator) -> bool:
    """The smallest meaningful task: one draw, one comparison."""
    return bool(rng.random() < 0.5)


def _plain_loop() -> int:
    successes = 0
    for trial, rng in enumerate(CHEAP_CFG.rngs()):
        if cheap_trial(trial, rng):
            successes += 1
    return successes


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def _self_timing(fn, times):
    """Wrap ``fn`` so each call appends its own wall-clock to ``times``.

    ``benchmark.stats`` is unavailable under ``--benchmark-disable``,
    so overhead arithmetic uses these self-measured durations instead.
    """

    def wrapped():
        elapsed, value = _timed(fn)
        times.append(elapsed)
        return value

    return wrapped


def test_serial_dispatch_overhead(benchmark):
    """Per-trial cost of the engine over a raw loop (microseconds)."""
    loop_time, expected = _timed(_plain_loop)

    def through_engine() -> int:
        outcomes = execute_trials(
            cheap_trial, CHEAP_CFG, executor=SerialExecutor()
        )
        return sum(1 for o in outcomes if o.value)

    times = []
    successes = benchmark.pedantic(
        _self_timing(through_engine, times), rounds=3, iterations=1
    )
    assert successes == expected
    overhead_us = (min(times) - loop_time) / CHEAP_TRIALS * 1e6
    benchmark.extra_info["per_trial_overhead_us"] = overhead_us
    record("engine_serial_dispatch_overhead", overhead_us, "us/trial")


def test_parallel_dispatch_overhead(benchmark):
    """Per-trial cost of the chunk ladder on tasks too cheap to parallelise.

    Measured on the process backend, whose chunks cross a pickle
    boundary: the costlier of the two.
    """
    loop_time, expected = _timed(_plain_loop)

    def through_pool() -> int:
        outcomes = execute_trials(
            cheap_trial, CHEAP_CFG, executor=ParallelExecutor(workers=2)
        )
        return sum(1 for o in outcomes if o.value)

    times = []
    successes = benchmark.pedantic(
        _self_timing(through_pool, times), rounds=3, iterations=1
    )
    assert successes == expected
    overhead_us = (min(times) - loop_time) / CHEAP_TRIALS * 1e6
    benchmark.extra_info["per_trial_overhead_us"] = overhead_us
    record("engine_parallel_dispatch_overhead", overhead_us, "us/trial")


#: Interleaved measurement rounds for the retry-overhead comparison.
#: Medians over this many rounds are stable enough that the reported
#: overhead no longer swings negative on scheduler noise alone.
RETRY_ROUNDS = 7


def test_retry_machinery_overhead(benchmark):
    """Fault-free cost of the retry ladder on the pool dispatch path.

    The chunk ladder arms per-chunk deadlines, attempt accounting and
    backoff state even when no fault ever fires; this compares it
    against a retry-free policy on the same process pool and asserts the
    machinery stays under the 5% acceptance ceiling.  Both sides are
    the *median* of ``RETRY_ROUNDS`` interleaved rounds — min-of-rounds
    let one lucky bare round report a negative overhead — and a
    measurement that still lands below zero is clamped to 0 with a
    widened-CI note instead of recording noise as a speedup.
    """
    bare = ParallelExecutor(
        workers=2,
        retry=RetryPolicy(max_retries=0, backoff_base=0.0, max_pool_respawns=0),
    )
    hardened = ParallelExecutor(
        workers=2,
        retry=RetryPolicy(max_retries=2, chunk_timeout=60.0),
    )

    def through(executor: ParallelExecutor) -> int:
        outcomes = execute_trials(cheap_trial, CHEAP_CFG, executor=executor)
        return sum(1 for o in outcomes if o.value)

    # First run populates the shared worker pool; startup is not part
    # of the steady-state comparison.
    expected = through(bare)
    # Interleave the rounds so clock drift hits both sides equally.
    bare_times, hardened_times = [], []
    for _ in range(RETRY_ROUNDS - 1):
        elapsed, successes = _timed(lambda: through(bare))
        assert successes == expected
        bare_times.append(elapsed)
        elapsed, successes = _timed(lambda: through(hardened))
        assert successes == expected
        hardened_times.append(elapsed)

    elapsed, successes = _timed(lambda: through(bare))
    assert successes == expected
    bare_times.append(elapsed)
    times = []
    successes = benchmark.pedantic(
        _self_timing(lambda: through(hardened), times), rounds=1, iterations=1
    )
    assert successes == expected
    hardened_times.append(times[0])

    raw_pct = (
        (statistics.median(hardened_times) - statistics.median(bare_times))
        / statistics.median(bare_times)
        * 100.0
    )
    overhead_pct = max(0.0, raw_pct)
    benchmark.extra_info["overhead_pct"] = overhead_pct
    benchmark.extra_info["raw_overhead_pct"] = raw_pct
    benchmark.extra_info["rounds"] = RETRY_ROUNDS
    if raw_pct < 0.0:
        benchmark.extra_info["note"] = (
            "median difference below the noise floor: confidence interval "
            "includes 0, reported as 0"
        )
    record("engine_retry_overhead_pct", overhead_pct, "%")
    assert overhead_pct < 5.0, (
        f"fault-free retry machinery costs {overhead_pct:.2f}% over a "
        "retry-free policy; the acceptance ceiling is 5%"
    )


def test_progress_overhead(benchmark, tmp_path):
    """Cost of live progress heartbeats on the serial dispatch path.

    The tracker charges integer bookkeeping per ``advance`` (clock,
    EWMA and status writes run on the throttled stride path only); a
    cheap serial sweep is the worst case because per-trial work hides
    nothing.  One tracker spans all rounds — totals accumulate across
    sweeps by design, and tracker construction plus the first status
    write are once-per-run costs, not steady state (same reasoning as
    pool warmup in the speedup benches).  Noise handling is stricter
    than the retry bench's median-vs-median: each tracked round is
    paired with the plain round timed immediately before it (the pair
    shares whatever load the machine had that instant) and the
    reported overhead is the median of the per-pair differences —
    negative noise clamped to 0 with a widened-CI note, and a 2%
    acceptance ceiling on the recorded value.
    """
    tracker = ProgressTracker(status_path=tmp_path / "status.json")

    def plain() -> int:
        outcomes = execute_trials(cheap_trial, CHEAP_CFG, executor=SerialExecutor())
        return sum(1 for o in outcomes if o.value)

    def tracked() -> int:
        with progress_scope(tracker):
            return plain()

    expected = plain()
    done_before = tracker.done
    tracked()  # warmup: first heartbeat writes the status file
    rounds = 2 * RETRY_ROUNDS + 1
    # Pair each tracked round with the plain round timed right before
    # it, so each difference cancels that instant's machine load.
    plain_times, diffs = [], []
    for _ in range(rounds - 1):
        plain_elapsed, successes = _timed(plain)
        assert successes == expected
        plain_times.append(plain_elapsed)
        tracked_elapsed, successes = _timed(tracked)
        assert successes == expected
        diffs.append(tracked_elapsed - plain_elapsed)

    plain_elapsed, successes = _timed(plain)
    assert successes == expected
    plain_times.append(plain_elapsed)
    times = []
    successes = benchmark.pedantic(
        _self_timing(tracked, times), rounds=1, iterations=1
    )
    assert successes == expected
    diffs.append(times[0] - plain_elapsed)
    assert tracker.done - done_before == (rounds + 1) * CHEAP_TRIALS

    raw_pct = statistics.median(diffs) / statistics.median(plain_times) * 100.0
    overhead_pct = max(0.0, raw_pct)
    benchmark.extra_info["overhead_pct"] = overhead_pct
    benchmark.extra_info["raw_overhead_pct"] = raw_pct
    benchmark.extra_info["rounds"] = rounds
    if raw_pct < 0.0:
        benchmark.extra_info["note"] = (
            "median difference below the noise floor: confidence interval "
            "includes 0, reported as 0"
        )
    record("engine_progress_overhead_pct", overhead_pct, "%")
    assert overhead_pct < 2.0, (
        f"live progress tracking costs {overhead_pct:.2f}% on a cheap serial "
        "sweep; the acceptance ceiling is 2%"
    )


def _median_times(*sweeps):
    """Median wall time of each sweep over alternating rounds.

    One untimed pass warms every sweep (process pool startup is a
    once-per-process cost, not steady state); rotating which sweep runs
    first spreads machine drift over all of them.  Every sweep must
    return the same outcomes in every pass.
    """
    expected = sweeps[0]()
    for sweep in sweeps[1:]:
        assert sweep() == expected
    times = [[] for _ in sweeps]
    for round_index in range(SPEEDUP_ROUNDS):
        shift = round_index % len(sweeps)
        for i in list(range(shift, len(sweeps))) + list(range(shift)):
            elapsed, outcomes = _timed(sweeps[i])
            assert outcomes == expected
            times[i].append(elapsed)
    return [statistics.median(t) for t in times]


def _sweep(task, trials, executor):
    config = MonteCarloConfig(trials=trials, seed=5)
    return lambda: execute_trials(task, config, executor=executor)


def _floor_applies() -> bool:
    return len(os.sched_getaffinity(0)) >= SPEEDUP_WORKERS


def test_thread_speedup_grid_sweep():
    """Threads over serial on the mc-grid-shaped sweep (2 workers).

    The grid sweep's inner loops are numpy batch kernels that release
    the GIL, which is why ``executor_for`` sends it to threads.
    """
    serial, threaded = _median_times(
        _sweep(GRID_TASK, GRID_TRIALS, SerialExecutor()),
        _sweep(GRID_TASK, GRID_TRIALS, ThreadExecutor(SPEEDUP_WORKERS)),
    )
    speedup = serial / threaded
    record("engine_thread_speedup_2w", speedup, "x")
    if _floor_applies():
        assert speedup >= THREAD_SPEEDUP_FLOOR, (
            f"threads reached {speedup:.2f}x over serial on the grid sweep "
            f"with {SPEEDUP_WORKERS} workers; the floor is "
            f"{THREAD_SPEEDUP_FLOOR}x"
        )


def test_process_speedup_gil_bound_trial():
    """Processes over serial, and over threads, on ROBUST's trial.

    ``_NecessaryRateTrial`` spends its time in Python-level code that
    holds the GIL, so threads cannot overlap it and ``executor_for``
    sends it to processes.  The process-over-thread row is why the
    process backend exists.
    """
    serial, threaded, process = _median_times(
        _sweep(ROBUST_TASK, ROBUST_TRIALS, SerialExecutor()),
        _sweep(ROBUST_TASK, ROBUST_TRIALS, ThreadExecutor(SPEEDUP_WORKERS)),
        _sweep(ROBUST_TASK, ROBUST_TRIALS, ParallelExecutor(SPEEDUP_WORKERS)),
    )
    speedup = serial / process
    over_thread = threaded / process
    record("engine_process_speedup_2w", speedup, "x")
    record("engine_process_over_thread_2w", over_thread, "x")
    if _floor_applies():
        assert speedup >= PROCESS_SPEEDUP_FLOOR, (
            f"processes reached {speedup:.2f}x over serial on ROBUST's "
            f"trial with {SPEEDUP_WORKERS} workers; the floor is "
            f"{PROCESS_SPEEDUP_FLOOR}x"
        )
        assert over_thread >= PROCESS_OVER_THREAD_FLOOR, (
            f"processes reached {over_thread:.2f}x over threads on "
            f"ROBUST's trial with {SPEEDUP_WORKERS} workers; the floor is "
            f"{PROCESS_OVER_THREAD_FLOOR}x"
        )
