"""The trial-execution engine: one seeded core behind every Monte-Carlo loop.

Every quantitative claim in the paper is validated by the same loop:
derive the generator for trial ``i``, deploy a random fleet, evaluate a
condition, emit a small result record.  This module owns that loop once,
as three separable pieces:

- :class:`MonteCarloConfig` — the trial budget and master seed.  Trial
  ``i``'s generator is ``SeedSequence(seed, spawn_key=(i,))``, which is
  O(1)-addressable and order-independent, so **any execution order of
  the trials produces bit-identical streams**.  That single property is
  what makes everything downstream compose: parallel execution,
  checkpoint/resume and plain serial loops all tally the same numbers.
- A *trial task* — any callable ``(trial_index, rng) -> value`` whose
  randomness comes only from ``rng``.  The estimator tasks in
  :mod:`repro.simulation.montecarlo` and the lifetime task in
  :mod:`repro.resilience.lifetime` are frozen dataclasses, so they
  pickle cleanly into worker processes.
- A pluggable *executor*.  :class:`SerialExecutor` runs trials inline,
  one per batch (preserving per-trial deadline checks and checkpoint
  cadence exactly).  :class:`ThreadExecutor` and
  :class:`ParallelExecutor` are the two backends of one chunked
  executor: contiguous chunks of trials go to a thread pool or to a
  warm, process-lifetime ``ProcessPoolExecutor`` (one per worker count,
  started via a fork-safe method), and each chunk's outcomes are
  yielded in trial order.  Both walk the same fault ladder — retry,
  respawn, quarantine, in-process fallback — so a broken pool degrades
  to the serial path instead of losing the sweep.

Backend selection has one rule (:func:`executor_for`): one worker runs
serially; with more, a task that advertises ``releases_gil`` runs on
threads (the estimator and lifetime tasks do — their inner loops are
numpy kernels that drop the GIL) and any other task on processes.

Executors yield batches *in trial order* even though parallel chunks
complete out of order; consumers therefore always observe a contiguous
prefix of the sweep, which is exactly the invariant the checkpointed
runner (:mod:`repro.simulation.runner`) needs to resume at any index.
One loop drains them, :class:`Sweep`: :func:`execute_trials` runs it to
the end, and the resilient runner adds only its checkpoints and budget.

The engine is instrumented for :mod:`repro.obs`: with an active obs
context every trial runs inside a ``"trial"`` span and process chunks
ship their spans back as aggregated :class:`~repro.obs.trace.ChunkTrace`
records merged in trial order.  Each fault-ladder moment (a chunk
dispatched, retried, quarantined or fallen back, a pool respawned) is
one :func:`repro.obs.emit` call, whose table decides the counter and
progress tally it feeds.  The :class:`Sweep` emits
``RunStarted``/``RunFinished``, drives progress and tallies the trial
counters; the executors themselves feed no progress.  All of it is off
by default, guarded by single ``None`` checks, and none of it touches
the trial generators — traced and untraced runs are bit-identical.

Errors inside a trial follow two regimes.  With ``isolate=False`` (the
estimators' regime) the first exception propagates unchanged, like a
plain loop.  With ``isolate=True`` (the resilient runner's regime) each
failing trial is recorded as a :class:`TrialOutcome` with ``error`` set
and the sweep continues; ``KeyboardInterrupt`` and other
``BaseException`` still propagate in both regimes.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from abc import ABC, abstractmethod
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.obs import emit
from repro.obs.events import (
    ChunkDispatched,
    ChunkFellBack,
    ChunkRetried,
    PoolRespawned,
    RunFinished,
    RunStarted,
    TrialQuarantined,
)
from repro.obs.metrics import active_metrics
from repro.obs.progress import active_progress
from repro.obs.trace import (
    TRIAL_SPAN,
    ChunkTrace,
    TraceRecorder,
    active_recorder,
    set_recorder,
    span,
)
from repro.simulation.faults import (
    ChaosPolicy,
    RetryPolicy,
    is_serialization_error,
    resolve_chaos_policy,
    resolve_retry_policy,
)

__all__ = [
    "MonteCarloConfig",
    "ParallelExecutor",
    "SerialExecutor",
    "Sweep",
    "ThreadExecutor",
    "TrialExecutor",
    "TrialOutcome",
    "TrialTask",
    "WORKERS_ENV_VAR",
    "execute_trials",
    "executor_for",
    "run_trial",
    "shutdown_worker_pools",
]

#: Environment variable consulted when ``MonteCarloConfig.workers`` is
#: left unset; lets a CI job force the parallel executor on for an
#: entire test suite without touching call sites.
WORKERS_ENV_VAR = "FULLVIEW_WORKERS"

#: The worker count an experiment run scopes over its runner
#: (:meth:`repro.experiments.registry.Experiment.run` sets it): the
#: default of every config that leaves ``workers`` unset, consulted
#: before :data:`WORKERS_ENV_VAR`.  A context variable, so experiments
#: run concurrently on different threads never see each other's value.
_SCOPED_WORKERS: ContextVar[Optional[int]] = ContextVar("scoped_workers", default=None)

#: A trial task: derive everything from ``rng``, return a small record.
TrialTask = Callable[[int, np.random.Generator], Any]

#: Upper bound on the automatic chunk size; keeps partial results
#: flowing back to the consumer (checkpoints, budgets) on huge sweeps.
_MAX_AUTO_CHUNK = 256

#: Adaptive chunking targets at least this much work per dispatched
#: chunk, so per-chunk costs (task pickling, IPC, future bookkeeping)
#: stay a small fraction of the chunk's runtime.
_TARGET_CHUNK_SECONDS = 0.05


@dataclass(frozen=True)
class MonteCarloConfig:
    """Trial budget, reproducibility and execution settings.

    Attributes
    ----------
    trials:
        Number of independent deployments.
    seed:
        Master seed; each trial gets a spawned child generator.
    workers:
        Workers for trial execution.  ``1`` runs serially, ``> 1``
        dispatches chunks to a thread or process pool (see
        :func:`executor_for`; bit-identical results by construction).
        ``None`` — the default — falls back to the worker count of
        the experiment run in progress, then to the
        :data:`WORKERS_ENV_VAR` environment variable, else 1.
    """

    trials: int = 200
    seed: int = 0
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise InvalidParameterError(f"trials must be >= 1, got {self.trials!r}")
        if self.workers is not None and self.workers < 1:
            raise InvalidParameterError(
                f"workers must be >= 1 (or None for the environment default), "
                f"got {self.workers!r}"
            )

    def rng_for_trial(self, trial: int) -> np.random.Generator:
        """The generator for one trial, addressable in O(1).

        Child ``i`` of ``SeedSequence(seed).spawn(trials)`` is exactly
        ``SeedSequence(seed, spawn_key=(i,))``, so trials can be
        (re)played individually and in any order — the parallel
        executor and the checkpointed runner both rely on this for
        bit-identical streams.
        """
        if not (0 <= trial < self.trials):
            raise InvalidParameterError(
                f"trial must be in [0, {self.trials}), got {trial!r}"
            )
        seq = np.random.SeedSequence(self.seed, spawn_key=(trial,))
        return np.random.Generator(np.random.PCG64(seq))

    def rngs(self) -> Iterator[np.random.Generator]:
        """One independent generator per trial, yielded lazily.

        Streams are identical to the historical eager
        ``SeedSequence(seed).spawn(trials)`` list, but generators are
        created on demand, so large ``--full`` trial counts do not
        materialize thousands of generators up front.
        """
        for trial in range(self.trials):
            yield self.rng_for_trial(trial)

    def resolved_workers(self) -> int:
        """The effective worker count.

        The explicit field wins; an unset ``workers`` takes the count of
        the experiment run in progress (``fullview run --workers N``),
        then :data:`WORKERS_ENV_VAR`, so a CI job can force
        ``workers=2`` across an entire run; with neither set, execution
        is serial.
        """
        if self.workers is not None:
            return self.workers
        scoped = _SCOPED_WORKERS.get()
        if scoped is not None:
            return scoped
        raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
        if not raw:
            return 1
        try:
            value = int(raw)
        except ValueError as exc:
            raise InvalidParameterError(
                f"{WORKERS_ENV_VAR} must be an integer >= 1, got {raw!r}"
            ) from exc
        if value < 1:
            raise InvalidParameterError(
                f"{WORKERS_ENV_VAR} must be an integer >= 1, got {raw!r}"
            )
        return value

    def resolved_executor(self) -> str:
        """``"serial"`` for one resolved worker, else ``"auto"``.

        With more than one worker the backend is chosen per task by
        :func:`executor_for` (threads for tasks that release the GIL,
        processes otherwise), so ``"auto"`` is the only parallel kind.
        """
        return "serial" if self.resolved_workers() == 1 else "auto"


@dataclass(frozen=True)
class TrialOutcome:
    """One trial's result record.

    ``value`` is whatever the task returned (``None`` when the trial
    failed under isolation); ``error`` is ``None`` on success, else the
    ``"ExceptionType: message"`` string the resilient runner records.
    """

    trial: int
    value: Any = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the trial completed without an isolated error."""
        return self.error is None


def _execute_one(
    task: TrialTask, trial: int, rng: np.random.Generator, isolate: bool
) -> TrialOutcome:
    """The untimed trial body shared by both tracing regimes."""
    if not isolate:
        return TrialOutcome(trial=trial, value=task(trial, rng))
    try:
        value = task(trial, rng)
    except Exception as exc:  # fault isolation: record, continue
        return TrialOutcome(trial=trial, error=f"{type(exc).__name__}: {exc}")
    return TrialOutcome(trial=trial, value=value)


def run_trial(
    task: TrialTask, config: MonteCarloConfig, trial: int, isolate: bool = False
) -> TrialOutcome:
    """Execute one trial: derive its generator, run the task, record.

    With ``isolate`` any :class:`Exception` is captured into the
    outcome instead of propagating (``BaseException`` such as
    ``KeyboardInterrupt`` always propagates).  With an active trace
    recorder the task runs inside a ``"trial"`` span and its wall time
    feeds the ``trial_seconds`` histogram; with tracing off (the
    default) the only added cost is this ``None`` check, and outcomes
    are bit-identical either way — the instrumentation never touches
    ``rng``.
    """
    rng = config.rng_for_trial(trial)
    if active_recorder() is None:
        return _execute_one(task, trial, rng, isolate)
    timed = span(TRIAL_SPAN, trial=trial)
    with timed:
        outcome = _execute_one(task, trial, rng, isolate)
    metrics = active_metrics()
    if metrics is not None:
        metrics.observe("trial_seconds", timed.duration_ns / 1e9)
    return outcome


def _chunk_loop(
    task: TrialTask,
    config: MonteCarloConfig,
    trials: Sequence[int],
    isolate: bool,
) -> Tuple[List[TrialOutcome], Optional[BaseException]]:
    """Run trials in order, keeping completed outcomes on interrupt.

    A non-``Exception`` ``BaseException`` (``KeyboardInterrupt``,
    ``SystemExit``) mid-chunk is captured and returned alongside the
    outcomes completed so far, so the parent can surface them before
    re-raising — larger chunks must not coarsen what an interrupt can
    lose.  Plain ``Exception`` keeps propagating (the parent's
    in-process fallback re-runs the chunk and resurfaces it).
    """
    outcomes: List[TrialOutcome] = []
    for trial in trials:
        try:
            outcomes.append(run_trial(task, config, trial, isolate=isolate))
        except BaseException as exc:
            if isinstance(exc, Exception):
                raise
            return outcomes, exc
    return outcomes, None


def _run_chunk(
    task: TrialTask,
    config: MonteCarloConfig,
    trials: Sequence[int],
    isolate: bool,
    trace: bool = False,
    chaos: Optional[ChaosPolicy] = None,
    attempt: int = 0,
) -> Tuple[List[TrialOutcome], Optional[ChunkTrace], Optional[BaseException]]:
    """Run a contiguous chunk of trials (module-level, so it pickles).

    The one chunk body both pools execute, and the in-process probe and
    fallback too.  With ``trace`` a fresh recorder is installed for the
    chunk (the previous recorder — ``None`` in worker processes, the
    run's own recorder when falling back in-process — is restored
    afterwards) and the chunk's spans come back aggregated as a
    picklable :class:`ChunkTrace`, so traces survive the process-pool
    boundary.  Threads pass ``trace=False``: they record straight into
    the parent's thread-safe recorder.  The third element is a captured
    mid-chunk interrupt (see :func:`_chunk_loop`), ``None`` on a clean
    run.

    ``chaos`` is the injection seam: an active policy may raise or
    sleep here, *before any trial runs*, so injected faults can never
    perturb a trial generator — a retried chunk (``attempt`` counts
    resubmissions) re-derives every stream bit-identically.
    """
    if chaos is not None:
        chaos.perturb_chunk(trials, attempt)
    if not trace:
        outcomes, interrupt = _chunk_loop(task, config, trials, isolate)
        return outcomes, None, interrupt
    recorder = TraceRecorder()
    previous = set_recorder(recorder)
    start = time.perf_counter_ns()
    try:
        outcomes, interrupt = _chunk_loop(task, config, trials, isolate)
    finally:
        set_recorder(previous)
    # wall_ns feeds the audited ChunkTrace telemetry channel only — it is
    # carried beside the outcomes and never influences a trial value.
    wall_ns = time.perf_counter_ns() - start  # fvlint: disable=FV008 (telemetry only)
    return outcomes, recorder.to_chunk(tuple(trials), wall_ns), interrupt


def _classify(exc: Exception) -> Tuple[str, str]:
    """``(reason, failure)`` for a chunk attempt that raised ``exc``.

    ``timeout`` and ``broken-pool`` are infrastructure failures (the
    pool is respawned); anything else is ``worker-error``.
    """
    if isinstance(exc, FuturesTimeoutError):
        return "timeout", "TimeoutError: chunk attempt exceeded deadline"
    if isinstance(exc, BrokenExecutor):
        return "broken-pool", f"{type(exc).__name__}: worker died"
    return "worker-error", f"{type(exc).__name__}: {exc}"


class TrialExecutor(ABC):
    """Strategy for executing a sweep of independent seeded trials.

    ``run`` is a generator of :class:`TrialOutcome` lists covering the
    requested trial indices *in order*: concatenating the batches
    reproduces the sweep exactly, whatever the execution strategy.
    :class:`Sweep` closes it when the sweep ends, early or not, and
    that close must cancel any work still queued.
    """

    @abstractmethod
    def run(
        self,
        task: TrialTask,
        config: MonteCarloConfig,
        trials: Sequence[int],
        isolate: bool = False,
    ) -> Iterator[List[TrialOutcome]]:
        """Yield outcome batches for ``trials`` in trial order."""


class SerialExecutor(TrialExecutor):
    """Run trials inline, one batch per trial.

    The single-trial batches keep consumers' per-trial semantics (a
    :class:`Sweep`'s deadline checked before each trial, checkpoints
    written at exact trial counts) identical to a plain ``for`` loop.
    """

    def run(
        self,
        task: TrialTask,
        config: MonteCarloConfig,
        trials: Sequence[int],
        isolate: bool = False,
    ) -> Iterator[List[TrialOutcome]]:
        for trial in trials:
            yield [run_trial(task, config, trial, isolate=isolate)]


#: Warm process pools, one per worker count, reused across sweeps.
#: Worker startup under a fork-safe start method is expensive (a fresh
#: interpreter importing numpy), so pools live for the process and are
#: only discarded when broken.
_POOL_CACHE: Dict[int, ProcessPoolExecutor] = {}


def _mp_context():
    """A fork-safe multiprocessing context.

    The platform-default ``fork`` start method deadlocks
    probabilistically: workers fork while the pool's feeder thread may
    hold a queue lock, and the child inherits the locked mutex with no
    owner.  ``forkserver`` forks from a clean, single-threaded server
    process (falling back to ``spawn`` where unavailable), which
    removes the hazard entirely.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "forkserver" if "forkserver" in methods else "spawn"
    )


def _pool_for(workers: int) -> ProcessPoolExecutor:
    pool = _POOL_CACHE.get(workers)
    if pool is not None and getattr(pool, "_broken", False):
        # A pool that broke mid-sweep must never be handed out again:
        # every submit on it raises BrokenProcessPool forever.  Discard
        # it here so callers always receive a usable pool.
        _discard_pool(workers)
        pool = None
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=_mp_context())
        _POOL_CACHE[workers] = pool
        metrics = active_metrics()
        if metrics is not None:
            metrics.inc("pool_warmups")
    return pool


def _discard_pool(workers: int) -> None:
    pool = _POOL_CACHE.pop(workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_worker_pools() -> None:
    """Shut down every cached worker pool (new sweeps start fresh).

    Rarely needed — pools are reclaimed at interpreter exit — but lets
    long-lived hosts release idle workers deterministically.
    """
    for workers in list(_POOL_CACHE):
        _discard_pool(workers)


class _ChunkedExecutor(TrialExecutor):
    """The one chunk ladder behind both parallel backends.

    Trials are split into contiguous chunks, dispatched to a pool up
    front, and yielded chunk by chunk in submission order — because
    every trial's generator is addressable, execution order cannot
    affect results, only wall-clock.  A backend supplies only its pool:
    :meth:`_open_pool`, :meth:`_release_pool`, and whether it crosses a
    process boundary (:attr:`_crosses_processes`).

    Fault handling is a graceful-degradation ladder governed by a
    :class:`~repro.simulation.faults.RetryPolicy`.  A chunk whose pool
    attempt fails (worker raised, pool broke, per-attempt deadline
    expired) is retried with deterministic exponential backoff up to
    ``max_retries`` resubmissions.  A broken or timed-out process pool
    is discarded and respawned up to ``max_pool_respawns`` times; a
    thread cannot be killed, so for threads the respawn is a no-op and
    the retry simply goes to a fresh future.  When the respawn budget
    is spent the rest of the sweep runs in-process serially — the sweep
    *completes* in every regime, it only gets slower.  A task that
    cannot cross the process boundary (a pickling failure) fails the
    same way on every attempt, so it goes straight to the in-process
    fallback.  Under ``isolate=True`` a chunk that exhausts its retries
    is bisected down to the offending trial, which is quarantined as a
    failed :class:`TrialOutcome` while every other trial's result
    survives.  Task-level exceptions keep their usual regime:
    propagated when ``isolate=False`` (re-raised by the in-process
    re-execution with their original type), recorded per trial when
    ``isolate=True``.

    Parameters
    ----------
    workers:
        Pool size (>= 1).
    chunk_size:
        Trials per dispatched chunk.  ``None`` — the default — sizes
        chunks adaptively: the sweep's first trial runs in-process as a
        timed probe, and the remaining trials are chunked so each chunk
        carries at least :data:`_TARGET_CHUNK_SECONDS` of work (capped
        by :data:`_MAX_AUTO_CHUNK`, and never so large that workers sit
        idle).  The probe is trial 0 of the sweep, so outcomes stay in
        trial order and bit-identical — adaptivity only moves chunk
        boundaries, which cannot affect results.
    retry:
        Deadlines/retry/degradation knobs; ``None`` resolves the scoped
        policy (:func:`~repro.simulation.faults.fault_scope`), else the
        ``FULLVIEW_MAX_RETRIES`` / ``FULLVIEW_CHUNK_TIMEOUT``
        environment defaults.
    chaos:
        Fault-injection profile; ``None`` resolves the scoped policy,
        else ``FULLVIEW_CHAOS``, else no injection.  Chaos fires only
        at the pool seam of :func:`_run_chunk` — never in the
        in-process fallback and never in the probe — so results remain
        bit-identical to a fault-free run.
    """

    #: Whether pool workers are separate processes: their spans come
    #: back as :class:`ChunkTrace` records, and a hung or dead worker is
    #: killed by respawning the pool.
    _crosses_processes: ClassVar[bool] = False

    def __init__(
        self,
        workers: int,
        chunk_size: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        chaos: Optional[ChaosPolicy] = None,
    ) -> None:
        if workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers!r}")
        if chunk_size is not None and chunk_size < 1:
            raise InvalidParameterError(
                f"chunk_size must be >= 1, got {chunk_size!r}"
            )
        self.workers = workers
        self.chunk_size = chunk_size
        self.retry = resolve_retry_policy(retry)
        self.chaos = resolve_chaos_policy(chaos)

    @abstractmethod
    def _open_pool(self) -> Executor:
        """A pool ready to accept chunks."""

    @abstractmethod
    def _release_pool(self, pool: Executor, broken: bool) -> None:
        """Done with ``pool``: the sweep ended, or the pool broke or hung."""

    def _adaptive_size(self, probe_seconds: float, remaining: int) -> int:
        """Chunk size targeting ≥ 50 ms of probed per-trial work."""
        if probe_seconds > 0:
            size = math.ceil(_TARGET_CHUNK_SECONDS / probe_seconds)
        else:
            size = _MAX_AUTO_CHUNK
        size = max(1, min(size, _MAX_AUTO_CHUNK))
        # Never chunk so coarsely that some workers get nothing.
        return min(size, max(1, math.ceil(remaining / self.workers)))

    def run(
        self,
        task: TrialTask,
        config: MonteCarloConfig,
        trials: Sequence[int],
        isolate: bool = False,
    ) -> Iterator[List[TrialOutcome]]:
        trials = list(trials)
        if not trials:
            return
        recorder = active_recorder()
        trace = recorder is not None and self._crosses_processes
        metrics = active_metrics()
        retry = self.retry
        chaos = self.chaos
        probe_pair = None
        pending = trials
        size = self.chunk_size
        if size is None:
            # Timed in-process probe of the sweep's first trial; its
            # wall time drives the chunk size for the rest.
            probe_start = time.perf_counter()
            probe_pair = _run_chunk(task, config, (trials[0],), isolate, trace)
            probe_seconds = time.perf_counter() - probe_start
            pending = trials[1:]
            size = self._adaptive_size(probe_seconds, len(pending))
            if probe_pair[2] is not None:
                # The probe itself was interrupted: surface what it
                # produced, dispatch nothing.
                pending = []
            if metrics is not None:
                metrics.set_gauge("parallel_probe_seconds", probe_seconds)
        if metrics is not None:
            metrics.set_gauge("parallel_chunk_size", float(size))
        chunks = [pending[i : i + size] for i in range(0, len(pending), size)]

        def in_process(chunk: Sequence[int]):
            # The parent is not a worker: no chaos here.
            return _run_chunk(task, config, tuple(chunk), isolate, trace)

        def fall_back(index: int, chunk: Sequence[int], reason: str):
            emit(
                ChunkFellBack(
                    chunk=index, first_trial=chunk[0], trials=len(chunk), reason=reason
                )
            )
            return in_process(chunk)

        def merge(pair) -> Tuple[List[TrialOutcome], Optional[BaseException]]:
            batch, chunk_trace, interrupt = pair
            if chunk_trace is not None and recorder is not None:
                recorder.merge_chunk(chunk_trace)
                if metrics is not None:
                    for _trial, dur_ns in chunk_trace.trial_ns:
                        metrics.observe("trial_seconds", dur_ns / 1e9)
            return batch, interrupt

        futures: List[Optional[Future]] = [None] * len(chunks)
        attempts = [0] * len(chunks)
        pool: Optional[Executor] = None
        respawns_left = retry.max_pool_respawns
        degraded_reason: Optional[str] = None

        def dispatch(part: Sequence[int], attempt: int) -> Future:
            return pool.submit(
                _run_chunk, task, config, tuple(part), isolate, trace, chaos, attempt
            )

        def degrade(reason: str) -> None:
            # Bottom rung: the rest of the sweep runs in-process.
            nonlocal pool, degraded_reason
            if pool is not None:
                self._release_pool(pool, broken=True)
            pool = None
            degraded_reason = reason

        def respawn(reason: str) -> bool:
            # One rung down the ladder: replace the broken or hung pool,
            # unless the respawn budget is spent — then degrade.  True
            # when a fresh pool took over (queued chunks died with the
            # old one).  A no-op for threads, which cannot be killed.
            nonlocal pool, respawns_left
            if not self._crosses_processes:
                return False
            degrade(reason)
            if respawns_left <= 0:
                return False
            respawns_left -= 1
            try:
                pool = self._open_pool()
            except Exception:
                return False
            emit(PoolRespawned(workers=self.workers, reason=reason))
            return True

        def resubmit_pending(start: int) -> None:
            # Keep every chunk that already completed cleanly, re-queue
            # the rest on the fresh pool (same attempt index, so chaos
            # decisions replay deterministically).
            for i in range(start, len(chunks)):
                f = futures[i]
                if (
                    f is not None
                    and f.done()
                    and not f.cancelled()
                    and f.exception() is None
                ):
                    continue
                futures[i] = None
                if pool is None:
                    continue
                try:
                    futures[i] = dispatch(chunks[i], attempts[i])
                except Exception:
                    degrade("submit-failed")

        def quarantine(
            index: int, chunk: Sequence[int], failure: str
        ) -> Tuple[List[TrialOutcome], None, Optional[BaseException]]:
            # Bisect an exhausted chunk down to the offending trial(s).
            # Parts run through the pool at the chunk's final attempt
            # index (cleared probabilistic faults stay cleared); a part
            # that still dies at the pool seam is split, and a single
            # trial that keeps dying is recorded as a failed outcome
            # while every other trial's result survives.
            attempt_floor = attempts[index]
            if chaos is not None:
                attempt_floor = max(attempt_floor, chaos.attempts)
            outcomes: List[TrialOutcome] = []
            state: Dict[str, Any] = {"interrupt": None, "error": failure}

            def attempt_part(part: Sequence[int]):
                if pool is None:
                    return in_process(part)
                future = None
                try:
                    future = dispatch(part, attempt_floor)
                    return future.result(timeout=retry.chunk_timeout)
                except Exception as exc:
                    if future is not None:
                        future.cancel()
                    reason, state["error"] = _classify(exc)
                    if reason != "worker-error":
                        respawn(reason)
                    return None

            def run_part(part: Sequence[int]) -> None:
                if state["interrupt"] is not None:
                    return
                pair = attempt_part(part)
                if pair is None:
                    if len(part) == 1:
                        trial = int(part[0])
                        emit(TrialQuarantined(trial=trial, error=state["error"]))
                        outcomes.append(
                            TrialOutcome(trial=trial, error=state["error"])
                        )
                        return
                    mid = len(part) // 2
                    run_part(part[:mid])
                    run_part(part[mid:])
                    return
                batch, part_interrupt = merge(pair)
                outcomes.extend(batch)
                if part_interrupt is not None:
                    state["interrupt"] = part_interrupt

            run_part(tuple(chunk))
            return outcomes, None, state["interrupt"]

        try:
            if chunks:
                try:
                    pool = self._open_pool()
                    for index, chunk in enumerate(chunks):
                        futures[index] = dispatch(chunk, 0)
                except Exception:
                    # The pool could not even accept work: bottom rung,
                    # the whole sweep runs in-process.
                    degrade("submit-failed")
                    futures = [None] * len(chunks)
            if probe_pair is not None:
                # The probe is trial 0 of the sweep: yield it first,
                # while the pool is already chewing on the chunks.
                batch, interrupt = merge(probe_pair)
                yield batch
                if interrupt is not None:
                    raise interrupt
            if not chunks:
                return
            if pool is not None:
                for index, chunk in enumerate(chunks):
                    emit(
                        ChunkDispatched(
                            chunk=index, first_trial=chunk[0], trials=len(chunk)
                        )
                    )
            for index, chunk in enumerate(chunks):
                pair = None
                reason: Optional[str] = None
                retryable = True
                failure = "worker-boundary failure"
                while pool is not None and futures[index] is not None:
                    future = futures[index]
                    try:
                        pair = future.result(timeout=retry.chunk_timeout)
                        break
                    except Exception as exc:
                        future.cancel()
                        reason, failure = _classify(exc)
                        # A task that cannot cross the process boundary
                        # (pickle raises PicklingError for lambdas but
                        # AttributeError/TypeError for local functions
                        # and unpicklable arguments) fails identically
                        # on every attempt; no retry can fix that.
                        retryable = not is_serialization_error(exc)
                    futures[index] = None
                    if reason != "worker-error" and respawn(reason):
                        # A hung or dead pool poisons every queued
                        # chunk: re-queue what has not finished yet.
                        resubmit_pending(index + 1)
                    if pool is None or not retryable:
                        break
                    attempts[index] += 1
                    if attempts[index] > retry.max_retries:
                        break
                    emit(
                        ChunkRetried(
                            chunk=index,
                            first_trial=chunk[0],
                            trials=len(chunk),
                            attempt=attempts[index],
                            reason=reason,
                        )
                    )
                    delay = retry.backoff_seconds(
                        config.seed, int(chunk[0]), attempts[index]
                    )
                    if delay > 0.0:
                        time.sleep(delay)
                    try:
                        futures[index] = dispatch(chunk, attempts[index])
                    except Exception:
                        degrade("submit-failed")
                        break
                if pair is None:
                    if pool is None:
                        pair = fall_back(
                            index, chunk, degraded_reason or reason or "degraded"
                        )
                    elif isolate and retryable:
                        pair = quarantine(index, chunk, failure)
                    else:
                        # Retries exhausted without isolation (or a task
                        # that cannot cross the boundary): the in-process
                        # re-run either succeeds (the fault was
                        # infrastructure) or re-raises the task's real
                        # error with its original type.
                        pair = fall_back(index, chunk, reason)
                batch, interrupt = merge(pair)
                yield batch
                if interrupt is not None:
                    raise interrupt
        finally:
            # Abandoned generators (time budget, interrupt) must not
            # leave queued chunks running.
            for future in futures:
                if future is not None:
                    future.cancel()
            if pool is not None:
                self._release_pool(pool, broken=False)


class ThreadExecutor(_ChunkedExecutor):
    """The chunk ladder on a thread pool, bit-identical to serial.

    No pickling and no process boundary — the task object is shared by
    reference, so closures run unmodified and dispatch costs
    microseconds — and the backend wins whenever the task spends its
    time inside numpy kernels that release the GIL (the batch coverage
    kernels in :mod:`repro.core.batch` do).  Spans record straight into
    the parent's thread-safe recorder.  A chunk that misses its
    deadline is retried on a fresh future while the hung thread's
    eventual result is discarded; a short ``hang_seconds`` keeps chaos
    runs from leaving threads asleep.  One pool per sweep, shut down
    when the sweep ends.
    """

    def _open_pool(self) -> Executor:
        return ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="fv-trial"
        )

    def _release_pool(self, pool: Executor, broken: bool) -> None:
        pool.shutdown(wait=False, cancel_futures=True)


class ParallelExecutor(_ChunkedExecutor):
    """The chunk ladder on a process pool, bit-identical to serial.

    Tasks and configs must pickle (the estimator tasks are frozen
    dataclasses for exactly this reason); each chunk ships the task
    inline.  Pools are warm and shared: one pool per worker count lives
    for the process (started via a fork-safe method, see
    :func:`_mp_context`), so only the first parallel sweep pays worker
    startup, and a broken or hung pool is discarded and respawned.
    Processes win on tasks that hold the GIL in Python-level code.
    """

    _crosses_processes = True

    def _open_pool(self) -> Executor:
        return _pool_for(self.workers)

    def _release_pool(self, pool: Executor, broken: bool) -> None:
        # The warm pool outlives the sweep unless it broke or hung.
        if broken:
            _discard_pool(self.workers)


def executor_for(
    config: MonteCarloConfig, task: Optional[TrialTask] = None
) -> TrialExecutor:
    """The executor a config and task ask for.

    One worker always means :class:`SerialExecutor`.  With more,
    :class:`ThreadExecutor` runs a task that advertises
    ``releases_gil`` — the estimator and lifetime tasks do, their inner
    loops being numpy kernels that drop the GIL — and
    :class:`ParallelExecutor` runs any other (an unknown task is
    assumed to hold the GIL, where processes are the safe bet).
    """
    workers = config.resolved_workers()
    if workers <= 1:
        kind = "serial"
        executor: TrialExecutor = SerialExecutor()
    elif getattr(task, "releases_gil", False):
        kind = "thread"
        executor = ThreadExecutor(workers)
    else:
        kind = "process"
        executor = ParallelExecutor(workers)
    metrics = active_metrics()
    if metrics is not None:
        metrics.inc(f"executor_selected_{kind}")
        metrics.set_gauge("executor_workers", float(workers))
    return executor


class Sweep:
    """One sweep: pick the executor, drain its batches, report.

    The only code outside the executors that calls :func:`executor_for`
    or an executor's ``run``.  Iterating yields the batches in trial
    order from trial ``sum(resumed)`` on (``resumed`` is a checkpoint's
    ``(ok, failed)`` pair) and stops before taking a batch once the
    optional ``deadline``, a :func:`time.monotonic` instant, has passed.
    Entering emits ``RunStarted`` and begins progress with the resumed
    trials counted as done; each batch taken is tallied and advances
    progress.  Exiting always closes the batches, which cancels queued
    chunks.  A clean exit then bumps ``trials_completed`` and
    ``trials_failed`` by the trials run here, emits ``RunFinished`` with
    the whole sweep's tallies and finishes progress; an exception skips
    all three, so an interrupted or abandoned sweep reports no finish.
    """

    def __init__(
        self,
        task: TrialTask,
        config: MonteCarloConfig,
        *,
        executor: Optional[TrialExecutor] = None,
        isolate: bool = False,
        resumed: Tuple[int, int] = (0, 0),
        deadline: Optional[float] = None,
        source: str = "engine",
    ) -> None:
        executor = executor if executor is not None else executor_for(config, task)
        self.started = RunStarted(
            trials=config.trials,
            seed=config.seed,
            workers=getattr(executor, "workers", 1),
            source=source,
        )
        self.resumed = resumed
        self.deadline = deadline
        self.ok = self.failed = 0
        self.progress = active_progress()
        # Bound once: a serial sweep advances progress once per trial.
        self.advance = self.progress.advance if self.progress is not None else None
        self.clock = (0, 0)
        self._batches = executor.run(
            task, config, range(sum(resumed), config.trials), isolate=isolate
        )

    def __enter__(self) -> "Sweep":
        emit(self.started)
        if self.progress is not None:
            self.progress.begin(self.started.trials)
            self.advance(sum(self.resumed), failed=self.resumed[1])
        self.clock = (time.perf_counter_ns(), time.process_time_ns())
        return self

    def __iter__(self) -> Iterator[List[TrialOutcome]]:
        while self.deadline is None or time.monotonic() < self.deadline:
            batch = next(self._batches, None)
            if batch is None:
                return
            count = len(batch)
            failed = sum(outcome.error is not None for outcome in batch)
            self.ok += count - failed
            self.failed += failed
            if self.advance is not None:
                self.advance(count, failed=failed)
            yield batch

    def __exit__(self, exc_type, exc, tb) -> None:
        self._batches.close()
        if exc_type is not None:
            return
        metrics = active_metrics()
        if metrics is not None:
            metrics.inc("trials_completed", self.ok)
            metrics.inc("trials_failed", self.failed)
        emit(
            RunFinished(
                completed=self.resumed[0] + self.ok,
                failed=self.resumed[1] + self.failed,
                wall_ns=time.perf_counter_ns() - self.clock[0],
                cpu_ns=time.process_time_ns() - self.clock[1],
                source=self.started.source,
            )
        )
        if self.progress is not None:
            self.progress.finish()


def execute_trials(
    task: TrialTask,
    config: MonteCarloConfig,
    *,
    executor: Optional[TrialExecutor] = None,
    isolate: bool = False,
) -> List[TrialOutcome]:
    """Run every trial of ``config`` through an executor, in order.

    The one-line entry point the estimators use: results are identical
    for every executor, so callers choose purely on wall-clock grounds
    (``executor=None`` means :func:`executor_for` picks from
    ``config.workers`` and the task).  The sweep is a :class:`Sweep`
    with no deadline, inert (a few ``None`` checks) without an active
    obs context.
    """
    with Sweep(task, config, executor=executor, isolate=isolate) as sweep:
        return [outcome for batch in sweep for outcome in batch]
