"""Runtime span tracing of the program's layers, from outside the program.

:class:`Tracer` replaces public callables of ``repro`` with timing
wrappers for the duration of a traced run and restores them afterwards;
nothing under ``src/`` is edited.  Each thread keeps its own span stack,
so a span's *self time* is its duration minus the durations of the
wrapped calls it made.  A parallel ``execute_trials`` on a thread
executor is a *dispatch*: it holds ``workers`` threads for its duration,
so its capacity is its wall times the workers, and the spans its pool
threads open on an empty stack (the trials) are its children.  Engine
self time is thus dispatch capacity minus the trial time it delivered,
idle workers included.  Work the wrappers do to read counts off
arguments and results is excluded from every span and so shows up as
unattributed time.

:func:`layer_metrics` turns a tracer's (or a traced server's dumped)
statistics into the ``per_layer`` metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import quantile, ratio

#: Wrapped span name -> the layer (repro module) its self time belongs to.
LAYER_OF = {
    "deploy": "deployment",
    "build_index": "spatial",
    "query_radius_batch": "spatial",
    "resolve_kernel": "kernels",
    "sparse_covering_pairs": "batch",
    "covering_and_directions": "batch",
    "condition_mask": "batch",
    "trial": "montecarlo",
    "execute_trials": "engine",
    "parse_request": "schemas",
    "cache_key": "digest",
    "cache_get": "cache",
    "cache_put": "cache",
    "claim": "coalesce",
    "run_request": "jobs",
}

#: Layers whose summed self time is reported as ``<layer>.self_s``.
LAYERS = sorted(set(LAYER_OF.values()))

#: Name of the benchmark's own root span (its self time is unattributed).
ROOT_SPAN = "bench"

Observer = Callable[["Tracer", tuple, dict, Any, int, int], None]


class Tracer:
    """Thread-safe span statistics for wrapped callables.

    With ``cpu=True`` each span also records the calling thread's CPU
    time, and ``self_cpu_ns`` holds self CPU time (a child's CPU is taken
    off its parent only on the same thread).
    """

    def __init__(self, cpu: bool = False) -> None:
        self._cpu = cpu
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, bool, Any]] = []
        #: The open dispatch frame, if any (one at a time).
        self._dispatch: Optional[list] = None
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far (wrappers stay installed)."""
        with self._lock:
            self.durations: Dict[str, List[int]] = defaultdict(list)
            self.self_ns: Dict[str, int] = defaultdict(int)
            self.self_cpu_ns: Dict[str, int] = defaultdict(int)
            self.counts: Dict[str, float] = defaultdict(float)
            self.lists: Dict[str, List[Any]] = defaultdict(list)
            self.capacity_ns = 0
            self.request_keys: Dict[int, str] = {}

    # -- recording -------------------------------------------------------

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def in_span(self, name: str) -> bool:
        """Whether ``name`` is open on the calling thread."""
        return any(frame[0] == name for frame in self._stack())

    def add(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def append(self, name: str, value: Any) -> None:
        with self._lock:
            self.lists[name].append(value)

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             observe: Optional[Observer] = None,
             fan_out: Optional[Callable[[tuple, dict], int]] = None) -> Any:
        """Run ``fn`` inside a span named ``name``.

        ``fan_out`` returns how many worker threads the call keeps busy;
        above 1 the span is a dispatch (see the module docstring).
        Frames are ``[name, children_ns, children_cpu_ns]``.
        """
        stack = self._stack()
        same_thread = bool(stack)
        parent = stack[-1] if stack else self._dispatch
        frame = [name, 0, 0]
        workers = fan_out(args, kwargs) if fan_out is not None else 1
        dispatch = False
        if workers > 1:
            with self._lock:
                if self._dispatch is None:
                    self._dispatch = frame
                    dispatch = True
        stack.append(frame)
        cpu_start = time.thread_time_ns() if self._cpu else 0
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            cpu = time.thread_time_ns() - cpu_start if self._cpu else 0
            stack.pop()
            duration = end - start
            capacity = duration * workers if dispatch else duration
            with self._lock:
                if dispatch:
                    self._dispatch = None
                    # Thread time the enclosing root's wall does not show.
                    self.capacity_ns += capacity - duration
                if parent is None:
                    self.capacity_ns += duration
                else:
                    parent[1] += duration
                    if same_thread:
                        parent[2] += cpu
                self.durations[name].append(duration)
                self.self_ns[name] += capacity - frame[1]
                if self._cpu:
                    self.self_cpu_ns[name] += cpu - frame[2]
        if observe is not None:
            observe(self, args, kwargs, result, start, duration)
            if parent is not None:
                # Keep the reading work out of the parent's self time.
                spent = time.perf_counter_ns() - end
                with self._lock:
                    parent[1] += spent
        return result

    def root(self, fn: Callable, *args: Any) -> Any:
        """Run ``fn`` as the calling thread's root span."""
        return self.call(ROOT_SPAN, fn, args, {})

    # -- patching --------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str,
             observe: Optional[Observer] = None,
             fan_out: Optional[Callable[[tuple, dict], int]] = None) -> None:
        """Replace ``owner.attr`` with a traced wrapper until :meth:`restore`."""
        had = attr in vars(owner)
        target = vars(owner)[attr] if had else getattr(owner, attr)

        @functools.wraps(target)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, target, args, kwargs, observe, fan_out)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, had, target))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, had, target = self._patches.pop()
            if had:
                setattr(owner, attr, target)
            else:
                delattr(owner, attr)

    def install(self) -> None:
        """Wrap the public callables of every measured layer."""
        import repro.api
        import repro.core.batch as batch
        import repro.service.server as server
        import repro.simulation.engine as engine
        import repro.simulation.montecarlo as montecarlo
        from repro.deployment.uniform import UniformDeployment
        from repro.geometry.spatial import ToroidalCellIndex
        from repro.sensors.fleet import SensorFleet
        from repro.service.cache import ResultCache
        from repro.service.coalesce import Coalescer

        self.wrap(UniformDeployment, "deploy", "deploy")
        self.wrap(SensorFleet, "build_index", "build_index")
        self.wrap(ToroidalCellIndex, "query_radius_batch", "query_radius_batch",
                  _observe_query)
        self.wrap(batch, "resolve_kernel", "resolve_kernel", _observe_kernel)
        self.wrap(batch, "sparse_covering_pairs", "sparse_covering_pairs",
                  _observe_sparse)
        self.wrap(batch, "covering_and_directions", "covering_and_directions",
                  _observe_dense)
        for module in (batch, montecarlo, repro.api):
            self.wrap(module, "condition_mask", "condition_mask", _observe_points)
        for task in (montecarlo.GridFailureTask, montecarlo.AreaFractionTask,
                     montecarlo.PointProbabilityTask):
            self.wrap(task, "__call__", "trial", _observe_trial)
        for module in (engine, montecarlo):
            self.wrap(module, "execute_trials", "execute_trials", _observe_engine,
                      thread_workers)
        self.wrap(server, "parse_request", "parse_request")
        self.wrap(server, "cache_key", "cache_key", _observe_key)
        self.wrap(ResultCache, "get", "cache_get", _observe_get)
        self.wrap(ResultCache, "put", "cache_put")
        self.wrap(Coalescer, "claim", "claim", _observe_claim)
        self.wrap(server, "run_request", "run_request", _observe_job)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready copy of everything recorded."""
        with self._lock:
            return {
                "durations": {k: list(v) for k, v in self.durations.items()},
                "self_ns": dict(self.self_ns),
                "self_cpu_ns": dict(self.self_cpu_ns),
                "counts": dict(self.counts),
                "lists": {k: list(v) for k, v in self.lists.items()},
                "capacity_ns": self.capacity_ns,
            }


# -- observers: counts read off arguments and results -----------------------


def _observe_query(tracer, args, kwargs, result, start, duration):
    indptr, cand = result
    tracer.add("query_points", indptr.shape[0] - 1)
    tracer.add("query_candidates", cand.shape[0])


def _observe_kernel(tracer, args, kwargs, result, start, duration):
    tracer.add(f"kernel_{result}")


def _observe_sparse(tracer, args, kwargs, result, start, duration):
    tracer.add("candidate_pairs", result.sensors.shape[0])
    tracer.add("covering_pairs", int(result.covers.sum()))


def _observe_dense(tracer, args, kwargs, result, start, duration):
    covers, directions = result
    tracer.add("dense_pairs", covers.size)
    tracer.add("dense_bytes", covers.nbytes + directions.nbytes)


def _observe_points(tracer, args, kwargs, result, start, duration):
    tracer.add("points_evaluated", result.shape[0])
    if tracer.in_span("trial"):
        tracer.add("points_in_trials", result.shape[0])


def _observe_trial(tracer, args, kwargs, result, start, duration):
    task = args[0]
    if hasattr(task, "grid"):
        total = len(task.grid)
        cap = task.max_grid_points
        sampled = total if cap is None else min(cap, total)
    else:
        sampled = getattr(task, "sample_points", 1)
    tracer.add("points_sampled", sampled)


def thread_workers(args: tuple, kwargs: dict) -> int:
    """Threads an ``execute_trials(task, config)`` call keeps busy.

    Mirrors ``engine.executor_for``: only a thread executor runs trials
    on threads this process can trace; serial and process runs count 1.
    """
    task, config = args[0], args[1]
    if kwargs.get("executor") is not None:
        return 1
    workers = config.resolved_workers()
    kind = config.resolved_executor()
    if kind == "auto":
        kind = "thread" if getattr(task, "releases_gil", False) else "process"
    return workers if kind == "thread" and workers > 1 else 1


def _observe_engine(tracer, args, kwargs, result, start, duration):
    workers = thread_workers(args, kwargs)
    tracer.add("engine_capacity_ns", duration * workers)
    tracer.append("engine_workers", workers)


def _observe_key(tracer, args, kwargs, result, start, duration):
    with tracer._lock:
        tracer.request_keys[id(args[0])] = result


def _observe_get(tracer, args, kwargs, result, start, duration):
    tracer.add("cache_gets")
    if result[1] is not None:
        tracer.add("cache_hits")


def _observe_claim(tracer, args, kwargs, result, start, duration):
    tracer.add("claims")
    if not result[0]:
        tracer.add("followers")


def _observe_job(tracer, args, kwargs, result, start, duration):
    request = args[0]
    tracer.append(f"run_request.{request.ENDPOINT}", duration)
    with tracer._lock:
        key = tracer.request_keys.pop(id(request), None)
    if key is not None:
        tracer.append("job_starts", [key[:12], start])


# -- metrics ---------------------------------------------------------------


def _sum_s(stats: Dict[str, Any], *names: str) -> float:
    return sum(sum(stats["durations"].get(n, ())) for n in names) / 1e9


def _pct(stats: Dict[str, Any], name: str, q: float, scale: float) -> float:
    return quantile(stats["durations"].get(name, []), q) / scale


def layer_metrics(stats: Dict[str, Any], denominator_ns: float,
                  engine_counters: Dict[str, Any],
                  self_key: str = "self_ns") -> Dict[str, float]:
    """Per-layer metrics from one traced run's statistics.

    ``trace.unattributed_share`` is ``1 - sum(layer self) / denominator_ns``
    where the self times are ``stats[self_key]``: wall self times against
    the traced thread capacity (``stats["capacity_ns"]``), or, with
    ``"self_cpu_ns"``, self CPU times against the process's CPU time.
    ``<layer>.self_s`` is always wall.  ``engine_counters`` is a
    ``repro.obs`` metrics snapshot (counters and gauges) taken over the
    same run.
    """
    counts = stats["counts"]
    lists = stats["lists"]
    durations = stats["durations"]
    ms, us = 1e6, 1e3
    counters = engine_counters.get("counters", {})
    gauges = engine_counters.get("gauges", {})
    busy_ns = sum(durations.get("trial", ()))
    capacity_ns = counts.get("engine_capacity_ns", 0.0)
    serial_only = all(w == 1 for w in lists.get("engine_workers", [1]))
    out: Dict[str, float] = {
        "deployment.deploy_s": _sum_s(stats, "deploy"),
        "deployment.deploy_ms_p50": _pct(stats, "deploy", 0.5, ms),
        "spatial.build_index_s": _sum_s(stats, "build_index"),
        "spatial.query_s": _sum_s(stats, "query_radius_batch"),
        "spatial.candidates_per_point": ratio(
            counts.get("query_candidates", 0), counts.get("query_points", 0)),
        "kernels.sparse_calls": counts.get("kernel_sparse", 0),
        "kernels.dense_calls": counts.get("kernel_dense", 0),
        "batch.sparse_pairs_s": stats["self_ns"].get("sparse_covering_pairs", 0) / 1e9,
        "batch.candidate_pairs": counts.get("candidate_pairs", 0),
        "batch.covering_ratio": ratio(
            counts.get("covering_pairs", 0), counts.get("candidate_pairs", 0)),
        "batch.gap_s": stats["self_ns"].get("condition_mask", 0) / 1e9,
        "batch.points_evaluated": counts.get("points_evaluated", 0),
        "batch.dense_covering_s": _sum_s(stats, "covering_and_directions"),
        "batch.dense_pairs": counts.get("dense_pairs", 0),
        "batch.computed_mb": counts.get("dense_bytes", 0) / 2**20,
        "montecarlo.trial_ms_p50": _pct(stats, "trial", 0.5, ms),
        "montecarlo.trial_ms_p90": _pct(stats, "trial", 0.9, ms),
        "montecarlo.grid_scan_ratio": ratio(
            counts.get("points_in_trials", 0), counts.get("points_sampled", 0)),
        "engine.busy_s": busy_ns / 1e9,
        "engine.utilization": ratio(busy_ns, capacity_ns),
        "engine.overhead_s": max(0.0, capacity_ns - busy_ns) / 1e9,
        "engine.chunks": counters.get("chunks_dispatched", 0),
        "engine.chunk_size": gauges.get(
            "parallel_chunk_size", 1.0 if serial_only and busy_ns else 0.0),
        "engine.retries": counters.get("chunk_retries", 0),
        "engine.fallbacks": counters.get("chunk_fallbacks", 0),
        "schemas.parse_us_p50": _pct(stats, "parse_request", 0.5, us),
        "digest.cache_key_us_p50": _pct(stats, "cache_key", 0.5, us),
        "cache.get_us_p50": _pct(stats, "cache_get", 0.5, us),
        "cache.put_us_p50": _pct(stats, "cache_put", 0.5, us),
        "cache.hit_ratio": ratio(counts.get("cache_hits", 0), counts.get("cache_gets", 0)),
        "jobs.run_request_ms_p50": _pct(stats, "run_request", 0.5, ms),
        "jobs.run_request_ms_p95": _pct(stats, "run_request", 0.95, ms),
    }
    for endpoint in ("deploy", "evaluate", "estimate"):
        per = lists.get(f"run_request.{endpoint}", [])
        out[f"jobs.run_request_ms_p50.{endpoint}"] = quantile(per, 0.5) / ms
        out[f"jobs.run_request_ms_p95.{endpoint}"] = quantile(per, 0.95) / ms
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            v for k, v in stats["self_ns"].items() if LAYER_OF.get(k) == layer) / 1e9
    attributed = sum(v for k, v in stats[self_key].items() if k in LAYER_OF)
    out["trace.unattributed_share"] = 1.0 - ratio(attributed, denominator_ns)
    return out


#: Radii of the kernel crossover table (the 25% density cutoff sits
#: near r = 0.28 for a unit torus).
CROSSOVER_RADII = (0.10, 0.15, 0.20, 0.25, 0.30)


def kernel_crossover(seed: int, n: int = 500, points: int = 256,
                     reps: int = 7) -> Tuple[Dict[str, float], int]:
    """Median ``full_view_mask`` time per kernel and radius, untraced.

    Each repetition deploys a fresh fleet (untimed), so the sparse time
    includes the spatial index build a Monte-Carlo trial always pays.
    Returns the ``batch.{dense,sparse}_ms.r<radius>`` metrics and the
    number of point verdicts on which the two kernels disagreed.
    """
    import math

    import numpy as np

    from repro.api import deploy
    from repro.core.batch import full_view_mask

    rng = np.random.default_rng(seed)
    metrics: Dict[str, float] = {}
    mismatches = 0
    for radius in CROSSOVER_RADII:
        times: Dict[str, List[float]] = {"dense": [], "sparse": []}
        for rep in range(reps):
            pts = rng.uniform(0.0, 1.0, size=(points, 2))
            masks = {}
            order = ("dense", "sparse") if rep % 2 == 0 else ("sparse", "dense")
            for kernel in order:
                fleet = deploy(radius=radius, angle_of_view=math.pi / 2, n=n,
                               seed=seed * 101 + rep, build_index=False)
                start = time.perf_counter_ns()
                masks[kernel] = full_view_mask(fleet, pts, math.pi / 3, kernel=kernel)
                times[kernel].append((time.perf_counter_ns() - start) / 1e6)
            mismatches += int((masks["dense"] != masks["sparse"]).sum())
        for kernel, samples in times.items():
            metrics[f"batch.{kernel}_ms.r{radius:.2f}"] = quantile(samples, 0.5)
    return metrics, mismatches
