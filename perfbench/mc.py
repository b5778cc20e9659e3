"""Monte-Carlo workloads ``mc-grid`` and ``mc-area``, run in this process.

``mc-grid`` is one point of the PHASE experiment: ``GridFailureTask`` at
the critical sensing area (``q = 1``) for the necessary condition, with
a seed-dependent early exit over up to 2000 grid points per trial and
two workers (``executor="auto"`` picks threads).  ``mc-area`` is an
``AreaFractionTask`` at ``r = 0.2``, where ``kernel="auto"`` picks the
sparse kernel, run serially.

The workload seed only derives the master seeds of the trial batches;
the program sees the tasks and configs built from them.  Every run ends
with the correctness oracle: a seeded sample of trials is replayed
serially with ``kernel="dense"`` and must reproduce each outcome bit for
bit.

Run as a script (``python perfbench/mc.py --setup WORKLOAD``) it only
imports the program and builds the task, which is what ``setup_s``
times in fresh processes.
"""

from __future__ import annotations

import dataclasses
import math
import random
import sys
import time
from typing import Any, Dict, List, Tuple

from common import (
    machine_stamp,
    peak_rss_mb,
    quantile,
    require_source,
    time_fresh_processes,
)

#: Full-size parameters; ``batch`` is the trial count per estimator call.
PARAMS: Dict[str, Dict[str, Any]] = {
    "mc-grid": dict(n=1000, q=1.0, theta=math.pi / 2, condition="necessary",
                    max_grid_points=2000, workers=2, batch=20, replays=3),
    "mc-area": dict(n=500, radius=0.2, theta=math.pi / 3, condition="exact",
                    sample_points=256, workers=1, batch=20, replays=8),
}

#: Tiny sizes for ``--smoke``.
SMOKE: Dict[str, Dict[str, Any]] = {
    "mc-grid": dict(n=150, max_grid_points=64, batch=4, replays=2),
    "mc-area": dict(n=100, sample_points=32, batch=4, replays=2),
}

#: Fresh set-ups timed per run; ``setup_s`` is their median.
SETUPS = 5

#: A trial slower than this misses the goodput limit.
TRIAL_LIMIT_S = 1.0

#: Per-layer metrics of layers these workloads never reach.
SERVICE_ONLY = (
    "coalesce.follower_ratio",
    "server.front_ms_p50",
    "server.hit_ms_p50_small",
    "server.hit_ms_p50_deploy",
    "server.response_kb",
    "server.queue_wait_ms_p50",
    "server.queue_wait_ms_p95",
    "gen.late_ms_p99",
    "gen.sent",
)

AREA_OF_VIEW = math.pi / 2


def params(workload: str, smoke: bool) -> Dict[str, Any]:
    merged = dict(PARAMS[workload])
    if smoke:
        merged.update(SMOKE[workload])
    return merged


def build_task(workload: str, smoke: bool):
    """The workload's trial task (imports the program on first call)."""
    from repro.core.csa import csa_necessary
    from repro.deployment.uniform import UniformDeployment
    from repro.geometry.grid import DenseGrid
    from repro.sensors.model import CameraSpec, HeterogeneousProfile
    from repro.simulation.montecarlo import AreaFractionTask, GridFailureTask

    p = params(workload, smoke)
    scheme = UniformDeployment()
    if workload == "mc-grid":
        area = p["q"] * csa_necessary(p["n"], AREA_OF_VIEW)
        spec = CameraSpec.from_area(area, AREA_OF_VIEW)
        return GridFailureTask(
            profile=HeterogeneousProfile.homogeneous(spec), n=p["n"],
            theta=p["theta"], scheme=scheme, condition=p["condition"],
            grid=DenseGrid.for_sensor_count(p["n"], scheme.region),
            max_grid_points=p["max_grid_points"],
        )
    spec = CameraSpec(radius=p["radius"], angle_of_view=AREA_OF_VIEW)
    return AreaFractionTask(
        profile=HeterogeneousProfile.homogeneous(spec), n=p["n"],
        theta=p["theta"], scheme=scheme, condition=p["condition"],
        sample_points=p["sample_points"],
    )


class Stopwatch:
    """Times each trial of the task it forwards to (the client's clock)."""

    def __init__(self, task) -> None:
        # Forwarded so ``executor="auto"`` resolves exactly as for the task.
        self.releases_gil = getattr(task, "releases_gil", False)
        self.task = task
        self.seconds: List[float] = []

    def __call__(self, trial, rng):
        start = time.perf_counter()
        value = self.task(trial, rng)
        self.seconds.append(time.perf_counter() - start)
        return value


def batch_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def run_batches(task, p: Dict[str, Any], seeds: List[int]) -> Dict[Tuple[int, int], Any]:
    """Run one estimator call per master seed; outcome per (seed, trial).

    A failing trial raises (no ``isolate``) and so ends the run without
    a result line.
    """
    from repro.simulation import engine

    values: Dict[Tuple[int, int], Any] = {}
    for seed in seeds:
        config = engine.MonteCarloConfig(trials=p["batch"], seed=seed, workers=p["workers"])
        for outcome in engine.execute_trials(task, config):
            values[(seed, outcome.trial)] = outcome.value
    return values


def run_window(task, p: Dict[str, Any], seed: int, seconds: float):
    """Estimator calls until ``seconds`` have passed; returns values and wall."""
    values: Dict[Tuple[int, int], Any] = {}
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        values.update(run_batches(task, p, [batch_seed(seed, index)]))
        index += 1
    return values, time.perf_counter() - start


def same(a: Any, b: Any) -> bool:
    """Bit-identical trial outcomes (floats compared by their bits)."""
    if isinstance(a, float) and isinstance(b, float):
        return a.hex() == b.hex()
    return type(a) is type(b) and a == b


def oracle_mismatches(task, p: Dict[str, Any], values: Dict[Tuple[int, int], Any],
                      seed: int) -> int:
    """Replay a seeded sample of trials serially with the dense kernel."""
    from repro.core.kernels import KernelPolicy
    from repro.simulation.engine import MonteCarloConfig

    dense = dataclasses.replace(task, kernel=KernelPolicy(kernel="dense"))
    keys = sorted(values)
    sample = random.Random(seed).sample(keys, min(p["replays"], len(keys)))
    mismatches = 0
    for master, trial in sample:
        config = MonteCarloConfig(trials=p["batch"], seed=master)
        if not same(dense(trial, config.rng_for_trial(trial)), values[(master, trial)]):
            mismatches += 1
    return mismatches


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """One benchmark run; returns ``(metrics, attempted, failed, stamp)``."""
    require_source()
    from repro.obs.metrics import MetricsRegistry, metrics_scope

    p = params(workload, smoke)
    setup_s = None
    if not trace:
        cmd = [sys.executable, __file__, "--setup", workload] + (["--smoke"] if smoke else [])
        setup_s = time_fresh_processes(cmd, 1 if smoke else SETUPS)
    task = build_task(workload, smoke)
    # Warm-up: first-call costs (thread pool, numpy dispatch) stay untimed.
    run_batches(task, dict(p, batch=max(2, p["workers"])), [batch_seed(seed, 10**6)])

    registry = MetricsRegistry()
    watch = Stopwatch(task)
    if trace:
        return traced_run(task, watch, p, seed, seconds, registry)
    with metrics_scope(registry):
        values, wall = run_window(watch, p, seed, seconds)
    rss = peak_rss_mb()
    failed = oracle_mismatches(task, p, values, seed)
    durations = watch.seconds
    metrics = {
        "setup_s": setup_s,
        "trials_per_s": len(values) / wall,
        "peak_rss_mb": rss,
        "p50_ms": quantile(durations, 0.50) * 1e3,
        "p95_ms": quantile(durations, 0.95) * 1e3,
        "p99_ms": quantile(durations, 0.99) * 1e3,
        "goodput_rps": sum(1 for d in durations if d <= TRIAL_LIMIT_S) / wall,
    }
    return metrics, len(values), failed, stamp_of(registry)


def stamp_of(registry) -> Dict[str, Any]:
    counters = registry.snapshot()["counters"]
    return machine_stamp(
        executor=next((k.rsplit("_", 1)[1] for k in counters
                       if k.startswith("executor_selected_")), None),
        workers=registry.gauge("executor_workers"),
        kernel_dense_calls=counters.get("kernel_dense", 0),
        kernel_sparse_calls=counters.get("kernel_sparse", 0),
    )


def traced_run(task, watch: Stopwatch, p: Dict[str, Any], seed: int,
               seconds: float, registry):
    """Each estimator call untraced, then again with every layer wrapped.

    Interleaving the two keeps warm-up effects out of the overhead
    estimate; the traced outcomes must equal the untraced ones.
    """
    from repro.obs.metrics import MetricsRegistry, metrics_scope

    from tracer import Tracer, kernel_crossover, layer_metrics

    tracer = Tracer()
    traced_registry = MetricsRegistry()
    values: Dict[Tuple[int, int], Any] = {}
    traced: Dict[Tuple[int, int], Any] = {}
    wall = traced_wall = 0.0
    index = 0
    while wall < seconds / 2:
        batch = [batch_seed(seed, index)]
        index += 1
        with metrics_scope(registry):
            start = time.perf_counter()
            values.update(run_batches(watch, p, batch))
            wall += time.perf_counter() - start
        tracer.install()
        try:
            with metrics_scope(traced_registry):
                start = time.perf_counter()
                traced.update(tracer.root(run_batches, task, p, batch))
                traced_wall += time.perf_counter() - start
        finally:
            tracer.restore()
    failed = oracle_mismatches(task, p, values, seed)
    failed += sum(1 for key, value in traced.items() if not same(value, values[key]))
    stats = tracer.snapshot()
    metrics = layer_metrics(stats, stats["capacity_ns"], traced_registry.snapshot())
    crossover, disagreements = kernel_crossover(seed)
    metrics.update(crossover)
    failed += disagreements
    metrics.update({name: 0.0 for name in SERVICE_ONLY})
    attempted = len(values) + len(traced)
    metrics["trace.overhead_pct"] = (traced_wall / wall - 1.0) * 100.0
    metrics["failed_share"] = failed / attempted
    return metrics, attempted, failed, stamp_of(registry)


if __name__ == "__main__":
    if len(sys.argv) >= 3 and sys.argv[1] == "--setup":
        require_source()
        build_task(sys.argv[2], "--smoke" in sys.argv)
        print("ready")
