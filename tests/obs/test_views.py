"""One engine moment, four views: JSONL lines, counter, report field, tally.

Every fault and lifecycle event in :data:`~repro.obs.events.TALLIES` is
recorded once, through :func:`repro.obs.emit`.  Read back after a run,
the number of its JSONL lines, its metrics counter, its
:class:`~repro.obs.report.RunReport` field and its progress tally (in
the final status file) must be one number wherever the table maps one.
"""

from __future__ import annotations

import collections
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np
import pytest

from repro.cli import main
from repro.obs import observe
from repro.obs.events import TALLIES
from repro.obs.report import build_report, load_trace
from repro.simulation.engine import (
    MonteCarloConfig,
    ParallelExecutor,
    Sweep,
    ThreadExecutor,
    execute_trials,
)
from repro.simulation.faults import ChaosPolicy, RetryPolicy
from repro.simulation.runner import CHECKPOINT_FILENAME, run_resilient_trials

POISON = 5


def draw_trial(trial: int, rng: np.random.Generator) -> float:
    return float(rng.random())


@dataclass(frozen=True)
class SleepyTrial:
    """A trial that sleeps, so a sweep's wall time has a known floor.

    Sleeping releases the GIL, so a sweep with workers runs it on threads.
    """

    releases_gil: ClassVar[bool] = True
    seconds: float = 0.02

    def __call__(self, trial: int, rng: np.random.Generator) -> float:
        time.sleep(self.seconds)
        return float(rng.random())


@dataclass(frozen=True)
class GatedTrial:
    """Touches ``marks/<trial>`` on start; trials from ``free`` on then
    wait for the file ``gate``.  Files work from any process."""

    marks: str
    gate: str
    free: int

    def __call__(self, trial: int, rng: np.random.Generator) -> float:
        (Path(self.marks) / str(trial)).touch()
        waited = 0
        while trial >= self.free and not Path(self.gate).exists() and waited < 2000:
            time.sleep(0.005)
            waited += 1
        return float(rng.random())


def _views(tmp_path):
    """``{event name: [lines, report field, counter?, tally?]}`` of a run."""
    data = load_trace(tmp_path / "trace.jsonl")
    report = build_report(data)
    counters = json.loads((tmp_path / "metrics.json").read_text())["counters"]
    status = json.loads((tmp_path / "status.json").read_text())
    lines = collections.Counter(event["event"] for event in data.events)
    views = {}
    for event, tally in TALLIES.items():
        seen = [lines[event.__name__], getattr(report, tally.report)]
        if tally.counter is not None:
            seen.append(counters.get(tally.counter, 0))
        if tally.progress is not None:
            seen.append(status[tally.progress])
        views[event.__name__] = seen
    return views, report, counters


def _assert_agree(views):
    for name, seen in views.items():
        assert len(set(seen)) == 1, f"{name}: views disagree: {seen}"


@pytest.mark.parametrize(
    "backend", [ThreadExecutor, ParallelExecutor], ids=["thread", "process"]
)
def test_views_agree_under_chaos(tmp_path, backend):
    config = MonteCarloConfig(trials=16, seed=3)
    retry = RetryPolicy(max_retries=1, backoff_base=0.0)
    crashes = ChaosPolicy(seed=1, crash=0.5, poison_trial=POISON)
    poison = ChaosPolicy(seed=1, poison_trial=POISON)
    with observe(
        trace=tmp_path / "trace.jsonl",
        metrics=tmp_path / "metrics.json",
        status=tmp_path / "status.json",
    ):
        # Isolated: crashed chunks are retried, the poison trial is
        # bisected out and quarantined.
        isolated = execute_trials(
            draw_trial,
            config,
            executor=backend(2, chunk_size=4, retry=retry, chaos=crashes),
            isolate=True,
        )
        # Unisolated: the poison chunk exhausts its retry and falls back.
        execute_trials(
            draw_trial,
            config,
            executor=backend(2, chunk_size=4, retry=retry, chaos=poison),
        )
        # The resilient runner's bracket and trial checkpoints.
        run_resilient_trials(
            draw_trial, config, checkpoint_dir=tmp_path / "ck", checkpoint_every=4
        )
    assert [o.trial for o in isolated if not o.ok] == [POISON]
    views, report, counters = _views(tmp_path)
    _assert_agree(views)
    assert report.chunks_retried >= 1
    assert report.trials_quarantined == 1
    assert report.chunk_fallbacks >= 1
    assert report.chunks_dispatched >= 8
    assert report.checkpoints_written >= 5
    assert report.runs == 3
    assert report.trials_completed == counters["trials_completed"] == 3 * 16 - 1
    assert report.trials_failed == counters["trials_failed"] == 1


def test_lifetime_cli_views_agree(tmp_path, capsys):
    argv = [
        "lifetime", "--n", "40", "--trials", "4", "--epochs", "3",
        "--max-grid-points", "9", "--seed", "5", "--workers", "2",
        "--checkpoint", str(tmp_path / "ck"), "--checkpoint-every", "2",
        "--trace", str(tmp_path / "trace.jsonl"),
        "--metrics", str(tmp_path / "metrics.json"),
        "--status", str(tmp_path / "status.json"),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    views, report, _ = _views(tmp_path)
    _assert_agree(views)
    assert report.epochs_advanced >= 1
    assert report.checkpoints_written >= 2


def test_run_checkpoint_writes_are_counted(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    metrics = tmp_path / "metrics.json"
    assert main(
        ["run", "EQ19", "--checkpoint", str(tmp_path / "ck"),
         "--trace", str(trace), "--metrics", str(metrics)]
    ) == 0
    capsys.readouterr()
    counters = json.loads(metrics.read_text())["counters"]
    report = build_report(load_trace(trace))
    assert report.checkpoints_written == counters["checkpoint_writes"] == 1


def _finished(directory):
    data = load_trace(directory / "trace.jsonl")
    return [event for event in data.events if event["event"] == "RunFinished"]


def test_budget_path_views_agree(tmp_path):
    """A sweep cut by its deadline reports one count everywhere."""
    # 40 sleeps of 20 ms on 2 threads take at least 0.4 s: the 0.3 s
    # budget always fires.
    config = MonteCarloConfig(trials=40, seed=3, workers=2)
    ck = tmp_path / "ck"

    def sweep(run_dir, **options):
        run_dir.mkdir()
        with observe(
            trace=run_dir / "trace.jsonl",
            metrics=run_dir / "metrics.json",
            status=run_dir / "status.json",
        ):
            return run_resilient_trials(
                SleepyTrial(), config, checkpoint_dir=ck, checkpoint_every=4, **options
            )

    cut = sweep(tmp_path / "cut", time_budget=0.3)
    assert cut.truncated
    [finished] = _finished(tmp_path / "cut")
    counters = json.loads((tmp_path / "cut" / "metrics.json").read_text())["counters"]
    status = json.loads((tmp_path / "cut" / "status.json").read_text())
    checkpoint = json.loads((ck / CHECKPOINT_FILENAME).read_text())
    assert finished["completed"] == cut.completed < config.trials
    assert checkpoint["next_trial"] == finished["completed"]
    assert counters["trials_completed"] == finished["completed"]
    assert status["done"] == finished["completed"]

    resumed = sweep(tmp_path / "resumed", resume=True)
    assert not resumed.truncated
    assert resumed.resumed_trials == cut.completed
    [finished] = _finished(tmp_path / "resumed")
    assert finished["completed"] == resumed.completed == config.trials


@pytest.mark.parametrize(
    "backend", [ThreadExecutor, ParallelExecutor], ids=["thread", "process"]
)
def test_abandoned_sweep_reports_nothing_and_starts_no_queued_chunk(
    tmp_path, backend
):
    class Abandon(Exception):
        pass

    chunk, workers = 2, 2
    config = MonteCarloConfig(trials=40, seed=3)
    marks, gate = tmp_path / "marks", tmp_path / "gate"
    marks.mkdir()

    def executor():
        # No injected faults: a chaos sleep before a chunk's first
        # trial would hide when the chunk started.
        return backend(workers, chunk_size=chunk, chaos=ChaosPolicy())

    def begun():
        return {int(mark.name) // chunk for mark in marks.iterdir()}

    # Start the workers first (a process pool outlives its sweep), so a
    # chunk a worker takes begins at once.
    execute_trials(draw_trial, MonteCarloConfig(trials=4), executor=executor())
    with observe(
        trace=tmp_path / "trace.jsonl",
        metrics=tmp_path / "metrics.json",
        status=tmp_path / "status.json",
    ):
        with pytest.raises(Abandon):
            with Sweep(
                GatedTrial(str(marks), str(gate), free=chunk), config, executor=executor()
            ) as sweep:
                for _batch in sweep:
                    raise Abandon
        # Chunk 0 ran free; every chunk a worker took since is parked at
        # the gate by now, and has marked its first trial.
        time.sleep(0.3)
        left = begun()
        gate.touch()
        time.sleep(0.3)
    late = begun() - left
    # A thread starts only chunks it takes from its queue.  A process
    # pool has already handed up to ``workers + 1`` chunks to its call
    # queue, where their futures run and cannot be cancelled.
    assert len(late) <= (0 if backend is ThreadExecutor else workers + 1), late
    assert len(left | late) < config.trials // chunk
    assert _finished(tmp_path) == []
    counters = json.loads((tmp_path / "metrics.json").read_text())["counters"]
    assert counters.get("trials_completed", 0) == 0
