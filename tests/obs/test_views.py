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

import numpy as np
import pytest

from repro.cli import main
from repro.obs import observe
from repro.obs.events import TALLIES
from repro.obs.report import build_report, load_trace
from repro.simulation.engine import (
    MonteCarloConfig,
    ParallelExecutor,
    ThreadExecutor,
    execute_trials,
)
from repro.simulation.faults import ChaosPolicy, RetryPolicy
from repro.simulation.runner import run_resilient_trials

POISON = 5


def draw_trial(trial: int, rng: np.random.Generator) -> float:
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
