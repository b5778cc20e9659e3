"""The ``fullview serve`` wiring and the ``runs --outcome`` filter."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.cli import build_parser
from repro.obs.ledger import LEDGER_FORMAT, append_run

SRC = Path(__file__).resolve().parent.parent.parent / "src"


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.func.__name__ == "_cmd_serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8471
        assert args.cache_dir is None
        assert args.queue_limit == 8
        assert args.service_workers == 2
        assert args.workers is None
        assert args.ledger is None

    def test_all_flags(self, tmp_path):
        args = build_parser().parse_args(
            [
                "serve",
                "--host", "0.0.0.0",
                "--port", "0",
                "--cache-dir", str(tmp_path),
                "--queue-limit", "3",
                "--service-workers", "4",
                "--workers", "2",
                "--ledger", str(tmp_path / "runs.jsonl"),
                "--metrics", str(tmp_path / "metrics.json"),
            ]
        )
        assert args.port == 0
        assert args.queue_limit == 3
        assert args.workers == 2
        assert args.ledger == str(tmp_path / "runs.jsonl")

    def test_bare_ledger_flag_means_default_location(self):
        args = build_parser().parse_args(["serve", "--ledger"])
        assert args.ledger == ""


class TestRunsOutcomeFilter:
    @staticmethod
    def _row(run_id: str, outcome: str) -> dict:
        return {
            "format": LEDGER_FORMAT,
            "run_id": run_id,
            "experiment": "svc-estimate",
            "config_digest": "deadbeef",
            "seed": 0,
            "git_sha": None,
            "executor": "auto",
            "workers": 1,
            "wall_seconds": 0.5,
            "trials_per_sec": 0.0,
            "trials_completed": 0,
            "trials_failed": 0,
            "outcome": outcome,
            "retries": 0,
            "respawns": 0,
            "quarantined": 0,
            "checkpoints_recovered": 0,
            "trace_path": None,
            "metrics_path": None,
            "started_unix": 1754000000.0,
        }

    def test_cached_outcome_surfaces_and_filters(self, tmp_path, capsys):
        from repro.cli import main

        ledger = tmp_path / "runs.jsonl"
        append_run(ledger, self._row("aaaaaaaaaaaa", "ok"))
        append_run(ledger, self._row("bbbbbbbbbbbb", "cached"))
        assert main(["runs", "--ledger", str(ledger)]) == 0
        table = capsys.readouterr().out
        assert "cached" in table
        assert main(
            ["runs", "--ledger", str(ledger), "--outcome", "cached", "--json"]
        ) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["run_id"] for row in rows] == ["bbbbbbbbbbbb"]


class TestServeEndToEnd:
    def test_serve_answers_and_drains_on_sigterm(self, tmp_path):
        """Boot the real CLI server, ask one question, SIGTERM it."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        try:
            line = proc.stdout.readline()
            assert "listening on http://" in line, line
            port = int(line.rsplit(":", 1)[1].split()[0].strip("/"))
            from repro.service import ServiceClient

            with ServiceClient("127.0.0.1", port, timeout=60) as client:
                assert client.healthz()["status"] == "ok"
                envelope = client.deploy(
                    radius=0.2, angle_of_view=1.0, n=3, seed=1
                )
                assert envelope["result"]["n"] == 3
            proc.terminate()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
