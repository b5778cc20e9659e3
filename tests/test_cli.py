"""Tests for the fullview CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.errors import CheckpointError, InvalidParameterError


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "fullview" in capsys.readouterr().out


class TestList:
    def test_lists_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for eid in ("FIG7", "FIG8", "EQ19", "PHASE", "GAP"):
            assert eid in out


class TestRun:
    def test_run_single(self, capsys):
        assert main(["run", "FIG7"]) == 0
        out = capsys.readouterr().out
        assert "FIG7" in out
        assert "overall: PASS" in out

    def test_run_exports_csv(self, tmp_path, capsys):
        assert main(["run", "FIG8", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig8.csv").exists()

    def test_run_unknown_experiment(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            main(["run", "BOGUS"])

    def test_run_seed_flag(self, capsys):
        assert main(["run", "EQ19", "--seed", "3"]) == 0

    def test_run_workers_flag(self, tmp_path, capsys):
        # The backend is picked per task; the tables must be what the
        # serial run prints (bit-identity), and the flag must reach the
        # runner's sweeps, which it builds without a worker count.
        assert main(["run", "EQ19"]) == 0
        serial = capsys.readouterr().out
        metrics = tmp_path / "metrics.json"
        assert main(["run", "EQ19", "--workers", "2", "--metrics", str(metrics)]) == 0
        assert capsys.readouterr().out == serial
        counters = json.loads(metrics.read_text())["counters"]
        assert counters.get("executor_selected_thread", 0) > 0
        assert "executor_selected_serial" not in counters


class TestFigures:
    def test_prints_plots(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out and "Figure 8" in out
        assert "necessary" in out and "sufficient" in out

    def test_exports(self, tmp_path, capsys):
        assert main(["figures", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "figure7.csv").exists()
        assert (tmp_path / "figure8.csv").exists()


class TestDiagnose:
    def test_renders_maps(self, capsys):
        assert main(["diagnose", "estate_surveillance", "--resolution", "8"]) == 0
        out = capsys.readouterr().out
        assert "sensor positions" in out
        assert "full-view covered cells" in out
        assert "barrier" in out
        assert "centre point" in out

    def test_unknown_workload(self, capsys):
        assert main(["diagnose", "nope"]) == 1
        assert "unknown workload" in capsys.readouterr().out

    def test_provision_flag(self, capsys):
        assert main(
            ["diagnose", "estate_surveillance", "--provision", "1.2",
             "--resolution", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "provisioned" in out

    def test_save_fleet(self, tmp_path, capsys):
        target = tmp_path / "fleet.npz"
        assert main(
            ["diagnose", "estate_surveillance", "--resolution", "8",
             "--save-fleet", str(target)]
        ) == 0
        assert target.exists()
        from repro.sensors.io import load_fleet

        fleet = load_fleet(target)
        assert len(fleet) == 500


class TestDesign:
    def test_report(self, capsys):
        assert main(["design", "estate_surveillance", "--target", "0.95"]) == 0
        out = capsys.readouterr().out
        assert "design report" in out
        assert "required weighted area" in out
        assert "scale every radius" in out

    def test_unknown_workload(self, capsys):
        assert main(["design", "nope"]) == 1


class TestDiagnoseNoBarrier:
    def test_breach_branch(self, capsys):
        """The stock (under-provisioned) workload has no barrier; the
        breach branch must render."""
        assert main(["diagnose", "traffic_monitoring", "--resolution", "8"]) == 0
        out = capsys.readouterr().out
        assert "barrier: NO" in out


class TestWorkloads:
    def test_assessment(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "traffic_monitoring" in out
        assert "verdict" in out

    def test_simulated(self, capsys):
        assert main(["workloads", "--simulate", "--trials", "5"]) == 0
        out = capsys.readouterr().out
        assert "simulated full-view area fraction" in out


_FAST_LIFETIME = [
    "lifetime", "--n", "40", "--trials", "3", "--epochs", "2",
    "--max-grid-points", "9", "--seed", "5",
]


class TestLifetime:
    def test_prints_survival_curve(self, capsys):
        assert main(list(_FAST_LIFETIME)) == 0
        out = capsys.readouterr().out
        assert "survival curve" in out
        assert "mean lifetime" in out
        assert "trials: 3/3 completed" in out

    def test_exports_csv(self, tmp_path, capsys):
        assert main(_FAST_LIFETIME + ["--out", str(tmp_path)]) == 0
        assert (tmp_path / "lifetime_survival.csv").exists()

    def test_checkpoint_and_resume(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert main(_FAST_LIFETIME + ["--checkpoint", str(ckpt)]) == 0
        assert (ckpt / "checkpoint.json").exists()
        first = capsys.readouterr().out
        assert main(
            _FAST_LIFETIME + ["--checkpoint", str(ckpt), "--resume"]
        ) == 0
        resumed = capsys.readouterr().out
        assert "trials: 3/3 completed" in first
        assert "trials: 3/3 completed" in resumed

    def test_tiny_time_budget_reports_truncation(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        code = main(
            _FAST_LIFETIME
            + ["--checkpoint", str(ckpt), "--time-budget", "1e-9"]
        )
        out = capsys.readouterr().out
        # Nothing completed: exit 1 with a hint, checkpoint written.
        assert code == 1
        assert "no trials completed" in out
        assert (ckpt / "checkpoint.json").exists()
        # A resume without the budget finishes the sweep.
        assert main(
            _FAST_LIFETIME + ["--checkpoint", str(ckpt), "--resume"]
        ) == 0
        assert "trials: 3/3 completed" in capsys.readouterr().out

    def test_schedule_flags(self, capsys):
        assert main(
            _FAST_LIFETIME
            + ["--blackout-radius", "0.1", "--drift", "0.2", "--decay", "0.9"]
        ) == 0
        assert "4 failure model(s)" in capsys.readouterr().out


class TestRunCheckpoint:
    def test_run_resume_skips_completed(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert main(["run", "EQ19", "--checkpoint", str(ckpt)]) == 0
        assert (ckpt / "run_checkpoint.json").exists()
        capsys.readouterr()
        assert main(
            ["run", "EQ19", "--checkpoint", str(ckpt), "--resume"]
        ) == 0
        assert "already completed (checkpoint)" in capsys.readouterr().out

    def test_run_time_budget_truncates(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        code = main(
            ["run", "EQ19", "FIG7", "--checkpoint", str(ckpt),
             "--time-budget", "1e-9"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "resume with" in out

    # The checks `fullview lifetime` makes, through the same helper.
    def test_resume_without_checkpoint_is_rejected(self):
        with pytest.raises(InvalidParameterError, match="requires a checkpoint_dir"):
            main(["run", "EQ19", "--resume"])

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_non_positive_time_budget_is_rejected(self, budget):
        with pytest.raises(InvalidParameterError, match="time_budget must be positive"):
            main(["run", "EQ19", "--time-budget", budget])

    @staticmethod
    def _resume(ckpt):
        return main(["run", "EQ19", "--checkpoint", str(ckpt), "--resume"])

    @staticmethod
    def _write(ckpt, payload):
        ckpt.mkdir()
        (ckpt / "run_checkpoint.json").write_text(json.dumps(payload))

    def test_resume_rejects_non_object(self, tmp_path):
        self._write(tmp_path / "ckpt", [])
        with pytest.raises(CheckpointError, match="run_checkpoint.json"):
            self._resume(tmp_path / "ckpt")

    def test_resume_rejects_wrong_typed_entry(self, tmp_path):
        self._write(
            tmp_path / "ckpt",
            {"format": "fullview-run-checkpoint-v1", "seed": 0, "full": False,
             "completed": {"EQ19": 1}},
        )
        with pytest.raises(CheckpointError, match="malformed"):
            self._resume(tmp_path / "ckpt")

    def test_resume_rejects_flipped_checksum(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert main(["run", "EQ19", "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        path = ckpt / "run_checkpoint.json"
        payload = json.loads(path.read_text())
        digest = payload["sha256"]
        payload["sha256"] = ("0" if digest[0] != "0" else "1") + digest[1:]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="integrity"):
            self._resume(ckpt)

    def test_resume_accepts_unstamped_checkpoint(self, tmp_path, capsys):
        self._write(
            tmp_path / "ckpt",
            {"format": "fullview-run-checkpoint-v1", "seed": 0, "full": False,
             "completed": {"EQ19": {"passed": True}}},
        )
        assert self._resume(tmp_path / "ckpt") == 0
        assert "already completed (checkpoint)" in capsys.readouterr().out
