"""Tests for the experiment registry plumbing."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ExperimentError
from repro.experiments import all_experiments, get_experiment
from repro.experiments.registry import Experiment, ExperimentResult, register
from repro.simulation.engine import WORKERS_ENV_VAR, MonteCarloConfig
from repro.simulation.results import ResultTable

EXPECTED_IDS = {
    # Paper artifacts (DESIGN.md experiment index).
    "FIG7",
    "FIG8",
    "EQ2-MC",
    "EQ13-MC",
    "THM3-MC",
    "THM4-MC",
    "PHASE",
    "GAP",
    "EQ19",
    "KCOV",
    "AREA",
    "HET",
    # Extensions (Section VIII future work + model ablations).
    "BARRIER",
    "CLUSTER",
    "CONN",
    "CRIT",
    "LIFETIME",
    "OCCL",
    "ORIENT",
    "PLAN",
    "PROB",
    "ROBUST",
    "SLEEP",
}


class TestRegistry:
    def test_all_design_md_experiments_registered(self):
        assert set(all_experiments()) == EXPECTED_IDS

    def test_lookup_case_insensitive(self):
        assert get_experiment("fig7").experiment_id == "FIG7"

    def test_unknown_raises(self):
        with pytest.raises(ExperimentError):
            get_experiment("NOPE")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ExperimentError):
            register("FIG7", "dup", "dup")(lambda fast, seed: None)

    def test_every_experiment_has_paper_artifact(self):
        for exp in all_experiments().values():
            assert exp.paper_artifact
            assert exp.title


class TestExperimentResult:
    def test_passed_logic(self):
        result = ExperimentResult(
            experiment_id="X", title="t", checks={"a": True, "b": False}
        )
        assert not result.passed
        assert result.failed_checks() == ["b"]

    def test_passed_empty_checks(self):
        assert ExperimentResult(experiment_id="X", title="t").passed

    def test_render(self):
        table = ResultTable(title="tbl", columns=["a"])
        table.add_row(1)
        result = ExperimentResult(
            experiment_id="X",
            title="demo",
            tables=[table],
            checks={"ok": True},
            notes=["a note"],
        )
        text = result.render()
        assert "X: demo" in text
        assert "a note" in text
        assert "check ok: PASS" in text
        assert "overall: PASS" in text

    def test_runner_id_mismatch_detected(self):
        exp = Experiment(
            experiment_id="A",
            title="t",
            paper_artifact="p",
            runner=lambda fast, seed: ExperimentResult(experiment_id="B", title="t"),
        )
        with pytest.raises(ExperimentError):
            exp.run()

    def test_run_scopes_workers_to_its_call_and_thread(self, monkeypatch):
        # The runner builds its configs without a worker count; the run's
        # count reaches them, an explicit count still wins, and neither
        # another thread nor the caller after the run sees it.
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        seen = {}

        def other_thread():
            seen["other_thread"] = MonteCarloConfig().resolved_workers()

        def runner(fast, seed):
            seen["inside"] = MonteCarloConfig().resolved_workers()
            seen["pinned"] = MonteCarloConfig(workers=1).resolved_workers()
            thread = threading.Thread(target=other_thread)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
            return ExperimentResult(experiment_id="A", title="t")

        Experiment(experiment_id="A", title="t", paper_artifact="p", runner=runner).run(
            workers=3
        )
        assert seen == {"inside": 3, "pinned": 1, "other_thread": 1}
        assert MonteCarloConfig().resolved_workers() == 1
