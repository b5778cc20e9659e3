"""Every public entry point rejects bad input with a FullViewError subclass.

Callers are promised a single exception family: ``except FullViewError``
catches every deliberate rejection this library makes, and the concrete
classes keep their stdlib lineage (``ValueError``/``RuntimeError``) for
code that catches those instead.  This module pins that contract across
the public surface — construction, geometry, simulation, resilience,
the runner and the experiment registry.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import (
    BernoulliFailure,
    CameraSpec,
    CheckpointError,
    DenseGrid,
    FailureSchedule,
    FullViewError,
    HeterogeneousProfile,
    InvalidParameterError,
    InvalidProfileError,
    MonteCarloConfig,
    OrientationDrift,
    RadiusDegradation,
    ResultTable,
    SensorFleet,
    simulate_lifetime,
)
from repro.errors import ExperimentError
from repro.experiments import get_experiment
from repro.simulation.montecarlo import estimate_point_probability
from repro.simulation.runner import run_resilient_trials
from repro.simulation.statistics import wilson_interval


def _fleet(n: int = 4) -> SensorFleet:
    rng = np.random.default_rng(0)
    return SensorFleet(
        positions=rng.random((n, 2)),
        orientations=rng.uniform(0, 2 * math.pi, n),
        radii=np.full(n, 0.2),
        angles=np.full(n, math.pi / 2),
    )


class TestErrorHierarchy:
    def test_every_library_error_is_a_fullvieverror(self):
        from repro import errors

        concrete = [
            errors.InvalidParameterError,
            errors.InvalidProfileError,
            errors.DeploymentError,
            errors.ConvergenceError,
            errors.ExperimentError,
            errors.CheckpointError,
            errors.ChaosError,
        ]
        for cls in concrete:
            assert issubclass(cls, FullViewError)

    def test_stdlib_lineage_preserved(self):
        from repro.errors import ChaosError

        assert issubclass(InvalidParameterError, ValueError)
        assert issubclass(InvalidProfileError, ValueError)
        assert issubclass(CheckpointError, RuntimeError)
        assert issubclass(ExperimentError, RuntimeError)
        assert issubclass(ChaosError, RuntimeError)


class TestConstructionRejections:
    def test_camera_spec(self):
        with pytest.raises(FullViewError):
            CameraSpec(radius=-1.0, angle_of_view=math.pi / 2)
        with pytest.raises(FullViewError):
            CameraSpec(radius=0.2, angle_of_view=0.0)

    def test_profile(self):
        with pytest.raises(FullViewError):
            HeterogeneousProfile([])

    def test_sensor_fleet_shapes_and_ranges(self):
        with pytest.raises(FullViewError):
            SensorFleet(
                positions=np.zeros((2, 2)),
                orientations=np.zeros(3),
                radii=np.ones(2),
                angles=np.full(2, 1.0),
            )
        with pytest.raises(FullViewError):
            SensorFleet(
                positions=np.zeros((2, 2)),
                orientations=np.zeros(2),
                radii=np.array([0.2, -0.1]),
                angles=np.full(2, 1.0),
            )

    def test_dense_grid(self):
        with pytest.raises(FullViewError):
            DenseGrid.for_sensor_count(0)
        grid = DenseGrid.for_sensor_count(10)
        with pytest.raises(FullViewError):
            grid.sample(0, np.random.default_rng(0))


class TestSimulationRejections:
    def test_monte_carlo_config(self):
        with pytest.raises(FullViewError):
            MonteCarloConfig(trials=0)

    def test_rng_for_trial_out_of_range(self):
        cfg = MonteCarloConfig(trials=3, seed=0)
        with pytest.raises(FullViewError):
            cfg.rng_for_trial(3)
        with pytest.raises(FullViewError):
            cfg.rng_for_trial(-1)

    def test_point_probability_condition(self):
        profile = HeterogeneousProfile.homogeneous(
            CameraSpec(radius=0.2, angle_of_view=math.pi / 2)
        )
        cfg = MonteCarloConfig(trials=2, seed=0)
        with pytest.raises(FullViewError):
            estimate_point_probability(profile, 10, math.pi / 3, "bogus", cfg)
        with pytest.raises(FullViewError):
            estimate_point_probability(
                profile, 10, math.pi / 3, "k_coverage", cfg, k=0
            )

    def test_wilson_interval(self):
        with pytest.raises(FullViewError):
            wilson_interval(1, 0)
        with pytest.raises(FullViewError):
            wilson_interval(1, 10, confidence=1.5)

    def test_result_table_needs_columns(self):
        with pytest.raises(FullViewError):
            ResultTable(title="empty", columns=[])


class TestResilienceRejections:
    def test_failure_model_parameters(self):
        with pytest.raises(FullViewError):
            BernoulliFailure(2.0)
        with pytest.raises(FullViewError):
            OrientationDrift(-1.0)
        with pytest.raises(FullViewError):
            RadiusDegradation(0.0)
        with pytest.raises(FullViewError):
            FailureSchedule([object()])

    def test_simulate_lifetime_parameters(self):
        with pytest.raises(FullViewError):
            simulate_lifetime(
                _fleet(),
                FailureSchedule(),
                math.pi / 3,
                epochs=0,
                rng=np.random.default_rng(0),
            )

    def test_runner_parameters(self):
        cfg = MonteCarloConfig(trials=2, seed=0)
        with pytest.raises(FullViewError):
            run_resilient_trials(lambda t, r: True, cfg, checkpoint_every=0)
        with pytest.raises(FullViewError):
            run_resilient_trials(lambda t, r: True, cfg, time_budget=-1.0)
        with pytest.raises(FullViewError):
            run_resilient_trials(lambda t, r: True, cfg, resume=True)

    def test_corrupt_checkpoint(self, tmp_path):
        from repro.simulation.runner import CHECKPOINT_FILENAME

        (tmp_path / CHECKPOINT_FILENAME).write_text("nonsense")
        with pytest.raises(FullViewError):
            run_resilient_trials(
                lambda t, r: True,
                MonteCarloConfig(trials=2, seed=0),
                checkpoint_dir=tmp_path,
                resume=True,
            )


class TestRegistryRejections:
    def test_unknown_experiment(self):
        with pytest.raises(FullViewError):
            get_experiment("NO_SUCH_EXPERIMENT")


class TestStaticContractSweep:
    """The fvlint FV002 pass proves the contract holds at every raise site.

    The tests above spot-check the contract at runtime; this sweep closes
    the gap statically: after importing every module under ``repro`` (so
    the rule's dynamically-resolved error family is complete), the linter
    must report zero non-baselined raise-site violations across the tree.
    """

    @staticmethod
    def _import_all_modules():
        import importlib
        import pkgutil

        import repro

        names = [
            info.name
            for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
            if not info.name.rsplit(".", 1)[-1].startswith("__")
        ]
        for name in names:
            importlib.import_module(name)
        return names

    def test_every_module_imports(self):
        names = self._import_all_modules()
        assert len(names) > 60, "package walk looks truncated"

    def test_fv002_sweep_is_clean(self):
        from pathlib import Path

        import repro
        from repro.lint import lint_paths

        src_root = Path(repro.__file__).resolve().parent
        result = lint_paths([src_root], select=["FV002"])
        assert result.ok, "error-contract violations:\n" + "\n".join(
            f.render() for f in result.findings
        )
        assert result.files_checked > 60

    def test_rule_family_matches_runtime_hierarchy(self):
        from repro.lint.rules.errors_contract import error_family_names

        self._import_all_modules()
        runtime = {FullViewError.__name__}
        stack = [FullViewError]
        while stack:
            for sub in stack.pop().__subclasses__():
                if sub.__name__ not in runtime:
                    runtime.add(sub.__name__)
                    stack.append(sub)
        assert runtime <= error_family_names()
