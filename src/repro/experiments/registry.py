"""Experiment registry: discoverable, uniformly-shaped experiments.

An :class:`Experiment` couples an id (from DESIGN.md's index) with a
runner ``(fast, seed) -> ExperimentResult``.  ``fast=True`` shrinks
Monte-Carlo budgets so the whole suite runs in seconds (used by tests
and CI); ``fast=False`` is the publication-quality setting used to
fill EXPERIMENTS.md.

Every result carries named boolean *checks* — the shape-level claims
the paper makes (monotonicity, orderings, theory-vs-simulation
agreement).  ``result.passed`` is the conjunction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from repro.errors import ExperimentError, InvalidParameterError
from repro.obs.metrics import active_metrics
from repro.obs.trace import span
from repro.simulation.engine import _SCOPED_WORKERS
from repro.simulation.results import ResultTable

__all__ = [
    "Experiment",
    "ExperimentResult",
    "Runner",
    "all_experiments",
    "get_experiment",
    "register",
    "run_all",
]

#: Runner signature: ``(fast, seed) -> ExperimentResult``.  A runner
#: leaves ``workers`` unset on its Monte-Carlo configs; the worker count
#: of the run reaches them through :meth:`Experiment.run`.
Runner = Callable[[bool, int], "ExperimentResult"]

_REGISTRY: Dict[str, "Experiment"] = {}


@dataclass
class ExperimentResult:
    """Outcome of one experiment run.

    Attributes
    ----------
    experiment_id, title:
        Identity (mirrors the registered experiment).
    tables:
        The reproduced tables/series.
    checks:
        Named shape-level assertions; all must hold for ``passed``.
    notes:
        Free-form commentary (paper-vs-measured remarks).
    """

    experiment_id: str
    title: str
    tables: List[ResultTable] = field(default_factory=list)
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def failed_checks(self) -> List[str]:
        return [name for name, ok in self.checks.items() if not ok]

    def render(self) -> str:
        """Full human-readable report."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        for note in self.notes:
            lines.append(f"note: {note}")
        for table in self.tables:
            lines.append("")
            lines.append(table.pretty())
        lines.append("")
        for name, ok in self.checks.items():
            lines.append(f"check {name}: {'PASS' if ok else 'FAIL'}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Experiment:
    """A registered experiment."""

    experiment_id: str
    title: str
    paper_artifact: str
    runner: Runner

    def run(
        self,
        fast: bool = True,
        seed: int = 0,
        workers: Optional[int] = None,
    ) -> ExperimentResult:
        """Execute the runner, its Monte-Carlo sweeps on ``workers``.

        ``workers`` becomes the default of every
        :class:`~repro.simulation.montecarlo.MonteCarloConfig` the
        runner builds without one, for this call and this thread only;
        ``None`` leaves the ``FULLVIEW_WORKERS`` environment default in
        force.  Results are bit-identical across worker counts, so it is
        purely a wall-clock choice.
        """
        if workers is not None and workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers!r}")
        token = _SCOPED_WORKERS.set(workers)
        try:
            with span("experiment", experiment=self.experiment_id):
                result = self.runner(fast, seed)
        finally:
            _SCOPED_WORKERS.reset(token)
        if result.experiment_id != self.experiment_id:
            raise ExperimentError(
                f"runner for {self.experiment_id} returned result labelled "
                f"{result.experiment_id}"
            )
        metrics = active_metrics()
        if metrics is not None:
            metrics.inc("experiments_run")
            if not result.passed:
                metrics.inc("experiments_failed")
        return result


def register(experiment_id: str, title: str, paper_artifact: str) -> Callable[[Runner], Runner]:
    """Decorator registering a runner under an experiment id."""

    def decorate(runner: Runner) -> Runner:
        if experiment_id in _REGISTRY:
            raise ExperimentError(f"duplicate experiment id {experiment_id!r}")
        _REGISTRY[experiment_id] = Experiment(
            experiment_id=experiment_id,
            title=title,
            paper_artifact=paper_artifact,
            runner=runner,
        )
        return runner

    return decorate


def get_experiment(experiment_id: str) -> Experiment:
    """Look up an experiment by id (case-insensitive)."""
    key = experiment_id.upper()
    if key not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ExperimentError(f"unknown experiment {experiment_id!r}; known: {known}")
    return _REGISTRY[key]


def all_experiments() -> Mapping[str, Experiment]:
    """All registered experiments, keyed by id."""
    return dict(_REGISTRY)


def run_all(
    fast: bool = True, seed: int = 0, workers: Optional[int] = None
) -> List[ExperimentResult]:
    """Run every registered experiment and return the results."""
    return [
        exp.run(fast=fast, seed=seed, workers=workers)
        for _, exp in sorted(_REGISTRY.items())
    ]
