"""Monte-Carlo simulation harness.

The analytical layer (:mod:`repro.core`) predicts probabilities; this
package measures them on actual random deployments so every theorem in
the paper can be validated by simulation:

- :mod:`repro.simulation.engine` — the trial-execution engine: seeded
  per-trial RNG streams, ``TrialOutcome`` records, and serial /
  thread / process executors that produce bit-identical results.
- :mod:`repro.simulation.statistics` — Bernoulli estimates with Wilson
  and Clopper-Pearson intervals, and agreement tests against theory.
- :mod:`repro.simulation.montecarlo` — seeded trial tasks and runners
  for per-point condition probabilities, grid events and area
  fractions.
- :mod:`repro.simulation.runner` — a resilient sweep executor with
  per-trial fault isolation, checkpoint/resume and wall-clock budgets.
- :mod:`repro.simulation.sweeps` — parameter sweeps over ``n``,
  ``theta`` and the CSA multiple ``q``.
- :mod:`repro.simulation.results` — result tables with CSV/markdown
  rendering (the "figures" of this reproduction).
- :mod:`repro.simulation.workloads` — the intro's motivating scenarios
  as ready-made heterogeneous profiles.
"""

from repro.simulation.engine import (
    MonteCarloConfig,
    ParallelExecutor,
    SerialExecutor,
    ThreadExecutor,
    TrialExecutor,
    TrialOutcome,
    execute_trials,
    executor_for,
    run_trial,
)
from repro.simulation.faults import (
    ChaosPolicy,
    RetryPolicy,
    fault_scope,
)
from repro.simulation.montecarlo import (
    estimate_area_fraction,
    estimate_grid_failure_probability,
    estimate_point_probability,
)
from repro.simulation.results import ResultTable
from repro.simulation.runner import (
    ResilientResult,
    TrialFailure,
    run_resilient_trials,
)
from repro.simulation.statistics import BernoulliEstimate, wilson_interval

__all__ = [
    "BernoulliEstimate",
    "ChaosPolicy",
    "MonteCarloConfig",
    "ParallelExecutor",
    "ResilientResult",
    "ResultTable",
    "RetryPolicy",
    "SerialExecutor",
    "ThreadExecutor",
    "TrialExecutor",
    "TrialFailure",
    "TrialOutcome",
    "execute_trials",
    "executor_for",
    "fault_scope",
    "run_resilient_trials",
    "run_trial",
    "estimate_area_fraction",
    "estimate_grid_failure_probability",
    "estimate_point_probability",
    "wilson_interval",
]
