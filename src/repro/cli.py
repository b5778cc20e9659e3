"""Command-line interface: ``fullview`` (or ``python -m repro``).

Subcommands
-----------
- ``fullview list`` — registered experiments and their paper artifacts.
- ``fullview run FIG7 FIG8 ...`` — run experiments (``--full`` for
  publication-quality budgets), print reports, optionally ``--out DIR``
  to export every table as CSV.  ``--checkpoint DIR`` records completed
  experiments so an interrupted sweep can continue with ``--resume``;
  ``--time-budget SECONDS`` stops gracefully between experiments;
  ``--workers N`` runs the Monte-Carlo trials on N workers: threads
  for tasks that release the GIL, processes otherwise (bit-identical
  results either way).
- ``fullview lifetime`` — simulate network lifetime under a per-epoch
  failure schedule via the checkpointed resilient runner (supports
  ``--checkpoint/--resume/--time-budget`` at trial granularity).
- ``fullview figures`` — render Figures 7 and 8 as ASCII charts and
  CSV series.
- ``fullview workloads`` — assess the built-in scenarios against CSA
  theory and simulation.
- ``fullview lint`` — run the ``fvlint`` domain-invariant static
  analysis (RNG discipline, error contract, angle hygiene, ...) over
  source trees, with text/JSON reports and a baseline workflow.
- ``fullview report`` — summarize a ``--trace`` JSONL file (throughput,
  wall vs. CPU, worker utilization, span breakdown, latency
  percentiles, slowest trials), or export it with ``--format
  chrome|flamegraph|prom`` (Perfetto trace, collapsed-stack
  flamegraph, Prometheus text exposition).
- ``fullview runs`` — list or inspect the persistent run ledger
  (``~/.fullview/runs.jsonl``, ``--ledger PATH`` or FULLVIEW_LEDGER).
- ``fullview watch PATH`` — tail a ``--status`` live file and render a
  single-line refreshing progress view for a running job.

``run``, ``lifetime`` and ``workloads`` accept ``--trace PATH`` and
``--metrics PATH`` to record structured telemetry (see
:mod:`repro.obs`), ``--status PATH``/``--ledger [PATH]`` for live
progress and the run ledger; all are off by default and never perturb
results.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro._version import __version__

__all__ = ["build_parser", "main"]


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.experiments import all_experiments

    experiments = all_experiments()
    width = max(len(k) for k in experiments)
    for key in sorted(experiments):
        exp = experiments[key]
        print(f"{key.ljust(width)}  {exp.title}  [{exp.paper_artifact}]")
    return 0


#: Schema tag for the experiment-level run checkpoint.
_RUN_CHECKPOINT_FORMAT = "fullview-run-checkpoint-v1"


def _load_run_checkpoint(path: Path, seed: int, full: bool) -> dict:
    from repro.errors import CheckpointError
    from repro.simulation.runner import parse_checkpoint

    payload = parse_checkpoint(path, _RUN_CHECKPOINT_FORMAT)
    if payload.get("seed") != seed or payload.get("full") != full:
        raise CheckpointError(
            f"run checkpoint {path} was written for seed={payload.get('seed')}, "
            f"full={payload.get('full')}; rerun with matching flags or start fresh"
        )
    completed = payload.get("completed", {})
    if not isinstance(completed, dict) or not all(
        isinstance(entry, dict) and isinstance(entry.get("passed"), bool)
        for entry in completed.values()
    ):
        raise CheckpointError(
            f"run checkpoint {path} is malformed: 'completed' must map each "
            'experiment id to {"passed": true|false}'
        )
    return completed


def _save_run_checkpoint(path: Path, seed: int, full: bool, completed: dict) -> None:
    from repro.ioutil import stamp_checksum, write_json_atomic
    from repro.obs import emit
    from repro.obs.events import CheckpointWritten

    payload = {
        "format": _RUN_CHECKPOINT_FORMAT,
        "version": __version__,
        "seed": seed,
        "full": full,
        "completed": completed,
    }
    # Durable atomic write: fsynced before the rename so a crash can
    # never publish a torn run checkpoint.
    write_json_atomic(path, stamp_checksum(payload))
    emit(CheckpointWritten(path=str(path), checkpoint_kind="run", next_trial=len(completed)))


def _obs_context(args: argparse.Namespace, command: str):
    """The ``--trace``/``--metrics``/``--status``/``--ledger`` obs context."""
    from repro.obs import observe

    ledger = getattr(args, "ledger", None)
    if ledger == "":
        # ``--ledger`` with no PATH: the default persistent location
        # (FULLVIEW_LEDGER or ~/.fullview/runs.jsonl).
        from repro.obs.ledger import default_ledger_path

        ledger = default_ledger_path()
    experiment = ",".join(getattr(args, "ids", None) or []) or None
    meta = {
        "command": command,
        "seed": getattr(args, "seed", None),
        "experiment": experiment,
    }
    return observe(
        trace=getattr(args, "trace", None),
        metrics=getattr(args, "metrics", None),
        meta={k: v for k, v in meta.items() if v is not None},
        status=getattr(args, "status", None),
        ledger=ledger,
    )


def _fault_context(args: argparse.Namespace):
    """The ``--max-retries``/``--chunk-timeout``/``--chaos`` fault scope.

    Only flags the user actually passed become scoped overrides; unset
    slots keep resolving from the ``FULLVIEW_MAX_RETRIES`` /
    ``FULLVIEW_CHUNK_TIMEOUT`` / ``FULLVIEW_CHAOS`` environment
    variables.
    """
    import dataclasses

    from repro.simulation.faults import ChaosPolicy, RetryPolicy, fault_scope

    retry = None
    overrides = {}
    if getattr(args, "max_retries", None) is not None:
        overrides["max_retries"] = args.max_retries
    if getattr(args, "chunk_timeout", None) is not None:
        overrides["chunk_timeout"] = args.chunk_timeout
    if overrides:
        retry = dataclasses.replace(RetryPolicy.from_env(), **overrides)
    chaos = None
    if getattr(args, "chaos", None):
        chaos = ChaosPolicy.parse(args.chaos)
    return fault_scope(retry=retry, chaos=chaos)


def _cmd_run(args: argparse.Namespace) -> int:
    with _obs_context(args, "run"), _fault_context(args):
        return _run_body(args)


def _run_body(args: argparse.Namespace) -> int:
    import time

    from repro.experiments import all_experiments, get_experiment
    from repro.simulation.runner import check_resume_options

    check_resume_options(args.resume, args.checkpoint, args.time_budget)
    ids: List[str] = args.ids or sorted(all_experiments())
    out_dir: Optional[Path] = Path(args.out) if args.out else None
    checkpoint_path: Optional[Path] = (
        Path(args.checkpoint) / "run_checkpoint.json" if args.checkpoint else None
    )
    completed: dict = {}
    if args.resume and checkpoint_path is not None and checkpoint_path.exists():
        completed = _load_run_checkpoint(checkpoint_path, args.seed, args.full)
    any_failed = False
    truncated = False
    started_at = time.monotonic()
    for experiment_id in ids:
        experiment = get_experiment(experiment_id)
        key = experiment.experiment_id
        if key in completed:
            print(f"{key}: already completed (checkpoint) — "
                  f"{'PASS' if completed[key]['passed'] else 'FAIL'}")
            any_failed |= not completed[key]["passed"]
            continue
        if (
            args.time_budget is not None
            and time.monotonic() - started_at >= args.time_budget
        ):
            truncated = True
            break
        result = experiment.run(
            fast=not args.full, seed=args.seed, workers=args.workers
        )
        print(result.render())
        print()
        if out_dir is not None:
            for i, table in enumerate(result.tables):
                suffix = f"_{i}" if len(result.tables) > 1 else ""
                path = out_dir / f"{result.experiment_id.lower()}{suffix}.csv"
                table.save_csv(path)
                print(f"wrote {path}")
        any_failed |= not result.passed
        completed[key] = {"passed": result.passed}
        if checkpoint_path is not None:
            _save_run_checkpoint(checkpoint_path, args.seed, args.full, completed)
    if truncated:
        remaining = [i for i in ids if i.upper() not in completed]
        print(f"time budget exhausted; {len(remaining)} experiment(s) not run: "
              f"{', '.join(remaining)}")
        if checkpoint_path is not None:
            print(f"resume with: fullview run --checkpoint {args.checkpoint} --resume")
    return 1 if any_failed else 0


def _cmd_lifetime(args: argparse.Namespace) -> int:
    with _obs_context(args, "lifetime"), _fault_context(args):
        return _lifetime_body(args)


def _lifetime_body(args: argparse.Namespace) -> int:
    from repro.core.csa import csa_necessary, csa_sufficient
    from repro.resilience.failures import (
        BernoulliFailure,
        DiskBlackout,
        FailureSchedule,
        OrientationDrift,
        RadiusDegradation,
    )
    from repro.resilience.lifetime import LifetimeDistribution, make_lifetime_trial
    from repro.sensors.model import CameraSpec, HeterogeneousProfile
    from repro.simulation.montecarlo import MonteCarloConfig
    from repro.simulation.results import ResultTable
    from repro.simulation.runner import run_resilient_trials

    theta = args.theta_over_pi * math.pi
    profile = HeterogeneousProfile.homogeneous(
        CameraSpec(radius=args.radius, angle_of_view=args.phi_over_pi * math.pi)
    )
    if args.provision is not None and args.provision > 0:
        profile = profile.scaled_to_weighted_area(
            args.provision * csa_sufficient(args.n, theta)
        )
    models = []
    if args.failure_rate > 0:
        models.append(BernoulliFailure(args.failure_rate))
    if args.blackout_radius is not None:
        models.append(DiskBlackout(args.blackout_radius))
    if args.drift > 0:
        models.append(OrientationDrift(args.drift))
    if args.decay < 1.0:
        models.append(RadiusDegradation(args.decay))
    schedule = FailureSchedule(models)
    print(
        f"lifetime simulation: n={args.n}, theta={args.theta_over_pi:.3f}*pi, "
        f"s_c={profile.weighted_sensing_area:.4f} "
        f"(CSA_N={csa_necessary(args.n, theta):.4f}, "
        f"CSA_S={csa_sufficient(args.n, theta):.4f})"
    )
    print(
        f"schedule per epoch: {len(schedule)} failure model(s); horizon "
        f"{args.epochs} epochs, condition '{args.condition}', "
        f"{args.trials} trials"
    )
    trial_fn = make_lifetime_trial(
        profile,
        args.n,
        theta,
        schedule,
        epochs=args.epochs,
        condition=args.condition,
        max_grid_points=args.max_grid_points,
    )
    result = run_resilient_trials(
        trial_fn,
        MonteCarloConfig(trials=args.trials, seed=args.seed, workers=args.workers),
        checkpoint_dir=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        time_budget=args.time_budget,
    )
    if result.completed == 0:
        print("no trials completed (time budget too small?); nothing to report")
        return 1
    lifetimes = tuple(int(v) for v in result.values)
    dist = LifetimeDistribution(
        lifetimes=lifetimes,
        censored=tuple(v >= args.epochs for v in lifetimes),
        epochs=args.epochs,
    )
    table = ResultTable(
        title=f"survival curve over {args.epochs} epochs",
        columns=["epoch", "survival"],
    )
    for epoch, alive in enumerate(dist.survival_curve()):
        table.add_row(epoch, alive)
    print()
    print(table.pretty())
    print(
        f"\nmean lifetime: {dist.mean_lifetime:.2f} epochs | median: "
        f"{dist.median_lifetime:.1f} | censored at horizon: "
        f"{dist.censored_fraction:.1%}"
    )
    print(
        f"trials: {result.completed}/{result.requested} completed, "
        f"{len(result.failures)} failed"
        + (", TRUNCATED by time budget" if result.truncated else "")
    )
    for failure in result.failures:
        print(f"  trial {failure.trial} failed: {failure.error}")
    if args.out:
        path = table.save_csv(Path(args.out) / "lifetime_survival.csv")
        print(f"wrote {path}")
    if result.truncated and args.checkpoint:
        print(f"resume with: fullview lifetime --checkpoint {args.checkpoint} --resume")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments.figure7 import build_table as fig7_table
    from repro.experiments.figure8 import build_table as fig8_table
    from repro.viz.ascii_plot import ascii_line_plot
    from repro.viz.csv_export import export_table

    fig7 = fig7_table(points=17)
    fig8 = fig8_table(count=17)
    print(
        ascii_line_plot(
            {
                "necessary": (fig7.column("theta_over_pi"), fig7.column("csa_necessary")),
                "sufficient": (fig7.column("theta_over_pi"), fig7.column("csa_sufficient")),
            },
            title="Figure 7: CSA vs effective angle (n = 1000)",
            x_label="theta / pi",
            y_label="critical sensing area",
        )
    )
    print()
    print(
        ascii_line_plot(
            {
                "necessary": (fig8.column("n"), fig8.column("csa_necessary")),
                "sufficient": (fig8.column("n"), fig8.column("csa_sufficient")),
            },
            title="Figure 8: CSA vs sensor count (theta = pi/4)",
            x_label="n",
            y_label="critical sensing area",
        )
    )
    if args.out:
        out_dir = Path(args.out)
        print(f"wrote {export_table(out_dir / 'figure7.csv', fig7)}")
        print(f"wrote {export_table(out_dir / 'figure8.csv', fig8)}")
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    with _obs_context(args, "workloads"), _fault_context(args):
        return _workloads_body(args)


def _workloads_body(args: argparse.Namespace) -> int:
    from repro.core.csa import csa_necessary, csa_sufficient
    from repro.simulation.montecarlo import MonteCarloConfig, estimate_area_fraction
    from repro.simulation.workloads import registry

    for name, workload in registry().items():
        s_c = workload.profile.weighted_sensing_area
        nec = csa_necessary(workload.n, workload.theta)
        suf = csa_sufficient(workload.n, workload.theta)
        if s_c < nec:
            verdict = "below the necessary CSA: full-view coverage impossible"
        elif s_c > suf:
            verdict = "above the sufficient CSA: full-view coverage guaranteed (asymptotically)"
        else:
            verdict = "inside the CSA band: coverage depends on the deployment"
        print(f"{name}: {workload.description}")
        print(
            f"  n={workload.n}, theta={workload.theta / math.pi:.3f}*pi, "
            f"s_c={s_c:.4f}, CSA_N={nec:.4f}, CSA_S={suf:.4f}"
        )
        print(f"  verdict: {verdict}")
        if args.simulate:
            cfg = MonteCarloConfig(
                trials=args.trials, seed=args.seed, workers=args.workers
            )
            mean, half = estimate_area_fraction(
                workload.profile,
                workload.n,
                workload.theta,
                "exact",
                cfg,
                scheme=workload.scheme,
                sample_points=128,
            )
            print(f"  simulated full-view area fraction: {mean:.3f} +/- {half:.3f}")
        print()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.errors import ObservabilityError
    from repro.obs.export import EXPORT_FORMATS, export_trace
    from repro.obs.report import build_report, load_trace

    try:
        data = load_trace(Path(args.path))
    except ObservabilityError as exc:
        print(f"fullview report: {exc}", file=sys.stderr)
        return 2
    if args.format in EXPORT_FORMATS:
        print(export_trace(data, args.format))
        return 0
    report = build_report(data)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_text())
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ObservabilityError
    from repro.obs.ledger import default_ledger_path, load_runs, render_runs_table

    path = Path(args.ledger) if args.ledger else default_ledger_path()
    if not path.exists():
        print(f"no run ledger at {path}")
        return 1 if args.run_id else 0
    try:
        rows, problems = load_runs(path)
    except ObservabilityError as exc:
        print(f"fullview runs: {exc}", file=sys.stderr)
        return 2
    for problem in problems:
        print(f"fullview runs: {problem}", file=sys.stderr)
    if args.run_id:
        matches = [row for row in rows if row["run_id"].startswith(args.run_id)]
        if not matches:
            print(f"no run matching {args.run_id!r} in {path}", file=sys.stderr)
            return 1
        print(json.dumps(matches[0], indent=2))
        return 0
    if getattr(args, "outcome", None):
        rows = [row for row in rows if row["outcome"] == args.outcome]
    if args.limit is not None and args.limit >= 0:
        rows = rows[: args.limit]
    if args.json:
        print(json.dumps(rows, indent=2))
    elif rows:
        print(render_runs_table(rows))
    else:
        print(f"no runs recorded in {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.api.schemas import API_SCHEMA
    from repro.obs.ledger import default_ledger_path
    from repro.service import CoverageService, ResultCache

    ledger = getattr(args, "ledger", None)
    if ledger == "":
        ledger = default_ledger_path()
    service = CoverageService(
        cache=ResultCache(args.cache_dir),
        queue_limit=args.queue_limit,
        service_workers=args.service_workers,
        workers=args.workers,
        ledger_path=ledger,
    )

    async def run() -> None:
        await service.start(args.host, args.port)
        print(
            f"fullview service listening on http://{service.host}:{service.port} "
            f"(schema {API_SCHEMA})",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                # Platforms without signal handlers (or non-main
                # threads) fall back to KeyboardInterrupt.
                pass
        serve_task = asyncio.ensure_future(service.serve_forever())
        await stop.wait()
        print("fullview service draining in-flight runs...", flush=True)
        serve_task.cancel()
        await service.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    if args.metrics:
        service.metrics.export_json(args.metrics)
    return 0


def _render_status_line(payload: dict) -> str:
    """One refreshable progress line from a fullview-status-v1 payload."""
    done = int(payload.get("done", 0))
    total = int(payload.get("total", 0))
    pct = f" ({done / total:.0%})" if total > 0 else ""
    rate = float(payload.get("trials_per_sec", 0.0) or 0.0)
    eta = payload.get("eta_seconds")
    eta_text = f"{float(eta):.1f}s" if isinstance(eta, (int, float)) else "--"
    run_id = payload.get("run_id") or "?"
    faults = " ".join(
        f"{key}:{payload.get(key, 0)}"
        for key in ("retries", "respawns", "quarantined", "fallbacks")
        if payload.get(key)
    )
    line = (
        f"run {run_id} [{payload.get('state', '?')}] {done}/{total} trials{pct}"
        f" | {rate:.1f} trials/s | ETA {eta_text}"
    )
    if faults:
        line += f" | faults {faults}"
    return line


def _cmd_watch(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.obs.progress import STATUS_FORMAT

    path = Path(args.path)
    deadline = (
        time.monotonic() + args.timeout if args.timeout is not None else None
    )
    refreshing = False
    while True:
        payload = None
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            # Absent, mid-replace or foreign: poll again (the writer is
            # atomic, so a parseable file is always complete).
            payload = None
        if isinstance(payload, dict) and payload.get("format") == STATUS_FORMAT:
            line = _render_status_line(payload)
            finished = payload.get("state") == "finished"
            if args.once:
                print(line)
                return 0
            # \x1b[2K clears the previous (possibly longer) line.
            print(f"\r\x1b[2K{line}", end="", flush=True)
            refreshing = True
            if finished:
                print()
                return 0
        elif args.once:
            print(f"fullview watch: no status file at {path}", file=sys.stderr)
            return 1
        if deadline is not None and time.monotonic() >= deadline:
            if refreshing:
                print()
            print(f"fullview watch: timed out waiting on {path}", file=sys.stderr)
            return 1
        time.sleep(args.interval)


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from repro.barrier.grid_barrier import barrier_exists, compute_coverage_grid
    from repro.core.csa import csa_necessary, csa_sufficient
    from repro.core.full_view import diagnose_point
    from repro.seeding import root_rng
    from repro.sensors.io import save_fleet
    from repro.simulation.workloads import registry
    from repro.viz.ascii_plot import ascii_coverage_map, ascii_scatter_map

    workloads = registry()
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; known: {', '.join(workloads)}")
        return 1
    workload = workloads[args.workload]
    if args.provision is not None:
        workload = workload.provisioned(q=args.provision)
    fleet = workload.scheme.deploy(workload.profile, workload.n, root_rng(args.seed))
    theta = workload.theta

    print(f"workload: {workload.name} — {workload.description}")
    print(f"deployed {len(fleet)} sensors, theta = {theta / math.pi:.3f}*pi")
    s_c = workload.profile.weighted_sensing_area
    print(
        f"s_c = {s_c:.4f} | CSA_N = {csa_necessary(workload.n, theta):.4f} | "
        f"CSA_S = {csa_sufficient(workload.n, theta):.4f}"
    )
    print()
    print(ascii_scatter_map(fleet.positions, side=fleet.region.side,
                            title="sensor positions"))
    grid = compute_coverage_grid(fleet, theta, resolution=args.resolution)
    print()
    print(
        ascii_coverage_map(
            grid.covered,
            title=f"full-view covered cells ({grid.covered_fraction:.1%})",
        )
    )
    analysis = barrier_exists(fleet, theta, resolution=args.resolution)
    if analysis.has_barrier:
        print("\nbarrier: YES — every bottom-to-top crossing hits a covered cell")
    else:
        breach = analysis.breach or []
        print(
            f"\nbarrier: NO — an intruder can cross through {len(breach)} "
            "uncovered cells, e.g. entering near "
            f"x = {grid.cell_center(breach[0])[0]:.2f}" if breach else "\nbarrier: NO"
        )
    diag = diagnose_point(fleet, (0.5, 0.5), theta)
    print(
        f"\ncentre point: covered={diag.covered}, covering sensors="
        f"{diag.num_covering_sensors}, max gap={diag.max_gap:.3f} "
        f"(allowed {2 * theta:.3f})"
    )
    if args.save_fleet:
        path = save_fleet(fleet, args.save_fleet)
        print(f"\nfleet saved to {path}")

    from repro.obs import obs_self_check

    check = obs_self_check(Path.cwd())
    print("\nobservability self-check:")
    print(f"  span overhead disabled: {check['disabled_ns_per_span']:.0f} ns/span")
    print(f"  span overhead enabled:  {check['enabled_ns_per_span']:.0f} ns/span")
    sink_state = "writable" if check["sink_writable"] else "NOT WRITABLE"
    print(f"  JSONL sink dir {check['sink_dir']}: {sink_state}")
    return 0


def _cmd_design(args: argparse.Namespace) -> int:
    from repro.core.design import design_report
    from repro.simulation.workloads import registry

    workloads = registry()
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; known: {', '.join(workloads)}")
        return 1
    workload = workloads[args.workload]
    report = design_report(
        workload.profile, workload.n, workload.theta, target=args.target
    )
    print(f"design report: {workload.name} — {workload.description}")
    print(f"  n = {report.n}, theta = {report.theta / math.pi:.3f}*pi, "
          f"target per-point P(necessary) = {args.target}")
    print(f"  CSA necessary / sufficient: {report.csa_necessary:.4f} / "
          f"{report.csa_sufficient:.4f}")
    print(f"  current weighted sensing area: {report.current_weighted_area:.4f} "
          f"({report.csa_margin:.1%} of the sufficient CSA)")
    print(f"  required weighted area at n={report.n}: {report.required_area:.4f} "
          f"(scale every radius by {report.required_scale:.2f}x)")
    if report.minimum_n_with_current_cameras > 0:
        print(f"  or keep the cameras and deploy n >= "
              f"{report.minimum_n_with_current_cameras}")
    else:
        print("  current cameras cannot reach the target at any fleet size")
    return 0


def _changed_files() -> List[Path]:
    """Python files reported changed by ``git diff --name-only HEAD``."""
    import subprocess

    proc = subprocess.run(
        ["git", "diff", "--name-only", "HEAD"],
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        from repro.errors import LintError

        raise LintError(
            f"--changed needs a git checkout: {proc.stderr.strip() or 'git diff failed'}"
        )
    return [
        Path(line.strip())
        for line in proc.stdout.splitlines()
        if line.strip().endswith(".py")
    ]


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.errors import LintError
    from repro.lint import lint_paths, render_json, render_text, write_baseline

    paths = [Path(p) for p in (args.paths or ["src"])]
    select = args.select.split(",") if args.select else None
    baseline_path = Path(args.baseline) if args.baseline else None
    try:
        restrict_to = _changed_files() if args.changed else None
        if restrict_to == []:
            print("fvlint: no changed python files; nothing to check")
            return 0
        if args.write_baseline:
            result = lint_paths(paths, select=select)
            target = baseline_path or Path("fvlint-baseline.json")
            entries = write_baseline(target, result.findings)
            print(
                f"wrote {target}: {entries} fingerprint(s) covering "
                f"{len(result.findings)} finding(s)"
            )
            return 0
        if baseline_path is not None and not baseline_path.exists():
            print(f"baseline {baseline_path} does not exist", file=sys.stderr)
            return 2
        result = lint_paths(
            paths,
            select=select,
            baseline_path=baseline_path,
            restrict_to=restrict_to,
        )
    except LintError as exc:
        print(f"fvlint: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    return 0 if result.ok else 1


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a structured span/event trace (JSONL) to PATH; "
        "off by default and never perturbs results",
    )
    parser.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="write a counters/gauges/histograms snapshot (JSON) to PATH",
    )
    parser.add_argument(
        "--status", metavar="PATH", default=None,
        help="keep a live fullview-status-v1 JSON file at PATH updated "
        "with throttled progress heartbeats (tail it with "
        "'fullview watch PATH')",
    )
    parser.add_argument(
        "--ledger", metavar="PATH", nargs="?", const="", default=None,
        help="append one fullview-ledger-v1 row for this run; with no "
        "PATH, the default ledger (FULLVIEW_LEDGER or "
        "~/.fullview/runs.jsonl) — inspect with 'fullview runs'",
    )


def _add_fault_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="pool resubmissions allowed per chunk before falling back "
        "(default: 2, or FULLVIEW_MAX_RETRIES)",
    )
    parser.add_argument(
        "--chunk-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt deadline for a dispatched chunk; a timed-out "
        "pool is respawned (default: wait forever, or "
        "FULLVIEW_CHUNK_TIMEOUT)",
    )
    parser.add_argument(
        "--chaos", metavar="SPEC", default=None,
        help="deterministic fault injection, e.g. "
        "'seed=7,crash=0.2,slow=0.1' (keys: seed, crash, hang, slow, "
        "pickle, corrupt, poison, hang_seconds, slow_seconds, "
        "attempts); results stay bit-identical to a fault-free run",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``fullview`` argument parser with every subcommand wired."""
    parser = argparse.ArgumentParser(
        prog="fullview",
        description="Full-view coverage of heterogeneous camera sensor networks "
        "(reproduction of Wu & Wang, ICDCS 2012).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered experiments")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run experiments")
    p_run.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    p_run.add_argument("--full", action="store_true", help="publication-quality budgets")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", help="directory for CSV exports")
    p_run.add_argument(
        "--checkpoint", help="directory for the run checkpoint (records "
        "completed experiments so an interrupted sweep can continue)",
    )
    p_run.add_argument(
        "--resume", action="store_true",
        help="skip experiments already completed in the checkpoint",
    )
    p_run.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="stop gracefully between experiments once exceeded",
    )
    p_run.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="run Monte-Carlo trials on N workers: threads for tasks "
        "that release the GIL, processes otherwise (results are "
        "bit-identical to serial; default: serial, or the "
        "FULLVIEW_WORKERS environment variable)",
    )
    _add_obs_arguments(p_run)
    _add_fault_arguments(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_life = sub.add_parser(
        "lifetime",
        help="simulate network lifetime under a per-epoch failure schedule",
    )
    p_life.add_argument("--n", type=int, default=240, help="sensors to deploy")
    p_life.add_argument(
        "--theta-over-pi", type=float, default=1.0 / 3.0,
        help="effective angle theta as a multiple of pi",
    )
    p_life.add_argument(
        "--radius", type=float, default=0.25, help="camera sensing radius"
    )
    p_life.add_argument(
        "--phi-over-pi", type=float, default=0.5,
        help="camera angle of view as a multiple of pi",
    )
    p_life.add_argument(
        "--provision", type=float, default=2.0,
        help="rescale cameras to this multiple of the sufficient CSA "
        "(pass 0 or a negative value to keep --radius as given)",
    )
    p_life.add_argument("--epochs", type=int, default=18, help="failure epochs")
    p_life.add_argument(
        "--failure-rate", type=float, default=0.08,
        help="per-epoch independent death probability (0 disables)",
    )
    p_life.add_argument(
        "--blackout-radius", type=float, default=None,
        help="per-epoch correlated blackout disk radius (omit to disable)",
    )
    p_life.add_argument(
        "--drift", type=float, default=0.0,
        help="per-epoch orientation drift sigma (0 disables)",
    )
    p_life.add_argument(
        "--decay", type=float, default=1.0,
        help="per-epoch radius degradation factor (1 disables)",
    )
    p_life.add_argument(
        "--condition", choices=["necessary", "exact", "sufficient"],
        default="necessary", help="full-view condition the lifetime clock uses",
    )
    p_life.add_argument("--trials", type=int, default=50)
    p_life.add_argument("--seed", type=int, default=0)
    p_life.add_argument(
        "--max-grid-points", type=int, default=128,
        help="subsample the dense grid to this many points per trial",
    )
    p_life.add_argument(
        "--checkpoint", help="directory for trial-level JSON checkpoints"
    )
    p_life.add_argument(
        "--checkpoint-every", type=int, default=16,
        help="trials between checkpoint writes",
    )
    p_life.add_argument(
        "--resume", action="store_true",
        help="continue from the checkpoint in --checkpoint",
    )
    p_life.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="stop gracefully before the next trial (the next chunk "
        "with --workers) once exceeded",
    )
    p_life.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="run lifetime trials on N worker threads "
        "(bit-identical to serial; checkpoints stay contiguous)",
    )
    p_life.add_argument("--out", help="directory for CSV exports")
    _add_obs_arguments(p_life)
    _add_fault_arguments(p_life)
    p_life.set_defaults(func=_cmd_lifetime)

    p_fig = sub.add_parser("figures", help="render Figures 7 and 8")
    p_fig.add_argument("--out", help="directory for CSV exports")
    p_fig.set_defaults(func=_cmd_figures)

    p_work = sub.add_parser("workloads", help="assess built-in scenarios")
    p_work.add_argument("--simulate", action="store_true", help="also run Monte Carlo")
    p_work.add_argument("--trials", type=int, default=50)
    p_work.add_argument("--seed", type=int, default=0)
    p_work.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="run Monte-Carlo trials on N workers (threads or "
        "processes, chosen per task)",
    )
    _add_obs_arguments(p_work)
    _add_fault_arguments(p_work)
    p_work.set_defaults(func=_cmd_workloads)

    p_report = sub.add_parser(
        "report",
        help="summarize a --trace JSONL file",
        description="Build a run report from a fullview-trace-v1 JSONL "
        "file: throughput, wall vs. CPU time, worker utilization, span "
        "breakdown and the slowest trials.",
    )
    p_report.add_argument("path", help="trace file written via --trace")
    p_report.add_argument(
        "--format",
        choices=["text", "json", "chrome", "flamegraph", "prom"],
        default="text",
        help="report format: 'chrome' emits Perfetto-loadable trace-event "
        "JSON, 'flamegraph' collapsed-stack text, 'prom' the metrics "
        "snapshot as Prometheus text exposition",
    )
    p_report.set_defaults(func=_cmd_report)

    p_runs = sub.add_parser(
        "runs",
        help="list or inspect the persistent run ledger",
        description="Read the append-only fullview-ledger-v1 run ledger "
        "(newest first, schema-validated): every observed run's id, "
        "experiment, seed, executor, throughput and outcome.",
    )
    p_runs.add_argument(
        "run_id", nargs="?", default=None,
        help="show one run's full row (id prefix match)",
    )
    p_runs.add_argument(
        "--ledger", metavar="PATH", default=None,
        help="ledger file (default: FULLVIEW_LEDGER or ~/.fullview/runs.jsonl)",
    )
    p_runs.add_argument(
        "--json", action="store_true", help="emit rows as JSON instead of a table"
    )
    p_runs.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="show at most the N newest runs",
    )
    p_runs.add_argument(
        "--outcome", default=None, choices=("ok", "error", "cached"),
        help="show only runs with this outcome ('cached' rows are "
        "coverage-service requests served from the persistent cache "
        "without an engine run)",
    )
    p_runs.set_defaults(func=_cmd_runs)

    p_serve = sub.add_parser(
        "serve",
        help="run the long-lived coverage service (HTTP+JSON)",
        description="Serve deploy/evaluate/estimate over the versioned "
        "fullview-api-v1 wire schema, with content-addressed result "
        "caching, coalescing of concurrent identical requests, bounded "
        "backpressure, and graceful drain on SIGINT/SIGTERM.",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    p_serve.add_argument(
        "--port", type=int, default=8471,
        help="bind port; 0 picks an ephemeral port (default: 8471)",
    )
    p_serve.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persist results on disk under DIR (atomic, checksum-"
        "stamped fullview-cache-v1 entries); omit for memory-only",
    )
    p_serve.add_argument(
        "--queue-limit", type=int, default=8, metavar="N",
        help="max computations pending at once before new work is "
        "refused with HTTP 503 (default: 8)",
    )
    p_serve.add_argument(
        "--service-workers", type=int, default=2, metavar="N",
        help="threads in the compute pool (default: 2)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="engine workers forwarded to every Monte-Carlo job",
    )
    p_serve.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="write the service counters/gauges snapshot (JSON) to "
        "PATH on shutdown",
    )
    p_serve.add_argument(
        "--ledger", metavar="PATH", nargs="?", const="", default=None,
        help="append one fullview-ledger-v1 row per cache miss (and a "
        "'cached' row per persistent-cache hit); with no PATH, the "
        "default ledger — inspect with 'fullview runs'",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_watch = sub.add_parser(
        "watch",
        help="tail a --status live file with a refreshing progress line",
        description="Poll a fullview-status-v1 live status file (written "
        "by a run started with --status PATH) and render a single-line "
        "refreshing progress view; exits 0 when the run finishes.",
    )
    p_watch.add_argument("path", help="status file written via --status")
    p_watch.add_argument(
        "--interval", type=float, default=0.5, metavar="SECONDS",
        help="poll interval (default 0.5s)",
    )
    p_watch.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="give up (exit 1) after this long without the run finishing",
    )
    p_watch.add_argument(
        "--once", action="store_true",
        help="render the current status once and exit (1 if absent)",
    )
    p_watch.set_defaults(func=_cmd_watch)

    p_diag = sub.add_parser(
        "diagnose", help="deploy a workload and render coverage/barrier maps"
    )
    p_diag.add_argument("workload", help="workload name (see `fullview workloads`)")
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.add_argument("--resolution", type=int, default=24)
    p_diag.add_argument(
        "--provision", type=float, default=None,
        help="rescale cameras to this multiple of the sufficient CSA first",
    )
    p_diag.add_argument("--save-fleet", help="write the deployed fleet to this .npz")
    p_diag.set_defaults(func=_cmd_diagnose)

    p_design = sub.add_parser(
        "design", help="invert the theory into requirements for a workload"
    )
    p_design.add_argument("workload", help="workload name (see `fullview workloads`)")
    p_design.add_argument(
        "--target", type=float, default=0.99,
        help="target per-point necessary-condition probability",
    )
    p_design.set_defaults(func=_cmd_design)

    p_lint = sub.add_parser(
        "lint",
        help="run the fvlint domain-invariant static analysis",
        description="AST-based lint pass enforcing the repo's RNG, "
        "error-contract, angle-hygiene, float-equality and API-surface "
        "conventions (rules FV001-FV005) plus whole-program "
        "parallel-safety, determinism, portability and layering checks "
        "(FV006-FV010). Exits 1 when findings remain after pragmas and "
        "the baseline.",
    )
    p_lint.add_argument(
        "paths", nargs="*", help="files or directories to lint (default: src)"
    )
    p_lint.add_argument(
        "--format", choices=["text", "json"], default="text", help="report format"
    )
    p_lint.add_argument(
        "--select", metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    p_lint.add_argument(
        "--baseline", metavar="FILE",
        help="baseline file of grandfathered findings to subtract",
    )
    p_lint.add_argument(
        "--write-baseline", action="store_true",
        help="record current findings into --baseline "
        "(default fvlint-baseline.json) and exit 0",
    )
    p_lint.add_argument(
        "--changed", action="store_true",
        help="check only files in 'git diff --name-only HEAD' plus their "
        "reverse import-graph dependents (the whole-program model is "
        "still built over every file)",
    )
    p_lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
