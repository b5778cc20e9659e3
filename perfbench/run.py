"""Benchmark entry point: one run of one workload, one JSON result line.

Usage::

    python3 perfbench/run.py --workload mc-grid --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload svc-warm --seed 1 --seconds 2 --trace 1 --smoke

Workloads (see ``BENCHMARK.json`` for why each exists):

- ``mc-grid`` / ``mc-area`` — Monte-Carlo estimator calls in this
  process (:mod:`mc`);
- ``svc-warm`` / ``svc-cold`` — an open-loop HTTP load against a
  ``fullview serve`` process (:mod:`svc`).

``mc-area`` runs and is smoke-tested but is not listed in
``BENCHMARK.json``: its serial, interpreter-heavy trials follow the
host's load, and on a shared 2-vCPU VM the spread of ten runs
(interquartile range over median) of its throughput and trial latency
reached 0.19–0.35, past the 0.25 bound.  Its layers (kernel dispatch,
the dense covering path, serial engine runs) are still measured by the
traced runs of the listed workloads, and the kernel crossover table
times the dense and sparse kernels at its size in every traced run.

With ``--trace 0`` the result carries every ``end_to_end`` metric of
``BENCHMARK.json``, measured untraced.  Every workload reports all of
them; the unit of work is a trial for ``mc-*`` and a request for
``svc-*``:

- ``setup_s`` — median over fresh set-ups: process start, program import
  and task/grid build (``mc-*``); server launch until the first 200 from
  ``/v1/healthz`` (``svc-*``);
- ``trials_per_s`` — trials completed per second (``mc-*``);
  Monte-Carlo trials answered per second (``svc-*``);
- ``peak_rss_mb`` — VmHWM of the process doing the work (the server for
  ``svc-*``);
- ``p50_ms`` / ``p95_ms`` / ``p99_ms`` — trial wall time (``mc-*``);
  request latency timed from the request's due time (``svc-*``);
- ``goodput_rps`` — trials finishing within 1 s (``mc-*``), 200
  responses within 50 ms (``svc-warm``) or 1 s (``svc-cold``), per second.

With ``--trace 1`` the run alternates untraced work with the same kind of
work while the program's public layer callables are wrapped
(:mod:`tracer`): each estimator call runs untraced and then traced
(``mc-*``), or one server serves four quarter windows, untraced, traced,
traced, untraced (``svc-*``).  ``trace.overhead_pct`` compares the two
halves (wall for ``mc-*``, median latency for ``svc-*``).  The run
reports every ``per_layer`` metric; layers a workload never reaches read
0.  ``trace.unattributed_share`` is the share of the traced thread time
(``mc-*``; a two-worker dispatch counts its wall twice) or of the
server's CPU time (``svc-*``, against the spans' thread CPU time) that
no listed layer's self time explains.

Before the result line the run prints a ``{"stamp": ...}`` line with the
machine shape.  Failed, refused, timed-out and wrong results count into
``failed``; ``correct`` is true only when there are none.  ``--smoke``
shrinks every workload to seconds-long sizes for the benchmark's tests.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import load_spec, require_source  # noqa: E402

WORKLOADS = ("mc-grid", "mc-area", "svc-warm", "svc-cold")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so server children are stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    require_source()
    spec = load_spec()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    if args.workload.startswith("mc-"):
        import mc as workload
    else:
        import svc as workload
    metrics, attempted, failed, stamp = workload.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        raise RuntimeError(f"metric names drifted: missing {missing}, undeclared {extra}")
    print(json.dumps({"stamp": stamp}))
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in sorted(units)
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
