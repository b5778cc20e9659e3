#!/usr/bin/env python3
"""Soft trend guard over the BENCH_*.json ledgers.

Stdlib-only, like ``check_obs_schema.py``: CI runs this right after the
benchmarks append their rows, so it must not depend on importing
``repro``.  For each watched benchmark it compares the latest recorded
value against the previous one and emits a GitHub ``::warning::``
annotation when the drop exceeds the threshold (20% by default).
``--watch`` rows are larger-is-better (speedups); ``--watch-overhead``
rows are smaller-is-better (overhead percentages), warned on *upward*
drift past the same threshold.

The guard is deliberately *soft* — it always exits 0 on a regression.
Speedup numbers depend on the cores and load of the runner that
happened to execute the job, so a hard gate would fail PRs on
infrastructure noise; the annotation surfaces the trend for a human to
judge instead.  Only unreadable/malformed invocations exit non-zero
(exit 2), so a broken ledger cannot silently disable the guard.

Usage::

    python scripts/check_bench_trend.py BENCH_engine.json \
        --watch engine_thread_speedup_2w --watch engine_process_speedup_2w
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

#: Benchmarks where *larger is better* and a sudden drop merits a look.
DEFAULT_WATCHED = (
    "engine_thread_speedup_2w",
    "engine_process_speedup_2w",
    "engine_process_over_thread_2w",
)

#: Benchmarks where *smaller is better* and a sudden rise merits a look.
DEFAULT_WATCHED_OVERHEAD = (
    "engine_retry_overhead_pct",
    "engine_progress_overhead_pct",
)

#: Relative drop (vs the previous observation) that triggers a warning.
DEFAULT_THRESHOLD = 0.20


def load_rows(path: Path) -> Optional[List[dict]]:
    """The ledger's rows, or ``None`` (with a stderr line) if unusable."""
    try:
        rows = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"{path}: unreadable: {exc}", file=sys.stderr)
        return None
    except ValueError as exc:
        print(f"{path}: not valid JSON: {exc}", file=sys.stderr)
        return None
    if not isinstance(rows, list):
        print(f"{path}: ledger is not a JSON list", file=sys.stderr)
        return None
    return [row for row in rows if isinstance(row, dict)]


def check_bench(bench: str, rows: List[dict], threshold: float) -> Optional[str]:
    """A warning line if ``bench``'s latest value dropped too far, else None."""
    history = [
        row for row in rows
        if row.get("bench") == bench and isinstance(row.get("value"), (int, float))
    ]
    if len(history) < 2:
        return None
    previous, latest = history[-2], history[-1]
    prev_value, last_value = float(previous["value"]), float(latest["value"])
    if prev_value <= 0.0:
        return None
    drop = (prev_value - last_value) / prev_value
    if drop <= threshold:
        return None
    unit = latest.get("unit", "")
    return (
        f"{bench} dropped {drop * 100.0:.1f}% below the previous "
        f"observation: {prev_value:.3f} -> {last_value:.3f} {unit} "
        f"(threshold {threshold * 100.0:.0f}%; previous sha "
        f"{previous.get('git_sha', 'unknown')[:12]})"
    )


def check_bench_overhead(
    bench: str, rows: List[dict], threshold: float
) -> Optional[str]:
    """A warning line if ``bench``'s latest value *rose* too far, else None."""
    history = [
        row for row in rows
        if row.get("bench") == bench and isinstance(row.get("value"), (int, float))
    ]
    if len(history) < 2:
        return None
    previous, latest = history[-2], history[-1]
    prev_value, last_value = float(previous["value"]), float(latest["value"])
    if prev_value <= 0.0:
        # A clamped-to-zero baseline gives no meaningful relative drift.
        return None
    rise = (last_value - prev_value) / prev_value
    if rise <= threshold:
        return None
    unit = latest.get("unit", "")
    return (
        f"{bench} rose {rise * 100.0:.1f}% above the previous "
        f"observation: {prev_value:.3f} -> {last_value:.3f} {unit} "
        f"(threshold {threshold * 100.0:.0f}%; previous sha "
        f"{previous.get('git_sha', 'unknown')[:12]})"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ledger", type=Path, help="BENCH_*.json ledger to scan")
    parser.add_argument(
        "--watch",
        action="append",
        default=None,
        metavar="BENCH",
        help="benchmark name to watch (repeatable; larger-is-better)",
    )
    parser.add_argument(
        "--watch-overhead",
        action="append",
        default=None,
        metavar="BENCH",
        help="overhead benchmark to watch (repeatable; smaller-is-better, "
        "warned on upward drift)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="relative drop that triggers a warning (default 0.20)",
    )
    args = parser.parse_args(argv)
    if not 0.0 < args.threshold < 1.0:
        print(f"threshold must be in (0, 1), got {args.threshold}", file=sys.stderr)
        return 2
    rows = load_rows(args.ledger)
    if rows is None:
        return 2
    watched = args.watch if args.watch else list(DEFAULT_WATCHED)
    watched_overhead = (
        args.watch_overhead if args.watch_overhead else list(DEFAULT_WATCHED_OVERHEAD)
    )
    regressions = 0
    checks = [(bench, check_bench) for bench in watched]
    checks += [(bench, check_bench_overhead) for bench in watched_overhead]
    for bench, check in checks:
        message = check(bench, rows, args.threshold)
        if message is None:
            print(f"{bench}: ok")
        else:
            regressions += 1
            # GitHub Actions renders this as an inline warning annotation;
            # plain terminals just show the line.
            print(f"::warning title=bench trend::{message}")
    if regressions:
        print(
            f"{regressions} watched benchmark(s) regressed past the "
            "threshold; soft guard — not failing the job"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
