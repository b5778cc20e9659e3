"""Shared plumbing for the benchmark: paths, timing helpers, statistics.

Everything here is stdlib-only so the entry point can fail fast (and
without printing a result) when the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Scratch space for server artifacts; inside the checkout, ignored by git.
WORK_DIR = ROOT / ".perfbench_work"


def require_source() -> None:
    """Put ``src`` first on ``sys.path``; exit 2 when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source under {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> Dict[str, str]:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def quantile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated ``q``-quantile (numpy's default method)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when nothing was measured."""
    return num / den if den else 0.0


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """VmHWM (peak resident set) of ``pid`` (default: this process), MiB."""
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds consumed so far by ``pid``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def time_fresh_processes(cmd: List[str], count: int) -> float:
    """Median wall time of ``count`` fresh runs of ``cmd`` (spawn to exit)."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(
            cmd, check=True, stdout=subprocess.DEVNULL, env=program_env(),
            cwd=str(ROOT), timeout=120,
        )
        times.append(time.perf_counter() - start)
    return median(times)


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def machine_stamp(**extra: object) -> Dict[str, object]:
    """The machine shape a result came from, plus workload-specific fields."""
    import numpy

    from repro.obs.ledger import git_sha

    stamp: Dict[str, object] = {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
    }
    stamp.update(extra)
    return stamp
