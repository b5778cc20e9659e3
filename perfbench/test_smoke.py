"""The benchmark's own tests: smoke runs, the output contract, the oracles.

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import mc  # noqa: E402
import run  # noqa: E402
import svc  # noqa: E402
from common import BENCH_DIR, ROOT, WORK_DIR, load_spec, require_source  # noqa: E402

SPEC = load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    listed = [w["name"] for w in SPEC["workloads"]]
    assert set(listed) <= set(run.WORKLOADS) and len(listed) >= 2
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["mc-grid", "mc-area", "svc-warm", "svc-cold"])
def test_smoke_run(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    stamp = json.loads(lines[-2])["stamp"]
    assert stamp["cpus"] >= 1 and "numpy" in stamp and "executor" in stamp
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: body["unit"] for name, body in result["metrics"].items()}
    for name, body in result["metrics"].items():
        assert math.isfinite(body["value"]), name
        if not trace:
            assert body["value"] > 0, name


def test_refuses_without_program():
    bare = WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("mc-area", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # a benchmark run still uses it


def test_mc_oracle_catches_wrong_outcome():
    require_source()
    p = mc.params("mc-area", smoke=True)
    task = mc.build_task("mc-area", smoke=True)
    values = mc.run_batches(task, p, [mc.batch_seed(5, 0)])
    p = dict(p, replays=len(values))
    assert mc.oracle_mismatches(task, p, values, 5) == 0
    key = sorted(values)[0]
    values[key] = math.nextafter(values[key], 2.0)
    assert mc.oracle_mismatches(task, p, values, 5) == 1


def test_tracer_credits_pool_threads_to_the_dispatch():
    from concurrent.futures import ThreadPoolExecutor

    from tracer import Tracer, layer_metrics

    tracer = Tracer()

    def dispatch(pool):
        trial = lambda _: tracer.call("trial", time.sleep, (0.02,), {})  # noqa: E731
        list(pool.map(trial, range(4)))

    def bench(pool):
        tracer.call("execute_trials", dispatch, (pool,), {}, fan_out=lambda a, k: 2)
        time.sleep(0.05)  # benchmark work that no layer owns

    with ThreadPoolExecutor(2) as pool:
        tracer.root(bench, pool)
    stats = tracer.snapshot()
    d = stats["durations"]
    wall, busy = d["execute_trials"][0], sum(d["trial"])
    # Pool-thread trials are the dispatch's children, not extra roots.
    assert stats["capacity_ns"] == d["bench"][0] + wall
    assert stats["self_ns"]["execute_trials"] == 2 * wall - busy
    share = layer_metrics(stats, stats["capacity_ns"], {})["trace.unattributed_share"]
    assert share == pytest.approx(stats["self_ns"]["bench"] / stats["capacity_ns"])
    assert share > 0.1


def _answered(key, source, result, duplicate=False, done=1.0):
    req = svc.Request(due=0.0, endpoint="estimate", body={}, key=key,
                      duplicate=duplicate, status=200, done=done)
    req.envelope = {"source": source, "result": result}
    return req


def test_warm_oracle_catches_wrong_result():
    expected = {0: {"x": 1}, 1: {"x": 2}}
    good = [_answered(0, "memory", {"x": 1}), _answered(1, "memory", {"x": 2})]
    assert svc.warm_failures(good, expected) == 0
    wrong = [_answered(0, "memory", {"x": 2}), _answered(1, "computed", {"x": 2})]
    assert svc.warm_failures(wrong, expected) == 2


def test_cold_oracle_catches_stale_and_wrong_results():
    pair = [_answered(0, "computed", 1, duplicate=True, done=1.0),
            _answered(0, "memory", 1, duplicate=True, done=2.0)]
    assert svc.cold_failures(pair) == 0
    assert svc.cold_failures([_answered(1, "memory", 1)]) == 1

    require_source()
    endpoint, body = svc.cold_body("area", 11, smoke=True)
    req = _answered(0, "computed", svc.recompute(endpoint, body))
    req.endpoint, req.body = endpoint, body
    assert svc.replay_mismatches([req], 1, 1) == 0
    req.envelope["result"]["estimate"]["mean"] += 1e-12
    assert svc.replay_mismatches([req], 1, 1) == 1
