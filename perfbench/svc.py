"""Service workloads ``svc-warm`` and ``svc-cold`` against ``fullview serve``.

The server runs as its own process with the CLI defaults (memory-only
cache, 2 compute threads, queue limit 8) on an ephemeral port.  The
load generator is an open loop in this process: requests are due at a
fixed rate whatever the server does, sent over 2 keep-alive connections
(pipelined when a connection is still busy), and timed from their due
time.  The workload seed derives every request body.

- ``svc-warm`` warms the cache untimed with each key once, then sends a
  mix of small estimate/evaluate bodies and large ``/v1/deploy`` bodies
  (n = 1000 and 2000).  Every answer must be a memory hit whose result
  equals the warm-up result.
- ``svc-cold`` sends fresh keys only: point estimates (n = 200, 100
  trials), grid evaluations (n = 1000, resolution 32) and small area
  fraction estimates; one key in five goes out as a simultaneous
  duplicate pair, one request on each connection.  Every answer must be
  ``computed`` or ``coalesced`` (a duplicate whose twin already finished
  may be a ``memory`` hit), and a seeded sample of keys is recomputed in
  this process through ``repro.api`` and must match exactly.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import random
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

from common import (
    BENCH_DIR,
    WORK_DIR,
    cpu_seconds,
    machine_stamp,
    peak_rss_mb,
    program_env,
    quantile,
    ratio,
    require_source,
)

#: Load shape per workload: request rate (keys per second for cold),
#: latency limit for goodput, and how long stragglers may take.
PARAMS: Dict[str, Dict[str, Any]] = {
    "svc-warm": dict(rate=200.0, limit_s=0.050, drain_s=10.0, launches=5),
    "svc-cold": dict(rate=6.5, limit_s=1.0, drain_s=30.0, launches=5,
                     duplicate_every=5, replays=4),
}

SMOKE: Dict[str, Dict[str, Any]] = {
    "svc-warm": dict(rate=40.0, launches=1),
    "svc-cold": dict(rate=4.0, launches=1, replays=2),
}

#: Warm key set: (endpoint, count) — small bodies first, then deploys.
WARM_KEYS = (("estimate", 12), ("evaluate", 8), ("deploy-1000", 3), ("deploy-2000", 3))

#: The warm request mix, repeated: half small estimates, 40% small
#: evaluations and one large deploy every 10 requests, alternating sizes.
WARM_BLOCK = (("estimate", "evaluate") * 4 + ("estimate", "deploy-1000")
              + ("estimate", "evaluate") * 4 + ("estimate", "deploy-2000"))

#: The cold key mix, repeated: 40% point estimates, 30% evaluations,
#: 30% area-fraction estimates.
COLD_BLOCK = ("point", "evaluate", "area") * 3 + ("point",)

#: Cold key indices per window (far more than a window sends).
KEYS_PER_WINDOW = 10**5

#: Window order of a traced service run: untraced (False) and traced
#: (True) halves in ABBA order on one server, so drift and warm-up
#: weigh on both alike.
TRACE_WINDOWS = (False, True, True, False)


@dataclass
class Request:
    """One scheduled request; ``key`` identifies its body."""

    due: float
    endpoint: str
    body: Dict[str, Any]
    key: int
    duplicate: bool = False
    due_at: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    size: int = 0
    raw: bytes = b""
    envelope: Dict[str, Any] = field(default_factory=dict)


def params(workload: str, smoke: bool) -> Dict[str, Any]:
    return dict(PARAMS[workload], **(SMOKE[workload] if smoke else {}))


# -- request bodies ----------------------------------------------------------


def warm_bodies(seed: int, smoke: bool) -> List[Tuple[str, str, Dict[str, Any]]]:
    """(group, endpoint, body) for every warm key."""
    rng = random.Random(seed)
    bodies = []
    for group, count in WARM_KEYS:
        for _ in range(1 if smoke else count):
            s = rng.randrange(1, 10**9)
            if group == "estimate":
                body = dict(kind="point", radius=0.25, angle_of_view=1.2,
                            n=rng.randrange(50, 80), theta=1.0, trials=30, seed=s)
                bodies.append((group, "estimate", body))
            elif group == "evaluate":
                body = dict(radius=0.2, angle_of_view=math.pi / 2,
                            n=rng.randrange(80, 120), theta=math.pi / 3,
                            resolution=8, seed=s)
                bodies.append((group, "evaluate", body))
            else:
                n = int(group.split("-")[1]) // (10 if smoke else 1)
                body = dict(radius=0.1, angle_of_view=math.pi / 2, n=n, seed=s)
                bodies.append((group, "deploy", body))
    return bodies


def cold_body(kind: str, key_seed: int, smoke: bool) -> Tuple[str, Dict[str, Any]]:
    """A fresh cold-workload body; ``key_seed`` makes the key unique."""
    scale = 10 if smoke else 1
    if kind == "point":
        return "estimate", dict(kind="point", radius=0.25, angle_of_view=1.2,
                                n=200 // scale, theta=1.0, trials=100 // scale,
                                seed=key_seed)
    if kind == "evaluate":
        return "evaluate", dict(radius=0.1, angle_of_view=math.pi / 2,
                                n=1000 // scale, theta=math.pi / 3,
                                resolution=32 // scale, seed=key_seed)
    return "estimate", dict(kind="area_fraction", radius=0.2,
                            angle_of_view=math.pi / 2, n=200 // scale,
                            theta=math.pi / 3, trials=20 // scale,
                            sample_points=64, seed=key_seed)


def warm_schedule(seed: int, rate: float, seconds: float,
                  bodies: List[Tuple[str, str, Dict[str, Any]]],
                  window: int = 0) -> List[Request]:
    rng = random.Random((seed * 7 + 1) * 8 + window)
    groups = {g: [i for i, b in enumerate(bodies) if b[0] == g] for g, _ in WARM_KEYS}
    schedule = []
    for i in range(max(1, int(rate * seconds))):
        key = rng.choice(groups[WARM_BLOCK[i % len(WARM_BLOCK)]])
        schedule.append(Request(due=i / rate, endpoint=bodies[key][1],
                                body=bodies[key][2], key=key))
    return schedule


def cold_schedule(seed: int, rate: float, seconds: float, duplicate_every: int,
                  smoke: bool, window: int = 0) -> List[Request]:
    """Fresh keys; each ``window`` of one run draws from its own key range."""
    schedule = []
    for index in range(max(1, int(rate * seconds))):
        key = window * KEYS_PER_WINDOW + index
        kind = COLD_BLOCK[index % len(COLD_BLOCK)]
        endpoint, body = cold_body(kind, seed * 10**6 + key, smoke)
        copies = 2 if index % duplicate_every == duplicate_every - 1 else 1
        for _ in range(copies):
            schedule.append(Request(due=index / rate, endpoint=endpoint, body=body,
                                    key=key, duplicate=copies == 2))
    return schedule


# -- the server process -------------------------------------------------------


class Server:
    """A ``fullview serve --port 0`` child process (optionally traced)."""

    def __init__(self, traced: bool = False) -> None:
        self.dump: Optional[Path] = None
        if traced:
            WORK_DIR.mkdir(exist_ok=True)
            self.dump = WORK_DIR / f"serve-{time.time_ns()}.json"
            cmd = [sys.executable, str(BENCH_DIR / "traced_serve.py"), str(self.dump)]
        else:
            cmd = [sys.executable, "-m", "repro"]
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd + ["serve", "--port", "0"], env=program_env(),
            stdin=subprocess.PIPE if traced else subprocess.DEVNULL,
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = self.readline(60.0)
            address = line.split("http://", 1)[1].split()[0]
            self.host, port = address.rsplit(":", 1)
            self.port = int(port)
            while not self.healthy():
                if time.perf_counter() - started > 60.0:
                    raise RuntimeError("server never answered /v1/healthz")
                time.sleep(0.005)
            self.setup_s = time.perf_counter() - started
        except BaseException:
            self.kill()
            raise

    def healthy(self) -> bool:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=5)
        try:
            conn.request("GET", "/v1/healthz")
            return conn.getresponse().status == 200
        except OSError:
            return False
        finally:
            conn.close()

    def readline(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise RuntimeError("server printed nothing in time")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server exited early")
        return line

    def command(self, word: str) -> None:
        """Send a ``traced_serve`` command and wait for its acknowledgement."""
        self.proc.stdin.write(f"{word}\n")
        self.proc.stdin.flush()
        while f"{word}-done" not in self.readline(30.0):
            pass

    def request(self, endpoint: str, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            conn.request("POST", f"/v1/{endpoint}", body=json.dumps(body),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def stop(self) -> Optional[Dict[str, Any]]:
        """SIGTERM, wait for the drain; returns the traced dump if any."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        if self.dump is None or not self.dump.exists():
            return None
        try:
            return json.loads(self.dump.read_text())
        finally:
            self.dump.unlink()
            try:
                WORK_DIR.rmdir()
            except OSError:
                pass  # another run still uses it

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


# -- the open-loop generator ---------------------------------------------------


def _encode(req: Request, host: str) -> bytes:
    body = json.dumps(req.body).encode()
    head = (f"POST /v1/{req.endpoint} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n")
    return head.encode() + body


async def _read_responses(reader: asyncio.StreamReader, pending: List[Request]) -> None:
    while True:
        status_line = await reader.readline()
        if not status_line:
            return
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        raw = await reader.readexactly(length)
        req = pending.pop(0)
        req.done = time.perf_counter()
        req.status = int(status_line.split()[1])
        req.size = length
        req.raw = raw


async def _drive(host: str, port: int, schedule: List[Request], drain_s: float) -> None:
    """Send ``schedule`` on its due times and collect the responses."""
    conns = [await asyncio.open_connection(host, port) for _ in range(2)]
    pending: List[List[Request]] = [[], []]
    readers = [asyncio.ensure_future(_read_responses(r, p))
               for (r, _), p in zip(conns, pending)]
    start = time.perf_counter()
    for req in schedule:
        req.due_at = start + req.due
    turn = 0
    try:
        i = 0
        while i < len(schedule):
            req = schedule[i]
            delay = req.due_at - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            group = [req]
            if req.duplicate:
                i += 1
                group.append(schedule[i])
                targets = [0, 1]
            else:
                busy = [len(p) for p in pending]
                targets = [turn if busy[0] == busy[1] else busy.index(min(busy))]
                turn = 1 - turn
            for r, c in zip(group, targets):
                r.sent = time.perf_counter()
                pending[c].append(r)
                conns[c][1].write(_encode(r, host))
            i += 1
        for _, writer in conns:
            await writer.drain()
        deadline = time.perf_counter() + drain_s
        while any(pending) and time.perf_counter() < deadline:
            await asyncio.sleep(0.01)
    finally:
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _, writer in conns:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass


def drive(server: Server, schedule: List[Request], drain_s: float) -> None:
    asyncio.run(_drive(server.host, server.port, schedule, drain_s))
    decoded: Dict[bytes, Dict[str, Any]] = {}
    for req in schedule:
        if req.status:
            if req.raw not in decoded:
                decoded[req.raw] = json.loads(req.raw)
            req.envelope = decoded[req.raw]
            req.raw = b""


# -- correctness oracles -------------------------------------------------------


def warm_failures(schedule: List[Request], expected: Dict[int, Any]) -> int:
    """Requests that failed, timed out, missed the cache or differ from warm-up."""
    return sum(
        1 for r in schedule
        if r.status != 200 or r.envelope.get("source") != "memory"
        or r.envelope.get("result") != expected[r.key]
    )


def cold_failures(schedule: List[Request]) -> int:
    """Requests that failed, timed out or were answered from a stale entry.

    Only the later answer of a duplicate pair may come from memory, and
    only when its twin computed the key in this run.
    """
    computed = {r.key: r.done for r in schedule
                if r.status == 200 and r.envelope.get("source") == "computed"}
    failures = 0
    for r in schedule:
        source = r.envelope.get("source")
        if r.status != 200:
            failures += 1
        elif source == "memory":
            if not (r.duplicate and r.key in computed and computed[r.key] <= r.done):
                failures += 1
        elif source not in ("computed", "coalesced"):
            failures += 1
    return failures


def recompute(endpoint: str, body: Dict[str, Any]) -> Dict[str, Any]:
    """The expected result body of a cold request, computed in-process."""
    from repro import api

    fields = dict(body)
    if endpoint == "evaluate":
        fleet = api.deploy(radius=fields.pop("radius"),
                           angle_of_view=fields.pop("angle_of_view"),
                           n=fields.pop("n"), seed=fields.pop("seed"))
        grid = api.evaluate_grid(fleet=fleet, **fields)
        return {"fraction": grid.fraction, "num_covered": grid.num_covered,
                "num_points": len(grid), "theta": grid.theta,
                "condition": grid.condition}
    value = api.estimate(**fields)
    if fields["kind"] == "area_fraction":
        estimate = {"mean": float(value[0]), "ci_half_width": float(value[1])}
    else:
        low, high = value.wilson()
        estimate = {"successes": value.successes, "trials": value.trials,
                    "proportion": value.proportion, "wilson_95": [low, high]}
    return {"kind": fields["kind"], "trials": fields["trials"], "estimate": estimate}


def replay_mismatches(schedule: List[Request], seed: int, count: int) -> int:
    """Recompute a seeded sample of answered keys; count differing results."""
    answered = {}
    for r in schedule:
        if r.status == 200 and r.key not in answered:
            answered[r.key] = r
    keys = random.Random(seed).sample(sorted(answered), min(count, len(answered)))
    return sum(
        1 for k in keys
        if recompute(answered[k].endpoint, answered[k].body) != answered[k].envelope["result"]
    )


# -- metrics -------------------------------------------------------------------


def end_to_end(schedule: List[Request], limit_s: float) -> Dict[str, float]:
    """Latency from due time; rates over the span from the first due time
    to the last answer."""
    ok = [r for r in schedule if r.status == 200]
    from_due = [r.done - r.due_at for r in ok]
    window = max(r.done for r in ok) - schedule[0].due_at if ok else 1.0
    trials = sum(r.body.get("trials", 0) for r in ok if r.endpoint == "estimate")
    return {
        "trials_per_s": trials / window,
        "p50_ms": quantile(from_due, 0.50) * 1e3,
        "p95_ms": quantile(from_due, 0.95) * 1e3,
        "p99_ms": quantile(from_due, 0.99) * 1e3,
        "goodput_rps": sum(1 for d in from_due if d <= limit_s) / window,
    }


def p50_ms(schedule: List[Request]) -> float:
    """Median latency from due time of the answered requests."""
    return quantile([r.done - r.due_at for r in schedule if r.status == 200], 0.5) * 1e3


def client_layers(schedule: List[Request]) -> Dict[str, float]:
    ok = [r for r in schedule if r.status == 200]
    hits = [r for r in ok if r.envelope.get("source") == "memory"]
    duplicates = [r for r in schedule if r.duplicate]
    return {
        "server.front_ms_p50": quantile(
            [(r.done - r.sent - (r.envelope.get("compute_seconds") or 0.0)) * 1e3
             for r in ok], 0.5),
        "server.hit_ms_p50_small": quantile(
            [(r.done - r.sent) * 1e3 for r in hits if r.endpoint != "deploy"], 0.5),
        "server.hit_ms_p50_deploy": quantile(
            [(r.done - r.sent) * 1e3 for r in hits if r.endpoint == "deploy"], 0.5),
        "server.response_kb": ratio(sum(r.size for r in ok), len(ok)) / 1024,
        # Each pair sends one duplicate beyond the first copy.
        "coalesce.follower_ratio": ratio(
            sum(1 for r in duplicates if r.envelope.get("source") == "coalesced"),
            len(duplicates) / 2),
        "gen.late_ms_p99": quantile([(r.sent - r.due_at) * 1e3 for r in schedule if r.sent],
                                    0.99),
        "gen.sent": float(sum(1 for r in schedule if r.sent)),
    }


# -- one run -------------------------------------------------------------------


class Session:
    """One server plus the load that goes through it."""

    def __init__(self, workload: str, seed: int, smoke: bool, traced: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.p = params(workload, smoke)
        self.server = Server(traced=traced)
        self.expected: Dict[int, Any] = {}
        self.bodies = warm_bodies(seed, smoke)
        self.failed = 0

    def warm_up(self) -> None:
        """Untimed: compute every warm key once; one throwaway cold request
        of each kind."""
        if self.workload == "svc-warm":
            for key, (_, endpoint, body) in enumerate(self.bodies):
                status, envelope = self.server.request(endpoint, body)
                if status != 200:
                    self.failed += 1
                self.expected[key] = envelope.get("result")
        else:
            for kind in ("point", "evaluate", "area"):
                endpoint, body = cold_body(kind, 10**12 + self.seed, self.smoke)
                self.server.request(endpoint, body)

    def measure(self, seconds: float, window: int = 0) -> Tuple[List[Request], float]:
        """Run one open-loop window; returns the schedule and server CPU s."""
        p = self.p
        if self.workload == "svc-warm":
            schedule = warm_schedule(self.seed, p["rate"], seconds, self.bodies, window)
        else:
            schedule = cold_schedule(self.seed, p["rate"], seconds,
                                     p["duplicate_every"], self.smoke, window)
        cpu = cpu_seconds(self.server.proc.pid)
        drive(self.server, schedule, p["drain_s"])
        return schedule, cpu_seconds(self.server.proc.pid) - cpu

    def failures(self, schedule: List[Request]) -> int:
        if self.workload == "svc-warm":
            return warm_failures(schedule, self.expected)
        return cold_failures(schedule)


def _launch_times(workload: str, count: int) -> List[float]:
    times = []
    for _ in range(count):
        server = Server()
        times.append(server.setup_s)
        server.stop()
    return times


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """One benchmark run; returns ``(metrics, attempted, failed, stamp)``."""
    require_source()
    from repro.simulation.engine import MonteCarloConfig

    p = params(workload, smoke)
    config = MonteCarloConfig()
    stamp = machine_stamp(
        executor="serial" if config.resolved_workers() == 1 else config.resolved_executor(),
        workers=config.resolved_workers(), service_workers=2,
        kernel_dense_calls=None, kernel_sparse_calls=None,
    )
    if not trace:
        setups = _launch_times(workload, p["launches"] - 1)
        session = Session(workload, seed, smoke, traced=False)
        setups.append(session.server.setup_s)
        try:
            session.warm_up()
            schedule, _ = session.measure(seconds)
            rss = peak_rss_mb(session.server.proc.pid)
        finally:
            session.server.stop()
        failed = session.failed + session.failures(schedule)
        if workload == "svc-cold":
            failed += replay_mismatches(schedule, seed, p["replays"])
        metrics = end_to_end(schedule, p["limit_s"])
        metrics.update(setup_s=median(setups), peak_rss_mb=rss)
        return metrics, len(schedule), failed, stamp

    from tracer import kernel_crossover, layer_metrics

    session = Session(workload, seed, smoke, traced=True)
    windows: Dict[bool, List[Request]] = {False: [], True: []}
    traced_cpu = 0.0
    installed = False
    try:
        session.warm_up()
        for window, traced in enumerate(TRACE_WINDOWS):
            if traced != installed:
                session.server.command("install" if traced else "restore")
                installed = traced
            schedule, cpu = session.measure(seconds / len(TRACE_WINDOWS), window)
            windows[traced].extend(schedule)
            if traced:
                traced_cpu += cpu
    finally:
        dump = session.server.stop()
    everything = windows[False] + windows[True]
    failed = session.failed + session.failures(everything)
    if workload == "svc-cold":
        failed += replay_mismatches(everything, seed, p["replays"])
    stats = dump["stats"]
    # Server threads mostly wait at half load, so the share is taken of
    # the server's CPU time, against the spans' self CPU time.
    metrics = layer_metrics(stats, traced_cpu * 1e9, dump["engine"], "self_cpu_ns")
    metrics.update(client_layers(windows[True]))
    waits = dump["queue_wait_ns"]
    metrics["server.queue_wait_ms_p50"] = quantile(waits, 0.5) / 1e6
    metrics["server.queue_wait_ms_p95"] = quantile(waits, 0.95) / 1e6
    crossover, disagreements = kernel_crossover(seed)
    metrics.update(crossover)
    failed += disagreements
    metrics["trace.overhead_pct"] = (
        ratio(p50_ms(windows[True]), p50_ms(windows[False])) - 1.0) * 100.0
    attempted = len(everything)
    metrics["failed_share"] = failed / attempted
    stamp["kernel_dense_calls"] = stats["counts"].get("kernel_dense", 0)
    stamp["kernel_sparse_calls"] = stats["counts"].get("kernel_sparse", 0)
    return metrics, attempted, failed, stamp
