"""Run ``fullview serve`` with the benchmark's layer wrappers installed.

Usage::

    python perfbench/traced_serve.py OUT.json serve --port 0 [...]

The arguments after ``OUT.json`` go to the program's CLI unchanged.  The
server starts untraced.  An ``install`` line on standard input wraps the
layer callables (with per-span thread CPU time) and turns on the
program's own span recording and counters, so queue wait can be read
from the existing ``service.<endpoint>`` span; a ``restore`` line undoes
all of it.  Each is acknowledged with ``install-done`` / ``restore-done``
on standard output, so a load generator can interleave traced and
untraced windows on one server.  What the traced windows recorded
accumulates, and after the server drains it is written to ``OUT.json``.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import require_source  # noqa: E402


def main() -> int:
    require_source()
    from repro import cli
    from repro.obs.metrics import MetricsRegistry, set_metrics
    from repro.obs.trace import TraceRecorder, set_recorder

    from tracer import Tracer

    out = Path(sys.argv[1])
    tracer = Tracer(cpu=True)
    recorder = TraceRecorder()
    metrics = MetricsRegistry()

    def install() -> None:
        tracer.install()
        set_recorder(recorder)
        set_metrics(metrics)

    def restore() -> None:
        tracer.restore()
        set_recorder(None)
        set_metrics(None)

    commands = {"install": install, "restore": restore}

    def listen() -> None:
        for line in sys.stdin:
            word = line.strip()
            if word in commands:
                commands[word]()
                print(f"{word}-done", flush=True)

    threading.Thread(target=listen, daemon=True).start()
    code = cli.main(sys.argv[2:])

    stats = tracer.snapshot()
    span_starts = {
        record.attrs.get("key"): record.start_ns
        for record in recorder.records
        if record.name.startswith("service.")
    }
    waits = [
        start - span_starts[key]
        for key, start in stats["lists"].get("job_starts", [])
        if key in span_starts
    ]
    payload = {"stats": stats, "queue_wait_ns": waits,
               "engine": metrics.snapshot()}
    partial = out.with_suffix(".partial")
    partial.write_text(json.dumps(payload))
    os.replace(partial, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
