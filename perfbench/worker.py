"""Runs the benchmark's ``lmprint.cli.main`` passes in a process of their own.

    PYTHONPATH=src python3 perfbench/worker.py

Reads one request per line on stdin, a JSON object ``{"argv": [...],
"trace": false}``, calls ``lmprint.cli.main(argv)`` once for it and
answers with one JSON line on stdout: the pass's wall seconds, its speed
factor, its exit code, the error it raised, the tail of what it wrote to
stderr, the number of clamped-lookup warnings, this process's peak
resident memory so far and, when traced, the pass's per-layer figures. It
exits when stdin closes.

The process runs passes and nothing else: the benchmark's set-up and
output checks stay in the parent, so this process's peak resident memory
is that of the passes.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import re
import sys
import time
import traceback
import warnings

import tracing

CLAMP_MESSAGE = "outside table span"
STDERR_TAIL = 300
LOOP_SIZE = 10_000
REFERENCE_LOOP_S = 0.02     # the unit of calibrated worker-pass seconds
# VmHWM counts only this process image. ru_maxrss would not do: a child
# started by vfork inherits the peak of the process that started it.
PEAK_RSS = re.compile(r"VmHWM:\s*(\d+) kB")


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        return int(PEAK_RSS.search(fh.read()).group(1))


def time_loop() -> float:
    """Seconds for fixed pure-Python work: the core's current speed.

    Integer, float, allocation and dict work, like the program's own mix.
    The collector is off meanwhile, so the time does not depend on how
    many objects the program left in this process.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = 0
        for i in range(3 * LOOP_SIZE):
            total += i * i % 7
        points = [(i * 0.37 % 11.0, i * 0.61 % 7.0)
                  for i in range(LOOP_SIZE)]
        length = 0.0
        for p, q in zip(points, points[1:]):
            dx, dy = q[0] - p[0], q[1] - p[1]
            length += math.sqrt(dx * dx + dy * dy) + min(1.0, max(0.0, dx))
        groups: dict[tuple[int, int], list[int]] = {}
        for i in range(LOOP_SIZE):
            groups.setdefault((i % 97, i % 89), []).append(i)
        json.dumps(sorted(groups.items())[:200])
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def run_main(cli, argv: list[str], tracer=None) -> dict:
    """One ``cli.main(argv)`` call, traced when ``tracer`` is given.

    Every UserWarning is recorded, never printed, under the same "always"
    filter that CLI children get from ``-W always::UserWarning``. The pass
    is timed between two runs of ``time_loop``; its speed factor turns
    its wall seconds into seconds on a core that runs the loop in
    REFERENCE_LOOP_S.
    """
    gc.collect()
    stderr = io.StringIO()
    error = None
    traced = (tracer.patched() if tracer is not None
              else contextlib.nullcontext())
    loop_before = time_loop()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(stderr), traced:
        warnings.simplefilter("always", UserWarning)
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:       # argparse rejected argv
            rc = exc.code
        except Exception:  # a pass that raises is counted, not fatal
            rc, error = None, traceback.format_exc(limit=3)
        seconds = time.perf_counter() - t0
    speed = 2.0 * REFERENCE_LOOP_S / (loop_before + time_loop())
    reply = {"seconds": seconds, "speed": speed, "rc": rc, "error": error,
             "stderr": stderr.getvalue()[-STDERR_TAIL:],
             "clamped": sum(1 for w in caught
                            if CLAMP_MESSAGE in str(w.message)),
             "peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        reply["layers"] = tracer.finish_pass(seconds)
    return reply


def main() -> None:
    replies = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    # whatever the program prints goes to stderr, never into the replies
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    import lmprint.cli
    tracer = tracing.Tracer(lmprint.cli)
    for line in sys.stdin:
        request = json.loads(line)
        reply = run_main(lmprint.cli, request["argv"],
                         tracer if request["trace"] else None)
        replies.write(json.dumps(reply) + "\n")
        replies.flush()


if __name__ == "__main__":
    main()
