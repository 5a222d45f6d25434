"""lmprint benchmark: end-to-end and per-layer timings of CLI passes.

One run measures one workload for ``--seconds`` in a closed loop: a single
client runs one pass at a time (one ``lmprint`` CLI call, either in the
long-lived worker.py process or as a fresh interpreter), checks what it
wrote, then starts the next.

    python3 perfbench/run.py --workload check-board --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs traced
and untraced passes side by side and prints the per-layer metrics and the
tracing overhead. ``--workload all`` runs every workload both ways, each
in its own process, and prints every metric with its unit. The last line
of a single run is one JSON object: correct, attempted, failed, metrics.

End-to-end times are calibrated seconds. On a shared host the speed of
the machine drifts by +-20% over minutes, which moves the median wall time
of a 25-second run by as much. So each pass's wall time is scaled by how
fast a fixed reference ran just before and just after it, measured where
the program cannot change its cost. A CLI child, and each fresh import
timed for ``setup_s``, is scaled by the wall time of a reference child, a
fresh interpreter that imports numpy and scipy.optimize and nothing of
lmprint, against REFERENCE_CHILD_S. A worker pass is scaled by a
pure-Python loop that the worker runs with the collector off, against
worker.REFERENCE_LOOP_S. The raw wall-time median is printed beside the
calibrated one, and the traced run reports it as ``pipeline_wall_s.p50``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

END_TO_END_UNITS = {
    "pipeline_s.p50": "s",
    "pipeline_s.tail": "s",
    "segments_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_RUNS = 5          # fresh `import lmprint` interpreters per run
TAIL_BEYOND = 10        # samples the tail percentile must leave above it
CHILD_TIMEOUT_S = 120
# Starting an interpreter and importing lmprint's dependencies is most of
# a CLI call, and the reference child does just that. On a shared 2-vCPU
# VM a reference that imported numpy alone drifted by 20% against it
# within an hour.
REFERENCE_CHILD = ["-c", "import numpy, scipy.optimize"]
REFERENCE_CHILD_S = 1.0     # the unit of calibrated child seconds
# A CLI child runs lmprint.cli through the function `python -m` calls
# and, as it exits, prints its own peak resident memory (worker.PEAK_RSS)
# on stderr.
CLI_CHILD = """\
import atexit, runpy, sys
def peak():
    with open("/proc/self/status", encoding="ascii") as fh:
        sys.stderr.write(next(ln for ln in fh if ln.startswith("VmHWM")))
atexit.register(peak)
runpy._run_module_as_main("lmprint.cli")
"""
# Both sides of every comparison use this filter: every UserWarning is
# recorded (never printed), so clamped lookups are counted per call. The
# worker applies it with warnings.catch_warnings.
CHILD_WARNING_FLAG = ["-W", "always::UserWarning"]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def ensure_program() -> None:
    """Put the checkout's src/ first on sys.path, or fail if it is absent."""
    if not (SRC / "lmprint" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no lmprint sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class SpeedScale:
    """Factors that turn wall seconds into calibrated seconds.

    Call ``after()`` right after each timed interval; the factor uses the
    reference children timed just before and just after the interval.
    """

    def __init__(self):
        self.last = time_reference()
        self.factors: list[float] = []

    def after(self) -> float:
        now = time_reference()
        factor = 2.0 * REFERENCE_CHILD_S / (self.last + now)
        self.last = now
        self.factors.append(factor)
        return factor


@dataclass
class Outcome:
    seconds: float
    problems: list[str] = field(default_factory=list)
    clamped: int = 0
    peak_rss_kb: int | None = None  # of the process that ran the pass
    speed: float | None = None      # a worker pass's speed factor
    layers: dict | None = None      # a traced pass's figures


class Worker:
    """The worker.py process that runs this run's ``cli.main`` passes."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")], cwd=ROOT,
            env=_child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)

    def run(self, argv: list[str], trace: bool = False) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv, "trace": trace})
                              + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"perfbench worker exited with code "
                               f"{self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _run_child(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT,
                          env=_child_env(), capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, proc


def time_reference() -> float:
    """Wall time of the reference child: the host's current speed."""
    seconds, proc = _run_child(REFERENCE_CHILD)
    if proc.returncode != 0:
        raise RuntimeError("reference child failed: "
                           + proc.stderr.decode(errors="replace"))
    return seconds


def time_import() -> float:
    """Wall time of a fresh interpreter that imports lmprint."""
    seconds, proc = _run_child(["-c", "import lmprint"])
    if proc.returncode != 0:
        raise RuntimeError("import lmprint failed: "
                           + proc.stderr.decode(errors="replace"))
    return seconds


def import_probe() -> float:
    """Time spent in ``import lmprint.cli``, measured inside a child."""
    code = ("import time; t = time.perf_counter(); import lmprint.cli; "
            "print(repr(time.perf_counter() - t))")
    _, proc = _run_child(["-c", code])
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.decode(errors="replace"))
    return float(proc.stdout.decode())


def _clear(cmd) -> None:
    for path in cmd.outputs:
        path.unlink(missing_ok=True)


def _judge(cmd, outcome: Outcome, rc, stderr: str) -> Outcome:
    if rc != 0:
        outcome.problems.append(f"{cmd.name}: exit code {rc}: "
                                f"{stderr.strip()[-worker.STDERR_TAIL:]}")
    else:
        outcome.problems += cmd.check()
    return outcome


def child_pass(cmd) -> Outcome:
    """One fresh CLI child, run as ``python -m lmprint.cli`` would be."""
    _clear(cmd)
    try:
        seconds, proc = _run_child([*CHILD_WARNING_FLAG, "-c", CLI_CHILD,
                                    *cmd.argv])
    except subprocess.TimeoutExpired:
        return Outcome(CHILD_TIMEOUT_S, [f"{cmd.name}: timed out"])
    stderr = proc.stderr.decode(errors="replace")
    peak = worker.PEAK_RSS.search(stderr)
    outcome = Outcome(seconds,
                      clamped=stderr.count(worker.CLAMP_MESSAGE),
                      peak_rss_kb=int(peak.group(1)) if peak else None)
    return _judge(cmd, outcome, proc.returncode, stderr)


def worker_pass(passes: Worker, cmd, trace: bool = False) -> Outcome:
    """One ``lmprint.cli.main`` call in the worker process."""
    _clear(cmd)
    reply = passes.run(cmd.argv, trace)
    outcome = Outcome(reply["seconds"], clamped=reply["clamped"],
                      peak_rss_kb=reply["peak_rss_kb"], speed=reply["speed"],
                      layers=reply.get("layers"))
    if reply["error"] is not None:
        outcome.problems.append(f"{cmd.name}: raised {reply['error']}")
        return outcome
    return _judge(cmd, outcome, reply["rc"], reply["stderr"])


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile). With too few samples it is the maximum.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


class Run:
    """One measured run of one workload."""

    def __init__(self, name: str, seed: int, seconds: float,
                 small: bool = False):
        ensure_program()
        import workloads
        self.work = WORK / f"{name}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.name, self.seed, self.seconds = name, seed, seconds
        self.workload = workloads.WORKLOADS[name](seed, ROOT, self.work,
                                                 small)
        self.outcomes: list[tuple[str, Outcome]] = []
        self.warm_problems: list[str] = []
        # command name -> strokes, segments, canvas pixels of its input
        self.sizes: dict[str, dict] = {}
        self.worker: Worker | None = None

    def close(self) -> None:
        if self.worker is not None:
            self.worker.close()
            self.worker = None
        shutil.rmtree(self.work, ignore_errors=True)

    def _pass(self, cmd, child=None, trace=False) -> Outcome:
        import workloads
        if child is None:
            child = self.workload.in_children
        if child:
            outcome = child_pass(cmd)
        else:
            if self.worker is None:
                self.worker = Worker()
            outcome = worker_pass(self.worker, cmd, trace)
        self.outcomes.append((cmd.name, outcome))
        for problem in outcome.problems:
            print(f"FAILED {problem}", file=sys.stderr)
        if not outcome.problems and cmd.name not in self.sizes:
            self.sizes[cmd.name] = workloads.output_sizes(cmd)
        return outcome

    def set_up(self) -> list[float]:
        """Set-up: time fresh imports and warm up once.

        Returns the calibrated import times.
        """
        time_import()   # the first may compile bytecode; not counted
        scale = SpeedScale()
        setup = [time_import() * scale.after() for _ in range(SETUP_RUNS)]
        warm = self._pass(self.workload.commands[0])
        self.warm_problems = warm.problems
        self.outcomes.clear()
        return setup

    def _loop(self, body) -> None:
        deadline = time.perf_counter() + self.seconds
        i = 0
        while True:
            body(self.workload.commands[i % len(self.workload.commands)])
            i += 1
            if time.perf_counter() >= deadline:
                break

    def measure(self) -> dict:
        """Untraced passes for --seconds: the end-to-end metrics."""
        setup = self.set_up()
        per_cmd: dict[str, list[float]] = {}
        times, factors = [], []
        scale = SpeedScale() if self.workload.in_children else None

        def body(cmd):
            outcome = self._pass(cmd)
            factor = scale.after() if scale is not None else outcome.speed
            factors.append(factor)
            seconds = outcome.seconds * factor
            per_cmd.setdefault(cmd.name, []).append(seconds)
            times.append(seconds)
        self._loop(body)
        tail_value, self.tail_pct = tail(times)
        self.wall_p50 = statistics.median(o.seconds for _, o in self.outcomes)
        self.speed = statistics.median(factors)
        segments = sum(self.sizes[n]["segments"] for n in per_cmd
                       if n in self.sizes)
        busy = sum(statistics.median(t) for t in per_cmd.values())
        peaks = [o.peak_rss_kb for _, o in self.outcomes if o.peak_rss_kb]
        if not peaks:
            raise RuntimeError("no pass reported its peak resident memory")
        return {
            "pipeline_s.p50": statistics.median(times),
            "pipeline_s.tail": tail_value,
            "segments_per_s": segments / busy,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(peaks) / 1024.0,
        }

    def measure_traced(self) -> dict:
        """Traced and untraced passes side by side: per-layer metrics."""
        from tracing import layer_metrics
        self.set_up()
        process, imports, plain, traced, layers = [], [], [], [], []

        def body(cmd):
            # a CLI child next to a fresh import, so that the import's
            # share of a call does not move with the machine's speed
            process.append(self._pass(cmd, child=True).seconds)
            imports.append(import_probe())
            plain.append(self._pass(cmd, child=False).seconds)
            outcome = self._pass(cmd, child=False, trace=True)
            traced.append(outcome.seconds)
            layers.append(outcome.layers)
        self._loop(body)
        metrics = layer_metrics(layers)
        metrics.update({
            "pipeline_wall_s.p50": statistics.median(
                process if self.workload.in_children else plain),
            "cli.process_s": statistics.fmean(process),
            "cli.import_s": statistics.median(imports),
            "cli.main_s": statistics.fmean(plain),
            "cli.import_share": statistics.median(
                i / p for i, p in zip(imports, process)),
            # children count warnings on stderr, worker passes with
            # catch_warnings; both under the same "always" filter
            "environment.clamped_lookups": statistics.fmean(
                o.clamped for _, o in self.outcomes),
            # adjacent plain and traced passes share the machine's speed
            "trace.overhead_s": statistics.median(
                t - p for p, t in zip(plain, traced)),
        })
        return metrics

    def counts(self) -> tuple[int, int]:
        """Passes attempted and failed, the warm-up pass included."""
        failed = sum(1 for _, o in self.outcomes if o.problems)
        return len(self.outcomes) + 1, failed + bool(self.warm_problems)

    def result(self, metrics: dict, units: dict) -> dict:
        attempted, failed = self.counts()
        return {"correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]}
                            for k, v in metrics.items()}}


def layer_units() -> dict:
    """Units of the per-layer metrics, as BENCHMARK.json lists them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def stamp(run: Run, trace: bool) -> dict:
    import numpy
    import scipy
    revision = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            if proc.returncode == 0:
                revision = proc.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    out = {"workload": run.name, "seed": run.seed, "seconds": run.seconds,
           "trace": int(trace), "git_revision": revision,
           "python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": os.cpu_count(),
           "inputs": run.sizes}
    attempted, failed = run.counts()
    out["failed_ratio"] = failed / attempted
    if not trace:
        out.update(tail_percentile=run.tail_pct, passes=len(run.outcomes),
                   wall_p50_s=run.wall_p50, speed_factor=run.speed)
    return out


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    run = Run(name, seed, seconds)
    try:
        if trace:
            metrics = run.measure_traced()
            units = layer_units()
            missing = set(units) - set(metrics)
            if missing:
                raise SystemExit(f"perfbench: unmeasured metrics {missing}")
            metrics = {k: metrics[k] for k in units}
        else:
            metrics, units = run.measure(), END_TO_END_UNITS
        result = run.result(metrics, units)
        info = stamp(run, trace)
    finally:
        run.close()
    for key, entry in result["metrics"].items():
        print(f"{key} = {entry['value']:.6g} {entry['unit']}")
    print(f"failed_ratio = {info['failed_ratio']:.6g} (of "
          f"{result['attempted']} passes)")
    if not trace:
        print(f"pipeline_s.tail is p{info['tail_percentile']:.1f} of "
              f"{info['passes']} passes; wall-time p50 = "
              f"{info['wall_p50_s']:.6g} s at speed factor "
              f"{info['speed_factor']:.4g}")
    print("stamp " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    import workloads
    collected = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S + 6 * seconds + 120)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode or 1
            result = json.loads(lines[-1])
            info = json.loads(next(line for line in lines
                                   if line.startswith("stamp "))[6:])
            collected.append({"stamp": info, "result": result})
    for item in collected:
        info, result = item["stamp"], item["result"]
        kind = "per-layer" if info["trace"] else "end-to-end"
        print(f"\n== {info['workload']} ({kind}, seed {seed}, "
              f"{seconds:g} s) correct={result['correct']} "
              f"failed_ratio={info['failed_ratio']:.3g} "
              f"({result['failed']} of {result['attempted']} passes)")
        if not info["trace"]:
            print(f"   pipeline_s.tail is p{info['tail_percentile']:.1f} "
                  f"of {info['passes']} passes; wall-time p50 "
                  f"{info['wall_p50_s']:.4g} s, speed factor "
                  f"{info['speed_factor']:.4g}")
        metrics = {k: e["value"] for k, e in result["metrics"].items()}
        for key, entry in result["metrics"].items():
            print(f"   {key:32s} {entry['value']:12.6g} {entry['unit']}")
        if info["trace"]:
            output = (metrics["simulator.rasterize_s"]
                      + metrics["report.write_s"]
                      + metrics["raster.write_pgm_s"]) / metrics["cli.main_s"]
            print(f"   stress: circuit.share {metrics['circuit.share']:.3f}, "
                  f"cli.import_share {metrics['cli.import_share']:.3f}, "
                  f"rasterize + write_report + write_pgm {output:.3f} "
                  f"of cli.main_s")
    first = collected[0]["stamp"]
    print("\nrevision {git_revision}  python {python}  numpy {numpy}  "
          "scipy {scipy}  nproc {nproc}".format(**first))
    failed = sum(item["result"]["failed"] for item in collected)
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="cli-samples, check-board, render-coils or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    ensure_program()
    import workloads
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
