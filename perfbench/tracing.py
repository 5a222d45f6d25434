"""Spans around the calls ``lmprint.cli`` makes into each layer.

The program has no tracing of its own. For a traced pass the benchmark
swaps each layer function that ``lmprint.cli`` imported for a wrapper that
records a span (name, layer, seconds) and keeps the call's result, then
puts the originals back. The wrappers do not nest, so a layer's self time
is the sum of its spans, and the CLI's self time is the pass minus all of
them.

After a traced pass, probes time the layers the CLI reaches only
indirectly: stroke ordering and the per-segment physics chain.
"""

from __future__ import annotations

import statistics
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

# name imported into lmprint.cli -> layer
LAYER_OF = {
    "parse_drawing": "drawing",
    "plan": "planner",
    "estimate": "planner",
    "simulate": "simulator",
    "rasterize": "simulator",
    "write_pgm": "raster",
    "make_report": "report",
    "write_report": "report",
    "extract_nets": "circuit",
    "check_connectivity": "circuit",
    "estimate_resistance": "circuit",
    "drc": "circuit",
}
LAYERS = ("cli", "drawing", "planner", "simulator", "raster", "report",
          "circuit")


@dataclass(frozen=True)
class Span:
    name: str
    layer: str
    seconds: float
    kwargs: dict
    result: object


class Tracer:
    """Records the spans of traced passes and turns each into figures."""

    def __init__(self, cli_module):
        self.cli = cli_module
        self._spans: list[Span] = []

    def _wrap(self, name: str, fn):
        layer = LAYER_OF[name]

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            seconds = time.perf_counter() - t0
            self._spans.append(Span(name, layer, seconds, kwargs, result))
            return result
        return traced

    @contextmanager
    def patched(self):
        """Wrap the layer functions in lmprint.cli for one traced pass."""
        self._spans = []
        saved = {name: getattr(self.cli, name) for name in LAYER_OF}
        for name, fn in saved.items():
            setattr(self.cli, name, self._wrap(name, fn))
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(self.cli, name, fn)

    def finish_pass(self, root_s: float) -> dict:
        """The figures of the pass just traced, which took ``root_s``."""
        spans, self._spans = self._spans, []
        m = {f"{layer}.self": 0.0 for layer in LAYERS}
        for s in spans:
            m[f"{s.layer}.self"] += s.seconds
            m[s.name] = m.get(s.name, 0.0) + s.seconds
        m["cli.self"] = root_s - sum(s.seconds for s in spans)
        m["root"] = root_s
        m["spans"] = len(spans) + 1          # the cli.main call is the root
        m["circuit.resistance_queries"] = sum(
            1 for s in spans if s.name == "estimate_resistance")
        drawing = env = toolpath = None
        for s in spans:
            result = s.result
            if s.name == "parse_drawing":
                drawing = result
                m["drawing.strokes"] = len(result.strokes)
                m["drawing.points"] = sum(len(st) for st in result.strokes)
            elif s.name == "plan":
                toolpath = result
                env = s.kwargs.get("environment")
                m["planner.actions"] = len(result.actions)
            elif s.name == "simulate":
                m["simulator.traces"] = len(result.traces)
            elif s.name == "rasterize":
                m["raster.pixels"] = result.width * result.height
                m["raster.occupied_pixels"] = int(
                    (result.cells != 0).sum())
            elif s.name == "write_report":
                m["report.bytes"] = m.get("report.bytes", 0) + len(result)
            elif s.name == "extract_nets":
                m["circuit.nets"] = len(result.nets)
            elif s.name == "drc":
                m["circuit.drc_violations"] = len(result.violations)
        if drawing is not None and toolpath is not None:
            _probe(m, drawing, toolpath, env)
        return m


def _probe(m: dict, drawing, toolpath, env) -> None:
    from lmprint import Move, order_strokes, segment_physics
    t0 = time.perf_counter()
    order_strokes(drawing)
    m["planner.order_strokes_s"] = time.perf_counter() - t0
    keys = sorted({(a.speed_mm_s, a.pressure_g) for a in toolpath.actions
                   if isinstance(a, Move)})
    m["environment.physics_keys"] = len(keys)
    calls = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for speed, pressure in keys:
            t0 = time.perf_counter()
            segment_physics(speed, pressure, env)
            calls.append(time.perf_counter() - t0)
    m["environment.physics_calls_s"] = calls


def layer_metrics(passes: list[dict]) -> dict[str, float]:
    """Per-layer metrics of traced passes, as means per pass unless per
    call. ``passes`` holds what ``finish_pass`` returned for each."""
    n = len(passes)

    def mean(key):
        return sum(p.get(key, 0) for p in passes) / n if n else 0.0

    physics_calls = [s for p in passes
                     for s in p.get("environment.physics_calls_s", [])]
    root = mean("root")
    queries = mean("circuit.resistance_queries")
    out = {
        "drawing.parse_s": mean("parse_drawing"),
        "drawing.strokes": mean("drawing.strokes"),
        "drawing.points": mean("drawing.points"),
        "planner.plan_s": mean("plan"),
        "planner.order_strokes_s": mean("planner.order_strokes_s"),
        "planner.estimate_s": mean("estimate"),
        "planner.actions": mean("planner.actions"),
        "environment.segment_physics_s": (
            statistics.median(physics_calls) if physics_calls else 0.0),
        "environment.physics_keys": mean("environment.physics_keys"),
        "simulator.simulate_s": mean("simulate"),
        "simulator.traces": mean("simulator.traces"),
        "simulator.rasterize_s": mean("rasterize"),
        "raster.pixels": mean("raster.pixels"),
        "raster.occupied_pixels": mean("raster.occupied_pixels"),
        "raster.write_pgm_s": mean("write_pgm"),
        "report.write_s": mean("write_report"),
        "report.bytes": mean("report.bytes"),
        "circuit.extract_nets_s": mean("extract_nets"),
        "circuit.nets": mean("circuit.nets"),
        "circuit.connectivity_s": mean("check_connectivity"),
        "circuit.resistance_s": (mean("estimate_resistance") / queries
                                 if queries else 0.0),
        "circuit.resistance_queries": queries,
        "circuit.drc_s": mean("drc"),
        "circuit.drc_violations": mean("circuit.drc_violations"),
        "trace.spans": mean("spans"),
    }
    for layer in LAYERS:
        out[f"{layer}.share"] = mean(f"{layer}.self") / root if root else 0.0
    return out
