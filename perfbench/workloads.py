"""The benchmark's workloads: generated inputs, CLI commands, output checks.

A workload is a list of ``Command``s, each one ``lmprint`` CLI call. A
pass runs one command, either through ``lmprint.cli.main`` in the
benchmark's worker process or as a fresh ``python -m lmprint.cli`` child.
After every pass the command's ``check`` reads the files it wrote and
compares them with what the generator knows. The checks test facts, never
bytes, so a change that rewrites a report without changing its meaning
still passes.
"""

from __future__ import annotations

import json
import math
import random
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import boards
from boards import CircuitFacts

SAMPLE_SCALE_MM_PX = 0.05
PIPELINE_ARGS = ["--speed", f"{boards.SPEED_SETTING:g}",
                 "--pressure", f"{boards.PRESSURE_SETTING:g}"]
CIRCUIT_ARGS = ["--resistivity", repr(boards.RESISTIVITY_OHM_M)]

# What the shipped samples' geometry implies for `check`. All features sit
# at least 2.5 mm apart, far beyond the 0.1 mm clearance.
SAMPLE_FACTS = {
    "straight-line": CircuitFacts(nets=1, connected={("A", "B"): True},
                                  clearance_violations=0,
                                  series_mm={("A", "B"): [60.0]}),
    "square": CircuitFacts(nets=1, connected={}, clearance_violations=0),
    "grid-antenna": CircuitFacts(nets=1, connected={("feed", "tip"): True},
                                 clearance_violations=0),
    # the route joins L1 to B1; the other six stubs stay apart
    "ic-sketch": CircuitFacts(nets=7, connected={("L1", "B1"): True,
                                                 ("L2", "R1"): False,
                                                 ("T1", "T2"): False},
                              clearance_violations=0),
}


@dataclass
class Command:
    """One CLI call and the check of what it wrote."""

    name: str
    argv: list[str]
    outputs: list[Path]
    drawing: Path
    check: Callable[[], list[str]]


@dataclass
class Workload:
    name: str
    commands: list[Command]
    in_children: bool            # passes run as fresh CLI processes


def ohms_per_mm() -> float:
    """rho / A per mm of trace at the boards' dial settings."""
    from lmprint import (Environment, MachineSettings, segment_physics,
                         validate_settings)
    env = Environment()
    verdict = validate_settings(
        MachineSettings(boards.SPEED_SETTING, boards.PRESSURE_SETTING),
        env.limits, env.speed_calibration, env.pressure_calibration)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        phys = segment_physics(verdict.speed_mm_s, verdict.force_g, env)
    return boards.RESISTIVITY_OHM_M * 1e-3 / phys.cross_section_m2


# --- output checks -----------------------------------------------------------


def _read_report(path: Path, problems: list[str]) -> dict | None:
    try:
        return json.loads(path.read_bytes())
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: unreadable report ({exc})")
        return None


def check_volume(report: dict) -> list[str]:
    totals = report.get("totals", {})
    ink = totals.get("ink_volume_mm3")
    planned = totals.get("planner_volume_mm3")
    if ink is None or planned is None or not math.isclose(
            ink, planned, rel_tol=1e-12, abs_tol=0.0):
        return [f"ink_volume_mm3 {ink} != planner_volume_mm3 {planned}"]
    return []


def check_circuit(checks: dict, facts: CircuitFacts,
                  ohm_per_mm: float) -> list[str]:
    """Net count, connectivity truth table, series ohms and DRC count."""
    problems = []
    nets = len(checks.get("nets", []))
    if nets != facts.nets:
        problems.append(f"{nets} nets, expected {facts.nets}")
    seen = {tuple(c["pads"]): c["connected"]
            for c in checks.get("connectivity", [])}
    if seen != facts.connected:
        wrong = sorted(k for k in set(seen) | set(facts.connected)
                       if seen.get(k) != facts.connected.get(k))
        problems.append(f"connectivity differs for {wrong[:3]}")
    ohms = {tuple(e["pads"]): e.get("ohms")
            for e in checks.get("resistance", [])}
    for key, lengths in facts.series_mm.items():
        want = ohm_per_mm * sum(lengths)
        got = ohms.get(key)
        if got is None or not math.isclose(got, want, rel_tol=1e-9):
            problems.append(f"{key}: {got} ohm, expected {want}")
    kinds = [v["kind"] for v in checks.get("drc", {}).get("violations", [])]
    short = kinds.count("clearance-short-risk")
    if short != facts.clearance_violations or len(kinds) != short:
        problems.append(f"DRC {kinds.count('clearance-short-risk')} "
                        f"clearance of {len(kinds)} violations, expected "
                        f"{facts.clearance_violations} clearance only")
    return problems


def check_pgm(path: Path, scale: float,
              bounds: tuple[float, float, float, float]) -> list[str]:
    """The PGM reads back, is non-empty and spans the drawing's bounds.

    The canvas pads the bounds by a half-width (under 0.2 mm here) plus a
    pixel on each side, and rounds outward to whole pixels.
    """
    from lmprint import LmprintError, read_pgm
    try:
        image = read_pgm(path.read_bytes(), scale)
    except (OSError, LmprintError) as exc:
        return [f"{path.name}: {exc}"]
    problems = []
    x0, y0, x1, y1 = bounds
    for axis, got, extent in (("width", image.width, x1 - x0),
                              ("height", image.height, y1 - y0)):
        lo = extent / scale
        hi = (extent + 2 * (0.2 + scale)) / scale + 3
        if not lo <= got <= hi:
            problems.append(f"PGM {axis} {got} px outside [{lo:.0f}, "
                            f"{hi:.0f}]")
    if not image.cells.any():
        problems.append("PGM has no ink")
    return problems


def check_traces_within(report: dict,
                        bounds: tuple[float, float, float, float]) -> list[str]:
    x0, y0, x1, y1 = bounds
    eps = 1e-6
    traces = report.get("traces", [])
    if not traces:
        return ["report has no traces"]
    for t in traces:
        for x, y in (t["start_mm"], t["end_mm"]):
            if not (x0 - eps <= x <= x1 + eps and y0 - eps <= y <= y1 + eps):
                return [f"trace point ({x}, {y}) outside the drawing"]
    return []


def _plan_check(out: Path) -> Callable[[], list[str]]:
    def check():
        problems: list[str] = []
        report = _read_report(out, problems)
        if report is not None:
            actions = report.get("toolpath", {}).get("actions", [])
            if not actions or actions[0][0] != "tap":
                problems.append("plan has no actions or does not start "
                                "with a tap")
        return problems
    return check


def _simulate_check(out: Path, pgm: Path, scale: float,
                    bounds) -> Callable[[], list[str]]:
    def check():
        problems: list[str] = []
        report = _read_report(out, problems)
        if report is not None:
            problems += check_volume(report)
            problems += check_traces_within(report, bounds)
        return problems + check_pgm(pgm, scale, bounds)
    return check


def _check_check(out: Path, facts: CircuitFacts,
                 ohm_per_mm: float) -> Callable[[], list[str]]:
    def check():
        problems: list[str] = []
        report = _read_report(out, problems)
        if report is not None:
            problems += check_volume(report)
            problems += check_circuit(report.get("checks", {}), facts,
                                      ohm_per_mm)
        return problems
    return check


# --- workloads ---------------------------------------------------------------


def _bounds_of(drawing: dict) -> tuple[float, float, float, float]:
    pts = [p for s in drawing["strokes"] for p in s["points"]]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return min(xs), min(ys), max(xs), max(ys)


def cli_samples(seed: int, root: Path, work: Path,
                small: bool = False) -> Workload:
    """Plan, simulate --pgm and check each shipped sample.

    The seed shuffles the order of the calls; the inputs are fixed.
    """
    names = ["straight-line", "ic-sketch"] if small else list(SAMPLE_FACTS)
    ohm_per_mm = ohms_per_mm()
    commands = []
    for name in names:
        drawing = root / "samples" / f"{name}.json"
        if not drawing.is_file():
            raise FileNotFoundError(f"missing shipped sample {drawing}")
        bounds = _bounds_of(json.loads(drawing.read_bytes()))
        base = ["--drawing", str(drawing), *PIPELINE_ARGS]
        facts = SAMPLE_FACTS[name]
        plan_out = work / f"{name}.plan.json"
        sim_out = work / f"{name}.sim.json"
        pgm = work / f"{name}.pgm"
        check_out = work / f"{name}.check.json"
        check_argv = ["check", *base, "--out", str(check_out)]
        if facts.connected:
            check_argv += ["--pairs", facts.pairs_arg(), *CIRCUIT_ARGS]
        commands += [
            Command(f"plan:{name}", ["plan", *base, "--out", str(plan_out)],
                    [plan_out], drawing, _plan_check(plan_out)),
            Command(f"simulate:{name}",
                    ["simulate", *base, "--out", str(sim_out), "--pgm",
                     str(pgm), "--scale", f"{SAMPLE_SCALE_MM_PX:g}"],
                    [sim_out, pgm], drawing,
                    _simulate_check(sim_out, pgm, SAMPLE_SCALE_MM_PX,
                                    bounds)),
            Command(f"check:{name}", check_argv, [check_out], drawing,
                    _check_check(check_out, facts, ohm_per_mm)),
        ]
    random.Random(seed).shuffle(commands)
    return Workload("cli-samples", commands, in_children=True)


def check_board(seed: int, root: Path, work: Path,
                small: bool = False) -> Workload:
    sizes = (dict(bus_lines=8, pinched=2, chain_legs=4, mesh_rows=3,
                  mesh_cols=3) if small else {})
    board = boards.check_board(seed, **sizes)
    drawing = work / "check-board.json"
    boards.write_json(drawing, board.drawing)
    out = work / "check-board.check.json"
    argv = ["check", "--drawing", str(drawing), *PIPELINE_ARGS,
            "--out", str(out), "--pairs", board.facts.pairs_arg(),
            *CIRCUIT_ARGS]
    command = Command("check:check-board", argv, [out], drawing,
                      _check_check(out, board.facts, ohms_per_mm()))
    return Workload("check-board", [command], in_children=False)


def render_coils(seed: int, root: Path, work: Path,
                 small: bool = False) -> Workload:
    sizes = (dict(grid=2, turns=3, teeth=3, scale_mm_px=0.05)
             if small else {})
    coils = boards.render_coils(seed, **sizes)
    drawing = work / "render-coils.svg"
    drawing.write_text(coils.svg, encoding="utf-8")
    config = work / "render-coils.config.json"
    boards.write_json(config, coils.config)
    out = work / "render-coils.sim.json"
    pgm = work / "render-coils.pgm"
    argv = ["simulate", "--config", str(config), "--drawing", str(drawing),
            *PIPELINE_ARGS, "--out", str(out), "--pgm", str(pgm),
            "--scale", f"{coils.scale_mm_px:g}"]
    command = Command("simulate:render-coils", argv, [out, pgm], drawing,
                      _simulate_check(out, pgm, coils.scale_mm_px,
                                      coils.bounds_mm))
    return Workload("render-coils", [command], in_children=False)


WORKLOADS = {"cli-samples": cli_samples, "check-board": check_board,
             "render-coils": render_coils}


def output_sizes(cmd: Command) -> dict:
    """Strokes, trace segments and canvas pixels of a command's input,
    read from what a correct pass of it wrote."""
    from lmprint import read_pgm
    report = json.loads(cmd.outputs[0].read_bytes())
    kind = cmd.argv[0]
    if kind == "simulate":
        segments = len(report["traces"])
    elif kind == "check":
        segments = sum(len(n["segments"]) for n in report["checks"]["nets"])
    else:   # plan: one trace per move
        segments = sum(1 for a in report["toolpath"]["actions"]
                       if a[0] == "move")
    pixels = 0
    for path in cmd.outputs[1:]:
        image = read_pgm(path.read_bytes(), 1.0)
        pixels = image.width * image.height
    return {"strokes": report["drawing"]["strokes"], "segments": segments,
            "canvas_pixels": pixels}
