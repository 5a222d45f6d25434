"""Command-line front end.

Thin bindings over the library: every subcommand parses inputs, calls the
corresponding module operations and writes deterministic output (numbers
formatted to 9 significant digits, reports as canonical JSON, rasters as
binary PGM). Exit codes: 0 success, 1 domain error, 2 usage error (bad
flags or unreadable input files).
"""

from __future__ import annotations

import argparse
import struct
import sys
from itertools import starmap
from operator import attrgetter
from pathlib import Path

from . import _SUBMODULE_OF, __version__
from .contact import ContactLoad, indentation, sliding_ratio, static_slip_check
from .core import MachineSettings, grams_to_newtons, replace
from .drawing import parse_drawing
from .environment import Environment
from .errors import FullSlipError, LmprintError
from .flux import (ANCHOR_CONDITIONS, ANCHOR_FLUX_M3_S, ANCHOR_GAP_WIDTH,
                   FlowConditions, calibrate_flux, flux_table)
from .planner import Move, Tap, estimate, plan
from .report import Table, make_report, write_report
from .wetting import force_clamped, line_width_profile, stable_line_width

import math

_cli = sys.modules[__name__]


def __getattr__(name: str):
    # simulator, circuit, raster and config load on first use. Handlers call
    # their names on _cli, this module, so one replaced here serves every call.
    if name in _SUBMODULE_OF:
        return getattr(sys.modules[__package__], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


REFERENCE_WIDTH_UM = 126.0
REFERENCE_CONDITIONS = (40.0, 0.0656, 40.0)  # theta deg, Q mm^3/s, V mm/s


def _g(x: float) -> str:
    """A result to 9 significant digits; handlers format all before printing."""
    if not math.isfinite(x := float(x)):
        raise LmprintError(f"result is not finite ({x})")
    return f"{x + 0.0:.9g}"  # +0.0 folds -0.0 into 0.0


def _write_bytes(path: str, chunks):
    if path == "-":
        sys.stdout.buffer.writelines(chunks)
    else:
        with open(path, "wb") as fh:
            fh.writelines(chunks)


def _load_env(args) -> Environment:
    if getattr(args, "config", None):
        return _cli.load_config_file(args.config)
    return Environment()


def _load_drawing(args, env: Environment):
    raw = Path(args.drawing).read_bytes()
    fmt = args.format
    if fmt is None:
        fmt = "svg-subset" if args.drawing.lower().endswith(".svg") \
            else "native-json"
    return parse_drawing(raw, fmt,
                         chord_tolerance_mm=env.chord_tolerance_mm)


def _drawing_section(drawing) -> dict:
    return {
        "id": drawing.drawing_id,
        "strokes": len(drawing.strokes),
        "pads": sorted(drawing.pads),
        "bounds_mm": drawing.bounds,  # None for a drawing with no strokes
    }


# a trace table row: fields in sorted order, points as their coordinates
_TRACE_FIELDS = {"end_mm": 2, "flags": 0, "physics": 0, "start_mm": 2}
# a physics row's fields besides clamped, sorted; a trace's values of them
_PHYSICS_FIELDS = ("contact_angle_deg", "creep", "flux_m3_s", "pressure_g",
                   "speed_mm_s", "width_m")
_physics_of = attrgetter(*_PHYSICS_FIELDS)
# a physics tuple keyed by its bits: -0.0 and 0.0 are equal keys that json
# writes differently, so a tuple of floats is no key for it
_PHYSICS_BITS = struct.Struct("6d")


def _toolpath_section(toolpath) -> dict:
    return {
        "drawing_id": toolpath.drawing_id,
        "policy": toolpath.policy,
        "action_count": len(toolpath.actions),
    }


def _action_table(toolpath) -> list[list]:
    return [["move", a.to, a.speed_mm_s, a.pressure_g] if type(a) is Move
            else ["tap", a.at, a.force_n] if type(a) is Tap else ["lift"]
            for a in toolpath.actions]


def _trace_sections(result, substrate) -> tuple[list[dict], Table]:
    """The physics table, one row per distinct physics tuple in first-use
    order, and the trace table, whose rows refer to it by index."""
    traces = result.traces
    keys = list(starmap(_PHYSICS_BITS.pack, map(_physics_of, traces)))
    index = {k: i for i, k in enumerate(dict.fromkeys(keys))}
    physics = []
    for k in index:
        row = dict(zip(_PHYSICS_FIELDS, _PHYSICS_BITS.unpack(k)))
        row["clamped"] = force_clamped(
            substrate, grams_to_newtons(row["pressure_g"]))
        physics.append(row)
    return physics, Table(_TRACE_FIELDS, [
        (*t.end, t.flags, i, *t.start)
        for t, i in zip(traces, map(index.__getitem__, keys))])


def _totals_section(result) -> dict:
    return {
        "print_time_s": result.print_time_s,
        "ink_volume_mm3": result.ink_volume_mm3,
        "trace_length_mm": result.trace_length_mm,
        "tap_count": result.tap_count,
        "lift_count": result.lift_count,
        "flag_counts": dict(sorted(result.flag_counts.items())),
        "width_source": result.width_source,
        "planner_time_s": result.print_time_s,
        "planner_volume_mm3": result.ink_volume_mm3,
    }


def _pipeline(args):
    env = _load_env(args)
    drawing = _load_drawing(args, env)
    settings = MachineSettings(speed_setting=args.speed,
                               pressure_setting=args.pressure)
    toolpath = plan(drawing, settings, environment=env,
                    reorder=not args.no_reorder)
    return env, drawing, toolpath


def _pgm_parts(args, env: Environment, result):
    """Rasterize now; the parts of the PGM are made as they are written."""
    from .raster import pgm_parts
    return pgm_parts(_cli.rasterize(result.traces, args.scale,
                                    max_pixels=env.max_raster_pixels))


# --- subcommand handlers ----------------------------------------------------


def _cmd_plan(args) -> int:
    env, drawing, toolpath = _pipeline(args)
    est = estimate(toolpath, env)
    # a plan report has no totals, so its toolpath states the estimate
    report = make_report(drawing=_drawing_section(drawing),
                         toolpath={**_toolpath_section(toolpath),
                                   "estimated_time_s": est.print_time_s,
                                   "estimated_volume_mm3": est.ink_volume_mm3,
                                   "actions": _action_table(toolpath)})
    _write_bytes(args.out, [write_report(report)])
    return 0


def _cmd_simulate(args) -> int:
    if args.pgm == "-" and args.out == "-":
        raise LmprintError("--pgm - needs --out to name a file: the report "
                           "and the PGM would share stdout")
    env, drawing, toolpath = _pipeline(args)
    result = _cli.simulate(toolpath, env)
    physics, traces = _trace_sections(result, env.substrate)
    report = write_report(make_report(
        drawing=_drawing_section(drawing),
        toolpath=_toolpath_section(toolpath),
        physics=physics, traces=traces,
        totals=_totals_section(result)))
    # rasterize before writing anything, so a raster error leaves no report
    pgm = _pgm_parts(args, env, result) if args.pgm else None
    _write_bytes(args.out, [report])
    if pgm is not None:
        _write_bytes(args.pgm, pgm)
    return 0


def _cmd_render(args) -> int:
    env, drawing, toolpath = _pipeline(args)
    _write_bytes(args.pgm,
                 _pgm_parts(args, env, _cli.simulate(toolpath, env)))
    return 0


def _parse_pairs(text: str) -> list[tuple[str, str]]:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise LmprintError(f"bad pad pair {chunk!r}; use NAME:NAME")
        pairs.append((parts[0], parts[1]))
    return pairs


def _cmd_check(args) -> int:
    pairs = _parse_pairs(args.pairs) if args.pairs else []
    env, drawing, toolpath = _pipeline(args)
    result = _cli.simulate(toolpath, env)
    # one contact pass serves the nets and the DRC below
    nets = _cli.extract_nets(result.traces, args.tolerance,
                             pads=drawing.pads, clearance=args.min_clearance)
    checks: dict = {
        "touch_tolerance_mm": args.tolerance,
        "nets": [
            {"id": n.net_id, "segments": list(n.segments),
             "pads": list(n.pads)}
            for n in nets.nets
        ],
    }
    if pairs:
        conn = _cli.check_connectivity(nets, pairs)
        checks["connectivity"] = [
            {"pads": [a, b], "connected": ok} for a, b, ok in conn
        ]
        resistivity = args.resistivity if args.resistivity is not None \
            else env.resistivity_ohm_m
        if resistivity is not None:
            # connected pairs only: connectivity states which those are
            entries = []
            for a, b, ok in conn:
                if ok:
                    r = _cli.estimate_resistance(nets, a, b, resistivity)
                    entries.append({"pads": [a, b], "ohms": r.ohms,
                                    "path": list(r.path),
                                    "approximate": r.approximate})
            checks["resistance"] = entries
    verdict = _cli.drc(nets, args.min_width, args.min_clearance)
    checks["drc"] = {
        "passed": verdict.passed,
        "violations": [
            {"kind": v.kind, "location_mm": v.location,
             "measured": v.measured, "limit": v.limit}
            for v in verdict.violations
        ],
    }
    report = make_report(drawing=_drawing_section(drawing),
                         totals=_totals_section(result),
                         checks=checks)
    _write_bytes(args.out, [write_report(report)])
    return 0


def _read_csv(path: str, columns: tuple[str, ...]) -> list[dict]:
    import csv
    import io
    text = Path(path).read_text(encoding="utf-8")
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or sorted(header) != sorted(columns):
        raise LmprintError(
            f"{path}: expected CSV columns {', '.join(columns)}")
    rows = []
    for i, fields in enumerate(filter(None, reader)):  # blank lines skipped
        if len(fields) != len(header):
            raise LmprintError(f"{path}: data row {i + 1} has {len(fields)} "
                               f"fields, the header {len(header)}")
        try:
            rows.append({k: float(v) for k, v in zip(header, fields)})
        except ValueError:
            raise LmprintError(f"{path}: non-numeric value on data row {i + 1}")
    return rows


def _cmd_calibrate_flux(args) -> int:
    env = _load_env(args)
    if args.anchor:
        observations = [(ANCHOR_CONDITIONS,
                         replace(env.bead, gap_width=ANCHOR_GAP_WIDTH),
                         ANCHOR_FLUX_M3_S)]
    else:
        if not args.observations:
            raise LmprintError("need --observations CSV or --anchor")
        rows = _read_csv(args.observations,
                         ("pressure_drop_pa", "omega_y_rad_s", "gap_width_m",
                          "flux_mm3_s"))
        observations = []
        for r in rows:
            cond = FlowConditions(pressure_drop=r["pressure_drop_pa"],
                                  rotation=(0.0, r["omega_y_rad_s"], 0.0),
                                  head_velocity=0.0)
            bead = replace(env.bead, gap_width=r["gap_width_m"])
            observations.append((cond, bead, r["flux_mm3_s"] * 1e-9))
    fit = calibrate_flux(observations, ink=env.ink)
    print(f"kappa_pressure = {_g(fit.params.kappa_pressure)}\n"
          f"kappa_couette = {_g(fit.params.kappa_couette)}\n"
          f"residual_m3_s = {_g(fit.residual)}")
    return 0


def _cmd_fit_width(args) -> int:
    rows = _read_csv(args.samples, ("speed_mm_s", "pressure_g", "width_m"))
    model = _cli.fit_width_model(
        [(r["speed_mm_s"], r["pressure_g"], r["width_m"]) for r in rows])
    print(f"a = {_g(model.a)}\nb = {_g(model.b)}\nc = {_g(model.c)}\n"
          f"residual_log = {_g(model.residual)}")
    return 0


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise LmprintError(f"bad numeric list {text!r}")


def _cmd_flux_table(args) -> int:
    env = _load_env(args)
    pressures = _parse_floats(args.pressures)
    gap_widths = _parse_floats(args.gap_widths)
    cond = FlowConditions(pressure_drop=0.0,
                          rotation=(0.0, args.omega_y, 0.0),
                          head_velocity=0.0)
    table = flux_table(pressures, gap_widths, cond, env.flux_params,
                       env.bead, env.ink)
    print("\n".join(["pressure_pa,gap_width_m,flux_mm3_s"] + [
        f"{_g(p)},{_g(gw)},{_g(table[i, j] * 1e9)}"
        for i, p in enumerate(pressures) for j, gw in enumerate(gap_widths)]))
    return 0


def _cmd_line_width(args) -> int:
    q_m3_s = args.q_mm3s * 1e-9
    v_m_s = args.v_mms * 1e-3
    if args.sweep:
        n = args.steps
        if n < 1:
            raise LmprintError("--steps must be >= 1")
        lo, hi = args.theta_min, args.theta_max
        thetas = [lo + (hi - lo) * k / (n - 1) if n > 1 else lo
                  for k in range(n)]
        profile = line_width_profile(thetas, q_m3_s, v_m_s)
        print("\n".join(["theta_deg,width_um"] + [
            f"{_g(theta)},{_g(width * 1e6)}" for theta, width in profile]))
        return 0
    est = stable_line_width(math.radians(args.theta_deg), q_m3_s, v_m_s)
    lines = [f"width_um = {_g(est.width * 1e6)}",
             f"cross_section_mm2 = {_g(est.cross_section_area * 1e6)}"]
    if (args.theta_deg, args.q_mm3s, args.v_mms) == REFERENCE_CONDITIONS:
        dev = 100.0 * (est.width * 1e6 - REFERENCE_WIDTH_UM) / REFERENCE_WIDTH_UM
        lines += [f"reference_width_um = {_g(REFERENCE_WIDTH_UM)}",
                  f"deviation_pct = {_g(dev)}"]
    print("\n".join(lines))
    return 0


def _cmd_contact_probe(args) -> int:
    env = _load_env(args)
    load = ContactLoad(force=args.force_n,
                       normal_angle=math.radians(args.normal_angle_deg),
                       tangential_angle=math.radians(args.tangential_angle_deg))
    sol = indentation(load, env.bead, env.substrate,
                      literal_s4=args.literal_s4)
    lines = [f"indentation_m = {_g(sol.indentation_depth)}",
             f"contact_radius_m = {_g(sol.contact_radius)}",
             f"contact_area_m2 = {_g(sol.contact_area)}"]
    try:
        sliding = sliding_ratio(load, env.substrate, sol, env.bead)
        lines += [f"creep = {_g(sliding.creep)}",
                  f"traction_fraction = {_g(sliding.fr)}"]
    except FullSlipError:
        lines.append("creep = full-slip")
    lines.append(f"static = {static_slip_check(load, env.substrate)}")
    print("\n".join(lines))
    return 0


# --- parser -----------------------------------------------------------------


def _pipeline_args(p):
    p.add_argument("--config", help="run configuration JSON")
    p.add_argument("--drawing", required=True,
                   help="drawing file (native JSON or SVG subset)")
    p.add_argument("--format", choices=["native-json", "svg-subset"],
                   help="drawing format (default: by file extension)")
    p.add_argument("--speed", type=float, required=True,
                   help="speed dial setting")
    p.add_argument("--pressure", type=float, required=True,
                   help="pressure dial setting")
    p.add_argument("--no-reorder", action="store_true",
                   help="keep the drawing's stroke order")


def _plan_args(p):
    _pipeline_args(p)
    p.add_argument("--out", default="-", help="report path (default stdout)")


def _simulate_args(p):
    _pipeline_args(p)
    p.add_argument("--out", default="-", help="report path (default stdout)")
    p.add_argument("--pgm", help="also write a raster preview here")
    p.add_argument("--scale", type=float, default=0.05,
                   help="raster scale, mm per pixel (default 0.05)")


def _render_args(p):
    _pipeline_args(p)
    p.add_argument("--pgm", required=True, help="output PGM path")
    p.add_argument("--scale", type=float, default=0.05,
                   help="raster scale, mm per pixel (default 0.05)")


def _check_args(p):
    _pipeline_args(p)
    p.add_argument("--out", default="-", help="report path (default stdout)")
    p.add_argument("--tolerance", type=float, default=0.0,
                   help="net touch tolerance, mm (default 0)")
    p.add_argument("--pairs", help="pad pairs to test, e.g. A:B,B:C")
    p.add_argument("--resistivity", type=float,
                   help="ink resistivity, ohm*m (enables resistance)")
    p.add_argument("--min-width", type=float, default=0.1,
                   help="DRC minimum trace width, mm (default 0.1)")
    p.add_argument("--min-clearance", type=float, default=0.1,
                   help="DRC minimum inter-net clearance, mm (default 0.1)")


def _calibrate_flux_args(p):
    p.add_argument("--config", help="run configuration JSON")
    p.add_argument("--observations",
                   help="CSV: pressure_drop_pa,omega_y_rad_s,gap_width_m,"
                        "flux_mm3_s")
    p.add_argument("--anchor", action="store_true",
                   help="use the built-in single-point reference anchor")


def _fit_width_args(p):
    p.add_argument("--samples", required=True,
                   help="CSV: speed_mm_s,pressure_g,width_m")


def _flux_table_args(p):
    p.add_argument("--config", help="run configuration JSON")
    p.add_argument("--pressures", required=True,
                   help="comma-separated pressure drops, Pa")
    p.add_argument("--gap-widths", required=True,
                   help="comma-separated gap widths, m")
    p.add_argument("--omega-y", type=float, default=0.0,
                   help="transverse rolling rate, rad/s (default 0)")


def _line_width_args(p):
    p.add_argument("--theta-deg", type=float, default=40.0,
                   help="contact angle, degrees")
    p.add_argument("--q-mm3s", type=float, required=True,
                   help="ink flux, mm^3/s")
    p.add_argument("--v-mms", type=float, required=True,
                   help="print speed, mm/s")
    p.add_argument("--sweep", action="store_true",
                   help="print a theta sweep as CSV instead")
    p.add_argument("--theta-min", type=float, default=5.0)
    p.add_argument("--theta-max", type=float, default=175.0)
    p.add_argument("--steps", type=int, default=35)


def _contact_probe_args(p):
    p.add_argument("--config", help="run configuration JSON")
    p.add_argument("--force-n", type=float, required=True,
                   help="applied force, N")
    p.add_argument("--normal-angle-deg", type=float, default=0.0)
    p.add_argument("--tangential-angle-deg", type=float, default=0.0)
    p.add_argument("--literal-s4", action="store_true",
                   help="evaluate the uncorrected printed indentation form")


# command -> (help line, adds its arguments, handler), in --help order
_COMMANDS = {
    "plan": ("plan a toolpath and estimate time/ink", _plan_args, _cmd_plan),
    "simulate": ("simulate deposition along a plan", _simulate_args,
                 _cmd_simulate),
    "render": ("rasterize the simulated traces", _render_args, _cmd_render),
    "check": ("extract nets, check connectivity and run DRC", _check_args,
              _cmd_check),
    "calibrate-flux": ("fit flux model constants to observations",
                       _calibrate_flux_args, _cmd_calibrate_flux),
    "fit-width": ("fit the empirical width power law to samples",
                  _fit_width_args, _cmd_fit_width),
    "flux-table": ("tabulate flux over pressures and gap widths",
                   _flux_table_args, _cmd_flux_table),
    "line-width": ("stable line width from angle, flux and speed",
                   _line_width_args, _cmd_line_width),
    "contact-probe": ("indentation, contact area and creep for a load",
                      _contact_probe_args, _cmd_contact_probe),
}


def _parser(commands) -> argparse.ArgumentParser:
    """The top-level parser with the subparsers of `commands` only. Its
    usage line lists every command all the same, so a top-level usage error
    (an unrecognized argument after the command) reads as with every
    command added."""
    parser = argparse.ArgumentParser(
        prog="lmprint",
        description="Tapping-mode liquid-metal printing: planning, "
                    "simulation and circuit checks.")
    parser.add_argument("--version", action="version", version=__version__)
    every = len(commands) == len(_COMMANDS)
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if every else "{" + ",".join(_COMMANDS) + "}")
    for name in commands:
        help_line, add_args, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        add_args(p)
        p.set_defaults(func=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full parser, with every command."""
    return _parser(_COMMANDS)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # only the named command's subparser runs, so only it is added; no
    # command (or --help, --version, a typo) adds every command
    named = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    args = _parser(named).parse_args(argv)
    try:
        return args.func(args)
    except LmprintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
