"""What each call loads, and what the lazy package keeps.

``import lmprint`` runs no submodule, and each CLI command imports only
the modules it runs. Each load is checked in a fresh interpreter, by
module name, never by timing. The package's public names, its submodule
attributes and the names that perfbench's tracer swaps in ``lmprint.cli``
must be the same objects as before they became lazy.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import lmprint
from lmprint import cli

ROOT = Path(__file__).resolve().parents[1]
ANTENNA = ["--drawing", "samples/grid-antenna.json", "--speed", "10",
           "--pressure", "30"]

# the package's public names, grouped by the submodule that defines them
EXPORTS = {
    "circuit": ["CircuitNets", "DrcResult", "DrcViolation", "Net",
                "ResistanceEstimate", "check_connectivity", "drc",
                "estimate_resistance", "extract_nets", "outline_clearance"],
    "contact": ["ContactLoad", "ContactSolution", "SlidingState",
                "contact_pressure", "indentation", "sliding_ratio",
                "sr_fr_curve", "static_slip_check"],
    "core": ["DEFAULT_BEAD", "DEFAULT_LIMITS", "GAIN245", "OFFICE_PAPER",
             "PVC_FILM", "STAINLESS_STEEL", "STANDARD_GRAVITY",
             "SUBSTRATE_PRESETS", "BeadGeometry", "Force", "InkProperties",
             "MachineLimits", "MachineSettings", "PressureCalibration",
             "SettingsVerdict", "SpeedCalibration", "SubstrateProperties",
             "dynamic_viscosity", "grams_to_newtons", "newtons_to_grams",
             "pressure_setting_to_force", "speed_setting_to_velocity",
             "validate_settings"],
    "drawing": ["DEFAULT_CHORD_TOLERANCE_MM", "VectorDrawing",
                "parse_drawing", "serialize_drawing"],
    "environment": ["DEFAULT_ENVIRONMENT", "DEFAULT_POLICY", "CornerPolicy",
                    "Environment", "SegmentPhysics", "segment_physics"],
    "errors": ["CalibrationError", "CircuitError", "ConfigError",
               "DomainError", "DrawingFormatError", "FullSlipError",
               "IllegalActionError", "InvalidSettingError", "LmprintError",
               "NoEquilibriumError", "NonVectorContentError",
               "OutOfContactError", "PlanError", "RasterSizeError",
               "UnknownPadError", "UnsupportedSvgFeatureError",
               "WettingDomainError"],
    "flux": ["DEFAULT_FLUX_PARAMS", "FlowConditions", "FluxCalibrationResult",
             "FluxModelParams", "calibrate_flux", "cross_section_area",
             "default_flux_params", "flux_table", "gap_flux"],
    "config": ["load_config", "load_config_file"],
    "planner": ["HeadState", "Lift", "Move", "PlanEstimate", "Tap",
                "Toolpath", "estimate", "interior_angle_deg", "order_strokes",
                "plan", "step_head"],
    "raster": ["RasterImage", "rasterize", "read_pgm", "write_pgm"],
    "report": ["make_report", "read_report", "write_report"],
    "simulator": ["EmpiricalWidthModel", "SimulationResult", "TraceSegment",
                  "fit_width_model", "simulate"],
    "svg": ["flatten_cubic"],
    "wetting": ["BeadWettingPair", "LineEstimate", "SurfaceTensionTriple",
                "angle_at_force", "deposition_feasible", "stable_line_width",
                "wettability_ranking", "young_contact_angle"],
}
NAMES = [name for names in EXPORTS.values() for name in names]
SUBMODULES = [*EXPORTS, "nnls"]


def _fresh(code: str, *args):
    """Run ``code`` in a fresh interpreter at the repository root.

    Returns the JSON object on its last stdout line, and its stderr.
    """
    proc = subprocess.run(
        [sys.executable, "-W", "ignore::UserWarning", "-c", code,
         *map(str, args)],
        cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


# --- what each call loads ---------------------------------------------------

_MAIN_PROBE = """
import json, sys
from lmprint.cli import main
rc = main(sys.argv[1:])
print(json.dumps({"rc": rc, "modules": sorted(sys.modules)}))
"""


def test_import_lmprint_runs_no_submodule():
    modules, _ = _fresh("import json, sys, lmprint; "
                        "print(json.dumps(sorted(sys.modules)))")
    assert "lmprint" in modules
    assert [m for m in modules if m.startswith("lmprint.")] == []


SVG = ('<svg xmlns="http://www.w3.org/2000/svg">'
       '<path d="M 0 0 L 30 0 L 30 10"/></svg>')
WIDTHS = ("speed_mm_s,pressure_g,width_m\n"
          "10,50,1e-4\n20,100,1.2e-4\n160,100,6e-5\n")
OUT = ["--out", "{tmp}/report.json"]
CASES = {
    # id: argv, modules it must not load, modules it must load
    "plan": (["plan", *ANTENNA, *OUT],
             {"lmprint.circuit", "lmprint.simulator", "lmprint.raster",
              "lmprint.svg", "lmprint.config", "lmprint.nnls", "xml.etree",
              "csv"},
             {"lmprint.planner", "lmprint.report"}),
    "check": (["check", *ANTENNA, "--pairs", "feed:tip",
               "--resistivity", "2.9e-7", *OUT],
              {"lmprint.raster", "lmprint.svg", "lmprint.config",
               "lmprint.nnls", "xml.etree", "csv"},
              {"lmprint.circuit", "lmprint.simulator"}),
    "simulate": (["simulate", *ANTENNA, *OUT],
                 {"lmprint.circuit", "lmprint.raster", "lmprint.svg",
                  "lmprint.config", "lmprint.nnls", "xml.etree"},
                 {"lmprint.simulator"}),
    "simulate-pgm": (["simulate", *ANTENNA, *OUT, "--pgm", "{tmp}/out.pgm"],
                     {"lmprint.circuit", "lmprint.svg", "lmprint.config"},
                     {"lmprint.simulator", "lmprint.raster"}),
    "svg": (["plan", "--drawing", "{tmp}/shape.svg", "--speed", "10",
             "--pressure", "30", *OUT],
            {"lmprint.circuit", "lmprint.simulator"},
            {"lmprint.svg", "xml.etree", "xml.etree.ElementTree"}),
    "config": (["plan", *ANTENNA, *OUT, "--config", "samples/config.json"],
               {"lmprint.circuit", "lmprint.simulator", "xml.etree"},
               {"lmprint.config"}),
    "calibrate-flux": (["calibrate-flux", "--anchor"],
                       {"lmprint.circuit", "lmprint.simulator", "csv"},
                       {"lmprint.nnls"}),
    "fit-width": (["fit-width", "--samples", "{tmp}/widths.csv"],
                  {"lmprint.circuit", "lmprint.raster"},
                  {"lmprint.simulator", "lmprint.nnls", "csv"}),
}


# no command defines its records through dataclasses, and only numpy,
# which simulate --pgm imports, brings in inspect
NEVER = {"dataclasses"}
NUMPY_FREE_NEVER = {"dataclasses", "inspect"}


@pytest.mark.parametrize("case", CASES)
def test_a_command_loads_only_what_it_runs(case, tmp_path):
    argv, unloaded, loaded = CASES[case]
    unloaded = unloaded | (NEVER if case == "simulate-pgm"
                           else NUMPY_FREE_NEVER)
    (tmp_path / "shape.svg").write_text(SVG)
    (tmp_path / "widths.csv").write_text(WIDTHS)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    out, _ = _fresh(_MAIN_PROBE, *argv)
    assert out["rc"] == 0
    modules = set(out["modules"])
    assert sorted(unloaded & modules) == []
    assert sorted(loaded - modules) == []


def test_check_rejects_bad_pairs_before_the_pipeline(tmp_path):
    out, err = _fresh(_MAIN_PROBE, "check", *ANTENNA, "--pairs", "L1",
                      "--out", tmp_path / "report.json")
    assert out["rc"] == 1
    assert "bad pad pair 'L1'" in err
    assert "lmprint.simulator" not in out["modules"]
    assert "lmprint.circuit" not in out["modules"]
    assert not (tmp_path / "report.json").exists()


# --- the public API ---------------------------------------------------------

def test_all_is_the_pinned_list_of_names():
    assert lmprint.__all__ == NAMES


_API_PROBE = """
import json, sys
import lmprint
table, first = json.loads(sys.argv[1]), sys.argv[2]
submodules = [*table, "nnls"]


def resolve(names):
    return {n: getattr(lmprint, n) for n in names}


if first == "names":
    names = resolve(n for ns in table.values() for n in ns)
    modules = resolve(submodules)
else:
    modules = resolve(submodules)
    names = resolve(n for ns in table.values() for n in ns)
print(json.dumps({
    "submodules": [m for m in submodules
                   if modules[m] is sys.modules["lmprint." + m]],
    "names": [n for m, ns in table.items() for n in ns
              if names[n] is getattr(sys.modules["lmprint." + m], n)],
}))
"""


@pytest.mark.parametrize("first", ["names", "submodules"])
def test_each_name_is_its_submodules_object(first):
    out, _ = _fresh(_API_PROBE, json.dumps(EXPORTS), first)
    assert out["names"] == NAMES
    assert out["submodules"] == SUBMODULES


def test_star_import_and_dir_cover_every_name():
    namespace: dict = {}
    exec("from lmprint import *", namespace)
    assert set(NAMES) <= set(namespace)
    assert all(namespace[n] is getattr(lmprint, n) for n in NAMES)
    assert set(NAMES) | set(SUBMODULES) <= set(dir(lmprint))


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        lmprint.no_such_name
    with pytest.raises(AttributeError, match="'lmprint.cli'"):
        cli.no_such_name
    assert not hasattr(cli, "__path__")
    with pytest.raises(ImportError):
        exec("from lmprint import no_such_name", {})


# --- the tracer protocol ----------------------------------------------------

_TRACE_PROBE = """
import importlib.util, json, sys
sys.dont_write_bytecode = True
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = sys.modules["tracing"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import lmprint.cli
tracer = tracing.Tracer(lmprint.cli)
traced, plain = json.loads(sys.argv[2])
with tracer.patched():
    rc_traced = lmprint.cli.main(traced)
spans = tracer.finish_pass(1.0)
rc_plain = lmprint.cli.main(plain)
print(json.dumps({"rc": [rc_traced, rc_plain],
                  "spans": [n for n in tracing.LAYER_OF if n in spans]}))
"""
TRACED = {
    "check": (["check", *ANTENNA, "--pairs", "feed:tip",
               "--resistivity", "2.9e-7", "--out", "{out}.json"],
              ["simulate", "extract_nets", "check_connectivity",
               "estimate_resistance", "drc"]),
    "simulate-pgm": (["simulate", *ANTENNA, "--out", "{out}.json",
                      "--pgm", "{out}.pgm"],
                     ["simulate", "rasterize"]),
}


@pytest.mark.parametrize("case", TRACED)
def test_tracer_wraps_every_layer_call(case, tmp_path):
    argv, layers = TRACED[case]
    passes = [[a.replace("{out}", str(tmp_path / side)) for a in argv]
              for side in ("traced", "plain")]
    out, _ = _fresh(_TRACE_PROBE, ROOT / "perfbench" / "tracing.py",
                    json.dumps(passes))
    assert out["rc"] == [0, 0]
    assert set(layers) <= set(out["spans"])
    for suffix in {a.rsplit(".", 1)[1] for a in argv if "{out}" in a}:
        traced = (tmp_path / f"traced.{suffix}").read_bytes()
        assert traced == (tmp_path / f"plain.{suffix}").read_bytes()
