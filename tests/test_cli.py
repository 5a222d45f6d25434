"""Command line interface: golden outputs, exit codes, determinism."""

import hashlib
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from lmprint import (MachineSettings, __version__, parse_drawing, plan,
                     rasterize, read_report, simulate, write_pgm)
from lmprint.cli import main

SAMPLES = "samples"
LINE = f"{SAMPLES}/straight-line.json"
SQUARE = f"{SAMPLES}/square.json"
PIPELINE = ["--drawing", LINE, "--speed", "10", "--pressure", "30"]


@pytest.fixture()
def run(capsys):
    def _run(args):
        rc = main(args)
        captured = capsys.readouterr()
        return rc, captured.out, captured.err
    return _run


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_no_arguments_is_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "lmprint.cli"], capture_output=True)
    assert proc.returncode == 2
    assert b"usage:" in proc.stderr


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lmprint.cli", "line-width", "--theta-deg",
         "90", "--q-mm3s", "0.05", "--v-mms", "40"],
        capture_output=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith(b"width_um = ")


def test_line_width_golden(run):
    rc, out, err = run(["line-width", "--theta-deg", "40",
                        "--q-mm3s", "0.0656", "--v-mms", "40"])
    assert rc == 0 and err == ""
    assert out == ("width_um = 114.781765\n"
                   "cross_section_mm2 = 0.00164\n"
                   "reference_width_um = 126\n"
                   "deviation_pct = -8.90336085\n")


def test_line_width_reference_only_at_reference_conditions(run):
    rc, out, _ = run(["line-width", "--theta-deg", "90",
                      "--q-mm3s", "0.0656", "--v-mms", "40"])
    assert rc == 0
    assert "reference_width_um" not in out
    assert out.startswith("width_um = 64.623724\n")


def test_line_width_sweep_csv(run):
    rc, out, _ = run(["line-width", "--sweep", "--theta-min", "20",
                      "--theta-max", "160", "--steps", "8",
                      "--q-mm3s", "0.0656", "--v-mms", "40"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta_deg,width_um"
    assert len(lines) == 9
    widths = [float(row.split(",")[1]) for row in lines[1:]]
    assert all(a > b for a, b in zip(widths, widths[1:]))


def test_line_width_default_sweep_is_pinned(run):
    rc, out, _ = run(["line-width", "--sweep",
                      "--q-mm3s", "0.0656", "--v-mms", "40"])
    assert rc == 0 and len(out.splitlines()) == 36
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f21a2cc39f51f929409d3747eec34a6da68b7b874b745c4b9f8f42faef619df0")


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_line_width_empty_sweep_is_domain_error(run, steps):
    rc, out, err = run(["line-width", "--sweep", "--steps", steps,
                        "--q-mm3s", "0.0656", "--v-mms", "40"])
    assert rc == 1 and out == "" and err.startswith("error:")


def test_line_width_domain_error(run):
    rc, out, err = run(["line-width", "--theta-deg", "200",
                        "--q-mm3s", "0.05", "--v-mms", "40"])
    assert rc == 1
    assert err.startswith("error:")


def test_contact_probe_golden(run):
    rc, out, _ = run(["contact-probe", "--force-n", "0.05"])
    assert rc == 0
    assert out == ("indentation_m = 6.80409212e-07\n"
                   "contact_radius_m = 1.54318898e-05\n"
                   "contact_area_m2 = 7.48149003e-10\n"
                   "creep = 0\n"
                   "traction_fraction = 0\n"
                   "static = no-slip\n")


def test_contact_probe_literal_form(run):
    rc, out, _ = run(["contact-probe", "--force-n", "0.05", "--literal-s4"])
    assert rc == 0
    assert out.splitlines()[0] == "indentation_m = 3714435.4"


def test_contact_probe_rolling_creep(run):
    rc, out, _ = run(["contact-probe", "--force-n", "0.05",
                      "--tangential-angle-deg", "11.3099325"])
    assert rc == 0
    creep = float(out.splitlines()[3].split(" = ")[1])
    assert creep == pytest.approx(-0.0044298986474634667, rel=1e-6)
    fraction = float(out.splitlines()[4].split(" = ")[1])
    assert fraction == pytest.approx(0.57142857, rel=1e-6)


def test_contact_probe_static_slip_boundary(run):
    # static hold depends on the load obliquity, not the rolling angle
    rc, out, _ = run(["contact-probe", "--force-n", "0.05",
                      "--normal-angle-deg", "25"])
    assert rc == 0
    assert "static = slip\n" in out
    rc, out, _ = run(["contact-probe", "--force-n", "0.05",
                      "--normal-angle-deg", "15"])
    assert "static = no-slip\n" in out


def test_contact_probe_full_slip(run):
    # tan(80 deg) is past the friction coefficient 0.35: the bead slides,
    # so there is no creep to print and no traction fraction; the static
    # check reads the normal angle, 0 here
    rc, out, _ = run(["contact-probe", "--force-n", "0.5",
                      "--tangential-angle-deg", "80"])
    assert rc == 0
    assert out == ("indentation_m = 3.1581798e-06\n"
                   "contact_radius_m = 3.32469988e-05\n"
                   "contact_area_m2 = 3.47260006e-09\n"
                   "creep = full-slip\n"
                   "static = no-slip\n")


def test_contact_probe_prints_nothing_before_an_error(run):
    rc, out, err = run(["contact-probe", "--force-n", "0.05",
                        "--tangential-angle-deg", "-5"])
    assert rc == 1 and out == "" and err.startswith("error:")


def test_calibrate_flux_anchor_golden(run):
    rc, out, _ = run(["calibrate-flux", "--anchor"])
    assert rc == 0
    assert out == ("kappa_pressure = 0\n"
                   "kappa_couette = 0.227277589\n"
                   "residual_m3_s = 0\n")


def test_calibrate_flux_csv_matches_anchor(run, tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("pressure_drop_pa,omega_y_rad_s,gap_width_m,flux_mm3_s\n"
                    "1.0,60.0,5e-05,0.0656\n")
    rc, out, _ = run(["calibrate-flux", "--observations", str(path)])
    assert rc == 0
    assert "kappa_couette = 0.227277589" in out


def test_calibrate_flux_requires_input(run):
    rc, _, err = run(["calibrate-flux"])
    assert rc == 1 and "error:" in err


def test_calibrate_flux_rejects_bad_columns(run, tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("pressure,omega,gap,flux\n1,60,5e-5,0.0656\n")
    rc, _, err = run(["calibrate-flux", "--observations", str(path)])
    assert rc == 1 and "error:" in err


def _write_widths(path):
    """Widths from w = 3.2e-4 F^0.31 / v^0.47 as a fit-width CSV."""
    rows = ["speed_mm_s,pressure_g,width_m"]
    for v, f in [(10, 50), (20, 100), (40, 200), (80, 400), (160, 100),
                 (5, 300)]:
        rows.append(f"{v},{f},{3.2e-4 * f ** 0.31 / v ** 0.47!r}")
    path.write_text("\n".join(rows) + "\n")
    return path


def test_fit_width_golden(run, tmp_path):
    path = _write_widths(tmp_path / "widths.csv")
    rc, out, _ = run(["fit-width", "--samples", str(path)])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "a = 0.00032"
    assert lines[1] == "b = 0.31"
    assert lines[2] == "c = 0.47"
    assert lines[3].startswith("residual_log = ")


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command,flag,rows", [
    ("fit-width", "--samples",
     ["speed_mm_s,pressure_g,width_m", "10,50,{}", "20,100,1.2e-4",
      "160,100,6e-5"]),
    ("calibrate-flux", "--observations",
     ["pressure_drop_pa,omega_y_rad_s,gap_width_m,flux_mm3_s",
      "1.0,{},5e-05,0.06"]),
], ids=["fit-width", "calibrate-flux"])
def test_non_finite_samples_are_domain_errors(run, tmp_path, command, flag,
                                              rows, value):
    path = tmp_path / "samples.csv"
    path.write_text("\n".join(rows).format(value) + "\n")
    rc, out, err = run([command, flag, str(path)])
    assert rc == 1 and err.startswith("error:") and out == ""
    assert "finite" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("argv", [
    ["flux-table", "--pressures", "1,{}", "--gap-widths", "5e-5"],
    ["flux-table", "--pressures", "1", "--gap-widths", "5e-5",
     "--omega-y", "{}"],
    ["line-width", "--q-mm3s", "{}", "--v-mms", "40"],
    ["line-width", "--q-mm3s", "0.05", "--v-mms", "{}"],
    ["line-width", "--q-mm3s", "{}", "--v-mms", "40", "--sweep"],
    ["contact-probe", "--force-n", "{}"],
    ["contact-probe", "--force-n", "0.05", "--tangential-angle-deg", "{}"],
], ids=["flux-pressure", "flux-omega", "width-flux", "width-speed",
        "width-sweep", "contact-force", "contact-tangential"])
def test_non_finite_physics_inputs_are_domain_errors(run, argv, value):
    rc, out, err = run([arg.format(value) for arg in argv])
    assert rc == 1 and err.startswith("error:") and out == ""
    assert "finite" in err



# finite inputs whose answers overflow: the handler formats every line
# before it prints one, so only the error is printed
@pytest.mark.parametrize("argv", [
    ["contact-probe", "--force-n", "1e308"],
    ["line-width", "--q-mm3s", "1e308", "--v-mms", "1e-308"],
    ["line-width", "--q-mm3s", "1e308", "--v-mms", "1e-308", "--sweep"],
], ids=["contact-probe", "line-width", "line-width-sweep"])
def test_non_finite_results_are_domain_errors(run, argv):
    rc, out, err = run(argv)
    assert rc == 1 and out == "" and err.startswith("error:")
    assert "not finite" in err


def test_flux_table_anchor_cell(run):
    rc, out, _ = run(["flux-table", "--pressures", "1",
                      "--gap-widths", "5e-5", "--omega-y", "60"])
    assert rc == 0
    assert out == "pressure_pa,gap_width_m,flux_mm3_s\n1,5e-05,0.0656\n"


def test_flux_table_grid_order(run):
    rc, out, _ = run(["flux-table", "--pressures", "1,2",
                      "--gap-widths", "2e-5,5e-5"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    keys = [tuple(map(float, row.split(",")[:2])) for row in lines[1:]]
    assert keys == sorted(keys)  # pressure-major, gap-minor
    flux = [float(row.split(",")[2]) for row in lines[1:]]
    assert all(q > 0.0 for q in flux)


def test_plan_report(run, tmp_path):
    out_path = tmp_path / "plan.json"
    rc, out, err = run(["plan", *PIPELINE, "--out", str(out_path)])
    assert rc == 0 and err == ""
    assert out == ""  # report goes to the file, nothing else to say
    report = read_report(out_path.read_bytes())
    assert report["drawing"]["id"] == "straight-line"
    actions = report["toolpath"]["actions"]
    assert actions[0][0] == "tap" and actions[-1] == ["lift"]
    moves = [a for a in actions if a[0] == "move"]
    assert moves[0][2] == 40.0 and moves[0][3] == 94.0
    assert report["toolpath"]["estimated_time_s"] > 0.0
    assert report["toolpath"]["estimated_volume_mm3"] > 0.0


def test_plan_violation_exit_code(run, tmp_path):
    rc, _, err = run(["plan", "--drawing", LINE, "--speed", "150",
                      "--pressure", "30", "--out", str(tmp_path / "x.json")])
    assert rc == 1
    assert "error:" in err


@pytest.mark.parametrize("flag,name", [("--speed", "speed setting"),
                                       ("--pressure", "pressure setting")])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_setting_is_domain_error(run, tmp_path, flag, name, value):
    settings = {"--speed": "10", "--pressure": "30", flag: value}
    out_path = tmp_path / "p.json"
    rc, out, err = run(["plan", "--drawing", SQUARE,
                        *(a for kv in settings.items() for a in kv),
                        "--out", str(out_path)])
    assert rc == 1 and err.startswith("error:")
    assert name in err and "finite" in err
    assert not out_path.exists()


def test_plan_at_speed_zero_is_a_domain_error(run, tmp_path):
    out_path = tmp_path / "p.json"
    rc, out, err = run(["plan", "--drawing", SQUARE, "--speed", "0",
                        "--pressure", "30", "--out", str(out_path)])
    assert (rc, out, err) == (1, "", "error: move speed must be > 0\n")
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["plan", "simulate", "check"])
def test_overflowing_extents_are_a_domain_error(run, tmp_path, command):
    # a 2e308 mm segment: its length, the print time and the volume are inf
    drawing = tmp_path / "far.json"
    drawing.write_text(json.dumps({"version": 1, "strokes": [
        {"points": [[0, 0], [1e308, 0], [-1e308, 0]]}]}))
    out_path = tmp_path / "out.json"
    with pytest.warns(UserWarning):  # the force is beyond the angle table
        rc, out, err = run([command, "--drawing", str(drawing), "--speed",
                            "10", "--pressure", "30", "--out", str(out_path)])
    assert rc == 1 and out == ""
    assert err == ("error: print time inf s or ink volume inf mm^3 is not "
                   "finite\n")
    assert not out_path.exists()


def test_a_cubic_past_the_chord_budget_is_a_domain_error(run, tmp_path):
    svg = tmp_path / "far.svg"
    svg.write_text('<svg xmlns="http://www.w3.org/2000/svg">'
                   '<path d="M 0 0 C 1e20 0 0 1e20 1 0"/></svg>')
    rc, out, err = run(["plan", "--drawing", str(svg), "--speed", "10",
                        "--pressure", "30", "--out", str(tmp_path / "p.json")])
    assert rc == 1 and out == ""
    assert err.startswith("error: element 1 <path>: command 'C' at offset 6: "
                          "the cubics need more than ")


def test_missing_drawing_is_os_error(run, tmp_path):
    rc, _, err = run(["plan", "--drawing", str(tmp_path / "nope.json"),
                      "--speed", "10", "--pressure", "30"])
    assert rc == 2
    assert "error:" in err


def test_malformed_drawing_is_domain_error(run, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run(["plan", "--drawing", str(bad), "--speed", "10",
                      "--pressure", "30"])
    assert rc == 1


@pytest.mark.parametrize("stroke,pads", [
    ({"points": [[0, 0], [None, 1]]}, {}),
    ({"points": [["5", 0], [10, 0]]}, {}),
    ({"points": [[0, 0], [10, True]]}, {}),
    ({"points": [[0, 0], [10, 0], [10, 10]], "closed": "false"}, {}),
    ({"points": [[0, 0], [10, 0], [10, 10]], "closed": 1}, {}),
    ({"points": [[0, 0], [10, 0]]}, {"A": [None, 0]}),
    ({"points": [[0, 0], [10, 0]]}, {"A": ["0", 0]}),
    ({"points": [[0, 0], [10 ** 400, 0]]}, {}),
], ids=["null-x", "string-x", "bool-y", "string-closed", "int-closed",
        "null-pad", "string-pad", "huge-int-x"])
def test_native_drawing_takes_only_json_numbers_and_booleans(
        run, tmp_path, stroke, pads):
    drawing = tmp_path / "bad.json"
    drawing.write_text(json.dumps({"version": 1, "strokes": [stroke],
                                   "pads": pads}))
    out_path = tmp_path / "plan.json"
    rc, _, err = run(["plan", "--drawing", str(drawing), "--speed", "10",
                      "--pressure", "30", "--out", str(out_path)])
    assert rc == 1 and err.startswith("error:")
    assert not out_path.exists()


@pytest.mark.parametrize("drawing_id", [5, 1.5, True, [], {}],
                         ids=["int", "float", "bool", "list", "object"])
def test_native_drawing_id_is_a_string_or_null(run, tmp_path, drawing_id):
    drawing = tmp_path / "bad.json"
    drawing.write_text(json.dumps({"version": 1, "id": drawing_id,
                                   "strokes": [{"points": [[0, 0], [10, 0]]}]}))
    out_path = tmp_path / "plan.json"
    rc, _, err = run(["plan", "--drawing", str(drawing), "--speed", "10",
                      "--pressure", "30", "--out", str(out_path)])
    assert rc == 1 and err.startswith("error:") and "'id'" in err
    assert not out_path.exists()


def test_svg_input_by_extension(run, tmp_path):
    svg = tmp_path / "shape.svg"
    svg.write_text('<svg xmlns="http://www.w3.org/2000/svg">'
                   '<path d="M 0 0 L 30 0"/></svg>')
    out_path = tmp_path / "plan.json"
    rc, _, _ = run(["plan", "--drawing", str(svg), "--speed", "10",
                    "--pressure", "30", "--out", str(out_path)])
    assert rc == 0
    report = read_report(out_path.read_bytes())
    assert report["toolpath"]["actions"][0] == ["tap", [0.0, 0.0],
                                                report["toolpath"]
                                                ["actions"][0][2]]


@pytest.mark.parametrize("name, text", [
    ("empty.json", '{"version": 1, "units": "mm", "strokes": []}'),
    ("empty.svg", '<svg xmlns="http://www.w3.org/2000/svg"></svg>'),
])
@pytest.mark.parametrize("command", ["plan", "simulate", "check"])
def test_drawing_with_no_strokes_has_null_bounds(run, tmp_path, name, text,
                                                  command):
    drawing = tmp_path / name
    drawing.write_text(text)
    out_path = tmp_path / "report.json"
    rc, out, err = run([command, "--drawing", str(drawing), "--speed", "10",
                        "--pressure", "30", "--out", str(out_path)])
    assert (rc, out, err) == (0, "", "")
    report = read_report(out_path.read_bytes())
    assert report["drawing"]["strokes"] == 0
    assert report["drawing"]["bounds_mm"] is None
    if command != "plan":  # a float, as for any other drawing
        assert b'"trace_length_mm": 0.0,' in out_path.read_bytes()


def test_simulate_report_and_pgm(run, tmp_path):
    out_path = tmp_path / "sim.json"
    pgm_path = tmp_path / "sim.pgm"
    rc, out, _ = run(["simulate", *PIPELINE, "--out", str(out_path),
                      "--pgm", str(pgm_path), "--scale", "0.05"])
    assert rc == 0
    report = read_report(out_path.read_bytes())
    assert len(report["traces"]) == 1
    physics = report["physics"][report["traces"][0]["physics"]]
    assert physics["width_m"] > 0.0
    assert physics["speed_mm_s"] == 40.0
    assert physics["clamped"] is True  # 0.92 N is past pvc-film's table
    # plan writes the actions and the estimate; totals state the latter
    assert set(report["toolpath"]) == {"action_count", "drawing_id",
                                       "policy"}
    totals = report["totals"]
    assert totals["print_time_s"] > 0.0
    assert totals["ink_volume_mm3"] > 0.0
    assert pgm_path.read_bytes().startswith(b"P5\n")


def test_simulate_raster_error_writes_nothing(run, tmp_path):
    out_path = tmp_path / "sim.json"
    pgm_path = tmp_path / "sim.pgm"
    rc, _, err = run(["simulate", "--drawing", SQUARE, "--speed", "10",
                      "--pressure", "30", "--out", str(out_path),
                      "--pgm", str(pgm_path), "--scale", "0.00001"])
    assert rc == 1 and err.startswith("error: raster")
    assert not out_path.exists() and not pgm_path.exists()


def test_render_writes_pgm(run, tmp_path):
    pgm_path = tmp_path / "img.pgm"
    rc, _, _ = run(["render", "--drawing", SQUARE, "--speed", "10",
                    "--pressure", "30", "--pgm", str(pgm_path),
                    "--scale", "0.05"])
    assert rc == 0
    blob = pgm_path.read_bytes()
    assert blob.startswith(b"P5\n")
    assert b"\xff" in blob


def test_render_pgm_to_stdout_is_write_pgm(capsysbinary):
    assert main(["render", "--drawing", SQUARE, "--speed", "10",
                 "--pressure", "30", "--pgm", "-", "--scale", "0.05"]) == 0
    toolpath = plan(parse_drawing(Path(SQUARE).read_bytes()),
                    MachineSettings(10, 30))
    image = rasterize(simulate(toolpath).traces, 0.05)
    assert capsysbinary.readouterr().out == write_pgm(image)


@pytest.mark.parametrize("drawing", [SQUARE, "missing.json"])
def test_simulate_refuses_report_and_pgm_both_on_stdout(capsysbinary,
                                                         drawing):
    # refused before any work: reading a missing drawing would exit 2
    rc = main(["simulate", "--drawing", drawing, "--speed", "10",
               "--pressure", "30", "--pgm", "-", "--scale", "0.05"])
    out, err = capsysbinary.readouterr()
    assert (rc, out) == (1, b"")
    assert err.startswith(b"error: --pgm -")


def test_render_holds_no_canvas(tmp_path):
    # two crossing strokes over 180 mm: about 36 Mpx at 0.03 mm/px, yet
    # tracemalloc, which sees numpy's buffers, finds no canvas-sized peak
    drawing = tmp_path / "cross.json"
    drawing.write_text(json.dumps({"version": 1, "units": "mm", "strokes": [
        {"closed": False, "points": [[0.0, 0.0], [180.0, 180.0]]},
        {"closed": False, "points": [[0.0, 180.0], [180.0, 0.0]]}]}))
    pgm_path = tmp_path / "cross.pgm"
    # a first render loads what render imports, which the peak would count
    assert main(["render", *PIPELINE, "--pgm", str(pgm_path)]) == 0
    tracemalloc.start()
    try:
        rc = main(["render", "--drawing", str(drawing), "--speed", "10",
                   "--pressure", "30", "--pgm", str(pgm_path),
                   "--scale", "0.03"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    canvas = pgm_path.stat().st_size
    assert canvas > 35_000_000
    assert peak < canvas / 4


@pytest.mark.parametrize("command", ["simulate", "render"])
@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_non_finite_raster_scale_is_domain_error(run, tmp_path, command,
                                                 scale):
    pgm_path = tmp_path / "img.pgm"
    argv = [command, *PIPELINE, "--pgm", str(pgm_path), "--scale", scale]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "sim.json")]
    rc, out, err = run(argv)
    assert rc == 1 and err.startswith("error:")
    assert "scale" in err and "finite" in err
    assert not pgm_path.exists()


@pytest.mark.parametrize("command", ["simulate", "render"])
def test_a_canvas_wider_than_any_float_is_a_raster_size_error(run, tmp_path,
                                                              command):
    # 1.9e303 mm at 1e-6 mm/px is an inf-pixel-wide canvas, which no int
    # can size
    drawing = tmp_path / "far.json"
    drawing.write_text(json.dumps({"version": 1, "units": "mm", "strokes": [
        {"closed": False, "points": [[1.9e303, 0], [0, 0]]}]}))
    pgm_path = tmp_path / "img.pgm"
    argv = [command, "--drawing", str(drawing), "--speed", "10",
            "--pressure", "30", "--pgm", str(pgm_path), "--scale", "1e-6"]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "sim.json")]
    with pytest.warns(UserWarning):  # the force is beyond the angle table
        rc, out, err = run(argv)
    assert (rc, out) == (1, "")
    assert err.startswith("error: raster inf") and err.count("\n") == 1
    assert not pgm_path.exists()


@pytest.mark.parametrize("command", ["simulate", "render"])
@pytest.mark.parametrize("far_mm, scale", [(1e200, "0.05"), (1e307, "0.01")])
def test_a_drawing_past_2_52_pixels_is_a_raster_size_error(
        run, tmp_path, command, far_mm, scale):
    # a finite stroke far from (0, 0): at 1e200 mm the kernels' margins
    # overflowed (render raised OverflowError), at 1e307 mm the canvas
    # origin did (int(-inf) raised it)
    drawing = tmp_path / "far.json"
    drawing.write_text(json.dumps({"version": 1, "units": "mm", "strokes": [
        {"closed": False, "points": [[far_mm, 0], [far_mm, 1]]}]}))
    pgm_path = tmp_path / "img.pgm"
    argv = [command, "--drawing", str(drawing), "--speed", "10",
            "--pressure", "30", "--pgm", str(pgm_path), "--scale", scale]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "sim.json")]
    with pytest.warns(UserWarning):  # the force is beyond the angle table
        rc, out, err = run(argv)
    assert (rc, out) == (1, "")
    assert err.startswith("error: raster ") and err.count("\n") == 1
    assert "2^52 px" in err
    assert not pgm_path.exists()


def test_check_report(run, tmp_path):
    out_path = tmp_path / "check.json"
    rc, out, _ = run(["check", *PIPELINE, "--pairs", "A:B",
                      "--resistivity", "2.9e-7", "--out", str(out_path)])
    assert rc == 0
    checks = read_report(out_path.read_bytes())["checks"]
    assert len(checks["nets"]) == 1
    assert checks["connectivity"] == [{"connected": True,
                                       "pads": ["A", "B"]}]
    assert checks["drc"]["passed"] is True
    (entry,) = checks["resistance"]
    assert set(entry) == {"approximate", "ohms", "pads", "path"}
    assert entry["pads"] == ["A", "B"] and entry["ohms"] > 0.0
    assert out == ""


def test_check_detects_open_pair(run, tmp_path):
    rc, out, _ = run(["check", "--drawing", f"{SAMPLES}/ic-sketch.json",
                      "--speed", "10", "--pressure", "30",
                      "--pairs", "L1:B1,L1:L2", "--resistivity", "2.9e-7",
                      "--out", str(tmp_path / "c.json")])
    assert rc == 0
    checks = read_report((tmp_path / "c.json").read_bytes())["checks"]
    verdicts = {tuple(c["pads"]): c["connected"]
                for c in checks["connectivity"]}
    assert verdicts == {("L1", "B1"): True, ("L1", "L2"): False}
    # connectivity states that L1:L2 is open, so resistance leaves it out
    assert [e["pads"] for e in checks["resistance"]] == [["L1", "B1"]]


def test_check_unknown_pad_is_domain_error(run, tmp_path):
    rc, _, err = run(["check", *PIPELINE, "--pairs", "A:Z",
                      "--out", str(tmp_path / "c.json")])
    assert rc == 1 and "error:" in err


@pytest.mark.parametrize("flag", ["--tolerance", "--min-width",
                                  "--min-clearance", "--resistivity"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_check_non_finite_limit_is_domain_error(run, tmp_path, flag, value):
    out_path = tmp_path / "c.json"
    rc, out, err = run(["check", *PIPELINE, "--pairs", "A:B", flag, value,
                        "--out", str(out_path)])
    assert rc == 1 and err.startswith("error:")
    assert "finite" in err
    assert not out_path.exists()


@pytest.mark.parametrize("table", ["[[0.0, 140.0], [0.2, NaN]]",
                                   "[[0.0, 140.0], [Infinity, 40.0]]"],
                         ids=["nan-angle", "inf-force"])
def test_non_finite_angle_table_is_domain_error(run, tmp_path, table):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f"""{{"substrate": {{"name": "bad", "youngs_modulus": 1e9,
        "poisson_ratio": 0.3, "friction_coefficient": 0.4,
        "gamma_sub_air": 0.04, "gamma_sub_lm": 0.5,
        "angle_table": {table}}}}}""")
    out_path = tmp_path / "p.json"
    rc, out, err = run(["plan", *PIPELINE, "--config", str(cfg),
                        "--out", str(out_path)])
    assert rc == 1 and err.startswith("error:")
    assert "finite" in err
    assert not out_path.exists()


# plan, check and both fits run in a fresh interpreter, so the modules they
# load are those of these CLI calls and not of the rest of the test session
_IMPORT_PROBE = """
import sys
def heavy(*roots):
    return sorted(m for m in sys.modules if m.split(".")[0] in roots)
import lmprint, lmprint.cli
print(heavy("numpy", "scipy"))
from lmprint.cli import main
pipeline = ["--drawing", "samples/grid-antenna.json", "--speed", "10",
            "--pressure", "30"]
assert main(["plan", *pipeline, "--out", sys.argv[1]]) == 0
assert main(["check", *pipeline, "--pairs", "feed:tip",
             "--out", sys.argv[2]]) == 0
assert main(["calibrate-flux", "--anchor"]) == 0
assert main(["fit-width", "--samples", sys.argv[3]]) == 0
assert main(["simulate", *pipeline, "--out", sys.argv[4]]) == 0
assert main(["line-width", "--q-mm3s", "0.0656", "--v-mms", "40"]) == 0
assert main(["contact-probe", "--force-n", "0.5"]) == 0
print(heavy("numpy", "scipy"))
"""


def test_plan_and_check_load_no_numpy_or_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-W", "ignore::UserWarning", "-c", _IMPORT_PROBE,
         str(tmp_path / "plan.json"), str(tmp_path / "check.json"),
         str(_write_widths(tmp_path / "widths.csv")),
         str(tmp_path / "simulate.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1:4] == ["kappa_pressure = 0", "kappa_couette = 0.227277589",
                          "residual_m3_s = 0"]
    assert lines[4:7] == ["a = 0.00032", "b = 0.31", "c = 0.47"]
    assert [lines[0], lines[-1]] == ["[]", "[]"]


def test_config_file_changes_environment(run, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"simulation": {"dwell_s": 0.0}}))
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    run(["plan", *PIPELINE, "--out", str(out_a)])
    run(["plan", *PIPELINE, "--config", str(cfg), "--out", str(out_b)])
    time_a = read_report(out_a.read_bytes())["toolpath"]["estimated_time_s"]
    time_b = read_report(out_b.read_bytes())["toolpath"]["estimated_time_s"]
    assert time_a == pytest.approx(time_b + 0.2, rel=1e-12)


def test_bad_config_is_domain_error(run, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"unknown-section": {}}))
    rc, _, err = run(["plan", *PIPELINE, "--config", str(cfg)])
    assert rc == 1 and "error:" in err


def test_repeated_runs_are_byte_identical(run, tmp_path):
    files = {}
    for tag in ("first", "second"):
        out_path = tmp_path / f"sim-{tag}.json"
        pgm_path = tmp_path / f"sim-{tag}.pgm"
        chk_path = tmp_path / f"chk-{tag}.json"
        run(["simulate", "--drawing", SQUARE, "--speed", "10",
             "--pressure", "30", "--out", str(out_path),
             "--pgm", str(pgm_path), "--scale", "0.05"])
        run(["check", "--drawing", SQUARE, "--speed", "10",
             "--pressure", "30", "--out", str(chk_path)])
        files[tag] = (out_path.read_bytes(), pgm_path.read_bytes(),
                      chk_path.read_bytes())
    assert files["first"] == files["second"]


@pytest.mark.parametrize("fields", ["10,50,1e-4,7", "10,50", "10,50,1e-4,"],
                         ids=["extra", "short", "trailing-comma"])
def test_fit_width_rejects_rows_of_the_wrong_field_count(run, tmp_path,
                                                         fields):
    path = tmp_path / "widths.csv"
    path.write_text(f"speed_mm_s,pressure_g,width_m\n20,100,1.2e-4\n"
                    f"{fields}\n160,100,6e-5\n")
    rc, out, err = run(["fit-width", "--samples", str(path)])
    count = len(fields.split(","))
    assert rc == 1 and out == ""
    assert err == (f"error: {path}: data row 2 has {count} fields, "
                   "the header 3\n")


@pytest.mark.parametrize("fields", ["1.0,60.0,5e-05,0.0656,1",
                                    "1.0,60.0,5e-05"],
                         ids=["extra", "short"])
def test_calibrate_flux_rejects_rows_of_the_wrong_field_count(run, tmp_path,
                                                              fields):
    path = tmp_path / "obs.csv"
    path.write_text("pressure_drop_pa,omega_y_rad_s,gap_width_m,flux_mm3_s\n"
                    f"{fields}\n")
    rc, out, err = run(["calibrate-flux", "--observations", str(path)])
    count = len(fields.split(","))
    assert rc == 1 and out == ""
    assert err == (f"error: {path}: data row 1 has {count} fields, "
                   "the header 4\n")


def test_csv_header_names_each_column_once(run, tmp_path):
    path = tmp_path / "widths.csv"
    path.write_text("speed_mm_s,pressure_g,width_m,width_m\n"
                    "10,50,1e-4,9\n20,100,1.2e-4,9\n160,100,6e-5,9\n")
    rc, out, err = run(["fit-width", "--samples", str(path)])
    assert rc == 1 and out == ""
    assert err == (f"error: {path}: expected CSV columns speed_mm_s, "
                   "pressure_g, width_m\n")


def test_csv_columns_in_any_order_and_blank_lines(run, tmp_path):
    path = tmp_path / "widths.csv"
    rows = _write_widths(tmp_path / "ordered.csv").read_text().splitlines()
    swapped = [",".join(reversed(r.split(","))) for r in rows]
    path.write_text("\n\n".join(swapped) + "\n\n")
    rc, out, _ = run(["fit-width", "--samples", str(path)])
    assert rc == 0
    assert out.splitlines()[:3] == ["a = 0.00032", "b = 0.31", "c = 0.47"]
