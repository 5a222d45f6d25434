"""End-to-end acceptance checks for the primary behaviors.

Each test covers one acceptance criterion and prints a single
``[PASS]``/``[FAIL]`` verdict line (visible with ``pytest -s`` or in the
captured output of a failing run). The criteria pin:

 1. the stable-line-width worked example against a high-precision oracle
 2. the slip-ratio / traction-fraction identity
 3. contact pressure quadrature balancing the applied load
 4. structural properties of the gap-flux model and its calibration
 5. machine dial anchors (speed and pressure)
 6. monotone trends of the fitted empirical width model
 7. the shape of the line-width law in contact angle and flux
 8. the grid-antenna pipeline producing exactly one net
 9. conservation of deposited volume between raster and flux integrals
10. byte-level determinism of every CLI subcommand
"""

import contextlib
import io
import math
import time

import numpy as np
import pytest
import scipy.ndimage
from scipy.integrate import quad

from conftest import sample
from lmprint import MachineSettings, extract_nets, plan, rasterize, simulate
from lmprint.cli import main as cli_main
from lmprint.contact import BeadGeometry, ContactLoad, SubstrateProperties, \
    contact_pressure, indentation, sr_fr_curve
from lmprint.core import PVC_FILM, pressure_setting_to_force, \
    speed_setting_to_velocity
from lmprint.flux import ANCHOR_CONDITIONS, ANCHOR_FLUX_M3_S, DEFAULT_BEAD, \
    DEFAULT_FLUX_PARAMS, FlowConditions, GAIN245, calibrate_flux, gap_flux
from lmprint.simulator import fit_width_model
from lmprint.wetting import stable_line_width

SETTINGS = MachineSettings(10.0, 30.0)  # 40 mm/s at 94 g


@contextlib.contextmanager
def _verdict(number, summary):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number:02d}: {summary}")
        raise
    print(f"[PASS] criterion {number:02d}: {summary}")


def test_criterion_01_line_width_worked_example():
    with _verdict(1, "line width at 40 deg / 0.0656 mm^3/s / 40 mm/s"):
        started = time.perf_counter()
        est = stable_line_width(math.radians(40.0), 0.0656e-9, 0.04)
        elapsed = time.perf_counter() - started
        # 50-digit evaluation of 2 sin(t)/sqrt(t - sin t cos t) * sqrt(Q/V)
        assert est.width == pytest.approx(1.1478176533021408e-4, rel=1e-9)
        assert abs(est.width * 1e6 - 126.0) / 126.0 < 0.10
        assert elapsed < 1.0


def test_criterion_02_slip_traction_identity():
    with _verdict(2, "(1 - Sr)^3 == 1 - Fr on 1000 points"):
        fr = np.linspace(0.0, 1.0, 1000)
        for f, s in sr_fr_curve(fr):
            assert abs((1.0 - s) ** 3 - (1.0 - f)) < 1e-12


def test_criterion_03_contact_force_balance():
    with _verdict(3, "pressure quadrature returns F cos(phi); "
                     "area scales 8F -> 4A"):
        rng = np.random.default_rng(20260826)
        for _ in range(100):
            force = float(rng.uniform(0.001, 5.0))
            phi = float(rng.uniform(0.0, 1.4))
            radius = float(rng.uniform(1e-4, 2e-3))
            substrate = SubstrateProperties(
                name="acceptance",
                youngs_modulus=float(rng.uniform(1e8, 3e11)),
                poisson_ratio=float(rng.uniform(0.05, 0.45)),
                friction_coefficient=0.4, gamma_sub_air=0.04,
                gamma_sub_lm=0.5, angle_table=((0.0, 140.0), (0.2, 40.0)))
            load = ContactLoad(force=force, normal_angle=phi)
            bead = BeadGeometry(bead_radius=radius, gap_width=radius / 10)
            sol = indentation(load, bead, substrate)
            integral, _ = quad(
                lambda r: contact_pressure(sol, load, r) * 2 * math.pi * r,
                0.0, sol.contact_radius, limit=200)
            assert integral == pytest.approx(force * math.cos(phi),
                                             rel=1e-6)
        base = indentation(ContactLoad(force=0.05), DEFAULT_BEAD, PVC_FILM)
        scaled = indentation(ContactLoad(force=0.4), DEFAULT_BEAD, PVC_FILM)
        assert scaled.contact_area == pytest.approx(4.0 * base.contact_area,
                                                    rel=1e-12)


def test_criterion_04_flux_model_properties():
    with _verdict(4, "flux: closed gap, monotone grid, spin-only zero, "
                     "calibrated anchor"):
        closed = BeadGeometry(bead_radius=3.5e-4, gap_width=0.0)
        assert gap_flux(closed, ANCHOR_CONDITIONS, DEFAULT_FLUX_PARAMS,
                        GAIN245) == 0.0

        pressures = np.linspace(0.5, 40.0, 10)
        gaps = np.linspace(5e-6, 2e-4, 10)
        grid = np.empty((10, 10))
        for i, dp in enumerate(pressures):
            for j, gw in enumerate(gaps):
                cond = FlowConditions(pressure_drop=float(dp),
                                      rotation=(0.0, 60.0, 0.0),
                                      head_velocity=0.04)
                bead = BeadGeometry(bead_radius=3.5e-4,
                                    gap_width=float(gw))
                grid[i, j] = gap_flux(bead, cond, DEFAULT_FLUX_PARAMS,
                                      GAIN245)
        assert (np.diff(grid, axis=0) > 0.0).all()  # increasing in dP
        assert (np.diff(grid, axis=1) > 0.0).all()  # increasing in GW

        spin_only = FlowConditions(pressure_drop=0.0,
                                   rotation=(0.0, 0.0, 300.0),
                                   head_velocity=0.04)
        assert gap_flux(DEFAULT_BEAD, spin_only, DEFAULT_FLUX_PARAMS,
                        GAIN245) == 0.0

        fitted = calibrate_flux(
            [(ANCHOR_CONDITIONS, DEFAULT_BEAD, ANCHOR_FLUX_M3_S)])
        reproduced = gap_flux(DEFAULT_BEAD, ANCHOR_CONDITIONS,
                              fitted.params, GAIN245)
        assert reproduced == pytest.approx(0.0656e-9, rel=1e-12)


def test_criterion_05_machine_unit_anchors():
    with _verdict(5, "dial 30 -> 120 mm/s and dial 60 -> 188 g, exact"):
        assert speed_setting_to_velocity(30.0) == 120.0
        assert pressure_setting_to_force(60.0).grams == 188.0


def test_criterion_06_width_model_trends():
    with _verdict(6, "fitted width model: falls with speed, "
                     "never falls with pressure"):
        rng = np.random.default_rng(7)
        samples = []
        for _ in range(30):
            v = float(rng.uniform(4.0, 200.0))
            f = float(rng.uniform(20.0, 800.0))
            w = 3.1e-4 * f ** 0.18 / v ** 0.52
            samples.append((v, f, w * float(rng.uniform(0.97, 1.03))))
        model = fit_width_model(samples)
        speeds = np.linspace(4.0, 200.0, 200)
        by_speed = [model.predict(v, 94.0) for v in speeds]
        assert all(a > b for a, b in zip(by_speed, by_speed[1:]))
        forces = np.linspace(0.5, 800.0, 200)
        by_force = [model.predict(40.0, f) for f in forces]
        assert all(a <= b for a, b in zip(by_force, by_force[1:]))


def test_criterion_07_line_width_shape():
    with _verdict(7, "width strictly falls with contact angle; "
                     "L(4Q) = 2 L(Q)"):
        thetas = np.linspace(0.01, math.pi - 0.01, 10_000)
        widths = [stable_line_width(float(t), 0.0656e-9, 0.04).width
                  for t in thetas]
        assert all(a > b for a, b in zip(widths, widths[1:]))
        one = stable_line_width(1.0, 1e-11, 0.04).width
        four = stable_line_width(1.0, 4e-11, 0.04).width
        assert four == pytest.approx(2.0 * one, rel=1e-12)


def test_criterion_08_grid_antenna_pipeline():
    with _verdict(8, "grid antenna plans, simulates, renders and "
                     "extracts one net"):
        started = time.perf_counter()
        drawing = sample("grid-antenna")
        toolpath = plan(drawing, SETTINGS)
        result = simulate(toolpath)
        image = rasterize(result.traces, 0.05)
        nets = extract_nets(result.traces, 0.05, pads=drawing.pads)
        elapsed = time.perf_counter() - started
        assert image.cells.any()
        assert len(nets.nets) == 1
        labels, count = scipy.ndimage.label(
            image.cells, structure=np.ones((3, 3), dtype=int))
        assert count == 1
        assert elapsed < 10.0


def test_criterion_09_volume_conservation():
    # Pixel size per sample keeps the width-quantization error small
    # against each drawing's extent while staying inside a reasonable
    # raster budget; overlaps at crossings and retap caps are physical
    # differences between footprint and ink spent and stay within the
    # tolerance.
    scales = {"straight-line": 0.002, "square": 0.002,
              "grid-antenna": 0.005, "ic-sketch": 0.0025}
    with _verdict(9, "raster volume matches flux integral within 2% "
                     "on the sample corpus"):
        for name, scale in scales.items():
            toolpath = plan(sample(name), SETTINGS)
            result = simulate(toolpath)
            # identical settings everywhere -> one shared film thickness
            thickness = {t.cross_section_m2 / t.width_m
                         for t in result.traces}
            assert len(thickness) == 1
            image = rasterize(result.traces, scale,
                              max_pixels=250_000_000)
            raster_volume = image.occupied_area_mm2() * \
                thickness.pop() * 1e3
            deposited = result.ink_volume_mm3  # sum of Q * dt
            assert raster_volume == pytest.approx(deposited, rel=0.02), \
                name


def test_criterion_10_cli_determinism(tmp_path, capsys):
    with _verdict(10, "every CLI subcommand is byte-deterministic"):
        widths_csv = tmp_path / "widths.csv"
        rows = ["speed_mm_s,pressure_g,width_m"]
        for v, f in [(10, 50), (20, 100), (40, 200), (80, 400),
                     (160, 100), (5, 300)]:
            rows.append(f"{v},{f},{3.2e-4 * f ** 0.31 / v ** 0.47!r}")
        widths_csv.write_text("\n".join(rows) + "\n")

        def invocations(tag):
            base = tmp_path / tag
            base.mkdir()
            return [
                (["plan", "--drawing", "samples/grid-antenna.json",
                  "--speed", "10", "--pressure", "30",
                  "--out", str(base / "plan.json")],
                 [base / "plan.json"]),
                (["simulate", "--drawing", "samples/square.json",
                  "--speed", "10", "--pressure", "30",
                  "--out", str(base / "sim.json"),
                  "--pgm", str(base / "sim.pgm"), "--scale", "0.05"],
                 [base / "sim.json", base / "sim.pgm"]),
                (["render", "--drawing", "samples/ic-sketch.json",
                  "--speed", "10", "--pressure", "30",
                  "--pgm", str(base / "render.pgm"), "--scale", "0.05"],
                 [base / "render.pgm"]),
                (["check", "--drawing", "samples/ic-sketch.json",
                  "--speed", "10", "--pressure", "30",
                  "--pairs", "L1:B1,L1:L2",
                  "--out", str(base / "check.json")],
                 [base / "check.json"]),
                (["calibrate-flux", "--anchor"], []),
                (["fit-width", "--samples", str(widths_csv)], []),
                (["flux-table", "--pressures", "1,2,5",
                  "--gap-widths", "2e-5,5e-5", "--omega-y", "60"], []),
                (["line-width", "--theta-deg", "40",
                  "--q-mm3s", "0.0656", "--v-mms", "40"], []),
                (["contact-probe", "--force-n", "0.05",
                  "--tangential-angle-deg", "11.31"], []),
            ]

        outputs = {}
        for tag in ("first", "second"):
            collected = []
            for argv, files in invocations(tag):
                assert cli_main(argv) == 0, argv
                captured = capsys.readouterr()
                collected.append(captured.out)
                for path in files:
                    collected.append(path.read_bytes())
            outputs[tag] = collected
        assert outputs["first"] == outputs["second"]
