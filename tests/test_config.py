"""Run configuration JSON: the documented keys, nulls and malformed values."""

import json
import re
from pathlib import Path

import pytest

from lmprint import config
from lmprint.cli import main
from lmprint.config import load_config
from lmprint.core import (GAIN245, PVC_FILM, STAINLESS_STEEL, BeadGeometry,
                          InkProperties, MachineLimits, PressureCalibration,
                          Record, SpeedCalibration, SubstrateProperties,
                          replace)
from lmprint.environment import CornerPolicy, Environment
from lmprint.flux import FluxModelParams

README = Path(__file__).resolve().parent.parent / "README.md"
PIPELINE = ["--drawing", "samples/straight-line.json", "--speed", "10",
            "--pressure", "30"]


def _readme_config() -> dict:
    text = README.read_text(encoding="utf-8")
    section = text.split("### Run configuration JSON", 1)[1]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.S)[1])


README_DOC = _readme_config()

# section -> (Environment field, None for the Environment itself; record)
RECORDS = {
    "bead": ("bead", BeadGeometry),
    "limits": ("limits", MachineLimits),
    "speed_calibration": ("speed_calibration", SpeedCalibration),
    "pressure_calibration": ("pressure_calibration", PressureCalibration),
    "flux": ("flux_params", FluxModelParams),
    "policy": ("policy", CornerPolicy),
    "simulation": (None, Environment),
}

# (section, JSON key) -> (the field it names, a value other than README's)
FIELDS = {
    ("bead", "bead_radius_m"): ("bead_radius", 4e-4),
    ("bead", "gap_width_m"): ("gap_width", 4e-5),
    ("bead", "channel_width_m"): ("channel_width_eff", 5e-4),
    ("bead", "channel_length_m"): ("channel_length_eff", 3e-4),
    ("limits", "max_speed_mm_s"): ("max_speed", 300),
    ("limits", "preferred_max_speed_mm_s"): ("preferred_max_speed", 150),
    ("limits", "max_pressure_g"): ("max_pressure", 700.5),
    ("speed_calibration", "mm_s_per_unit"): ("mm_s_per_unit", 3),
    ("pressure_calibration", "anchors"): ("anchors", [[0, 0], [50, 150]]),
    ("flux", "kappa_pressure"): ("kappa_pressure", 0.3),
    ("flux", "kappa_couette"): ("kappa_couette", 0.1),
    ("policy", "threshold_angle_deg"): ("threshold_angle", 120),
    ("policy", "strategy"): ("strategy", "fillet"),
    ("policy", "slowdown_factor"): ("slowdown_factor", 0.25),
    ("policy", "fillet_radius_mm"): ("fillet_radius_mm", 1.5),
    ("simulation", "pressure_drop_pa"): ("pressure_drop", 2.5),
    ("simulation", "tangential_angle_rad"): ("tangential_angle", 0.1),
    ("simulation", "dwell_s"): ("dwell_s", 0),
    ("simulation", "s_max"): ("s_max", 0.2),
    ("simulation", "chord_tolerance_mm"): ("chord_tolerance_mm", 0.01),
    ("simulation", "max_raster_pixels"): ("max_raster_pixels", 1000),
    ("simulation", "resistivity_ohm_m"): ("resistivity_ohm_m", 1.7e-8),
}


def _expected(section: str, spec: dict) -> Environment:
    """The default Environment with one section set field by field from
    FIELDS (built afresh: the default flux constants follow the bead)."""
    env_field, record = RECORDS[section]
    values = {FIELDS[section, key][0]: value for key, value in spec.items()}
    if env_field is None:
        return Environment(**values)
    return Environment(**{env_field: record(**values)})


def test_readme_config_builds_the_documented_environment():
    assert load_config(json.dumps(README_DOC)) == replace(
        Environment(), ink=GAIN245, substrate=PVC_FILM,
        bead=BeadGeometry(bead_radius=3.5e-4, gap_width=5e-5),
        limits=MachineLimits(max_speed=400.0, preferred_max_speed=200.0,
                             max_pressure=800.0),
        speed_calibration=SpeedCalibration(mm_s_per_unit=4.0),
        pressure_calibration=PressureCalibration(((0.0, 0.0), (60.0, 188.0))),
        flux_params=FluxModelParams(kappa_pressure=0.22, kappa_couette=0.22),
        policy=CornerPolicy(threshold_angle=135.0, strategy="lift-and-retap",
                            slowdown_factor=0.5, fillet_radius_mm=0.5),
        pressure_drop=1.0, tangential_angle=0.0, dwell_s=0.1, s_max=0.05,
        chord_tolerance_mm=0.05, max_raster_pixels=50_000_000,
        resistivity_ohm_m=2.9e-7)


def test_readme_documents_every_key():
    documented = {(section, key) for section, spec in README_DOC.items()
                  if isinstance(spec, dict) for key in spec}
    assert documented == set(FIELDS)


@pytest.mark.parametrize("section,key", sorted(FIELDS))
def test_each_readme_key_sets_the_field_it_names(section, key):
    spec = {**README_DOC[section], key: FIELDS[section, key][1]}
    env = load_config(json.dumps({section: spec}))
    assert env == _expected(section, spec)
    assert env != _expected(section, README_DOC[section])


@pytest.mark.parametrize("section", ["ink", "substrate", *RECORDS])
def test_null_section_is_absent(section):
    assert load_config(json.dumps({section: None})) == Environment()


def test_null_is_accepted_where_the_field_is_optional():
    env = load_config(json.dumps({
        "bead": {"bead_radius_m": 4e-4, "channel_width_m": None,
                 "channel_length_m": None},
        "simulation": {"resistivity_ohm_m": None}}))
    assert env == Environment(
        bead=BeadGeometry(bead_radius=4e-4, gap_width=5e-5))
    assert env.bead.channel_length_eff == 4e-4
    assert env.resistivity_ohm_m is None


def test_inline_records_take_the_config_defaults():
    env = load_config(json.dumps({
        "ink": {"density": 6000, "kinematic_viscosity": 3e-7,
                "surface_tension_lm_air": 0.5},
        "substrate": {"youngs_modulus": 1e9, "poisson_ratio": 0.3,
                      "friction_coefficient": 0.4, "gamma_sub_air": 0.04,
                      "gamma_sub_lm": 0.5,
                      "angle_table": [[0, 140], [0.2, 40]]}}))
    assert env.ink == InkProperties("custom", 6000.0, 3e-7, 0.5, 15.5)
    assert env.substrate == SubstrateProperties(
        "custom", 1e9, 0.3, 0.4, 0.04, 0.5, ((0.0, 140.0), (0.2, 40.0)))


def test_presets_are_case_insensitive():
    env = load_config('{"ink": "GaIn24.5", "substrate": "Stainless-Steel"}')
    assert (env.ink, env.substrate) == (GAIN245, STAINLESS_STEEL)


def test_an_annotation_without_a_reader_fails():
    class Listed(Record):
        values: list

    with pytest.raises(KeyError):
        config._schema("record", Listed)


SUBSTRATE = {"youngs_modulus": 1e9, "poisson_ratio": 0.3,
             "friction_coefficient": 0.4, "gamma_sub_air": 0.04,
             "gamma_sub_lm": 0.5, "angle_table": [[0, 140], [0.2, 40]]}
INK = {"density": 6000, "kinematic_viscosity": 3e-7,
       "surface_tension_lm_air": 0.5}

MALFORMED = {
    "ink-null-number": ({"ink": {**INK, "density": None}}, "ink.density"),
    "ink-null-name": ({"ink": {**INK, "name": None}}, "ink.name"),
    "ink-number-name": ({"ink": {**INK, "name": 7}}, "ink.name"),
    "ink-missing": ({"ink": {"density": 6000}}, "ink needs"),
    "ink-unknown-preset": ({"ink": "galinstan"}, "unknown ink preset"),
    "substrate-null-pair": (
        {"substrate": {**SUBSTRATE, "angle_table": [[0, None], [0.2, 40]]}},
        "substrate.angle_table"),
    "substrate-string-pair": (
        {"substrate": {**SUBSTRATE, "angle_table": [[0, "140"], [0.2, 40]]}},
        "substrate.angle_table"),
    "substrate-bool-pair": (
        {"substrate": {**SUBSTRATE, "angle_table": [[0, 140], [True, 40]]}},
        "substrate.angle_table"),
    "substrate-short-pair": (
        {"substrate": {**SUBSTRATE, "angle_table": [[0, 140], [0.2]]}},
        "substrate.angle_table"),
    "substrate-missing": ({"substrate": {"youngs_modulus": 1e9}},
                          "substrate needs"),
    "bead-null-number": ({"bead": {"bead_radius_m": None}},
                         "bead.bead_radius_m"),
    "bead-unknown-key": ({"bead": {"radius": 1e-4}}, "unknown keys"),
    "limits-bool-number": ({"limits": {"max_speed_mm_s": True}},
                           "limits.max_speed_mm_s"),
    "limits-huge-int": ({"limits": {"max_pressure_g": 10 ** 400}},
                        "limits.max_pressure_g"),
    "speed-string-number": ({"speed_calibration": {"mm_s_per_unit": "4"}},
                            "speed_calibration.mm_s_per_unit"),
    "pressure-string-pair": (
        {"pressure_calibration": {"anchors": [[0, 0], [60, "x"]]}},
        "pressure_calibration.anchors"),
    "pressure-null-anchors": ({"pressure_calibration": {"anchors": None}},
                              "pressure_calibration.anchors"),
    "flux-missing": ({"flux": {"kappa_pressure": 0.2}}, "flux needs"),
    "flux-string-number": (
        {"flux": {"kappa_pressure": "0.2", "kappa_couette": 0.2}},
        "flux.kappa_pressure"),
    "policy-number-strategy": ({"policy": {"strategy": 3}},
                               "policy.strategy"),
    "policy-unknown-key": ({"policy": {"threshold": 90}}, "unknown keys"),
    "simulation-null-number": ({"simulation": {"dwell_s": None}},
                               "simulation.dwell_s"),
    "simulation-float-pixels": ({"simulation": {"max_raster_pixels": 1e6}},
                                "simulation.max_raster_pixels"),
    "section-not-object": ({"simulation": [1]}, "must be an object"),
    "unknown-section": ({"printer": {}}, "unknown keys in 'config'"),
}


@pytest.mark.parametrize("doc,message", MALFORMED.values(),
                         ids=MALFORMED.keys())
def test_malformed_config_is_a_domain_error(capsys, tmp_path, doc, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out_path = tmp_path / "plan.json"
    rc = main(["plan", *PIPELINE, "--config", str(cfg),
               "--out", str(out_path)])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error:"), err
    assert message in err and "Traceback" not in err
    assert not out_path.exists()
