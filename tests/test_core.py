"""Units, calibrations, machine limits and substrate presets."""

import math

import pytest

import lmprint
from lmprint import (DEFAULT_LIMITS, GAIN245, PVC_FILM, STAINLESS_STEEL,
                     OFFICE_PAPER, MachineLimits, MachineSettings,
                     PressureCalibration, SpeedCalibration,
                     dynamic_viscosity, grams_to_newtons, newtons_to_grams,
                     pressure_setting_to_force, speed_setting_to_velocity,
                     validate_settings)
from lmprint.errors import ConfigError, InvalidSettingError


def test_gravity_conversion_round_trip():
    assert grams_to_newtons(188.0) == pytest.approx(1.8436502, rel=1e-12)
    assert newtons_to_grams(grams_to_newtons(123.4)) == pytest.approx(123.4, rel=1e-12)


def test_speed_anchor_setting_30_gives_120_mm_s():
    assert speed_setting_to_velocity(30.0) == 120.0
    assert speed_setting_to_velocity(0.0) == 0.0


def test_pressure_anchor_setting_60_gives_188_g():
    force = pressure_setting_to_force(60.0)
    assert force.grams == 188.0
    assert force.newtons == pytest.approx(1.8436502, rel=1e-12)


def test_pressure_calibration_interpolates_and_extrapolates():
    cal = PressureCalibration()
    assert cal.force(30.0).grams == pytest.approx(94.0, rel=1e-12)
    # beyond the last anchor the final slope continues
    assert cal.force(120.0).grams == pytest.approx(376.0, rel=1e-12)
    # inverse map round-trips
    assert cal.setting(cal.force(45.0).grams) == pytest.approx(45.0, rel=1e-12)


def test_pressure_calibration_multi_anchor():
    cal = PressureCalibration(anchors=((0, 0), (30, 100), (60, 188)))
    assert cal.force(15.0).grams == pytest.approx(50.0)
    assert cal.force(45.0).grams == pytest.approx(144.0)
    with pytest.raises(ConfigError):
        PressureCalibration(anchors=((0, 0),))
    with pytest.raises(ConfigError):
        PressureCalibration(anchors=((1, 0), (60, 188)))
    with pytest.raises(ConfigError):
        PressureCalibration(anchors=((0, 0), (10, 50), (10, 60)))


def test_negative_settings_rejected():
    with pytest.raises(InvalidSettingError):
        MachineSettings(speed_setting=-1, pressure_setting=0)
    with pytest.raises(InvalidSettingError):
        SpeedCalibration().velocity_mm_s(-2)
    with pytest.raises(InvalidSettingError):
        PressureCalibration().force(-0.5)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_settings_rejected(value):
    with pytest.raises(InvalidSettingError, match="speed setting"):
        MachineSettings(speed_setting=value, pressure_setting=30)
    with pytest.raises(InvalidSettingError, match="pressure setting"):
        MachineSettings(speed_setting=10, pressure_setting=value)


def test_validate_settings_ok():
    verdict = validate_settings(MachineSettings(30, 60))
    assert verdict.ok
    assert verdict.status == "ok"
    assert verdict.speed_mm_s == 120.0
    assert verdict.force_g == 188.0
    assert not verdict.warnings and not verdict.violations


def test_validate_settings_quality_warning_band():
    # between preferred (200 mm/s -> setting 50) and hard (400 -> 100)
    verdict = validate_settings(MachineSettings(75, 60))
    assert verdict.ok
    assert verdict.status == "ok-with-quality-warning"
    assert verdict.warnings


def test_validate_settings_violations():
    verdict = validate_settings(MachineSettings(150, 60))
    assert not verdict.ok
    assert verdict.status == "violation"
    assert any("speed" in v for v in verdict.violations)
    too_hard = validate_settings(MachineSettings(30, 300))
    assert not too_hard.ok
    assert any("pressure" in v for v in too_hard.violations)


def test_machine_limits_validation():
    with pytest.raises(ConfigError):
        MachineLimits(max_speed=100, preferred_max_speed=200)
    assert DEFAULT_LIMITS.max_speed == 400.0
    assert DEFAULT_LIMITS.preferred_max_speed == 200.0
    assert DEFAULT_LIMITS.max_pressure == 800.0


def test_ink_constants():
    assert GAIN245.density == 6280.0
    assert GAIN245.kinematic_viscosity == 2.7e-7
    assert GAIN245.surface_tension_lm_air == 0.624
    assert dynamic_viscosity(GAIN245) == pytest.approx(1.6956e-3, rel=1e-12)


def test_substrate_presets_are_consistent():
    for sub in (PVC_FILM, STAINLESS_STEEL, OFFICE_PAPER):
        forces = [f for f, _ in sub.angle_table]
        angles = [a for _, a in sub.angle_table]
        assert forces == sorted(forces)
        assert angles == sorted(angles, reverse=True)
        assert 0 < sub.poisson_ratio < 0.5
    # PVC wets best at high force among the three presets
    assert PVC_FILM.angle_table[-1][1] < STAINLESS_STEEL.angle_table[-1][1]
    assert STAINLESS_STEEL.angle_table[-1][1] < OFFICE_PAPER.angle_table[-1][1]


def test_substrate_table_validation():
    from lmprint import SubstrateProperties
    with pytest.raises(ConfigError):
        SubstrateProperties(name="bad", youngs_modulus=1e9, poisson_ratio=0.3,
                            friction_coefficient=0.4, gamma_sub_air=0.04,
                            gamma_sub_lm=0.5,
                            angle_table=((0.0, 140.0), (0.1, 150.0)))
    # non-finite entries compare false in the order checks, so each one is
    # named: ((0, 140), (inf, 40)) used to answer 140 deg at every force
    for table in (((0.0, 140.0), (math.inf, 40.0)),
                  ((-math.inf, 140.0), (0.1, 40.0)),
                  ((0.0, 140.0), (math.nan, 40.0)),
                  ((0.0, math.nan), (0.1, 40.0)),
                  ((0.0, math.inf),),
                  ((math.nan, 90.0),)):
        with pytest.raises(ConfigError, match="finite"):
            SubstrateProperties(name="bad", youngs_modulus=1e9,
                                poisson_ratio=0.3, friction_coefficient=0.4,
                                gamma_sub_air=0.04, gamma_sub_lm=0.5,
                                angle_table=table)


def test_bead_geometry_defaults():
    from lmprint import DEFAULT_BEAD
    assert DEFAULT_BEAD.bead_radius == 3.5e-4
    assert DEFAULT_BEAD.gap_width == 5e-5
    assert DEFAULT_BEAD.channel_width_eff == pytest.approx(
        0.25 * 2 * math.pi * 3.5e-4, rel=1e-15)
    assert DEFAULT_BEAD.channel_length_eff == 3.5e-4
    from lmprint import BeadGeometry
    with pytest.raises(ConfigError):
        BeadGeometry(bead_radius=3.5e-4, gap_width=4e-4)  # gap >= radius


def test_public_surface_importable():
    assert lmprint.__version__
