"""Reduced gap-flux model: basis terms, calibration, grids."""


import numpy as np
import pytest

from lmprint import (DEFAULT_BEAD, DEFAULT_FLUX_PARAMS, GAIN245,
                     BeadGeometry, FlowConditions, FluxModelParams,
                     calibrate_flux, cross_section_area, default_flux_params,
                     flux_table, gap_flux)
from lmprint.core import replace
from lmprint.flux import (ANCHOR_CONDITIONS, ANCHOR_FLUX_M3_S,
                          ANCHOR_GAP_WIDTH, couette_term, pressure_term)
from lmprint.errors import CalibrationError, ConfigError, DomainError

# mpmath oracle values for the default bead (R=3.5e-4, GW=5e-5) and GaIn24.5
ORACLE_PRESSURE_TERM = 9.6499538437407642e-12   # m^3/s per Pa
ORACLE_COUETTE_TERM = 4.8105637508093709e-12    # m^3/s per rad/s
ORACLE_EQUAL_SCALE = 0.21992479860490582
ORACLE_COUETTE_ONLY = 0.22727758948197734


def test_basis_terms_match_oracle():
    assert pressure_term(DEFAULT_BEAD, GAIN245) == pytest.approx(
        ORACLE_PRESSURE_TERM, rel=1e-12)
    assert couette_term(DEFAULT_BEAD) == pytest.approx(
        ORACLE_COUETTE_TERM, rel=1e-12)


def test_closed_gap_passes_nothing():
    bead = replace(DEFAULT_BEAD, gap_width=0.0)
    cond = FlowConditions(pressure_drop=100.0, rotation=(0, 500, 0),
                          head_velocity=0.1)
    assert gap_flux(bead, cond, DEFAULT_FLUX_PARAMS, GAIN245) == 0.0


def test_vertical_axis_rotation_contributes_nothing():
    base = FlowConditions(pressure_drop=1.0, rotation=(0.0, 0.0, 0.0))
    spun = FlowConditions(pressure_drop=1.0, rotation=(0.0, 0.0, 900.0))
    q0 = gap_flux(DEFAULT_BEAD, base, DEFAULT_FLUX_PARAMS, GAIN245)
    q1 = gap_flux(DEFAULT_BEAD, spun, DEFAULT_FLUX_PARAMS, GAIN245)
    assert q0 == q1
    # x-axis (travel-parallel) rotation moves nothing either
    rolled = FlowConditions(pressure_drop=1.0, rotation=(800.0, 0.0, 0.0))
    assert gap_flux(DEFAULT_BEAD, rolled, DEFAULT_FLUX_PARAMS, GAIN245) == q0


def test_transverse_rotation_sign_irrelevant():
    fwd = FlowConditions(pressure_drop=0.0, rotation=(0, 60, 0))
    rev = FlowConditions(pressure_drop=0.0, rotation=(0, -60, 0))
    assert gap_flux(DEFAULT_BEAD, fwd, DEFAULT_FLUX_PARAMS, GAIN245) == \
        gap_flux(DEFAULT_BEAD, rev, DEFAULT_FLUX_PARAMS, GAIN245)


def test_default_params_reproduce_anchor_exactly():
    bead = replace(DEFAULT_BEAD, gap_width=ANCHOR_GAP_WIDTH)
    q = gap_flux(bead, ANCHOR_CONDITIONS, DEFAULT_FLUX_PARAMS, GAIN245)
    assert q == pytest.approx(ANCHOR_FLUX_M3_S, rel=1e-12)
    assert DEFAULT_FLUX_PARAMS.kappa_pressure == pytest.approx(
        ORACLE_EQUAL_SCALE, rel=1e-12)
    assert DEFAULT_FLUX_PARAMS.kappa_couette == pytest.approx(
        ORACLE_EQUAL_SCALE, rel=1e-12)


def test_single_anchor_nnls_lands_on_dominant_term():
    fit = calibrate_flux([(ANCHOR_CONDITIONS,
                           replace(DEFAULT_BEAD,
                                               gap_width=ANCHOR_GAP_WIDTH),
                           ANCHOR_FLUX_M3_S)])
    # the Couette column dominates the single-row system
    assert fit.params.kappa_pressure == 0.0
    assert fit.params.kappa_couette == pytest.approx(ORACLE_COUETTE_ONLY,
                                                     rel=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-18)
    bead = replace(DEFAULT_BEAD, gap_width=ANCHOR_GAP_WIDTH)
    q = gap_flux(bead, ANCHOR_CONDITIONS, fit.params, GAIN245)
    assert q == pytest.approx(ANCHOR_FLUX_M3_S, rel=1e-12)


def test_two_point_calibration_recovers_both_constants():
    true = FluxModelParams(kappa_pressure=0.8, kappa_couette=0.3)
    obs = []
    for dp, wy in ((2.0, 10.0), (0.5, 300.0), (5.0, 0.0)):
        cond = FlowConditions(pressure_drop=dp, rotation=(0, wy, 0))
        obs.append((cond, DEFAULT_BEAD,
                    gap_flux(DEFAULT_BEAD, cond, true, GAIN245)))
    fit = calibrate_flux(obs)
    assert fit.params.kappa_pressure == pytest.approx(0.8, rel=1e-9)
    assert fit.params.kappa_couette == pytest.approx(0.3, rel=1e-9)


def test_calibration_errors():
    with pytest.raises(CalibrationError):
        calibrate_flux([])
    closed = replace(DEFAULT_BEAD, gap_width=0.0)
    cond = FlowConditions(pressure_drop=1.0, rotation=(0, 60, 0))
    with pytest.raises(CalibrationError):
        calibrate_flux([(cond, closed, 1e-12)])


def test_flux_strictly_increasing_in_pressure_and_gap():
    pressures = np.linspace(0.0, 10.0, 10)
    gaps = np.linspace(0.0, 2e-4, 10)
    cond = FlowConditions(pressure_drop=0.0, rotation=(0, 60, 0))
    table = flux_table(pressures, gaps, cond, DEFAULT_FLUX_PARAMS,
                       DEFAULT_BEAD, GAIN245)
    assert table.shape == (10, 10)
    # strictly increasing along pressure for every open gap
    assert (np.diff(table[:, 1:], axis=0) > 0).all()
    # strictly increasing along gap width everywhere
    assert (np.diff(table, axis=1) > 0).all()
    # closed gap column is identically zero
    assert (table[:, 0] == 0.0).all()


def test_flux_table_validation():
    cond = FlowConditions(pressure_drop=1.0)
    with pytest.raises(ConfigError):
        flux_table([], [5e-5], cond, DEFAULT_FLUX_PARAMS, DEFAULT_BEAD,
                   GAIN245)


def test_cross_section_area():
    assert cross_section_area(0.0656e-9, 0.04) == pytest.approx(1.64e-9,
                                                                rel=1e-12)
    with pytest.raises(DomainError):
        cross_section_area(1e-9, 0.0)


def test_conditions_validation():
    with pytest.raises(ConfigError):
        FlowConditions(pressure_drop=-1.0)
    with pytest.raises(ConfigError):
        FluxModelParams(kappa_pressure=-0.1, kappa_couette=0.0)


def test_default_params_scale_with_bead():
    small = BeadGeometry(bead_radius=2e-4, gap_width=3e-5)
    params = default_flux_params(small, GAIN245)
    assert params.kappa_pressure == params.kappa_couette > 0
    # anchor is still reproduced: the anchor bead overrides the gap width
    bead = replace(small, gap_width=ANCHOR_GAP_WIDTH)
    q = gap_flux(bead, ANCHOR_CONDITIONS, params, GAIN245)
    assert q == pytest.approx(ANCHOR_FLUX_M3_S, rel=1e-12)
