"""Young equilibrium, force-dependent angles and stable line width."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lmprint import (OFFICE_PAPER, PVC_FILM, STAINLESS_STEEL,
                     BeadWettingPair, SubstrateProperties,
                     SurfaceTensionTriple, angle_at_force,
                     deposition_feasible, force_clamped, stable_line_width,
                     wettability_ranking, young_contact_angle)
from lmprint.wetting import line_width_profile
from lmprint.errors import NoEquilibriumError, WettingDomainError

# mpmath oracles
ORACLE_L40 = 1.1478176533021408e-4      # m, theta=40deg Q=0.0656mm^3/s V=40mm/s
ORACLE_L90 = 6.462372402400943e-5       # m, same Q,V at 90 deg
ORACLE_YOUNG = 1.5387395545734066       # rad, (0.050, 0.030, 0.624)
Q_REF = 0.0656e-9
V_REF = 0.040


def test_young_contact_angle_oracle():
    t = SurfaceTensionTriple(gamma_sub_air=0.050, gamma_sub_lm=0.030,
                             gamma_lm_air=0.624)
    assert young_contact_angle(t) == pytest.approx(ORACLE_YOUNG, rel=1e-12)


def test_young_equilibrium_breakdown():
    with pytest.raises(NoEquilibriumError):
        young_contact_angle(SurfaceTensionTriple(1.0, 0.0, 0.5))
    with pytest.raises(NoEquilibriumError):
        young_contact_angle(SurfaceTensionTriple(0.0, 1.0, 0.5))
    # boundary values are legal: complete wetting / dewetting limits
    assert young_contact_angle(SurfaceTensionTriple(0.5, 0.0, 0.5)) == 0.0
    assert young_contact_angle(SurfaceTensionTriple(0.0, 0.5, 0.5)) == \
        pytest.approx(math.pi, rel=1e-15)


def test_presets_zero_force_angles_by_construction():
    # gamma_sub_lm of each preset is back-computed from its zero-force angle
    for sub, deg in ((PVC_FILM, 140.0), (STAINLESS_STEEL, 145.0),
                     (OFFICE_PAPER, 150.0)):
        t = SurfaceTensionTriple(sub.gamma_sub_air, sub.gamma_sub_lm, 0.624)
        assert math.degrees(young_contact_angle(t)) == pytest.approx(
            deg, rel=1e-12)


def test_stable_line_width_oracle_40deg():
    est = stable_line_width(math.radians(40.0), Q_REF, V_REF)
    assert est.width == pytest.approx(ORACLE_L40, rel=1e-12)
    assert est.cross_section_area == pytest.approx(1.64e-9, rel=1e-12)
    # within 10% of the 126 um reference value
    assert abs(est.width * 1e6 - 126.0) / 126.0 < 0.10


def test_stable_line_width_90deg_closed_form():
    est = stable_line_width(math.pi / 2, Q_REF, V_REF)
    closed = 2.0 / math.sqrt(math.pi / 2) * math.sqrt(Q_REF / V_REF)
    assert est.width == pytest.approx(closed, rel=1e-14)
    assert est.width == pytest.approx(ORACLE_L90, rel=1e-12)


def test_width_scaling_in_flux_and_speed():
    base = stable_line_width(math.radians(40.0), Q_REF, V_REF).width
    quad = stable_line_width(math.radians(40.0), 4 * Q_REF, V_REF).width
    assert quad == pytest.approx(2.0 * base, rel=1e-12)
    fast = stable_line_width(math.radians(40.0), Q_REF, 4 * V_REF).width
    assert fast == pytest.approx(0.5 * base, rel=1e-12)


def test_width_strictly_decreasing_in_angle():
    thetas = np.linspace(0.01, math.pi - 0.01, 10_000)
    widths = [stable_line_width(float(t), Q_REF, V_REF).width
              for t in thetas]
    diffs = np.diff(widths)
    assert (diffs < 0).all()


def test_width_domain():
    with pytest.raises(WettingDomainError):
        stable_line_width(0.0, Q_REF, V_REF)
    with pytest.raises(WettingDomainError):
        stable_line_width(math.pi + 1e-9, Q_REF, V_REF)
    with pytest.raises(WettingDomainError):
        stable_line_width(1.0, -1e-12, V_REF)
    # theta = pi is legal and gives zero width (sin(pi) numerics)
    assert stable_line_width(math.pi, Q_REF, V_REF).width == \
        pytest.approx(0.0, abs=1e-15)


def test_angle_at_force_interpolation():
    assert angle_at_force(PVC_FILM, 0.0) == 140.0
    assert angle_at_force(PVC_FILM, 0.20) == 40.0
    assert angle_at_force(PVC_FILM, 0.075) == pytest.approx(97.5, rel=1e-12)


def test_angle_at_force_clamps_with_warning():
    with pytest.warns(UserWarning):
        assert angle_at_force(PVC_FILM, 1.84) == 40.0
    with pytest.warns(UserWarning):
        assert angle_at_force(PVC_FILM, -0.01) == 140.0


_FORCE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _table_and_force(draw):
    """A valid angle table and a force at, beside, between or past a knot, or NaN."""
    forces = sorted(draw(st.lists(_FORCE, min_size=1, max_size=8, unique=True)))
    angles = sorted(draw(st.lists(st.floats(1e-3, 180.0), min_size=len(forces),
                                  max_size=len(forces), unique=True)),
                    reverse=True)
    knot = draw(st.sampled_from(forces))
    force = draw(st.one_of(
        st.just(knot),
        st.just(math.nextafter(knot, -math.inf)),
        st.just(math.nextafter(knot, math.inf)),
        st.floats(forces[0], forces[-1]),
        st.floats(-2e6, forces[0]),
        st.floats(forces[-1], 2e6),
        st.just(math.nan)))
    return tuple(zip(forces, angles)), force


@settings(max_examples=300, deadline=None)
@given(_table_and_force())
@example((((0.0, 140.0), (5e-324, 40.0)), 0.0))  # knot where the slope is -inf
@example((((0.1, 90.0),), math.nan))              # one entry answers even NaN
def test_angle_at_force_equals_np_interp(case):
    table, force = case
    substrate = SubstrateProperties(
        name="random", youngs_modulus=1e9, poisson_ratio=0.3,
        friction_coefficient=0.4, gamma_sub_air=0.04, gamma_sub_lm=0.5,
        angle_table=table)
    expected = float(np.interp(force, [f for f, _ in table],
                               [a for _, a in table]))
    assert angle_at_force(substrate, force).hex() == expected.hex()


@settings(max_examples=300, deadline=None)
@given(_table_and_force())
@example((((0.0, 140.0), (0.2, 40.0)), 0.2))        # the last knot: in span
@example((((0.0, 140.0), (0.2, 40.0)), -0.0))       # the first knot: in span
@example((((0.1, 90.0),), math.nan))                # NaN is never clamped
def test_force_clamped_is_when_angle_at_force_warns(case):
    table, force = case
    substrate = SubstrateProperties(
        name="random", youngs_modulus=1e9, poisson_ratio=0.3,
        friction_coefficient=0.4, gamma_sub_air=0.04, gamma_sub_lm=0.5,
        angle_table=table)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        angle_at_force(substrate, force)
    assert force_clamped(substrate, force) is bool(caught)
    assert force_clamped(substrate, force) is (
        not table[0][0] <= force <= table[-1][0] and not math.isnan(force))


def test_wettability_ranking():
    ranked = wettability_ranking([OFFICE_PAPER, PVC_FILM, STAINLESS_STEEL],
                                 0.15)
    assert [s.name for s in ranked] == ["pvc-film", "stainless-steel",
                                        "office-paper"]


def test_deposition_feasibility_is_strict():
    assert deposition_feasible(BeadWettingPair(gamma_sub_lm=0.3,
                                               gamma_bead_lm=0.5))
    assert not deposition_feasible(BeadWettingPair(gamma_sub_lm=0.5,
                                                   gamma_bead_lm=0.3))
    assert not deposition_feasible(BeadWettingPair(gamma_sub_lm=0.4,
                                                   gamma_bead_lm=0.4))


def test_line_width_profile_matches_pointwise():
    prof = line_width_profile([30.0, 60.0, 90.0], Q_REF, V_REF)
    for theta_deg, width in prof:
        direct = stable_line_width(math.radians(theta_deg), Q_REF, V_REF)
        assert width == direct.width
