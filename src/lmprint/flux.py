"""Reduced-order model of liquid-metal flux through the bead/seat gap.

The gap is unrolled into a plane channel: a Poiseuille term driven by the
inlet/outlet pressure difference plus a Couette drag term driven by the
bead surface speed. Two dimensionless calibration constants absorb the
real 3-D geometry, gravity and entrance effects. Only the transverse
(y-axis) rotation component drags ink out; rotation about the vertical
axis merely spins the bead in place and moves nothing.

Q = kappa_p * w_eff * GW^3 * dP / (12 mu l_eff)
  + kappa_c * w_eff * GW * |omega_y| * R / 2
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

from .core import DEFAULT_BEAD, GAIN245, BeadGeometry, InkProperties, dynamic_viscosity
from .errors import CalibrationError, ConfigError, DomainError

if TYPE_CHECKING:
    import numpy as np

M3_PER_MM3 = 1e-9


@dataclass(frozen=True)
class FlowConditions:
    """Boundary conditions for one gap-flow evaluation.

    pressure_drop is inlet minus outlet gauge pressure (Pa, >= 0);
    rotation is the bead angular velocity vector (rad/s) with y transverse
    to travel; head_velocity is the translation speed (m/s).
    """

    pressure_drop: float
    rotation: tuple[float, float, float] = (0.0, 0.0, 0.0)
    head_velocity: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.pressure_drop < math.inf:
            raise ConfigError("pressure_drop must be finite and >= 0")
        rot = tuple(float(w) for w in self.rotation)
        if len(rot) != 3:
            raise ConfigError("rotation must have three components")
        if not all(math.isfinite(w) for w in (*rot, self.head_velocity)):
            raise ConfigError("rotation and head_velocity must be finite")
        object.__setattr__(self, "rotation", rot)

    @property
    def omega_y(self) -> float:
        return self.rotation[1]


@dataclass(frozen=True)
class FluxModelParams:
    """Calibration constants of the reduced gap-flux model."""

    kappa_pressure: float
    kappa_couette: float

    def __post_init__(self):
        if self.kappa_pressure < 0 or self.kappa_couette < 0:
            raise ConfigError("flux model constants must be >= 0")


def pressure_term(bead: BeadGeometry, ink: InkProperties) -> float:
    """Poiseuille basis flux per unit pressure drop, m^3/(s*Pa)."""
    mu = dynamic_viscosity(ink)
    return (bead.channel_width_eff * bead.gap_width ** 3
            / (12.0 * mu * bead.channel_length_eff))


def couette_term(bead: BeadGeometry) -> float:
    """Drag basis flux per unit transverse angular speed, m^3/(s*rad/s)."""
    return bead.channel_width_eff * bead.gap_width * bead.bead_radius / 2.0


def gap_flux(bead: BeadGeometry, cond: FlowConditions,
             params: FluxModelParams, ink: InkProperties) -> float:
    """Volumetric flux Q (m^3/s) through the gap for the given conditions."""
    return (params.kappa_pressure * pressure_term(bead, ink) * cond.pressure_drop
            + params.kappa_couette * couette_term(bead) * abs(cond.omega_y))


# Worked calibration anchor: 1 Pa drive, 60 rad/s transverse rotation and a
# 50 um gap on the default bead deliver 0.0656 mm^3/s.
ANCHOR_CONDITIONS = FlowConditions(pressure_drop=1.0, rotation=(0.0, 60.0, 0.0),
                                   head_velocity=0.04)
ANCHOR_GAP_WIDTH = 5.0e-5
ANCHOR_FLUX_MM3_S = 0.0656
ANCHOR_FLUX_M3_S = ANCHOR_FLUX_MM3_S * M3_PER_MM3


@dataclass(frozen=True)
class FluxCalibrationResult:
    """Fitted constants plus the least-squares residual norm (m^3/s)."""

    params: FluxModelParams
    residual: float


def calibrate_flux(observations: Sequence[tuple[FlowConditions, BeadGeometry, float]],
                   ink: InkProperties = GAIN245) -> FluxCalibrationResult:
    """Fit (kappa_p, kappa_c) to observed fluxes by non-negative least squares.

    Each observation is (conditions, bead, Q in m^3/s). With a single
    observation the underdetermined fit lands exactly on the dominant term.
    Raises CalibrationError on an empty list, on a non-finite drive or
    flux, or when every observation has a closed gap (nothing identifies
    the constants).
    """
    if not observations:
        raise CalibrationError("no observations to calibrate against")
    rows = [(pressure_term(bead, ink) * cond.pressure_drop,
             couette_term(bead) * abs(cond.omega_y), q)
            for cond, bead, q in observations]
    if not all(math.isfinite(v) for row in rows for v in row):
        raise CalibrationError("observations must be finite")
    if not any(p or c for p, c, _ in rows):
        raise CalibrationError("unidentifiable: every observation has zero gap drive")
    if not any(q > 0 and (p > 0 or c > 0) for p, c, q in rows):
        raise CalibrationError("need at least one observation with Q > 0 and open gap")
    from .nnls import nnls
    pressure, couette, flux = zip(*rows)
    (kp, kc), rnorm = nnls([pressure, couette], flux)
    return FluxCalibrationResult(
        params=FluxModelParams(kappa_pressure=kp, kappa_couette=kc),
        residual=rnorm,
    )


def default_flux_params(bead: BeadGeometry = DEFAULT_BEAD,
                        ink: InkProperties = GAIN245) -> FluxModelParams:
    """Shipped constants: one shared scale on both terms, set by the anchor.

    A single anchor cannot separate the two constants, so the default keeps
    them equal; both transport routes stay alive and the anchor flux is
    reproduced exactly.
    """
    anchor_bead = replace(bead, gap_width=ANCHOR_GAP_WIDTH)
    basis = (pressure_term(anchor_bead, ink) * ANCHOR_CONDITIONS.pressure_drop
             + couette_term(anchor_bead) * abs(ANCHOR_CONDITIONS.omega_y))
    scale = ANCHOR_FLUX_M3_S / basis
    return FluxModelParams(kappa_pressure=scale, kappa_couette=scale)


DEFAULT_FLUX_PARAMS = default_flux_params()


def flux_table(pressures: Sequence[float], gap_widths: Sequence[float],
               cond: FlowConditions, params: FluxModelParams,
               bead: BeadGeometry, ink: InkProperties) -> np.ndarray:
    """Q over a pressure x gap-width grid, shape (len(pressures), len(gap_widths)).

    The template conditions supply the rotation; pressure_drop and the bead
    gap width are swept. Values are m^3/s.
    """
    if len(pressures) == 0 or len(gap_widths) == 0:
        raise ConfigError("flux_table needs non-empty pressure and gap-width axes")
    import numpy as np
    out = np.empty((len(pressures), len(gap_widths)), dtype=float)
    for i, dp in enumerate(pressures):
        ci = replace(cond, pressure_drop=float(dp))
        for j, gw in enumerate(gap_widths):
            bj = replace(bead, gap_width=float(gw))
            out[i, j] = gap_flux(bj, ci, params, ink)
    return out


def cross_section_area(flux: float, print_speed: float) -> float:
    """Cross-section area (m^2) of the deposited line: A = Q / Vs."""
    if not 0.0 < print_speed < math.inf:
        raise DomainError("print speed must be finite and > 0")
    return flux / print_speed
