"""Physical property records, machine settings and unit calibrations.

All stored quantities are SI unless the field name says otherwise; machine
units (dimensionless speed/pressure dials), mm/s, grams-force and degrees
appear only at interface boundaries. Everything here is immutable and pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import math

from .errors import ConfigError, InvalidSettingError

STANDARD_GRAVITY = 9.80665  # m/s^2


def grams_to_newtons(grams: float) -> float:
    return grams * 1e-3 * STANDARD_GRAVITY


def newtons_to_grams(newtons: float) -> float:
    return newtons / (1e-3 * STANDARD_GRAVITY)


@dataclass(frozen=True)
class InkProperties:
    """Liquid-metal ink constants.

    density in kg/m^3, kinematic_viscosity in m^2/s, surface_tension_lm_air
    in N/m, melting_point in degC.
    """

    name: str
    density: float
    kinematic_viscosity: float
    surface_tension_lm_air: float
    melting_point: float

    def __post_init__(self):
        if not (self.density > 0):
            raise ConfigError("ink density must be > 0")
        if not (self.kinematic_viscosity > 0):
            raise ConfigError("ink kinematic viscosity must be > 0")
        if not (self.surface_tension_lm_air > 0):
            raise ConfigError("ink surface tension must be > 0")


def dynamic_viscosity(ink: InkProperties) -> float:
    """Dynamic viscosity in Pa*s: density times kinematic viscosity."""
    return ink.density * ink.kinematic_viscosity


@dataclass(frozen=True)
class SubstrateProperties:
    """Elastic, frictional and wetting description of a printing substrate.

    youngs_modulus in Pa, poisson_ratio dimensionless in (0, 0.5),
    friction_coefficient dimensionless, surface tensions in N/m.
    angle_table maps applied force (N, strictly increasing) to measured
    contact angle (deg, strictly decreasing): pressing the ink drop makes
    it wet better.
    """

    name: str
    youngs_modulus: float
    poisson_ratio: float
    friction_coefficient: float
    gamma_sub_air: float
    gamma_sub_lm: float
    angle_table: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not (self.youngs_modulus > 0):
            raise ConfigError(f"{self.name}: Young's modulus must be > 0")
        if not (0.0 < self.poisson_ratio < 0.5):
            raise ConfigError(f"{self.name}: Poisson ratio must be in (0, 0.5)")
        if not (self.friction_coefficient > 0):
            raise ConfigError(f"{self.name}: friction coefficient must be > 0")
        table = tuple((float(f), float(a)) for f, a in self.angle_table)
        object.__setattr__(self, "angle_table", table)
        forces = [f for f, _ in table]
        angles = [a for _, a in table]
        if not all(map(math.isfinite, forces + angles)):
            raise ConfigError(f"{self.name}: angle_table forces and angles must be finite")
        if any(b <= a for a, b in zip(forces, forces[1:])):
            raise ConfigError(f"{self.name}: angle_table forces must be strictly increasing")
        if any(b >= a for a, b in zip(angles, angles[1:])):
            raise ConfigError(f"{self.name}: angle_table angles must be strictly decreasing")


@dataclass(frozen=True)
class BeadGeometry:
    """Roller-bead and seat-gap geometry, metres.

    channel_width_eff / channel_length_eff are the unrolled-gap channel
    dimensions used by the reduced flux model; by default a quarter of the
    bead circumference and the bead radius.
    """

    bead_radius: float
    gap_width: float
    channel_width_eff: float | None = None
    channel_length_eff: float | None = None

    def __post_init__(self):
        if not (self.bead_radius > 0):
            raise ConfigError("bead_radius must be > 0")
        if not (0.0 <= self.gap_width < self.bead_radius):
            raise ConfigError("gap_width must satisfy 0 <= GW < bead_radius")
        if self.channel_width_eff is None:
            object.__setattr__(self, "channel_width_eff", 0.25 * 2.0 * math.pi * self.bead_radius)
        if self.channel_length_eff is None:
            object.__setattr__(self, "channel_length_eff", self.bead_radius)
        if not (self.channel_width_eff > 0 and self.channel_length_eff > 0):
            raise ConfigError("effective channel dimensions must be > 0")


@dataclass(frozen=True)
class MachineSettings:
    """Dial values as entered on the machine, both dimensionless."""

    speed_setting: float
    pressure_setting: float

    def __post_init__(self):
        if not (0 <= self.speed_setting < math.inf):
            raise InvalidSettingError("speed setting must be finite and >= 0")
        if not (0 <= self.pressure_setting < math.inf):
            raise InvalidSettingError(
                "pressure setting must be finite and >= 0")


@dataclass(frozen=True)
class MachineLimits:
    """Hard and preferred operating limits, in interface units."""

    max_speed: float = 400.0            # mm/s
    preferred_max_speed: float = 200.0  # mm/s
    max_pressure: float = 800.0         # grams-force

    def __post_init__(self):
        if not (0 < self.preferred_max_speed <= self.max_speed):
            raise ConfigError("require 0 < preferred_max_speed <= max_speed")
        if not (self.max_pressure > 0):
            raise ConfigError("max_pressure must be > 0")


@dataclass(frozen=True)
class SpeedCalibration:
    """Linear speed dial map; one dial unit is 4 mm/s (30 -> 120 mm/s)."""

    mm_s_per_unit: float = 4.0

    def __post_init__(self):
        if not (self.mm_s_per_unit > 0):
            raise ConfigError("mm_s_per_unit must be > 0")

    def velocity_mm_s(self, setting: float) -> float:
        if setting < 0:
            raise InvalidSettingError("speed setting must be >= 0")
        return setting * self.mm_s_per_unit

    def setting(self, velocity_mm_s: float) -> float:
        return velocity_mm_s / self.mm_s_per_unit


class Force(NamedTuple):
    grams: float
    newtons: float


@dataclass(frozen=True)
class PressureCalibration:
    """Pressure dial to contact force, piecewise-linear through anchors.

    The true machine curve is unknown beyond one anchor (dial 60 presses
    with 188 g), so the map is a replaceable calibration object: anchors
    are (setting, grams) pairs through the origin; beyond the last anchor
    the final slope extrapolates.
    """

    anchors: tuple[tuple[float, float], ...] = ((0.0, 0.0), (60.0, 188.0))

    def __post_init__(self):
        anchors = tuple((float(s), float(g)) for s, g in self.anchors)
        object.__setattr__(self, "anchors", anchors)
        if len(anchors) < 2:
            raise ConfigError("pressure calibration needs at least two anchors")
        if anchors[0] != (0.0, 0.0):
            raise ConfigError("pressure calibration must pass through (0, 0)")
        settings = [s for s, _ in anchors]
        grams = [g for _, g in anchors]
        if any(b <= a for a, b in zip(settings, settings[1:])):
            raise ConfigError("pressure anchors: settings must be strictly increasing")
        if any(b < a for a, b in zip(grams, grams[1:])):
            raise ConfigError("pressure anchors: grams must be non-decreasing")

    def force(self, setting: float) -> Force:
        if setting < 0:
            raise InvalidSettingError("pressure setting must be >= 0")
        anchors = self.anchors
        g = None
        for (s0, g0), (s1, g1) in zip(anchors, anchors[1:]):
            if setting <= s1:
                g = g0 + (g1 - g0) * (setting - s0) / (s1 - s0)
                break
        if g is None:  # beyond the last anchor: extrapolate the final slope
            (s0, g0), (s1, g1) = anchors[-2], anchors[-1]
            g = g1 + (g1 - g0) * (setting - s1) / (s1 - s0)
        return Force(grams=g, newtons=grams_to_newtons(g))

    def setting(self, grams: float) -> float:
        anchors = self.anchors
        for (s0, g0), (s1, g1) in zip(anchors, anchors[1:]):
            if grams <= g1 and g1 > g0:
                return s0 + (s1 - s0) * (grams - g0) / (g1 - g0)
        (s0, g0), (s1, g1) = anchors[-2], anchors[-1]
        return s1 + (s1 - s0) * (grams - g1) / (g1 - g0)


DEFAULT_SPEED_CALIBRATION = SpeedCalibration()
DEFAULT_PRESSURE_CALIBRATION = PressureCalibration()
DEFAULT_LIMITS = MachineLimits()


def speed_setting_to_velocity(setting: float,
                              calibration: SpeedCalibration = DEFAULT_SPEED_CALIBRATION) -> float:
    """Speed dial value to head velocity in mm/s."""
    return calibration.velocity_mm_s(setting)


def pressure_setting_to_force(setting: float,
                              calibration: PressureCalibration = DEFAULT_PRESSURE_CALIBRATION) -> Force:
    """Pressure dial value to contact force, as (grams, newtons)."""
    return calibration.force(setting)


@dataclass(frozen=True)
class SettingsVerdict:
    """Outcome of validating machine settings against limits."""

    ok: bool
    warnings: tuple[str, ...] = ()
    violations: tuple[str, ...] = ()
    speed_mm_s: float = 0.0
    force_g: float = 0.0

    @property
    def status(self) -> str:
        if self.violations:
            return "violation"
        if self.warnings:
            return "ok-with-quality-warning"
        return "ok"


def validate_settings(settings: MachineSettings,
                      limits: MachineLimits = DEFAULT_LIMITS,
                      speed_calibration: SpeedCalibration = DEFAULT_SPEED_CALIBRATION,
                      pressure_calibration: PressureCalibration = DEFAULT_PRESSURE_CALIBRATION,
                      ) -> SettingsVerdict:
    """Check dial settings against machine limits.

    Speeds above the hard maximum or pressures above the force limit are
    violations (never silently clamped); speeds above the preferred maximum
    but within the hard limit only degrade quality and yield a warning.
    """
    speed = speed_calibration.velocity_mm_s(settings.speed_setting)
    force = pressure_calibration.force(settings.pressure_setting)
    violations = []
    warnings = []
    if speed > limits.max_speed:
        violations.append(
            f"speed {speed:g} mm/s exceeds hard limit {limits.max_speed:g} mm/s")
    elif speed > limits.preferred_max_speed:
        warnings.append(
            f"speed {speed:g} mm/s above preferred {limits.preferred_max_speed:g} mm/s; "
            f"line quality degrades")
    if force.grams > limits.max_pressure:
        violations.append(
            f"pressure {force.grams:g} g exceeds limit {limits.max_pressure:g} g")
    return SettingsVerdict(
        ok=not violations,
        warnings=tuple(warnings),
        violations=tuple(violations),
        speed_mm_s=speed,
        force_g=force.grams,
    )


# --- shipped presets ------------------------------------------------------

GAIN245 = InkProperties(
    name="GaIn24.5",
    density=6280.0,
    kinematic_viscosity=2.7e-7,
    surface_tension_lm_air=0.624,
    melting_point=15.5,
)

#: 700 um roller-bead with the 0.05 mm working gap.
DEFAULT_BEAD = BeadGeometry(bead_radius=3.5e-4, gap_width=5.0e-5)

# Substrate records. Angle tables encode only the constraints known from
# measurement reports: non-wetting (>90 deg) everywhere at zero force, PVC
# wetting (<90 deg) by 0.1 N, and the 0.2 N wettability ranking
# PVC > stainless steel > office paper. Interior points, elastic moduli and
# friction coefficients are illustrative placeholders, not measured data.
# gamma_sub_lm is back-computed from the zero-force angle so that the Young
# balance reproduces the table's first entry.


def _gamma_sub_lm(gamma_sub_air: float, theta0_deg: float) -> float:
    return gamma_sub_air - GAIN245.surface_tension_lm_air * math.cos(math.radians(theta0_deg))


PVC_FILM = SubstrateProperties(
    name="pvc-film",
    youngs_modulus=3.0e9,
    poisson_ratio=0.40,
    friction_coefficient=0.35,
    gamma_sub_air=0.039,
    gamma_sub_lm=_gamma_sub_lm(0.039, 140.0),
    angle_table=((0.0, 140.0), (0.05, 110.0), (0.10, 85.0), (0.15, 60.0), (0.20, 40.0)),
)

STAINLESS_STEEL = SubstrateProperties(
    name="stainless-steel",
    youngs_modulus=1.95e11,
    poisson_ratio=0.29,
    friction_coefficient=0.40,
    gamma_sub_air=0.045,
    gamma_sub_lm=_gamma_sub_lm(0.045, 145.0),
    angle_table=((0.0, 145.0), (0.05, 132.0), (0.10, 118.0), (0.15, 105.0), (0.20, 95.0)),
)

OFFICE_PAPER = SubstrateProperties(
    name="office-paper",
    youngs_modulus=2.0e9,
    poisson_ratio=0.30,
    friction_coefficient=0.50,
    gamma_sub_air=0.042,
    gamma_sub_lm=_gamma_sub_lm(0.042, 150.0),
    angle_table=((0.0, 150.0), (0.05, 145.0), (0.10, 140.0), (0.15, 135.0), (0.20, 130.0)),
)

SUBSTRATE_PRESETS = {
    s.name: s for s in (PVC_FILM, STAINLESS_STEEL, OFFICE_PAPER)
}
