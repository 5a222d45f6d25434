"""The machine/physics context shared by planning and simulation.

An Environment bundles the ink, substrate, bead geometry, calibrations,
flux constants and policy knobs. segment_physics runs the full physics
chain for one drawn segment (force -> wetting angle -> contact/creep ->
rolling rate -> gap flux -> stable width) so the planner's volume estimate
and the simulator share one code path.
"""

from __future__ import annotations

import math

from .contact import ContactLoad, indentation, sliding_ratio
from .core import (DEFAULT_BEAD, DEFAULT_LIMITS, DEFAULT_PRESSURE_CALIBRATION,
                   DEFAULT_SPEED_CALIBRATION, GAIN245, PVC_FILM, BeadGeometry,
                   InkProperties, MachineLimits, PressureCalibration, Record,
                   SpeedCalibration, SubstrateProperties, grams_to_newtons)
from .errors import ConfigError, FullSlipError
from .flux import FlowConditions, FluxModelParams, default_flux_params, gap_flux
from .wetting import angle_at_force, stable_line_width


class CornerPolicy(Record):
    """What to do at corners whose interior angle is below threshold_angle.

    Strategies: "lift-and-retap" breaks the stroke at the corner (lift,
    re-tap, continue); "slowdown" multiplies the speed of both adjacent
    segments by slowdown_factor; "fillet" replaces the corner with a
    tangent arc of fillet_radius_mm flattened to a polyline.
    """

    threshold_angle: float = 135.0
    strategy: str = "lift-and-retap"
    slowdown_factor: float = 0.5
    fillet_radius_mm: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.threshold_angle <= 180.0):
            raise ConfigError("threshold_angle must be in (0, 180]")
        if self.strategy not in ("lift-and-retap", "slowdown", "fillet"):
            raise ConfigError(f"unknown corner strategy {self.strategy!r}")
        if not (0.0 < self.slowdown_factor <= 1.0):
            raise ConfigError("slowdown_factor must be in (0, 1]")
        if not (self.fillet_radius_mm > 0):
            raise ConfigError("fillet_radius_mm must be > 0")

    def describe(self) -> str:
        if self.strategy == "slowdown":
            detail = f"x{self.slowdown_factor:g}"
        elif self.strategy == "fillet":
            detail = f"r{self.fillet_radius_mm:g}mm"
        else:
            detail = ""
        return f"{self.strategy}{detail}@{self.threshold_angle:g}deg"

    def is_sharp(self, interior_angle_deg: float) -> bool:
        return interior_angle_deg < self.threshold_angle


DEFAULT_POLICY = CornerPolicy()


class Environment(Record):
    """Complete context for planning, simulating and checking one run."""

    ink: InkProperties = GAIN245
    substrate: SubstrateProperties = PVC_FILM
    bead: BeadGeometry = DEFAULT_BEAD
    flux_params: FluxModelParams | None = None
    limits: MachineLimits = DEFAULT_LIMITS
    speed_calibration: SpeedCalibration = DEFAULT_SPEED_CALIBRATION
    pressure_calibration: PressureCalibration = DEFAULT_PRESSURE_CALIBRATION
    policy: CornerPolicy = DEFAULT_POLICY
    pressure_drop: float = 1.0          # Pa, ink drive across the gap
    tangential_angle: float = 0.0       # rad, load obliquity while drawing
    dwell_s: float = 0.1                # s per tap or lift
    s_max: float = 0.05                 # |creep| above this flags slip risk
    chord_tolerance_mm: float = 0.05
    max_raster_pixels: int = 50_000_000
    resistivity_ohm_m: float | None = None  # required for resistance estimates

    def __post_init__(self):
        if self.flux_params is None:
            object.__setattr__(self, "flux_params",
                               default_flux_params(self.bead, self.ink))
        if self.pressure_drop < 0:
            raise ConfigError("pressure_drop must be >= 0")
        if not (self.dwell_s >= 0):
            raise ConfigError("dwell_s must be >= 0")
        if not (self.s_max > 0):
            raise ConfigError("s_max must be > 0")
        if not (self.chord_tolerance_mm > 0):
            raise ConfigError("chord_tolerance_mm must be > 0")
        if self.max_raster_pixels < 1:
            raise ConfigError("max_raster_pixels must be >= 1")
        if self.resistivity_ohm_m is not None and not (self.resistivity_ohm_m > 0):
            raise ConfigError("resistivity_ohm_m must be > 0")


DEFAULT_ENVIRONMENT = Environment()


class SegmentPhysics(Record):
    """Physics of one drawn segment at fixed speed and pressure."""

    speed_mm_s: float
    pressure_g: float
    velocity_m_s: float
    force_n: float
    contact_angle_deg: float
    creep: float
    full_slip: bool
    omega_y: float        # rad/s, transverse rolling rate
    flux_m3_s: float
    width_m: float
    cross_section_m2: float


def segment_physics(speed_mm_s: float, pressure_g: float,
                    env: Environment) -> SegmentPhysics:
    """Run the physics chain for one segment.

    The bead is assumed near-rolling: omega_y = (V/R)(1 - |s|) with the
    creep magnitude s from the oblique-load model. Full slip stops the
    rolling entirely (omega_y = 0, creep reported as 1), leaving only the
    pressure-driven flux; callers flag it rather than abort.
    """
    if speed_mm_s <= 0:
        raise ConfigError("segment speed must be > 0")
    v = speed_mm_s * 1e-3
    force_n = grams_to_newtons(pressure_g)
    theta_deg = angle_at_force(env.substrate, force_n)
    load = ContactLoad(force=force_n, normal_angle=0.0,
                       tangential_angle=env.tangential_angle)
    solution = indentation(load, env.bead, env.substrate)
    try:
        sliding = sliding_ratio(load, env.substrate, solution, env.bead)
        creep = sliding.creep
        full_slip = False
    except FullSlipError:
        creep = 1.0
        full_slip = True
    omega_y = 0.0 if full_slip else (v / env.bead.bead_radius) * (1.0 - abs(creep))
    cond = FlowConditions(pressure_drop=env.pressure_drop,
                          rotation=(0.0, omega_y, 0.0), head_velocity=v)
    q = gap_flux(env.bead, cond, env.flux_params, env.ink)
    line = stable_line_width(math.radians(theta_deg), q, v)
    return SegmentPhysics(
        speed_mm_s=speed_mm_s,
        pressure_g=pressure_g,
        velocity_m_s=v,
        force_n=force_n,
        contact_angle_deg=theta_deg,
        creep=creep,
        full_slip=full_slip,
        omega_y=omega_y,
        flux_m3_s=q,
        width_m=line.width,
        cross_section_m2=line.cross_section_area,
    )
