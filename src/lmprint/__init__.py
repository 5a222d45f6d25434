"""lmprint: planning and simulation for tapping-mode liquid-metal printing.

A roller-bead print head deposits liquid-metal ink by tapping to open a
seat gap and rolling across the substrate. This package models the chain
from machine settings to printed line — contact mechanics, gap flux,
wetting-limited line width — and builds on it: vector drawing import,
toolpath planning with corner policies, deposition simulation with risk
flags, raster previews, and circuit-level checks (nets, resistance, DRC).
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names the package re-exports from it. Importing
# the package runs no submodule: __getattr__ imports one when it, or one of
# its names, is first used.
_EXPORTS = {
    "circuit": "CircuitNets DrcResult DrcViolation Net ResistanceEstimate "
               "check_connectivity drc estimate_resistance extract_nets outline_clearance",
    "contact": "ContactLoad ContactSolution SlidingState contact_pressure "
               "indentation sliding_ratio sr_fr_curve static_slip_check",
    "core": "DEFAULT_BEAD DEFAULT_LIMITS GAIN245 OFFICE_PAPER PVC_FILM STAINLESS_STEEL "
            "STANDARD_GRAVITY SUBSTRATE_PRESETS BeadGeometry Force InkProperties MachineLimits "
            "MachineSettings PressureCalibration SettingsVerdict SpeedCalibration "
            "SubstrateProperties dynamic_viscosity grams_to_newtons newtons_to_grams "
            "pressure_setting_to_force speed_setting_to_velocity validate_settings",
    "drawing": "DEFAULT_CHORD_TOLERANCE_MM VectorDrawing "
               "parse_drawing serialize_drawing",
    "environment": "DEFAULT_ENVIRONMENT DEFAULT_POLICY CornerPolicy "
                   "Environment SegmentPhysics segment_physics",
    "errors": "CalibrationError CircuitError ConfigError DomainError DrawingFormatError "
              "FullSlipError IllegalActionError InvalidSettingError LmprintError "
              "NoEquilibriumError NonVectorContentError OutOfContactError PlanError "
              "RasterSizeError UnknownPadError UnsupportedSvgFeatureError WettingDomainError",
    "flux": "DEFAULT_FLUX_PARAMS FlowConditions FluxCalibrationResult FluxModelParams "
            "calibrate_flux cross_section_area default_flux_params flux_table gap_flux",
    "config": "load_config load_config_file",
    "nnls": "",
    "planner": "HeadState Lift Move PlanEstimate Tap Toolpath estimate "
               "interior_angle_deg order_strokes plan step_head",
    "raster": "RasterImage rasterize read_pgm write_pgm",
    "report": "make_report read_report write_report",
    "simulator": "EmpiricalWidthModel SimulationResult "
                 "TraceSegment fit_width_model simulate",
    "spans": "",
    "svg": "flatten_cubic",
    "wetting": "BeadWettingPair LineEstimate SurfaceTensionTriple angle_at_force "
               "deposition_feasible force_clamped stable_line_width "
               "wettability_ranking young_contact_angle",
}
__all__ = [name for names in _EXPORTS.values() for name in names.split()]
_SUBMODULE_OF = {n: m for m, names in _EXPORTS.items() for n in (m, *names.split())}


def __getattr__(name: str):
    if name not in _SUBMODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{_SUBMODULE_OF[name]}", __name__)
    if name not in _EXPORTS:    # a name, not a submodule: bind it, so later lookups skip this
        globals()[name] = value = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULE_OF})
