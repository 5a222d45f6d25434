"""lmprint: planning and simulation for tapping-mode liquid-metal printing.

A roller-bead print head deposits liquid-metal ink by tapping to open a
seat gap and rolling across the substrate. This package models the chain
from machine settings to printed line — contact mechanics, gap flux,
wetting-limited line width — and builds on it: vector drawing import,
toolpath planning with corner policies, deposition simulation with risk
flags, raster previews, and circuit-level checks (nets, resistance, DRC).
"""

__version__ = "0.1.0"

from .circuit import (CircuitNets, DrcResult, DrcViolation, Net,
                      ResistanceEstimate, check_connectivity, drc,
                      estimate_resistance, extract_nets, outline_clearance)
from .contact import (ContactLoad, ContactSolution, SlidingState,
                      contact_pressure, indentation, sliding_ratio,
                      sr_fr_curve, static_slip_check)
from .core import (DEFAULT_BEAD, DEFAULT_LIMITS, GAIN245, OFFICE_PAPER,
                   PVC_FILM, STAINLESS_STEEL, STANDARD_GRAVITY,
                   SUBSTRATE_PRESETS, BeadGeometry, Force, InkProperties,
                   MachineLimits, MachineSettings, PressureCalibration,
                   SettingsVerdict, SpeedCalibration, SubstrateProperties,
                   dynamic_viscosity, grams_to_newtons, newtons_to_grams,
                   pressure_setting_to_force, speed_setting_to_velocity,
                   validate_settings)
from .drawing import (DEFAULT_CHORD_TOLERANCE_MM, VectorDrawing,
                      flatten_cubic, parse_drawing, serialize_drawing)
from .environment import (DEFAULT_ENVIRONMENT, DEFAULT_POLICY, CornerPolicy,
                          Environment, SegmentPhysics, segment_physics)
from .errors import (CalibrationError, CircuitError, ConfigError, DomainError,
                     DrawingFormatError, FullSlipError, IllegalActionError,
                     InvalidSettingError, LmprintError, NoEquilibriumError,
                     NonVectorContentError, OutOfContactError, PlanError,
                     RasterSizeError, UnknownPadError,
                     UnsupportedSvgFeatureError, WettingDomainError)
from .flux import (DEFAULT_FLUX_PARAMS, FlowConditions, FluxCalibrationResult,
                   FluxModelParams, calibrate_flux, cross_section_area,
                   default_flux_params, flux_table, gap_flux)
from .config import load_config, load_config_file
from .planner import (HeadState, Lift, Move, PlanEstimate, Tap, Toolpath,
                      estimate, interior_angle_deg, order_strokes, plan,
                      step_head)
from .raster import RasterImage, read_pgm, write_pgm
from .report import make_report, read_report, write_report
from .samples import SAMPLE_BUILDERS, get_sample, grid_antenna, ic_sketch
from .simulator import (EmpiricalWidthModel, SimulationResult, TraceSegment,
                        fit_width_model, rasterize, simulate)
from .wetting import (BeadWettingPair, LineEstimate, SurfaceTensionTriple,
                      angle_at_force, deposition_feasible, stable_line_width,
                      wettability_ranking, young_contact_angle)
