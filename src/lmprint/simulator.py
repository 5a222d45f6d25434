"""Toolpath execution: deposited traces.

simulate() walks a toolpath through the tap/move/lift state machine (the
walk planner.estimate() makes too) and, for every drawn segment, takes the
segment physics chain's predicted width, flux and creep, attaching risk
flags. raster.rasterize() stamps the resulting traces into a binary
occupancy image. fit_width_model() provides the alternative,
measurement-driven width predictor.
"""

from __future__ import annotations

import itertools
import math

from .core import Record, trusted
from .environment import DEFAULT_ENVIRONMENT, Environment
from .errors import CalibrationError, ConfigError, DomainError
from .planner import HeadState, Point, Toolpath, _walk, interior_angle_deg


FLAG_CORNER = "corner-risk"
FLAG_SLIP = "slip-risk"
FLAG_SPEED = "speed-warning"
# a trace's sorted flags by whether it has (slip-risk, speed-warning,
# corner-risk)
_FLAGS = {key: tuple(sorted(flag for flag, on in zip(
    (FLAG_SLIP, FLAG_SPEED, FLAG_CORNER), key) if on))
    for key in itertools.product((False, True), repeat=3)}


class TraceSegment(Record):
    """One deposited straight segment with its predicted physics: a
    DomainError unless its points (kept as float pairs) and flux are finite,
    width_m * 1e3 is in [0, inf) and speed_mm_s * 1e-3 in (0, inf)."""

    start: Point
    end: Point
    width_m: float
    flux_m3_s: float
    creep: float
    contact_angle_deg: float
    speed_mm_s: float
    pressure_g: float
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        for name, (x, y) in (("start", self.start), ("end", self.end)):
            object.__setattr__(self, name, (float(x), float(y)))
        if not (all(map(math.isfinite, self.start + self.end))
                and 0.0 <= self.width_m * 1e3 < math.inf
                and math.isfinite(self.flux_m3_s)
                and 0.0 < self.speed_mm_s * 1e-3 < math.inf):
            raise DomainError("a trace needs finite points and flux, a width "
                              "in [0, inf) mm and a speed in (0, inf) m/s")

    @property
    def length_mm(self) -> float:
        return math.hypot(self.end[0] - self.start[0],
                          self.end[1] - self.start[1])

    @property
    def duration_s(self) -> float:
        return self.length_mm / self.speed_mm_s

    @property
    def cross_section_m2(self) -> float:
        return self.flux_m3_s / (self.speed_mm_s * 1e-3)


class SimulationResult(Record):
    traces: tuple[TraceSegment, ...]
    print_time_s: float
    ink_volume_mm3: float
    trace_length_mm: float
    tap_count: int
    lift_count: int
    flag_counts: dict[str, int]
    width_source: str
    final_state: HeadState


def simulate(toolpath: Toolpath, environment: Environment | None = None, *,
             width_model: "EmpiricalWidthModel | None" = None) -> SimulationResult:
    """Execute a toolpath and predict the deposited traces.

    Widths come from width_model, a fitted EmpiricalWidthModel, when one is
    given (width_source "empirical"), and from the wetting/flux chain
    otherwise ("physics"). Flux and creep come from the physics chain
    either way, so volume totals are unaffected. Risk flags per segment:
    corner-risk when the path turns sharper than the policy threshold at
    either end, slip-risk when |creep| exceeds s_max (full slip included),
    speed-warning when the commanded speed exceeds the preferred machine
    limit.
    """
    env = environment if environment is not None else DEFAULT_ENVIRONMENT
    time_s, volume_mm3, drawn, taps, lifts, state = _walk(toolpath, env)
    threshold = env.policy.threshold_angle
    s_max, fast = env.s_max, env.limits.preferred_max_speed
    tally = dict.fromkeys(_FLAGS, 0)  # traces per key of _FLAGS
    traces = []
    sharp_start = False  # is the joint where segment k starts sharp?
    for k, (start, move, phys, run, _) in enumerate(drawn):
        end = move.to
        # segment k ends where segment k + 1 starts, so each joint's angle
        # is computed once and flags both segments
        sharp_end = k + 1 < len(drawn) and drawn[k + 1][3] == run and \
            interior_angle_deg(start, end, drawn[k + 1][1].to) < threshold
        key = (phys.full_slip or abs(phys.creep) > s_max,
               move.speed_mm_s > fast, sharp_start or sharp_end)
        tally[key] += 1
        sharp_start = sharp_end
        width_m = phys.width_m if width_model is None else \
            width_model.predict(move.speed_mm_s, move.pressure_g)
        # _walk, segment_physics and predict see that TraceSegment's check holds
        traces.append(trusted(TraceSegment, {
            "start": start, "end": end, "width_m": width_m,
            "flux_m3_s": phys.flux_m3_s, "creep": phys.creep,
            "contact_angle_deg": phys.contact_angle_deg,
            "speed_mm_s": move.speed_mm_s, "pressure_g": move.pressure_g,
            "flags": _FLAGS[key]}))

    counts = {FLAG_CORNER: 0, FLAG_SLIP: 0, FLAG_SPEED: 0}
    for key, n in tally.items():
        for f in _FLAGS[key]:
            counts[f] += n
    return SimulationResult(
        traces=tuple(traces),
        print_time_s=time_s,
        ink_volume_mm3=volume_mm3,
        # the walk's lengths are each trace's length_mm
        trace_length_mm=sum([d[4] for d in drawn], 0.0),
        tap_count=taps,
        lift_count=lifts,
        flag_counts=counts,
        width_source="physics" if width_model is None else "empirical",
        final_state=state,
    )


# --------------------------------------------------------------------------
# empirical width model (measurement-driven alternative to the physics chain)


class EmpiricalWidthModel(Record):
    """Power law w = a * F_g^b / v^c fitted to measured line widths.

    Speeds in mm/s, forces in grams, widths in metres. a > 0, b, c >= 0, all
    finite: the width never grows with speed or shrinks with pressure.
    """

    a: float
    b: float
    c: float
    residual: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.a < math.inf and 0.0 <= self.b < math.inf
                and 0.0 <= self.c < math.inf):
            raise CalibrationError("width model: a must be finite and > 0, "
                                   "b and c finite and >= 0")

    def predict(self, speed_mm_s: float, pressure_g: float) -> float:
        if not (speed_mm_s > 0 and pressure_g >= 0):
            raise ConfigError("speed must be > 0 and pressure >= 0")
        try:  # a power past every float
            width = self.a * pressure_g ** self.b / speed_mm_s ** self.c
        except (OverflowError, ZeroDivisionError):
            width = math.inf
        if not width * 1e3 < math.inf:  # in mm, as a trace checks it
            raise CalibrationError(f"width model: no finite width at "
                                   f"{speed_mm_s:g} mm/s, {pressure_g:g} g")
        return width


def fit_width_model(samples) -> EmpiricalWidthModel:
    """Fit the width power law to (speed mm/s, pressure g, width m) samples.

    Least squares in log space with the exponents constrained nonnegative
    (log w = log a + b log F - c log v, solved as NNLS with the intercept
    split into a +/- pair). Needs at least 3 samples, all finite and
    strictly positive, whose log F and log v are not collinear with each
    other or with a constant (so at least 2 distinct speeds and pressures).
    """
    from .nnls import independent, nnls
    samples = [(float(v), float(f), float(w)) for v, f, w in samples]
    if len(samples) < 3:
        raise CalibrationError("width fit needs at least 3 samples")
    if not all(0.0 < x < math.inf for sample in samples for x in sample):
        raise CalibrationError("width fit needs finite positive speeds, "
                               "pressures and widths (log-space fit)")
    ones = [1.0] * len(samples)
    log_f = [math.log(f) for _, f, _ in samples]
    minus_log_v = [-math.log(v) for v, _, _ in samples]
    if not independent([ones, log_f, minus_log_v]):
        raise CalibrationError("width fit needs speeds and pressures that "
                               "vary independently (1, log F and log v "
                               "are collinear)")
    (up, down, b, c), resid = nnls(
        [ones, [-1.0] * len(samples), log_f, minus_log_v],
        [math.log(w) for _, _, w in samples])
    return EmpiricalWidthModel(a=math.exp(up - down), b=b, c=c,
                               residual=resid)
