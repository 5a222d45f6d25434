"""Toolpath execution: deposited traces, rasters.

simulate() walks a toolpath through the tap/move/lift state machine (the
walk planner.estimate() makes too) and, for every drawn segment, takes the
segment physics chain's predicted width, flux and creep, attaching risk
flags. rasterize() stamps the resulting traces into a binary occupancy
image for preview and area-based volume checks. fit_width_model() provides
the alternative, measurement-driven width predictor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .environment import DEFAULT_ENVIRONMENT, Environment
from .errors import CalibrationError, ConfigError, RasterSizeError
from .planner import HeadState, Point, Toolpath, _walk, interior_angle_deg
from .planner import step_head  # noqa: F401  (re-exported)
from .raster import RasterImage


FLAG_CORNER = "corner-risk"
FLAG_SLIP = "slip-risk"
FLAG_SPEED = "speed-warning"


@dataclass(frozen=True)
class TraceSegment:
    """One deposited straight segment with its predicted physics."""

    start: Point
    end: Point
    width_m: float
    flux_m3_s: float
    creep: float
    contact_angle_deg: float
    speed_mm_s: float
    pressure_g: float
    flags: tuple[str, ...] = ()

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

    @property
    def volume_mm3(self) -> float:
        return self.flux_m3_s * self.duration_s * 1e9


@dataclass(frozen=True)
class SimulationResult:
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
             width_source: str = "physics",
             width_model: "EmpiricalWidthModel | None" = None) -> SimulationResult:
    """Execute a toolpath and predict the deposited traces.

    width_source selects the width predictor: "physics" uses the wetting/
    flux chain, "empirical" uses a fitted EmpiricalWidthModel (flux and
    creep still come from the physics chain either way, so volume totals
    are unaffected). Risk flags per segment: corner-risk when the path
    turns sharper than the policy threshold at either end, slip-risk when
    |creep| exceeds s_max (full slip included), speed-warning when the
    commanded speed exceeds the preferred machine limit.
    """
    env = environment if environment is not None else DEFAULT_ENVIRONMENT
    if width_source not in ("physics", "empirical"):
        raise ConfigError(f"unknown width source {width_source!r}")
    if width_source == "empirical" and width_model is None:
        raise ConfigError("width_source='empirical' requires a width_model")

    time_s, volume_mm3, drawn, taps, lifts, state = _walk(toolpath, env)
    threshold = env.policy.threshold_angle
    traces = []
    for k, (start, move, phys, run) in enumerate(drawn):
        end = move.to
        flags = set()
        if phys.full_slip or abs(phys.creep) > env.s_max:
            flags.add(FLAG_SLIP)
        if move.speed_mm_s > env.limits.preferred_max_speed:
            flags.add(FLAG_SPEED)
        if k > 0 and drawn[k - 1][3] == run and interior_angle_deg(
                drawn[k - 1][0], start, end) < threshold:
            flags.add(FLAG_CORNER)
        if k + 1 < len(drawn) and drawn[k + 1][3] == run and \
                interior_angle_deg(start, end, drawn[k + 1][1].to) < threshold:
            flags.add(FLAG_CORNER)
        if width_source == "empirical":
            width_m = width_model.predict(move.speed_mm_s, move.pressure_g)
        else:
            width_m = phys.width_m
        traces.append(TraceSegment(
            start=start, end=end, width_m=width_m,
            flux_m3_s=phys.flux_m3_s, creep=phys.creep,
            contact_angle_deg=phys.contact_angle_deg,
            speed_mm_s=move.speed_mm_s, pressure_g=move.pressure_g,
            flags=tuple(sorted(flags))))

    counts = {FLAG_CORNER: 0, FLAG_SLIP: 0, FLAG_SPEED: 0}
    for t in traces:
        for f in t.flags:
            counts[f] += 1
    return SimulationResult(
        traces=tuple(traces),
        print_time_s=time_s,
        ink_volume_mm3=volume_mm3,
        trace_length_mm=sum(t.length_mm for t in traces),
        tap_count=taps,
        lift_count=lifts,
        flag_counts=counts,
        width_source=width_source,
        final_state=state,
    )


def rasterize(traces, scale: float, *,
              max_pixels: int = 50_000_000) -> RasterImage:
    """Stamp traces into a binary occupancy raster at scale mm/pixel.

    Each segment is stroked at its predicted width with round caps; a
    pixel is ink (255) when its centre lies within half a width of any
    segment's centreline, so overlaps count once. The canvas is padded by
    the largest half-width plus one pixel and its origin snapped to the
    pixel grid; identical traces give identical bytes. Row 0 is the top
    (largest y), matching image conventions.
    """
    if scale <= 0:
        raise ConfigError("raster scale must be > 0")
    import numpy as np
    traces = tuple(traces)
    if not traces:
        return RasterImage(width=1, height=1, scale=scale,
                           cells=np.zeros((1, 1), dtype=np.uint8),
                           origin_mm=(0.0, 0.0))
    halfw_mm = [0.5 * t.width_m * 1e3 for t in traces]
    pad = max(halfw_mm) + scale
    xs = [c for t in traces for c in (t.start[0], t.end[0])]
    ys = [c for t in traces for c in (t.start[1], t.end[1])]
    ox = math.floor((min(xs) - pad) / scale) * scale
    oy = math.ceil((max(ys) + pad) / scale) * scale  # top edge
    wpx = int(math.ceil((max(xs) + pad - ox) / scale)) + 1
    hpx = int(math.ceil((oy - (min(ys) - pad)) / scale)) + 1
    if wpx * hpx > max_pixels:
        raise RasterSizeError(
            f"raster {wpx}x{hpx} = {wpx * hpx} px exceeds budget {max_pixels}")
    cells = np.zeros((hpx, wpx), dtype=np.uint8)
    for t, hw in zip(traces, halfw_mm):
        if hw <= 0.0:
            continue
        (sx, sy), (ex, ey) = t.start, t.end
        j0 = max(0, int((min(sx, ex) - hw - ox) / scale) - 1)
        j1 = min(wpx, int((max(sx, ex) + hw - ox) / scale) + 2)
        i0 = max(0, int((oy - (max(sy, ey) + hw)) / scale) - 1)
        i1 = min(hpx, int((oy - (min(sy, ey) - hw)) / scale) + 2)
        if j0 >= j1 or i0 >= i1:
            continue
        px = ox + (np.arange(j0, j1) + 0.5) * scale
        py = oy - (np.arange(i0, i1) + 0.5) * scale
        dx, dy = ex - sx, ey - sy
        rx = px[None, :] - sx
        ry = py[:, None] - sy
        ll = dx * dx + dy * dy
        if ll == 0.0:
            d2 = rx * rx + ry * ry
        else:
            s = np.clip((rx * dx + ry * dy) / ll, 0.0, 1.0)
            d2 = (rx - s * dx) ** 2 + (ry - s * dy) ** 2
        window = cells[i0:i1, j0:j1]
        window[d2 <= hw * hw] = 255
    return RasterImage(width=wpx, height=hpx, scale=scale, cells=cells,
                       origin_mm=(ox, oy))


# --------------------------------------------------------------------------
# empirical width model (measurement-driven alternative to the physics chain)


@dataclass(frozen=True)
class EmpiricalWidthModel:
    """Power law w = a * F_g^b / v^c fitted to measured line widths.

    Speeds in mm/s, forces in grams, widths in metres. b, c >= 0 so the
    width never increases with speed and never decreases with pressure.
    """

    a: float
    b: float
    c: float
    residual: float = 0.0

    def __post_init__(self):
        if not (self.a > 0):
            raise CalibrationError("width model: a must be > 0")
        if self.b < 0 or self.c < 0:
            raise CalibrationError("width model: b and c must be >= 0")

    def predict(self, speed_mm_s: float, pressure_g: float) -> float:
        if speed_mm_s <= 0:
            raise ConfigError("speed must be > 0")
        if pressure_g < 0:
            raise ConfigError("pressure must be >= 0")
        return self.a * pressure_g ** self.b / speed_mm_s ** self.c


def fit_width_model(samples) -> EmpiricalWidthModel:
    """Fit the width power law to (speed mm/s, pressure g, width m) samples.

    Least squares in log space with the exponents constrained nonnegative
    (log w = log a + b log F - c log v, solved as NNLS with the intercept
    split into a +/- pair). Needs at least 3 samples spanning at least 2
    distinct speeds and 2 distinct pressures, all strictly positive.
    """
    samples = [(float(v), float(f), float(w)) for v, f, w in samples]
    if len(samples) < 3:
        raise CalibrationError("width fit needs at least 3 samples")
    if any(v <= 0 or f <= 0 or w <= 0 for v, f, w in samples):
        raise CalibrationError("width fit needs positive speeds, pressures "
                               "and widths (log-space fit)")
    if len({v for v, _, _ in samples}) < 2:
        raise CalibrationError("width fit needs at least 2 distinct speeds")
    if len({f for _, f, _ in samples}) < 2:
        raise CalibrationError("width fit needs at least 2 distinct pressures")
    import numpy as np
    from scipy.optimize import nnls
    rows = np.array([[1.0, -1.0, math.log(f), -math.log(v)]
                     for v, f, _ in samples])
    rhs = np.array([math.log(w) for _, _, w in samples])
    coef, resid = nnls(rows, rhs)
    return EmpiricalWidthModel(a=math.exp(coef[0] - coef[1]), b=coef[2],
                               c=coef[3], residual=float(resid))
