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
from typing import TYPE_CHECKING

from .core import Record
from .environment import DEFAULT_ENVIRONMENT, Environment
from .errors import CalibrationError, ConfigError, RasterSizeError
from .planner import HeadState, Point, Toolpath, _walk, interior_angle_deg
if TYPE_CHECKING:
    from .raster import RasterImage


FLAG_CORNER = "corner-risk"
FLAG_SLIP = "slip-risk"
FLAG_SPEED = "speed-warning"


class TraceSegment(Record):
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
    traces = []
    sharp_start = False  # is the joint where segment k starts sharp?
    for k, (start, move, phys, run) in enumerate(drawn):
        end = move.to
        # segment k ends where segment k + 1 starts, so each joint's angle
        # is computed once and flags both segments
        sharp_end = k + 1 < len(drawn) and drawn[k + 1][3] == run and \
            interior_angle_deg(start, end, drawn[k + 1][1].to) < threshold
        flags = set()
        if phys.full_slip or abs(phys.creep) > env.s_max:
            flags.add(FLAG_SLIP)
        if move.speed_mm_s > env.limits.preferred_max_speed:
            flags.add(FLAG_SPEED)
        if sharp_start or sharp_end:
            flags.add(FLAG_CORNER)
        sharp_start = sharp_end
        if width_model is not None:
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
        width_source="physics" if width_model is None else "empirical",
        final_state=state,
    )


# (trace, row) pairs per batch: the batch's arrays stay in cache and add
# about 1 MB to the peak memory of a small drawing
_SPAN_CHUNK = 1 << 12


def rasterize(traces, scale: float, *,
              max_pixels: int = 50_000_000) -> RasterImage:
    """Stamp traces into a binary occupancy raster at scale mm/pixel.

    Each segment is stroked at its predicted width with round caps; a
    pixel is ink (255) when its centre lies within half a width of any
    segment's centreline, so overlaps count once. The canvas is padded by
    the largest half-width plus one pixel and its origin snapped to the
    pixel grid; identical traces give identical bytes. Row 0 is the top
    (largest y), matching image conventions.

    A trace crosses each row of its window in one span of pixels, since a
    capsule is convex (the rule's rounding could split a span only on a
    row that grazes the band edge of a segment some 1e7 half-widths
    long). All (trace, row) pairs are batched: each span's ends come from
    where the row meets the capsule's outline, then are settled with the
    per-pixel rule itself. The spans are merged and the canvas is built in
    one pass of alternating 0/255 runs.
    """
    if not (0.0 < scale < math.inf):
        raise ConfigError("raster scale must be finite and > 0")
    import numpy as np
    from .raster import RasterImage
    traces = tuple(traces)
    if not traces:
        return RasterImage(width=1, height=1, scale=scale,
                           cells=np.zeros((1, 1), dtype=np.uint8),
                           origin_mm=(0.0, 0.0))
    geom = np.array([(t.start[0], t.start[1], t.end[0], t.end[1], t.width_m)
                     for t in traces], dtype=np.float64)
    if not np.isfinite(geom).all():
        raise ConfigError("trace coordinates and widths must be finite")
    sx, sy, ex, ey, width_m = geom.T
    hw = 0.5 * width_m * 1e3
    pad = float(hw.max()) + scale
    left = float(min(sx.min(), ex.min()))
    right = float(max(sx.max(), ex.max()))
    bottom = float(min(sy.min(), ey.min()))
    top = float(max(sy.max(), ey.max()))
    ox = math.floor((left - pad) / scale) * scale
    oy = math.ceil((top + pad) / scale) * scale  # top edge
    wpx = int(math.ceil((right + pad - ox) / scale)) + 1
    hpx = int(math.ceil((oy - (bottom - pad)) / scale)) + 1
    if wpx * hpx > max_pixels:
        raise RasterSizeError(
            f"raster {wpx}x{hpx} = {wpx * hpx} px exceeds budget {max_pixels}")

    # each trace's window of candidate pixels, as the per-pixel rule has it
    j0 = np.maximum(0, ((np.minimum(sx, ex) - hw - ox) / scale)
                    .astype(np.int64) - 1)
    j1 = np.minimum(wpx, ((np.maximum(sx, ex) + hw - ox) / scale)
                    .astype(np.int64) + 2)
    i0 = np.maximum(0, ((oy - (np.maximum(sy, ey) + hw)) / scale)
                    .astype(np.int64) - 1)
    i1 = np.minimum(hpx, ((oy - (np.minimum(sy, ey) - hw)) / scale)
                    .astype(np.int64) + 2)
    keep = (hw > 0.0) & (j0 < j1) & (i0 < i1)
    sx, sy, hw, j0, j1, i0 = (v[keep] for v in (sx, sy, hw, j0, j1, i0))
    dx, dy = ex[keep] - sx, ey[keep] - sy
    # the analytic spans use a radius grown by far more than the rounding
    # of any coordinate, so they hold every pixel the rule calls ink
    grown = hw + 1e-12 * (hw + scale + np.abs(sx) + np.abs(sy)
                          + np.abs(dx) + np.abs(dy))
    rows = i1[keep] - i0
    last = np.cumsum(rows)

    total = int(last[-1]) if last.size else 0
    starts, stops = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for p0 in range(0, total, _SPAN_CHUNK):
        p = np.arange(p0, min(p0 + _SPAN_CHUNK, total))
        k = np.searchsorted(last, p, side="right")
        row = i0[k] + p - (last[k] - rows[k])
        ry = oy - (row + 0.5) * scale - sy[k]
        pair = (ry, sx[k], dx[k], dy[k], hw[k])
        first, final = j0[k], j1[k] - 1
        lo, hi = _capsule_row(ry, dx[k], dy[k], grown[k])
        # a row that misses the capsule (lo = inf, hi = -inf) gets a > b
        a = np.clip(np.ceil((sx[k] + lo - ox) / scale - 0.5),
                    first, final + 1).astype(np.int64)
        b = np.clip(np.floor((sx[k] + hi - ox) / scale - 0.5),
                    first - 1, final).astype(np.int64)
        # settle both ends with the per-pixel rule: a span is exact when
        # a-1 is out, a is in, b is in and b+1 is out
        live = np.flatnonzero(a <= b)
        while live.size:
            al, bl = a[live], b[live]
            before, a_in, b_in, after = _ink(
                np.stack((al - 1, al, bl, bl + 1)), ox, scale,
                *(v[live] for v in pair))
            a_end = (al == first[live]) | ~before
            b_end = (bl == final[live]) | ~after
            a[live] = np.where(a_in, np.where(a_end, al, al - 1), al + 1)
            b[live] = np.where(b_in, np.where(b_end, bl, bl + 1), bl - 1)
            live = live[~(a_in & b_in & a_end & b_end)
                        & (a[live] <= b[live])]
        full = a <= b
        base = row[full] * wpx
        starts.append(base + a[full])
        stops.append(base + b[full] + 1)
    cells = _paint(starts, stops, wpx * hpx)
    return RasterImage(width=wpx, height=hpx, scale=scale,
                       cells=cells.reshape(hpx, wpx), origin_mm=(ox, oy))


def _capsule_row(ry, dx, dy, r):
    """Real x-interval (lo, hi), relative to the segment start, where the
    row at height ry crosses the capsule of radius r around the segment
    (0, 0)-(dx, dy); lo > hi when the row misses it.

    The disc around the centreline point at parameter t crosses the row on
    t*dx -+ sqrt(r^2 - (ry - t*dy)^2). The left end is convex and the right
    end concave in t, so each is extreme where the row meets a band edge,
    or at the segment end nearest that point; a disc there that misses the
    row means every disc does.
    """
    import numpy as np
    ll = dx * dx + dy * dy
    flat = (dy == 0.0) | (ll == 0.0)  # t does not move the disc off the row
    with np.errstate(all="ignore"):  # flat rows are masked
        v = r * dx * np.sign(dy) / np.sqrt(ll)
        t_lo = np.clip(np.where(flat, dx < 0.0, (ry - v) / dy), 0.0, 1.0)
        t_hi = np.clip(np.where(flat, dx > 0.0, (ry + v) / dy), 0.0, 1.0)
    h2_lo = r * r - (ry - t_lo * dy) ** 2
    h2_hi = r * r - (ry - t_hi * dy) ** 2
    miss = np.maximum(h2_lo, h2_hi) < 0.0
    lo = t_lo * dx - np.sqrt(np.maximum(h2_lo, 0.0))
    hi = t_hi * dx + np.sqrt(np.maximum(h2_hi, 0.0))
    return np.where(miss, np.inf, lo), np.where(miss, -np.inf, hi)


def _ink(col, ox, scale, ry, sx, dx, dy, hw):
    """The per-pixel rule: is the centre of pixel column col within hw of
    the segment? Same float operations, in the same order, as testing a
    whole window."""
    import numpy as np
    rx = ox + (col + 0.5) * scale - sx
    ll = dx * dx + dy * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.clip((rx * dx + ry * dy) / ll, 0.0, 1.0)
    s = np.where(ll == 0.0, 0.0, s)  # a point: the distance to its start
    return (rx - s * dx) ** 2 + (ry - s * dy) ** 2 <= hw * hw


def _paint(starts, stops, n):
    """uint8 array of n pixels, 255 on the union of the spans
    [starts, stops), given as lists of flat-index arrays."""
    import numpy as np
    starts, stops = np.concatenate(starts), np.concatenate(stops)
    if not starts.size:
        return np.zeros(n, dtype=np.uint8)
    order = np.argsort(starts, kind="stable")
    starts, stops = starts[order], stops[order]
    np.maximum.accumulate(stops, out=stops)  # ink reached so far
    cut = np.flatnonzero(starts[1:] > stops[:-1]) + 1  # spans after a gap
    first = starts[np.append(0, cut)]
    end = stops[np.append(cut - 1, stops.size - 1)]
    del order, starts, stops, cut  # freed before the canvas is allocated
    runs = np.empty(2 * first.size + 1, dtype=np.int64)
    runs[0:-1:2] = first - np.append(0, end[:-1])
    runs[1::2] = end - first
    runs[-1] = n - end[-1]
    values = np.zeros(runs.size, dtype=np.uint8)
    values[1::2] = 255
    return np.repeat(values, runs)


# --------------------------------------------------------------------------
# empirical width model (measurement-driven alternative to the physics chain)


class EmpiricalWidthModel(Record):
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
