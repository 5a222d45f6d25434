"""Toolpath execution: deposited traces, rasters.

simulate() walks a toolpath through the tap/move/lift state machine (the
walk planner.estimate() makes too) and, for every drawn segment, takes the
segment physics chain's predicted width, flux and creep, attaching risk
flags. rasterize() stamps the resulting traces into a binary occupancy
image for preview and area-based volume checks. fit_width_model() provides
the alternative, measurement-driven width predictor.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING

from .core import Record, trusted
from .environment import DEFAULT_ENVIRONMENT, Environment
from .errors import CalibrationError, ConfigError, RasterSizeError
from .planner import HeadState, Point, Toolpath, _walk, interior_angle_deg
if TYPE_CHECKING:
    from .raster import RasterImage


FLAG_CORNER = "corner-risk"
FLAG_SLIP = "slip-risk"
FLAG_SPEED = "speed-warning"
# a trace's sorted flags by whether it has (slip-risk, speed-warning,
# corner-risk)
_FLAGS = {key: tuple(sorted(flag for flag, on in zip(
    (FLAG_SLIP, FLAG_SPEED, FLAG_CORNER), key) if on))
    for key in itertools.product((False, True), repeat=3)}


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
        if width_model is not None:
            width_m = width_model.predict(move.speed_mm_s, move.pressure_g)
        else:
            width_m = phys.width_m
        # the walk's points are tuples of two floats, as a Move stores them
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
    long). All (trace, row) pairs are batched, and each span's ends come
    from where the row meets two outlines of the capsule, an outer one at
    half-width hw + eps and an inner one at hw - eps. Where both outlines
    put each end on the same pixel, the per-pixel rule is certain to
    agree and is not evaluated; only the other pairs (grazing rows, ends
    within eps of a pixel centre) are settled with the rule itself (see
    _spans for eps). The merged spans are the result: a RasterImage of
    alternating 0/255 run lengths, whose canvas is built only when its
    cells are read.
    """
    if not (0.0 < scale < math.inf):
        raise ConfigError("raster scale must be finite and > 0")
    import numpy as np
    from .raster import RasterImage
    traces = tuple(traces)
    if not traces:
        return RasterImage(width=1, height=1, scale=scale, runs=[1],
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
    ox = float(np.floor((left - pad) / scale)) * scale
    oy = float(np.ceil((top + pad) / scale)) * scale  # top edge
    wpx = float(np.ceil((right + pad - ox) / scale)) + 1.0
    hpx = float(np.ceil((oy - (bottom - pad)) / scale)) + 1.0
    # sized in floats: a side past every float, inf or nan, fails here too
    if not wpx * hpx <= max_pixels:
        raise RasterSizeError(f"raster {wpx:.0f}x{hpx:.0f} = {wpx * hpx:.0f} "
                              f"px exceeds budget {max_pixels}")
    wpx, hpx = int(wpx), int(hpx)
    # the per-trace arrays live in _spans only, so they are gone before
    # the merge, the peak of the call
    starts, stops = _spans(sx, sy, ex, ey, hw, ox, oy, scale, wpx, hpx)
    return RasterImage(width=wpx, height=hpx, scale=scale,
                       runs=_runs(starts, stops, wpx * hpx),
                       origin_mm=(ox, oy))


def _spans(sx, sy, ex, ey, hw, ox, oy, scale, wpx, hpx):
    """Flat-index starts and stops of each trace's span on each row of its
    window: exactly the pixels the per-pixel rule (_ink) calls ink.

    The outlines are the row's crossings of the capsule at radii hw + eps
    and hw - eps, both at the centreline parameters t that _capsule_row
    picks for the outer one. Take a = ceil and b = floor of the outer
    ends in pixel columns, clipped to the window. A pair whose inner ends
    give the same a and b is exact: the centre of a - 1 lies before the
    outer end, so farther than hw + eps from the segment (or outside the
    window), and the rule calls it background (b + 1 likewise); the
    centres of a..b lie between the inner ends, each on the disc of
    radius hw - eps at its t, so within hw - eps of the segment (the
    inner capsule is convex), and the rule calls them ink. Both hold up
    to the roundings below, which eps bounds. The other pairs start from
    the outer ends and walk them with the rule until it confirms them.

    The margin is eps = 1e-12 (|ox| + |oy| + |sx| + |sy| + |dx| + |dy| +
    hw + scale) mm, for each trace, and it bounds every rounding between
    a pixel's index and the rule's answer:

    - The rule (rx = ox + (col + 0.5) scale - sx, its projection and
      d^2 <= hw^2) and the outlines (in pixel units: t, the crossing, the
      ceil or floor of an end) each take a few roundings, every one
      within u = 2^-53 of a magnitude the sum bounds: a window column
      lies at most |ox| + |sx| + |dx| + hw + 2 scale from the canvas
      origin, and a row at most |oy| + |sy| + |dy| + hw + 3 scale. An
      error in x or y moves a distance by no more than itself, so
      together they move a pixel's distance, or an end, by under 100 u
      times the sum; 1e-12 is about 9000 u.
    - The computed t of an outer end may miss the true one by dt, most
      on a nearly flat segment (dt up to about 20 u (hw + scale + |dy|)
      / |dy|). The row then meets the band edge, tangent to the disc at
      the true t, at the segment's own angle; where the disc at the
      computed t still crosses the row (the inner disc does whenever a
      pair is certified), it does so within |dt dy| of that edge, so the
      points before its end are farther than hw + eps - |dt dy| from the
      segment (2 |dt dy| for an end clamped to a segment end, measured
      on the segment extended). |dt dy| is a rounding of the sum above.
    - An inner end needs no such care: it lies on the disc of radius
      hw - eps at its own t, whatever t is.

    A trace whose eps reaches hw has no inner outline, and its pairs are
    all settled with the rule.

    Pairs run trace by trace, row by row, in batches of _SPAN_CHUNK. A
    batch finds its first and last trace with two scalar searches and
    repeats those traces' constants over their rows in it, one np.repeat.
    It makes one a <= b mask and writes its spans in order through it.
    Flat indices are int32 on a canvas under 2^31 pixels and int64 on a
    larger one.
    """
    import numpy as np
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
    rows = i1[keep] - i0
    last = np.cumsum(rows)
    ll, hw2 = dx * dx + dy * dy, hw * hw

    eps = 1e-12 * (abs(ox) + abs(oy) + np.abs(sx) + np.abs(sy)
                   + np.abs(dx) + np.abs(dy) + hw + scale)
    # per trace, in pixel units: the row of pair p is p + shift; the
    # start's row and column coordinates (pixel centres at integers), the
    # segment, the parameters of t, the squared radii and the window's
    # bounds on a and on b
    px, py = dx / scale, dy / scale
    r_out = (hw + eps) / scale
    r_in = np.where(eps < hw, (hw - eps) / scale, np.nan)
    consts = np.stack((
        i0 - (last - rows), (oy - sy) / scale - 0.5, (sx - ox) / scale - 0.5,
        px, py, *_capsule_t(px, py, r_out), r_out * r_out, r_in * r_in,
        j0, j1, j0 - 1, j1 - 1))

    total = int(last[-1]) if last.size else 0
    # at most one span per pair; m spans are written so far. Flat indices
    # fit int32 on a canvas under 2^31 pixels, and the merge then sorts
    # half the bytes
    flat = np.int32 if wpx * hpx < 2 ** 31 else np.int64
    starts, stops = np.empty(total, flat), np.empty(total, flat)
    m = 0
    for p0 in range(0, total, _SPAN_CHUNK):
        p1 = min(p0 + _SPAN_CHUNK, total)
        # the batch covers traces k0..k1-1, each for count of its rows
        k0, k1 = np.searchsorted(last, (p0, p1 - 1), side="right")
        k1 += 1
        count = rows[k0:k1].copy()
        count[0] = last[k0] - p0
        count[-1] -= last[k1 - 1] - p1
        shift, cy, cx, tpx, tpy, g, c_lo, c_hi, out2, in2, a0, a1, b0, b1 = \
            consts[:, k0:k1].repeat(count, axis=1)
        row = shift + np.arange(p0, p1)
        lo, hi, lo_in, hi_in = _capsule_row(cy - row, cx, tpx, tpy, g, c_lo,
                                            c_hi, out2, in2)
        # a row that misses the capsule (lo = inf, hi = -inf) gets a > b;
        # an inner end that is missing (nan) or beyond the window agrees
        # with no outer one
        a = np.clip(np.ceil(lo), a0, a1)
        b = np.clip(np.floor(hi), b0, b1)
        span = a <= b
        sure = (np.ceil(lo_in) == a) & (np.floor(hi_in) == b)
        live = np.flatnonzero(span > sure)  # a span, its ends not certain
        if live.size:
            k = np.repeat(np.arange(k0, k1), count)
            pair = (oy - (row + 0.5) * scale - sy[k], sx[k], dx[k], dy[k],
                    ll[k], hw2[k])
        # settle the other ends with the per-pixel rule: a span is exact
        # when a-1 is out, a is in, b is in and b+1 is out
        settled = live
        while live.size:
            al, bl = a[live], b[live]
            before, a_in, b_in, after = _ink(
                np.stack((al - 1, al, bl, bl + 1)), ox, scale,
                *(v[live] for v in pair))
            a_end = (al == a0[live]) | ~before
            b_end = (bl == b1[live]) | ~after
            a[live] = np.where(a_in, np.where(a_end, al, al - 1), al + 1)
            b[live] = np.where(b_in, np.where(b_end, bl, bl + 1), bl - 1)
            live = live[~(a_in & b_in & a_end & b_end)
                        & (a[live] <= b[live])]
        span[settled] = a[settled] <= b[settled]  # a walk may empty a span
        n = int(np.count_nonzero(span))
        base = row * wpx  # exact: the canvas has under 2^53 pixels
        starts[m:m + n] = (base + a)[span]
        stops[m:m + n] = (base + b + 1.0)[span]
        m += n
    return starts[:m], stops[:m]


def _capsule_t(dx, dy, r):
    """Per-segment constants (g, c_lo, c_hi) of _capsule_row: on the row
    at height y, the left end of the crossing of the capsule of radius r
    around (0, 0)-(dx, dy) is found at t_lo = clip(y g - c_lo, 0, 1) and
    the right end at t_hi = clip(y g - c_hi, 0, 1).

    The disc around the centreline point at parameter t crosses the row on
    t*dx -+ sqrt(r^2 - (y - t*dy)^2). The left end is convex and the right
    end concave in t, so each is extreme where the row meets a band edge,
    t = (y -+ v) / dy with v = r dx sign(dy) / |d|, or at the segment end
    nearest that point; a disc there that misses the row means every disc
    does. A flat segment (|dy| under 1e-100 px, where 1 / dy may overflow;
    a point too) takes each end from the disc at its segment end on that
    side, whatever y is, off by under 1e-44 px on a row within 1e10 px.
    """
    import numpy as np
    ll = dx * dx + dy * dy
    flat = np.abs(dy) < 1e-100  # t does not move the disc off the row
    with np.errstate(all="ignore"):  # flat segments are masked
        g = 1.0 / dy
        w = r * dx / (np.sqrt(ll) * np.abs(dy))  # v / dy
    return (np.where(flat, 0.0, g), np.where(flat, -1.0 * (dx < 0.0), w),
            np.where(flat, -1.0 * (dx > 0.0), -w))


def _capsule_row(y, x0, dx, dy, g, c_lo, c_hi, r2_out, r2_in):
    """Real x-intervals where the row at height y crosses the capsule
    around the segment (x0, 0)-(x0 + dx, dy): the outer one (lo, hi) at
    squared radius r2_out, and the inner ends (lo_in, hi_in) at squared
    radius r2_in, taken at the same t, those _capsule_t gives for the
    outer radius (g, c_lo, c_hi).

    (lo, hi) is the exact crossing, and (inf, -inf) when the row misses
    the capsule. Each inner end lies on the disc of the inner radius at
    its t, so within that radius of the segment, and inside the outer
    interval; it is nan where that disc misses the row.
    """
    import numpy as np
    yg = y * g
    t_lo = np.clip(yg - c_lo, 0.0, 1.0)
    t_hi = np.clip(yg - c_hi, 0.0, 1.0)
    q_lo = y - t_lo * dy
    q_hi = y - t_hi * dy
    q_lo *= q_lo
    q_hi *= q_hi
    x_lo, x_hi = x0 + t_lo * dx, x0 + t_hi * dx
    h2_lo, h2_hi = r2_out - q_lo, r2_out - q_hi
    miss = np.maximum(h2_lo, h2_hi) < 0.0
    lo = np.where(miss, np.inf, x_lo - np.sqrt(np.maximum(h2_lo, 0.0)))
    hi = np.where(miss, -np.inf, x_hi + np.sqrt(np.maximum(h2_hi, 0.0)))
    with np.errstate(invalid="ignore"):  # no inner crossing: nan
        return lo, hi, x_lo - np.sqrt(r2_in - q_lo), \
            x_hi + np.sqrt(r2_in - q_hi)


def _ink(col, ox, scale, ry, sx, dx, dy, ll, hw2):
    """The per-pixel rule: is the centre of pixel column col within hw of
    the segment? Same float operations, in the same order, as testing a
    whole window; ll = dx*dx + dy*dy and hw2 = hw*hw come per trace."""
    import numpy as np
    rx = ox + (col + 0.5) * scale - sx
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.clip((rx * dx + ry * dy) / ll, 0.0, 1.0)
    s = np.where(ll == 0.0, 0.0, s)  # a point: the distance to its start
    return (rx - s * dx) ** 2 + (ry - s * dy) ** 2 <= hw2


def _runs(starts, stops, n):
    """Run lengths of n pixels, alternately 0 and 255 and background
    first, with ink on the union of the spans [starts, stops), which are
    flat-index arrays of equal size and one integer dtype and are sorted
    in place. The runs are int64 whatever that dtype: _spans hands int32
    indices on a canvas under 2^31 pixels, which halves the bytes the two
    sorts move."""
    import numpy as np
    if not starts.size:
        return np.array([n], dtype=np.int64)
    starts.sort()
    stops.sort()
    # with both sorted, stop i closes a run exactly when start i + 1 lies
    # beyond it: starts and stops 0..i have all passed there, so no span
    # covers it unless a later start does
    cut = np.flatnonzero(starts[1:] > stops[:-1])
    runs = np.empty(2 * cut.size + 3, dtype=np.int64)
    runs[0], runs[-1] = starts[0], n - stops[-1]
    ink = runs[1::2]  # each ink run's end, then its length
    ink[:-1], ink[-1] = stops[cut], stops[-1]
    cut += 1  # the spans that start the ink runs after the first
    runs[2:-1:2] = starts[cut] - ink[:-1]
    ink[0] -= starts[0]
    ink[1:] -= starts[cut]
    return runs


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
