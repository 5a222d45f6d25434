"""The vector span kernel: numpy stamps a drawing's (trace, row) pairs in
batches. raster.rasterize loads this module only for a drawing past
raster._SCALAR_PAIRS pairs; the scalar kernel in raster makes the same
float decisions on smaller ones.
"""

from __future__ import annotations

import numpy as np

from .raster import RasterImage, _canvas

# (trace, row) pairs per batch: the batch's arrays stay in cache and add
# about 1 MB to the peak memory of a small drawing
_SPAN_CHUNK = 1 << 12


def rasterize(traces, scale: float, max_pixels: int) -> RasterImage:
    """raster.rasterize with the vector kernel, on a non-empty tuple of
    traces: the spans of every (trace, row) pair, merged into runs."""
    sx, sy, ex, ey, width_m = np.array(
        [(*t.start, *t.end, t.width_m) for t in traces], dtype=np.float64).T
    hw = 0.5 * width_m * 1e3
    ox, oy, wpx, hpx = _canvas(
        float(min(sx.min(), ex.min())), float(max(sx.max(), ex.max())),
        float(min(sy.min(), ey.min())), float(max(sy.max(), ey.max())),
        float(hw.max()), scale, max_pixels)
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
    # each trace's window of candidate pixels, as the per-pixel rule has it
    j0 = np.maximum(0, ((np.minimum(sx, ex) - hw - ox) / scale)
                    .astype(np.int64) - 1)
    j1 = np.minimum(wpx, ((np.maximum(sx, ex) + hw - ox) / scale)
                    .astype(np.int64) + 2)
    i0 = np.maximum(0, ((oy - (np.maximum(sy, ey) + hw)) / scale)
                    .astype(np.int64) - 1)
    i1 = np.minimum(hpx, ((oy - (np.minimum(sy, ey) - hw)) / scale)
                    .astype(np.int64) + 2)
    keep = hw > 0.0  # a window is never empty (see raster._canvas)
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
    if not starts.size:
        return np.array([n], dtype=np.int64)
    starts.sort()
    stops.sort()
    # with both sorted, stop i closes a run exactly when start i + 1 lies
    # beyond it: starts and stops 0..i have all passed there, so no span
    # covers it unless a later start does
    cut = starts[1:] > stops[:-1]
    ends, begins = stops[:-1][cut], starts[1:][cut]
    k = ends.size
    # background, then ink and gap in turn: ink run r goes from begins[r - 1]
    # (starts[0] for r = 0) to ends[r] (stops[-1] for r = k)
    runs = np.empty(2 * k + 3, dtype=np.int64)
    runs[0], runs[-1] = starts[0], n - stops[-1]
    np.subtract(begins, ends, out=runs[2:-1:2])
    np.subtract(ends[1:], begins[:-1], out=runs[3:-3:2])
    if k:
        runs[1], runs[-2] = ends[0] - starts[0], stops[-1] - begins[-1]
    else:
        runs[1] = stops[-1] - starts[0]
    return runs
