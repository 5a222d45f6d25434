"""Binary occupancy rasters, held as run lengths: the rasterizer, which
stamps traces into one, and the binary PGM (P5) writer, which paints the
PGM in bands from the runs without a canvas.

The raster is georeferenced: origin_mm is the (x, y) of the top-left pixel
corner, rows run toward decreasing y (image convention). PGM carries no
scale, so reading one back needs the scale repeated; pixel content and
dimensions round-trip bit-exactly.

Two kernels stamp the traces, with the same float decisions and so the
same bytes: a drawing of at most _SCALAR_PAIRS (trace, row) pairs is
stamped here in plain Python floats, a larger one by the vector kernel in
lmprint.spans, the only part of rasterizing and painting that imports
numpy. Reading the cells canvas, from_cells and read_pgm import it too.
"""

from __future__ import annotations

import math
import sys
from array import array
from functools import cached_property
from itertools import chain, islice

from .core import Record
from .errors import ConfigError, DrawingFormatError, RasterSizeError

# pixels per PGM body chunk: each chunk is painted from the runs it crosses
# and written before the next, so no canvas is held
_PGM_BAND = 1 << 20

# the most (trace, row) pairs the scalar kernel stamps: at 1.3-2.0 us a
# pair, 2^14 pairs take about a third of a fresh numpy import (75-116 ms
# on a shared 2-CPU host), which the scalar kernel saves
_SCALAR_PAIRS = 1 << 14


class RasterImage(Record):
    """A binary raster at scale mm/px, held as run lengths, row-major over
    width * height pixels: runs alternates 0 and 255, background first.
    The form is canonical (an odd count; only the first and last run may
    be 0), so equal pixels are equal runs. runs is an int64 numpy array
    when built from one (the vector kernel, from_cells), else an
    array('q'), which numpy views without a copy; the two compare equal
    run for run. cells, the (height, width) uint8 canvas, is built on
    first read and kept."""

    width: int
    height: int
    scale: float
    runs: array  # or an int64 numpy array
    origin_mm: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ConfigError("raster dimensions must be >= 1")
        if not (0 < self.scale < math.inf):
            raise ConfigError("raster scale must be finite and > 0")
        runs, pixels = self.runs, self.width * self.height
        np = sys.modules.get("numpy")  # an ndarray means numpy is loaded
        if np is not None and isinstance(runs, np.ndarray):
            # a float length would be truncated by a cast, so none is taken
            if runs.dtype.kind not in "iu" or runs.ndim != 1 \
                    or runs.size % 2 == 0 or runs.min() < 0 \
                    or not runs[1:-1].all() or runs.sum() != pixels:
                raise ConfigError(_NOT_CANONICAL)
            runs = np.ascontiguousarray(runs, dtype=np.int64)
        else:
            if not (isinstance(runs, array) and runs.typecode == "q"):
                try:  # a float length is a TypeError, not a truncation
                    runs = array("q", runs)
                except (TypeError, ValueError, OverflowError):
                    raise ConfigError(_NOT_CANONICAL) from None
            if len(runs) % 2 == 0 or min(runs) < 0 \
                    or not all(runs[1:-1]) or sum(runs) != pixels:
                raise ConfigError(_NOT_CANONICAL)
        object.__setattr__(self, "runs", runs)

    @classmethod
    def from_cells(cls, width: int, height: int, scale: float, cells,
                   origin_mm: tuple[float, float] = (0.0, 0.0)) -> RasterImage:
        """The raster of a (height, width) canvas of 0 and 255 pixels: its
        runs end where a pixel differs from the one before, with background
        before the first pixel and after the last."""
        import numpy as np
        cells = np.asarray(cells)
        if cells.shape != (height, width):
            raise ConfigError(
                f"cells shape {cells.shape} does not match "
                f"(height, width)=({height}, {width})")
        if not ((cells == 0) | (cells == 255)).all():
            raise DrawingFormatError("raster pixels must be 0 or 255")
        edges = np.flatnonzero(np.diff(cells.ravel() != 0, prepend=False,
                                       append=False))
        runs = np.diff(edges, prepend=0, append=cells.size)
        return cls(width=width, height=height, scale=scale, runs=runs,
                   origin_mm=origin_mm)

    def __eq__(self, other):
        if not isinstance(other, RasterImage):
            return NotImplemented
        if (self.width, self.height, self.scale, self.origin_mm) != \
                (other.width, other.height, other.scale, other.origin_mm):
            return False
        a, b = self.runs, other.runs
        if isinstance(a, array) and isinstance(b, array):
            return a == b
        import numpy as np  # one of the two is an ndarray
        return bool(np.array_equal(a, b))

    @cached_property
    def cells(self):
        import numpy as np
        return np.repeat(_shades(len(self.runs)), self.runs).reshape(
            self.height, self.width)

    def occupied_area_mm2(self) -> float:
        """Area covered by ink pixels."""
        ink = self.runs[1::2]
        pixels = sum(ink) if isinstance(ink, array) else int(ink.sum())
        return float(pixels) * self.scale * self.scale


_NOT_CANONICAL = "runs must be canonical integer lengths that sum to " \
                 "width * height"


def _shades(count: int):
    """The values of count runs: 0 and 255 alternately, 0 first."""
    import numpy as np
    shades = np.zeros(count, dtype=np.uint8)
    shades[1::2] = 255
    return shades


def pgm_parts(image: RasterImage):
    """The PGM header, then the body in bands of at most _PGM_BAND pixels.

    Each band is painted from the runs it crosses, so writing the parts in
    turn writes the PGM without holding a canvas. An array('q') of runs is
    painted in Python, an ndarray with numpy.
    """
    yield f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    paint = _paint if isinstance(image.runs, array) else _paint_numpy
    yield from paint(image.runs, image.width * image.height)


def _paint(runs, n: int):
    """Bands of the n pixels of runs: each starts as zeros, background,
    and each ink run that crosses it is copied in from a band of 255s."""
    ink = memoryview(b"\xff" * min(_PGM_BAND, n))
    k, start = 1, runs[0]  # the next ink run and its first pixel
    for p in range(0, n, _PGM_BAND):
        q = min(p + _PGM_BAND, n)
        band = bytearray(q - p)
        while k < len(runs) and start < q:
            stop = start + runs[k]
            a, b = max(start, p), min(stop, q)
            band[a - p:b - p] = ink[:b - a]
            if stop > q:  # the run goes on into the next band
                break
            start = stop + runs[k + 1]
            k += 2
        yield band


def _paint_numpy(runs, n: int):
    """_paint with numpy: each band repeats the shades of the runs it
    crosses."""
    import numpy as np
    shades, ends = _shades(runs.size), np.cumsum(runs)
    for p in range(0, n, _PGM_BAND):
        q = min(p + _PGM_BAND, n)
        # runs i..j cross pixels p..q-1: i is the first run to end beyond
        # p, j the first to end beyond q - 1
        i, j = np.searchsorted(ends, (p, q - 1), side="right")
        lengths = runs[i:j + 1].copy()
        lengths[0] = ends[i] - p
        lengths[-1] -= ends[j] - q
        yield np.repeat(shades[i:j + 1], lengths)


def write_pgm(image: RasterImage) -> bytes:
    """Binary PGM, maxval 255, row-major.

    The canonical header is b"P5\\n<width> <height>\\n255\\n"; a 1x1 zero
    image is exactly b"P5\\n1 1\\n255\\n\\x00" (12 bytes). Output is
    byte-identical across runs and platforms.
    """
    return b"".join(pgm_parts(image))


def read_pgm(data: bytes, scale: float,
             origin_mm: tuple[float, float] = (0.0, 0.0)) -> RasterImage:
    """Parse canonical P5 bytes of a binary raster back into a RasterImage.

    Every pixel byte must be 0 or 255. PGM stores no physical scale, so
    the caller supplies it; with the same scale and origin the write/read
    round trip is the identity.
    """
    import numpy as np
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5":
        raise DrawingFormatError("not a canonical P5 PGM")
    try:
        w, h = (int(v) for v in parts[1].split())
    except ValueError as exc:
        raise DrawingFormatError("bad PGM dimensions") from exc
    if w < 1 or h < 1:
        raise DrawingFormatError(f"PGM size {w}x{h} is under 1x1")
    if parts[2] != b"255":
        raise DrawingFormatError("PGM maxval must be 255")
    payload = parts[3]
    if len(payload) != w * h:
        raise DrawingFormatError(
            f"PGM payload is {len(payload)} bytes, expected {w * h}")
    cells = np.frombuffer(payload, dtype=np.uint8).reshape(h, w)
    return RasterImage.from_cells(w, h, scale, cells, origin_mm)


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
    long). Each (trace, row) pair's span ends come from where the row
    meets two outlines of the capsule, an outer one at half-width hw + eps
    and an inner one at hw - eps. Where both outlines put each end on the
    same pixel, the per-pixel rule is certain to agree and is not
    evaluated; only the other pairs (grazing rows, ends within eps of a
    pixel centre) are settled with the rule itself (see spans._spans for
    eps). The merged spans are the result: a RasterImage of alternating
    0/255 run lengths, whose canvas is built only when its cells are read.

    A drawing that surely has at most _SCALAR_PAIRS pairs is stamped pair
    by pair in Python floats (_stamp); a larger one goes to the vector
    kernel, spans.rasterize, which batches the pairs in numpy. The two
    make the same float decisions, so they give the same runs.
    """
    traces = tuple(traces)
    if not traces:
        return RasterImage(width=1, height=1, scale=scale, runs=[1],
                           origin_mm=(0.0, 0.0))
    if not _few_pairs(traces, scale):
        from . import spans
        return spans.rasterize(traces, scale, max_pixels)
    geom = [(float(t.start[0]), float(t.start[1]), float(t.end[0]),
             float(t.end[1]), 0.5 * float(t.width_m) * 1e3) for t in traces]
    # a value that is not finite anywhere reads as a nan half-width, which
    # _canvas refuses
    finite = all(map(math.isfinite, chain.from_iterable(geom)))
    ox, oy, wpx, hpx = _canvas(
        min(min(g[0], g[2]) for g in geom), max(max(g[0], g[2]) for g in geom),
        min(min(g[1], g[3]) for g in geom), max(max(g[1], g[3]) for g in geom),
        max(g[4] for g in geom) if finite else math.nan, scale, max_pixels)
    starts: list[int] = []
    stops: list[int] = []
    for sx, sy, ex, ey, hw in geom:
        _stamp(sx, sy, ex, ey, hw, ox, oy, scale, wpx, hpx, starts, stops)
    return RasterImage(width=wpx, height=hpx, scale=scale,
                       runs=_merge(starts, stops, wpx * hpx),
                       origin_mm=(ox, oy))


def _few_pairs(traces, scale: float) -> bool:
    """Whether the traces surely cross at most _SCALAR_PAIRS (trace, row)
    pairs. A trace of half-width hw > 0 spans at most (|dy| + 2 hw) /
    scale + 4 rows, which needs no canvas; the sum stops as soon as it
    passes the limit. It is kept in mm, so a bad scale divides nothing
    here: _canvas, which either kernel calls next, refuses it, and any
    value that is not finite."""
    limit, total = _SCALAR_PAIRS * scale, 0.0
    for t in traces:
        width_mm = t.width_m * 1e3
        if width_mm > 0.0:
            total += abs(t.end[1] - t.start[1]) + width_mm + 4.0 * scale
            if total > limit:
                return False
    return total <= limit


def _floor(x: float) -> float:
    """np.floor of a float: a float, -0.0 kept, inf and nan kept."""
    return math.copysign(math.floor(x), x) if math.isfinite(x) else x


def _ceil(x: float) -> float:
    """np.ceil of a float: a float, -0.0 on (-1, 0], inf and nan kept."""
    return math.copysign(math.ceil(x), x) if math.isfinite(x) else x


def _canvas(left: float, right: float, bottom: float, top: float, hw: float,
            scale: float, max_pixels: int):
    """The canvas of traces within left..right and bottom..top mm, of
    half-widths at most hw: (ox, oy, width, height), the origin snapped to
    the pixel grid and the size in pixels, padded by hw plus a pixel.

    Each kernel computes the five floats its own way and passes them here.
    A scale or a float that is not finite is a ConfigError. The size is
    checked against max_pixels in floats, so a side past every float, inf
    or nan, is a RasterSizeError too.
    """
    if not (0.0 < scale < math.inf):
        raise ConfigError("raster scale must be finite and > 0")
    if not all(map(math.isfinite, (left, right, bottom, top, hw))):
        raise ConfigError("trace coordinates and widths must be finite")
    pad = hw + scale
    ox = _floor((left - pad) / scale) * scale
    oy = _ceil((top + pad) / scale) * scale  # top edge
    wpx = _ceil((right + pad - ox) / scale) + 1.0
    hpx = _ceil((oy - (bottom - pad)) / scale) + 1.0
    if not wpx * hpx <= max_pixels:
        raise RasterSizeError(f"raster {wpx:.0f}x{hpx:.0f} = {wpx * hpx:.0f} "
                              f"px exceeds budget {max_pixels}")
    return ox, oy, int(wpx), int(hpx)


def _stamp(sx, sy, ex, ey, hw, ox, oy, scale, wpx, hpx, starts, stops):
    """Append the flat-index starts and stops of one trace's span on each
    row of its window: spans._spans for one trace, one pair at a time.

    The same floats are computed in the same order as there, so each span
    gets the same ends: the outer ends from spans._capsule_t and
    spans._capsule_row, clipped to the window, are certain where the inner
    ends fall on the same pixels, and are walked with the per-pixel rule
    (_settle) otherwise. A row that misses the capsule, where numpy's
    ends are inf and -inf, has no span; an inner end that numpy makes nan
    certifies nothing.
    """
    if not hw > 0.0:
        return
    # the trace's window of candidate pixels, as the per-pixel rule has it
    j0 = max(0, int((min(sx, ex) - hw - ox) / scale) - 1)
    j1 = min(wpx, int((max(sx, ex) + hw - ox) / scale) + 2)
    i0 = max(0, int((oy - (max(sy, ey) + hw)) / scale) - 1)
    i1 = min(hpx, int((oy - (min(sy, ey) - hw)) / scale) + 2)
    if j0 >= j1 or i0 >= i1:
        return
    dx, dy = ex - sx, ey - sy
    eps = 1e-12 * (abs(ox) + abs(oy) + abs(sx) + abs(sy) + abs(dx) + abs(dy)
                   + hw + scale)
    # in pixel units: the segment, the start's row and column coordinates
    # (pixel centres at integers) and the squared radii
    px, py = dx / scale, dy / scale
    cy, cx = (oy - sy) / scale - 0.5, (sx - ox) / scale - 0.5
    r_out = (hw + eps) / scale
    r_in = (hw - eps) / scale if eps < hw else math.nan
    out2, in2 = r_out * r_out, r_in * r_in
    # _capsule_t: the left end at t = clip(y g - c_lo), the right at
    # clip(y g - c_hi); a flat segment takes its end on that side
    if abs(py) < 1e-100:
        g, c_lo, c_hi = 0.0, -1.0 * (px < 0.0), -1.0 * (px > 0.0)
    else:
        g = 1.0 / py
        c_lo = r_out * px / (math.sqrt(px * px + py * py) * abs(py))
        c_hi = -c_lo
    sqrt, ceil, floor = math.sqrt, math.ceil, math.floor
    b0, b1 = j0 - 1, j1 - 1
    for row in range(i0, i1):
        y = cy - row
        yg = y * g
        t_lo = yg - c_lo
        t_lo = 0.0 if t_lo < 0.0 else 1.0 if t_lo > 1.0 else t_lo
        t_hi = yg - c_hi
        t_hi = 0.0 if t_hi < 0.0 else 1.0 if t_hi > 1.0 else t_hi
        q_lo = y - t_lo * py
        q_hi = y - t_hi * py
        q_lo *= q_lo
        q_hi *= q_hi
        h2_lo, h2_hi = out2 - q_lo, out2 - q_hi
        if h2_lo < 0.0 and h2_hi < 0.0:
            continue  # the row misses the capsule
        x_lo, x_hi = cx + t_lo * px, cx + t_hi * px
        a = ceil(x_lo - sqrt(h2_lo) if h2_lo > 0.0 else x_lo)
        a = j0 if a < j0 else j1 if a > j1 else a
        b = floor(x_hi + sqrt(h2_hi) if h2_hi > 0.0 else x_hi)
        b = b0 if b < b0 else b1 if b > b1 else b
        if a > b:
            continue
        d_lo, d_hi = in2 - q_lo, in2 - q_hi
        if not (d_lo >= 0.0 and ceil(x_lo - sqrt(d_lo)) == a
                and d_hi >= 0.0 and floor(x_hi + sqrt(d_hi)) == b):
            a, b = _settle(a, b, j0, j1, oy - (row + 0.5) * scale - sy,
                           ox, scale, sx, dx, dy, hw * hw)
            if a > b:
                continue
        base = row * wpx
        starts.append(base + a)
        stops.append(base + b + 1)


def _settle(a, b, j0, j1, ry, ox, scale, sx, dx, dy, hw2):
    """The span a..b of a pair whose ends are not certain, walked with the
    per-pixel rule (spans._ink) as spans._spans walks it, until a - 1 is
    out (or the window's first column), a in, b in and b + 1 out (or the
    last column), or the span is empty (a > b)."""
    ll = dx * dx + dy * dy

    def ink(col):
        rx = ox + (col + 0.5) * scale - sx
        if ll == 0.0:  # a point: the distance to its start
            s = 0.0
        else:
            s = (rx * dx + ry * dy) / ll
            s = 0.0 if s < 0.0 else 1.0 if s > 1.0 else s
        u, v = rx - s * dx, ry - s * dy
        return u * u + v * v <= hw2

    while True:
        a_in, b_in = ink(a), ink(b)
        a_end = a == j0 or not ink(a - 1)
        b_end = b == j1 - 1 or not ink(b + 1)
        if a_in and b_in and a_end and b_end:
            return a, b
        a = (a if a_end else a - 1) if a_in else a + 1
        b = (b if b_end else b + 1) if b_in else b - 1
        if a > b:
            return a, b


def _merge(starts: list[int], stops: list[int], n: int) -> array:
    """spans._runs in Python: the run lengths of n pixels with ink on the
    union of the spans [starts, stops), which are sorted in place."""
    if not starts:
        return array("q", [n])
    starts.sort()
    stops.sort()
    # with both sorted, stop i closes a run exactly when start i + 1 lies
    # beyond it
    runs, first = array("q", [starts[0]]), starts[0]
    for stop, start in zip(stops, islice(starts, 1, None)):
        if start > stop:
            runs.append(stop - first)
            runs.append(start - stop)
            first = start
    runs.append(stops[-1] - first)
    runs.append(n - stops[-1])
    return runs
