"""Vector drawings: the native JSON format and an SVG import subset.

A drawing is a set of polyline strokes in millimetres plus named pad
points used later for connectivity queries. Closed strokes do not repeat
their first vertex; closure is a flag. The SVG subset covers path data
with M, L, H, V, Z and C commands (absolute and relative); cubic segments
are flattened to polylines within a configurable chord-error tolerance.
Everything else is rejected with a named error rather than guessed at.
"""

from __future__ import annotations

import json
import math
import re

from .core import Record
from .errors import (DrawingFormatError, NonVectorContentError,
                     UnsupportedSvgFeatureError)
from .report import canonical_json

DEFAULT_CHORD_TOLERANCE_MM = 0.05
# the chords all cubics of one SVG drawing may flatten into: 51 times the
# 2550 of the render-coils benchmark drawing, and reached in well under a
# second by a cubic that would otherwise split 2^48 times (a control point
# 1e20 mm away)
MAX_CUBIC_CHORDS = 1 << 17

Point = tuple[float, float]

NATIVE_TOP_KEYS = {"version", "id", "units", "strokes", "pads"}
NATIVE_STROKE_KEYS = {"points", "closed"}


class VectorDrawing(Record):
    """Polyline strokes (mm), per-stroke closed flags and named pads."""

    strokes: tuple[tuple[Point, ...], ...]
    closed_flags: tuple[bool, ...]
    pads: dict[str, Point] = {}  # __post_init__ stores a fresh dict
    drawing_id: str | None = None

    def __post_init__(self):
        strokes = tuple(tuple((float(x), float(y)) for x, y in s) for s in self.strokes)
        object.__setattr__(self, "strokes", strokes)
        object.__setattr__(self, "closed_flags", tuple(bool(c) for c in self.closed_flags))
        object.__setattr__(self, "pads",
                           {str(k): (float(v[0]), float(v[1])) for k, v in self.pads.items()})
        if len(strokes) != len(self.closed_flags):
            raise DrawingFormatError("strokes and closed_flags lengths differ")
        for i, s in enumerate(strokes):
            if len(s) < 2:
                raise DrawingFormatError(f"stroke {i}: needs at least 2 points")
            for x, y in s:
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise DrawingFormatError(f"stroke {i}: non-finite coordinate")
            for j, (p, q) in enumerate(zip(s, s[1:])):
                if p == q:
                    raise DrawingFormatError(
                        f"stroke {i}: zero-length segment at vertex {j}")
            if self.closed_flags[i] and s[0] == s[-1]:
                raise DrawingFormatError(
                    f"stroke {i}: closed strokes must not repeat the first vertex")
        for name, (x, y) in self.pads.items():
            if not (math.isfinite(x) and math.isfinite(y)):
                raise DrawingFormatError(f"pad {name!r}: non-finite coordinate")
        if not (self.drawing_id is None or isinstance(self.drawing_id, str)):
            raise DrawingFormatError("drawing 'id' must be a string or null")

    @property
    def bounds(self) -> tuple[Point, Point] | None:
        """((x min, y min), (x max, y max)) of the strokes' vertices, or
        None for a drawing with no strokes."""
        if not self.strokes:
            return None
        xs = [x for s in self.strokes for x, _ in s]
        ys = [y for s in self.strokes for _, y in s]
        return ((min(xs), min(ys)), (max(xs), max(ys)))

    def stroke_vertices(self, index: int) -> tuple[Point, ...]:
        """Vertices of a stroke with the closing vertex appended if closed."""
        s = self.strokes[index]
        return s + (s[0],) if self.closed_flags[index] else s


# --- native JSON ------------------------------------------------------------


def parse_drawing(data: bytes | str, format: str = "native-json", *,
                  chord_tolerance_mm: float = DEFAULT_CHORD_TOLERANCE_MM) -> VectorDrawing:
    """Parse a drawing document in the named format.

    format is "native-json" or "svg-subset". chord_tolerance_mm bounds the
    distance between any point of an imported cubic and its polyline
    replacement.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    if format == "native-json":
        return _parse_native(data)
    if format == "svg-subset":
        return _parse_svg(data, chord_tolerance_mm)
    raise DrawingFormatError(f"unknown drawing format {format!r}")


def _is_xy(p) -> bool:
    """A JSON [x, y] of two numbers; a bool is not a number."""
    return (isinstance(p, list) and len(p) == 2
            and all(type(v) in (int, float) for v in p))


def _parse_native(text: str) -> VectorDrawing:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DrawingFormatError(f"malformed drawing JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DrawingFormatError("drawing document must be a JSON object")
    unknown = set(doc) - NATIVE_TOP_KEYS
    if unknown:
        raise DrawingFormatError(f"unknown drawing keys: {sorted(unknown)}")
    if doc.get("version") != 1:
        raise DrawingFormatError("drawing 'version' must be 1")
    units = doc.get("units", "mm")
    if units != "mm":
        raise DrawingFormatError(f"unsupported units {units!r}; drawings are mm")
    strokes = []
    closed = []
    raw_strokes = doc.get("strokes", [])
    if not isinstance(raw_strokes, list):
        raise DrawingFormatError("'strokes' must be a list")
    for i, s in enumerate(raw_strokes):
        if not isinstance(s, dict):
            raise DrawingFormatError(f"stroke {i}: must be an object")
        unknown = set(s) - NATIVE_STROKE_KEYS
        if unknown:
            raise DrawingFormatError(f"stroke {i}: unknown keys {sorted(unknown)}")
        pts = s.get("points")
        if not isinstance(pts, list) or not all(map(_is_xy, pts)):
            raise DrawingFormatError(
                f"stroke {i}: 'points' must be a list of [x, y] numbers")
        is_closed = s.get("closed", False)
        if type(is_closed) is not bool:
            raise DrawingFormatError(f"stroke {i}: 'closed' must be true or false")
        strokes.append(pts)
        closed.append(is_closed)
    pads = doc.get("pads", {})
    if not isinstance(pads, dict):
        raise DrawingFormatError("'pads' must be an object of name -> [x, y]")
    for name, p in pads.items():
        if not _is_xy(p):
            raise DrawingFormatError(f"pad {name!r}: must be [x, y] numbers")
    try:  # VectorDrawing turns every coordinate into a float
        return VectorDrawing(strokes=tuple(strokes), closed_flags=tuple(closed),
                             pads=pads, drawing_id=doc.get("id"))
    except OverflowError:
        raise DrawingFormatError("a coordinate is too large for a float") from None


def serialize_drawing(drawing: VectorDrawing) -> bytes:
    """Canonical native-JSON bytes; parse_drawing inverts this exactly."""
    doc = {
        "version": 1,
        "units": "mm",
        "strokes": [
            {"points": [[x, y] for x, y in s], "closed": c}
            for s, c in zip(drawing.strokes, drawing.closed_flags)
        ],
        "pads": {k: [v[0], v[1]] for k, v in sorted(drawing.pads.items())},
    }
    if drawing.drawing_id is not None:
        doc["id"] = drawing.drawing_id
    return canonical_json(doc)


# --- SVG subset -------------------------------------------------------------

_NUMBER_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_TOKEN_RE = re.compile(r"([MmLlHhVvZzCcAaSsQqTt])|" + _NUMBER_RE.pattern)

_REJECTED_ELEMENTS = {
    "rect", "circle", "ellipse", "line", "polyline", "polygon",
    "text", "tspan", "use", "symbol", "linearGradient", "radialGradient",
}
_IGNORED_ELEMENTS = {"svg", "g", "defs", "title", "desc", "metadata", "style"}


def _local_tag(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _parse_svg(text: str, tol: float) -> VectorDrawing:
    from xml.etree import ElementTree
    if tol <= 0:
        raise DrawingFormatError("chord tolerance must be > 0")
    try:
        root = ElementTree.fromstring(text)
    except ElementTree.ParseError as exc:
        raise DrawingFormatError(f"malformed SVG: {exc}") from exc
    if _local_tag(root.tag) != "svg":
        raise DrawingFormatError("root element is not <svg>")
    strokes: list[tuple[Point, ...]] = []
    closed: list[bool] = []
    budget = [MAX_CUBIC_CHORDS]  # chords the cubics may still add
    for index, elem in enumerate(root.iter()):
        tag = _local_tag(elem.tag)
        where = f"element {index} <{tag}>"
        if tag == "image":
            raise NonVectorContentError(f"{where}: embedded raster content")
        if "transform" in elem.attrib:
            raise UnsupportedSvgFeatureError(f"{where}: transform attribute")
        if tag == "path":
            for pts, is_closed in _parse_path_data(elem.attrib.get("d", ""),
                                                   tol, where, budget):
                strokes.append(pts)
                closed.append(is_closed)
        elif tag in _IGNORED_ELEMENTS:
            continue
        elif tag in _REJECTED_ELEMENTS:
            raise UnsupportedSvgFeatureError(f"{where}: <{tag}> outside the subset")
        else:
            raise UnsupportedSvgFeatureError(f"{where}: unrecognized element <{tag}>")
    return VectorDrawing(strokes=tuple(strokes), closed_flags=tuple(closed))


def _parse_path_data(d: str, tol: float, where: str, budget: list[int]):
    """Subpaths of one 'd' attribute as (points, closed) pairs; its cubics'
    chords are taken from budget[0]."""
    tokens = []
    pos = 0
    for m in _TOKEN_RE.finditer(d):
        if d[pos:m.start()].strip(" ,\t\n\r"):
            raise DrawingFormatError(f"{where}: garbage in path data near offset {pos}")
        tokens.append((m.group(1), m.group(0), m.start()))
        pos = m.end()
    if d[pos:].strip(" ,\t\n\r"):
        raise DrawingFormatError(f"{where}: garbage at end of path data")

    subpaths = []
    points: list[Point] = []
    cur = (0.0, 0.0)
    start = (0.0, 0.0)
    i = 0

    def take_numbers(n, cmd, off):
        nonlocal i
        vals = []
        for _ in range(n):
            if i >= len(tokens) or tokens[i][0] is not None:
                raise DrawingFormatError(
                    f"{where}: command {cmd!r} at offset {off} expects {n} numbers")
            vals.append(float(tokens[i][1]))
            i += 1
        return vals

    def flush(is_closed):
        nonlocal points
        if points:
            deduped = _dedup(points)
            if is_closed and len(deduped) >= 3 and deduped[0] == deduped[-1]:
                deduped = deduped[:-1]
            if len(deduped) >= 2:
                subpaths.append((tuple(deduped), is_closed))
        points = []

    def ensure_started():
        # a draw command after Z continues from the closing point
        if not points:
            points.append(cur)

    while i < len(tokens):
        cmd, _, off = tokens[i]
        if cmd is None:
            raise DrawingFormatError(f"{where}: number without command at offset {off}")
        i += 1
        rel = cmd.islower()
        op = cmd.upper()
        if op in "ASQT":
            raise UnsupportedSvgFeatureError(
                f"{where}: path command {cmd!r} at offset {off} outside the subset "
                f"(arcs/quadratics/smooth curves are not accepted)")
        if op == "Z":
            flush(True)
            cur = start
            continue
        if op == "M":
            flush(False)  # no points are left, so the first pair is the start
        else:
            ensure_started()
        while True:  # the command's numbers, then any repeats of them
            if op in "ML":  # pairs after an M's first are implicit line-tos
                x, y = take_numbers(2, cmd, off)
                cur = (cur[0] + x, cur[1] + y) if rel else (x, y)
                if not points:
                    start = cur
                points.append(cur)
            elif op == "H":
                (x,) = take_numbers(1, cmd, off)
                cur = (cur[0] + x if rel else x, cur[1])
                points.append(cur)
            elif op == "V":
                (y,) = take_numbers(1, cmd, off)
                cur = (cur[0], cur[1] + y if rel else y)
                points.append(cur)
            else:  # C; the token regex admits no other letter
                x1, y1, x2, y2, x3, y3 = take_numbers(6, cmd, off)
                if rel:
                    x1, y1, x2, y2, x3, y3 = (
                        cur[0] + x1, cur[1] + y1, cur[0] + x2, cur[1] + y2,
                        cur[0] + x3, cur[1] + y3)
                n = len(points)
                try:
                    _flatten(*cur, x1, y1, x2, y2, x3, y3, tol, points, 0,
                             n + budget[0])
                except _ChordBudget:
                    raise DrawingFormatError(
                        f"{where}: command {cmd!r} at offset {off}: the cubics "
                        f"need more than {MAX_CUBIC_CHORDS} chords at "
                        f"tolerance {tol:g} mm") from None
                budget[0] -= len(points) - n
                cur = (x3, y3)
            if i >= len(tokens) or tokens[i][0] is not None:
                break
    flush(False)
    return subpaths


def _dedup(points: list[Point], eps: float = 1e-12) -> list[Point]:
    out = [points[0]]
    for p in points[1:]:
        q = out[-1]
        if abs(p[0] - q[0]) > eps or abs(p[1] - q[1]) > eps:
            out.append(p)
    return out


def _point_segment_distance(p: Point, a: Point, b: Point) -> float:
    dx, dy = b[0] - a[0], b[1] - a[1]
    ll = dx * dx + dy * dy
    if ll == 0.0:
        return math.hypot(p[0] - a[0], p[1] - a[1])
    t = min(1.0, max(0.0, ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / ll))
    return math.hypot(p[0] - a[0] - t * dx, p[1] - a[1] - t * dy)


def flatten_cubic(p0: Point, p1: Point, p2: Point, p3: Point, tol: float,
                  out: list[Point], _depth: int = 0) -> None:
    """Append a polyline approximation of the cubic (excluding p0) to out.

    Subdivides until both interior control points sit within tol of the
    chord; the convex-hull property then bounds the curve-to-chord distance
    by the same tol.
    """
    _flatten(*p0, *p1, *p2, *p3, tol, out, _depth, math.inf)


class _ChordBudget(Exception):
    """out reached the limit of _flatten."""


def _flatten(x0, y0, x1, y1, x2, y2, x3, y3, tol, out, depth, limit):
    """flatten_cubic on plain floats, raising _ChordBudget rather than
    growing out to more than limit points. The distances are those of
    _point_segment_distance, with the chord's terms computed once."""
    dx, dy = x3 - x0, y3 - y0
    ll = dx * dx + dy * dy
    rx1, ry1, rx2, ry2 = x1 - x0, y1 - y0, x2 - x0, y2 - y0
    if ll == 0.0:
        d1, d2 = math.hypot(rx1, ry1), math.hypot(rx2, ry2)
    else:  # each t clamped as min(1.0, max(0.0, t)) would, nan to 0.0
        t = (rx1 * dx + ry1 * dy) / ll
        t = t if 0.0 < t < 1.0 else (1.0 if t >= 1.0 else 0.0)
        d1 = math.hypot(rx1 - t * dx, ry1 - t * dy)
        t = (rx2 * dx + ry2 * dy) / ll
        t = t if 0.0 < t < 1.0 else (1.0 if t >= 1.0 else 0.0)
        d2 = math.hypot(rx2 - t * dx, ry2 - t * dy)
    if (d2 if d2 > d1 else d1) <= tol or depth >= 48:  # max(d1, d2) <= tol
        if len(out) >= limit:
            raise _ChordBudget
        out.append((x3, y3))
        return
    # de Casteljau split at t = 1/2
    m01x, m01y = (x0 + x1) / 2, (y0 + y1) / 2
    m12x, m12y = (x1 + x2) / 2, (y1 + y2) / 2
    m23x, m23y = (x2 + x3) / 2, (y2 + y3) / 2
    m012x, m012y = (m01x + m12x) / 2, (m01y + m12y) / 2
    m123x, m123y = (m12x + m23x) / 2, (m12y + m23y) / 2
    midx, midy = (m012x + m123x) / 2, (m012y + m123y) / 2
    _flatten(x0, y0, m01x, m01y, m012x, m012y, midx, midy, tol, out,
             depth + 1, limit)
    _flatten(midx, midy, m123x, m123y, m23x, m23y, x3, y3, tol, out,
             depth + 1, limit)
