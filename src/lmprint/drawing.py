"""Vector drawings: the native JSON format.

A drawing is a set of polyline strokes in millimetres plus named pad
points used later for connectivity queries. Closed strokes do not repeat
their first vertex; closure is a flag. parse_drawing reads the native
JSON here and hands the SVG subset to svg, which it loads only for that
format.
"""

from __future__ import annotations

import json
import math

from .core import Record
from .errors import DrawingFormatError
from .report import canonical_json

DEFAULT_CHORD_TOLERANCE_MM = 0.05

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
        from .svg import _parse_svg
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


def _point_segment_distance(p: Point, a: Point, b: Point) -> float:
    dx, dy = b[0] - a[0], b[1] - a[1]
    ll = dx * dx + dy * dy
    if ll == 0.0:
        return math.hypot(p[0] - a[0], p[1] - a[1])
    t = min(1.0, max(0.0, ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / ll))
    return math.hypot(p[0] - a[0] - t * dx, p[1] - a[1] - t * dy)
