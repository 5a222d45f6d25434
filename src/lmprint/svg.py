"""The SVG-subset importer: path data to a VectorDrawing.

The subset covers <path> elements with M, L, H, V, Z and C commands
(absolute and relative); cubic segments are flattened to polylines within
a chord-error tolerance, and all the cubics of one drawing into at most
MAX_CUBIC_CHORDS chords. Everything else is rejected with a named error
rather than guessed at. drawing.parse_drawing loads this module only for
the "svg-subset" format.
"""

from __future__ import annotations

import math
import re

from .drawing import Point, VectorDrawing
from .errors import (DrawingFormatError, NonVectorContentError,
                     UnsupportedSvgFeatureError)

# the chords all cubics of one SVG drawing may flatten into: 51 times the
# 2550 of the render-coils benchmark drawing, and reached in well under a
# second by a cubic that would otherwise split 2^48 times (a control point
# 1e20 mm away)
MAX_CUBIC_CHORDS = 1 << 17

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
    if not tol > 0:  # nan too
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
            _, text, at = tokens[i]
            vals.append(float(text))
            if not math.isfinite(vals[-1]):  # the syntax has no inf or nan
                raise DrawingFormatError(
                    f"{where}: number {text!r} at offset {at} overflows a float")
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
                try:  # a relative point may overflow where its numbers do not
                    _flatten(*_finite(*cur, x1, y1, x2, y2, x3, y3), tol,
                             points, 0, n + budget[0])
                except DrawingFormatError as exc:
                    raise DrawingFormatError(
                        f"{where}: command {cmd!r} at offset {off}: {exc}") from None
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


def flatten_cubic(p0: Point, p1: Point, p2: Point, p3: Point, tol: float,
                  out: list[Point], _depth: int = 0) -> None:
    """Append a polyline approximation of the cubic (excluding p0) to out.

    Subdivides until both interior control points sit within tol of the
    chord; the convex-hull property then bounds the curve-to-chord distance
    by the same tol. Needing more than MAX_CUBIC_CHORDS chords, a control
    point not finite or a tol not > 0 is a DrawingFormatError, as in an SVG.
    """
    if not tol > 0:  # nan too: it would split the cubic to the budget
        raise DrawingFormatError("chord tolerance must be > 0")
    _flatten(*_finite(*p0, *p1, *p2, *p3), tol, out, _depth,
             len(out) + MAX_CUBIC_CHORDS)


def _finite(*coords: float) -> tuple:
    """coords, if all are finite: on NaN distances a cubic splits wrong."""
    if not all(map(math.isfinite, coords)):
        raise DrawingFormatError("a control point of the cubic is not finite")
    return coords


def _flatten(x0, y0, x1, y1, x2, y2, x3, y3, tol, out, depth, limit):
    """flatten_cubic on plain floats, raising DrawingFormatError rather
    than growing out to more than limit points. The distances are those of
    drawing._point_segment_distance, with the chord's terms computed once."""
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
            raise DrawingFormatError(
                f"the cubics need more than {MAX_CUBIC_CHORDS} chords at "
                f"tolerance {tol:g} mm")
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
