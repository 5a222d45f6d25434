"""Drawing formats: native JSON round trip, SVG subset, flattening."""

import json
import math

import numpy as np
import pytest

from lmprint import VectorDrawing, parse_drawing, serialize_drawing
from lmprint.drawing import flatten_cubic
from lmprint.errors import (DrawingFormatError, NonVectorContentError,
                            UnsupportedSvgFeatureError)


def _drawing():
    return VectorDrawing(
        strokes=(((0.0, 0.0), (10.0, 0.0), (10.0, 5.0)),
                 ((1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (1.0, 2.0))),
        closed_flags=(False, True),
        pads={"in": (0.0, 0.0), "out": (10.0, 5.0)},
        drawing_id="fixture",
    )


def test_native_round_trip_is_identity():
    d = _drawing()
    blob = serialize_drawing(d)
    assert parse_drawing(blob) == d
    # serialization is canonical: a second pass is byte-identical
    assert serialize_drawing(parse_drawing(blob)) == blob


def test_serialization_bytes_equal_json_dumps():
    d = VectorDrawing(strokes=(((0.0, -0.0), (1e16, 1e-7), (0.1, 5e-324)),),
                      closed_flags=(False,),
                      pads={"ü%s": (-0.0, 2.5), "\x00": (1.0, 1.0)},
                      drawing_id="é\"%d")
    blob = serialize_drawing(d)
    doc = json.loads(blob)
    assert blob == (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


@pytest.mark.parametrize("drawing_id", [5, 2.5, False, ["a"], {"a": 1}])
def test_native_id_must_be_a_string_or_null(drawing_id):
    doc = {"version": 1, "id": drawing_id,
           "strokes": [{"points": [[0, 0], [1, 0]]}]}
    with pytest.raises(DrawingFormatError, match="'id'"):
        parse_drawing(json.dumps(doc))
    # nor can a library caller build a drawing that would not parse back
    with pytest.raises(DrawingFormatError, match="'id'"):
        VectorDrawing(strokes=(((0.0, 0.0), (1.0, 0.0)),),
                      closed_flags=(False,), drawing_id=drawing_id)
    assert parse_drawing(json.dumps(dict(doc, id=None))).drawing_id is None


def test_native_rejects_unknown_keys_and_bad_version():
    good = json.loads(serialize_drawing(_drawing()))
    bad = dict(good, layers=[])
    with pytest.raises(DrawingFormatError):
        parse_drawing(json.dumps(bad))
    bad = dict(good, version=2)
    with pytest.raises(DrawingFormatError):
        parse_drawing(json.dumps(bad))
    bad = dict(good, units="in")
    with pytest.raises(DrawingFormatError):
        parse_drawing(json.dumps(bad))
    stroke_extra = json.loads(serialize_drawing(_drawing()))
    stroke_extra["strokes"][0]["color"] = "red"
    with pytest.raises(DrawingFormatError):
        parse_drawing(json.dumps(stroke_extra))


def test_drawing_validation():
    with pytest.raises(DrawingFormatError):
        VectorDrawing(strokes=(((0, 0),),), closed_flags=(False,))
    with pytest.raises(DrawingFormatError):
        VectorDrawing(strokes=(((0, 0), (0, 0)),), closed_flags=(False,))
    with pytest.raises(DrawingFormatError):
        VectorDrawing(strokes=(((0, 0), (float("nan"), 1)),),
                      closed_flags=(False,))
    with pytest.raises(DrawingFormatError):
        # closed stroke must not repeat the first vertex
        VectorDrawing(strokes=(((0, 0), (1, 0), (1, 1), (0, 0)),),
                      closed_flags=(True,))


def test_stroke_vertices_appends_closure():
    d = _drawing()
    assert d.stroke_vertices(0)[-1] == (10.0, 5.0)
    assert d.stroke_vertices(1)[-1] == (1.0, 1.0)
    assert len(d.stroke_vertices(1)) == 5


def test_bounds():
    assert _drawing().bounds == ((0.0, 0.0), (10.0, 5.0))


def test_svg_basic_path_commands():
    svg = """<svg xmlns="http://www.w3.org/2000/svg">
      <path d="M 0 0 L 10 0 10 5"/>
      <path d="M1,1 h1 v1 h-1 z"/>
    </svg>"""
    d = parse_drawing(svg, "svg-subset")
    assert d.strokes[0] == ((0.0, 0.0), (10.0, 0.0), (10.0, 5.0))
    assert d.closed_flags == (False, True)
    assert d.strokes[1] == ((1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (1.0, 2.0))


def test_svg_relative_and_multi_subpath():
    svg = '<svg><path d="m 1 1 l 2 0 m 5 5 l 0 3"/></svg>'
    d = parse_drawing(svg, "svg-subset")
    assert len(d.strokes) == 2
    assert d.strokes[0] == ((1.0, 1.0), (3.0, 1.0))
    assert d.strokes[1] == ((8.0, 6.0), (8.0, 9.0))


def test_svg_draw_after_close_restarts_at_subpath_start():
    svg = '<svg><path d="M 0 0 L 4 0 L 4 4 Z L 8 8"/></svg>'
    d = parse_drawing(svg, "svg-subset")
    assert d.closed_flags[0] is True
    # after Z the pen sits at the subpath start; L starts a new stroke there
    assert d.strokes[1] == ((0.0, 0.0), (8.0, 8.0))


def test_svg_cubic_flattening_respects_tolerance():
    svg = '<svg><path d="M 0 0 C 0 10 10 10 10 0"/></svg>'
    tol = 0.05
    d = parse_drawing(svg, "svg-subset", chord_tolerance_mm=tol)
    pts = d.strokes[0]
    assert len(pts) > 4
    # every curve point sampled densely lies within tol of the polyline
    def bezier(t):
        p = [(0, 0), (0, 10), (10, 10), (10, 0)]
        x = ((1-t)**3*p[0][0] + 3*(1-t)**2*t*p[1][0]
             + 3*(1-t)*t**2*p[2][0] + t**3*p[3][0])
        y = ((1-t)**3*p[0][1] + 3*(1-t)**2*t*p[1][1]
             + 3*(1-t)*t**2*p[2][1] + t**3*p[3][1])
        return x, y

    def dist_to_polyline(q):
        best = math.inf
        for a, b in zip(pts, pts[1:]):
            ax, ay = a; bx, by = b
            dx, dy = bx-ax, by-ay
            ll = dx*dx + dy*dy
            t = 0.0 if ll == 0 else max(0.0, min(1.0, ((q[0]-ax)*dx + (q[1]-ay)*dy)/ll))
            best = min(best, math.hypot(q[0]-ax-t*dx, q[1]-ay-t*dy))
        return best

    for t in np.linspace(0, 1, 200):
        assert dist_to_polyline(bezier(float(t))) <= tol * 1.0000001


def test_flatten_cubic_randomized_corpus():
    rng = np.random.default_rng(42)
    tol = 0.05
    for _ in range(100):
        ctrl = [(float(x), float(y))
                for x, y in rng.uniform(-20, 20, size=(4, 2))]
        pts = [ctrl[0]]
        flatten_cubic(ctrl[0], ctrl[1], ctrl[2], ctrl[3], tol, pts)
        assert pts[0] == ctrl[0] and pts[-1] == ctrl[3]
        for t in np.linspace(0, 1, 50):
            t = float(t)
            x = ((1-t)**3*ctrl[0][0] + 3*(1-t)**2*t*ctrl[1][0]
                 + 3*(1-t)*t**2*ctrl[2][0] + t**3*ctrl[3][0])
            y = ((1-t)**3*ctrl[0][1] + 3*(1-t)**2*t*ctrl[1][1]
                 + 3*(1-t)*t**2*ctrl[2][1] + t**3*ctrl[3][1])
            best = min(
                _seg_dist((x, y), a, b) for a, b in zip(pts, pts[1:]))
            assert best <= tol * 1.0000001


def _seg_dist(q, a, b):
    dx, dy = b[0]-a[0], b[1]-a[1]
    ll = dx*dx + dy*dy
    t = 0.0 if ll == 0 else max(0.0, min(1.0, ((q[0]-a[0])*dx + (q[1]-a[1])*dy)/ll))
    return math.hypot(q[0]-a[0]-t*dx, q[1]-a[1]-t*dy)


def test_svg_rejections():
    with pytest.raises(NonVectorContentError):
        parse_drawing('<svg><image href="x.png"/></svg>', "svg-subset")
    with pytest.raises(UnsupportedSvgFeatureError):
        parse_drawing('<svg><rect x="0" y="0" width="5" height="5"/></svg>',
                      "svg-subset")
    with pytest.raises(UnsupportedSvgFeatureError):
        parse_drawing('<svg><path transform="scale(2)" d="M0 0 L1 1"/></svg>',
                      "svg-subset")
    with pytest.raises(UnsupportedSvgFeatureError):
        # arc command is outside the subset
        parse_drawing('<svg><path d="M0 0 A 5 5 0 0 1 10 0"/></svg>',
                      "svg-subset")
    with pytest.raises(UnsupportedSvgFeatureError):
        parse_drawing('<svg><text x="0" y="0">hi</text></svg>', "svg-subset")
    with pytest.raises(DrawingFormatError):
        parse_drawing('<svg><path d="M 0 0 L 1"/></svg>', "svg-subset")
    with pytest.raises(DrawingFormatError):
        parse_drawing("not xml at all", "svg-subset")


def test_svg_error_messages_name_the_location():
    try:
        parse_drawing('<svg><g><ellipse rx="1" ry="1"/></g></svg>',
                      "svg-subset")
    except UnsupportedSvgFeatureError as exc:
        assert "ellipse" in str(exc)
    else:
        pytest.fail("expected UnsupportedSvgFeatureError")


def test_unknown_format_rejected():
    with pytest.raises(DrawingFormatError):
        parse_drawing("{}", "dxf")


def test_parse_does_not_mutate_input():
    blob = serialize_drawing(_drawing())
    copy = bytes(blob)
    parse_drawing(blob)
    assert blob == copy
