"""Drawing formats: native JSON round trip, SVG subset, flattening."""

import json
import math
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import SAMPLES, coil_svg
from lmprint import VectorDrawing, drawing, parse_drawing, serialize_drawing
from lmprint import svg as svg_subset
from lmprint.core import replace
from lmprint.drawing import _point_segment_distance
from lmprint.svg import flatten_cubic
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


# every shipped drawing; samples/config.json is a config, not a drawing
SHIPPED = sorted(p.stem for p in SAMPLES.glob("*.json") if p.stem != "config")


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_samples_are_canonical(name):
    raw = (SAMPLES / f"{name}.json").read_bytes()
    assert serialize_drawing(parse_drawing(raw)) == raw


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
    assert VectorDrawing(strokes=(), closed_flags=()).bounds is None


def test_bounds_are_derived_not_given():
    d = _drawing()
    assert "bounds" not in VectorDrawing._fields
    with pytest.raises(TypeError, match="bounds"):
        VectorDrawing(strokes=d.strokes, closed_flags=d.closed_flags,
                      bounds=((5.0, 5.0), (6.0, 6.0)))
    with pytest.raises(TypeError, match="bounds"):
        replace(d, bounds=((5.0, 5.0), (6.0, 6.0)))
    with pytest.raises(AttributeError):
        d.bounds = ((5.0, 5.0), (6.0, 6.0))


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


def test_svg_every_command_and_its_repeats():
    # implicit repeats of M (as line-tos), L, H, V and C, in both cases,
    # and a relative M after Z measured from the closed subpath's start
    svg = ('<svg><path d="M 1 1 2 1 L 2 2 3 2 h 1 1 v -1 -1 Z '
           'm 10 0 l 1 0 H 14 15 V 2 3 c 0 1 1 1 1 0 0 -1 1 -1 1 0"/></svg>')
    d = parse_drawing(svg, "svg-subset", chord_tolerance_mm=10.0)
    assert d.strokes == (
        ((1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (3.0, 2.0), (4.0, 2.0),
         (5.0, 2.0), (5.0, 1.0), (5.0, 0.0)),
        ((11.0, 1.0), (12.0, 1.0), (14.0, 1.0), (15.0, 1.0), (15.0, 2.0),
         (15.0, 3.0), (16.0, 3.0), (17.0, 3.0)))
    assert d.closed_flags == (True, False)


def _flatten_cubic_oracle(p0, p1, p2, p3, tol, out, _depth=0):
    """flatten_cubic as it was before it recursed on plain floats, kept
    verbatim (but for its name) as the oracle of its bits."""
    flat = max(_point_segment_distance(p1, p0, p3),
               _point_segment_distance(p2, p0, p3)) <= tol
    if flat or _depth >= 48:
        out.append(p3)
        return
    # de Casteljau split at t = 1/2
    m01 = ((p0[0] + p1[0]) / 2, (p0[1] + p1[1]) / 2)
    m12 = ((p1[0] + p2[0]) / 2, (p1[1] + p2[1]) / 2)
    m23 = ((p2[0] + p3[0]) / 2, (p2[1] + p3[1]) / 2)
    m012 = ((m01[0] + m12[0]) / 2, (m01[1] + m12[1]) / 2)
    m123 = ((m12[0] + m23[0]) / 2, (m12[1] + m23[1]) / 2)
    mid = ((m012[0] + m123[0]) / 2, (m012[1] + m123[1]) / 2)
    _flatten_cubic_oracle(p0, m01, m012, mid, tol, out, _depth + 1)
    _flatten_cubic_oracle(mid, m123, m23, p3, tol, out, _depth + 1)


@st.composite
def _cubics(draw):
    """Control points at a scale from 1e-6 to 1e6, some of them repeated
    (a zero-length chord among them), and a tolerance from 1e-6 to 10
    times the scale, the library's default among them."""
    scale = 10.0 ** draw(st.integers(-6, 6))
    coord = st.floats(-1.0, 1.0).map(lambda v: v * scale)
    points = [(draw(coord), draw(coord)) for _ in range(4)]
    for i, j in draw(st.lists(st.tuples(st.integers(0, 3),
                                        st.integers(0, 3)), max_size=2)):
        points[j] = points[i]
    tol = draw(st.one_of(
        st.sampled_from([drawing.DEFAULT_CHORD_TOLERANCE_MM, 0.001, 0.01]),
        st.floats(1e-6, 10.0).map(lambda v: v * scale)))
    return points, tol


@settings(max_examples=300, deadline=None)
@given(_cubics())
@example(([(0.0, 0.0), (1.0, 2.0), (-1.0, 2.0), (0.0, 0.0)], 0.05))
@example(([(0.0, 0.0)] * 4, 0.05))
@example(([(-0.0, 0.0), (1e-6, -0.0), (0.0, 1e-6), (1e-6, 1e-6)], 1e-12))
# a chord whose squared length overflows: every projection is nan
@example(([(-1e200, 0.0), (1e200, 1e200), (0.0, -1e200), (1e200, 0.0)],
          1.5e200))
def test_flatten_cubic_bits_equal_the_recursion_on_tuples(case):
    points, tol = case
    # a fixed tolerance at a large scale needs about sqrt(extent / tol)
    # chords; past some 3000 they add nothing but time
    assume(max(abs(v) for p in points for v in p) <= 1e7 * tol)
    out, expected = [points[0]], [points[0]]
    flatten_cubic(*points, tol, out)
    _flatten_cubic_oracle(*points, tol, expected)
    assert repr(out) == repr(expected)


BAD_CUBIC = '<svg><path d="M 0 0 C 1e20 0 0 1e20 1 0"/></svg>'


def test_a_cubic_past_the_chord_budget_fails_fast():
    # the control points 1e20 mm away would split the cubic 2^48 times
    started = time.perf_counter()
    with pytest.raises(DrawingFormatError) as exc:
        parse_drawing(BAD_CUBIC, "svg-subset")
    assert time.perf_counter() - started < 2.0
    assert str(exc.value) == (
        f"element 1 <path>: command 'C' at offset 6: the cubics need more "
        f"than {svg_subset.MAX_CUBIC_CHORDS} chords at tolerance 0.05 mm")


def test_a_number_past_the_float_range_is_rejected_at_its_offset():
    # 1e999 read as inf would flatten a cubic on NaN distances
    started = time.perf_counter()
    with pytest.raises(DrawingFormatError) as exc:
        parse_drawing('<svg><path d="M 0 0 C 1e999 0 0 0 1 0"/></svg>',
                      "svg-subset")
    assert time.perf_counter() - started < 0.1
    assert str(exc.value) == (
        "element 1 <path>: number '1e999' at offset 8 overflows a float")
    with pytest.raises(DrawingFormatError,
                       match=r"number '-1E\+400' at offset 2 overflows"):
        parse_drawing('<svg><path d="M -1E+400 0 L 1 0"/></svg>', "svg-subset")


def test_flatten_cubic_past_the_chord_budget_fails_fast(monkeypatch):
    started = time.perf_counter()
    with pytest.raises(DrawingFormatError, match=(
            f"^the cubics need more than {svg_subset.MAX_CUBIC_CHORDS} chords "
            f"at tolerance 0.05 mm$")):
        flatten_cubic((0, 0), (1e20, 0), (0, 1e20), (1, 0), 0.05, [])
    assert time.perf_counter() - started < 2.0
    # the budget counts the chords of this call, not the points out holds
    cubic = ((0.0, 0.0), (1.0, 3.0), (4.0, -2.0), (5.0, 1.0), 1e-3)
    chords = []
    flatten_cubic(*cubic, chords)
    monkeypatch.setattr(svg_subset, "MAX_CUBIC_CHORDS", len(chords))
    out = [(9.0, 9.0)] * 10
    flatten_cubic(*cubic, out)
    assert out[10:] == chords
    monkeypatch.setattr(svg_subset, "MAX_CUBIC_CHORDS", len(chords) - 1)
    with pytest.raises(DrawingFormatError):
        flatten_cubic(*cubic, [])


def test_the_chord_budget_counts_every_cubic_of_a_drawing(monkeypatch):
    svg = coil_svg(seed=3)  # four paths of cubics, one per coil
    strokes = parse_drawing(svg, "svg-subset").strokes
    assert len(strokes) == 4
    chords = sum(len(s) - 1 for s in strokes)
    monkeypatch.setattr(svg_subset, "MAX_CUBIC_CHORDS", chords)
    assert parse_drawing(svg, "svg-subset").strokes == strokes
    # one chord fewer: each path alone fits, the last one's last cubic not
    monkeypatch.setattr(svg_subset, "MAX_CUBIC_CHORDS", chords - 1)
    assert max(len(s) - 1 for s in strokes) < chords - 1
    with pytest.raises(DrawingFormatError, match=r"^element 4 <path>: "
                       r"command 'C' at offset \d+: the cubics need more"):
        parse_drawing(svg, "svg-subset")
