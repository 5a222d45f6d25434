"""Print simulation: head state machine, traces, rasters, width model."""

import json
import math
import warnings
from array import array
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import sample
from lmprint import DEFAULT_ENVIRONMENT, MachineSettings, VectorDrawing, \
    estimate, fit_width_model, plan, raster, rasterize, simulate, simulator, \
    spans
from lmprint.core import grams_to_newtons, replace
from lmprint.environment import CornerPolicy, segment_physics
from lmprint.errors import CalibrationError, ConfigError, DomainError, \
    IllegalActionError, RasterSizeError
from lmprint.planner import Lift, Move, Tap, Toolpath, _walk, \
    interior_angle_deg, step_head
from lmprint.raster import RasterImage, pgm_parts, write_pgm
from lmprint.spans import _runs
from lmprint.simulator import FLAG_CORNER, FLAG_SLIP, FLAG_SPEED, \
    EmpiricalWidthModel, HeadState, TraceSegment

# numpy warnings fail these tests: each np.errstate of the span kernel must
# cover the operations that warn on purpose (a row that misses an outline,
# a flat segment), and no wider
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

QUIET = replace(DEFAULT_ENVIRONMENT, dwell_s=0.0)
SETTINGS = MachineSettings(10.0, 30.0)  # 40 mm/s, 94 g

TAP = Tap((0.0, 0.0), grams_to_newtons(94.0))
MOVE = Move((10.0, 0.0), 40.0, 94.0)
LIFT = Lift()


def _line_toolpath(length_mm=10.0, speed=40.0, pressure=94.0):
    return Toolpath(actions=(
        Tap((0.0, 0.0), grams_to_newtons(pressure)),
        Move((length_mm, 0.0), speed, pressure),
        Lift()))


# raster._SCALAR_PAIRS for each kernel: rasterize takes the vector kernel
# past the limit, and the scalar kernel on any finite drawing within it
KERNELS = {"vector": 0, "scalar": 1 << 62}


@contextmanager
def _kernel(name):
    """rasterize, within the block, stamps with the named kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(raster, "_SCALAR_PAIRS", KERNELS[name])
        yield


def _trace(start, end, width_mm, speed=40.0):
    length = math.dist(start, end)
    return TraceSegment(
        start=start, end=end, width_m=width_mm * 1e-3,
        flux_m3_s=1e-12, creep=0.0, contact_angle_deg=120.0,
        speed_mm_s=speed, pressure_g=94.0, flags=())


class TestHeadStateMachine:
    LEGAL = {
        (HeadState.SEALED, TAP): HeadState.TAPPED,
        (HeadState.TAPPED, MOVE): HeadState.DRAWING,
        (HeadState.DRAWING, MOVE): HeadState.DRAWING,
        (HeadState.DRAWING, LIFT): HeadState.LIFTED,
        (HeadState.LIFTED, TAP): HeadState.TAPPED,
    }

    def test_legal_transitions(self):
        for (state, action), target in self.LEGAL.items():
            assert step_head(state, action) is target

    def test_every_other_pair_is_illegal(self):
        legal_pairs = {(s, type(a)) for s, a in self.LEGAL}
        for state in HeadState:
            for action in (TAP, MOVE, LIFT):
                if (state, type(action)) in legal_pairs:
                    continue
                with pytest.raises(IllegalActionError):
                    step_head(state, action)

    def test_rejects_unknown_action(self):
        with pytest.raises(IllegalActionError):
            step_head(HeadState.SEALED, "tap")


def test_simulate_empty_toolpath():
    result = simulate(Toolpath(actions=()), QUIET)
    assert result.traces == ()
    assert result.print_time_s == 0.0
    assert result.ink_volume_mm3 == 0.0
    assert result.final_state is HeadState.SEALED


def test_simulate_single_segment_matches_physics():
    result = simulate(_line_toolpath(), QUIET)
    assert len(result.traces) == 1
    trace = result.traces[0]
    phys = segment_physics(40.0, 94.0, QUIET)
    assert trace.width_m == phys.width_m
    assert trace.flux_m3_s == phys.flux_m3_s
    assert trace.creep == phys.creep
    assert trace.contact_angle_deg == phys.contact_angle_deg
    assert trace.length_mm == pytest.approx(10.0)
    assert trace.duration_s == pytest.approx(0.25)
    assert result.tap_count == 1 and result.lift_count == 1
    assert result.final_state is HeadState.LIFTED
    assert result.width_source == "physics"


def test_simulate_volume_agrees_with_estimate():
    for name in ("straight-line", "square", "grid-antenna", "ic-sketch"):
        tp = plan(sample(name), SETTINGS)
        est = estimate(tp, QUIET)
        sim = simulate(tp, QUIET)
        assert sim.ink_volume_mm3 == pytest.approx(est.ink_volume_mm3,
                                                   rel=1e-9)
        assert sim.print_time_s == pytest.approx(est.print_time_s, rel=1e-9)


def test_simulate_rejects_illegal_sequence():
    with pytest.raises(IllegalActionError):
        simulate(Toolpath(actions=(Move((1.0, 0.0), 40.0, 94.0),)), QUIET)
    with pytest.raises(IllegalActionError):
        simulate(Toolpath(actions=(TAP, LIFT)), QUIET)


def test_corner_risk_flag_on_sharp_junction():
    # hand-built path with a 90 degree corner drawn without a lift
    tp = Toolpath(actions=(
        Tap((0.0, 0.0), grams_to_newtons(94.0)),
        Move((10.0, 0.0), 40.0, 94.0),
        Move((10.0, 10.0), 40.0, 94.0),
        Lift()))
    result = simulate(tp, QUIET)
    assert result.flag_counts[FLAG_CORNER] == 2
    for trace in result.traces:
        assert FLAG_CORNER in trace.flags


def _corner_flags_per_end(toolpath, env):
    """Corner flags as simulate set them before, testing segment k's start
    joint and end joint separately, so each joint's angle was computed
    twice: once from each side."""
    drawn = _walk(toolpath, env)[2]
    threshold = env.policy.threshold_angle
    flags = []
    for k, (start, move, _, run, _) in enumerate(drawn):
        end = move.to
        at_start = k > 0 and drawn[k - 1][3] == run and interior_angle_deg(
            drawn[k - 1][0], start, end) < threshold
        at_end = k + 1 < len(drawn) and drawn[k + 1][3] == run and \
            interior_angle_deg(start, end, drawn[k + 1][1].to) < threshold
        flags.append(at_start or at_end)
    return flags


# a coarse lattice makes repeated points (zero-length moves), reversals and
# right angles common; finite floats give every other angle
_coord = st.one_of(st.integers(-3, 3).map(float),
                   st.floats(-20.0, 20.0, allow_nan=False))
_run = st.lists(st.tuples(_coord, _coord), min_size=2, max_size=8)


@settings(max_examples=150, deadline=None)
@given(st.lists(_run, min_size=1, max_size=6))
@example([[(0.0, 0.0), (0.0, 3e-260), (0.0, 0.0)]])  # lengths' product is 0
def test_corner_flags_equal_the_per_end_test(runs):
    actions = []
    for points in runs:
        actions.append(Tap(points[0], grams_to_newtons(94.0)))
        actions.extend(Move(p, 40.0, 94.0) for p in points[1:])
        actions.append(Lift())
    tp = Toolpath(actions=tuple(actions))
    result = simulate(tp, QUIET)
    assert [FLAG_CORNER in t.flags for t in result.traces] == \
        _corner_flags_per_end(tp, QUIET)


def test_flag_table_holds_each_sorted_set_of_flags():
    for (slip, fast, corner), flags in simulator._FLAGS.items():
        on = {FLAG_SLIP} if slip else set()
        on |= {FLAG_SPEED} if fast else set()
        on |= {FLAG_CORNER} if corner else set()
        assert flags == tuple(sorted(on))
    assert len(simulator._FLAGS) == 8


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_run, st.sampled_from([40.0, 240.0])), min_size=1,
                max_size=5),
       st.sampled_from([QUIET, replace(QUIET, tangential_angle=0.08,
                                       s_max=0.001)]))
def test_flags_counts_and_length_equal_their_per_trace_sums(runs, env):
    # each trace's flags as simulate once built them, from a set, and the
    # totals as it once summed them, from the traces
    actions = []
    for points, speed in runs:
        actions.append(Tap(points[0], grams_to_newtons(94.0)))
        actions.extend(Move(p, speed, 94.0) for p in points[1:])
        actions.append(Lift())
    tp = Toolpath(actions=tuple(actions))
    result = simulate(tp, env)
    counts = {FLAG_CORNER: 0, FLAG_SLIP: 0, FLAG_SPEED: 0}
    for trace, corner in zip(result.traces, _corner_flags_per_end(tp, env),
                             strict=True):
        phys = segment_physics(trace.speed_mm_s, trace.pressure_g, env)
        flags = {FLAG_CORNER} if corner else set()
        if phys.full_slip or abs(phys.creep) > env.s_max:
            flags.add(FLAG_SLIP)
        if trace.speed_mm_s > env.limits.preferred_max_speed:
            flags.add(FLAG_SPEED)
        assert trace.flags == tuple(sorted(flags))
        for f in trace.flags:
            counts[f] += 1
    assert list(result.flag_counts.items()) == list(counts.items())
    assert result.trace_length_mm == sum(
        (t.length_mm for t in result.traces), 0.0)


def test_no_corner_risk_across_lift():
    tp = plan(sample("square"), SETTINGS)  # lift-and-retap splits
    result = simulate(tp, QUIET)
    assert result.flag_counts[FLAG_CORNER] == 0


def test_a_loop_seam_is_slowed_and_not_flagged():
    # the planner slows both edges at a loop's seam vertex (8.3 degrees
    # here), but the head lifts there, so simulate flags corner-risk only
    # on the two edges that meet at the 26 degree vertex (16, 6)
    policy = CornerPolicy(threshold_angle=135.0, strategy="slowdown",
                          slowdown_factor=0.5)
    env = replace(QUIET, policy=policy)
    points = ((0.0, 0.0), (10.0, 1.0), (14.0, 3.0), (16.0, 6.0), (10.0, 2.5))
    assert interior_angle_deg(points[-1], points[0], points[1]) < 9.0
    assert 26.0 < interior_angle_deg(*points[2:]) < 27.0
    d = VectorDrawing(strokes=(points,), closed_flags=(True,))
    tp = plan(d, SETTINGS, environment=env)
    moves = [a for a in tp.actions if type(a) is Move]
    assert [type(a) for a in tp.actions] == [Tap, *[Move] * 5, Lift]
    full = moves[1].speed_mm_s  # the one edge with no sharp end
    assert [m.speed_mm_s for m in moves] == [0.5 * full, full] + [
        0.5 * full] * 3
    result = simulate(tp, env)
    assert [(t.start, t.end) for t in result.traces
            if FLAG_CORNER in t.flags] == [((14.0, 3.0), (16.0, 6.0)),
                                           ((16.0, 6.0), (10.0, 2.5))]


def test_plan_and_simulate_judge_corners_by_one_policy():
    # at a 60 degree threshold a 90 degree corner stays inside the stroke,
    # and simulate, reading the same policy, does not flag it
    env = replace(QUIET, policy=CornerPolicy(threshold_angle=60.0))
    d = VectorDrawing(strokes=(((0.0, 0.0), (10.0, 0.0), (10.0, 10.0)),),
                      closed_flags=(False,))
    tp = plan(d, SETTINGS, environment=env)
    assert [type(a) for a in tp.actions] == [Tap, Move, Move, Lift]
    assert simulate(tp, env).flag_counts[FLAG_CORNER] == 0
    assert simulate(tp, QUIET).flag_counts[FLAG_CORNER] == 2
    with pytest.raises(TypeError):
        plan(d, SETTINGS, policy=env.policy)


def test_speed_warning_flag():
    tp = _line_toolpath(speed=240.0)  # above the 200 mm/s preferred cap
    result = simulate(tp, QUIET)
    assert result.flag_counts[FLAG_SPEED] == 1
    assert FLAG_SPEED in result.traces[0].flags
    relaxed = simulate(_line_toolpath(speed=200.0), QUIET)
    assert relaxed.flag_counts[FLAG_SPEED] == 0


def test_slip_risk_flag():
    tilted = replace(QUIET, tangential_angle=0.08, s_max=0.001)
    result = simulate(_line_toolpath(), tilted)
    assert result.flag_counts[FLAG_SLIP] == 1
    calm = simulate(_line_toolpath(), QUIET)
    assert calm.flag_counts[FLAG_SLIP] == 0


def test_empirical_width_source():
    model = EmpiricalWidthModel(a=2e-4, b=0.0, c=0.0, residual=0.0)
    result = simulate(_line_toolpath(), QUIET, width_model=model)
    assert result.width_source == "empirical"
    assert result.traces[0].width_m == pytest.approx(2e-4, rel=1e-12)
    # physics-only fields still come from the physics chain
    phys = segment_physics(40.0, 94.0, QUIET)
    assert result.traces[0].flux_m3_s == phys.flux_m3_s


# a load obliquity just past atan(0.35), pvc-film's friction coefficient
FULL_SLIP_ANGLE = math.atan(0.35) + 1e-6


def test_full_slip_stops_the_rolling():
    assert QUIET.substrate.friction_coefficient == 0.35
    env = replace(QUIET, tangential_angle=FULL_SLIP_ANGLE)
    phys = segment_physics(40.0, 94.0, env)
    assert phys.full_slip is True
    assert phys.creep == 1.0
    assert phys.omega_y == 0.0
    # the flux is the pressure-driven part alone, under a rolling one's
    rolling = segment_physics(40.0, 94.0, QUIET)
    assert rolling.full_slip is False and rolling.omega_y > 0.0
    assert 0.0 < phys.flux_m3_s < rolling.flux_m3_s


def test_full_slip_flags_every_trace_slip_risk(tmp_path):
    from lmprint.cli import main
    config = tmp_path / "slip.json"
    config.write_text(json.dumps(
        {"simulation": {"tangential_angle_rad": FULL_SLIP_ANGLE}}))
    out = tmp_path / "report.json"
    assert main(["simulate", "--drawing", "samples/square.json",
                 "--speed", "10", "--pressure", "30", "--config", str(config),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_bytes())
    assert report["traces"]
    assert all(FLAG_SLIP in t["flags"] for t in report["traces"])
    assert {p["creep"] for p in report["physics"]} == {1.0}


def test_a_width_model_alone_sets_every_width():
    model = EmpiricalWidthModel(a=3e-4, b=0.25, c=0.5, residual=0.0)
    tp = plan(sample("ic-sketch"), SETTINGS)
    physics = simulate(tp, QUIET)
    result = simulate(tp, QUIET, width_model=model)
    assert result.width_source == "empirical"
    assert [t.width_m for t in result.traces] == [
        model.predict(t.speed_mm_s, t.pressure_g) for t in result.traces]
    assert all(t.width_m != p.width_m
               for t, p in zip(result.traces, physics.traces))
    assert [t.flux_m3_s for t in result.traces] == \
        [t.flux_m3_s for t in physics.traces]


class TestRasterize:
    def test_empty_traces(self):
        img = rasterize([], 0.1)
        assert img.width == 1 and img.height == 1
        assert not img.cells.any()

    def test_single_stroke_area(self):
        scale = 0.01
        trace = _trace((0.0, 0.0), (10.0, 0.0), width_mm=0.2)
        img = rasterize([trace], scale)
        area = img.occupied_area_mm2()
        expected = 10.0 * 0.2 + math.pi * 0.1 ** 2  # stadium: body + caps
        assert area == pytest.approx(expected, rel=0.02)

    def test_values_are_binary(self):
        img = rasterize([_trace((0.0, 0.0), (3.0, 2.0), 0.3)], 0.05)
        assert set(np.unique(img.cells)) == {0, 255}

    def test_overlap_counted_once(self):
        a = _trace((0.0, 0.0), (10.0, 0.0), 0.2)
        b = _trace((10.0, 0.0), (0.0, 0.0), 0.2)  # same stadium, reversed
        img_one = rasterize([a], 0.01)
        img_two = rasterize([a, b], 0.01)
        assert img_one.occupied_area_mm2() == img_two.occupied_area_mm2()

    def test_row_zero_is_top(self):
        # vertical line occupying only the upper half of its bounding box
        trace = _trace((0.0, 5.0), (0.0, 10.0), 0.2)
        img = rasterize([trace], 0.05)
        assert img.cells[img.height // 2].any()
        ys = np.nonzero(img.cells.any(axis=1))[0]
        # occupied band hugs the top rows more than the bottom
        assert ys[0] < img.height - 1 - ys[-1] + 2

    def test_origin_and_extent_cover_trace(self):
        trace = _trace((-3.0, -4.0), (5.0, 2.0), 0.4)
        img = rasterize([trace], 0.05)
        ox, oy = img.origin_mm
        assert ox <= -3.2 and oy >= 2.2
        assert ox + img.width * img.scale >= 5.2
        assert oy - img.height * img.scale <= -4.2

    def test_size_budget(self):
        trace = _trace((0.0, 0.0), (100.0, 100.0), 0.2)
        with pytest.raises(RasterSizeError):
            rasterize([trace], 0.001, max_pixels=10_000)

    def test_deterministic_bytes(self):
        tp = plan(sample("square"), SETTINGS)
        result = simulate(tp, QUIET)
        first = write_pgm(rasterize(result.traces, 0.05))
        second = write_pgm(rasterize(simulate(tp, QUIET).traces, 0.05))
        assert first == second


    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf,
                                       0.0, -0.05])
    def test_scale_must_be_finite_and_positive(self, scale):
        trace = _trace((0.0, 0.0), (1.0, 0.0), 0.2)
        with pytest.raises(ConfigError, match="finite"):
            rasterize([trace], scale)

    @pytest.mark.parametrize("start,end,width_mm", [
        ((math.nan, 0.0), (1.0, 0.0), 0.2),
        ((0.0, 0.0), (1.0, math.inf), 0.2),
        ((0.0, -math.inf), (1.0, 0.0), 0.2),
        ((0.0, 0.0), (1.0, 0.0), math.nan),
        ((0.0, 0.0), (1.0, 0.0), math.inf),
        ((0.0, 0.0), (1.0, 0.0), -math.inf),
    ], ids=["nan-x", "inf-y", "neg-inf-y", "nan-width", "inf-width",
            "neg-inf-width"])
    def test_non_finite_trace_is_domain_error(self, start, end, width_mm):
        # a trace checks itself when built, so no kernel meets a bad one
        with pytest.raises(DomainError):
            _trace(start, end, width_mm)

    @pytest.mark.parametrize("far_mm, scale", [(1e200, 0.05), (1e307, 0.01)])
    def test_a_far_away_trace_is_a_raster_size_error(self, far_mm, scale):
        # finite traces past 2^52 px from (0, 0): at 1e200 mm the squared
        # margins overflowed (the scalar kernel raised OverflowError, the
        # vector kernel clipped on), at 1e307 mm the canvas origin did
        trace = _trace((far_mm, 0.0), (far_mm, 1.0), 0.2)
        for kernel in KERNELS:
            with _kernel(kernel), pytest.raises(RasterSizeError):
                rasterize([trace], scale)

    def test_the_canvas_reaches_2_52_pixels_from_the_origin(self):
        # at 1 mm/px every pixel centre is a half-integer, exact below
        # 2^52: a canvas whose far edge lies there (its right edge, or its
        # bottom edge, 3 mm past the trace) is stamped as the per-pixel
        # rule has it, and one 1 mm farther is refused
        def right(k):
            x = 2.0 ** 52 - k
            return [_trace((x, 0.0), (x - 1.5, 0.5), 2.0)]

        def bottom(k):
            y = -(2.0 ** 52 - k)
            return [_trace((0.0, y), (0.5, y + 1.5), 2.0)]

        for layout in (right, bottom):
            for kernel in KERNELS:
                with _kernel(kernel):
                    image = rasterize(layout(3.0), 1.0)
                cells = _brute_canvas(layout(3.0), 1.0)[0]
                assert cells.any() and np.array_equal(image.cells, cells)
                with _kernel(kernel), pytest.raises(RasterSizeError):
                    rasterize(layout(2.0), 1.0)


# --- span rasterizer against the per-pixel oracle


def _brute_canvas(traces, scale, *, max_pixels=50_000_000):
    """The per-pixel loop: every pixel of every trace's window is tested.
    Returns the (height, width) canvas and its origin."""
    traces = tuple(traces)
    if not traces:
        return np.zeros((1, 1), dtype=np.uint8), (0.0, 0.0)
    halfw_mm = [0.5 * t.width_m * 1e3 for t in traces]
    pad = max(halfw_mm) + scale
    xs = [c for t in traces for c in (t.start[0], t.end[0])]
    ys = [c for t in traces for c in (t.start[1], t.end[1])]
    ox = math.floor((min(xs) - pad) / scale) * scale
    oy = math.ceil((max(ys) + pad) / scale) * scale  # top edge
    wpx = int(math.ceil((max(xs) + pad - ox) / scale)) + 1
    hpx = int(math.ceil((oy - (min(ys) - pad)) / scale)) + 1
    if wpx * hpx > max_pixels:
        raise RasterSizeError("over budget")
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
    return cells, (ox, oy)


def _brute_rasterize(traces, scale):
    cells, origin = _brute_canvas(traces, scale)
    height, width = cells.shape
    return RasterImage.from_cells(width, height, scale, cells, origin)


@st.composite
def _raster_layouts(draw):
    """Traces and a scale with the cases a span could get wrong.

    Zero-length and zero-width segments, axis-aligned and 45-degree ones,
    random directions (some nearly axis-aligned), widths 1e-5 to 1.1e-3 m,
    coordinates offset by up to 1e4 mm, scales 0.003 to 0.05 mm/px, and
    grazing segments: axis-aligned at exactly half a width from a row or
    column of pixel centres, so whole rows sit on the boundary.
    """
    scale = draw(st.floats(0.003, 0.05))
    offset = draw(st.sampled_from((0.0, 1e4, -1e4))) + draw(
        st.floats(-1.0, 1.0))
    span = 120 * scale                  # segments stay within ~120 px
    kinds = ("zero-length", "zero-width", "horizontal", "vertical",
             "diagonal", "random", "grazing")
    traces = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1,
                              max_size=6)):
        width_mm = draw(st.floats(1e-5, 1.1e-3)) * 1e3
        x = offset + draw(st.floats(0.0, span))
        y = offset + draw(st.floats(0.0, span))
        length = draw(st.floats(0.0, span))
        if kind == "zero-length":
            end = (x, y)
        elif kind == "zero-width":
            end, width_mm = (x + length, y - length), 0.0
        elif kind == "horizontal":
            end = (x + length, y)
        elif kind == "vertical":
            end = (x, y - length)
        elif kind == "diagonal":
            end = (x + length, y + draw(st.sampled_from((-1, 1))) * length)
        elif kind == "grazing":
            # centres lie at odd multiples of half a pixel; put the
            # segment half a width away from one of them
            grid = (math.floor(offset / scale) + 0.5) * scale
            edge = grid + draw(st.integers(0, 100)) * scale + \
                draw(st.sampled_from((-0.5, 0.5))) * width_mm
            if draw(st.booleans()):
                x, y, end = x, edge, (x + length, edge)
            else:
                x, y, end = edge, y, (edge, y + length)
        else:
            ang = draw(st.one_of(st.floats(0.0, 2 * math.pi),
                                 st.sampled_from((1e-9, math.pi / 2 - 1e-9))))
            end = (x + length * math.cos(ang), y + length * math.sin(ang))
        traces.append(_trace((x, y), end, width_mm))
    return traces, scale


@settings(max_examples=300, deadline=None)
@given(_raster_layouts())
# a point on a pixel centre, a pixel in radius: its span ends fall on
# pixel centres, so the scalar kernel settles them with the rule for a
# point (_settle with dx = dy = 0)
@example(([_trace((0.25, 0.25), (0.25, 0.25), 1.0)], 0.5))
def test_spans_equal_per_pixel_oracle(layout):
    traces, scale = layout
    slow = _brute_rasterize(traces, scale)
    for kernel in KERNELS:
        with _kernel(kernel):
            fast = rasterize(traces, scale)
        # a scalar-built image holds an array('q'), a vector-built one an
        # ndarray; a drawing of zero widths has no pairs, so even a limit
        # of 0 keeps it scalar
        assert isinstance(fast.runs, array) == (
            kernel == "scalar" or all(t.width_m == 0.0 for t in traces))
        assert (fast.width, fast.height) == (slow.width, slow.height)
        assert fast.origin_mm == slow.origin_mm
        # the area is counted from the runs, without building the canvas
        assert fast.occupied_area_mm2() == slow.occupied_area_mm2()
        assert "cells" not in vars(fast)
        assert fast == slow  # the same runs: both are in the canonical form


@settings(max_examples=100, deadline=None)
@given(_raster_layouts(), st.sampled_from((1, 3, 7)))
def test_spans_equal_per_pixel_oracle_in_small_batches(layout, chunk):
    # batches of 1, 3 and 7 pairs: a batch inside one trace, a batch that
    # ends on a trace's last row and a trace split over many batches (the
    # scalar kernel has no batches)
    traces, scale = layout
    for kernel in KERNELS:
        with _kernel(kernel), pytest.MonkeyPatch.context() as mp:
            mp.setattr(spans, "_SPAN_CHUNK", chunk)
            fast = rasterize(traces, scale)
        assert np.array_equal(fast.cells, _brute_canvas(traces, scale)[0])


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_small_batches_give_the_same_runs(chunk):
    traces = simulate(plan(sample("grid-antenna"), SETTINGS), QUIET).traces
    expected = rasterize(traces, 0.02).runs
    for kernel in KERNELS:
        with _kernel(kernel), pytest.MonkeyPatch.context() as mp:
            mp.setattr(spans, "_SPAN_CHUNK", chunk)
            assert np.array_equal(rasterize(traces, 0.02).runs, expected)


def test_runs_of_a_canvas_over_2_31_pixels():
    # 25 m apart at 0.5 mm/px: about 2.5e9 pixels, so flat indices are
    # int64; the bottom-right trace's pixels all lie past 2^31, where an
    # int32 index would wrap. Every coordinate, width and pixel centre is
    # exact in binary, so the rule gives each trace the same pixels on
    # either canvas
    scale, width_mm = 0.5, 2.0 ** -10 * 1e3
    near = _trace((0.0, 25000.0), (2.0, 25000.0), width_mm)
    far = _trace((25000.0, 0.0), (25003.0, 1.5), width_mm)
    for kernel in KERNELS:
        with _kernel(kernel):
            big = rasterize([near, far], scale, max_pixels=3_000_000_000)
            alone = rasterize([far], scale)
            runs = np.asarray(big.runs)
            near_ink = np.asarray(rasterize([near], scale).runs)[1::2].sum()
        assert big.width * big.height >= 2 ** 31
        col = round((alone.origin_mm[0] - big.origin_mm[0]) / scale)
        row = round((big.origin_mm[1] - alone.origin_mm[1]) / scale)
        # the far trace's pixels, read from the runs: a canvas would be
        # 2.5 GB
        ends = np.cumsum(runs)
        starts, stops = ends[0:-1:2], ends[1::2]
        bottom = starts > big.width * (big.height // 2)
        assert starts[bottom].min() > 2 ** 31
        ink = np.concatenate([np.arange(a, b) for a, b in
                              zip(starts[bottom], stops[bottom])])
        ys, xs = np.nonzero(alone.cells)
        assert np.array_equal(ink // big.width - row, ys)
        assert np.array_equal(ink % big.width - col, xs)
        assert runs[1::2].sum() == near_ink + xs.size


@settings(max_examples=30, deadline=None)
@given(_raster_layouts())
@example(([], 0.05))
@example(([_trace((0.0, 0.0), (0.5, 0.0), 0.2)], 0.05))  # under 4096 px
@example(([_trace((0.0, 0.0), (1.13, 0.0), 0.3)], 0.01))  # a run ends at 4096
def test_pgm_bands_equal_the_canvas_oracle(layout):
    # each kernel's image is painted by its own painter: Python for the
    # scalar kernel's array('q'), numpy for the vector kernel's ndarray
    traces, scale = layout
    cells, _ = _brute_canvas(traces, scale)
    expected = b"P5\n%d %d\n255\n" % cells.shape[::-1] + cells.tobytes()
    for kernel in KERNELS:
        with _kernel(kernel):
            image = rasterize(traces, scale)
        for band in (1, 7, 4096):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(raster, "_PGM_BAND", band)
                assert b"".join(pgm_parts(image)) == expected
        assert "cells" not in vars(image)


@st.composite
def _far_layouts(draw):
    """Traces near the coordinate origin on a canvas that reaches 1e5 mm
    to the left or 1e6 mm to the top, at a coarse scale of 2 to 8 mm/px.

    The per-pixel rule rounds each pixel centre at the size of the canvas
    origin (rx = ox + (col + 0.5) * scale - sx), not of the traces. The
    grazing traces are axis-aligned at half a width, plus or minus up to
    1e-10 mm, from a column (or row) of pixel centres, so that rounding
    decides their edge pixels; others cross at random angles.
    """
    scale = draw(st.floats(2.0, 8.0))
    width_mm = draw(st.floats(0.2, 1.1))
    hw = 0.5 * width_mm
    top = draw(st.booleans())
    far = (0.0, 1e6) if top else (-1e5, 0.0)
    traces = [_trace(far, far, width_mm)]
    # the canvas origin as rasterize snaps it: the far point sets one
    # side, the traces near the origin (|x|, |y| < 12) the other
    pad = hw + scale
    ox = math.floor((far[0] - pad if not top else -12.0 - pad) / scale) \
        * scale
    oy = math.ceil((far[1] + pad if top else 12.0 + pad) / scale) * scale
    for _ in range(draw(st.integers(1, 4))):
        t0 = draw(st.floats(-5.0, 5.0))
        length = draw(st.floats(0.0, 5.0))
        if draw(st.booleans()):
            ang = draw(st.floats(0.0, 2 * math.pi))
            start = (t0, draw(st.floats(-5.0, 5.0)))
            end = (start[0] + length * math.cos(ang),
                   start[1] + length * math.sin(ang))
        else:
            off = draw(st.sampled_from((-1, 1))) * (hw - draw(
                st.floats(-1e-10, 1e-10)))
            k = draw(st.integers(-3, 3))
            if top:
                edge = oy - (round(oy / scale) + k + 0.5) * scale + off
                start, end = (t0, edge), (t0 + length, edge)
            else:
                edge = ox + (round(-ox / scale) + k + 0.5) * scale + off
                start, end = (edge, t0), (edge, t0 + length)
        traces.append(_trace(start, end, width_mm))
    return traces, scale


@settings(max_examples=100, deadline=None)
@given(_far_layouts())
@example(([_trace((-1e5, 0.0), (-1e5, 0.0), 1.09375),
           _trace((0.5695768287987448, 0.0), (0.5695768287987448, 2.0),
                  1.09375)], 2.2329036576140733))
@example(([_trace((0.0, 1e6), (0.0, 1e6), 0.2),
           _trace((0.0, -1.1), (1.0, -1.1), 0.2)], 2.0))
def test_spans_far_from_the_canvas_origin(layout):
    # a margin built from each trace's own coordinates misses the
    # rounding at the size of the canvas origin and certifies a wrong edge
    # pixel: the first example fails by ox, the second by oy
    traces, scale = layout
    for kernel in KERNELS:
        with _kernel(kernel):
            fast = rasterize(traces, scale)
        assert np.array_equal(fast.cells, _brute_canvas(traces, scale)[0])


@pytest.mark.parametrize("dy", [2.2250738585e-313, -1e-310, 1e-101])
def test_a_vanishing_slope_rasterizes_as_flat(dy):
    # 1 / dy overflows for a subnormal dy: each kernel takes the segment as
    # flat rather than meet inf - inf, and its pixels match the rule
    traces = [_trace((0.0, 0.0), (1.0, dy), 1.0)]
    for kernel in KERNELS:
        with _kernel(kernel):
            fast = rasterize(traces, 2.0)
        assert np.array_equal(fast.cells, _brute_canvas(traces, 2.0)[0])


@st.composite
def _kernel_layouts(draw):
    """Traces for comparing the two kernels: points, flat segments, nearly
    flat ones (a rise of 1e-300 to 1e-12 mm), random ones and zero widths,
    near the origin or 1e3 to 1e6 mm from it, at 0.005 to 0.5 mm/px."""
    scale = draw(st.floats(0.005, 0.5))
    offset = draw(st.sampled_from((0.0, 1e3, -1e6, 1e6))) + draw(
        st.floats(-1.0, 1.0))
    span = 60 * scale
    traces = []
    kinds = ("point", "flat", "near-flat", "random")
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1,
                              max_size=5)):
        x = offset + draw(st.floats(0.0, span))
        y = offset + draw(st.floats(0.0, span))
        length = draw(st.floats(0.0, span)) * draw(st.sampled_from((-1, 1)))
        width_mm = draw(st.one_of(st.just(0.0), st.floats(0.0, 20 * scale)))
        if kind == "point":
            end = (x, y)
        elif kind == "flat":
            end = (x + length, y)
        elif kind == "near-flat":
            rise = draw(st.sampled_from((1e-300, 1e-101, 1e-99, 1e-30,
                                         1e-12)))
            end = (x + length, y + draw(st.sampled_from((-1, 1))) * rise)
        else:
            ang = draw(st.floats(0.0, 2 * math.pi))
            end = (x + length * math.cos(ang), y + length * math.sin(ang))
        traces.append(_trace((x, y), end, width_mm))
    return traces, scale


@settings(max_examples=300, deadline=None)
@given(_kernel_layouts())
@example(([_trace((0.0, 0.0), (1.0, 1e-300), 0.3),
           _trace((0.5, 0.5), (0.5, 0.5), 0.2)], 0.05))
def test_the_two_kernels_give_equal_images(layout):
    traces, scale = layout
    images = []
    for kernel in KERNELS:
        with _kernel(kernel):
            images.append(rasterize(traces, scale))
    vector, scalar = images
    assert scalar == vector and vector == scalar
    assert write_pgm(scalar) == write_pgm(vector)
    assert scalar.occupied_area_mm2() == vector.occupied_area_mm2()


def _pair_count(traces, scale):
    """The (trace, row) pairs the vector kernel stamps, counted."""
    count = 0
    capsule_row = spans._capsule_row

    def counted(y, *args):
        nonlocal count
        count += y.size
        return capsule_row(y, *args)

    with _kernel("vector"), pytest.MonkeyPatch.context() as mp:
        mp.setattr(spans, "_capsule_row", counted)
        rasterize(traces, scale)
    return count


def test_the_kernel_changes_at_the_limit_and_the_bytes_do_not():
    traces = simulate(plan(sample("ic-sketch"), SETTINGS), QUIET).traces
    scale = 0.05
    pairs = _pair_count(traces, scale)
    # the least limit that picks the scalar kernel: the decision's bound
    # on the pairs, which needs no canvas
    lo, hi = 0, 4 * pairs
    with pytest.MonkeyPatch.context() as mp:
        while hi - lo > 1:
            mid = (lo + hi) // 2
            mp.setattr(raster, "_SCALAR_PAIRS", mid)
            lo, hi = (lo, mid) if raster._few_pairs(traces, scale) \
                else (mid, hi)
    assert pairs <= hi <= pairs + 4 * len(traces)
    expected = write_pgm(rasterize(traces, scale))
    for limit in (pairs - 1, pairs, hi - 1, hi):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(raster, "_SCALAR_PAIRS", limit)
            image = rasterize(traces, scale)
        assert isinstance(image.runs, array) == (limit >= hi)
        assert write_pgm(image) == expected


def test_the_kernel_choice_reads_traces_only_up_to_the_limit():
    # 1.24 mm of bound per trace at 0.01 mm/px: the sum passes 2^14 pairs
    # (163.84 mm) at the 133rd trace of a hundred thousand
    reads = 0
    trace = _trace((0.0, 0.0), (0.0, 1.0), 0.2)

    class Counted:
        start, end = trace.start, trace.end

        @property
        def width_m(self):
            nonlocal reads
            reads += 1
            return trace.width_m

    assert raster._SCALAR_PAIRS == 1 << 14
    assert not raster._few_pairs((Counted(),) * 100_000, 0.01)
    assert reads == 133


# --- run-length merge against the argsort merge it replaced


def _merge_oracle(starts, stops, n):
    """Run lengths of the union of spans [starts, stops) over n pixels, by
    a stable argsort of the starts and a running max of the stops."""
    if not starts.size:
        return np.array([n])
    order = np.argsort(starts, kind="stable")
    starts, stops = starts[order], stops[order]
    np.maximum.accumulate(stops, out=stops)  # ink reached so far
    cut = np.flatnonzero(starts[1:] > stops[:-1]) + 1  # spans after a gap
    first = starts[np.append(0, cut)]
    end = stops[np.append(cut - 1, stops.size - 1)]
    runs = np.empty(2 * first.size + 1, dtype=np.int64)
    runs[0:-1:2] = first - np.append(0, end[:-1])
    runs[1::2] = end - first
    runs[-1] = n - end[-1]
    return runs


@st.composite
def _span_sets(draw):
    """n pixels and spans (start, stop) over them, in random order, each
    free or single-pixel, or touching, nested in or equal to the last."""
    n = draw(st.integers(1, 300))
    spans = []
    kinds = ("free", "pixel", "touching", "nested", "duplicate")
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=12)):
        a, b = spans[-1] if spans else (0, 0)
        if kind == "touching" and 0 < b < n:
            spans.append((b, draw(st.integers(b + 1, n))))
        elif kind == "nested" and spans:
            lo = draw(st.integers(a, b - 1))
            spans.append((lo, draw(st.integers(lo + 1, b))))
        elif kind == "duplicate" and spans:
            spans.append((a, b))
        else:
            lo = draw(st.integers(0, n - 1))
            hi = lo + 1 if kind == "pixel" else draw(st.integers(lo + 1, n))
            spans.append((lo, hi))
    return n, draw(st.permutations(spans))


@settings(max_examples=300, deadline=None)
@given(_span_sets())
@example((5, []))
@example((1, [(0, 1)]))  # one span over every pixel
@example((9, [(4, 5)]))
def test_merge_equals_argsort_oracle(case):
    # rasterize hands int32 spans on a canvas under 2^31 pixels, int64
    # on a larger one; the runs are int64 either way
    n, intervals = case
    for dtype in (np.int32, np.int64):
        starts = np.array([a for a, _ in intervals], dtype=dtype)
        stops = np.array([b for _, b in intervals], dtype=dtype)
        expected = _merge_oracle(starts.astype(np.int64),
                                 stops.astype(np.int64), n)
        runs = _runs(starts, stops, n)
        assert runs.dtype == np.int64
        assert np.array_equal(runs, expected)
    # the scalar kernel's merge, on Python ints
    runs = raster._merge([a for a, _ in intervals],
                         [b for _, b in intervals], n)
    assert np.array_equal(runs, expected)


def test_capsule_row_is_the_exact_crossing():
    # the outer ends are the row's true crossing, so a span the rule must
    # settle only walks from them; the inner ends, taken at the outer
    # ends' t, lie within the inner radius and inside the outer interval
    from lmprint.circuit import _point_segment_distance
    from lmprint.spans import _capsule_row, _capsule_t
    rng = np.random.default_rng(5)
    n = 4000
    r = rng.uniform(0.01, 1.0, n)
    r_in = r * np.where(rng.random(n) < 0.5, 1.0 - 1e-12,
                        rng.uniform(0.3, 1.0, n))
    dx = rng.uniform(-3.0, 3.0, n) * rng.choice((0.0, 1.0, 1.0), n)
    dy = rng.uniform(-3.0, 3.0, n) * rng.choice((0.0, 1.0, 1.0), n)
    ry = rng.uniform(-4.0, 4.0, n)
    lo, hi, lo_in, hi_in = _capsule_row(
        ry, 0.0, dx, dy, *_capsule_t(dx, dy, r), r * r, r_in * r_in)
    hits = inner_ends = 0
    for k in range(n):
        low, high = min(0.0, dy[k]), max(0.0, dy[k])
        gap = max(low - ry[k], ry[k] - high, 0.0)  # row to segment, in y
        if gap > r[k]:
            assert lo[k] > hi[k]
            assert np.isnan(lo_in[k]) and np.isnan(hi_in[k])
            continue
        hits += 1
        segment = ((0.0, 0.0), (dx[k], dy[k]))
        for x, out in ((lo[k], -1.0), (hi[k], 1.0)):
            assert _point_segment_distance(
                (x, ry[k]), *segment) == pytest.approx(r[k], rel=1e-9)
            assert _point_segment_distance(
                (x + out * 1e-6 * r[k], ry[k]), *segment) > r[k]
        for x in (lo_in[k], hi_in[k]):
            if not np.isnan(x):
                inner_ends += 1
                assert _point_segment_distance(
                    (x, ry[k]), *segment) <= r_in[k] * (1 + 1e-12)
        assert not lo[k] > lo_in[k] and not hi_in[k] > hi[k]
    assert inner_ends > 1.5 * hits  # most such rows have both


class TestWidthModelFit:
    def _samples(self, a, b, c, n=24, seed=3):
        rng = np.random.default_rng(seed)
        speeds = rng.uniform(5.0, 200.0, size=n)
        forces = rng.uniform(10.0, 600.0, size=n)
        return [(float(v), float(f), a * f ** b / v ** c)
                for v, f in zip(speeds, forces)]

    def test_recovers_generating_law(self):
        a, b, c = 3.2e-4, 0.31, 0.47
        model = fit_width_model(self._samples(a, b, c))
        assert type(model.b) is float and type(model.c) is float
        assert model.a == pytest.approx(a, rel=1e-6)
        assert model.b == pytest.approx(b, rel=1e-6)
        assert model.c == pytest.approx(c, rel=1e-6)
        assert model.residual < 1e-10
        assert model.predict(40.0, 94.0) == pytest.approx(
            a * 94.0 ** b / 40.0 ** c, rel=1e-9)

    def test_monotonicity_of_fit(self):
        model = fit_width_model(self._samples(2.5e-4, 0.2, 0.6))
        speeds = np.linspace(4.0, 200.0, 80)
        widths = [model.predict(v, 94.0) for v in speeds]
        assert all(x > y for x, y in zip(widths, widths[1:]))
        pressures = np.linspace(0.1, 800.0, 80)
        widths = [model.predict(40.0, f) for f in pressures]
        assert all(x <= y for x, y in zip(widths, widths[1:]))

    def test_noisy_fit_reports_residual(self):
        rng = np.random.default_rng(11)
        samples = [(v, f, w * float(rng.uniform(0.95, 1.05)))
                   for v, f, w in self._samples(3e-4, 0.3, 0.5)]
        model = fit_width_model(samples)
        assert model.residual > 0.0
        assert model.b >= 0.0 and model.c >= 0.0

    def test_degenerate_inputs_rejected(self):
        good = self._samples(3e-4, 0.3, 0.5)
        with pytest.raises(CalibrationError):
            fit_width_model(good[:2])  # too few points
        same_speed = [(40.0, f, w) for _, f, w in good]
        with pytest.raises(CalibrationError):
            fit_width_model(same_speed)
        same_force = [(v, 94.0, w) for v, _, w in good]
        with pytest.raises(CalibrationError):
            fit_width_model(same_force)
        with pytest.raises(CalibrationError):
            fit_width_model(good[:-1] + [(40.0, 94.0, -1e-5)])
        with pytest.raises(CalibrationError):  # F = 5 v: log F, log v collinear
            fit_width_model([(10, 50, 1e-4), (20, 100, 1.2e-4),
                             (40, 200, 1.5e-4)])

    def test_model_validation(self):
        with pytest.raises(CalibrationError):
            EmpiricalWidthModel(a=-1.0, b=0.1, c=0.1, residual=0.0)
        with pytest.raises(CalibrationError):
            EmpiricalWidthModel(a=1e-4, b=-0.1, c=0.1, residual=0.0)

    @pytest.mark.parametrize("a, b, c", [
        (math.inf, math.nan, 0.0), (math.nan, 0.1, 0.1), (1e-4, math.nan, 0.1),
        (1e-4, 0.1, math.nan), (1e-4, math.inf, 0.1), (1e-4, 0.1, math.inf)])
    def test_a_model_that_is_not_finite_is_refused(self, a, b, c):
        with pytest.raises(CalibrationError):
            EmpiricalWidthModel(a=a, b=b, c=c)

    @pytest.mark.parametrize("abc, speed, pressure", [
        ((1.0, 200.0, 0.0), 40.0, 100.0),     # 100 ** 200 raises
        ((1e300, 1.0, 0.0), 40.0, 1e10),      # the product is inf
        ((1.0, 0.0, 2.0), 1e-200, 94.0),      # v ** c is 0.0
        ((1e-4, 1.0, 1.0), math.inf, math.inf),  # inf / inf is nan
        ((1e306, 0.0, 0.0), 40.0, 94.0),      # 1e306 m is inf mm
    ], ids=["power", "product", "divisor", "nan", "mm"])
    def test_a_width_past_every_float_is_a_calibration_error(
            self, abc, speed, pressure):
        model = EmpiricalWidthModel(*abc)
        with pytest.raises(CalibrationError):
            model.predict(speed, pressure)

    def test_simulate_stores_no_width_past_every_float(self):
        # simulate stores predicted widths unchecked, so predict refuses
        model = EmpiricalWidthModel(a=1.0, b=200.0, c=0.0)
        with pytest.raises(CalibrationError):
            simulate(_line_toolpath(pressure=100.0), QUIET, width_model=model)
