"""Print simulation: head state machine, traces, rasters, width model."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sample
from lmprint import DEFAULT_ENVIRONMENT, MachineSettings, VectorDrawing, \
    estimate, fit_width_model, plan, rasterize, simulate
from lmprint.core import grams_to_newtons, replace
from lmprint.environment import segment_physics
from lmprint.errors import CalibrationError, ConfigError, \
    IllegalActionError, RasterSizeError
from lmprint.planner import Lift, Move, Tap, Toolpath, _walk, \
    interior_angle_deg, step_head
from lmprint.raster import RasterImage
from lmprint.simulator import FLAG_CORNER, FLAG_SLIP, FLAG_SPEED, \
    EmpiricalWidthModel, HeadState, TraceSegment

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
    for k, (start, move, _, run) in enumerate(drawn):
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


def test_no_corner_risk_across_lift():
    tp = plan(sample("square"), SETTINGS)  # lift-and-retap splits
    result = simulate(tp, QUIET)
    assert result.flag_counts[FLAG_CORNER] == 0


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
        from lmprint import write_pgm
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
    ], ids=["nan-x", "inf-y", "neg-inf-y", "nan-width", "inf-width"])
    def test_non_finite_trace_is_domain_error(self, start, end, width_mm):
        good = _trace((0.0, 0.0), (1.0, 1.0), 0.2)
        with pytest.raises(ConfigError, match="finite"):
            rasterize([good, _trace(start, end, width_mm)], 0.05)


# --- span rasterizer against the per-pixel oracle


def _brute_rasterize(traces, scale, *, max_pixels=50_000_000):
    """The per-pixel loop: every pixel of every trace's window is tested."""
    traces = tuple(traces)
    if not traces:
        return RasterImage(width=1, height=1, scale=scale,
                           cells=np.zeros((1, 1), dtype=np.uint8),
                           origin_mm=(0.0, 0.0))
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
    return RasterImage(width=wpx, height=hpx, scale=scale, cells=cells,
                       origin_mm=(ox, oy))


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
def test_spans_equal_per_pixel_oracle(layout):
    traces, scale = layout
    fast = rasterize(traces, scale)
    slow = _brute_rasterize(traces, scale)
    assert (fast.width, fast.height) == (slow.width, slow.height)
    assert fast.origin_mm == slow.origin_mm
    assert np.array_equal(fast.cells, slow.cells)


def test_capsule_row_is_the_exact_crossing():
    # the span guesses are the row's true crossing, so the per-pixel rule
    # only confirms them; a wrong guess would stay exact but walk slowly
    from lmprint.circuit import _point_segment_distance
    from lmprint.simulator import _capsule_row
    rng = np.random.default_rng(5)
    n = 4000
    r = rng.uniform(0.01, 1.0, n)
    dx = rng.uniform(-3.0, 3.0, n) * rng.choice((0.0, 1.0, 1.0), n)
    dy = rng.uniform(-3.0, 3.0, n) * rng.choice((0.0, 1.0, 1.0), n)
    ry = rng.uniform(-4.0, 4.0, n)
    lo, hi = _capsule_row(ry, dx, dy, r)
    for k in range(n):
        low, high = min(0.0, dy[k]), max(0.0, dy[k])
        gap = max(low - ry[k], ry[k] - high, 0.0)  # row to segment, in y
        if gap > r[k]:
            assert lo[k] > hi[k]
            continue
        segment = ((0.0, 0.0), (dx[k], dy[k]))
        for x, out in ((lo[k], -1.0), (hi[k], 1.0)):
            assert _point_segment_distance(
                (x, ry[k]), *segment) == pytest.approx(r[k], rel=1e-9)
            assert _point_segment_distance(
                (x + out * 1e-6 * r[k], ry[k]), *segment) > r[k]


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
