"""Toolpath planning: corner policies, stroke ordering and estimates."""

import itertools
import math
import warnings

import numpy as np
import pytest

from conftest import sample
from lmprint import DEFAULT_ENVIRONMENT, MachineSettings, VectorDrawing, \
    estimate, plan
from lmprint.core import replace
from lmprint.environment import CornerPolicy
from lmprint.errors import DomainError, IllegalActionError, PlanError
from lmprint.planner import HeadState, Lift, Move, Tap, \
    apply_corner_policy, interior_angle_deg, order_strokes, step_head

QUIET = replace(DEFAULT_ENVIRONMENT, dwell_s=0.0)
SQUARE = [(0.0, 0.0), (20.0, 0.0), (20.0, 20.0), (0.0, 20.0)]


def _settings(speed_mm_s=40.0, pressure_g=94.0):
    return MachineSettings(speed_mm_s / 4.0, pressure_g * 60.0 / 188.0)


def _travel(drawing, order, origin=(0.0, 0.0)):
    pos = origin
    total = 0.0
    for idx in order:
        verts = drawing.stroke_vertices(idx)
        total += math.dist(pos, verts[0])
        pos = verts[-1]
    return total


def test_interior_angle():
    assert interior_angle_deg((0, 0), (1, 0), (2, 0)) == pytest.approx(180.0)
    assert interior_angle_deg((0, 0), (1, 0), (1, 1)) == pytest.approx(90.0)
    assert interior_angle_deg((0, 0), (1, 0), (0, 0)) == pytest.approx(0.0)
    # degenerate (zero-length) edges are treated as straight-through
    assert interior_angle_deg((1, 0), (1, 0), (2, 5)) == pytest.approx(180.0)


def test_two_point_stroke_plans_to_tap_move_lift():
    d = VectorDrawing(strokes=(((0.0, 0.0), (10.0, 0.0)),),
                      closed_flags=(False,))
    tp = plan(d, _settings())
    assert [type(a) for a in tp.actions] == [Tap, Move, Lift]
    assert tp.actions[0].at == (0.0, 0.0)
    assert tp.actions[1].to == (10.0, 0.0)
    assert tp.actions[1].speed_mm_s == pytest.approx(40.0)
    assert tp.actions[1].pressure_g == pytest.approx(94.0)


def test_lift_and_retap_splits_open_polyline_once():
    pol = CornerPolicy(threshold_angle=120.0, strategy="lift-and-retap")
    d = VectorDrawing(
        strokes=(((0.0, 0.0), (10.0, 0.0), (10.0, 10.0)),),
        closed_flags=(False,))
    tp = plan(d, _settings(),
              environment=replace(DEFAULT_ENVIRONMENT, policy=pol))
    kinds = [type(a) for a in tp.actions]
    assert kinds == [Tap, Move, Lift, Tap, Move, Lift]
    # the retap happens exactly at the sharp corner
    assert tp.actions[3].at == (10.0, 0.0)


def test_gentle_corner_is_not_split():
    pol = CornerPolicy(threshold_angle=120.0, strategy="lift-and-retap")
    d = VectorDrawing(
        strokes=(((0.0, 0.0), (10.0, 0.0), (20.0, 1.0)),),
        closed_flags=(False,))
    tp = plan(d, _settings(),
              environment=replace(DEFAULT_ENVIRONMENT, policy=pol))
    assert [type(a) for a in tp.actions] == [Tap, Move, Move, Lift]


def test_closed_square_lift_and_retap_gives_four_runs():
    runs = apply_corner_policy(SQUARE, True, CornerPolicy(), 0.05)
    assert len(runs) == 4
    # each run is one full edge of the square and the union closes the loop
    starts = [pts[0] for pts, _ in runs]
    ends = [pts[-1] for pts, _ in runs]
    assert sorted(starts) == sorted(SQUARE)
    assert ends == starts[1:] + starts[:1]


def test_closed_square_lift_and_retap_plans_four_taps():
    tp = plan(sample("square"), _settings())
    taps = [a for a in tp.actions if isinstance(a, Tap)]
    lifts = [a for a in tp.actions if isinstance(a, Lift)]
    assert len(taps) == 4 and len(lifts) == 4


def test_slowdown_scales_edges_next_to_sharp_corners():
    pol = CornerPolicy(threshold_angle=120.0, strategy="slowdown",
                       slowdown_factor=0.5)
    verts = [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (20.0, 10.0)]
    runs = apply_corner_policy(verts, False, pol, 0.05)
    assert len(runs) == 1
    pts, factors = runs[0]
    assert pts == verts
    assert factors == [0.5, 0.5, 0.5]

    # gentle first corner, sharp second: only the last two edges slow down
    verts = [(0.0, 0.0), (10.0, 0.0), (20.0, 0.5), (20.0, -10.0)]
    pts, factors = apply_corner_policy(verts, False, pol, 0.05)[0]
    assert factors == [1.0, 0.5, 0.5]


def test_slowdown_on_closed_square_is_cyclic():
    pol = CornerPolicy(strategy="slowdown", slowdown_factor=0.25)
    pts, factors = apply_corner_policy(SQUARE, True, pol, 0.05)[0]
    assert pts[0] == pts[-1]          # closure edge emitted explicitly
    assert pts[:-1] == SQUARE
    assert factors == [0.25] * 4      # every edge touches a sharp corner


def test_slowdown_plan_carries_reduced_speeds():
    pol = CornerPolicy(threshold_angle=120.0, strategy="slowdown",
                       slowdown_factor=0.5)
    d = VectorDrawing(
        strokes=(((0.0, 0.0), (10.0, 0.0), (10.0, 10.0)),),
        closed_flags=(False,))
    tp = plan(d, _settings(),
              environment=replace(DEFAULT_ENVIRONMENT, policy=pol))
    moves = [a for a in tp.actions if isinstance(a, Move)]
    assert [m.speed_mm_s for m in moves] == [20.0, 20.0]


def test_fillet_rounds_closed_square():
    pol = CornerPolicy(strategy="fillet", fillet_radius_mm=0.5)
    runs = apply_corner_policy(SQUARE, True, pol, 0.05)
    assert len(runs) == 1
    pts, factors = runs[0]
    assert set(factors) == {1.0}
    # stays exactly closed
    assert pts[0] == pts[-1]
    # original sharp corners are gone and no sharp corner remains anywhere
    assert not any(v in pts for v in SQUARE)
    cycle = pts[:-1]
    angles = [interior_angle_deg(cycle[i - 1], cycle[i],
                                 cycle[(i + 1) % len(cycle)])
              for i in range(len(cycle))]
    assert min(angles) > pol.threshold_angle - 1e-6
    # convex loop: exterior turning still sums to one full revolution
    assert sum(180.0 - a for a in angles) == pytest.approx(360.0, abs=1e-6)
    # four arcs: short chord clusters separated by the four trimmed edges
    seg_lens = [math.dist(pts[i], pts[i + 1]) for i in range(len(pts) - 1)]
    long_runs = sum(1 for length in seg_lens if length > 5.0)
    assert long_runs == 5  # two half edges at the seam + three full edges
    # corner cut shortens the path
    assert sum(seg_lens) < 80.0


def test_fillet_chords_stay_within_tolerance():
    pol = CornerPolicy(strategy="fillet", fillet_radius_mm=2.0)
    tol = 0.01
    pts, _ = apply_corner_policy(
        [(0.0, 0.0), (30.0, 0.0), (30.0, 30.0)], False, pol, tol)[0]
    arc_pts = [p for p in pts if p not in ((0.0, 0.0), (30.0, 30.0))]
    # arc centre for this right angle corner sits at (28, 2)
    cx, cy = 28.0, 2.0
    for p in arc_pts:
        assert math.hypot(p[0] - cx, p[1] - cy) == pytest.approx(2.0,
                                                                 abs=1e-9)
    # midpoint of each chord sags less than the tolerance
    for a, b in zip(arc_pts, arc_pts[1:]):
        mx, my = (a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0
        sag = 2.0 - math.hypot(mx - cx, my - cy)
        assert 0.0 <= sag < tol


def test_fillet_falls_back_to_split_on_reversal():
    pol = CornerPolicy(strategy="fillet", threshold_angle=120.0)
    runs = apply_corner_policy([(0.0, 0.0), (10.0, 0.0), (0.0, 0.0)],
                               False, pol, 0.05)
    assert len(runs) == 2
    assert runs[0][0] == [(0.0, 0.0), (10.0, 0.0)]
    assert runs[1][0] == [(10.0, 0.0), (0.0, 0.0)]


def test_fillet_radius_capped_by_short_edges():
    # radius asks for a 10 mm trim but edges are only 4 mm long
    pol = CornerPolicy(strategy="fillet", fillet_radius_mm=10.0)
    pts, _ = apply_corner_policy(
        [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0)], False, pol, 0.05)[0]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    assert min(xs) >= -1e-12 and max(xs) <= 4.0 + 1e-12
    assert min(ys) >= -1e-12 and max(ys) <= 4.0 + 1e-12
    assert pts[0] == (0.0, 0.0) and pts[-1] == (4.0, 4.0)


def test_order_strokes_prefers_near_stroke_first():
    d = VectorDrawing(
        strokes=(((30.0, 0.0), (40.0, 0.0)), ((0.0, 0.0), (10.0, 0.0))),
        closed_flags=(False, False))
    assert order_strokes(d) == (1, 0)


def test_order_strokes_identity_when_already_sorted():
    d = VectorDrawing(
        strokes=(((0.0, 0.0), (10.0, 0.0)), ((12.0, 0.0), (20.0, 0.0)),
                 ((22.0, 0.0), (30.0, 0.0))),
        closed_flags=(False, False, False))
    assert order_strokes(d) == (0, 1, 2)


def test_order_strokes_never_beats_input_order_travel():
    rng = np.random.default_rng(20260826)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        strokes = []
        for _ in range(n):
            p = rng.uniform(0.0, 50.0, size=4)
            strokes.append(((float(p[0]), float(p[1])),
                            (float(p[2]), float(p[3]))))
        d = VectorDrawing(strokes=tuple(strokes),
                          closed_flags=(False,) * n)
        order = order_strokes(d)
        assert sorted(order) == list(range(n))
        identity = _travel(d, range(n))
        chosen = _travel(d, order)
        assert chosen <= identity + 1e-12
        best = min(_travel(d, perm)
                   for perm in itertools.permutations(range(n)))
        assert chosen >= best - 1e-12


def test_plan_reorder_flag():
    d = VectorDrawing(
        strokes=(((30.0, 0.0), (40.0, 0.0)), ((0.0, 0.0), (10.0, 0.0))),
        closed_flags=(False, False))
    tp = plan(d, _settings(), reorder=False)
    taps = [a.at for a in tp.actions if isinstance(a, Tap)]
    assert taps == [(30.0, 0.0), (0.0, 0.0)]
    tp = plan(d, _settings(), reorder=True)
    taps = [a.at for a in tp.actions if isinstance(a, Tap)]
    assert taps == [(0.0, 0.0), (30.0, 0.0)]


def test_plan_rejects_limit_violations():
    d = VectorDrawing(strokes=(((0.0, 0.0), (10.0, 0.0)),),
                      closed_flags=(False,))
    with pytest.raises(PlanError) as exc:
        plan(d, MachineSettings(150.0, 30.0))  # 600 mm/s > 400 mm/s cap
    assert exc.value.violations
    with pytest.raises(PlanError):
        plan(d, MachineSettings(10.0, 400.0))  # > 800 g force cap


def test_plan_checks_the_speed_of_every_move():
    line = VectorDrawing(strokes=(((0.0, 0.0), (10.0, 0.0)),),
                         closed_flags=(False,))
    with pytest.raises(DomainError, match="^move speed must be > 0$"):
        plan(line, MachineSettings(0.0, 30.0))
    # no stroke, no Move to check
    assert plan(VectorDrawing(strokes=(), closed_flags=()),
                MachineSettings(0.0, 30.0)).actions == ()
    # 4 * 5e-324 mm/s is the least speed above 0; a tenth of it rounds to
    # 0, so only a stroke with a corner to slow down for is refused
    slow = replace(DEFAULT_ENVIRONMENT, policy=CornerPolicy(
        threshold_angle=120.0, strategy="slowdown", slowdown_factor=0.1))
    least = MachineSettings(5e-324, 30.0)
    moves = plan(line, least, environment=slow).actions[1:-1]
    assert [m.speed_mm_s for m in moves] == [2e-323]
    corner = VectorDrawing(strokes=(((0.0, 0.0), (10.0, 0.0), (10.0, 10.0)),),
                           closed_flags=(False,))
    with pytest.raises(DomainError, match="^move speed must be > 0$"):
        plan(corner, least, environment=slow)


def test_a_walk_whose_totals_overflow_is_a_plan_error():
    # the second segment is 2e308 mm long, an inf as a float, and so are
    # the print time and the ink volume, which no report can hold
    d = VectorDrawing(strokes=(((0.0, 0.0), (1e308, 0.0), (-1e308, 0.0)),),
                      closed_flags=(False,))
    toolpath = plan(d, _settings())
    with pytest.raises(PlanError, match="^print time inf s or ink volume "
                       "inf mm\\^3 is not finite$"):
        estimate(toolpath, QUIET)


def test_plan_outputs_walk_the_head_state_machine():
    for name in ("straight-line", "square", "grid-antenna", "ic-sketch"):
        tp = plan(sample(name), _settings())
        state = HeadState.SEALED
        for action in tp.actions:
            state = step_head(state, action)
        assert state is HeadState.LIFTED
        assert isinstance(tp.actions[0], Tap)
        assert isinstance(tp.actions[-1], Lift)


def test_plan_is_deterministic():
    settings = _settings()
    a = plan(sample("ic-sketch"), settings)
    b = plan(sample("ic-sketch"), settings)
    assert a.actions == b.actions
    assert a.policy == b.policy


def test_estimate_time_for_plain_run():
    tp = plan(VectorDrawing(strokes=(((0.0, 0.0), (120.0, 0.0)),),
                            closed_flags=(False,)),
              MachineSettings(30.0, 30.0))  # 120 mm/s
    est = estimate(tp, QUIET)
    assert est.print_time_s == pytest.approx(1.0, rel=1e-12)


def test_estimate_counts_dwell():
    tp = plan(sample("square"), _settings())
    est = estimate(tp)  # default environment: 0.1 s per tap and per lift
    assert est.print_time_s == pytest.approx(80.0 / 40.0 + 8 * 0.1,
                                             rel=1e-12)


def test_estimate_empty_toolpath():
    from lmprint.planner import Toolpath
    est = estimate(Toolpath(actions=()))
    assert est.print_time_s == 0.0
    assert est.ink_volume_mm3 == 0.0


def test_estimate_volume_matches_flux_anchor():
    # 21 mm/s over a 350 um bead spins the roller at exactly 60 rad/s,
    # which together with the 1 Pa drop and 50 um gap is the calibration
    # point of the default flux parameters: 0.0656 mm^3/s for one second.
    tp = plan(VectorDrawing(strokes=(((0.0, 0.0), (21.0, 0.0)),),
                            closed_flags=(False,)),
              MachineSettings(21.0 / 4.0, 30.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        est = estimate(tp, QUIET)
    assert est.print_time_s == pytest.approx(1.0, rel=1e-12)
    assert est.ink_volume_mm3 == pytest.approx(0.0656, rel=1e-9)


def test_estimate_rejects_move_before_tap():
    # estimate walks the head state machine, so it rejects what simulate
    # rejects: a move before any tap, a move while lifted, a tap-lift
    from lmprint.planner import Toolpath
    tap = Tap((0.0, 0.0), 0.92)
    move = Move((1.0, 0.0), 40.0, 94.0)
    for actions in ((move,), (tap, move, Lift(), move), (tap, Lift())):
        with pytest.raises(IllegalActionError):
            estimate(Toolpath(actions=actions))
