"""Stroke ordering: the bucketed greedy tour against the plain scan.

`oracle_order` is the quadratic loop order_strokes used before the grid
search: at each step it scans every remaining stroke for the least
(math.hypot(dx, dy), index). The grid search must pick the same stroke at
every step, so the two orders are compared for equality, not closeness.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lmprint import MachineSettings, Tap, order_strokes, plan
from lmprint import planner
from lmprint.drawing import VectorDrawing


def entry_exit(drawing, i):
    stroke = drawing.strokes[i]
    if drawing.closed_flags[i]:
        return stroke[0], stroke[0]
    return stroke[0], stroke[-1]


def oracle_greedy(drawing, origin=(0.0, 0.0)):
    remaining = set(range(len(drawing.strokes)))
    order = []
    pos = origin
    while remaining:
        best = min(remaining, key=lambda i: (
            math.hypot(entry_exit(drawing, i)[0][0] - pos[0],
                       entry_exit(drawing, i)[0][1] - pos[1]), i))
        order.append(best)
        remaining.discard(best)
        pos = entry_exit(drawing, best)[1]
    return tuple(order)


def oracle_order(drawing, origin=(0.0, 0.0)):
    def travel(order):
        pos, total = origin, 0.0
        for i in order:
            entry, exit_ = entry_exit(drawing, i)
            total += math.hypot(entry[0] - pos[0], entry[1] - pos[1])
            pos = exit_
        return total

    greedy = oracle_greedy(drawing, origin)
    identity = tuple(range(len(drawing.strokes)))
    return greedy if travel(greedy) <= travel(identity) else identity


def drawing_of(strokes):
    """strokes: (entry, exit, closed) triples. A closed stroke gets a
    second vertex one unit to the right; its exit is its entry."""
    polylines, closed_flags = [], []
    for entry, exit_, closed in strokes:
        if closed or exit_ == entry:
            polylines.append((entry, (entry[0] + 1.0, entry[1])))
        else:
            polylines.append((entry, exit_))
        closed_flags.append(closed)
    return VectorDrawing(strokes=tuple(polylines),
                         closed_flags=tuple(closed_flags))


def greedy_of(drawing, origin):
    entries = [s[0] for s in drawing.strokes]
    exits = [s[0] if c else s[-1]
             for s, c in zip(drawing.strokes, drawing.closed_flags)]
    return planner._nearest_start_tour(entries, exits, origin)


def scattered(n, seed, span=200.0):
    """n one-segment strokes, 0.5-5 mm long, over a span x span mm square."""
    rng = random.Random(seed)
    strokes = []
    for _ in range(n):
        x, y = rng.uniform(0.0, span), rng.uniform(0.0, span)
        angle, length = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.5, 5.0)
        strokes.append(((x, y), (x + length * math.cos(angle),
                                 y + length * math.sin(angle))))
    return VectorDrawing(strokes=tuple(strokes), closed_flags=(False,) * n)


def crowded(n, seed):
    """10 strokes scattered over 200 x 200 mm and the other n - 10 starting
    inside one 1 x 1 mm square at its middle: a dense chip region on a
    board with a few far-off pads."""
    rng = random.Random(seed)
    strokes = list(scattered(10, seed).strokes)
    for _ in range(n - 10):
        x, y = rng.uniform(100.0, 101.0), rng.uniform(100.0, 101.0)
        angle, length = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.01, 0.1)
        strokes.append(((x, y), (x + length * math.cos(angle),
                                 y + length * math.sin(angle))))
    return VectorDrawing(strokes=tuple(strokes), closed_flags=(False,) * n)


def one_start(n, seed):
    """n one-segment strokes that all start at (5, 5) and end on the unit
    circle around it: a fan-out from one via, where every start ties."""
    rng = random.Random(seed)
    strokes = []
    for _ in range(n):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        strokes.append(((5.0, 5.0), (5.0 + math.cos(angle),
                                     5.0 + math.sin(angle))))
    return VectorDrawing(strokes=tuple(strokes), closed_flags=(False,) * n)


# coordinates on a half-millimetre lattice make equal distances, shared
# entries and entries on box edges and split medians common; finite floats
# cover the rest
coord = st.one_of(st.integers(-12, 12).map(lambda v: v * 0.5),
                  st.floats(-50.0, 50.0, allow_nan=False))
point = st.tuples(coord, coord)
stroke = st.tuples(point, point, st.booleans())

SQUARE_RING = [((1.0, 0.0), (5.0, 5.0), False), ((0.0, 1.0), (5.0, 5.0), False),
               ((-1.0, 0.0), (5.0, 5.0), False), ((0.0, -1.0), (5.0, 5.0), False)]
# 32 distinct entries over an 8 x 8 mm box in rows and columns of equal
# coordinates, so split medians, node box edges and the exits coincide
LATTICE = [(float(i), float(j)) for i in range(0, 9, 2) for j in range(0, 9, 2)]
LATTICE += [(1.0, 1.0), (3.0, 3.0), (5.0, 5.0), (7.0, 7.0), (4.0, 1.0),
            (1.0, 4.0), (4.0, 7.0)]
ON_EDGES = [(p, (p[0] + 4.0, p[1]) if p[0] <= 4.0 else (p[0], p[1] - 4.0),
             False) for p in LATTICE]
# starts shared by several strokes beside distinct ones, with 0.0 and -0.0
# in the same coordinate: one point in the tree, the same distance to each
SHARED = [((0.0, 1.0), (2.0, 2.0), False), ((-0.0, 1.0), (0.0, 3.0), True),
          ((1.0, 1.0), (0.0, 1.0), False), ((-0.0, 1.0), (-0.0, 1.0), False),
          ((2.0, 2.0), (-0.0, 1.0), False), ((0.0, 1.0), (1.0, 1.0), True)]


@settings(max_examples=300, deadline=None)
@given(st.lists(stroke, max_size=60), point)
@example([], (0.0, 0.0))
@example([((3.0, 4.0), (6.0, 8.0), False)], (0.0, 0.0))
@example(SQUARE_RING, (0.0, 0.0))
@example([((2.0, 2.0), (9.0, 9.0), False)] * 5 + [((1.0, 1.0), (2.0, 2.0), False)],
         (0.0, 0.0))
@example([((3.0, 3.0), (float(k), 0.0), False) for k in range(9)], (3.0, 3.0))
@example([((float(k), 1.0), (0.0, 0.0), True) for k in range(6)]
         + [((2.5, 1.0), (4.0, 1.0), True)], (0.0, 0.0))
@example(ON_EDGES, (0.0, 0.0))
@example(ON_EDGES, (4.0, 4.0))
@example(ON_EDGES, (-1e6, 5e5))
@example(SQUARE_RING * 3, (1e9, -1e9))
@example(SHARED * 3, (0.0, 0.0))
@example(SHARED * 2, (-0.0, 1.0))
@example(SHARED + ON_EDGES + SHARED, (3.0, -0.0))
@example([((2.0, 2.0), (float(k % 3), 0.0), False) for k in range(12)]
         + [((float(k), 2.0), (2.0, 2.0), False) for k in range(5)], (0.0, 0.0))
def test_order_matches_the_plain_scan(strokes, origin):
    drawing = drawing_of(strokes)
    assert greedy_of(drawing, origin) == oracle_greedy(drawing, origin)
    assert order_strokes(drawing, origin) == oracle_order(drawing, origin)


def test_scattered_orders_match_the_plain_scan():
    for seed, span in ((11, 1.0), (12, 50.0), (13, 200.0)):
        drawing = scattered(600, seed, span)
        assert order_strokes(drawing) == oracle_order(drawing)
    drawing = crowded(600, 14)
    assert order_strokes(drawing) == oracle_order(drawing)


def test_all_strokes_at_one_point_go_in_index_order():
    n = 300
    drawing = drawing_of([((2.0, 2.0), (float(k), 9.0), False)
                          for k in range(n)])
    assert greedy_of(drawing, (0.0, 0.0)) == tuple(range(n))


class CountingMath:
    """Stands in for the math module that planner uses; counts hypot."""

    def __init__(self):
        self.hypot_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def hypot(self, *args):
        self.hypot_calls += 1
        return math.hypot(*args)


@pytest.mark.parametrize("strokes", [scattered, crowded, one_start])
def test_distance_evaluations_grow_near_linearly(monkeypatch, strokes):
    counts = []
    for n in (1000, 2000, 4000, 8000):
        drawing = strokes(n, seed=n)
        counting = CountingMath()
        monkeypatch.setattr(planner, "math", counting)
        order_strokes(drawing)
        monkeypatch.setattr(planner, "math", math)
        counts.append(counting.hypot_calls)
    for smaller, larger in zip(counts, counts[1:]):
        assert larger <= 2.2 * smaller, counts


def test_plan_orders_8000_scattered_strokes():
    drawing = scattered(8000, seed=8000)
    toolpath = plan(drawing, MachineSettings(speed_setting=10.0,
                                             pressure_setting=30.0))
    taps = [a.at for a in toolpath.actions if isinstance(a, Tap)]
    assert sorted(taps) == sorted(s[0] for s in drawing.strokes)
