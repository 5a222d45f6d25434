"""Toolpath planning: drawing + machine settings -> tap/move/lift actions.

Coordinates are millimetres throughout. A toolpath is a flat sequence of
actions: Tap (seal and press the bead at a point), Move (draw a straight
segment at a commanded speed and pressure), Lift (raise the head). Corner
handling follows a CornerPolicy; strokes are greedily reordered to cut
travel unless reordering is disabled. The head state machine lives here
too: estimate() and simulator.simulate() share one walk through it.
"""

from __future__ import annotations

import enum
import math

from .core import (MachineSettings, Record, grams_to_newtons, trusted,
                   validate_settings)
from .drawing import VectorDrawing
from .environment import (DEFAULT_ENVIRONMENT, CornerPolicy, Environment,
                          segment_physics)
from .errors import DomainError, IllegalActionError, PlanError

Point = tuple[float, float]


class Tap(Record):
    """Seal the nozzle against the substrate at `at` with force_n newtons."""

    at: Point
    force_n: float

    def __post_init__(self):
        object.__setattr__(self, "at", (float(self.at[0]), float(self.at[1])))


class Move(Record):
    """Draw a straight segment to `to` at speed_mm_s under pressure_g grams."""

    to: Point
    speed_mm_s: float
    pressure_g: float

    def __post_init__(self):
        object.__setattr__(self, "to", (float(self.to[0]), float(self.to[1])))
        if self.speed_mm_s <= 0:
            raise DomainError("move speed must be > 0")


class Lift(Record):
    """Raise the head, ending the current trace."""


Action = Tap | Move | Lift
# every Lift is alike, so plan appends this one
LIFT = Lift()


class Toolpath(Record):
    actions: tuple[Action, ...]
    drawing_id: str | None = None
    policy: str = ""

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))
        for a in self.actions:
            if not isinstance(a, (Tap, Move, Lift)):
                raise PlanError(f"not a toolpath action: {a!r}")


# --------------------------------------------------------------------------
# head state machine


class HeadState(enum.Enum):
    SEALED = "Sealed"
    TAPPED = "Tapped"
    DRAWING = "Drawing"
    LIFTED = "Lifted"


_TRANSITIONS = {
    (HeadState.SEALED, Tap): HeadState.TAPPED,
    (HeadState.TAPPED, Move): HeadState.DRAWING,
    (HeadState.DRAWING, Move): HeadState.DRAWING,
    (HeadState.DRAWING, Lift): HeadState.LIFTED,
    (HeadState.LIFTED, Tap): HeadState.TAPPED,
}


def step_head(state: HeadState, action) -> HeadState:
    """Advance the head state machine by one action.

    The nozzle starts Sealed (bead pressed into its seat, no outflow); only
    a tap opens the gap, and ink can flow only while Drawing. Anything off
    the legal transition table raises IllegalActionError.
    """
    nxt = _TRANSITIONS.get((state, type(action)))
    if nxt is None:
        raise IllegalActionError(
            f"{type(action).__name__} is illegal in state {state.value}")
    return nxt


# --------------------------------------------------------------------------
# corner geometry


def interior_angle_deg(a: Point, p: Point, b: Point) -> float:
    """Interior angle at p for the polyline a -> p -> b, in degrees.

    180 means collinear (no corner); small values mean a hairpin.
    Degenerate edges count as straight: zero-length ones, and pairs so
    short that the product of their lengths underflows to zero.
    """
    ux, uy = p[0] - a[0], p[1] - a[1]
    wx, wy = b[0] - p[0], b[1] - p[1]
    nu = math.hypot(ux, uy)
    nw = math.hypot(wx, wy)
    if nu * nw == 0.0:
        return 180.0
    c = (ux * wx + uy * wy) / (nu * nw)
    c = max(-1.0, min(1.0, c))
    return 180.0 - math.degrees(math.acos(c))


def _unit(dx: float, dy: float) -> tuple[float, float]:
    n = math.hypot(dx, dy)
    return dx / n, dy / n


# most chords one fillet arc may take: a threshold of 180 degrees or a
# vanishing chord tolerance would otherwise cut an arc into millions
MAX_FILLET_CHORDS = 1 << 12


def _fillet_arc(a: Point, p: Point, b: Point, radius_mm: float,
                tol_mm: float, threshold_deg: float) -> list[Point] | None:
    """Polyline for a tangent arc replacing the corner at p, or None.

    None means the corner is a reversal (or numerically straight) and
    cannot be filleted. The arc is trimmed so tangent points stay within
    half of each adjacent edge, shrinking the radius if necessary. Chord
    step is capped so the sagitta stays under tol_mm and the residual
    chord-to-chord corners stay at or above the sharpness threshold; an
    arc that would need more than MAX_FILLET_CHORDS chords is a PlanError.
    """
    ux, uy = _unit(p[0] - a[0], p[1] - a[1])
    wx, wy = _unit(b[0] - p[0], b[1] - p[1])
    dot = max(-1.0, min(1.0, ux * wx + uy * wy))
    dev = math.acos(dot)                      # turn angle
    if dev < 1e-12 or dev > math.pi - 1e-9:
        return None
    phi = math.pi - dev                       # interior angle
    trim = radius_mm / math.tan(phi / 2.0)
    trim_max = 0.5 * min(math.hypot(p[0] - a[0], p[1] - a[1]),
                         math.hypot(b[0] - p[0], b[1] - p[1]))
    if trim > trim_max:
        trim = trim_max
        radius_mm = trim * math.tan(phi / 2.0)
    if radius_mm <= 0.0:
        return None
    t1 = (p[0] - ux * trim, p[1] - uy * trim)
    t2 = (p[0] + wx * trim, p[1] + wy * trim)
    bx, by = _unit(wx - ux, wy - uy)          # internal bisector
    dist = radius_mm / math.sin(phi / 2.0)
    cx, cy = p[0] + bx * dist, p[1] + by * dist
    # max angular step: sagitta bound and residual-corner bound
    if tol_mm < radius_mm:
        step_sag = 2.0 * math.acos(1.0 - tol_mm / radius_mm)
    else:
        step_sag = math.pi
    step_corner = (math.pi - math.radians(threshold_deg)) * (1.0 - 1e-9)
    step_max = min(step_sag, step_corner)
    chords = dev / step_max if step_max > 0.0 else math.inf
    if not chords <= MAX_FILLET_CHORDS:
        raise PlanError(f"a fillet arc at {p} needs {chords:.3g} chords, "
                        f"over {MAX_FILLET_CHORDS}; raise chord_tolerance_mm "
                        "or lower threshold_angle_deg")
    n = max(1, math.ceil(chords))
    a1 = math.atan2(t1[1] - cy, t1[0] - cx)
    turn = dev if (ux * wy - uy * wx) > 0 else -dev
    pts = []
    for k in range(n + 1):
        ang = a1 + turn * (k / n)
        pts.append((cx + radius_mm * math.cos(ang),
                    cy + radius_mm * math.sin(ang)))
    pts[0] = t1
    pts[-1] = t2
    return pts


def _dedup(points: list[Point], eps: float = 1e-9) -> list[Point]:
    out = [points[0]]
    for q in points[1:]:
        if math.hypot(q[0] - out[-1][0], q[1] - out[-1][1]) > eps:
            out.append(q)
    return out


def apply_corner_policy(vertices: list[Point], closed: bool,
                        policy: CornerPolicy,
                        chord_tolerance_mm: float) -> list[tuple[list[Point], list[float]]]:
    """Resolve corners of one stroke into drawable sub-paths.

    Returns a list of (points, speed_factors) pairs; speed_factors has one
    multiplier per edge. Multiple sub-paths arise when the policy breaks
    the stroke (lift-and-retap, or fillet falling back at a reversal).

    A closed stroke repeats its first vertex, and that seam vertex has one
    sharpness shared by both ends of the path. Under fillet a loop of three
    or more vertices starts mid-edge instead, so every original vertex is
    interior and the seam is never a corner.
    """
    fillet = policy.strategy == "fillet"
    verts = list(vertices)
    if closed and fillet and len(verts) >= 3:
        mid = ((verts[0][0] + verts[1][0]) / 2.0,
               (verts[0][1] + verts[1][1]) / 2.0)
        path = [mid] + verts[1:] + [verts[0], mid]
    else:
        path = verts + [verts[0]] if closed else verts
    last = len(path) - 1
    seam = closed and not fillet  # both ends are the loop's first vertex
    sharp = [False] + [policy.is_sharp(interior_angle_deg(*path[i - 1:i + 2]))
                       for i in range(1, last)] + [False]
    if seam:
        sharp[0] = sharp[last] = policy.is_sharp(
            interior_angle_deg(path[last - 1], path[0], path[1]))
    if policy.strategy == "slowdown":
        slow = policy.slowdown_factor
        return [(path, [slow if sharp[i] or sharp[i + 1] else 1.0
                        for i in range(last)])]
    if seam and True in sharp:
        # start the loop at a sharp corner, so the natural tap/lift break
        # absorbs it
        k = sharp.index(True)
        path = path[k:last] + path[:k + 1]
        sharp = sharp[k:last] + sharp[:k + 1]
    subs = []
    cur = [path[0]]
    for i in range(1, last):
        p = path[i]
        if sharp[i] and fillet:
            arc = _fillet_arc(path[i - 1], p, path[i + 1],
                              policy.fillet_radius_mm, chord_tolerance_mm,
                              policy.threshold_angle)
            if arc is not None:
                cur.extend(arc)
                continue
            # a reversal: no tangent arc exists; break the stroke instead
        cur.append(p)
        if sharp[i]:
            subs.append(cur)
            cur = [p]
    cur.append(path[last])
    subs.append(cur)
    if fillet:
        subs = [points for points in map(_dedup, subs) if len(points) >= 2]
    return [(points, [1.0] * (len(points) - 1)) for points in subs]


# --------------------------------------------------------------------------
# stroke ordering


def _travel_length(entries: list[Point], exits: list[Point],
                   order: tuple[int, ...], origin: Point) -> float:
    pos = origin
    total = 0.0
    for i in order:
        entry = entries[i]
        total += math.hypot(entry[0] - pos[0], entry[1] - pos[1])
        pos = exits[i]
    return total


def _nearest_start_tour(entries: list[Point], exits: list[Point],
                        origin: Point) -> tuple[int, ...]:
    """From origin, go to the remaining entry with the least
    (math.hypot(dx, dy), index), then on from that stroke's exit.

    The distinct entry points go in a k-d tree (Bentley 1990): a node
    splits its points at the median of the wider side of their bounding
    box, and a leaf holds at most 8. A point offers the lowest index of the
    strokes that start there and leaves the tree when the last of them is
    taken, so strokes sharing one start cost one distance per step, not one
    each. Each step searches the tree nearer child first and skips a node
    that holds no remaining point, or whose box lies farther along x or y
    than the best distance found, so crowded starts cost about as much per
    step as scattered ones. That bound is shrunk by a relative 1e-12, far
    more than hypot's rounding error, so no entry that could tie is skipped
    and the tour is the one a scan of every entry picks.
    """
    n = len(entries)
    if n == 0:
        return ()
    hypot = math.hypot
    # one point per distinct entry; 0.0 == -0.0 as keys, and both give
    # every hypot the same value
    strokes_at: dict[Point, list[int]] = {}
    for i in range(n - 1, -1, -1):
        strokes_at.setdefault(entries[i], []).append(i)
    xs = [p[0] for p in strokes_at]
    ys = [p[1] for p in strokes_at]
    waiting = list(strokes_at.values())  # a point's strokes left, highest first
    box: list[tuple[float, float, float, float]] = []  # x0, x1, y0, y1
    live: list[int] = []    # remaining points under the node
    parent: list[int] = []
    bucket: list[list[int]] = []  # a leaf's remaining points
    split: list = []        # a leaf's None, else (on x, median, low, high)
    leaf_of = [0] * len(xs)

    def build(idx: list[int], up: int) -> int:
        v = len(box)
        bx = [xs[i] for i in idx]
        by = [ys[i] for i in idx]
        x0, x1, y0, y1 = min(bx), max(bx), min(by), max(by)
        box.append((x0, x1, y0, y1))
        live.append(len(idx))
        parent.append(up)
        split.append(None)
        if len(idx) <= 8:
            bucket.append(idx)
            for i in idx:
                leaf_of[i] = v
            return v
        bucket.append([])
        on_x = x1 - x0 >= y1 - y0
        c = xs if on_x else ys
        idx.sort(key=c.__getitem__)
        m = len(idx) // 2
        split[v] = (on_x, c[idx[m]], build(idx[:m], v), build(idx[m:], v))
        return v

    build(list(range(len(xs))), -1)
    keep = 1.0 - 1e-12
    order: list[int] = []
    px, py = origin
    while len(order) < n:
        best_d, best_i = math.inf, n
        todo = [0]
        while todo:
            v = todo.pop()
            if not live[v]:
                continue
            x0, x1, y0, y1 = box[v]
            dx = x0 - px if px < x0 else (px - x1 if px > x1 else 0.0)
            dy = y0 - py if py < y0 else (py - y1 if py > y1 else 0.0)
            if (dx if dx > dy else dy) * keep > best_d:
                continue
            if split[v] is None:
                for j in bucket[v]:
                    d = hypot(xs[j] - px, ys[j] - py)
                    i = waiting[j][-1]
                    if d < best_d or (d == best_d and i < best_i):
                        best_d, best_i, best_j = d, i, j
                continue
            on_x, median, low, high = split[v]
            if (px if on_x else py) < median:
                todo += (high, low)
            else:
                todo += (low, high)
        order.append(waiting[best_j].pop())
        if not waiting[best_j]:
            v = leaf_of[best_j]
            bucket[v].remove(best_j)
            while v >= 0:
                live[v] -= 1
                v = parent[v]
        px, py = exits[best_i]
    return tuple(order)


def order_strokes(drawing: VectorDrawing,
                  origin: Point = (0.0, 0.0)) -> tuple[int, ...]:
    """Greedy nearest-start ordering of strokes, measured from origin.

    Each step goes to the stroke whose start is nearest the head; ties go
    to the lowest stroke index. A closed stroke ends where it starts. The
    search runs in a k-d tree (see _nearest_start_tour), so it takes
    near-linear time on scattered and on crowded starts alike. If the
    greedy tour travels farther than the drawing's own order (greedy is
    only a heuristic), the original order is returned instead, so the
    result never loses to the identity.
    """
    n = len(drawing.strokes)
    entries = [stroke[0] for stroke in drawing.strokes]
    exits = [stroke[0] if closed else stroke[-1]
             for stroke, closed in zip(drawing.strokes, drawing.closed_flags)]
    greedy = _nearest_start_tour(entries, exits, origin)
    identity = tuple(range(n))
    if _travel_length(entries, exits, greedy, origin) <= _travel_length(
            entries, exits, identity, origin):
        return greedy
    return identity


# --------------------------------------------------------------------------
# planning and estimating


def plan(drawing: VectorDrawing, settings: MachineSettings,
         environment: Environment | None = None, *,
         reorder: bool = True) -> Toolpath:
    """Turn a drawing into a toolpath at the given machine settings.

    Settings are validated against the machine limits first; hard
    violations raise PlanError (quality warnings do not stop planning, the
    simulator flags them per segment). Each stroke becomes Tap, Moves and
    a final Lift, with corners resolved by the environment's policy, the
    one simulate flags corners by.
    """
    env = environment if environment is not None else DEFAULT_ENVIRONMENT
    verdict = validate_settings(settings, env.limits, env.speed_calibration,
                                env.pressure_calibration)
    if verdict.violations:
        raise PlanError("; ".join(verdict.violations),
                        violations=tuple(verdict.violations))
    speed = verdict.speed_mm_s
    pressure_g = verdict.force_g
    force_n = grams_to_newtons(pressure_g)

    order = order_strokes(drawing) if reorder else tuple(
        range(len(drawing.strokes)))
    actions: list[Action] = []
    for idx in order:
        verts = list(drawing.strokes[idx])
        closed = drawing.closed_flags[idx]
        for points, factors in apply_corner_policy(
                verts, closed, env.policy, env.chord_tolerance_mm):
            # every point is a tuple of two floats, so a Tap needs no
            # check and a Move only the check of its speed
            actions.append(trusted(Tap, {"at": points[0], "force_n": force_n}))
            for to, factor in zip(points[1:], factors):
                move_speed = speed * factor
                if move_speed <= 0:
                    raise DomainError("move speed must be > 0")
                actions.append(trusted(Move, {"to": to,
                                              "speed_mm_s": move_speed,
                                              "pressure_g": pressure_g}))
            actions.append(LIFT)
    # each action was built here, so the Toolpath needs no check
    return trusted(Toolpath, {"actions": tuple(actions),
                              "drawing_id": drawing.drawing_id,
                              "policy": env.policy.describe()})


class PlanEstimate(Record):
    print_time_s: float
    ink_volume_mm3: float


def _walk(toolpath: Toolpath, env: Environment):
    """Run a toolpath through the head state machine, once.

    Time is segment length over commanded speed plus one dwell per Tap and
    per Lift. Volume integrates the gap flux of each segment over its
    duration; segment_physics runs once per (speed, pressure) pair.
    Returns (time_s, volume_mm3, drawn, taps, lifts, final_state), where
    drawn lists (start, move, physics, run, length) for each Move of
    nonzero length and run counts the taps before it, from 0. A total
    that is not finite (a segment too long for a float) is a PlanError.
    """
    state = HeadState.SEALED
    pos: Point | None = None
    time_s = 0.0
    volume_m3 = 0.0
    taps = lifts = 0
    cache = {}
    drawn = []
    for action in toolpath.actions:
        state = step_head(state, action)
        if isinstance(action, Tap):
            pos = action.at
            time_s += env.dwell_s
            taps += 1
        elif isinstance(action, Move):
            length = math.hypot(action.to[0] - pos[0], action.to[1] - pos[1])
            dt = length / action.speed_mm_s
            key = (action.speed_mm_s, action.pressure_g)
            if key not in cache:
                cache[key] = segment_physics(action.speed_mm_s,
                                             action.pressure_g, env)
            volume_m3 += cache[key].flux_m3_s * dt
            time_s += dt
            if length > 0.0:
                drawn.append((pos, action, cache[key], taps - 1, length))
            pos = action.to
        else:
            time_s += env.dwell_s
            lifts += 1
    volume_mm3 = volume_m3 * 1e9
    if not (math.isfinite(time_s) and math.isfinite(volume_mm3)):
        raise PlanError(f"print time {time_s:g} s or ink volume "
                        f"{volume_mm3:g} mm^3 is not finite")
    return time_s, volume_mm3, drawn, taps, lifts, state


def estimate(toolpath: Toolpath,
             environment: Environment | None = None) -> PlanEstimate:
    """Print time and deposited ink volume for a toolpath.

    The same walk as simulate(), so the totals are the same floats and an
    action sequence the head cannot carry out raises IllegalActionError.
    """
    env = environment if environment is not None else DEFAULT_ENVIRONMENT
    time_s, volume_mm3, *_ = _walk(toolpath, env)
    return PlanEstimate(print_time_s=time_s, ink_volume_mm3=volume_mm3)
