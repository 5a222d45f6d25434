"""Circuit view of deposited traces: nets, connectivity, resistance, DRC.

Printed liquid-metal segments that touch share a potential, so nets are
connected components of the traces under a width-aware touch predicate:
two segments touch when their stroked outlines (centreline capsules of
radius width/2) approach within a tolerance. Resistance estimates treat
each segment as a uniform conductor of its simulated cross-section.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from functools import cached_property
from typing import NamedTuple

from .core import Record
from .drawing import _point_segment_distance
from .errors import CircuitError, ConfigError, UnknownPadError

Point = tuple[float, float]


def _closest_points(p1: Point, p2: Point, q1: Point, q2: Point):
    """Closest points between segments p1p2 and q1q2, with their distance.

    Clamped-parametric method; returns (distance, point_on_p, point_on_q).
    """
    px, py = p2[0] - p1[0], p2[1] - p1[1]
    qx, qy = q2[0] - q1[0], q2[1] - q1[1]
    wx, wy = p1[0] - q1[0], p1[1] - q1[1]
    a = px * px + py * py
    b = px * qx + py * qy
    c = qx * qx + qy * qy
    d = px * wx + py * wy
    e = qx * wx + qy * wy
    den = a * c - b * b
    candidates = []
    if den > 1e-14 * max(a, c, 1.0):
        s = (b * e - c * d) / den
        t = (a * e - b * d) / den
        candidates.append((min(1.0, max(0.0, s)), min(1.0, max(0.0, t))))
    # end-clamped cases; also cover degenerate (point-like) segments
    for t in (0.0, 1.0):
        s = (-d + b * t) / a if a > 0 else 0.0
        candidates.append((min(1.0, max(0.0, s)), t))
    for s in (0.0, 1.0):
        t = (e + b * s) / c if c > 0 else 0.0
        candidates.append((s, min(1.0, max(0.0, t))))
    best = None
    for s, t in candidates:
        gx = p1[0] + s * px - (q1[0] + t * qx)
        gy = p1[1] + s * py - (q1[1] + t * qy)
        d2 = gx * gx + gy * gy
        if best is None or d2 < best[0]:
            best = (d2, (p1[0] + s * px, p1[1] + s * py),
                    (q1[0] + t * qx, q1[1] + t * qy))
    return math.sqrt(best[0]), best[1], best[2]


def _outline_gap(t1, t2) -> tuple[float, Point, Point]:
    """Outline gap of two trace segments in mm, with the closest points
    of their centrelines."""
    d, p1, p2 = _closest_points(t1.start, t1.end, t2.start, t2.end)
    return d - 0.5e3 * (t1.width_m + t2.width_m), p1, p2


def outline_clearance(t1, t2) -> float:
    """Gap between the stroked outlines of two trace segments, in mm.

    Negative values mean the outlines overlap.
    """
    return _outline_gap(t1, t2)[0]


def _capsules(traces) -> list[tuple[Point, Point, float]]:
    """(start, end, half width in mm) of each trace's stroked outline."""
    capsules = [(t.start, t.end, 0.5e3 * t.width_m) for t in traces]
    for start, end, half_width in capsules:
        if not (math.isfinite(start[0]) and math.isfinite(start[1])
                and math.isfinite(end[0]) and math.isfinite(end[1])
                and 0.0 <= half_width < math.inf):
            raise CircuitError("trace geometry must be finite, width >= 0")
    return capsules


def _cell_size(capsules, reach: float) -> float:
    """Grid cell of the broad phase: the largest half width plus half the
    reach, never below a quarter of the mean capsule length."""
    lengths = sum(math.hypot(b[0] - a[0], b[1] - a[1])
                  for a, b, _ in capsules)
    # zero only for bare points with no reach, where any cell will do
    return max(max(hw for _, _, hw in capsules) + 0.5 * reach,
               lengths / (4 * len(capsules))) or 1.0


def _candidate_pairs(capsules, reach: float,
                     points=()) -> list[tuple[int, int]]:
    """Sorted pairs (i, j), i < j, whose outlines may come within reach.

    Uniform-grid broad phase (Ericson, Real-Time Collision Detection,
    2004, ch. 7). Each capsule is entered row by row. Its outline is
    grown by half the reach and a rounding margin; in every row of cells
    the grown outline meets, the part of the centreline within that
    distance of the row spans an x interval, and the capsule is entered in
    the cells of that interval widened by the same distance. Two outlines
    within reach of each other both reach a point midway across their
    gap, so they share its cell and the pair is a candidate; the caller
    decides each candidate with the exact distance.

    The cell is the largest half width plus half the reach, so a grown
    row band is about three cells high at most. It is never below a
    quarter of the mean capsule length, so the mean capsule crosses a few
    cells a side at most when widths are tiny next to lengths.

    points join the grid as zero-width capsules numbered after the
    capsules. They never set the cell: a pad is a point, and counting it
    as a zero-length capsule would shrink the cell and multiply the cells
    every long capsule is entered in. Pairs of two points are left out.
    """
    n = len(capsules)
    if not capsules or n + len(points) < 2:
        return []
    cell = _cell_size(capsules, reach)
    items = list(capsules) + [(p, p, 0.0) for p in points]
    extent = max(max(abs(a[0]), abs(a[1]), abs(b[0]), abs(b[1]))
                 for a, b, _ in items)
    margin = 1e-9 * (extent + cell)
    floor = math.floor
    grid: dict[tuple[int, int], list[int]] = {}
    for i, ((x0, y0), (x1, y1), hw) in enumerate(items):
        grow = hw + 0.5 * reach + margin
        if y0 > y1:
            x0, y0, x1, y1 = x1, y1, x0, y0
        dx, dy = x1 - x0, y1 - y0
        for cy in range(floor((y0 - grow) / cell),
                        floor((y1 + grow) / cell) + 1):
            if dy > 0.0:
                # the centreline's x at the grown band's edges, clamped
                # to the segment's ends
                low = cy * cell - grow - y0
                xa = x0 + dx * min(1.0, max(0.0, low / dy))
                xb = x0 + dx * min(1.0, max(0.0, (low + cell + 2.0 * grow)
                                            / dy))
            else:
                xa, xb = x0, x1
            for cx in range(floor((min(xa, xb) - grow) / cell),
                            floor((max(xa, xb) + grow) / cell) + 1):
                grid.setdefault((cx, cy), []).append(i)
    pairs = set()
    for members in grid.values():
        if len(members) < 2:
            continue
        # members were appended in increasing index order, so the
        # segments come first and the points after them
        split = bisect.bisect_left(members, n)
        segments = members[:split]
        pairs.update(itertools.combinations(segments, 2))
        pairs.update(itertools.product(segments, members[split:]))
    return sorted(pairs)


class Contact(NamedTuple):
    """Two trace segments whose stroked outlines come within a reach.

    gap is the outline gap in mm, negative where the outlines overlap;
    point_i and point_j are the closest points of the two centrelines.
    """

    i: int
    j: int
    gap: float
    point_i: Point
    point_j: Point


def _contacts(traces, reach: float, points=()):
    """The contact pass: one broad phase, one exact distance per pair.

    Returns the contacts (i, j), i < j, in sorted order, of every segment
    pair whose outline gap is at most reach, and the candidate pairs
    (segment, point index) of the points, which the caller decides.
    """
    capsules = _capsules(traces)
    n = len(capsules)
    contacts = []
    near_points = []
    for i, j in _candidate_pairs(capsules, reach, points):
        if j >= n:
            near_points.append((i, j - n))
            continue
        gap, pi, pj = _outline_gap(traces[i], traces[j])
        if gap <= reach:
            contacts.append(Contact(i, j, gap, pi, pj))
    return contacts, near_points


class Net(Record):
    """Segments that share a potential, with the pads they touch.

    edges lists the touching member pairs (i, j), i < j, in sorted order:
    the net's touch graph. pad_segments records, per touching pad, which
    member segments it contacts — the entry points for resistance queries.
    """

    net_id: int
    segments: tuple[int, ...]
    pads: tuple[str, ...] = ()
    edges: tuple[tuple[int, int], ...] = ()
    pad_segments: tuple[tuple[str, tuple[int, ...]], ...] = ()

    def segments_for_pad(self, name: str) -> tuple[int, ...]:
        for pad, segs in self.pad_segments:
            if pad == name:
                return segs
        raise UnknownPadError(f"pad {name!r} does not touch net {self.net_id}")


class CircuitNets(Record):
    """Nets, and the contacts of the pass that found them.

    contacts lists every segment pair whose outline gap is at most
    contact_reach, the larger of the touch tolerance and the clearance
    the nets were extracted for; drc reads them instead of a second pass
    when its traces are the ones kept here. traces is not a field: it
    takes no part in equality, hash or repr, only extract_nets sets it,
    and a copy from core.replace has none, so drc finds its contacts anew.
    """

    nets: tuple[Net, ...]
    touch_tolerance: float
    contact_reach: float = 0.0
    contacts: tuple[Contact, ...] = ()
    traces = None  # the traces the contacts were found on, if known

    @cached_property
    def _by_segment(self) -> dict[int, Net]:
        lookup: dict[int, Net] = {}
        for net in self.nets:
            for k in net.segments:
                lookup.setdefault(k, net)
        return lookup

    @cached_property
    def _by_pad(self) -> dict[str, Net]:
        lookup: dict[str, Net] = {}
        for net in self.nets:
            for name in net.pads:
                lookup.setdefault(name, net)
        return lookup

    def net_of_segment(self, index: int) -> Net:
        try:
            return self._by_segment[index]
        except KeyError:
            raise CircuitError(f"segment {index} belongs to no net") from None

    def net_of_pad(self, name: str) -> Net:
        """The first net, in id order, that the pad touches."""
        try:
            return self._by_pad[name]
        except KeyError:
            raise UnknownPadError(f"pad {name!r} touches no trace") from None


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def extract_nets(traces, touch_tolerance: float,
                 pads: dict[str, Point] | None = None, *,
                 clearance: float = 0.0) -> CircuitNets:
    """Partition trace segments into nets by outline touch.

    Net ids are assigned in order of each net's lowest member index, so
    the result is deterministic and invariant to how unions are
    discovered. A pad belongs to a net when it lies within the tolerance
    of a member segment's stroked outline. The contacts are kept up to
    the larger of the tolerance and clearance, so a drc at a minimum
    clearance up to that needs no pass of its own.
    """
    if not 0.0 <= touch_tolerance < math.inf:
        raise ConfigError("touch tolerance must be finite and >= 0")
    if not 0.0 <= clearance < math.inf:
        raise ConfigError("clearance must be finite and >= 0")
    traces = tuple(traces)
    n = len(traces)
    pad_items = sorted((pads or {}).items())
    reach = max(touch_tolerance, clearance)
    # pads join the broad phase as points, so each pad is tested only
    # against the segments near it
    contacts, near_pads = _contacts(traces, reach,
                                    [p for _, p in pad_items])
    uf = _UnionFind(n)
    edges = []
    for c in contacts:
        if c.gap <= touch_tolerance:
            uf.union(c.i, c.j)
            edges.append((c.i, c.j))
    pad_hits: list[list[int]] = [[] for _ in pad_items]
    for i, k in near_pads:
        if (_point_segment_distance(pad_items[k][1], traces[i].start,
                                    traces[i].end)
                <= 0.5e3 * traces[i].width_m + touch_tolerance):
            pad_hits[k].append(i)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)
    members = sorted(groups.values(), key=lambda g: g[0])
    net_of = [0] * n
    for nid, seg_ids in enumerate(members):
        for k in seg_ids:
            net_of[k] = nid
    net_edges: list[list[tuple[int, int]]] = [[] for _ in members]
    for i, j in edges:
        net_edges[net_of[i]].append((i, j))
    touching: list[list[tuple[str, tuple[int, ...]]]] = [[] for _ in members]
    for (name, _), hits in zip(pad_items, pad_hits):
        by_net: dict[int, list[int]] = {}
        for k in hits:
            by_net.setdefault(net_of[k], []).append(k)
        for nid, ks in by_net.items():
            touching[nid].append((name, tuple(ks)))
    nets = tuple(
        Net(net_id=nid, segments=tuple(seg_ids),
            pads=tuple(name for name, _ in touching[nid]),
            edges=tuple(net_edges[nid]), pad_segments=tuple(touching[nid]))
        for nid, seg_ids in enumerate(members))
    result = CircuitNets(nets=nets, touch_tolerance=touch_tolerance,
                         contact_reach=reach, contacts=tuple(contacts))
    object.__setattr__(result, "traces", traces)
    return result


def check_connectivity(nets: CircuitNets,
                       pad_pairs) -> tuple[tuple[str, str, bool], ...]:
    """For each (pad_a, pad_b) pair, whether both pads share one net."""
    results = []
    for a, b in pad_pairs:
        net_a = nets.net_of_pad(a)
        net_b = nets.net_of_pad(b)
        results.append((a, b, net_a.net_id == net_b.net_id))
    return tuple(results)


class ResistanceEstimate(Record):
    ohms: float
    path: tuple[int, ...]
    approximate: bool


def _segment_resistance(trace, resistivity: float) -> float:
    area = trace.cross_section_m2
    if area <= 0.0:
        raise CircuitError("zero-area segment in resistance path")
    return resistivity * trace.length_mm * 1e-3 / area


def estimate_resistance(net: Net, pad_a: str, pad_b: str,
                        resistivity: float, traces) -> ResistanceEstimate:
    """Series resistance along the least-resistance path between two pads.

    Each member segment contributes rho * length / cross_section, lengths
    in metres. On a branched or looping net the single-path model ignores
    parallel branches, so the estimate carries approximate=True there.
    A pad paired with itself is 0 ohm along the empty path.
    """
    if not 0.0 < resistivity < math.inf:
        raise CircuitError("resistivity must be finite and > 0")
    traces = tuple(traces)
    starts = net.segments_for_pad(pad_a)
    if pad_a == pad_b:
        return ResistanceEstimate(ohms=0.0, path=(), approximate=False)
    targets = set(net.segments_for_pad(pad_b))
    members = net.segments
    res = {i: _segment_resistance(traces[i], resistivity) for i in members}
    adjacency: dict[int, list[int]] = {i: [] for i in members}
    for i, j in net.edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    branched = (len(net.edges) != len(members) - 1 or
                any(len(v) > 2 for v in adjacency.values()))

    heap = [(res[i], i, (i,)) for i in sorted(starts)]
    heapq.heapify(heap)
    settled: set[int] = set()
    while heap:
        cost, node, path = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node in targets:
            return ResistanceEstimate(ohms=cost, path=path,
                                      approximate=branched)
        for nb in sorted(adjacency[node]):
            if nb not in settled:
                heapq.heappush(heap, (cost + res[nb], nb, path + (nb,)))
    raise CircuitError(
        f"pads {pad_a!r} and {pad_b!r} are not connected within net "
        f"{net.net_id}")


class DrcViolation(Record):
    kind: str                 # "min-width" or "clearance-short-risk"
    location: Point           # mm
    measured: float
    limit: float


class DrcResult(Record):
    violations: tuple[DrcViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def drc(traces, min_width: float, min_clearance: float,
        nets: CircuitNets) -> DrcResult:
    """Design-rule check: minimum width and inter-net clearance, in mm.

    Width violations flag individual segments narrower than min_width.
    Clearance violations flag pairs of segments on distinct nets whose
    stroked outlines come closer than min_clearance (short risk); nets
    must hold every segment, or CircuitError is raised. The pairs come
    from the contacts kept on nets when they were extracted from these
    traces at a reach of at least min_clearance, else from a contact pass
    of drc's own. Violations are sorted by location for deterministic
    output.
    """
    if not (0.0 < min_width < math.inf and 0.0 < min_clearance < math.inf):
        raise ConfigError("DRC limits must be finite and > 0")
    traces = tuple(traces)
    net_ids = [nets.net_of_segment(k).net_id for k in range(len(traces))]
    violations = []
    for k, t in enumerate(traces):
        width_mm = t.width_m * 1e3
        if width_mm < min_width:
            mid = ((t.start[0] + t.end[0]) / 2.0, (t.start[1] + t.end[1]) / 2.0)
            violations.append(DrcViolation(kind="min-width", location=mid,
                                           measured=width_mm,
                                           limit=min_width))
    if nets.contact_reach >= min_clearance and nets.traces == traces:
        contacts = nets.contacts
    else:
        contacts, _ = _contacts(traces, min_clearance)
    for i, j, gap, pi, pj in contacts:
        if gap < min_clearance and net_ids[i] != net_ids[j]:
            loc = ((pi[0] + pj[0]) / 2.0, (pi[1] + pj[1]) / 2.0)
            violations.append(DrcViolation(kind="clearance-short-risk",
                                           location=loc, measured=gap,
                                           limit=min_clearance))
    violations.sort(key=lambda v: (v.location[0], v.location[1], v.kind,
                                   v.measured))
    return DrcResult(violations=tuple(violations))
