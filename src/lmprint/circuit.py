"""Circuit view of deposited traces: nets, connectivity, resistance, DRC.

Printed liquid-metal segments that touch share a potential, so nets are
connected components of the traces under a width-aware touch predicate:
two segments touch when their stroked outlines (centreline capsules of
radius width/2) approach within a tolerance. Resistance estimates treat
each segment as a uniform conductor of its simulated cross-section.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from functools import cached_property
from typing import NamedTuple

from .core import Record, trusted
from .drawing import _point_segment_distance
from .errors import CircuitError, ConfigError, UnknownPadError

Point = tuple[float, float]


def _closest_points(p1: Point, p2: Point, q1: Point, q2: Point):
    """Closest points between segments p1p2 and q1q2, with their distance.

    Clamped-parametric method; returns (distance, point_on_p, point_on_q).
    Of five (s, t) candidates the first nearest wins. Each clamp to [0, 1]
    gives what min(1.0, max(0.0, x)) gives, NaN included.
    """
    x0, y0 = p1
    u0, v0 = q1
    px, py = p2[0] - x0, p2[1] - y0
    qx, qy = q2[0] - u0, q2[1] - v0
    wx, wy = x0 - u0, y0 - v0
    a = px * px + py * py
    b = px * qx + py * qy
    c = qx * qx + qy * qy
    d = px * wx + py * wy
    e = qx * wx + qy * wy
    den = a * c - b * b
    best = -1.0                     # below any squared distance: none yet
    if den > 1e-14 * max(a, c, 1.0):
        s = (b * e - c * d) / den
        t = (a * e - b * d) / den
        bs = (s if s < 1.0 else 1.0) if s > 0.0 else 0.0
        bt = (t if t < 1.0 else 1.0) if t > 0.0 else 0.0
        gx = x0 + bs * px - (u0 + bt * qx)
        gy = y0 + bs * py - (v0 + bt * qy)
        best = gx * gx + gy * gy
    # end-clamped cases; also cover degenerate (point-like) segments
    for t in (0.0, 1.0):
        s = (-d + b * t) / a if a > 0 else 0.0
        s = (s if s < 1.0 else 1.0) if s > 0.0 else 0.0
        gx = x0 + s * px - (u0 + t * qx)
        gy = y0 + s * py - (v0 + t * qy)
        d2 = gx * gx + gy * gy
        if best < 0.0 or d2 < best:
            best, bs, bt = d2, s, t
    for s in (0.0, 1.0):
        t = (e + b * s) / c if c > 0 else 0.0
        t = (t if t < 1.0 else 1.0) if t > 0.0 else 0.0
        gx = x0 + s * px - (u0 + t * qx)
        gy = y0 + s * py - (v0 + t * qy)
        d2 = gx * gx + gy * gy
        if d2 < best:
            best, bs, bt = d2, s, t
    return (math.sqrt(best), (x0 + bs * px, y0 + bs * py),
            (u0 + bt * qx, v0 + bt * qy))


def outline_clearance(t1, t2) -> float:
    """Gap between the stroked outlines of two trace segments, in mm.

    Negative values mean the outlines overlap.
    """
    d = _closest_points(t1.start, t1.end, t2.start, t2.end)[0]
    return d - 0.5e3 * (t1.width_m + t2.width_m)


def _capsules(traces) -> list[tuple[Point, Point, float]]:
    """(start, end, half width in mm) of each trace's stroked outline."""
    capsules = [(t.start, t.end, 0.5e3 * t.width_m) for t in traces]
    for start, end, half_width in capsules:
        if not (math.isfinite(start[0]) and math.isfinite(start[1])
                and math.isfinite(end[0]) and math.isfinite(end[1])
                and 0.0 <= half_width < math.inf):
            raise CircuitError("trace geometry must be finite, width >= 0")
    return capsules


# a capsule goes to the least level whose bands are at least 1/_SLACK of
# its grown height
_SLACK = 4
# the candidate pairs one broad phase may find. Traces stacked on one
# another make them grow as the square of the traces: a 1999-trace zigzag
# in a 7 x 5 mm box finds 704 751, and its check takes 5.6 s and 290 MB.
# Past the budget a check fails in about a second where it would run for
# minutes and grow its memory to match
MAX_CANDIDATE_PAIRS = 1 << 20


def _candidate_pairs(capsules, reach: float,
                     points=()) -> list[tuple[int, int]]:
    """Sorted pairs (i, j), i < j, whose outlines may come within reach.

    A multi-level row-band sweep: a hierarchical grid (Ericson, Real-Time
    Collision Detection, 2004, 7.2) of bands swept along x (Cohen et al.,
    I-COLLIDE, 1995). Outlines are grown by half the reach and a rounding
    margin; level L has bands h0 * 2**L high, h0 the least grown height
    of a capsule. A capsule enters each band of its level that it meets,
    and each occupied band of every coarser level as a guest, with the x
    interval of its centreline within the grown distance of the band,
    widened by that distance. A band pairs its entries whose intervals
    overlap unless both are guests. Two outlines within reach both reach
    the point midway across their gap, which lies in a band of the
    coarser capsule's level where both intervals hold its x. The caller
    decides each candidate with the exact distance. points are
    zero-width guests numbered after the capsules: they never set h0,
    and two points never pair. More than MAX_CANDIDATE_PAIRS pairs is a
    CircuitError, raised at most one entry's pairs past the budget.
    """
    n = len(capsules)
    if not capsules or n + len(points) < 2:
        return []
    items = list(capsules) + [(p, p, 0.0) for p in points]
    extent = max(max(abs(a[0]), abs(a[1]), abs(b[0]), abs(b[1]))
                 for a, b, _ in items)
    margin = 1e-9 * (extent + max(hw for _, _, hw in capsules) + 0.5 * reach)
    rows = []                       # (x0, y0, x1, y1, grow) with y0 <= y1
    for (x0, y0), (x1, y1), hw in items:
        if y0 > y1:
            x0, y0, x1, y1 = x1, y1, x0, y0
        rows.append((x0, y0, x1, y1, hw + 0.5 * reach + margin))
    heights = [y1 - y0 + 2.0 * grow for _, y0, _, y1, grow in rows[:n]]
    # zero only for bare points with no reach, where any height will do
    h0 = min(heights) or 1.0
    levels: dict[int, list[int]] = {}
    for i, height in enumerate(heights):
        level = 0
        while height > math.ldexp(_SLACK * h0, level):
            level += 1
        levels.setdefault(level, []).append(i)
    floor = math.floor
    pairs = set()
    add = pairs.add
    guests = list(range(n, len(items)))
    for level in sorted(levels):
        h = math.ldexp(h0, level)
        bands: dict[int, list] = {}
        # this level's capsules enter as i, guests as ~i
        for members, own in ((levels[level], True), (guests, False)):
            for i in members:
                x0, y0, x1, y1, grow = rows[i]
                first = floor((y0 - grow) / h)
                last = floor((y1 + grow) / h)
                for k in range(first, last + 1):
                    band = bands.get(k)
                    if band is None:
                        if not own:
                            continue
                        band = bands[k] = []
                    xa, xb = x0, x1
                    if first < last and y0 < y1:
                        # the centreline's x at the grown band's edges,
                        # clamped to the segment's ends
                        low = (k * h - grow - y0) / (y1 - y0)
                        high = low + (h + 2.0 * grow) / (y1 - y0)
                        if low > 0.0:
                            xa = x0 + (x1 - x0) * low if low < 1.0 else x1
                        if high < 1.0:
                            xb = x0 + (x1 - x0) * high if high > 0.0 else x0
                    if xa > xb:
                        xa, xb = xb, xa
                    band.append((xa - grow, xb + grow, i if own else ~i))
        for band in bands.values():
            band.sort()
            waiting = []        # guests that a later capsule may overlap
            for a, (lo, hi, i) in enumerate(band):
                if i < 0:
                    waiting.append(band[a])
                    continue
                if waiting:
                    waiting = [g for g in waiting if g[1] >= lo]
                    for g in waiting:
                        j = ~g[2]
                        add((j, i) if j < i else (i, j))
                for b in range(a + 1, len(band)):
                    lo_b, _, j = band[b]
                    if lo_b > hi:
                        break
                    if j < 0:
                        j = ~j
                    add((j, i) if j < i else (i, j))
                if len(pairs) > MAX_CANDIDATE_PAIRS:
                    raise CircuitError(
                        f"the contact pass found more than "
                        f"{MAX_CANDIDATE_PAIRS} candidate segment pairs, its "
                        f"budget; traces stacked on one another make that "
                        f"many")
        guests += levels[level]
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


class Net(Record):
    """Segments that share a potential, with the pads they touch.

    edges lists the touching member pairs (i, j), i < j, in sorted order:
    the net's touch graph. pad_segments records, per touching pad, which
    member segments it contacts — the entry points for resistance queries.
    """

    net_id: int
    segments: tuple[int, ...]
    edges: tuple[tuple[int, int], ...] = ()
    pad_segments: tuple[tuple[str, tuple[int, ...]], ...] = ()

    @property
    def pads(self) -> tuple[str, ...]:
        """The names of the pads that touch the net, in name order."""
        return tuple(pad for pad, _ in self.pad_segments)

    def segments_for_pad(self, name: str) -> tuple[int, ...]:
        for pad, segs in self.pad_segments:
            if pad == name:
                return segs
        raise UnknownPadError(f"pad {name!r} does not touch net {self.net_id}")


class CircuitNets(Record):
    """Trace segments, their nets and the contacts of the pass that found
    them: what every circuit query takes.

    Nets index into traces. contacts lists every segment pair whose
    outline gap is at most contact_reach, the larger of the touch
    tolerance and the clearance the nets were extracted for, in (i, j)
    order; drc reads them, and estimate_resistance finds a path's steps
    among them by bisection. pads lists the pads the nets were extracted
    with, (name, point) in name order.
    """

    nets: tuple[Net, ...]
    touch_tolerance: float
    traces: tuple  # of simulator.TraceSegment
    contact_reach: float = 0.0
    contacts: tuple[Contact, ...] = ()
    pads: tuple[tuple[str, Point], ...] = ()

    @cached_property
    def _by_pad(self) -> dict[str, Net]:
        lookup: dict[str, Net] = {}
        for net in self.nets:
            for name in net.pads:
                lookup.setdefault(name, net)
        return lookup

    @cached_property
    def _pad_points(self) -> dict[str, Point]:
        return dict(self.pads)

    def net_of_pad(self, name: str) -> Net:
        """The first net, in id order, that the pad touches."""
        try:
            return self._by_pad[name]
        except KeyError:
            raise UnknownPadError(f"pad {name!r} touches no trace") from None


def extract_nets(traces, touch_tolerance: float,
                 pads: dict[str, Point] | None = None, *,
                 clearance: float = 0.0) -> CircuitNets:
    """Partition trace segments into nets by outline touch.

    Net ids are assigned in order of each net's lowest member index, so
    the result is deterministic and invariant to how unions are
    discovered. A pad belongs to a net when it lies within the tolerance
    of a member segment's stroked outline. The contact pass is one broad
    phase and one exact distance per candidate pair; its contacts are kept
    up to the larger of the tolerance and clearance, so a drc at a minimum
    clearance up to that reads them.
    """
    if not 0.0 <= touch_tolerance < math.inf:
        raise ConfigError("touch tolerance must be finite and >= 0")
    if not 0.0 <= clearance < math.inf:
        raise ConfigError("clearance must be finite and >= 0")
    traces = tuple(traces)
    capsules = _capsules(traces)
    n = len(traces)
    pad_items = sorted((pads or {}).items())
    for name, (x, y) in pad_items:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise CircuitError(f"pad {name!r} must be finite")
    reach = max(touch_tolerance, clearance)
    widths = [t.width_m for t in traces]
    # union-find by path halving; the smaller root wins, so each root is
    # its component's least segment
    parent = list(range(n))
    contacts = []
    edges = []
    pad_hits: list[list[int]] = [[] for _ in pad_items]
    # pads join the broad phase as points, so each pad is tested only
    # against the segments near it
    for i, j in _candidate_pairs(capsules, reach, [p for _, p in pad_items]):
        start, end, half_width = capsules[i]
        if j >= n:
            if (_point_segment_distance(pad_items[j - n][1], start, end)
                    <= half_width + touch_tolerance):
                pad_hits[j - n].append(i)
            continue
        d, pi, pj = _closest_points(start, end, capsules[j][0],
                                    capsules[j][1])
        gap = d - 0.5e3 * (widths[i] + widths[j])
        if gap <= reach:
            contacts.append(Contact(i, j, gap, pi, pj))
            if gap <= touch_tolerance:
                edges.append((i, j))
                while parent[i] != i:
                    parent[i] = i = parent[parent[i]]
                while parent[j] != j:
                    parent[j] = j = parent[parent[j]]
                if i < j:               # i and j are the roots now
                    parent[j] = i
                elif j < i:
                    parent[i] = j
    # a parent is never above its child and shares its net, so one
    # ascending pass names every net by its least segment
    net_of = [0] * n
    members: list[list[int]] = []
    for k in range(n):
        if parent[k] == k:
            net_of[k] = len(members)
            members.append([k])
        else:
            net_of[k] = nid = net_of[parent[k]]
            members[nid].append(k)
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
            edges=tuple(net_edges[nid]), pad_segments=tuple(touching[nid]))
        for nid, seg_ids in enumerate(members))
    return CircuitNets(nets=nets, touch_tolerance=touch_tolerance,
                       traces=traces, contact_reach=reach,
                       contacts=tuple(contacts), pads=tuple(pad_items))


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
    if not area > 0.0:
        raise CircuitError("segment in resistance path has no positive "
                           "cross-section")
    return resistivity * trace.length_mm * 1e-3 / area


def _off_ends(trace, point: Point) -> bool:
    """Whether point lies farther than the trace's half-width from both of
    its ends."""
    half_width = 0.5e3 * trace.width_m
    return (math.dist(point, trace.start) > half_width
            and math.dist(point, trace.end) > half_width)


def _pad_off_ends(nets: CircuitNets, trace, pad: str) -> bool:
    """Whether the pad lies off both ends of trace (_off_ends), or the nets
    do not hold its point, as a CircuitNets built without pads does."""
    point = nets._pad_points.get(pad)
    return point is None or _off_ends(trace, point)


def _cuts_a_segment(nets: CircuitNets, path: tuple[int, ...]) -> bool:
    """Whether the path enters or leaves a segment at a contact point off
    both of its ends, so the current runs through only part of a segment
    that the path charges in full."""
    traces, contacts = nets.traces, nets.contacts
    for a, b in zip(path, path[1:]):
        pair = (a, b) if a < b else (b, a)
        i, j, _, point_i, point_j = contacts[bisect_left(contacts, pair)]
        if _off_ends(traces[i], point_i) or _off_ends(traces[j], point_j):
            return True
    return False


def _path_to(link: dict[int, tuple], k: int) -> tuple[int, ...]:
    """The path that link's entries (cost, segment before, segments on
    the path) lead to k by; the segment before a start is -1."""
    path = []
    while k >= 0:
        path.append(k)
        k = link[k][1]
    return tuple(reversed(path))


def _sorts_first(link: dict[int, tuple], a: int, b: int, k: int) -> bool:
    """Whether the path to a, then k, sorts before the path to b, then k.

    Each side climbs from its end to the two paths' last common segment
    (-1 above the starts), keeping the segment below it; the first
    difference between the paths is there.
    """
    depth_a = link[a][2] if a >= 0 else 0
    depth_b = link[b][2] if b >= 0 else 0
    below_a = below_b = k
    for _ in range(depth_a - depth_b):
        below_a, a = a, link[a][1]
    for _ in range(depth_b - depth_a):
        below_b, b = b, link[b][1]
    while a != b:
        below_a, a = a, link[a][1]
        below_b, b = b, link[b][1]
    return below_a < below_b


def estimate_resistance(nets: CircuitNets, pad_a: str, pad_b: str,
                        resistivity: float) -> ResistanceEstimate:
    """Series resistance along the least-resistance path between two pads,
    on the net that pad_a touches (net_of_pad).

    Each member segment contributes rho * length / cross_section, lengths
    in metres. The estimate carries approximate=True where that model is
    known to be off: on a branched or looping net, whose parallel branches
    the single path ignores, and where the path enters or leaves a segment
    at a contact point farther than its half-width from both of its ends,
    which charges the whole segment for the part between. A pad counts as
    such a point on the path's first or last segment. A pad paired with
    itself is 0 ohm along the empty path.
    """
    if not 0.0 < resistivity < math.inf:
        raise CircuitError("resistivity must be finite and > 0")
    traces = nets.traces
    net = nets.net_of_pad(pad_a)
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

    # Dijkstra keeps each reached segment's least cost, the segment before
    # it (-1 at a start) and its path's length. Equal costs go to the
    # lexicographically smaller path, as if the heap held (cost, segment,
    # path) entries
    link = {i: (res[i], -1, 1) for i in starts}
    heap = [(cost, i) for i, (cost, _, _) in link.items()]
    heapq.heapify(heap)
    settled: set[int] = set()
    while heap:
        cost, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node in targets:
            path = _path_to(link, node)
            return trusted(ResistanceEstimate, {
                "ohms": cost, "path": path,
                "approximate": (
                    branched or _cuts_a_segment(nets, path)
                    or _pad_off_ends(nets, traces[path[0]], pad_a)
                    or _pad_off_ends(nets, traces[path[-1]], pad_b))})
        depth = link[node][2] + 1
        for nb in adjacency[node]:
            if nb in settled:
                continue
            total = cost + res[nb]
            old = link.get(nb)
            if old is None or total < old[0]:
                link[nb] = (total, node, depth)
                heapq.heappush(heap, (total, nb))
            elif total == old[0] and _sorts_first(link, node, old[1], nb):
                link[nb] = (total, node, depth)
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


def drc(nets: CircuitNets, min_width: float,
        min_clearance: float) -> DrcResult:
    """Design-rule check of the nets' traces: minimum width and inter-net
    clearance, in mm.

    Width violations flag individual segments narrower than min_width.
    Clearance violations flag pairs of segments on distinct nets whose
    stroked outlines come closer than min_clearance (short risk). The
    pairs are the contacts kept on nets, so min_clearance may not exceed
    their contact_reach. Violations are sorted by location for
    deterministic output.
    """
    if not (0.0 < min_width < math.inf and 0.0 < min_clearance < math.inf):
        raise ConfigError("DRC limits must be finite and > 0")
    if min_clearance > nets.contact_reach:
        raise ConfigError(
            f"clearance {min_clearance} mm is above the contact reach "
            f"{nets.contact_reach} mm of these nets; extract them with "
            f"extract_nets(..., clearance={min_clearance})")
    net_id = {k: net.net_id for net in nets.nets for k in net.segments}
    violations = []
    for t in nets.traces:
        width_mm = t.width_m * 1e3
        if width_mm < min_width:
            mid = ((t.start[0] + t.end[0]) / 2.0, (t.start[1] + t.end[1]) / 2.0)
            violations.append(DrcViolation(kind="min-width", location=mid,
                                           measured=width_mm,
                                           limit=min_width))
    for i, j, gap, pi, pj in nets.contacts:
        if gap < min_clearance and net_id[i] != net_id[j]:
            loc = ((pi[0] + pj[0]) / 2.0, (pi[1] + pj[1]) / 2.0)
            violations.append(DrcViolation(kind="clearance-short-risk",
                                           location=loc, measured=gap,
                                           limit=min_clearance))
    violations.sort(key=lambda v: (v.location[0], v.location[1], v.kind,
                                   v.measured))
    return DrcResult(violations=tuple(violations))
