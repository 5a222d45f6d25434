"""Net extraction, connectivity, resistance estimates and design rules."""

import heapq
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.ndimage
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import sample
from lmprint import MachineSettings, extract_nets, plan, rasterize, simulate
from lmprint import circuit
from lmprint.circuit import CircuitNets, Contact, DrcResult, DrcViolation, \
    Net, ResistanceEstimate, _candidate_pairs, _capsules, _closest_points, \
    _point_segment_distance, _segment_resistance, check_connectivity, \
    drc, estimate_resistance, outline_clearance
from lmprint.cli import main
from lmprint.core import replace
from lmprint.errors import CircuitError, ConfigError, DomainError, \
    UnknownPadError
from lmprint.simulator import TraceSegment

EIGHT_CONNECTED = np.ones((3, 3), dtype=int)
ROOT = Path(__file__).resolve().parents[1]


def _trace(start, end, width_mm=0.2, flux=1e-12, speed=40.0):
    return TraceSegment(
        start=start, end=end, width_m=width_mm * 1e-3, flux_m3_s=flux,
        creep=0.0, contact_angle_deg=120.0, speed_mm_s=speed,
        pressure_g=94.0, flags=())


def _flood_count(traces, scale):
    img = rasterize(traces, scale)
    _, count = scipy.ndimage.label(img.cells, structure=EIGHT_CONNECTED)
    return count


# --- all-pairs oracles: the obvious quadratic versions of the fast paths


def _closest_points_oracle(p1, p2, q1, q2):
    """Closest points between segments p1p2 and q1q2, with their distance.

    Clamped-parametric method; returns (distance, point_on_p, point_on_q).
    circuit._closest_points as it stood before it was written without its
    candidate list, kept verbatim as the oracle of that lean version.
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


def _oracle_gap(t1, t2):
    d, pi, pj = _closest_points_oracle(t1.start, t1.end, t2.start, t2.end)
    return d - 0.5e3 * (t1.width_m + t2.width_m), pi, pj


def segments_touch(t1, t2, tolerance: float) -> bool:
    return _oracle_gap(t1, t2)[0] <= tolerance


def _brute_nets(traces, touch_tolerance, pads=None,
                clearance=0.0) -> CircuitNets:
    traces = tuple(traces)
    neighbours = [[] for _ in traces]
    edges = []
    contacts = []
    reach = max(touch_tolerance, clearance)
    for i in range(len(traces)):
        for j in range(i + 1, len(traces)):
            if segments_touch(traces[i], traces[j], touch_tolerance):
                neighbours[i].append(j)
                neighbours[j].append(i)
                edges.append((i, j))
            gap, pi, pj = _oracle_gap(traces[i], traces[j])
            if gap <= reach:
                contacts.append(Contact(i, j, gap, pi, pj))
    # the components, by breadth-first search from each unseen segment
    seen = set()
    members = []
    for first in range(len(traces)):
        if first in seen:
            continue
        seen.add(first)
        component = [first]
        for k in component:
            for other in neighbours[k]:
                if other not in seen:
                    seen.add(other)
                    component.append(other)
        members.append(sorted(component))
    pad_items = sorted((pads or {}).items())
    nets = []
    for nid, seg_ids in enumerate(members):
        touching = []
        for name, point in pad_items:
            hit = tuple(
                k for k in seg_ids
                if _point_segment_distance(point, traces[k].start,
                                           traces[k].end)
                <= 0.5e3 * traces[k].width_m + touch_tolerance)
            if hit:
                touching.append((name, hit))
        nets.append(Net(net_id=nid, segments=tuple(seg_ids),
                        edges=tuple(e for e in edges if e[0] in seg_ids),
                        pad_segments=tuple(touching)))
    return CircuitNets(nets=tuple(nets), touch_tolerance=touch_tolerance,
                       traces=traces, contact_reach=reach,
                       contacts=tuple(contacts), pads=tuple(pad_items))


def _brute_drc(nets, min_width, min_clearance) -> DrcResult:
    traces = nets.traces
    net_of = {k: net.net_id for net in nets.nets for k in net.segments}
    violations = []
    for t in traces:
        width_mm = t.width_m * 1e3
        if width_mm < min_width:
            mid = ((t.start[0] + t.end[0]) / 2.0, (t.start[1] + t.end[1]) / 2.0)
            violations.append(DrcViolation(kind="min-width", location=mid,
                                           measured=width_mm,
                                           limit=min_width))
    for i in range(len(traces)):
        for j in range(i + 1, len(traces)):
            if net_of.get(i) == net_of.get(j):
                continue
            gap, pi, pj = _oracle_gap(traces[i], traces[j])
            if gap < min_clearance:
                loc = ((pi[0] + pj[0]) / 2.0, (pi[1] + pj[1]) / 2.0)
                violations.append(DrcViolation(kind="clearance-short-risk",
                                               location=loc, measured=gap,
                                               limit=min_clearance))
    violations.sort(key=lambda v: (v.location[0], v.location[1], v.kind,
                                   v.measured))
    return DrcResult(violations=tuple(violations))


def _brute_resistance(net, pad_a, pad_b, resistivity, traces,
                      touch_tolerance, pads) -> ResistanceEstimate:
    starts = net.segments_for_pad(pad_a)
    if pad_a == pad_b:  # no trace lies between a pad and itself
        return ResistanceEstimate(ohms=0.0, path=(), approximate=False)
    targets = set(net.segments_for_pad(pad_b))
    members = net.segments
    res = {i: _segment_resistance(traces[i], resistivity) for i in members}
    adjacency: dict[int, list[int]] = {i: [] for i in members}
    edge_count = 0
    for x, i in enumerate(members):
        for j in members[x + 1:]:
            if segments_touch(traces[i], traces[j], touch_tolerance):
                adjacency[i].append(j)
                adjacency[j].append(i)
                edge_count += 1
    branched = (edge_count != len(members) - 1 or
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
            # a pad off both ends of its segment charges it in full too
            ends = ((traces[path[0]], pads[pad_a]),
                    (traces[path[-1]], pads[pad_b]))
            return ResistanceEstimate(
                ohms=cost, path=path,
                approximate=branched or _brute_cuts(traces, path) or any(
                    min(math.dist(p, t.start), math.dist(p, t.end))
                    > 0.5e3 * t.width_m for t, p in ends))
        for nb in sorted(adjacency[node]):
            if nb not in settled:
                heapq.heappush(heap, (cost + res[nb], nb, path + (nb,)))
    raise CircuitError("pads are not connected within the net")


def _brute_cuts(traces, path) -> bool:
    """Whether a step of the path enters or leaves a segment at a contact
    point farther than its half-width from both of its ends."""
    for a, b in zip(path, path[1:]):
        i, j = sorted((a, b))
        _, pi, pj = _oracle_gap(traces[i], traces[j])
        for k, point in ((i, pi), (j, pj)):
            t = traces[k]
            half = 0.5e3 * t.width_m
            if min(math.dist(point, t.start), math.dist(point, t.end)) > half:
                return True
    return False


def test_outline_clearance_subtracts_half_widths():
    a = _trace((0.0, 0.0), (10.0, 0.0), width_mm=0.2)
    b = _trace((0.0, 1.0), (10.0, 1.0), width_mm=0.4)
    assert outline_clearance(a, b) == pytest.approx(1.0 - 0.1 - 0.2)
    assert segments_touch(a, b, 0.7001)
    assert not segments_touch(a, b, 0.6999)


def test_outline_clearance_negative_for_overlap():
    a = _trace((0.0, 0.0), (10.0, 0.0))
    b = _trace((5.0, -5.0), (5.0, 5.0))
    assert outline_clearance(a, b) == pytest.approx(-0.2)


def test_crossing_traces_form_one_net():
    traces = [_trace((0.0, 0.0), (10.0, 0.0)),
              _trace((5.0, -5.0), (5.0, 5.0))]
    nets = extract_nets(traces, 0.0)
    assert len(nets.nets) == 1
    assert nets.nets[0].segments == (0, 1)


def test_distant_traces_form_two_nets():
    traces = [_trace((0.0, 0.0), (10.0, 0.0)),
              _trace((0.0, 5.0), (10.0, 5.0))]
    nets = extract_nets(traces, 0.0)
    assert len(nets.nets) == 2
    assert [n.segments for n in nets.nets] == [(0,), (1,)]


def test_touch_tolerance_bridges_small_gaps():
    traces = [_trace((0.0, 0.0), (10.0, 0.0)),
              _trace((10.25, 0.0), (20.0, 0.0))]  # 0.05 mm outline gap
    assert len(extract_nets(traces, 0.0).nets) == 2
    assert len(extract_nets(traces, 0.05).nets) == 1


def test_net_ids_use_lowest_member_index():
    traces = [_trace((0.0, 10.0), (10.0, 10.0)),   # isolated
              _trace((0.0, 0.0), (10.0, 0.0)),
              _trace((10.0, 0.0), (20.0, 0.0))]
    nets = extract_nets(traces, 0.0)
    assert [(n.net_id, n.segments) for n in nets.nets] == \
        [(0, (0,)), (1, (1, 2))]


def test_partition_is_permutation_invariant():
    rng = np.random.default_rng(99)
    base = []
    for _ in range(12):
        p = rng.uniform(0.0, 30.0, size=2)
        ang = rng.uniform(0.0, 2 * math.pi)
        q = p + 4.0 * np.array([math.cos(ang), math.sin(ang)])
        base.append(_trace(tuple(p), tuple(q)))
    ref = extract_nets(base, 0.1)
    ref_groups = {frozenset((base[i].start, base[i].end)
                            for i in net.segments)
                  for net in ref.nets}
    order = rng.permutation(len(base))
    shuffled = [base[i] for i in order]
    got = extract_nets(shuffled, 0.1)
    got_groups = {frozenset((shuffled[i].start, shuffled[i].end)
                            for i in net.segments)
                  for net in got.nets}
    assert got_groups == ref_groups


def test_pads_attach_to_their_nets():
    traces = [_trace((0.0, 0.0), (10.0, 0.0)),
              _trace((0.0, 5.0), (10.0, 5.0))]
    nets = extract_nets(traces, 0.0,
                        pads={"A": (0.0, 0.0), "B": (10.0, 5.0)})
    assert nets.net_of_pad("A").net_id == 0
    assert nets.net_of_pad("B").net_id == 1
    assert nets.net_of_pad("A").segments_for_pad("A") == (0,)
    with pytest.raises(UnknownPadError):
        nets.net_of_pad("A").segments_for_pad("B")


def test_pad_touching_two_nets_answers_lowest_net_id():
    traces = [_trace((0.0, 1.0), (10.0, 1.0)),
              _trace((0.0, 0.0), (10.0, 0.0))]
    nets = extract_nets(traces, 0.45, pads={"M": (5.0, 0.5)})
    assert [n.pads for n in nets.nets] == [("M",), ("M",)]
    assert nets.net_of_pad("M").net_id == 0


def test_floating_pad_is_unknown():
    traces = [_trace((0.0, 0.0), (10.0, 0.0))]
    nets = extract_nets(traces, 0.0, pads={"X": (50.0, 50.0)})
    assert nets.nets[0].pads == ()
    with pytest.raises(UnknownPadError):
        nets.net_of_pad("X")


def test_check_connectivity_pairs():
    traces = [_trace((0.0, 0.0), (10.0, 0.0)),
              _trace((10.0, 0.0), (10.0, 10.0)),
              _trace((0.0, 20.0), (10.0, 20.0))]
    nets = extract_nets(traces, 0.0, pads={
        "A": (0.0, 0.0), "B": (10.0, 10.0), "C": (0.0, 20.0)})
    got = check_connectivity(nets, [("A", "B"), ("A", "C"), ("B", "C")])
    assert got == (("A", "B", True), ("A", "C", False), ("B", "C", False))


def test_grid_antenna_is_one_net_matching_flood_fill():
    tp = plan(sample("grid-antenna"), MachineSettings(10.0, 30.0))
    result = simulate(tp)
    nets = extract_nets(result.traces, 0.05,
                        pads=sample("grid-antenna").pads)
    assert len(nets.nets) == 1
    assert _flood_count(result.traces, 0.05) == 1


def test_ic_sketch_has_seven_nets():
    drawing = sample("ic-sketch")
    tp = plan(drawing, MachineSettings(10.0, 30.0))
    result = simulate(tp)
    nets = extract_nets(result.traces, 0.05, pads=drawing.pads)
    assert len(nets.nets) == 7
    pairs = check_connectivity(nets, [("L1", "B1"), ("L1", "L2")])
    assert pairs[0][2] is True
    assert pairs[1][2] is False
    assert _flood_count(result.traces, 0.02) == 7


class TestResistance:
    def test_single_segment(self):
        # cross-section flux/speed = 0.04 m^3/s / 0.04 m/s = 1 m^2,
        # so one metre of trace at unit resistivity reads exactly 1 ohm
        traces = [_trace((0.0, 0.0), (1000.0, 0.0), flux=0.04, speed=40.0)]
        nets = extract_nets(traces, 0.0,
                            pads={"A": (0.0, 0.0), "B": (1000.0, 0.0)})
        est = estimate_resistance(nets, "A", "B", 1.0)
        assert est.ohms == pytest.approx(1.0, rel=1e-12)
        assert est.path == (0,)
        assert est.approximate is False

    def test_series_segments_add(self):
        traces = [_trace((0.0, 0.0), (1000.0, 0.0), flux=0.04),
                  _trace((1000.0, 0.0), (2000.0, 0.0), flux=0.04)]
        nets = extract_nets(traces, 0.0,
                            pads={"A": (0.0, 0.0), "B": (2000.0, 0.0)})
        est = estimate_resistance(nets, "A", "B", 1.0)
        assert est.ohms == pytest.approx(2.0, rel=1e-12)
        assert est.path == (0, 1)

    def test_linear_in_resistivity(self):
        traces = [_trace((0.0, 0.0), (60.0, 0.0))]
        nets = extract_nets(traces, 0.0,
                            pads={"A": (0.0, 0.0), "B": (60.0, 0.0)})
        r1 = estimate_resistance(nets, "A", "B", 1e-7).ohms
        r2 = estimate_resistance(nets, "A", "B", 3e-7).ohms
        assert r2 == pytest.approx(3.0 * r1, rel=1e-12)

    def test_branched_net_flags_approximate(self):
        traces = [_trace((0.0, 0.0), (10.0, 0.0)),
                  _trace((10.0, 0.0), (20.0, 0.0)),
                  _trace((10.0, 0.0), (10.0, 10.0))]  # spur off the middle
        nets = extract_nets(traces, 0.0,
                            pads={"A": (0.0, 0.0), "B": (20.0, 0.0)})
        est = estimate_resistance(nets, "A", "B", 1.0)
        assert est.approximate is True
        assert est.path == (0, 1)  # spur not part of the shortest path

    def test_bar_and_stubs_path_through_the_bar_is_approximate(self):
        # a 100 mm bar with stubs at x = 40 and 70 up to pads P and Q: the
        # current runs 30 mm of the bar, and the path charges all 100 mm
        traces = [_trace((0.0, 0.0), (100.0, 0.0)),
                  _trace((40.0, 0.0), (40.0, 10.0)),
                  _trace((70.0, 0.0), (70.0, 10.0))]
        nets = extract_nets(traces, 0.0,
                            pads={"P": (40.0, 10.0), "Q": (70.0, 10.0)})
        est = estimate_resistance(nets, "P", "Q", 2.9e-7)
        assert est.path == (1, 0, 2)
        assert est.approximate is True

    def test_bar_and_stubs_check_report_is_approximate(self, tmp_path):
        drawing = tmp_path / "bar.json"
        drawing.write_text(json.dumps({
            "version": 1, "units": "mm",
            "strokes": [{"points": [[0, 0], [100, 0]]},
                        {"points": [[40, 0], [40, 10]]},
                        {"points": [[70, 0], [70, 10]]}],
            "pads": {"P": [40, 10], "Q": [70, 10]}}))
        out = tmp_path / "check.json"
        assert main(["check", "--drawing", str(drawing), "--speed", "10",
                     "--pressure", "30", "--no-reorder", "--pairs", "P:Q",
                     "--resistivity", "2.9e-7", "--out", str(out)]) == 0
        (entry,) = json.loads(out.read_bytes())["checks"]["resistance"]
        assert entry["path"] == [1, 0, 2]
        assert entry["ohms"] == pytest.approx(11.314, abs=1e-3)
        assert entry["approximate"] is True

    def test_contacts_at_segment_ends_are_not_approximate(self):
        # a chain meeting end to end, and one end landing within a
        # half-width of the next segment's end, charges full lengths
        traces = [_trace((0.0, 0.0), (10.0, 0.0)),
                  _trace((10.0, 0.0), (10.0, 10.0)),
                  _trace((10.0, 10.05), (20.0, 10.05))]
        nets = extract_nets(traces, 0.0,
                            pads={"A": (0.0, 0.0), "B": (20.0, 10.05)})
        est = estimate_resistance(nets, "A", "B", 1.0)
        assert est.path == (0, 1, 2)
        assert est.approximate is False

    def test_pads_along_a_bar_are_approximate(self):
        # pads P and Q 30 mm apart on a 100 mm bar: the one-segment path
        # charges all 100 mm
        traces = [_trace((0.0, 0.0), (100.0, 0.0))]
        nets = extract_nets(traces, 0.0,
                            pads={"P": (40.0, 0.0), "Q": (70.0, 0.0)})
        est = estimate_resistance(nets, "P", "Q", 2.9e-7)
        assert est.path == (0,)
        assert est.approximate is True
        # one pad off the ends is enough, at either end of the path
        nets = extract_nets(traces, 0.0,
                            pads={"P": (0.0, 0.0), "Q": (70.0, 0.0)})
        assert estimate_resistance(nets, "P", "Q", 1.0).approximate is True
        assert estimate_resistance(nets, "Q", "P", 1.0).approximate is True
        # within a half-width of an end is at the end
        nets = extract_nets(traces, 0.0,
                            pads={"P": (0.09, 0.0), "Q": (100.0, 0.05)})
        assert estimate_resistance(nets, "P", "Q", 1.0).approximate is False
        # nets built without the pads' points cannot vouch for the ends
        unplaced = replace(nets, pads=())
        assert estimate_resistance(unplaced, "P", "Q", 1.0).approximate \
            is True

    def test_pads_along_a_bar_check_report_is_approximate(self, tmp_path):
        drawing = tmp_path / "bar.json"
        drawing.write_text(json.dumps({
            "version": 1, "units": "mm",
            "strokes": [{"points": [[0, 0], [100, 0]]}],
            "pads": {"P": [40, 0], "Q": [70, 0]}}))
        out = tmp_path / "check.json"
        assert main(["check", "--drawing", str(drawing), "--speed", "10",
                     "--pressure", "30", "--pairs", "P:Q",
                     "--resistivity", "2.9e-7", "--out", str(out)]) == 0
        (entry,) = json.loads(out.read_bytes())["checks"]["resistance"]
        assert entry["path"] == [0]
        assert entry["ohms"] == pytest.approx(9.428, abs=1e-3)
        assert entry["approximate"] is True

    def test_benchmark_bus_and_chain_pads_at_segment_ends_are_exact(
            self, tmp_path, monkeypatch):
        # the benchmark's check board: each bus line and the serpentine
        # chain carry their pads at segment ends, so their series sums are
        # exact; the mesh is branched
        import importlib.util
        path = ROOT / "perfbench" / "boards.py"
        spec = importlib.util.spec_from_file_location("boards", path)
        boards = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "boards", boards)  # for dataclasses
        spec.loader.exec_module(boards)
        board = boards.check_board(3, bus_lines=8, pinched=2, chain_legs=4,
                                   mesh_rows=3, mesh_cols=3)
        drawing = tmp_path / "board.json"
        drawing.write_text(json.dumps(board.drawing))
        out = tmp_path / "check.json"
        assert main(["check", "--drawing", str(drawing), "--speed", "10",
                     "--pressure", "30", "--pairs", board.facts.pairs_arg(),
                     "--resistivity", "2.94e-7", "--out", str(out)]) == 0
        flags = {tuple(e["pads"]): e["approximate"] for e in json.loads(
            out.read_bytes())["checks"]["resistance"]}
        assert set(board.facts.series_mm) == set(flags) - {("Ma", "Mb")}
        assert not any(flags[pair] for pair in board.facts.series_mm)
        assert flags["Ma", "Mb"] is True

    def test_shortest_path_matches_brute_force(self):
        # lattice of segments with unequal widths; enumerate all simple
        # paths over the touch graph as an oracle for the reported path
        rng = np.random.default_rng(20260826)
        pts = [(0.0, 0.0), (10.0, 0.0), (20.0, 0.0),
               (0.0, 10.0), (10.0, 10.0), (20.0, 10.0)]
        links = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]
        traces = [_trace(pts[i], pts[j],
                         flux=float(rng.uniform(0.01, 0.09)))
                  for i, j in links]
        nets = extract_nets(traces, 0.0,
                            pads={"A": (0.0, 0.0), "B": (20.0, 10.0)})
        net = nets.nets[0]
        est = estimate_resistance(nets, "A", "B", 1.0)
        assert est.approximate is True

        def cost(i):
            t = traces[i]
            return 1.0 * (t.length_mm * 1e-3) / (t.flux_m3_s / 0.04)

        touching = {i: [j for j in range(len(traces)) if j != i
                        and segments_touch(traces[i], traces[j], 0.0)]
                    for i in range(len(traces))}
        starts = net.segments_for_pad("A")
        ends = set(net.segments_for_pad("B"))
        best = math.inf
        stack = [(s, (s,), cost(s)) for s in starts]
        while stack:
            node, path, acc = stack.pop()
            if node in ends:
                best = min(best, acc)
                continue
            for nxt in touching[node]:
                if nxt not in path:
                    stack.append((nxt, path + (nxt,), acc + cost(nxt)))
        assert est.ohms == pytest.approx(best, rel=1e-9)

    def test_a_long_chain_is_the_series_sum(self):
        # 4000 segments end to end: the path is the chain, and its ohms
        # are the segments' resistances added in path order
        traces = [_trace((float(k), 0.0), (k + 1.0, 0.0))
                  for k in range(4000)]
        nets = extract_nets(traces, 0.0,
                            pads={"A": (0.0, 0.0), "B": (4000.0, 0.0)})
        est = estimate_resistance(nets, "A", "B", 2.9e-7)
        series = 0.0
        for t in traces:
            series += _segment_resistance(t, 2.9e-7)
        assert est == ResistanceEstimate(ohms=series, path=tuple(range(4000)),
                                         approximate=False)

    def test_a_pad_paired_with_itself_is_zero_ohm(self):
        traces = [_trace((0.0, 0.0), (10.0, 0.0)),
                  _trace((10.0, 0.0), (10.0, 10.0))]
        nets = extract_nets(traces, 0.0,
                            pads={"A": (0.0, 0.0), "B": (10.0, 10.0)})
        est = estimate_resistance(nets, "A", "A", 1e-7)
        assert est == ResistanceEstimate(ohms=0.0, path=(),
                                         approximate=False)

    def test_a_pad_paired_with_itself_must_touch_the_net(self):
        traces = [_trace((0.0, 0.0), (10.0, 0.0))]
        nets = extract_nets(traces, 0.0,
                            pads={"A": (0.0, 0.0), "X": (50.0, 50.0)})
        with pytest.raises(UnknownPadError):
            estimate_resistance(nets, "X", "X", 1.0)

    def test_check_reports_a_pad_paired_with_itself_as_zero_ohm(
            self, tmp_path):
        out = tmp_path / "check.json"
        assert main(["check", "--drawing", "samples/straight-line.json",
                     "--speed", "10", "--pressure", "30", "--pairs",
                     "A:B,A:A", "--resistivity", "1e-7",
                     "--out", str(out)]) == 0
        ab, aa = json.loads(out.read_bytes())["checks"]["resistance"]
        assert ab["ohms"] > 0.0 and ab["path"] == [0]
        assert aa == {"pads": ["A", "A"], "ohms": 0.0, "path": [],
                      "approximate": False}

    def test_zero_area_segment_rejected(self):
        traces = [_trace((0.0, 0.0), (10.0, 0.0), flux=0.0)]
        nets = extract_nets(traces, 0.0,
                            pads={"A": (0.0, 0.0), "B": (10.0, 0.0)})
        with pytest.raises(CircuitError):
            estimate_resistance(nets, "A", "B", 1.0)

    def test_a_segment_without_a_number_for_its_area_is_rejected(self):
        # a nan cross-section would make every cost comparison false, and
        # a speed of 0 m/s (5e-324 mm/s underflows to it) divided by zero
        # in estimate_resistance: such a trace cannot be built
        for flux, speed in [(math.nan, 40.0), (math.inf, 40.0),
                            (1e-12, 0.0), (1e-12, 5e-324)]:
            with pytest.raises(DomainError):
                _trace((0.0, 0.0), (10.0, 0.0), flux=flux, speed=speed)

    def test_pad_on_other_net_rejected(self):
        traces = [_trace((0.0, 0.0), (10.0, 0.0)),
                  _trace((0.0, 5.0), (10.0, 5.0))]
        nets = extract_nets(traces, 0.0,
                            pads={"A": (0.0, 0.0), "B": (10.0, 5.0)})
        with pytest.raises(UnknownPadError):
            estimate_resistance(nets, "A", "B", 1.0)


class TestDrc:
    def test_clean_layout_passes(self):
        traces = [_trace((0.0, 0.0), (10.0, 0.0), width_mm=0.2),
                  _trace((0.0, 5.0), (10.0, 5.0), width_mm=0.2)]
        nets = extract_nets(traces, 0.0, clearance=0.1)
        result = drc(nets, 0.1, 0.1)
        assert result.passed
        assert result.violations == ()

    def test_min_width_violation(self):
        traces = [_trace((0.0, 0.0), (10.0, 0.0), width_mm=0.08)]
        nets = extract_nets(traces, 0.0, clearance=0.1)
        result = drc(nets, 0.1, 0.1)
        assert not result.passed
        assert len(result.violations) == 1
        v = result.violations[0]
        assert v.kind == "min-width"
        assert v.measured == pytest.approx(0.08)
        assert v.limit == 0.1
        assert v.location == (5.0, 0.0)  # midpoint of the thin trace

    def test_clearance_violation_between_nets(self):
        traces = [_trace((0.0, 0.0), (10.0, 0.0), width_mm=0.2),
                  _trace((0.0, 0.25), (10.0, 0.25), width_mm=0.2)]
        nets = extract_nets(traces, 0.0, clearance=0.1)
        assert len(nets.nets) == 2
        result = drc(nets, 0.1, 0.1)
        assert len(result.violations) == 1
        v = result.violations[0]
        assert v.kind == "clearance-short-risk"
        assert v.measured == pytest.approx(0.05)

    def test_same_net_proximity_is_fine(self):
        traces = [_trace((0.0, 0.0), (10.0, 0.0)),
                  _trace((10.0, 0.0), (10.0, 0.25))]
        nets = extract_nets(traces, 0.0, clearance=0.5)
        assert len(nets.nets) == 1
        assert drc(nets, 0.1, 0.5).passed

    def test_violations_sorted_and_deterministic(self):
        traces = [_trace((20.0, 0.0), (30.0, 0.0), width_mm=0.05),
                  _trace((0.0, 0.0), (10.0, 0.0), width_mm=0.06),
                  _trace((0.0, 0.22), (10.0, 0.22), width_mm=0.06)]
        nets = extract_nets(traces, 0.0, clearance=0.2)
        result = drc(nets, 0.1, 0.2)
        keys = [(v.location[0], v.location[1], v.kind, v.measured)
                for v in result.violations]
        assert keys == sorted(keys)
        again = drc(extract_nets(list(reversed(traces)), 0.0, clearance=0.2),
                    0.1, 0.2)
        assert [(v.kind, v.measured) for v in again.violations] == \
            [(v.kind, v.measured) for v in result.violations]

    def test_clearance_above_the_kept_reach_is_rejected(self):
        # two parallel traces 0.05 mm apart: nets kept to a smaller reach
        # hold no contact to find the clearance risk in
        traces = [_trace((0.0, 0.0), (10.0, 0.0)),
                  _trace((0.0, 0.25), (10.0, 0.25))]
        for nets in (extract_nets(traces, 0.0),
                     extract_nets(traces, 0.02, clearance=0.05)):
            with pytest.raises(ConfigError,
                               match=r"extract_nets\(\.\.\., clearance="):
                drc(nets, 0.1, 0.1)
        nets = extract_nets(traces, 0.0, clearance=0.1)
        assert [v.kind for v in drc(nets, 0.1, 0.1).violations] == \
            ["clearance-short-risk"]


def test_random_layouts_match_flood_fill():
    """Net count from the touch graph equals the raster component count."""
    rng = np.random.default_rng(42)
    scale = 0.02
    accepted = 0
    attempts = 0
    while accepted < 50:
        attempts += 1
        assert attempts < 1000
        n = int(rng.integers(3, 9))
        traces = []
        for _ in range(n):
            p = rng.uniform(0.0, 16.0, size=2)
            ang = rng.uniform(0.0, 2 * math.pi)
            length = rng.uniform(2.0, 7.0)
            q = (float(p[0] + length * math.cos(ang)),
                 float(p[1] + length * math.sin(ang)))
            traces.append(_trace((float(p[0]), float(p[1])), q,
                                 width_mm=0.3))
        # skip layouts where graph and raster could disagree at pixel scale
        ambiguous = any(
            abs(outline_clearance(traces[i], traces[j])) < 2.0 * scale
            for i in range(n) for j in range(i + 1, n))
        if ambiguous:
            continue
        accepted += 1
        nets = extract_nets(traces, 0.0)
        assert len(nets.nets) == _flood_count(traces, scale)


# --- fast paths against the all-pairs oracles

WIDTHS_MM = (0.005, 0.05, 0.5)      # 100x apart
TOLERANCES_MM = (0.0, 0.02, 0.1, 0.3)
CLEARANCES_MM = (0.05, 0.1, 0.3)    # tolerance <, = and > clearance


def _lattice(x, y, cols, rows, width_mm):
    """A lattice of 1 mm cells, cols by rows, with its corner at (x, y):
    each cell side is a segment, so every cell side costs the same."""
    return ([_trace((x + c, y + r), (x + c + 1.0, y + r), width_mm=width_mm)
             for r in range(rows + 1) for c in range(cols)]
            + [_trace((x + c, y + r), (x + c, y + r + 1.0), width_mm=width_mm)
               for c in range(cols + 1) for r in range(rows)])


@st.composite
def _layouts(draw):
    """Traces, pads and limits with the cases a grid could get wrong.

    Zero-length and duplicate segments, long diagonals across many bands,
    slivers that rise a few ulps over their length, widths 100x apart,
    coordinates offset by 1e4 mm and parallel pairs, across or along the
    rows, whose outline gap is computed as exactly the tolerance or
    clearance. The tolerance and clearance are drawn apart, so either may
    be the larger. Chains continue from the last trace's end, so nets
    have branches and pads sit on multi-segment nets. Lattices of whole
    millimetre cells have many routes of exactly equal cost.
    """
    offset = draw(st.sampled_from((0.0, 1e4)))
    tolerance = draw(st.sampled_from(TOLERANCES_MM))
    clearance = draw(st.sampled_from(CLEARANCES_MM))
    coord = st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)
    traces = []
    kinds = ("segment", "chain", "point", "duplicate", "diagonal", "sliver",
             "gap", "lattice")
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1,
                              max_size=12)):
        w = draw(st.sampled_from(WIDTHS_MM))
        x, y = draw(coord) + offset, draw(coord) + offset
        if kind == "chain" and traces:
            x, y = traces[-1].end
        if kind == "duplicate" and traces:
            traces.append(draw(st.sampled_from(traces)))
        elif kind == "lattice":
            # on whole millimetres, so equal routes cost exactly the same;
            # shuffled, so the tie between them falls on any index order
            cells = _lattice(float(math.floor(x)), float(math.floor(y)),
                             draw(st.integers(1, 3)), draw(st.integers(1, 2)),
                             w)
            traces += draw(st.permutations(cells))
        elif kind == "point":
            traces.append(_trace((x, y), (x, y), width_mm=w))
        elif kind == "diagonal":
            ang = draw(st.floats(0.0, 2 * math.pi))
            length = draw(st.floats(20.0, 40.0))
            traces.append(_trace((x, y), (x + length * math.cos(ang),
                                          y + length * math.sin(ang)),
                                 width_mm=w))
        elif kind == "sliver":
            rise = draw(st.sampled_from((5e-324, 1e-300, 1e-15, 1e-9)))
            traces.append(_trace((x, y), (x + draw(coord), y + rise),
                                 width_mm=w))
        elif kind == "gap":
            w2 = draw(st.sampled_from(WIDTHS_MM))
            reach = draw(st.sampled_from((tolerance, clearance)))
            first = _trace((x, y), (x + draw(coord), y), width_mm=w)
            second = _trace((x, y), (x + draw(coord), y), width_mm=w2)
            rise = 0.5e3 * (first.width_m + second.width_m) + reach
            shift = draw(st.floats(-5.0, 5.0))
            pair = [first, _trace((x + shift, y + rise),
                                  (second.end[0] + shift, y + rise),
                                  width_mm=w2)]
            if draw(st.booleans()):
                # the same pair along a column: swap x and y
                pair = [replace(t, start=t.start[::-1], end=t.end[::-1])
                        for t in pair]
            traces += pair
        else:
            traces.append(_trace((x, y), (x + draw(st.floats(-5.0, 5.0)),
                                          y + draw(st.floats(-5.0, 5.0))),
                                 width_mm=w))
    pads = {}
    for k in range(draw(st.integers(0, 4))):
        t = draw(st.sampled_from(traces))
        where = draw(st.sampled_from(("start", "end", "beyond", "free")))
        if where == "start":
            pads[f"P{k}"] = t.start
        elif where == "end":
            pads[f"P{k}"] = t.end
        elif where == "beyond":
            # just at the reach of the outline past the segment's end
            pads[f"P{k}"] = (max(t.start[0], t.end[0]) + 0.5e3 * t.width_m
                             + tolerance, t.end[1])
        else:
            pads[f"P{k}"] = (draw(coord) + offset, draw(coord) + offset)
    return traces, pads, tolerance, clearance


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CircuitError as exc:
        return type(exc)


def _parallel(width_mm, rise):
    return [_trace((0.0, 0.0), (1.0, 0.0), width_mm=width_mm),
            _trace((0.0, rise), (1.0, rise), width_mm=width_mm)]


@settings(max_examples=300, deadline=None)
@given(_layouts())
# outline gaps computed as exactly the clearance (tolerance below it), the
# tolerance (above the clearance) and both at once
@example((_parallel(0.005, 0.055), {"P0": (0.0, 0.0)}, 0.0, 0.05))
@example((_parallel(0.05, 0.35), {"P0": (1.0, 0.35)}, 0.3, 0.1))
@example((_parallel(0.005, 0.055), {}, 0.05, 0.05))
# equal-cost routes between opposite corners and across the middle of a
# lattice, its segments in row and in reversed order
@example((_lattice(0.0, 0.0, 3, 3, 0.05),
          {"A": (0.0, 0.0), "B": (3.0, 3.0), "C": (1.0, 2.0)}, 0.0, 0.05))
@example((_lattice(0.0, 0.0, 3, 3, 0.05)[::-1],
          {"A": (0.0, 0.0), "B": (3.0, 3.0), "C": (1.0, 2.0)}, 0.0, 0.05))
def test_grid_paths_equal_all_pairs_oracles(layout):
    traces, pads, tolerance, clearance = layout
    # one contact pass serves nets and DRC, as in check
    nets = extract_nets(traces, tolerance, pads=pads, clearance=clearance)
    assert nets == _brute_nets(traces, tolerance, pads, clearance)
    expected = _brute_drc(nets, 0.1, clearance)
    assert drc(nets, 0.1, clearance) == expected
    # nets kept to the tolerance alone hold the contacts for a clearance
    # up to the tolerance only
    alone = extract_nets(traces, tolerance, pads=pads)
    assert alone == _brute_nets(traces, tolerance, pads)
    if clearance > tolerance:
        with pytest.raises(ConfigError):
            drc(alone, 0.1, clearance)
    else:
        assert drc(alone, 0.1, clearance) == expected
    for a in sorted(pads):
        for b in sorted(pads):
            net = _outcome(nets.net_of_pad, a)
            if not isinstance(net, Net):
                continue
            assert _outcome(estimate_resistance, nets, a, b, 1e-7) \
                == _outcome(_brute_resistance, net, a, b, 1e-7, traces,
                            tolerance, pads)


@settings(max_examples=1000, deadline=None)
@given(w_a=st.sampled_from(WIDTHS_MM), w_b=st.sampled_from(WIDTHS_MM),
       reach=st.sampled_from(TOLERANCES_MM), x=st.floats(0.0, 10.0),
       y=st.floats(0.0, 10.0), theta=st.floats(0.0, 2 * math.pi),
       length=st.floats(0.1, 20.0), s=st.floats(0.0, 1.0),
       side=st.sampled_from((-1.0, 1.0)), turn=st.floats(0.1, 3.0),
       b_len=st.floats(0.0, 10.0), filler_len=st.floats(0.0, 80.0))
# a shallow segment whose contact lies just above a band's top edge
@example(w_a=0.005, w_b=0.005, reach=0.0, x=0.0, y=0.0, theta=0.015625,
         length=1.0, s=0.1015625, side=-1.0, turn=1.0, b_len=0.0,
         filler_len=0.0)
def test_broad_phase_keeps_every_pair_within_reach(
        w_a, w_b, reach, x, y, theta, length, s, side, turn, b_len,
        filler_len):
    """A segment end, and a pad, placed just at reach of segment a.

    The closest approach is one point of a, at any slope and any place
    against the bands. A far filler segment moves h0 and the levels.
    """
    a = _trace((x, y), (x + length * math.cos(theta),
                        y + length * math.sin(theta)), width_mm=w_a)
    nx, ny = -side * math.sin(theta), side * math.cos(theta)
    px = a.start[0] + s * (a.end[0] - a.start[0])
    py = a.start[1] + s * (a.end[1] - a.start[1])
    rise = 0.5 * (w_a + w_b) + reach
    b0 = (px + rise * nx, py + rise * ny)
    phi = theta + side * turn          # b leaves a on the far side
    b = _trace(b0, (b0[0] + b_len * math.cos(phi),
                    b0[1] + b_len * math.sin(phi)), width_mm=w_b)
    filler = _trace((1e3, 1e3), (1e3 + filler_len, 1e3))
    pad = (px + (0.5 * w_a + reach) * nx, py + (0.5 * w_a + reach) * ny)
    pairs = _candidate_pairs(_capsules([a, b, filler]), reach, [pad])
    if outline_clearance(a, b) <= reach:
        assert (0, 1) in pairs
    if _point_segment_distance(pad, a.start, a.end) <= 0.5 * w_a + reach:
        assert (0, 3) in pairs


@st.composite
def _segment_pairs(draw):
    """Two segments at a scale from 1e-150 to 1e150: in general position,
    parallel, collinear and overlapping, of zero length, crossing, or one
    touching the other."""
    scale = draw(st.sampled_from((1e-150, 1e-3, 1.0, 1e3, 1e150)))
    coord = st.floats(-10.0, 10.0)
    p1, p2, q1 = [(draw(coord), draw(coord)) for _ in range(3)]
    dx, dy = p2[0] - p1[0], p2[1] - p1[1]
    kind = draw(st.sampled_from(("general", "parallel", "collinear",
                                 "zero-length", "crossing", "touching")))
    along = st.floats(-1.0, 2.0)
    if kind == "general":
        q2 = (draw(coord), draw(coord))
    elif kind == "parallel":
        k = draw(along)
        q2 = (q1[0] + k * dx, q1[1] + k * dy)
    elif kind == "collinear":
        u, v = draw(along), draw(along)
        q1 = (p1[0] + u * dx, p1[1] + u * dy)
        q2 = (p1[0] + v * dx, p1[1] + v * dy)
    elif kind == "zero-length":
        q2 = q1
        if draw(st.booleans()):
            p2 = p1
    else:
        s = draw(st.floats(0.0, 1.0))
        m = (p1[0] + s * dx, p1[1] + s * dy)
        if kind == "crossing":
            q1, q2 = (2 * m[0] - q1[0], 2 * m[1] - q1[1]), q1
        else:
            q1, q2 = m, q1
    return tuple((x * scale, y * scale) for x, y in (p1, p2, q1, q2))


@settings(max_examples=1000, deadline=None)
@given(_segment_pairs())
@example(((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)))
@example(((-0.0, -0.0), (-0.0, -0.0), (-0.0, 1.0), (-0.0, 1.0)))
# the nearest candidate clamps s from -0.0, and p1 has x = -0.0
@example(((-0.0, -0.0), (1.0, 0.0), (-0.0, 1.0), (-1.0, 1.0)))
def test_closest_points_equal_the_verbatim_oracle(segments):
    """Same distance and points, to the last bit and the sign of zero."""
    assert repr(_closest_points(*segments)) == \
        repr(_closest_points_oracle(*segments))


# --- scaling: candidate pairs grow with the segment count, not its square

TRACE_WIDTH_MM = 0.157              # deposited at speed 10 / pressure 30


def _serpentine(n):
    """One chain: 1.5 mm leg segments and 0.5 mm rungs, legs 0.5 mm apart."""
    points = []
    leg = 0
    while len(points) < n + 1:
        xs = [0.0, 1.5, 3.0] if leg % 2 == 0 else [3.0, 1.5, 0.0]
        points += [(x, 0.5 * leg) for x in xs]
        leg += 1
    return [_trace(p, q, width_mm=TRACE_WIDTH_MM)
            for p, q in zip(points, points[1:n + 1])]


def _bus(n):
    """Parallel 8 mm lines at 0.6 mm pitch; every tenth gap pinched."""
    traces = []
    y = 0.0
    for k in range(n):
        if k:
            y += 0.21 if k % 10 == 0 else 0.6
        traces.append(_trace((0.0, y), (8.0, y), width_mm=TRACE_WIDTH_MM))
    return traces


def _crowded(n, cols=32):
    """n dashes 0.1 mm long at 0.5 mm pitch, cols to a row, none touching,
    and a square frame of side 0.25 * n**1.5 mm around them."""
    traces = [_trace((0.5 * (k % cols), 0.5 * (k // cols)),
                     (0.5 * (k % cols) + 0.1, 0.5 * (k // cols)),
                     width_mm=TRACE_WIDTH_MM) for k in range(n)]
    side = 0.25 * n ** 1.5
    corners = [(-1.0, -1.0), (side - 1.0, -1.0), (side - 1.0, side - 1.0),
               (-1.0, side - 1.0)]
    return traces + [_trace(p, q, width_mm=TRACE_WIDTH_MM)
                     for p, q in zip(corners, corners[1:] + corners[:1])]


def _scattered(n):
    """n segments 0.5-5 mm long at random angles, as densely as 8000 over
    200 x 200 mm."""
    rng = np.random.default_rng(8000)
    side = 200.0 * math.sqrt(n / 8000)
    traces = []
    for x, y, ang, length in zip(rng.uniform(0.0, side, n),
                                 rng.uniform(0.0, side, n),
                                 rng.uniform(0.0, 2 * math.pi, n),
                                 rng.uniform(0.5, 5.0, n)):
        traces.append(_trace((float(x), float(y)),
                             (float(x + length * math.cos(ang)),
                              float(y + length * math.sin(ang))),
                             width_mm=TRACE_WIDTH_MM))
    return traces


def _zigzag(n):
    """One chain of n segments, 0.5 mm across and 1 mm up or down."""
    points = [(0.5 * k, float(k % 2)) for k in range(n + 1)]
    return [_trace(p, q, width_mm=TRACE_WIDTH_MM)
            for p, q in zip(points, points[1:])]


def _mesh(rows):
    """A grid of 1 mm cells, 32 wide and rows high, each side a segment."""
    traces = []
    for r in range(rows + 1):
        for c in range(32):
            traces.append(_trace((float(c), float(r)), (c + 1.0, float(r)),
                                 width_mm=TRACE_WIDTH_MM))
    for c in range(33):
        for r in range(rows):
            traces.append(_trace((float(c), float(r)), (float(c), r + 1.0),
                                 width_mm=TRACE_WIDTH_MM))
    return traces


# --- the broad phase against the brute force


def _brute_candidates(capsules, reach, points):
    """Every pair the broad phase must keep: segment pairs whose outlines
    come within reach, and pads within reach of a segment's outline."""
    n = len(capsules)
    must = set()
    for i, (a0, a1, ha) in enumerate(capsules):
        for j in range(i + 1, n):
            b0, b1, hb = capsules[j]
            if _closest_points_oracle(a0, a1, b0, b1)[0] - ha - hb <= reach:
                must.add((i, j))
        for k, p in enumerate(points):
            if _point_segment_distance(p, a0, a1) <= ha + reach:
                must.add((i, n + k))
    return must


@st.composite
def _broad_phase_inputs(draw):
    """Capsules of every slope and size, widths 100x apart and coordinates
    offset by 1e4 mm, with ends and pads placed exactly at the reach of
    an earlier capsule's outline."""
    offset = draw(st.sampled_from((0.0, 1e4)))
    reach = draw(st.sampled_from(TOLERANCES_MM))
    coord = st.floats(0.0, 10.0)
    capsules, points = [], []
    for _ in range(draw(st.integers(1, 10))):
        hw = 0.5 * draw(st.sampled_from(WIDTHS_MM))
        x, y = draw(coord) + offset, draw(coord) + offset
        ang = draw(st.sampled_from((0.0, 0.5 * math.pi))
                   | st.floats(0.0, 2 * math.pi))
        length = draw(st.sampled_from((0.0, 0.1, 40.0))
                      | st.floats(0.0, 10.0))
        if capsules and draw(st.booleans()):
            # a pad, or this capsule's start, just at reach of a point on
            # an earlier capsule
            (a0x, a0y), (a1x, a1y), ha = draw(st.sampled_from(capsules))
            s = draw(st.floats(0.0, 1.0))
            phi = draw(st.floats(0.0, 2 * math.pi))
            pad = draw(st.booleans())
            rise = ha + reach + (0.0 if pad else hw)
            x = a0x + s * (a1x - a0x) + rise * math.cos(phi)
            y = a0y + s * (a1y - a0y) + rise * math.sin(phi)
            if pad:
                points.append((x, y))
                continue
        capsules.append(((x, y), (x + length * math.cos(ang),
                                  y + length * math.sin(ang)), hw))
    return capsules, points, reach


@settings(max_examples=500, deadline=None)
@given(_broad_phase_inputs())
# the crowded family: small dashes and one large frame
@example((_capsules(_crowded(12, cols=4)), [(0.0, 0.0), (-1.0, -1.0)],
          0.1))
# every segment horizontal (dy == 0), gaps computed as exactly the reach
@example(([((0.0, 0.0), (1.0, 0.0), 0.25), ((0.5, 0.75), (2.0, 0.75), 0.25),
           ((2.25, 0.75), (3.0, 0.75), 0.0), ((9.0, 0.0), (9.0, 0.0), 0.0)],
          [(0.5, 1.25), (3.25, 0.75)], 0.25))
# a pad on y = 0, an edge of the bands of every level
@example(([((0.0, -0.5), (1.0, -0.5), 0.25), ((3.0, -4.0), (3.0, 4.0), 0.25),
           ((3.5, -0.25), (3.5, 0.25), 0.0)],
          [(0.5, 0.0), (3.5, 0.0), (3.25, 0.0)], 0.25))
# a single segment with pads
@example(([((0.0, 0.0), (2.0, 1.0), 0.05)],
          [(0.0, 0.0), (2.0, 1.0), (1.0, 0.5), (2.15, 1.0), (5.0, 5.0)],
          0.1))
# no reach: outlines that just touch, cross or overlap
@example(([((0.0, 0.0), (1.0, 0.0), 0.25), ((0.0, 0.5), (1.0, 0.5), 0.25),
           ((0.5, -1.0), (0.5, 2.0), 0.0), ((1.5, 0.0), (1.5, 0.0), 0.25)],
          [(1.0, 0.25), (1.75, 0.0)], 0.0))
# points at the origin with no width and no reach: no rounding margin
@example(([((0.0, 0.0), (0.0, 0.0), 0.0), ((0.0, 0.0), (0.0, 0.0), 0.0)],
          [(0.0, 0.0)], 0.0))
def test_candidate_pairs_hold_every_contact(inputs):
    capsules, points, reach = inputs
    pairs = _candidate_pairs(capsules, reach, points)
    assert pairs == sorted(set(pairs))
    n = len(capsules)
    assert all(i < j and i < n for i, j in pairs)
    assert _brute_candidates(capsules, reach, points) <= set(pairs)


@pytest.mark.parametrize("traces, net_count, edge_count, violations", [
    (_serpentine(4000), 1, 3999, 0),
    (_bus(1000), 1000, 0, 99),
], ids=["serpentine-4000", "bus-1000"])
def test_large_layouts_stay_linear(traces, net_count, edge_count,
                                   violations):
    capsules = _capsules(traces)
    for reach in (0.0, 0.1):
        assert len(_candidate_pairs(capsules, reach)) <= 3 * len(traces)
    nets = extract_nets(traces, 0.0, clearance=0.1)
    assert len(nets.nets) == net_count
    assert sum(len(net.edges) for net in nets.nets) == edge_count
    result = drc(nets, 0.1, 0.1)
    assert len(result.violations) == violations
    assert all(v.kind == "clearance-short-risk" for v in result.violations)


@pytest.mark.parametrize("family, n", [
    (_crowded, 1024), (_scattered, 2000), (_zigzag, 2000), (_mesh, 30),
    (_bus, 2000),
], ids=["crowded", "scattered", "zigzag", "mesh", "bus"])
def test_candidates_grow_with_segments_and_contacts(family, n):
    """Candidate pairs stay within 3 (segments + contacts) and grow at
    most 2.2x when the layout doubles (the mesh doubles its rows)."""
    counts = []
    for size in (n, 2 * n):
        traces = family(size)
        candidates = len(_candidate_pairs(_capsules(traces), 0.1))
        contacts = len(extract_nets(traces, 0.0, clearance=0.1).contacts)
        assert candidates <= 3 * (len(traces) + contacts)
        counts.append(candidates)
    assert counts[1] <= 2.2 * counts[0]


def _stacked(n):
    """One chain of n segments through the points (k mod 7, k mod 5) mm:
    every segment lies in one 7 x 5 mm box, across most of the others."""
    points = [(float(k % 7), float(k % 5)) for k in range(n + 1)]
    return [_trace(p, q, width_mm=TRACE_WIDTH_MM)
            for p, q in zip(points, points[1:])]


def test_the_candidate_budget_stops_stacked_traces(monkeypatch, tmp_path,
                                                   capsys):
    """Stacked traces make candidate pairs grow as the square of the
    traces; a pass that needs more than MAX_CANDIDATE_PAIRS is a
    CircuitError, and one that needs exactly that many is unchanged."""
    traces = _stacked(120)
    capsules = _capsules(traces)
    pairs = _candidate_pairs(capsules, 0.1)
    assert len(pairs) > 10 * len(traces)
    monkeypatch.setattr(circuit, "MAX_CANDIDATE_PAIRS", len(pairs))
    assert _candidate_pairs(capsules, 0.1) == pairs
    monkeypatch.setattr(circuit, "MAX_CANDIDATE_PAIRS", len(pairs) - 1)
    message = (f"^the contact pass found more than {len(pairs) - 1} "
               f"candidate segment pairs, its budget")
    with pytest.raises(CircuitError, match=message):
        _candidate_pairs(capsules, 0.1)
    with pytest.raises(CircuitError, match=message):
        extract_nets(traces, 0.0, clearance=0.1)
    # check on a stacked drawing: one error line and exit 1
    path = " ".join(f"L {k % 7} {k % 5}" for k in range(1, 121))
    drawing = tmp_path / "stacked.svg"
    drawing.write_text('<svg xmlns="http://www.w3.org/2000/svg">'
                       f'<path d="M 0 0 {path}"/></svg>')
    monkeypatch.setattr(circuit, "MAX_CANDIDATE_PAIRS", 100)
    capsys.readouterr()
    rc = main(["check", "--drawing", str(drawing), "--speed", "10",
               "--pressure", "30", "--out", str(tmp_path / "check.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines()
            if line.startswith("error:")] == [
        "error: the contact pass found more than 100 candidate segment "
        "pairs, its budget; traces stacked on one another make that many"]
    assert not (tmp_path / "check.json").exists()


def test_pads_leave_the_segment_pairs_and_h0_unchanged(monkeypatch):
    """Pads neither add nor remove segment pairs, and never set h0: the
    band heights of the sweep, h0 * 2**level, stay the same."""
    traces = _bus(1000) + _serpentine(200) + _mesh(4)
    capsules = _capsules(traces)
    pads = [p for t in traces[::2] for p in (t.start, t.end)]
    heights = []
    real = math.ldexp

    def recorded(x, i):
        heights.append(real(x, i))
        return heights[-1]
    monkeypatch.setattr(circuit.math, "ldexp", recorded)
    bare = _candidate_pairs(capsules, 0.1)
    seen = heights[:]
    heights.clear()
    padded = _candidate_pairs(capsules, 0.1, pads)
    monkeypatch.undo()
    assert seen and heights == seen
    n = len(traces)
    assert [(i, j) for i, j in padded if j < n] == bare
    assert len(padded) > len(bare)      # the pads did join the sweep


@pytest.mark.parametrize("extra, reach", [
    ([], 0.1),
    (["--tolerance", "0.3"], 0.3),
    (["--min-clearance", "0.2", "--tolerance", "0.05"], 0.2),
])
def test_check_makes_one_contact_pass(monkeypatch, tmp_path, extra, reach):
    reaches = []
    real = circuit._candidate_pairs

    def counted(capsules, pass_reach, points=()):
        reaches.append(pass_reach)
        return real(capsules, pass_reach, points)
    monkeypatch.setattr(circuit, "_candidate_pairs", counted)
    rc = main(["check", "--drawing", "samples/grid-antenna.json",
               "--speed", "10", "--pressure", "30", "--pairs", "feed:tip",
               "--resistivity", "2.9e-7", *extra,
               "--out", str(tmp_path / "check.json")])
    assert rc == 0
    assert reaches == [reach]


@pytest.mark.parametrize("value", [math.nan, math.inf, -0.1])
def test_non_finite_or_negative_limits_rejected(value):
    traces = [_trace((0.0, 0.0), (10.0, 0.0))]
    with pytest.raises(ConfigError):
        extract_nets(traces, value)
    with pytest.raises(ConfigError):
        extract_nets(traces, 0.0, clearance=value)
    nets = extract_nets(traces, 0.0, pads={"A": (0.0, 0.0),
                                           "B": (10.0, 0.0)}, clearance=0.1)
    with pytest.raises(ConfigError, match="DRC limits"):
        drc(nets, value, 0.1)
    with pytest.raises(ConfigError, match="DRC limits"):
        drc(nets, 0.1, value)
    with pytest.raises(CircuitError):
        estimate_resistance(nets, "A", "B", value)


def test_non_finite_trace_geometry_rejected():
    # a trace checks itself when built, so extract_nets never meets one;
    # a width of 1e306 m is inf mm, the unit of the circuit's capsules
    with pytest.raises(DomainError):
        _trace((0.0, 0.0), (math.nan, 0.0))
    for width_m in (math.inf, 1e306):
        with pytest.raises(DomainError):
            replace(_trace((0.0, 0.0), (1.0, 0.0)), width_m=width_m)


@pytest.mark.parametrize("pad", [(math.inf, 0.0), (0.0, -math.inf),
                                 (math.nan, 0.0)])
def test_non_finite_pad_rejected(pad):
    # an infinite pad broke the broad phase's grid, and a NaN one touched
    # nothing
    with pytest.raises(CircuitError, match="pad 'A'"):
        extract_nets([_trace((0.0, 0.0), (10.0, 0.0))], 0.0,
                     pads={"A": pad, "B": (10.0, 0.0)})
