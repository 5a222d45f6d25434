"""Helpers shared by the test modules."""

import json
import math
import random
from pathlib import Path

from lmprint import VectorDrawing, parse_drawing
from lmprint.report import Table, canonical_json

SAMPLES = Path(__file__).resolve().parents[1] / "samples"


def sample(name: str) -> VectorDrawing:
    """The shipped drawing samples/<name>.json, parsed."""
    return parse_drawing((SAMPLES / f"{name}.json").read_bytes())


# a version-1 report's trace row: the fields, sorted, with the physics inline
V1_TRACE_FIELDS = {"contact_angle_deg": 0, "creep": 0, "end_mm": 2,
                   "flags": 0, "flux_m3_s": 0, "pressure_g": 0,
                   "speed_mm_s": 0, "start_mm": 2, "width_m": 0}


def v1_trace_rows(traces) -> bytes:
    """The traces as a version-1 simulate report wrote them, physics and
    all in each row: the oracle of the trace and physics tables that
    reports have had since version 2."""
    return canonical_json(Table(V1_TRACE_FIELDS, [
        (t.contact_angle_deg, t.creep, *t.end, t.flags, t.flux_m3_s,
         t.pressure_g, t.speed_mm_s, *t.start, t.width_m)
        for t in traces]))


def expanded_traces(report: dict) -> bytes:
    """A report's traces, each row's physics read through its index
    (clamped left out), written as json.dumps writes them."""
    physics = report["physics"]
    rows = []
    for t in report["traces"]:
        assert type(t["physics"]) is int
        row = dict(physics[t["physics"]])
        del row["clamped"]
        rows.append({**row, "end_mm": t["end_mm"], "flags": t["flags"],
                     "start_mm": t["start_mm"]})
    return (json.dumps(rows, sort_keys=True, indent=2, ensure_ascii=True)
            + "\n").encode("ascii")


def coil_svg(seed, cells=2, cell_mm=6.0, turns=6, pitch_mm=0.35):
    """A seeded SVG of cells x cells spiral coils drawn as cubics."""
    rng = random.Random(seed)
    paths = []
    for i in range(cells * cells):
        cx = (i % cells + 0.5) * cell_mm + rng.uniform(-0.3, 0.3)
        cy = (i // cells + 0.5) * cell_mm + rng.uniform(-0.3, 0.3)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        sense = rng.choice((1.0, -1.0))
        r = rng.uniform(0.3, 0.6)
        parts = []
        for q in range(4 * turns):
            a0 = phase + sense * q * math.pi / 2
            a1 = a0 + sense * math.pi / 2
            r0, r1 = r + pitch_mm * q / 4, r + pitch_mm * (q + 1) / 4
            k = 4.0 * (math.sqrt(2.0) - 1.0) / 3.0 * rng.uniform(0.9, 1.1)
            p0 = (cx + r0 * math.cos(a0), cy + r0 * math.sin(a0))
            p3 = (cx + r1 * math.cos(a1), cy + r1 * math.sin(a1))
            p1 = (p0[0] - sense * k * r0 * math.sin(a0),
                  p0[1] + sense * k * r0 * math.cos(a0))
            p2 = (p3[0] + sense * k * r1 * math.sin(a1),
                  p3[1] - sense * k * r1 * math.cos(a1))
            if q == 0:
                parts.append(f"M {p0[0]:.5f} {p0[1]:.5f}")
            parts.append("C " + " ".join(f"{v:.5f}" for v in (*p1, *p2, *p3)))
        paths.append(" ".join(parts))
    body = "".join(f'<path d="{d}"/>' for d in paths)
    return f'<svg xmlns="http://www.w3.org/2000/svg">{body}</svg>'
