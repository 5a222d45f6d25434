"""Seeded input generators for the benchmark workloads.

Each generator returns the files the program reads (drawing, config, the
``--pairs`` argument) together with the facts the generator knows about
them, which the output checks compare against. The program never sees the
facts or the seed, only the generated files.

The seed moves and permutes geometry but keeps every count that sets the
amount of work (segments, strokes, nets, canvas pixels) the same, so runs
with different seeds measure the same work.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

# Both boards are printed at dial speed 10 / pressure 30, which deposits
# traces about 0.157 mm wide; the spacings below assume 0.12-0.19 mm.
SPEED_SETTING = 10.0
PRESSURE_SETTING = 30.0
RESISTIVITY_OHM_M = 2.94e-7      # eutectic gallium-indium

# Bus centre distances against the CLI's default 0.1 mm DRC clearance.
SAFE_PITCH_MM = 0.6              # gap ~0.44 mm: no violation
PINCH_PITCH_MM = 0.21            # gap ~0.05 mm: a violation, yet no touch
CHAIN_LEG_PITCH_MM = 0.5
CHAIN_LEG_SEGMENTS = 2           # collinear segments per serpentine leg
MESH_PITCH_MM = 1.0
PART_GAP_MM = 3.0


@dataclass
class CircuitFacts:
    """What a correct ``check`` report must say about a drawing."""

    nets: int
    connected: dict[tuple[str, str], bool]
    clearance_violations: int
    # pad pair -> centreline lengths (mm) of the segments in series
    series_mm: dict[tuple[str, str], list[float]] = field(
        default_factory=dict)

    def pairs_arg(self) -> str:
        return ",".join(f"{a}:{b}" for a, b in self.connected)


@dataclass
class Board:
    """A generated check-board drawing and what is known about it."""

    drawing: dict
    facts: CircuitFacts


def check_board(seed: int, bus_lines: int = 60, pinched: int = 12,
                chain_legs: int = 40, mesh_rows: int = 8,
                mesh_cols: int = 8) -> Board:
    """Bus + serpentine chain + mesh, each far enough from the others.

    - bus: ``bus_lines`` one-segment lines, each its own net with a pad at
      both ends. ``pinched`` of the gaps between neighbours are set below
      the DRC clearance; every pinched gap is one clearance violation.
    - chain: one unbranched serpentine of ``chain_legs`` legs, each
      ``CHAIN_LEG_SEGMENTS`` collinear segments, joined by short rungs, with a
      pad at each end. Only consecutive segments touch, so the pad-to-pad
      resistance is the sum over every segment.
    - mesh: a ``mesh_rows`` x ``mesh_cols`` grid whose lines are split at
      every crossing, one branched net with pads at opposite corners.
    """
    rng = random.Random(seed)
    strokes = []
    pads: dict[str, list[float]] = {}
    facts = CircuitFacts(nets=bus_lines + 2, connected={},
                         clearance_violations=pinched)

    def pair(a, b, ok, series=None):
        facts.connected[(a, b)] = ok
        if series is not None:
            facts.series_mm[(a, b)] = series

    # bus
    pinched_gaps = set(rng.sample(range(bus_lines - 1), pinched))
    y = 0.0
    for k in range(bus_lines):
        if k:
            y += PINCH_PITCH_MM if k - 1 in pinched_gaps else SAFE_PITCH_MM
        length = round(rng.uniform(6.0, 10.0), 3)
        strokes.append({"points": [[0.0, y], [length, y]], "closed": False})
        pads[f"B{k}a"] = [0.0, y]
        pads[f"B{k}b"] = [length, y]
        pair(f"B{k}a", f"B{k}b", True, [length])
    for k in sorted(pinched_gaps):
        pair(f"B{k}a", f"B{k + 1}a", False)

    # serpentine chain, right of the bus
    x0 = 10.0 + PART_GAP_MM
    leg = 1.5 * CHAIN_LEG_SEGMENTS
    points = []
    for j in range(chain_legs):
        cy = j * CHAIN_LEG_PITCH_MM
        # interior vertices stay within a quarter spacing of even, so
        # they keep their order and every segment is over 1 mm long
        inner = [x0 + leg * (i + rng.uniform(-0.25, 0.25))
                 / CHAIN_LEG_SEGMENTS for i in range(1, CHAIN_LEG_SEGMENTS)]
        xs = [x0] + inner + [x0 + leg]
        if j % 2:
            xs.reverse()
        points.extend([[round(x, 4), cy] for x in xs])
    strokes.append({"points": points, "closed": False})
    series = [math.hypot(q[0] - p[0], q[1] - p[1])
              for p, q in zip(points, points[1:])]
    pads["Cin"] = list(points[0])
    pads["Cout"] = list(points[-1])
    pair("Cin", "Cout", True, series)

    # mesh, right of the chain
    mx = x0 + leg + PART_GAP_MM
    xs = [mx + c * MESH_PITCH_MM for c in range(mesh_cols)]
    ys = [r * MESH_PITCH_MM for r in range(mesh_rows)]
    rows = [{"points": [[x, yy] for x in xs], "closed": False} for yy in ys]
    cols = [{"points": [[x, yy] for yy in ys], "closed": False} for x in xs]
    mesh = rows + cols
    rng.shuffle(mesh)
    strokes.extend(mesh)
    pads["Ma"] = [xs[0], ys[0]]
    pads["Mb"] = [xs[-1], ys[-1]]
    pair("Ma", "Mb", True)
    pair("Cout", "Ma", False)

    drawing = {"version": 1, "id": f"check-board-{seed}", "units": "mm",
               "strokes": strokes, "pads": pads}
    return Board(drawing=drawing, facts=facts)


@dataclass
class Coils:
    """A generated render-coils SVG and what is known about it."""

    svg: str
    config: dict
    bounds_mm: tuple[float, float, float, float]   # x0, y0, x1, y1
    scale_mm_px: float


COIL_PITCH_MM = 0.4
CELL_MM = 16.0                   # side of one coil or meander cell
KAPPA = 4.0 * (math.sqrt(2.0) - 1.0) / 3.0   # cubic quarter-circle handle


def _fmt(v: float) -> str:
    return f"{v:.4f}".rstrip("0").rstrip(".")


def _spiral_path(cx: float, cy: float, turns: int, r0: float,
                 quarter0: int, sense: int) -> str:
    """Archimedean-like spiral of cubic quarter arcs with growing radius.

    Quarter directions are multiples of 90 degrees, so rotating or
    mirroring a coil permutes coordinates exactly.
    """
    dirs = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    parts = []
    for q in range(4 * turns):
        ux, uy = dirs[(quarter0 + sense * q) % 4]
        vx, vy = dirs[(quarter0 + sense * (q + 1)) % 4]
        ra = r0 + COIL_PITCH_MM * q / 4.0
        rb = r0 + COIL_PITCH_MM * (q + 1) / 4.0
        p0 = (cx + ra * ux, cy + ra * uy)
        p3 = (cx + rb * vx, cy + rb * vy)
        # tangent at p0 points toward v, tangent at p3 points back toward u
        p1 = (p0[0] + KAPPA * ra * vx, p0[1] + KAPPA * ra * vy)
        p2 = (p3[0] + KAPPA * rb * ux, p3[1] + KAPPA * rb * uy)
        if q == 0:
            parts.append(f"M {_fmt(p0[0])} {_fmt(p0[1])}")
        parts.append("C " + " ".join(_fmt(v) for v in (*p1, *p2, *p3)))
    return " ".join(parts)


def _meander_path(x0: float, y0: float, size: float, teeth: int,
                  vertical: bool) -> str:
    pitch = size / (2 * teeth)
    pts = []
    for t in range(2 * teeth + 1):
        a = t * pitch
        lo, hi = (0.0, size) if t % 2 == 0 else (size, 0.0)
        pts += [(a, lo), (a, hi)]
    if vertical:
        pts = [(b, a) for a, b in pts]
    return "M " + " L ".join(f"{_fmt(x0 + a)} {_fmt(y0 + b)}" for a, b in pts)


def render_coils(seed: int, grid: int = 3, turns: int = 17, teeth: int = 14,
                 scale_mm_px: float = 0.01) -> Coils:
    """Spiral coils and meanders in a framed grid of square cells.

    Cells alternate coil / meander in a seed-shuffled order; each coil's
    start direction and winding sense and each meander's orientation come
    from the seed. A frame around the grid fixes the canvas size.
    """
    rng = random.Random(seed)
    kinds = ["coil" if i % 2 == 0 else "meander" for i in range(grid * grid)]
    rng.shuffle(kinds)
    margin = 1.0
    paths = []
    for i, kind in enumerate(kinds):
        ox = margin + (i % grid) * CELL_MM
        oy = margin + (i // grid) * CELL_MM
        if kind == "coil":
            paths.append(_spiral_path(ox + CELL_MM / 2, oy + CELL_MM / 2,
                                      turns, 0.8, rng.randrange(4),
                                      rng.choice((1, -1))))
        else:
            inset = 1.0
            paths.append(_meander_path(ox + inset, oy + inset,
                                       CELL_MM - 2 * inset, teeth,
                                       rng.random() < 0.5))
    side = 2 * margin + grid * CELL_MM
    paths.append(f"M 0 0 H {_fmt(side)} V {_fmt(side)} H 0 Z")
    body = "\n".join(f'  <path d="{d}"/>' for d in paths)
    svg = ('<svg xmlns="http://www.w3.org/2000/svg">\n'
           f"{body}\n</svg>\n")
    config = {"policy": {"strategy": "fillet", "fillet_radius_mm": 0.3}}
    return Coils(svg=svg, config=config, bounds_mm=(0.0, 0.0, side, side),
                 scale_mm_px=scale_mm_px)


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
