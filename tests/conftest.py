"""Helpers shared by the test modules."""

from pathlib import Path

from lmprint import VectorDrawing, parse_drawing

SAMPLES = Path(__file__).resolve().parents[1] / "samples"


def sample(name: str) -> VectorDrawing:
    """The shipped drawing samples/<name>.json, parsed."""
    return parse_drawing((SAMPLES / f"{name}.json").read_bytes())
