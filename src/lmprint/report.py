"""Versioned JSON run reports with deterministic serialization.

Reports are plain dicts with a fixed set of sections; serialization sorts
keys and keeps Python's shortest round-trip float representation, so equal
reports always produce byte-identical files.

canonical_json is the one JSON writer of the package. Its bytes equal
json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True,
allow_nan=False) + "\\n". With an indent, json.dumps runs the json module's
pure-Python encoder, which yields every token separately. Here each
container is one str.join, each list of dicts that share their keys fills
one %-template per dict, and each nonzero float's repr is computed once,
which takes well under half the time on large reports.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _quote

from .errors import DrawingFormatError

REPORT_VERSION = 1


def canonical_json(obj) -> bytes:
    """ASCII JSON with sorted keys, 2-space indent and a trailing newline.

    Types are written as json writes them, subclasses included: str, None,
    bool, int, float, list, tuple, dict. Anything else raises TypeError,
    and a NaN or infinity raises ValueError.
    """
    # repr of each nonzero float seen; 0.0 and -0.0 are equal dict keys
    # that json writes differently, so neither is ever stored
    floats: dict[float, str] = {}

    def number(o) -> str:
        if not math.isfinite(o):
            raise ValueError("Out of range float values are not JSON "
                             f"compliant: {float.__repr__(o)}")
        text = float.__repr__(o)
        if o:
            floats[o] = text
        return text

    def key(k) -> str:
        if isinstance(k, str):
            return _quote(k)
        if isinstance(k, float):
            return '"' + number(k) + '"'
        if k is True:
            return '"true"'
        if k is False:
            return '"false"'
        if k is None:
            return '"null"'
        if isinstance(k, int):
            return '"' + int.__repr__(k) + '"'
        raise TypeError("keys must be str, int, float, bool or None, "
                        f"not {type(k).__name__}")

    def value(o, ind: str) -> str:
        """o as JSON text; ind is the newline and indent of o's line."""
        t = type(o)
        if t is float:
            return floats.get(o) or number(o)
        if t is str:
            return _quote(o)
        if t is list or t is tuple:
            return array(o, ind)
        if t is dict:
            return mapping(o, ind)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if t is int:
            return int.__repr__(o)
        # subclasses, in the order json tests them
        if isinstance(o, str):
            return _quote(o)
        if isinstance(o, int):
            return int.__repr__(o)
        if isinstance(o, float):
            return number(o)
        if isinstance(o, (list, tuple)):
            return array(o, ind)
        if isinstance(o, dict):
            return mapping(o, ind)
        raise TypeError(f"Object of type {type(o).__name__} "
                        "is not JSON serializable")

    def array(o, ind: str) -> str:
        if not o:
            return "[]"
        inner = ind + "  "
        first = o[0]
        if type(first) is dict and first and all(type(k) is str
                                                  for k in first):
            items = rows(o, first, inner)
        else:
            items = [value(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + ind + "]"

    def rows(o, first: dict, ind: str) -> list[str]:
        """Each dict with the first one's keys fills one %-template;
        any other element is written by value."""
        names = sorted(first)
        inner = ind + "  "
        template = "{" + inner + ("," + inner).join(
            [_quote(k).replace("%", "%%") + ": %s" for k in names]
        ) + ind + "}"
        keys = first.keys()
        return [template % tuple([value(row[k], inner) for k in names])
                if type(row) is dict and row.keys() == keys
                else value(row, ind)
                for row in o]

    def mapping(o, ind: str) -> str:
        if not o:
            return "{}"
        inner = ind + "  "
        return "{" + inner + ("," + inner).join(
            [key(k) + ": " + value(v, inner) for k, v in sorted(o.items())]
        ) + ind + "}"

    return (value(obj, "\n") + "\n").encode("ascii")


def make_report(*, drawing=None, toolpath=None, traces=None, totals=None,
                checks=None) -> dict:
    """A fresh report dict with every section present (empty by default)."""
    return {
        "version": REPORT_VERSION,
        "drawing": drawing if drawing is not None else {},
        "toolpath": toolpath if toolpath is not None else {},
        "traces": traces if traces is not None else [],
        "totals": totals if totals is not None else {},
        "checks": checks if checks is not None else {},
    }


def write_report(report: dict) -> bytes:
    """Canonical UTF-8 JSON: sorted keys, 2-space indent, trailing newline."""
    if report.get("version") != REPORT_VERSION:
        raise DrawingFormatError(f"report 'version' must be {REPORT_VERSION}")
    return canonical_json(report)


def read_report(data: bytes | str) -> dict:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        report = json.loads(data)
    except json.JSONDecodeError as exc:
        raise DrawingFormatError(f"malformed report JSON: {exc}") from exc
    if not isinstance(report, dict) or report.get("version") != REPORT_VERSION:
        raise DrawingFormatError(f"report 'version' must be {REPORT_VERSION}")
    return report
