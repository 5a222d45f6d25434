"""Versioned JSON run reports with deterministic serialization.

Reports are dicts with a fixed set of sections; serialization sorts
keys and keeps Python's shortest round-trip float representation, so equal
reports always produce byte-identical files. A report states each fact
once: a simulate report's traces refer by index to the rows of its
physics section, one per distinct physics tuple, and carry no action
list, whose moves the traces repeat (see the README).

canonical_json is the one JSON writer of the package. Its bytes equal
json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True,
allow_nan=False) + "\\n". With an indent, json.dumps runs the json module's
pure-Python encoder, which yields every token separately. Here each
container is one str.join, each list of dicts that share their keys fills
one %-template per dict, and each nonzero float's repr is computed once.

The large table of a report, its traces, comes as a Table: one flat
tuple of slots per row, read straight from the records, with no dict or
point list per row. The type check runs per column: a column holds exact
ints only, or exact floats and strs and, at a field's depth, tuples of
exact strs. Then the texts of the distinct values of the float and str
columns are made once, nonzero floats from the same repr cache, and all
rows are written by a single %-fill of one row template repeated, derived
from the sorted field names and the point arity. Ints reach the fill as
themselves, never through the cache, where 1 and 1.0 are one key. A table
that fails the check (a bool, a column mixing ints with other values, a
float subclass, a tuple in a point) raises TypeError naming its fields
and slot, as any other value json cannot write does.
"""

from __future__ import annotations

import json
import math
from itertools import chain, filterfalse, repeat
from json.encoder import encode_basestring_ascii as _quote

from .errors import DrawingFormatError

REPORT_VERSION = 3

_POINT_TYPES = {float, str}
_FIELD_TYPES = {float, str, tuple}


class Table:
    """A JSON list of objects whose rows are held flat, for canonical_json.

    fields is a dict of field name -> arity, names sorted. A field of arity
    0 is one slot, written as itself (a tuple of strs as a list of any
    length); arity k > 0 is k slots, written as a list of k (a point). A
    row is the flat tuple of its fields' slots in field order, and every
    row has all of them.
    """

    __slots__ = ("rows", "fields")

    def __init__(self, fields: dict, rows: list[tuple]):
        if list(fields) != sorted(fields):
            raise ValueError("table field names must be sorted")
        n = sum(a or 1 for a in fields.values())
        if not set(map(len, rows)) <= {n}:
            raise ValueError(f"a table row does not have {n} slots")
        self.rows = rows
        self.fields = fields

    def columns(self) -> list[tuple]:
        """The columns of the rows. A column holds exact ints only, or
        exact floats and strs and, at the depth of a field, tuples of exact
        strs: a tuple's text is made once, each distinct tuple is checked
        once, and an int is never looked up among equal floats. Any other
        column raises TypeError."""
        cols = list(zip(*self.rows))
        in_point = [a > 0 for a in self.fields.values() for _ in range(a or 1)]
        for slot, (col, point) in enumerate(zip(cols, in_point)):
            kinds = set(map(type, col))
            if kinds == {int}:
                continue
            bad = [t.__name__ for t in
                   kinds - (_POINT_TYPES if point else _FIELD_TYPES)]
            if tuple in kinds and not bad:
                items = chain.from_iterable(
                    v for v in set(col) if type(v) is tuple)
                bad = ["tuple of " + t.__name__
                       for t in set(map(type, items)) - {str}]
            if bad:
                raise TypeError(f"table fields {self.fields!r}, slot {slot}: "
                                f"cannot write {', '.join(sorted(bad))}")
        return cols


def _template(fields: dict, ind: str) -> str:
    """%-template of a row with these fields on a line indented ind: the
    field names quoted, sorted and %-escaped, a %s per slot, points as
    lists."""
    if not fields:
        return "{}"
    inner = ind + "  "
    point = inner + "  "

    def field(arity) -> str:
        if not arity:
            return "%s"
        return "[" + point + ("," + point).join(["%s"] * arity) + inner + "]"

    return "{" + inner + ("," + inner).join(
        [_quote(k).replace("%", "%%") + ": " + field(a)
         for k, a in fields.items()]) + ind + "}"


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
        if t is Table:
            return table(o, ind)
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
        template = _template(dict.fromkeys(names, 0), ind)
        keys = first.keys()
        return [template % tuple([value(row[k], inner) for k in names])
                if type(row) is dict and row.keys() == keys
                else value(row, ind)
                for row in o]

    def table(o: Table, ind: str) -> str:
        """One %-fill of the row template repeated. Each distinct value of
        a float or str column gets its text before the fill, floats all in
        one batch; zeros are never stored, so they reach the fill as
        floats, whose %s is their repr, sign and all, as do the ints of an
        int column, which never meet the float cache (1 == 1.0)."""
        rows = o.rows
        if not rows:
            return "[]"
        columns = o.columns()
        inner = ind + "  "
        texted = [col for col in columns if type(col[0]) is not int]
        new = set().union(*texted) - floats.keys()
        nonzero = [v for v in new if type(v) is float and v]
        for v in filterfalse(math.isfinite, nonzero):
            number(v)  # raises ValueError
        floats.update(zip(nonzero, map(float.__repr__, nonzero)))
        texts = dict(floats)
        for v in new:
            if type(v) is not float:
                texts[v] = value(v, inner + "  ")
        body = "[" + inner + ("," + inner).join(
            repeat(_template(o.fields, inner), len(rows))) + ind + "]"
        return body % tuple(chain.from_iterable(zip(*[
            col if type(col[0]) is int else map(texts.get, col, col)
            for col in columns])))

    def mapping(o, ind: str) -> str:
        if not o:
            return "{}"
        inner = ind + "  "
        return "{" + inner + ("," + inner).join(
            [key(k) + ": " + value(v, inner) for k, v in sorted(o.items())]
        ) + ind + "}"

    try:
        return (value(obj, "\n") + "\n").encode("ascii")
    finally:
        # the writers call each other through their closure cells, a cycle
        # that holds the repr cache until the collector runs; emptying the
        # cells frees both as the call returns
        del number, key, value, array, rows, table, mapping


def make_report(*, drawing=None, toolpath=None, physics=None, traces=None,
                totals=None, checks=None) -> dict:
    """A fresh report dict with every section present (empty by default)."""
    return {
        "version": REPORT_VERSION,
        "drawing": drawing if drawing is not None else {},
        "toolpath": toolpath if toolpath is not None else {},
        "physics": physics if physics is not None else [],
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
    """A report of this version, whose physics and traces are lists and
    whose every trace's physics index names a row of its physics table."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        report = json.loads(data)
    except json.JSONDecodeError as exc:
        raise DrawingFormatError(f"malformed report JSON: {exc}") from exc
    if not isinstance(report, dict) or report.get("version") != REPORT_VERSION:
        raise DrawingFormatError(f"report 'version' must be {REPORT_VERSION}")
    physics, traces = report.get("physics", []), report.get("traces", [])
    if not isinstance(physics, list) or not isinstance(traces, list):
        raise DrawingFormatError("report 'physics' and 'traces' must be lists")
    for k, trace in enumerate(traces):
        i = trace.get("physics") if isinstance(trace, dict) else None
        if type(i) is not int or not 0 <= i < len(physics):
            raise DrawingFormatError(
                f"report trace {k}: physics index {i!r} does not resolve")
    return report
