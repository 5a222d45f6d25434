"""Versioned JSON run reports with deterministic serialization.

Reports are dicts with a fixed set of sections; serialization sorts
keys and keeps Python's shortest round-trip float representation, so equal
reports always produce byte-identical files.

canonical_json is the one JSON writer of the package. Its bytes equal
json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True,
allow_nan=False) + "\\n". With an indent, json.dumps runs the json module's
pure-Python encoder, which yields every token separately. Here each
container is one str.join, each list of dicts that share their keys fills
one %-template per dict, and each nonzero float's repr is computed once.

The two large tables of a simulate report, its traces and its actions,
come as a Table: one flat tuple of floats and strings per row, read
straight from the records, with no dict or point list per row. One type
check runs over the whole table; then the texts of its distinct values
are made once, nonzero floats from the same repr cache, and all rows are
written by a single %-fill of their row templates joined, each template
derived from the sorted field names and the point arity. A table that
fails the check (a slot that is not exactly a float or a str, or a
strings field that is not a tuple of exact strs) is written the generic
way, from the dicts and lists it stands for (Table.plain), with the same
bytes.
"""

from __future__ import annotations

import json
import math
from itertools import chain, filterfalse, islice
from json.encoder import encode_basestring_ascii as _quote

from .errors import DrawingFormatError

REPORT_VERSION = 1

_SLOT_TYPES = {float, str}


class Table:
    """A JSON list whose rows are held flat, for canonical_json.

    shapes lists the forms a row may take. A shape is a dict of field name
    -> arity, names sorted, for rows written as objects, or a tuple of
    arities for rows written as arrays. A field of arity 0 is one slot,
    written as itself; arity k > 0 is k slots, written as a list of k (a
    point); arity None is one slot holding a tuple of strs, written as a
    list of any length, and is allowed only in a table of one shape. A row
    is the flat tuple of its fields' slots in field order, and its length
    picks its shape, so no two shapes may have the same number of slots.
    """

    __slots__ = ("rows", "_shapes")

    def __init__(self, shapes, rows: list[tuple]):
        by_length = {}
        for shape in shapes:
            if type(shape) is dict and list(shape) != sorted(shape):
                raise ValueError("table field names must be sorted")
            n = sum(a or 1 for a in _arities(shape))
            if by_length.setdefault(n, shape) is not shape:
                raise ValueError(f"two table shapes have {n} slots")
        if len(by_length) > 1 and any(None in _arities(s) for s in shapes):
            raise ValueError("a table with a strings field has one shape")
        if not set(map(len, rows)) <= by_length.keys():
            raise ValueError("a table row has no shape of its length")
        self.rows = rows
        self._shapes = by_length

    def plain(self) -> list:
        """The rows as the dicts and lists they stand for."""
        out = []
        for row in self.rows:
            shape = self._shapes[len(row)]
            slots = iter(row)
            fields = [list(islice(slots, a)) if a else next(slots)
                      for a in _arities(shape)]
            out.append(dict(zip(shape, fields)) if type(shape) is dict
                       else fields)
        return out

    def templates(self, ind: str) -> dict[int, str]:
        """Row length -> %-template of such a row on a line indented ind,
        with one %s per slot."""
        return {n: _template(shape, ind) for n, shape in self._shapes.items()}

    def typed(self) -> bool:
        """Whether every slot is exactly a float or a str, and every
        arity-None slot a tuple of exact strs."""
        rows = self.rows
        shapes = list(self._shapes.values())
        if not rows or len(shapes) > 1 or None not in _arities(shapes[0]):
            return set(map(type, chain.from_iterable(rows))) <= _SLOT_TYPES
        columns = zip(*rows)  # one shape, so every row has the same length
        slots, tuples = [], []
        for arity in _arities(shapes[0]):
            for _ in range(arity or 1):
                (tuples if arity is None else slots).append(next(columns))
        return (set(map(type, chain.from_iterable(slots))) <= _SLOT_TYPES
                and set(map(type, chain.from_iterable(tuples))) <= {tuple}
                and set(map(type, chain.from_iterable(
                    chain.from_iterable(tuples)))) <= {str})


def _arities(shape) -> tuple:
    return tuple(shape.values()) if type(shape) is dict else shape


def _template(shape, ind: str) -> str:
    """%-template of a row of this shape on a line indented ind: the field
    names quoted, sorted and %-escaped, a %s per slot, points as lists."""
    if not shape:
        return "{}" if type(shape) is dict else "[]"
    inner = ind + "  "
    point = inner + "  "

    def field(arity) -> str:
        if not arity:
            return "%s"
        return "[" + point + ("," + point).join(["%s"] * arity) + inner + "]"

    if type(shape) is dict:
        return "{" + inner + ("," + inner).join(
            [_quote(k).replace("%", "%%") + ": " + field(a)
             for k, a in shape.items()]) + ind + "}"
    return "[" + inner + ("," + inner).join(map(field, shape)) + ind + "]"


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

    def numbers(new: list) -> None:
        """number() for many nonzero floats at once."""
        for o in filterfalse(math.isfinite, new):
            number(o)  # raises ValueError
        floats.update(zip(new, map(float.__repr__, new)))

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
        template = "{" + inner + ("," + inner).join(
            [_quote(k).replace("%", "%%") + ": %s" for k in names]
        ) + ind + "}"
        keys = first.keys()
        return [template % tuple([value(row[k], inner) for k in names])
                if type(row) is dict and row.keys() == keys
                else value(row, ind)
                for row in o]

    def table(o: Table, ind: str) -> str:
        """One %-fill of the row templates joined. Each distinct value gets
        its text before the fill, floats all in one batch; zeros are never
        stored, so they reach the fill as floats, whose %s is their repr,
        sign and all. A table that fails the type check is written as the
        list it stands for."""
        rows = o.rows
        if not rows:
            return "[]"
        if not o.typed():
            return array(o.plain(), ind)
        inner = ind + "  "
        new = set(chain.from_iterable(rows)) - floats.keys()
        numbers([v for v in new if type(v) is float and v])
        texts = dict(floats)
        for v in new:
            if type(v) is not float:
                texts[v] = value(v, inner + "  ")
        templates = o.templates(inner)
        body = "[" + inner + ("," + inner).join(
            map(templates.__getitem__, map(len, rows))) + ind + "]"
        return body % tuple(map(texts.get, chain.from_iterable(rows),
                                chain.from_iterable(rows)))

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
        del number, numbers, key, value, array, rows, table, mapping


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
