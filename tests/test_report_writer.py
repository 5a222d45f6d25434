"""The canonical JSON writer against json.dumps, its byte oracle."""

import enum
import gc
import json
import math
import random
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lmprint import make_report, write_report
from lmprint.report import Table, canonical_json


def oracle(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True)
            + "\n").encode("ascii")


ODD_TEXT = ["", "%", "%s", "a%%b", "%(x)s", '"', "\\", "\x00", "\x1f",
            "\x7f", "é", "ü%", " ", "雪", "\U0001f600", "\ud800"]
ODD_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
              2.225073858507201e-308, 1e16, -1e16, 1e-7, 1e22,
              1.7976931348623157e308, 0.1, 1 / 3]
ODD_INTS = [0, -1, 2 ** 53 + 1, 2 ** 64, -(2 ** 100), 10 ** 80]

texts = st.text() | st.sampled_from(ODD_TEXT)
floats = (st.floats(allow_nan=False, allow_infinity=False)
          | st.sampled_from(ODD_FLOATS))
ints = st.integers() | st.sampled_from(ODD_INTS)
scalars = st.none() | st.booleans() | ints | floats | texts
# json sorts keys before it writes them, so a dict's keys are all text or
# all numbers; numbers, True and False become quoted key text
number_keys = st.integers() | floats | st.booleans()


def _rows(children):
    """Lists whose first element is a dict; later elements have the same
    keys, the same keys in another order, other keys, or are no dict."""
    def build(names):
        same = st.lists(children, min_size=len(names),
                        max_size=len(names))
        later = (same.map(lambda vs: dict(zip(names, vs)))
                 | same.map(lambda vs: dict(zip(names[::-1], vs[::-1])))
                 | st.dictionaries(texts, children, max_size=3)
                 | children)
        return st.tuples(same, st.lists(later, max_size=6)).map(
            lambda t: [dict(zip(names, t[0])), *t[1]])
    return st.lists(texts, min_size=1, max_size=4, unique=True).flatmap(build)


trees = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=5)
                      | st.lists(children, max_size=5).map(tuple)
                      | st.dictionaries(texts, children, max_size=5)
                      | st.dictionaries(number_keys, children, max_size=4)
                      | _rows(children)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(trees)
@example([0.0, -0.0, 0.0, -0.0])
@example({"a": -0.0, "b": 0.0, "c": [0.0, -0.0]})
@example([{"a": 0.0, "b": 1.5}, {"a": -0.0, "b": 1.5}])
@example({-0.0: 1, 2.5: [], True: {}, 3: ()})
@example([{"%": 1, "%s": "%d", "%%": [], "é\x00": {}}, {"%s": 2, "%": 3,
                                                        "%%": [1], "é\x00": 0}])
@example([{"a": 1}, {"b": 1}, [], {"a": [{"z": None}]}, {"a": 2}])
def test_bytes_equal_json_dumps(tree):
    assert canonical_json(tree) == oracle(tree)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["first-row", "later-row", "nested",
                                   "key"])
def test_non_finite_float_raises_value_error(bad, where):
    rows = [{"a": 1.0, "b": [2.0]}, {"a": 3.0, "b": [4.0]}]
    if where == "first-row":
        rows[0]["a"] = bad
    elif where == "later-row":
        rows[1]["a"] = bad
    elif where == "nested":
        rows[1]["b"] = [4.0, {"c": bad}]
    else:
        rows = {bad: 1}
    with pytest.raises(ValueError):
        canonical_json(rows)
    with pytest.raises(ValueError):
        json.dumps(rows, sort_keys=True, indent=2, allow_nan=False)


@pytest.mark.parametrize("doc", [
    object(),
    [1.0, object()],
    {"a": object()},
    [{"a": 1, "b": 2}, {"a": 3, "b": object()}],
    [{"a": 1}, {"a": {1.5, 2.5}}],
    {"a": b"bytes"},
    {"a": np.int64(3)},
    {("tuple", "key"): 1},
], ids=["top", "list", "dict", "row", "set-in-row", "bytes", "numpy-int",
        "tuple-key"])
def test_other_types_raise_type_error(doc):
    with pytest.raises(TypeError):
        canonical_json(doc)
    with pytest.raises(TypeError):
        oracle(doc)


def test_mixed_key_types_raise_type_error():
    doc = {"a": 1, 2: 3}
    with pytest.raises(TypeError):
        canonical_json(doc)
    with pytest.raises(TypeError):
        oracle(doc)


def test_numpy_float64_written_as_float_repr():
    values = [np.float64(0.1), np.float64(-0.0), np.float64(1e16),
              np.float64(1) / 3]
    doc = {"x": values[0],
           "rows": [{"v": v, "w": [v]} for v in values]}
    text = canonical_json(doc).decode()
    for v in values:
        assert f'"v": {float.__repr__(v)}' in text
    assert "np." not in text
    assert canonical_json(doc) == oracle(doc)


def test_subclasses_written_as_json_writes_them():
    class Text(str):
        pass

    class Count(enum.IntEnum):
        THREE = 3

    class Real(float):
        def __repr__(self):
            return "never used"

    class Items(list):
        pass

    class Record(dict):
        pass

    doc = OrderedDict(b=Items([Text("t"), Count.THREE, Real(2.5)]),
                      a=Record(z=(Real(-0.0), True), y=[Record(k=1),
                                                        Record(k=2)]))
    assert canonical_json(doc) == oracle(doc)
    assert b"never used" not in canonical_json(doc)


def test_write_report_bytes_equal_json_dumps():
    report = {"version": 1, "traces": [
        {"start_mm": [0.0, -0.0], "creep": -0.0, "flags": [], "w": 1e-7},
        {"start_mm": [1e16, 0.1], "creep": 0.0, "flags": ["slip"],
         "w": 5e-324}]}
    assert write_report(report) == oracle(report)


# --- the table path -------------------------------------------------------

class Real(float):
    def __repr__(self):
        return "never used"

    __str__ = __repr__


# slot values: a small pool, so rows repeat values and hit the text cache
SLOT_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e22, -1e22, 0.1, 1 / 3,
               1.0, 2.5, 1.7976931348623157e308]
slot_values = (st.sampled_from(SLOT_FLOATS) | st.floats(allow_nan=False,
                                                        allow_infinity=False)
               | st.sampled_from(ODD_TEXT))
# values json takes that the table path must not: True hash-hits 1.0 and 1
# is an int equal to it; np.float64 and Real are float subclasses
odd_slot_values = st.sampled_from([True, False, 1, np.float64(1.0),
                                   np.float64(-0.0), Real(2.5), Real(-0.0)])
flag_tuples = st.lists(st.sampled_from(["slip-risk", "speed-warning", "%s",
                                        "é", ""]), max_size=3).map(tuple)
arities = st.sampled_from([0, 0, 1, 2, 3])


def _row(draw, shape, odd: bool) -> tuple:
    slots = []
    for arity in (shape.values() if type(shape) is dict else shape):
        if arity is None:
            slots.append(draw(flag_tuples))
            continue
        for _ in range(arity or 1):
            slots.append(draw(odd_slot_values if odd and draw(st.integers(
                0, 3)) == 0 else slot_values))
    return tuple(slots)


@st.composite
def tables(draw):
    """A Table of object rows (one shape, maybe with a strings field) or of
    array rows (shapes of distinct lengths), and whether every slot is a
    plain float or str."""
    if draw(st.booleans()):
        names = sorted(draw(st.lists(texts, min_size=1, max_size=5,
                                     unique=True)))
        shape = {k: draw(arities) for k in names}
        if draw(st.booleans()):
            shape[draw(st.sampled_from(names))] = None
        shapes = [shape]
    else:
        shapes, lengths = [], set()
        for arity_list in draw(st.lists(st.lists(arities, max_size=4),
                                        min_size=1, max_size=3)):
            n = sum(a or 1 for a in arity_list)
            if n not in lengths:
                lengths.add(n)
                shapes.append(tuple(arity_list))
    odd = draw(st.booleans())
    rows = [_row(draw, draw(st.sampled_from(shapes)), odd)
            for _ in range(draw(st.integers(0, 8)))]
    plain = not odd or all(type(v) in (float, str, tuple)
                           for row in rows for v in row)
    return Table(shapes, rows), plain


@settings(max_examples=300, deadline=None)
@given(tables(), st.lists(slot_values | odd_slot_values, max_size=4))
@example((Table([{"x": 0}], [(0.0,), (-0.0,), (0.0,), (-0.0,)]), True), [])
@example((Table([{"x": 0, "y": 2}], [(5e-324, 1e16, 1e22)] * 2), True), [])
@example((Table([{"%": 0, "%s": 1, "a%%b": None}],
                [(0.5, "%d", ("%s",)), (1.5, "%", ())]), True), [])
@example((Table([(0, 2)], [(np.float64(0.1), 1.0, 2.0)]), False), [])
@example((Table([(0, 0)], [(Real(2.5), Real(-0.0))]), False), [2.5])
@example((Table([{"v": 0}], [(1.0,), (True,), (1,)]), False), [1.0])
@example((Table([(0,), (0, 0)], [(1.0,), (True, False), ("move", 0.0)]),
          False), [])
def test_table_bytes_equal_json_dumps(table_and_plain, before):
    """The table path against json.dumps of the rows it stands for, inside
    a document whose earlier floats already fill the text cache."""
    table, plain = table_and_plain
    assert table.typed() == plain
    doc = {"a": before, "b": {"rows": table}}
    assert canonical_json(doc) == oracle({"a": before,
                                          "b": {"rows": table.plain()}})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["first-row", "later-row"])
def test_table_non_finite_float_raises_value_error(bad, where):
    rows = [(1.0, 2.0, ()), (3.0, 4.0, ("slip-risk",)), (1.0, 2.0, ())]
    if where == "first-row":
        rows[0] = (bad, 2.0, ())
    else:
        rows[2] = (1.0, bad, ())
    table = Table([{"a": 0, "b": 0, "flags": None}], rows)
    assert table.typed()
    with pytest.raises(ValueError):
        canonical_json({"t": table})
    with pytest.raises(ValueError):
        json.dumps(table.plain(), sort_keys=True, indent=2, allow_nan=False)


@pytest.mark.parametrize("shapes, rows", [
    ([{"b": 0, "a": 0}], [(1.0, 2.0)]),                  # names not sorted
    ([(0, 0), (2,)], [(1.0, 2.0)]),                      # two 2-slot shapes
    ([(0, None), (0,)], [(1.0, ())]),                    # strings, 2 shapes
    ([(0, 2)], [(1.0, 2.0)]),                            # no 2-slot shape
], ids=["unsorted", "same-length", "strings-in-two-shapes", "bad-row"])
def test_table_rejects_bad_shapes_and_rows(shapes, rows):
    with pytest.raises(ValueError):
        Table(shapes, rows)


def test_write_report_leaves_no_cyclic_garbage():
    # the writer's nested functions call each other through closure cells;
    # with the collector off, a cycle among them would keep the call's
    # float cache alive after it returns (over 1 MB for these 16 000
    # floats), so what stays allocated must be its output alone
    rng = random.Random(11)
    rows = [(rng.random(), rng.random(), -rng.random(), rng.random())
            for _ in range(4000)]
    report = make_report(traces=Table([{"a": 0, "p": 2, "w": 0}], rows),
                         totals={"sum": math.fsum(map(sum, rows))})
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = write_report(report)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert len(out) > 400_000
    assert kept - len(out) < 64 * 1024
