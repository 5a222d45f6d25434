"""The canonical JSON writer against json.dumps, its byte oracle."""

import enum
import json
import math
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lmprint import write_report
from lmprint.report import canonical_json


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
