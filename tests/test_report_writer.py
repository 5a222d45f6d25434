"""The canonical JSON writer against json.dumps, its byte oracle."""

import enum
import gc
import json
import math
import random
import tracemalloc
import warnings
from collections import OrderedDict
from itertools import islice
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SAMPLES, expanded_traces, v1_trace_rows
from lmprint import (PVC_FILM, TraceSegment, angle_at_force, cli,
                     grams_to_newtons, make_report, read_report, write_report)
from lmprint.errors import DomainError
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
    report = {"version": 3, "traces": [
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
flag_tuples = st.lists(st.sampled_from(["slip-risk", "speed-warning", "%s",
                                        "é", ""]), max_size=3).map(tuple)
# values json takes that the table path must not: True hash-hits 1.0 and 1
# is an int equal to it (an int column of exact ints is fine, a column
# mixing ints with anything is not); np.float64 and Real are float
# subclasses; a tuple of anything but exact strs has no text of its own,
# and one in a point would be written a level deeper than a field's
odd_slot_values = st.sampled_from([True, False, 1, np.float64(1.0),
                                   np.float64(-0.0), Real(2.5), Real(-0.0),
                                   (1.0,), (True,), ("slip-risk", -0.0)])
# int slots, most of them equal to a float of SLOT_FLOATS
int_values = st.integers(-2, 3) | st.sampled_from(ODD_INTS)
arities = st.sampled_from([0, 0, 1, 2, 3])


def plain(table: Table) -> list:
    """The rows of a table as the dicts they stand for: the json.dumps
    oracle of the table path."""
    out = []
    for row in table.rows:
        slots = iter(row)
        out.append({k: list(islice(slots, a)) if a else next(slots)
                    for k, a in table.fields.items()})
    return out


def _row(draw, fields, odd: bool, int_slots: set) -> tuple:
    """A row with these fields; int_slots are its slots drawn as ints. A
    field holds tuples in some rows."""
    slots = []
    strings = draw(st.booleans())
    for arity in fields.values():
        for _ in range(arity or 1):
            if odd and draw(st.integers(0, 3)) == 0:
                v = draw(odd_slot_values | flag_tuples)
            elif len(slots) in int_slots:
                v = draw(int_values)
            else:
                v = draw(flag_tuples if strings and not arity
                         else slot_values)
            slots.append(v)
    return tuple(slots)


def _typed_oracle(fields, rows) -> bool:
    """The table path's type rule, slot by slot: each column holds exact
    ints only, or exact floats and strs and, in a field of arity 0, tuples
    of exact strs."""
    in_point = [a > 0 for a in fields.values() for _ in range(a or 1)]
    for k, point in enumerate(in_point):
        column = [row[k] for row in rows]
        if all(type(v) is int for v in column):
            continue
        for v in column:
            if not (type(v) in (float, str) or (
                    not point and type(v) is tuple
                    and all(type(s) is str for s in v))):
                return False
    return True


@st.composite
def tables(draw):
    """A Table and whether its every column passes the type check."""
    names = sorted(draw(st.lists(texts, min_size=1, max_size=5,
                                 unique=True)))
    fields = {k: draw(arities) for k in names}
    odd = draw(st.booleans())
    int_slots = draw(st.sets(st.integers(0, 11), max_size=2))
    rows = [_row(draw, fields, odd, int_slots)
            for _ in range(draw(st.integers(0, 8)))]
    return Table(fields, rows), _typed_oracle(fields, rows)


@settings(max_examples=300, deadline=None)
@given(tables(), st.lists(slot_values | odd_slot_values, max_size=4))
@example((Table({"x": 0}, [(0.0,), (-0.0,), (0.0,), (-0.0,)]), True), [])
@example((Table({"x": 0, "y": 2}, [(5e-324, 1e16, 1e22)] * 2), True), [])
@example((Table({"%": 0, "%s": 1, "a%%b": 0},
                [(0.5, "%d", ("%s",)), (1.5, "%", ())]), True), [])
@example((Table({"a": 0, "p": 2}, [(np.float64(0.1), 1.0, 2.0)]), False), [])
@example((Table({"a": 0, "b": 0}, [(Real(2.5), Real(-0.0))]), False), [2.5])
@example((Table({"v": 0}, [(1.0,), (True,), (1,)]), False), [1.0])
@example((Table({"a": 0, "b": 0}, [(True, False), ("move", 0.0)]), False),
         [])
@example((Table({"f": 0, "p": 2}, [((), 1.0, 2.0), (1.0, ("a",), 2.0)]),
          False), [])
@example((Table({"f": 0}, [(("a",),), ((1.0,),), ((True,),)]), False), [])
@example((Table({"i": 0, "p": 2}, [(1, 1.0, 0.0), (0, -0.0, 1.0)]), True),
         [1.0, 2.0])
@example((Table({"i": 0}, [(1,), (1.0,)]), False), [])
@example((Table({"flags": 0}, [(("a", ["b"]),)]), False), [])
def test_table_bytes_equal_json_dumps(table_and_typed, before):
    """The table path against json.dumps of the rows it stands for, inside
    a document whose earlier floats already fill the text cache; a table
    that fails the type check raises TypeError."""
    table, typed = table_and_typed
    doc = {"a": before, "b": {"rows": table}}
    if not typed:
        with pytest.raises(TypeError):
            table.columns()
        with pytest.raises(TypeError):
            canonical_json(doc)
        return
    table.columns()
    assert canonical_json(doc) == oracle({"a": before,
                                          "b": {"rows": plain(table)}})


def test_table_int_slots_bytes_equal_json_dumps():
    # index 1 and coordinate 1.0 are one dict key: each is written as
    # itself, whichever the document held first
    rows = [(1.0, 0.0, 1), (0.0, 1.0, 0), (-0.0, 2.0, 2), (1.0, 1.0, 1)]
    table = Table({"at": 2, "physics": 0}, rows)
    doc = {"a": [1.0, 2.0], "t": table, "z": [1, 2]}
    written = canonical_json(doc)
    assert written == oracle({**doc, "t": plain(table)})
    assert b'"physics": 1\n' in written and b'"physics": 1.0' not in written


def test_table_bool_slot_raises_type_error():
    # True == 1 == 1.0, and json writes it as true: a bool is no int slot
    table = Table({"f": 0, "i": 0}, [(1.0, 1), (2.0, True)])
    with pytest.raises(TypeError, match=r"^table fields \{'f': 0, 'i': 0\}, "
                                        r"slot 1: cannot write bool, int$"):
        canonical_json({"t": table})


@pytest.mark.parametrize("fields, row, slot, names", [
    ({"a": 0, "p": 2}, (1.0, 2.0, np.float64(3.0)), 2, "float64"),
    ({"a": 0, "p": 2}, (1.0, ("a",), 3.0), 1, "tuple"),
    ({"flags": 0}, (("a", 1.0),), 0, "tuple of float"),
], ids=["float-subclass", "tuple-in-point", "non-str-flag"])
def test_table_type_error_names_shape_and_slot(fields, row, slot, names):
    table = Table(fields, [row])
    with pytest.raises(TypeError) as caught:
        canonical_json([table])
    assert str(caught.value) \
        == f"table fields {fields!r}, slot {slot}: cannot write {names}"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["first-row", "later-row"])
def test_table_non_finite_float_raises_value_error(bad, where):
    rows = [(1.0, 2.0, ()), (3.0, 4.0, ("slip-risk",)), (1.0, 2.0, ())]
    if where == "first-row":
        rows[0] = (bad, 2.0, ())
    else:
        rows[2] = (1.0, bad, ())
    table = Table({"a": 0, "b": 0, "flags": 0}, rows)
    table.columns()  # passes the type check
    with pytest.raises(ValueError):
        canonical_json({"t": table})
    with pytest.raises(ValueError):
        json.dumps(plain(table), sort_keys=True, indent=2, allow_nan=False)


# calibration and policy numbers a config may give as JSON ints
INT_CONFIG = {"speed_calibration": {"mm_s_per_unit": 4},
              "pressure_calibration": {"anchors": [[0, 0], [60, 188]]},
              "policy": {"threshold_angle_deg": 135, "slowdown_factor": 1,
                         "fillet_radius_mm": 1}}


@pytest.mark.parametrize("ints", [False, True],
                         ids=["sample-config", "int-config"])
@pytest.mark.parametrize("strategy", ["lift-and-retap", "slowdown",
                                      "fillet"])
@pytest.mark.parametrize("name", ["straight-line", "square", "grid-antenna",
                                  "ic-sketch"])
def test_every_cli_table_passes_the_type_check(name, strategy, ints,
                                               tmp_path):
    # the simulate traces hold exact floats, ints and str tuples only, so
    # canonical_json needs no other way to write them; the plan's actions
    # go through the generic writer
    doc = json.loads((SAMPLES / "config.json").read_bytes())
    if ints:
        doc = {**doc, **INT_CONFIG}
    doc["policy"] = {**doc["policy"], "strategy": strategy}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    args = cli.build_parser().parse_args([
        "simulate", "--config", str(config), "--drawing",
        str(SAMPLES / f"{name}.json"), "--speed", "10", "--pressure", "30"])
    env, _, toolpath = cli._pipeline(args)
    actions = cli._action_table(toolpath)
    assert canonical_json(actions) == oracle(actions)
    _, traces = cli._trace_sections(cli.simulate(toolpath, env),
                                    env.substrate)
    traces.columns()


@pytest.mark.parametrize("fields, rows", [
    ({"b": 0, "a": 0}, [(1.0, 2.0)]),                    # names not sorted
    ({"a": 0, "p": 2}, [(1.0, 2.0, 3.0), (1.0, 2.0)]),   # a 2-slot row
], ids=["unsorted", "bad-row"])
def test_table_rejects_bad_shapes_and_rows(fields, rows):
    with pytest.raises(ValueError):
        Table(fields, rows)


def test_write_report_leaves_no_cyclic_garbage():
    # the writer's nested functions call each other through closure cells;
    # with the collector off, a cycle among them would keep the call's
    # float cache alive after it returns (over 1 MB for these 16 000
    # floats), so what stays allocated must be its output alone
    rng = random.Random(11)
    rows = [(rng.random(), rng.random(), -rng.random(), rng.random())
            for _ in range(4000)]
    report = make_report(traces=Table({"a": 0, "p": 2, "w": 0}, rows),
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


# --- the version-2 trace and physics tables against the version-1 rows

# physics values and coordinates from one small pool: indices 0-3 equal
# coordinates, -0.0 equals 0.0, and 94 g is past pvc-film's angle table.
# A trace's speed must be over 0 in m/s, so speeds come from the pool less
# 0.0, -0.0 and 5e-324 (test_a_trace_speed_of_0_m_s_is_refused)
PHYSICS_VALUES = [0.0, -0.0, 1.0, 2.0, 3.0, 94.0, 1.5e-4, 5e-324, 1 / 3]
NO_SPEEDS = [0.0, -0.0, 5e-324]
COORDS = [0.0, -0.0, 1.0, 2.0, 3.0, 2.5]
PHYSICS_FIELDS = ("contact_angle_deg", "creep", "flux_m3_s", "pressure_g",
                  "speed_mm_s", "width_m")


@pytest.mark.parametrize("speed", NO_SPEEDS)
def test_a_trace_speed_of_0_m_s_is_refused(speed):
    with pytest.raises(DomainError):
        TraceSegment(start=(0.0, 0.0), end=(1.0, 0.0), width_m=1.0,
                     flux_m3_s=0.0, creep=0.0, contact_angle_deg=2.0,
                     speed_mm_s=speed, pressure_g=94.0)


@st.composite
def simulations(draw):
    """A result's traces, each taking one of up to 6 physics tuples."""
    values = st.sampled_from(PHYSICS_VALUES)
    speeds = st.sampled_from([v for v in PHYSICS_VALUES
                              if v not in NO_SPEEDS])
    fields = [speeds if f == "speed_mm_s" else values for f in PHYSICS_FIELDS]
    coords = st.sampled_from(COORDS) | st.floats(-10.0, 10.0)
    pool = draw(st.lists(st.tuples(*fields), min_size=1, max_size=6))
    traces = []
    for _ in range(draw(st.integers(0, 12))):
        physics = dict(zip(PHYSICS_FIELDS, draw(st.sampled_from(pool))))
        traces.append(TraceSegment(
            start=(draw(coords), draw(coords)),
            end=(draw(coords), draw(coords)),
            flags=draw(flag_tuples), **physics))
    return SimpleNamespace(traces=tuple(traces))


def _clamps(pressure_g: float) -> bool:
    """Whether angle_at_force warns that it clamps this pressure's force."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        angle_at_force(PVC_FILM, grams_to_newtons(pressure_g))
    return bool(caught)


@settings(max_examples=200, deadline=None)
@given(simulations())
@example(SimpleNamespace(traces=(
    TraceSegment(start=(1.0, 0.0), end=(2.0, 3.0), width_m=1.0,
                 flux_m3_s=0.0, creep=-0.0, contact_angle_deg=2.0,
                 speed_mm_s=3.0, pressure_g=94.0),
    TraceSegment(start=(0.0, 1.0), end=(1.0, -0.0), width_m=1.0,
                 flux_m3_s=-0.0, creep=0.0, contact_angle_deg=2.0,
                 speed_mm_s=3.0, pressure_g=94.0),
    TraceSegment(start=(2.0, 2.0), end=(0.0, 1.0), width_m=1.0,
                 flux_m3_s=0.0, creep=-0.0, contact_angle_deg=2.0,
                 speed_mm_s=3.0, pressure_g=94.0))))
def test_v2_traces_expand_to_the_v1_rows(result):
    physics, traces = cli._trace_sections(result, PVC_FILM)
    blob = write_report(make_report(physics=physics, traces=traces))
    assert blob == oracle(json.loads(blob))
    assert expanded_traces(read_report(blob)) == v1_trace_rows(result.traces)
    # one row per distinct physics tuple, bit for bit, in first-use order
    firsts = dict.fromkeys(repr(tuple(getattr(t, k) for k in PHYSICS_FIELDS))
                           for t in result.traces)
    assert [repr(tuple(p[k] for k in PHYSICS_FIELDS))
            for p in physics] == list(firsts)
    assert [p["clamped"] for p in physics] \
        == [_clamps(p["pressure_g"]) for p in physics]
