"""Records against frozen dataclasses as the oracle.

Every public record class is a ``lmprint.core.Record``. For each, a
``dataclasses.make_dataclass(..., frozen=True)`` twin on the same fields
and defaults must agree with a Record on the same fields: equality, hash,
repr, ``replace``, the TypeError of a bad call and the AttributeError of
an assignment. The twins leave out each class's ``__post_init__``, whose
checks would turn most drawn values away; real instances from a sample
run are compared with their twins as well.
"""

import dataclasses
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lmprint
from conftest import coil_svg, sample
from lmprint.core import Record, replace, trusted
from lmprint.planner import Move
from lmprint.simulator import _FLAGS, TraceSegment

RECORDS = [obj for obj in map(lambda n: getattr(lmprint, n), lmprint.__all__)
           if isinstance(obj, type) and issubclass(obj, Record)]


@functools.cache
def _twin(cls):
    """A frozen dataclass with cls's name, fields and defaults."""
    specs = []
    for name in cls._fields:
        spec = [name, cls.__annotations__[name]]
        if name in cls._defaults:
            default = cls._defaults[name]
            spec.append(dataclasses.field(default_factory=lambda d=default: d)
                        if type(default).__hash__ is None
                        else dataclasses.field(default=default))
        specs.append(tuple(spec))
    twin = dataclasses.make_dataclass(cls.__name__, specs, frozen=True)
    twin.__qualname__ = cls.__qualname__
    return twin


@functools.cache
def _bare(cls):
    """A Record with cls's name, fields and defaults, and no checks."""
    return type(cls.__name__, (Record,), {
        "__annotations__": {n: cls.__annotations__[n] for n in cls._fields},
        **cls._defaults,
        "__qualname__": cls.__qualname__, "__module__": cls.__module__})


def test_every_record_is_public_and_counted():
    assert len(RECORDS) == 35
    for cls in RECORDS:
        assert cls._fields == vars(cls).get("__annotations__", {})
        assert [f.name for f in dataclasses.fields(_twin(cls))] \
            == list(cls._fields)


VALUES = st.one_of(st.none(), st.booleans(), st.integers(),
                   st.floats(allow_nan=False), st.text(max_size=4),
                   st.tuples(st.integers(), st.floats(allow_nan=False)))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_record_behaves_as_its_frozen_dataclass_twin(cls, data):
    bare, twin = _bare(cls), _twin(cls)
    names = tuple(cls._fields)
    a = {n: data.draw(VALUES, label=n) for n in names}
    changes = {n: data.draw(VALUES, label=f"new {n}")
               for n in data.draw(st.sets(st.sampled_from(names))
                                  if names else st.just(set()))}
    b = {**a, **changes}
    ra, rb, ta, tb = bare(**a), bare(**b), twin(**a), twin(**b)

    assert (ra == rb) == (ta == tb)
    assert (ra != rb) == (ta != tb)
    assert hash(ra) == hash(ta)
    assert repr(ra) == repr(ta)
    assert repr(replace(ra, **changes)) == repr(dataclasses.replace(
        ta, **changes)) == repr(rb)
    assert replace(ra, **changes) == rb
    assert ra != ta and ta != ra and ra != tuple(a.values())
    # another class on the same fields is another type
    assert ra != _bare.__wrapped__(cls)(**a)
    assert ta != _twin.__wrapped__(cls)(**a)

    values = [a[n] for n in names]
    assert bare(*values) == ra and repr(twin(*values)) == repr(ra)
    required = [n for n in names if n not in cls._defaults]
    given_ = {n: a[n] for n in required}
    assert repr(bare(**given_)) == repr(twin(**given_))

    bad_calls = [((*values, 0), {}),                # one too many
                 ((), {**a, "no_such_field": 0})]   # an unknown keyword
    if names:
        bad_calls.append(((values[0],), a))         # the first one twice
    if required:
        bad_calls.append(((), {n: a[n] for n in names if n != required[-1]}))
    for args, kwargs in bad_calls:
        with pytest.raises(TypeError):
            twin(*args, **kwargs)
        with pytest.raises(TypeError):
            bare(*args, **kwargs)

    for record in (ra, ta):
        for name in (*names, "no_such_field"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, names[0] if names else "no_such_field")


def _sample_records():
    """Real records from a sample run: a drawing, its plan, traces, nets."""
    drawing = sample("ic-sketch")
    env = lmprint.DEFAULT_ENVIRONMENT
    toolpath = lmprint.plan(drawing, lmprint.MachineSettings(10.0, 30.0),
                            environment=env)
    result = lmprint.simulate(toolpath, env)
    nets = lmprint.extract_nets(result.traces, 0.0, pads=drawing.pads,
                                clearance=0.1)
    return [drawing, env, env.policy, env.substrate, toolpath,
            *toolpath.actions[:3], lmprint.estimate(toolpath, env), result,
            *result.traces[:2], nets, *nets.nets[:2],
            lmprint.drc(nets, 0.1, 0.1),
            lmprint.segment_physics(10.0, 30.0, env)]


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_real_records_match_their_twins():
    for record in _sample_records():
        cls = type(record)
        values = {n: getattr(record, n) for n in cls._fields}
        twin = _twin(cls)(**values)
        assert repr(record) == repr(twin)
        assert replace(record) == record and replace(record) is not record
        try:
            expected = hash(twin)
        except TypeError:  # a dict or an array among the fields
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == expected


def test_replace_runs_post_init_and_rejects_unknown_fields():
    bead = lmprint.DEFAULT_BEAD
    with pytest.raises(lmprint.ConfigError):
        replace(bead, gap_width=bead.bead_radius)
    with pytest.raises(TypeError, match="no_such_field"):
        replace(bead, no_such_field=1.0)
    narrow = replace(bead, gap_width=1e-5)
    assert (narrow.gap_width, narrow.bead_radius) == (1e-5, bead.bead_radius)


def _straight_line_nets():
    drawing = sample("straight-line")
    env = lmprint.DEFAULT_ENVIRONMENT
    result = lmprint.simulate(lmprint.plan(
        drawing, lmprint.MachineSettings(10.0, 30.0), environment=env), env)
    return result.traces, lmprint.extract_nets(
        result.traces, 0.0, pads=drawing.pads, clearance=0.1)


def test_circuit_nets_keep_their_traces_as_a_field():
    traces, nets = _straight_line_nets()
    assert "traces" in lmprint.CircuitNets._fields
    assert nets.traces == traces
    built = lmprint.CircuitNets(nets=nets.nets, touch_tolerance=0.0,
                                traces=traces, contact_reach=0.1,
                                contacts=nets.contacts, pads=nets.pads)
    assert built == nets and hash(built) == hash(nets)
    assert built != replace(nets, traces=())


def test_replace_keeps_the_traces_of_circuit_nets_and_their_drc():
    traces, nets = _straight_line_nets()
    copy = replace(nets)
    assert copy == nets and copy.traces == traces
    assert lmprint.drc(copy, 0.1, 0.1) == lmprint.drc(nets, 0.1, 0.1)


def _typed(value):
    """value with the type of every part spelled out, tuples opened."""
    if type(value) is tuple:
        return tuple, tuple(map(_typed, value))
    return type(value), value


def _typed_fields(record):
    return [(name, _typed(value)) for name, value in vars(record).items()]


def _agree(record, public):
    assert type(record) is type(public)
    assert record == public and public == record
    assert hash(record) == hash(public) and repr(record) == repr(public)
    assert _typed_fields(record) == _typed_fields(public)
    with pytest.raises(AttributeError):
        record.no_such_field = 0


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_trusted_equals_the_public_constructor_of_a_bare_record(cls, data):
    # a bare record stores what it is given, as trusted() must be given
    fields = {n: data.draw(VALUES, label=n) for n in cls._fields}
    _agree(trusted(_bare(cls), dict(fields)), _bare(cls)(**fields))


POINTS = st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False))
FLOATS = st.floats(allow_nan=False)
SPEEDS = st.floats(min_value=0.0, exclude_min=True)


@settings(max_examples=200, deadline=None)
@given(to=POINTS, start=POINTS, speed=SPEEDS,
       values=st.lists(FLOATS, min_size=5, max_size=5),
       flags=st.sampled_from(list(_FLAGS.values())))
def test_trusted_moves_and_traces_equal_their_public_constructors(
        to, start, speed, values, flags):
    pressure, width, flux, creep, angle = values
    move = {"to": to, "speed_mm_s": speed, "pressure_g": pressure}
    _agree(trusted(Move, dict(move)), Move(**move))
    trace = {"start": start, "end": to, "width_m": width, "flux_m3_s": flux,
             "creep": creep, "contact_angle_deg": angle, "speed_mm_s": speed,
             "pressure_g": pressure, "flags": flags}
    _agree(trusted(TraceSegment, dict(trace)), TraceSegment(**trace))


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("strategy", ["fillet", "slowdown"])
def test_planned_moves_and_simulated_traces_equal_their_rebuilds(strategy):
    # plan and simulate make these records with trusted(); the public
    # constructor, run on the same fields, must store the very same values
    env = lmprint.DEFAULT_ENVIRONMENT
    env = replace(env, policy=replace(env.policy, strategy=strategy))
    drawings = [sample(name) for name in ("straight-line", "square",
                                          "grid-antenna", "ic-sketch")]
    drawings.append(lmprint.parse_drawing(coil_svg(seed=11), "svg-subset"))
    speeds = set()
    for drawing in drawings:
        toolpath = lmprint.plan(drawing, lmprint.MachineSettings(10.0, 30.0),
                                environment=env)
        moves = [a for a in toolpath.actions if type(a) is Move]
        traces = lmprint.simulate(toolpath, env).traces
        assert moves and traces
        for record in (*moves, *traces):
            _agree(record, type(record)(**vars(record)))
        speeds.update(m.speed_mm_s for m in moves)
    # slowdown slows the edges at sharp corners, fillet slows none
    assert speeds == ({40.0, 40.0 * env.policy.slowdown_factor}
                      if strategy == "slowdown" else {40.0})
