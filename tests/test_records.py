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
from conftest import sample
from lmprint.core import Record, replace

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
    nets = lmprint.extract_nets(result.traces, 0.0, pads=drawing.pads)
    return [drawing, env, env.policy, env.substrate, toolpath,
            *toolpath.actions[:3], lmprint.estimate(toolpath, env), result,
            *result.traces[:2], nets, *nets.nets[:2],
            lmprint.drc(result.traces, 0.1, 0.1, nets),
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


def test_circuit_nets_keep_their_traces_out_of_the_fields():
    drawing = sample("straight-line")
    env = lmprint.DEFAULT_ENVIRONMENT
    result = lmprint.simulate(lmprint.plan(
        drawing, lmprint.MachineSettings(10.0, 30.0), environment=env), env)
    nets = lmprint.extract_nets(result.traces, 0.0, pads=drawing.pads)
    assert nets.traces == result.traces
    assert "traces" not in lmprint.CircuitNets._fields
    bare = lmprint.CircuitNets(nets=nets.nets, touch_tolerance=0.0,
                               contacts=nets.contacts)
    assert bare.traces is None
    assert bare == nets and hash(bare) == hash(nets)
    assert "traces" not in repr(nets)


def test_circuit_nets_drop_their_traces_on_replace_and_refuse_them_built():
    drawing = sample("straight-line")
    env = lmprint.DEFAULT_ENVIRONMENT
    traces = lmprint.simulate(lmprint.plan(
        drawing, lmprint.MachineSettings(10.0, 30.0), environment=env),
        env).traces
    nets = lmprint.extract_nets(traces, 0.0, pads=drawing.pads)
    copy = replace(nets)
    assert copy == nets and copy.traces is None
    # drc finds the contacts again and reports the same result
    assert lmprint.drc(traces, 0.1, 0.1, copy) \
        == lmprint.drc(traces, 0.1, 0.1, nets)
    with pytest.raises(TypeError, match="traces"):
        lmprint.CircuitNets(nets=nets.nets, touch_tolerance=0.0,
                            traces=traces)

