"""The small immutable value types: equality and hashing over their fields,
no equality with other types, no attribute assignment, and the reprs of
FieldSpec and Window."""

from fractions import Fraction

import pytest

from shoelace.exactlin import FieldSpec
from shoelace.proset import HeightFunction
from shoelace.zed import (
    Barcode,
    DecomposedShoelaceRep,
    HallWitness,
    Interval,
    Matching,
    Window,
    matching_to_rep,
    window_chain,
)


def _decomposed(eps):
    i02, i13 = Interval(0, 2), Interval(1, 3)
    s = Matching(Barcode([i02]), Barcode([i13]), [(i02, i13)], eps)
    return matching_to_rep(s, Window(-4, 9))


# (build from a key, a key, a different key, the tuple hashed)
CASES = {
    "FieldSpec": (FieldSpec, 5, 7, lambda x: (5,)),
    "Window": (lambda k: Window(*k), (0, 3), (0, 4), lambda x: (0, 3)),
    "HeightFunction": (HeightFunction, (0, "1/2", 2), (0, 1, 2),
                       lambda x: ((Fraction(0), Fraction(1, 2), Fraction(2)),)),
    "HallWitness": (lambda k: HallWitness(k, (Interval(0, 5),), ()),
                    "source", "target",
                    lambda x: ("source", (Interval(0, 5),), ())),
    "DecomposedShoelaceRep": (_decomposed, 1, 2,
                              lambda x: (x.window, x.epsilon, x.field, x.summands)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_equal_fields_give_equal_objects_and_hashes(name):
    build, key, other, fields = CASES[name]
    a, b = build(key), build(key)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(fields(a))
    assert a != build(other)
    assert a != fields(a) and fields(a) != a
    assert len({a, b, build(other)}) == 2


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_types_refuse_attribute_assignment(name):
    build, key, _, _ = CASES[name]
    obj = build(key)
    attr = type(obj).__slots__[0]
    before = getattr(obj, attr)
    with pytest.raises(AttributeError):
        setattr(obj, attr, before)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert getattr(obj, attr) is before


def test_window_is_not_its_pair_of_ends():
    assert Window(0, 3) != (0, 3)
    assert (0, 3) != Window(0, 3)
    assert FieldSpec(2) != 2


def test_field_spec_and_window_reprs():
    assert repr(FieldSpec(2)) == "FieldSpec(p=2)"
    assert repr(FieldSpec(2**31 - 1)) == "FieldSpec(p=2147483647)"
    assert repr(Window(-1, 4)) == "Window(lo=-1, hi=4)"


def test_a_second_equal_window_hits_the_window_chain_cache():
    first = window_chain(Window(0, 3))
    hits = window_chain.cache_info().hits
    assert window_chain(Window(0, 3)) is first
    assert window_chain.cache_info().hits == hits + 1
