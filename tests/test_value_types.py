"""The immutable value types, every subclass of exactlin.Value: equality
and hashing over their fields, or by identity for FieldSpec, one instance
per prime, no equality with other types, no attribute assignment or
deletion, and the reprs of FieldSpec and Window."""

from fractions import Fraction

import pytest

from shoelace.exactlin import FieldSpec, Matrix, Value
from shoelace.interleave import InterleavingMorphism
from shoelace.proset import HeightFunction, Translation, chain, shoelace
from shoelace.rep import indicator_module, zero_nat
from shoelace.zed import (
    Barcode,
    DecomposedShoelaceRep,
    Ext,
    HallWitness,
    Interval,
    Matching,
    Window,
    matching_interleaving,
    matching_to_rep,
    window_chain,
)


def _matching(eps):
    i02, i13 = Interval(0, 2), Interval(1, 3)
    return Matching(Barcode([i02]), Barcode([i13]), [(i02, i13)], eps)


def _decomposed(eps):
    return matching_to_rep(_matching(eps), Window(-4, 9))


F2 = FieldSpec(2)

# (build from a key, a key, a different key, the tuple hashed)
CASES = {
    "Window": (lambda k: Window(*k), (0, 3), (0, 4), lambda x: (0, 3)),
    "HeightFunction": (lambda k: HeightFunction(chain(3), k), (0, "1/2", 2), (0, 1, 2),
                       lambda x: (chain(3), (Fraction(0), Fraction(1, 2), Fraction(2)))),
    "HallWitness": (lambda k: HallWitness(k, (Interval(0, 5),), ()),
                    "source", "target",
                    lambda x: ("source", (Interval(0, 5),), ())),
    "DecomposedShoelaceRep": (_decomposed, 1, 2,
                              lambda x: (x.window, x.epsilon, x.field, x.summands)),
    "Translation": (lambda k: Translation(chain(3), k), (1, 2, 2), (0, 2, 2),
                    lambda x: (chain(3), (1, 2, 2))),
    "Barcode": (lambda k: Barcode([Interval(0, 2)] * k), 2, 1,
                lambda x: ((Interval(0, 2), Interval(0, 2)),)),
    "Matching": (_matching, 1, 2,
                 lambda x: (x.source, x.target, x.pairs, x.epsilon)),
    "Representation": (lambda k: indicator_module(chain(3), k, F2), {0, 1}, {1, 2},
                       lambda x: (chain(3), F2, (1, 1, 0),
                                  (Matrix(F2, 1, 1, [[1]]), Matrix.zeros(F2, 0, 1)))),
    "NatTrans": (lambda k: zero_nat(*[indicator_module(chain(3), k, F2)] * 2),
                 {0, 1}, {1, 2},
                 lambda x: (x.source, x.target,
                            (Matrix.zeros(F2, 1, 1),) * 2 + (Matrix.zeros(F2, 0, 0),))),
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


def test_fieldspec_is_one_instance_per_prime():
    """FieldSpec(p) returns the one instance for p, so its equality and
    hash are identity's."""
    a, b = FieldSpec(5), FieldSpec(5)
    assert a is b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != FieldSpec(7)
    assert a != 5 and 5 != a and a != (5,)
    assert len({a, b, FieldSpec(7)}) == 2


@pytest.mark.parametrize("bad", [True, 5.0, 4])
def test_fieldspec_refuses_a_bad_characteristic_and_keeps_nothing(bad):
    """True and 5.0 hash and compare as 1 and 5, so the table of shared
    instances must not be asked before the checks run."""
    from shoelace import exactlin

    FieldSpec(5)
    before = dict(exactlin._FIELDS)
    with pytest.raises(ValueError):
        FieldSpec(bad)
    assert exactlin._FIELDS == before
    assert all(type(p) is int and f.p == p for p, f in exactlin._FIELDS.items())


def _interleaving():
    return matching_interleaving(_matching(1), Window(-4, 9))


def _interleaving_morphism():
    x = _interleaving()
    return InterleavingMorphism(x, x, zero_nat(x.m, x.m), zero_nat(x.n, x.n))


def _representation():
    return indicator_module(chain(3), {0, 1}, FieldSpec(2))


def _nat_trans():
    m = _representation()
    return zero_nat(m, m)


def _shoelace_proset():
    p = chain(3)
    return shoelace(p, Translation(p, (1, 2, 2)))


# one fresh instance of every value type
INSTANCES = {
    "Barcode": lambda: Barcode([Interval(0, 2)]),
    "DecomposedShoelaceRep": lambda: _decomposed(1),
    "Ext": lambda: Ext(3),
    "FieldSpec": lambda: FieldSpec(5),
    "HallWitness": lambda: HallWitness("source", (Interval(0, 5),), ()),
    "HeightFunction": lambda: HeightFunction(chain(2), (0, 1)),
    "Interleaving": _interleaving,
    "InterleavingMorphism": _interleaving_morphism,
    "Interval": lambda: Interval(0, 2),
    "Matching": lambda: _matching(1),
    "Matrix": lambda: Matrix(FieldSpec(2), 1, 1, [[1]]),
    "NatTrans": _nat_trans,
    "Proset": lambda: chain(3),
    "Representation": _representation,
    "ShoelaceProset": _shoelace_proset,
    "Translation": lambda: Translation(chain(3), (1, 2, 2)),
    "Window": lambda: Window(0, 3),
}


def _value_types(cls=Value):
    for sub in cls.__subclasses__():
        yield sub.__name__
        yield from _value_types(sub)


@pytest.mark.parametrize("name", sorted(_value_types()))
def test_value_types_refuse_attribute_assignment(name):
    """Neither setting nor deleting a field, a cache slot or a new name
    gets through, so a value shared by a cache cannot be changed."""
    obj = INSTANCES[name]()
    assert type(obj).__name__ == name
    for attr in (a for c in type(obj).__mro__ for a in c.__dict__.get("__slots__", ())):
        before = getattr(obj, attr)
        with pytest.raises(AttributeError, match=f"{name} is immutable"):
            setattr(obj, attr, before)
        with pytest.raises(AttributeError, match=f"{name} is immutable"):
            delattr(obj, attr)
        assert getattr(obj, attr) is before
    with pytest.raises(AttributeError):
        obj.extra = 1


def test_hall_witness_keeps_its_bars_as_tuples():
    listed = HallWitness("source", [Interval(0, 5)], [])
    tupled = HallWitness("source", (Interval(0, 5),), ())
    assert listed.bars == (Interval(0, 5),) and listed.partners == ()
    assert listed == tupled and hash(listed) == hash(tupled)


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
