import random

import pytest

from hypothesis import given, settings
import hypothesis.strategies as st

from shoelace.docio import load_document, save_document
from shoelace.exactlin import FieldSpec, Matrix, mat_scale
from shoelace.interleave import (
    Interleaving,
    InterleavingMorphism,
    pack,
    pack_morphism,
    scale_interleaving,
    square_interleave,
    transport_interleaving,
    unpack,
    unpack_morphism,
    untwist_square,
    upgrade_interleaving,
    validate_interleaving,
    validate_interleaving_morphism,
)
from shoelace.proset import (
    Translation,
    chain,
    compare_translations,
    compose_translations,
    identity_translation,
    induced_translation,
    shoelace,
)
from shoelace.rep import (
    NatTrans,
    precompose,
    restrict,
    validate_nat_trans,
    validate_representation,
    zero_nat,
    zero_representation,
)
from shoelace.selftest import (
    _rand_essential_matching,
    _rand_invertible,
    _rand_proset,
    _rand_rep,
    _rand_translation,
)
from shoelace.zed import (
    Interval,
    Window,
    canonical_pair,
    interval_to_module,
    lambda_eps,
    matching_interleaving,
    shoelace_window,
)

F2 = FieldSpec(2)
F5 = FieldSpec(5)

W = Window(-1, 4)


def _identity(m):
    return NatTrans(m, m, [Matrix.identity(m.field, d) for d in m.dims])


def _overlap_example(field=F2):
    """I[0,2] and I[1,3] with their canonical comparison maps at eps=1."""
    m = interval_to_module(Interval(0, 2), W, field)
    n = interval_to_module(Interval(1, 3), W, field)
    f, g = canonical_pair(Interval(0, 2), Interval(1, 3), 1, W, field)
    return Interleaving(m, n, lambda_eps(W, 1), f, g)


def test_identity_self_interleaving_is_valid():
    m = interval_to_module(Interval(0, 2), Window(0, 3))
    lam = identity_translation(m.proset)
    x = Interleaving(m, m, lam, _identity(m), _identity(m))
    assert validate_interleaving(x) is None


def test_canonical_overlap_maps_interleave():
    x = _overlap_example()
    assert validate_interleaving(x) is None


def test_zero_maps_fail_the_triangle():
    m = interval_to_module(Interval(0, 2), W)
    n = interval_to_module(Interval(1, 3), W)
    lam = lambda_eps(W, 1)
    with pytest.raises(ValueError,
                       match="invalid interleaving: triangle for M fails at 0"):
        Interleaving(m, n, lam,
                     zero_nat(m, precompose(n, lam)),
                     zero_nat(n, precompose(m, lam)))


def test_interleaving_constructor_rejects_mismatches():
    m = interval_to_module(Interval(0, 2), W)
    n = interval_to_module(Interval(1, 3), W)
    lam = lambda_eps(W, 1)
    f, g = canonical_pair(Interval(0, 2), Interval(1, 3), 1, W)
    with pytest.raises(ValueError, match="not defined on M's proset"):
        Interleaving(m, n, identity_translation(chain(3)), f, g)
    with pytest.raises(ValueError, match="different fields"):
        Interleaving(m, interval_to_module(Interval(1, 3), W, F5), lam, f, g)
    with pytest.raises(ValueError, match="phi must map M"):
        Interleaving(m, n, lam, zero_nat(m, n), g)
    with pytest.raises(ValueError, match="psi must map N"):
        Interleaving(m, n, lam, f, zero_nat(n, m))
    x = _overlap_example()
    with pytest.raises(AttributeError):
        x.lam = lam


def test_morphism_validation():
    x = _overlap_example()
    ident = InterleavingMorphism(x, x, _identity(x.m), _identity(x.n))
    assert validate_interleaving_morphism(ident) is None
    zero = InterleavingMorphism(x, x, zero_nat(x.m, x.m), zero_nat(x.n, x.n))
    assert validate_interleaving_morphism(zero) is None
    half = InterleavingMorphism._trusted(x, x, _identity(x.m), zero_nat(x.n, x.n))
    report = validate_interleaving_morphism(half)
    assert report == "phi square fails at 0"
    with pytest.raises(ValueError, match=f"invalid interleaving morphism: {report}"):
        InterleavingMorphism(x, x, _identity(x.m), zero_nat(x.n, x.n))


def test_morphism_constructor_rejects_mismatches():
    x = _overlap_example()
    y = upgrade_interleaving(x, lambda_eps(W, 2))
    with pytest.raises(ValueError, match="different translations"):
        InterleavingMorphism(x, y, _identity(x.m), _identity(x.n))
    with pytest.raises(ValueError, match="gm must map"):
        InterleavingMorphism(x, x, _identity(x.n), _identity(x.n))
    with pytest.raises(ValueError, match="gn must map"):
        InterleavingMorphism(x, x, _identity(x.m), _identity(x.m))


def test_pack_of_zero_interleaving_is_zero():
    p = chain(3)
    z = zero_representation(p, F2)
    lam = Translation(p, (1, 2, 2))
    x = Interleaving(z, z, lam,
                     zero_nat(z, precompose(z, lam)),
                     zero_nat(z, precompose(z, lam)))
    v = pack(x)
    assert v == zero_representation(shoelace(p, lam), F2)


def test_pack_overlap_example():
    x = _overlap_example()
    v = pack(x)
    assert validate_representation(v) is None
    assert v.proset.n == 12
    assert sum(v.dims) == 6
    assert restrict(v, "left") == x.m
    assert restrict(v, "right") == x.n
    # the lacing map at value 0 carries phi(0), which is the identity here
    i = W.index(0)
    lam_i = x.lam.mapping[i]
    assert v.map(i, 6 + lam_i) == Matrix.identity(F2, 1)


def test_pack_with_identity_translation_duplicates_maps():
    w = Window(0, 2)
    m = interval_to_module(Interval(0, 2), w)
    lam = identity_translation(m.proset)
    x = Interleaving(m, m, lam, _identity(m), _identity(m))
    v = pack(x)
    n0 = m.proset.n
    for (i, j) in m.proset.related_pairs:
        assert v.map(i, n0 + j) == m.map(i, j)
        assert v.map(n0 + i, j) == m.map(i, j)


def test_pack_unpack_round_trip_on_the_example():
    x = _overlap_example()
    v = pack(x)
    assert unpack(v) == x
    assert pack(unpack(v)) == v


def test_unpack_zero_representation():
    p = chain(2)
    lam = Translation(p, (1, 1))
    sh = shoelace(p, lam)
    x = unpack(zero_representation(sh, F2))
    assert validate_interleaving(x) is None
    assert x.m == zero_representation(p, F2)
    assert x.n == zero_representation(p, F2)


def test_unpack_rejects_non_shoelace_carriers():
    m = interval_to_module(Interval(0, 1), Window(0, 2))
    with pytest.raises(ValueError, match="shoelace carrier"):
        unpack(m)
    sh = shoelace_window(Window(0, 2), 1)
    with pytest.raises(ValueError, match="transfer to the full shoelace"):
        unpack(zero_representation(sh, F2))


def test_morphism_round_trip():
    x = _overlap_example()
    ident = InterleavingMorphism(x, x, _identity(x.m), _identity(x.n))
    t = pack_morphism(ident)
    assert validate_nat_trans(t) is None
    assert t == _identity(pack(x))
    assert unpack_morphism(t) == ident
    zero = InterleavingMorphism(x, x, zero_nat(x.m, x.m), zero_nat(x.n, x.n))
    tz = pack_morphism(zero)
    v = pack(x)
    assert tz == zero_nat(v, v)
    assert unpack_morphism(tz) == zero
    with pytest.raises(ValueError, match="shoelace carrier"):
        unpack_morphism(_identity(x.m))


def test_square_interleave_self_case():
    x = _overlap_example()
    sq = square_interleave(x, x)
    assert validate_interleaving(sq) is None
    v = pack(x)
    assert sq.m == v and sq.n == v
    assert sq.lam == induced_translation(v.proset, x.lam, twist=True)


def test_square_interleave_scalar_twist():
    a = _overlap_example(F5)
    b = scale_interleaving(a, 4)
    assert b.phi.components[W.index(0)] == mat_scale(4, a.phi.components[W.index(0)])
    assert b.psi.components[W.index(1)] == mat_scale(4, a.psi.components[W.index(1)])
    assert validate_interleaving(b) is None
    sq = square_interleave(a, b)
    assert validate_interleaving(sq) is None
    un = untwist_square(a, b)
    assert validate_interleaving(un) is None
    lam2 = compose_translations(a.lam, a.lam)
    assert un.lam == induced_translation(sq.m.proset, lam2, twist=False)


def test_square_interleave_rejects_mismatched_inputs():
    a = _overlap_example()
    f, g = canonical_pair(Interval(0, 2), Interval(0, 2), 1, W)
    b = Interleaving(a.m, a.m, a.lam, f, g)
    with pytest.raises(ValueError, match="same M and N"):
        square_interleave(a, b)
    c = upgrade_interleaving(a, lambda_eps(W, 2))
    with pytest.raises(ValueError, match="same translation"):
        square_interleave(a, c)
    # an invalid partner cannot be built, so it never reaches square_interleave
    with pytest.raises(ValueError, match="invalid interleaving: triangle"):
        Interleaving(a.m, a.n, a.lam,
                     zero_nat(a.m, precompose(a.n, a.lam)),
                     zero_nat(a.n, precompose(a.m, a.lam)))


def test_untwist_collapses_at_eps_zero():
    w = Window(0, 2)
    m = interval_to_module(Interval(0, 1), w)
    f, g = canonical_pair(Interval(0, 1), Interval(0, 1), 0, w)
    x = Interleaving(m, m, lambda_eps(w, 0), f, g)
    assert validate_interleaving(x) is None
    sq = square_interleave(x, x)
    un = untwist_square(x, x)
    assert validate_interleaving(sq) is None
    assert validate_interleaving(un) is None
    # at eps 0 every point is isomorphic to its primed twin, so the twisted
    # and plain lifts agree up to the preorder even though the maps differ
    assert sq.lam.mapping != un.lam.mapping
    assert compare_translations(sq.lam, un.lam) == "equal"


def test_upgrade_to_same_translation_is_identity():
    x = _overlap_example()
    assert upgrade_interleaving(x, x.lam) == x


def test_upgrade_overlap_example():
    x = _overlap_example()
    y = upgrade_interleaving(x, lambda_eps(W, 2))
    assert validate_interleaving(y) is None
    assert y.m == x.m and y.n == x.n
    z = upgrade_interleaving(x, lambda_eps(W, 3))
    assert validate_interleaving(z) is None


def test_upgrade_zero_interleaving_of_short_intervals():
    w = Window(0, 3)
    m = interval_to_module(Interval(0, 0), w)
    n = interval_to_module(Interval(2, 2), w)
    lam = lambda_eps(w, 1)
    x = Interleaving(m, n, lam,
                     zero_nat(m, precompose(n, lam)),
                     zero_nat(n, precompose(m, lam)))
    assert validate_interleaving(x) is None
    for eps in (2, 3):
        y = upgrade_interleaving(x, lambda_eps(w, eps))
        assert validate_interleaving(y) is None
        assert all(c.is_zero() for c in y.phi.components)


def test_upgrade_rejects_smaller_translation():
    x = _overlap_example()
    with pytest.raises(ValueError, match="lam <= gamma"):
        upgrade_interleaving(x, lambda_eps(W, 0))
    with pytest.raises(ValueError, match="same proset"):
        upgrade_interleaving(x, identity_translation(chain(3)))


def test_transport_along_isos():
    rng = random.Random(11)
    x = _overlap_example(F5)
    um = _conj_iso(rng, x.m)
    un = _conj_iso(rng, x.n)
    y = transport_interleaving(x, um, un)
    assert validate_interleaving(y) is None
    assert y.m == um.target and y.n == un.target
    assert y.lam == x.lam
    back = transport_interleaving(x, _identity(x.m), _identity(x.n))
    assert back == x
    with pytest.raises(ValueError, match="um must start"):
        transport_interleaving(x, un, un)


def _conj_iso(rng, m):
    from shoelace.selftest import _conjugate
    us = [_rand_invertible(rng, m.field, d) for d in m.dims]
    return _conjugate(m, us)[1]


def test_scale_interleaving():
    a = _overlap_example(F5)
    b = scale_interleaving(a, 2)
    assert validate_interleaving(b) is None
    i = W.index(0)
    assert b.phi.components[i] == mat_scale(2, a.phi.components[i])
    assert b.psi.components[W.index(1)] == mat_scale(3, a.psi.components[W.index(1)])
    assert scale_interleaving(a, 1) == a
    with pytest.raises(ValueError, match="nonzero"):
        scale_interleaving(a, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_pack_unpack_round_trip_random_matched_pairs(seed):
    rng = random.Random(seed)
    w = Window(-2, 8)
    eps = rng.randint(0, 2)
    lo = rng.randint(0, 4)
    hi = rng.randint(lo, 5)
    i = Interval(lo, hi)
    jlo = lo + rng.randint(-eps, eps)
    jhi = hi + rng.randint(-eps, eps)
    j = Interval(jlo, jhi) if jlo <= jhi else i
    field = FieldSpec(rng.choice((2, 5)))
    m = interval_to_module(i, w, field)
    n = interval_to_module(j, w, field)
    f, g = canonical_pair(i, j, eps, w, field)
    x = Interleaving(m, n, lambda_eps(w, eps), f, g)
    assert validate_interleaving(x) is None
    v = pack(x)
    assert validate_representation(v) is None
    assert unpack(v) == x
    assert pack(unpack(v)) == v


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_assembled_interleavings_pass_the_public_frame_check(seed):
    """Every interleaving the package assembles from components equals the
    one the public constructor builds, frame check included, from the same
    parts."""
    rng = random.Random(seed)
    field = FieldSpec(rng.choice((2, 5)))
    base = _rand_proset(rng, max_n=4)
    x = unpack(_rand_rep(rng, shoelace(base, _rand_translation(rng, base)), field))
    sigma, w = _rand_essential_matching(rng, need_pair=True)
    a = matching_interleaving(sigma, w, field)
    b = scale_interleaving(a, rng.randrange(1, field.p))
    built = [x, a, b, square_interleave(a, b), untwist_square(a, b),
             upgrade_interleaving(a, compose_translations(a.lam, a.lam))]
    built += [load_document(save_document("interleaving", y))[1] for y in (x, a)]
    for y in built:
        assert Interleaving(y.m, y.n, y.lam, y.phi, y.psi) == y
