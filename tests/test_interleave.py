import random
import sys

import pytest

from hypothesis import given, settings
import hypothesis.strategies as st

import shoelace.interleave as interleave_module

from shoelace.docio import load_document, save_document
from shoelace.exactlin import FieldSpec, Matrix, _fill, mat_mul, mat_scale
from shoelace.interleave import (
    Interleaving,
    InterleavingMorphism,
    _triangles,
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
    Representation,
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
    Barcode,
    Interval,
    Matching,
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


def _edge_changed(rep, e):
    """rep with the one entry of its 1x1 edge map e flipped, built past the
    checks: a target that differs from rep in a single edge entry."""
    edges = list(rep.edges)
    (j, k) = rep.proset.generating_edges[e]
    assert rep.dims[j] == rep.dims[k] == 1
    edges[e] = Matrix(rep.field, 1, 1, [[1 - edges[e].entries[0][0]]])
    return Representation._trusted(rep.proset, rep.field, rep.dims, tuple(edges))


def test_frame_check_compares_targets_that_precompose_did_not_record():
    """A target built outside precompose is compared with N(lam) or M(lam)
    by value: equal is accepted, one edge entry off is refused."""
    i, j = Interval(0, 2), Interval(1, 3)
    m, n = interval_to_module(i, W), interval_to_module(j, W)
    lam = lambda_eps(W, 1)
    f, g = canonical_pair(i, j, 1, W)
    x = Interleaving(m, n, lam, f, g)
    # on W = [-1, 4] at eps 1 the top clamp reads 0 from both, so the shifted
    # interval module is the module after the translation
    n_after, m_after = interval_to_module(j.shifted(1), W), interval_to_module(i.shifted(1), W)
    assert n_after._origin is None and n_after == f.target
    assert m_after._origin is None and m_after == g.target
    phi = NatTrans(m, n_after, f.components)
    psi = NatTrans(n, m_after, g.components)
    assert Interleaving(m, n, lam, phi, psi) == x
    assert Interleaving(m, n, lam, phi, g) == x
    assert Interleaving(m, n, lam, f, psi) == x
    # a record that names another module whose translate is equal: [-1, 3]
    # and [0, 3] agree at every image point of the shift
    other = precompose(interval_to_module(Interval(-1, 3), W), lam)
    same = precompose(interval_to_module(Interval(0, 3), W), lam)
    assert other == same and other._origin != same._origin
    n03 = interval_to_module(Interval(0, 3), W)
    # past the frame check, the zero maps fail the first triangle
    with pytest.raises(ValueError, match="^invalid interleaving: triangle for M"):
        Interleaving(m, n03, lam, zero_nat(m, other), zero_nat(n03, precompose(m, lam)))
    e = f.target.proset.generating_edges.index((1, 2))
    bad_n, bad_m = _edge_changed(f.target, e), _edge_changed(g.target, e)
    with pytest.raises(ValueError, match="^phi must map M to N after the translation$"):
        Interleaving(m, n, lam, NatTrans._trusted(m, bad_n, f.components), g)
    with pytest.raises(ValueError, match="^psi must map N to M after the translation$"):
        Interleaving(m, n, lam, f, NatTrans._trusted(n, bad_m, g.components))
    # a record that names another module, and a translate that differs
    with pytest.raises(ValueError, match="^phi must map M to N after the translation$"):
        Interleaving(m, n, lam, zero_nat(m, precompose(m, lam)), g)


def test_precompose_records_its_origin_outside_equality_and_hash():
    m = interval_to_module(Interval(1, 3), W)
    lam = lambda_eps(W, 1)
    after = precompose(m, lam)
    assert after._origin == (m, lam)
    assert after._origin[0] is m and after._origin[1] is lam
    plain = interval_to_module(Interval(0, 2), W)
    assert plain._origin is None
    assert after == plain and plain == after
    assert hash(after) == hash(plain)
    assert len({after, plain}) == 1
    with pytest.raises(AttributeError):
        after._origin = None


def _count_precompose(monkeypatch):
    """Rebind precompose in every module that calls it; returns the list of
    the callers' function names, one per call."""
    import shoelace.docio as docio_module
    import shoelace.rep as rep_module
    import shoelace.zed as zed_module

    callers = []

    def counting(m, lam):
        callers.append(sys._getframe(1).f_code.co_name)
        return precompose(m, lam)

    for module in (rep_module, zed_module, interleave_module, docio_module):
        monkeypatch.setattr(module, "precompose", counting)
    return callers


def test_frame_check_accepts_a_recorded_target_after_the_caches_are_cleared(monkeypatch):
    """The record is compared by equality, so modules rebuilt after the
    interval and translation caches are cleared still match it."""
    i, j = Interval(0, 2), Interval(1, 3)
    f, g = canonical_pair(i, j, 1, W, F5)
    interval_to_module.cache_clear()
    lambda_eps.cache_clear()
    m, n, lam = interval_to_module(i, W, F5), interval_to_module(j, W, F5), lambda_eps(W, 1)
    assert f.target._origin[0] is not n and f.target._origin == (n, lam)
    callers = _count_precompose(monkeypatch)
    x = Interleaving(m, n, lam, f, g)
    assert callers == []
    assert validate_interleaving(x) is None


def test_an_interleaved_op_builds_each_shifted_module_once_per_build(monkeypatch):
    """A warm canonical_pair, the public Interleaving, validate_interleaving,
    pack and unpack make two precompose calls, unpack's; loading an
    interleaving document makes two, its nat transes' targets."""
    w = Window(0, 12)
    i, j = Interval(2, 6), Interval(3, 7)
    canonical_pair(i, j, 1, w, F5)
    callers = _count_precompose(monkeypatch)
    f, g = canonical_pair(i, j, 1, w, F5)
    x = Interleaving(interval_to_module(i, w, F5), interval_to_module(j, w, F5),
                     lambda_eps(w, 1), f, g)
    assert validate_interleaving(x) is None
    assert unpack(pack(x)) == x
    assert callers == ["_assemble", "_assemble"]
    text = save_document("interleaving", x)
    callers.clear()
    assert load_document(text)[1] == x
    assert callers == ["_load_interleaving", "_load_interleaving"]


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


# Dense references for the differential tests below: the triangles, the
# packed edges and the morphism squares at every point and edge, with no
# zero-dimensional end skipped.

def _dense_triangles(x):
    p = x.m.proset
    lam = x.lam.mapping
    lamlam = compose_translations(x.lam, x.lam).mapping
    for i in range(p.n):
        lhs = mat_mul(x.psi.components[lam[i]], x.phi.components[i])
        if lhs != x.m.map(i, lamlam[i]):
            return f"triangle for M fails at {p.label(i)}"
        lhs = mat_mul(x.phi.components[lam[i]], x.psi.components[i])
        if lhs != x.n.map(i, lamlam[i]):
            return f"triangle for N fails at {p.label(i)}"
    return None


def _dense_pack(x):
    sh = shoelace(x.m.proset, x.lam)
    lam = x.lam.mapping
    dims = tuple(x.m.dims) + tuple(x.n.dims)
    edges = []
    for (a, b) in sh.generating_edges:
        (i, ip) = sh.origin(a)
        (j, jp) = sh.origin(b)
        if not ip and not jp:
            edges.append(x.m.map(i, j))
        elif ip and jp:
            edges.append(x.n.map(i, j))
        elif not ip:
            edges.append(mat_mul(x.n.map(lam[i], j), x.phi.components[i]))
        else:
            edges.append(mat_mul(x.m.map(lam[i], j), x.psi.components[i]))
    return Representation._trusted(sh, x.m.field, dims, tuple(edges))


def _dense_morphism_squares(g):
    lam = g.source.lam.mapping
    p = g.source.m.proset
    for i in range(p.n):
        lhs = mat_mul(g.target.phi.components[i], g.gm.components[i])
        rhs = mat_mul(g.gn.components[lam[i]], g.source.phi.components[i])
        if lhs != rhs:
            return f"phi square fails at {p.label(i)}"
        lhs = mat_mul(g.target.psi.components[i], g.gn.components[i])
        rhs = mat_mul(g.gm.components[lam[i]], g.source.psi.components[i])
        if lhs != rhs:
            return f"psi square fails at {p.label(i)}"
    return None


GAPPED = Window(0, 16)


def _gapped_interleaving(rng, field):
    """matching_interleaving of a random matching on GAPPED whose bars lie
    in [2, 6] or [10, 14], at eps 0 or 1: M and N vanish at the window's
    edges 0, 1, 15 and 16 and at 7, 8 and 9 in its middle, and inside each
    block wherever no bar lies."""
    while True:
        eps = rng.randint(0, 1)
        pairs = []
        try:
            for _ in range(rng.randint(1, 4)):
                base = rng.choice((3, 11))
                lo = base + rng.randint(0, 2)
                hi = rng.randint(lo, base + 2)
                pairs.append((Interval(lo, hi), Interval(lo + rng.randint(-eps, eps),
                                                         hi + rng.randint(-eps, eps))))
            s = Matching(Barcode([a for a, _ in pairs]), Barcode([b for _, b in pairs]),
                         pairs, eps)
        except ValueError:
            continue
        return matching_interleaving(s, GAPPED, field)


def _random_matrix(rng, field, rows, cols):
    return Matrix(field, rows, cols,
                  [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)])


def _tampered(rng, x):
    """x with one component of phi or psi replaced, at a point i where
    that map and the triangle of its side at i are not vacuous, by another
    matrix of its shape, assembled with no check."""
    lam = x.lam.mapping
    sides = []
    for i in range(x.m.proset.n):
        k = lam[lam[i]]
        if x.m.dims[i] and x.m.dims[k] and x.n.dims[lam[i]]:
            sides.append(("phi", i))
        if x.n.dims[i] and x.n.dims[k] and x.m.dims[lam[i]]:
            sides.append(("psi", i))
    if not sides:
        return None
    which, i = rng.choice(sides)
    t = getattr(x, which)
    old = t.components[i]
    new = _random_matrix(rng, x.m.field, old.rows, old.cols)
    if new == old:
        new = mat_scale(0, old)
    comps = t.components[:i] + (new,) + t.components[i + 1:]
    t = NatTrans._trusted(t.source, t.target, comps)
    phi, psi = (t, x.psi) if which == "phi" else (x.phi, t)
    return _fill(object.__new__(Interleaving), x.m, x.n, x.lam, phi, psi)


FIELDS = (F2, F5, FieldSpec(2 ** 31 - 1))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"F{f.p}")
def test_sparse_triangles_and_pack_agree_with_the_dense_loops(field):
    """_triangles, pack and validate_interleaving_morphism skip the
    equations and edges with a zero-dimensional end.  They give the dense
    loops' reports and modules, on interleavings that vanish at the window
    edges and in its middle, on random shoelace modules unpacked, and on
    copies of both tampered at a point that is not vacuous."""
    rng = random.Random(field.p)
    failed = {"triangles": 0, "squares": 0}
    for _ in range(30):
        base = _rand_proset(rng, max_n=5)
        xs = [_gapped_interleaving(rng, field),
              unpack(_rand_rep(rng, shoelace(base, _rand_translation(rng, base)), field))]
        for x in xs:
            assert _triangles(x) is None and _dense_triangles(x) is None
            v = pack(x)
            assert v == _dense_pack(x)
            assert unpack(v) == unpack(_dense_pack(x)) == x
            y = _tampered(rng, x)
            if y is not None:
                report = _triangles(y)
                assert report == _dense_triangles(y)
                failed["triangles"] += report is not None
            # squares of random components, with a wrong one where phi's
            # square is not vacuous
            gm = NatTrans._trusted(x.m, x.m, tuple(
                _random_matrix(rng, field, d, d) for d in x.m.dims))
            gn = NatTrans._trusted(x.n, x.n, tuple(
                _random_matrix(rng, field, d, d) for d in x.n.dims))
            g = InterleavingMorphism._trusted(x, x, gm, gn)
            report = validate_interleaving_morphism(g)
            assert report == _dense_morphism_squares(g)
            failed["squares"] += report is not None
            ident = InterleavingMorphism(x, x, _identity(x.m), _identity(x.n))
            assert validate_interleaving_morphism(ident) is None
    assert failed["triangles"] > 10 and failed["squares"] > 10, failed


def test_interleaving_checks_and_pack_take_products_only_where_both_ends_are_nonzero(monkeypatch):
    """On a 1024-point window, I[10,12] against I[11,13] at eps 1 over F_5
    has two triangles with both ends nonzero, one for M at 10 and one for
    N at 11, and a handful of cross edges with both ends nonzero.  The
    dense references take 2 products per point and 1 per cross edge."""
    w = Window(0, 1023)
    i, j = Interval(10, 12), Interval(11, 13)
    x = Interleaving(interval_to_module(i, w, F5), interval_to_module(j, w, F5),
                     lambda_eps(w, 1), *canonical_pair(i, j, 1, w, F5))
    lam = x.lam.mapping
    live = sum(bool(d[a] and d[lam[lam[a]]]) for d in (x.m.dims, x.n.dims)
               for a in range(w.size))
    assert live == 2
    sh = shoelace(x.m.proset, x.lam)
    dims = x.m.dims + x.n.dims
    cross = [(a, b) for (a, b) in sh.generating_edges
             if sh.origin(a)[1] != sh.origin(b)[1]]
    live_cross = sum(bool(dims[a] and dims[b]) for (a, b) in cross)
    calls = [0]

    def counting(a, b):
        calls[0] += 1
        return mat_mul(a, b)

    monkeypatch.setattr(interleave_module, "mat_mul", counting)
    assert validate_interleaving(x) is None
    assert calls[0] <= live
    calls[0] = 0
    v = pack(x)
    assert calls[0] <= live_cross < len(cross) // 100
    monkeypatch.undo()
    assert v == _dense_pack(x)
