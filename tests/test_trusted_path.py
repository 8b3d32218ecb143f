"""The trusted construction paths and the shared shoelace carrier.

Proset, Translation, Representation, NatTrans, Interleaving,
InterleavingMorphism, Matching and DecomposedShoelaceRep are valid by
construction: each public constructor raises on the report of its one
check, and builders whose output is valid by construction skip it through
Proset._trusted, Translation._trusted, Representation._trusted,
NatTrans._trusted, interleave._assemble, InterleavingMorphism._trusted,
Matching._trusted and DecomposedShoelaceRep._trusted.  Each builder is
compared here with a reference built through the public constructors,
which must accept it, over selftest's random prosets and translations,
over window chains with their shoelace_window carriers and over random
barcode pairs.  shoelace(p, lam) builds its carrier once per translation,
through laced, and stores it there.
"""

import itertools
import random
import re

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import shoelace.interleave as interleave_module
import shoelace.proset as proset_module
import shoelace.rep as rep_module
import shoelace.zed as zed_module

from shoelace.exactlin import FieldSpec, Matrix, mat_inverse, mat_mul, mat_scale
from shoelace.interleave import (
    Interleaving,
    InterleavingMorphism,
    pack,
    pack_morphism,
    scale_interleaving,
    transport_interleaving,
    unpack,
    unpack_morphism,
    upgrade_interleaving,
    validate_interleaving,
    validate_interleaving_morphism,
)
from shoelace.proset import (
    Proset,
    ShoelaceProset,
    Translation,
    chain,
    compare_translations,
    compose_translations,
    identity_translation,
    induced_translation,
    power_translation,
    proset_from_pairs,
    shoelace,
    validate_translation,
)
from shoelace.rep import (
    NatTrans,
    Representation,
    chain_representation,
    direct_sum,
    indicator_sum,
    permutation_iso,
    precompose,
    restrict,
    validate_nat_trans,
    validate_representation,
    zero_nat,
)
from shoelace.selftest import (
    _conjugate,
    _rand_essential_matching,
    _rand_interval,
    _rand_invertible,
    _rand_proset,
    _rand_rep,
    _rand_translation,
)
from shoelace.zed import (
    NEG_INF,
    POS_INF,
    Barcode,
    DecomposedShoelaceRep,
    Interval,
    Matching,
    Window,
    _summand_key,
    canonical_pair,
    find_matching,
    interval_to_module,
    is_essential,
    iter_matchings,
    lambda_eps,
    match_or_witness,
    matching_interleaving,
    matching_to_rep,
    rep_to_matching,
    shoelace_window,
    short_pair_fails_star,
    validate_decomposed,
    validate_matching,
    window_chain,
)

from test_rep import _validate_all_triples

from test_proset import table

from test_zed import _outcome

FAMILIES = ["selftest", "window"]


def _base_and_translation(rng, family):
    """A proset and a valid translation of it, with the carriers that
    restrict and indicator_sum run on: shoelace(p, lam), and for a window
    also shoelace_window."""
    if family == "selftest":
        p = _rand_proset(rng, max_n=5)
        lam = _rand_translation(rng, p)
        return p, lam, [shoelace(p, lam)]
    lo = rng.randint(-5, 5)
    w = Window(lo, lo + rng.randint(0, 6))
    eps = rng.randint(0, 3)
    p, lam = window_chain(w), lambda_eps(w, eps)
    return p, lam, [shoelace(p, lam), shoelace_window(w, eps)]


def _check_trusted(got, ref):
    """got, from the trusted path, equals ref, which the public constructor
    built from every related pair, passes every check of the public
    constructor, and is functorial."""
    assert type(got.dims) is tuple
    # ref was given every related pair and checked each against its edges,
    # so == on the edges compares them all
    assert got == ref
    # the trusted builders store the generating edges and nothing else
    edges = got.proset.generating_edges
    assert type(got.edges) is tuple and len(got.edges) == len(edges)
    assert Representation(got.proset, got.field, got.dims, dict(zip(edges, got.edges))) == got
    assert validate_representation(got) is None


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_precompose_equals_the_public_construction(family, seed):
    rng = random.Random(seed)
    p, lam, _ = _base_and_translation(rng, family)
    field = FieldSpec(rng.choice((2, 5)))
    m = _rand_rep(rng, p, field)
    lm = lam.mapping
    ref = Representation(p, field, [m.dims[lm[i]] for i in range(p.n)],
                         {(i, j): m.map(lm[i], lm[j]) for (i, j) in p.related_pairs})
    _check_trusted(precompose(m, lam), ref)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_restrict_equals_the_public_construction(family, seed):
    rng = random.Random(seed)
    p, _, carriers = _base_and_translation(rng, family)
    field = FieldSpec(rng.choice((2, 5)))
    for sh in carriers:
        v = _rand_rep(rng, sh, field)
        for side, off in (("left", 0), ("right", p.n)):
            ref = Representation(p, field, v.dims[off:off + p.n],
                                 {(i, j): v.map(off + i, off + j)
                                  for (i, j) in p.related_pairs})
            _check_trusted(restrict(v, side), ref)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_pack_equals_the_public_construction(family, seed):
    rng = random.Random(seed)
    p, lam, carriers = _base_and_translation(rng, family)
    field = FieldSpec(rng.choice((2, 5)))
    x = unpack(_rand_rep(rng, carriers[0], field))
    n, lm = p.n, lam.mapping
    maps = {}
    for (a, b) in carriers[0].related_pairs:
        i, j = a % n, b % n
        if (a < n) == (b < n):
            maps[(a, b)] = (x.m if a < n else x.n).map(i, j)
        elif a < n:
            maps[(a, b)] = mat_mul(x.n.map(lm[i], j), x.phi.components[i])
        else:
            maps[(a, b)] = mat_mul(x.m.map(lm[i], j), x.psi.components[i])
    ref = Representation(shoelace(p, lam), field, x.m.dims + x.n.dims, maps)
    got = pack(x)
    _check_trusted(got, ref)
    assert got.proset is shoelace(p, lam)
    assert unpack(got) == x


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_indicator_sum_equals_the_public_construction(family, seed):
    rng = random.Random(seed)
    _, _, carriers = _base_and_translation(rng, family)
    field = FieldSpec(rng.choice((2, 5)))
    for q in carriers:
        # convex hulls of a few points, so every sum is functorial
        supports = []
        for _ in range(rng.randint(0, 4)):
            ends = rng.sample(range(q.n), rng.randint(0, min(q.n, 3)))
            supports.append({c for c in range(q.n)
                             if any(q.leq(a, c) and q.leq(c, b) for a in ends for b in ends)})
        got, positions = indicator_sum(q, supports, field)
        dims = [sum(x in s for s in supports) for x in range(q.n)]
        maps = {}
        for (a, b) in q.related_pairs:
            rows = [[int(positions[a][k] == col) for col in range(dims[a])]
                    for k, s in enumerate(supports) if b in s]
            maps[(a, b)] = Matrix(field, dims[b], dims[a], rows)
        _check_trusted(got, Representation(q, field, dims, maps))


def _public_rep(m):
    """m rebuilt through the public constructor from every related pair."""
    return Representation(m.proset, m.field, m.dims,
                          {pair: m.map(*pair) for pair in m.proset.related_pairs})


def _public_nat(t):
    return NatTrans(_public_rep(t.source), _public_rep(t.target), t.components)


def _check_nat(got, ref):
    """got, from a trusted builder, equals ref, which the test built through
    the public constructors, and the public constructors accept it."""
    assert type(got.components) is tuple
    assert got == ref == _public_nat(got)
    assert validate_nat_trans(got) is None


def _check_interleaving(got, ref):
    for t in (got.phi, got.psi):
        assert type(t.components) is tuple
    public = Interleaving(_public_rep(got.m), _public_rep(got.n), got.lam,
                          _public_nat(got.phi), _public_nat(got.psi))
    assert got == ref == public
    assert validate_interleaving(got) is None


def _entries(rows, cols, at):
    """A rows x cols list of lists, at(r, c) at each entry."""
    return [[at(r, c) for c in range(cols)] for r in range(rows)]


def _bar(rng, w):
    """An interval whose finite upper end leaves canonical_pair headroom."""
    lo = rng.randint(w.lo, w.hi - 1)
    hi = rng.randint(lo, w.hi - 1)
    return Interval(rng.choice([NEG_INF, lo]), rng.choice([POS_INF, hi]))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_canonical_pair_equals_the_public_construction(seed):
    rng = random.Random(seed)
    lo = rng.randint(-4, 4)
    w = Window(lo, lo + rng.randint(1, 8))
    eps = rng.randint(0, 3)
    field = FieldSpec(rng.choice((2, 5)))
    i, j = _bar(rng, w), _bar(rng, w)
    lam = lambda_eps(w, eps)
    m, n = interval_to_module(i, w, field), interval_to_module(j, w, field)
    f, g = canonical_pair(i, j, eps, w, field)
    _check_nat(f, NatTrans(m, precompose(n, lam), f.components))
    _check_nat(g, NatTrans(n, precompose(m, lam), g.components))


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_sums_and_zero_maps_equal_the_public_construction(family, seed):
    """zero_nat, direct_sum and permutation_iso, against dense references
    written on every related pair."""
    rng = random.Random(seed)
    p, _, _ = _base_and_translation(rng, family)
    field = FieldSpec(rng.choice((2, 5)))
    parts = [_rand_rep(rng, p, field, max_dim=2) for _ in range(rng.randint(0, 3))]
    a, b = _rand_rep(rng, p, field, max_dim=2), _rand_rep(rng, p, field, max_dim=2)
    _check_nat(zero_nat(a, b), NatTrans(a, b, [
        Matrix(field, b.dims[x], a.dims[x], _entries(b.dims[x], a.dims[x], lambda r, c: 0))
        for x in range(p.n)]))

    def dense_sum(ms):
        offs = [[sum(m.dims[x] for m in ms[:k]) for x in range(p.n)] for k in range(len(ms))]
        dims = [sum(m.dims[x] for m in ms) for x in range(p.n)]

        def block(x, y, r, c):
            # the part whose rows at y and columns at x hold (r, c), if any
            for k, m in enumerate(ms):
                rr, cc = r - offs[k][y], c - offs[k][x]
                if 0 <= rr < m.dims[y] and 0 <= cc < m.dims[x]:
                    return m.map(x, y).entries[rr][cc]
            return 0

        return Representation(p, field, dims, {
            (x, y): Matrix(field, dims[y], dims[x],
                           _entries(dims[y], dims[x], lambda r, c: block(x, y, r, c)))
            for (x, y) in p.related_pairs}), offs

    total, slices = direct_sum(parts, proset=p, field=field)
    ref, offs = dense_sum(parts)
    _check_trusted(total, ref)
    assert [[start for start, _ in row] for row in slices] == offs
    order = list(range(len(parts)))
    rng.shuffle(order)
    moved, moved_offs = dense_sum([parts[k] for k in order])
    # target row moved_offs[slot][x] + r copies source row offs[k][x] + r
    comps = []
    for x in range(p.n):
        ones = {(moved_offs[slot][x] + r, offs[k][x] + r)
                for slot, k in enumerate(order) for r in range(parts[k].dims[x])}
        comps.append(Matrix(field, moved.dims[x], ref.dims[x],
                            _entries(moved.dims[x], ref.dims[x],
                                     lambda r, c: int((r, c) in ones))))
    _check_nat(permutation_iso(parts, order, proset=p, field=field),
               NatTrans(ref, moved, comps))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_chain_representation_equals_the_public_construction(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    field = FieldSpec(rng.choice((2, 5, 7)))
    dims = [rng.randint(0, 3) for _ in range(n)]
    steps = [Matrix(field, dims[i + 1], dims[i],
                    _entries(dims[i + 1], dims[i], lambda r, c: rng.randrange(field.p)))
             for i in range(n - 1)]
    maps = {}
    for i in range(n):
        maps[(i, i)] = Matrix.identity(field, dims[i])
        for k in range(i + 1, n):
            maps[(i, k)] = mat_mul(steps[k - 1], maps[(i, k - 1)])
    _check_trusted(chain_representation(chain(n), field, dims, steps),
                   Representation(chain(n), field, dims, maps))


def _rand_interleaving(rng, family):
    _, _, carriers = _base_and_translation(rng, family)
    field = FieldSpec(rng.choice((2, 5)))
    return unpack(_rand_rep(rng, carriers[0], field, max_dim=2)), field


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_interleaving_builders_equal_the_public_construction(family, seed):
    """transport_interleaving, upgrade_interleaving, scale_interleaving and
    unpack_morphism, against components computed here and assembled through
    the public constructors."""
    rng = random.Random(seed)
    x, field = _rand_interleaving(rng, family)
    p, lam, lm = x.m.proset, x.lam, x.lam.mapping

    def public(m, n, gamma, phi, psi):
        return Interleaving(m, n, gamma, NatTrans(m, precompose(n, gamma), phi),
                            NatTrans(n, precompose(m, gamma), psi))

    us_m = [_rand_invertible(rng, field, d) for d in x.m.dims]
    us_n = [_rand_invertible(rng, field, d) for d in x.n.dims]
    m2, um = _conjugate(x.m, us_m)
    n2, un = _conjugate(x.n, us_n)
    inv_m = [mat_inverse(u) for u in us_m]
    inv_n = [mat_inverse(u) for u in us_n]
    _check_interleaving(transport_interleaving(x, um, un), public(
        m2, n2, lam,
        [mat_mul(us_n[lm[i]], mat_mul(x.phi.components[i], inv_m[i])) for i in range(p.n)],
        [mat_mul(us_m[lm[i]], mat_mul(x.psi.components[i], inv_n[i])) for i in range(p.n)]))

    gamma = Translation(p, [lm[lm[i]] for i in range(p.n)])
    assert compare_translations(lam, gamma) in ("leq", "equal")
    g = gamma.mapping
    _check_interleaving(upgrade_interleaving(x, gamma), public(
        x.m, x.n, gamma,
        [mat_mul(x.n.map(lm[i], g[i]), x.phi.components[i]) for i in range(p.n)],
        [mat_mul(x.m.map(lm[i], g[i]), x.psi.components[i]) for i in range(p.n)]))

    c = rng.randrange(1, field.p)
    inv = pow(c, field.p - 2, field.p)

    def times(k, t):
        return Matrix(field, t.rows, t.cols, _entries(t.rows, t.cols,
                                                      lambda r, s: k * t.entries[r][s]))

    _check_interleaving(scale_interleaving(x, c), public(
        x.m, x.n, lam, [times(c, t) for t in x.phi.components],
        [times(inv, t) for t in x.psi.components]))

    v = pack(x)
    v3, t = _conjugate(v, [_rand_invertible(rng, field, d) for d in v.dims])
    got = unpack_morphism(t)
    src, tgt = unpack(v), unpack(v3)
    _check_nat(got.gm, NatTrans(src.m, tgt.m, t.components[:p.n]))
    _check_nat(got.gn, NatTrans(src.n, tgt.n, t.components[p.n:]))
    assert pack_morphism(got) == t


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_matching_interleaving_is_accepted_by_the_public_constructors(seed):
    rng = random.Random(seed)
    field = FieldSpec(rng.choice((2, 5)))
    sigma, w = _rand_essential_matching(rng)
    got = matching_interleaving(sigma, w, field)
    _check_interleaving(got, Interleaving(got.m, got.n, got.lam, got.phi, got.psi))


def test_trusted_builders_skip_the_public_constructor(monkeypatch):
    rng = random.Random(3)
    p = _rand_proset(rng, max_n=4)
    lam = _rand_translation(rng, p)
    field = FieldSpec(5)
    m = _rand_rep(rng, p, field)
    x = unpack(_rand_rep(rng, shoelace(p, lam), field))
    _, um = _conjugate(x.m, [_rand_invertible(rng, field, d) for d in x.m.dims])
    _, un = _conjugate(x.n, [_rand_invertible(rng, field, d) for d in x.n.dims])
    v = pack(x)
    _, t = _conjugate(v, [_rand_invertible(rng, field, d) for d in v.dims])
    sigma, w = _rand_essential_matching(random.Random(5), need_pair=True)
    cert = matching_to_rep(sigma, w)
    step = Matrix(field, 1, 1, [[2]])
    # a translation whose carrier is not stored yet, so shoelace builds one
    fresh = Translation(p, lam.mapping)

    def refuse(name):
        def refused(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return refused

    for cls in (Proset, ShoelaceProset, Translation, Representation, NatTrans,
                Interleaving, InterleavingMorphism, Matching, DecomposedShoelaceRep):
        monkeypatch.setattr(cls, "__init__", refuse(f"public {cls.__name__}"))
    for module in (proset_module, rep_module, interleave_module, zed_module):
        for name in ("validate_proset", "validate_translation",
                     "validate_representation", "validate_nat_trans",
                     "validate_interleaving", "validate_interleaving_morphism",
                     "validate_matching", "validate_decomposed"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse(name))
    chain(4, "abcd")
    proset_from_pairs(4, [(0, 1), (2, 1)], "abcd")
    sh = shoelace(p, fresh)
    assert sh is not shoelace(p, lam)
    # past the caches, so that the builders run here
    shoelace_window.__wrapped__(Window(-9, 9), 2)
    lambda_eps.__wrapped__(Window(-9, 9), 2)
    identity_translation(p)
    compose_translations(lam, lam)
    power_translation(lam, 3)
    induced_translation(sh, power_translation(lam, 2))
    induced_translation(sh, power_translation(lam, 2), twist=True)
    pack_morphism(unpack_morphism(t))
    # pack checks nothing again: an Interleaving is valid by construction
    precompose(m, lam)
    restrict(pack(x), "right")
    indicator_sum(shoelace(p, lam), [{0}], field)
    canonical_pair(Interval(0, 2), Interval(1, 3), 1, Window(-1, 5), field)
    zero_nat(m, m)
    direct_sum([m, m])
    permutation_iso([m, x.m], [1, 0], proset=p, field=field)
    chain_representation(chain(3), field, (1, 1, 1), [step, step])
    transport_interleaving(x, um, un)
    upgrade_interleaving(x, compose_translations(lam, lam))
    scale_interleaving(x, 2)
    matching_interleaving(sigma, w, field)
    found = find_matching(sigma.source, sigma.target, sigma.epsilon, True)
    assert match_or_witness(sigma.source, sigma.target, sigma.epsilon)[0] is not None
    assert found in iter_matchings(sigma.source, sigma.target, sigma.epsilon)
    for variant in ("essential_F", "nonessential_Fprime"):
        assert rep_to_matching(matching_to_rep(found, w, variant, field)) is not None
    assert cert.canonical() == cert


def test_cli_unpack_builds_only_the_loaded_representation(tmp_path, monkeypatch):
    from shoelace.cli import main
    from shoelace.docio import save_document

    w = Window(-1, 4)
    f, g = canonical_pair(Interval(0, 2), Interval(1, 3), 1, w)
    x = Interleaving(interval_to_module(Interval(0, 2), w),
                     interval_to_module(Interval(1, 3), w), lambda_eps(w, 1), f, g)
    rep, lam = tmp_path / "v.json", tmp_path / "lam.json"
    rep.write_text(save_document("representation", pack(x)), encoding="utf-8")
    lam.write_text(save_document("translation", x.lam), encoding="utf-8")
    calls = []
    public = Representation.__init__

    def counting(self, *args):
        calls.append(1)
        public(self, *args)

    monkeypatch.setattr(Representation, "__init__", counting)
    assert main(["unpack", "--rep", str(rep), "--translation", str(lam),
                 "--out", str(tmp_path / "x.json")]) == 0
    # the loader's construction of the document, and no re-rooting copy
    assert calls == [1]


def test_zeros_and_identity_still_refuse_negative_shapes():
    f = FieldSpec(3)
    with pytest.raises(ValueError, match="negative"):
        Matrix.zeros(f, -1, 2)
    with pytest.raises(ValueError, match="negative"):
        Matrix.zeros(f, 2, -1)
    with pytest.raises(ValueError, match="negative"):
        Matrix.identity(f, -1)
    assert Matrix.zeros(f, 2, 3) == Matrix(f, 2, 3, [[0] * 3] * 2)
    assert Matrix.zeros(f, 0, 2) == Matrix(f, 0, 2, [])
    assert Matrix.identity(f, 0) == Matrix(f, 0, 0, [])
    assert Matrix.identity(f, 3) == Matrix(f, 3, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_shoelace_returns_the_carrier_stored_on_the_translation():
    p = chain(4)
    lam = Translation(p, (1, 2, 3, 3))
    sh = shoelace(p, lam)
    assert shoelace(p, lam) is sh
    # an equal but distinct base is accepted and gets the same carrier
    assert shoelace(chain(4), lam) is sh
    assert sh.lam is lam and sh.base == p


def test_equal_but_distinct_translations_give_equal_carriers():
    p = chain(5)
    a = Translation(p, (2, 3, 4, 4, 4))
    b = Translation(chain(5), (2, 3, 4, 4, 4))
    assert a == b and a is not b
    sa, sb = shoelace(p, a), shoelace(b.base, b)
    assert sa is not sb
    assert sa == sb and hash(sa) == hash(sb)
    assert sa.up == sb.up and sa.generating_edges == sb.generating_edges


def test_an_invalid_translation_raises_on_every_call():
    p = chain(3)
    report = validate_translation(Translation._trusted(p, (1, 0, 2)))
    assert report == "not inflationary: 1 !<= 0 = image of 1"
    for _ in range(3):
        with pytest.raises(ValueError, match=re.escape(f"invalid translation: {report}")):
            Translation(p, (1, 0, 2))


# Invalid objects that the public constructors used to let through; each
# failed deep inside a builder, or not at all.


def test_precompose_never_sees_an_invalid_translation():
    m = _rand_rep(random.Random(1), chain(3), FieldSpec(2))
    with pytest.raises(ValueError, match=re.escape(
            "invalid translation: not inflationary: 1 !<= 0 = image of 1")):
        precompose(m, Translation(chain(3), (1, 0, 2)))


def test_upgrade_interleaving_never_sees_a_nonmonotone_gamma():
    w = Window(-1, 4)
    f, g = canonical_pair(Interval(0, 2), Interval(1, 3), 1, w)
    x = Interleaving(interval_to_module(Interval(0, 2), w),
                     interval_to_module(Interval(1, 3), w), lambda_eps(w, 1), f, g)
    # above lam pointwise and inflationary, but 0 <= 1 while 5 !<= 2
    with pytest.raises(ValueError, match=re.escape(
            "invalid translation: not monotone: -1 <= 0 but 4 !<= 1")):
        upgrade_interleaving(x, Translation(x.lam.base, (5, 2, 3, 4, 5, 5)))


def test_no_carrier_on_a_table_that_is_not_transitive():
    with pytest.raises(ValueError, match=re.escape(
            "invalid proset: not transitive: 0 <= 1 <= 2 but 0 !<= 2")):
        q = Proset(3, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        shoelace(q, identity_translation(q))


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_trusted_prosets_translations_and_morphisms_pass_the_public_constructors(
        family, seed):
    """chain, proset_from_pairs, laced, identity_translation,
    compose_translations, power_translation, both lifts of
    induced_translation, lambda_eps, unpack_morphism and pack_morphism."""
    rng = random.Random(seed)
    p, lam, carriers = _base_and_translation(rng, family)
    for q in (p, chain(p.n, p.labels)):
        assert Proset(q.n, table(q), q.labels) == q
    for sh in carriers:
        public = ShoelaceProset(sh.n, table(sh), sh.labels, sh.base, sh.lam)
        assert public == sh and public.lam is sh.lam
    a, b = (power_translation(lam, rng.randint(0, 3)) for _ in range(2))
    lifts = [identity_translation(p), lam, a, compose_translations(a, b),
             induced_translation(carriers[0], a)]
    if compare_translations(lam, a) in ("leq", "equal"):
        lifts.append(induced_translation(carriers[0], a, twist=True))
    for t in lifts:
        assert Translation(t.base, t.mapping) == t
    field = FieldSpec(rng.choice((2, 5)))
    v = _rand_rep(rng, carriers[0], field, max_dim=2)
    _, t = _conjugate(v, [_rand_invertible(rng, field, d) for d in v.dims])
    g = unpack_morphism(t)
    assert InterleavingMorphism(g.source, g.target, g.gm, g.gn) == g
    packed = pack_morphism(g)
    assert NatTrans(packed.source, packed.target, packed.components) == packed == t


def test_a_translation_of_another_proset_is_refused():
    lam = Translation(chain(3), (1, 2, 2))
    shoelace(chain(3), lam)
    # another size, and the same size with another relation
    for other in (chain(4), proset_from_pairs(3, [(1, 0), (2, 1)])):
        for _ in range(2):
            with pytest.raises(ValueError, match="not defined on this proset"):
                shoelace(other, lam)


def test_path_covers_are_tuples():
    sh = shoelace(chain(3), Translation(chain(3), (1, 2, 2)))
    assert sh.path_step(0, 2) == 1
    assert type(sh._covers) is tuple
    assert all(type(c) is tuple for c in sh._covers)


def _bumped(rng, t):
    """t, a nonempty matrix, with one entry moved."""
    entries = [list(row) for row in t.entries]
    entries[rng.randrange(t.rows)][rng.randrange(t.cols)] += rng.randrange(1, t.field.p)
    return Matrix(t.field, t.rows, t.cols, entries)


def _agrees(build, trusted, report, kind):
    """build(), a public construction, gives trusted when the check passes
    and raises its report otherwise."""
    if report is None:
        assert build() == trusted
    else:
        with pytest.raises(ValueError, match=re.escape(f"invalid {kind}: {report}")):
            build()


# Each public constructor accepts what its one check accepts and raises the
# report otherwise; the invalid objects are built through the trusted
# paths, which check nothing.


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_representation_raises_exactly_on_what_its_check_rejects(family, seed):
    rng = random.Random(seed)
    p, _, carriers = _base_and_translation(rng, family)
    field = FieldSpec(rng.choice((2, 5)))
    m = _rand_rep(rng, rng.choice([p] + carriers), field, max_dim=2)
    # a plain dict of every related pair, one of them, edge or not, moved
    maps = {pair: m.map(*pair) for pair in m.proset.related_pairs}
    nonempty = [pair for pair in maps if maps[pair].rows and maps[pair].cols]
    if nonempty:
        pair = rng.choice(nonempty)
        maps[pair] = _bumped(rng, maps[pair])
    edges = tuple(maps[e] for e in m.proset.generating_edges)
    report = _validate_all_triples(m.proset, field, m.dims, maps)
    if report is None:
        got = Representation(m.proset, field, m.dims, maps)
        assert got == Representation._trusted(m.proset, field, m.dims, edges)
    else:
        with pytest.raises(ValueError, match="invalid representation: "):
            Representation(m.proset, field, m.dims, maps)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_nattrans_raises_exactly_on_what_its_check_rejects(family, seed):
    rng = random.Random(seed)
    x, _ = _rand_interleaving(rng, family)
    comps = list(x.phi.components)
    nonempty = [i for i, c in enumerate(comps) if c.rows and c.cols]
    if nonempty:
        i = rng.choice(nonempty)
        comps[i] = _bumped(rng, comps[i])
    bad = NatTrans._trusted(x.m, x.phi.target, tuple(comps))
    _agrees(lambda: NatTrans(x.m, x.phi.target, comps), bad,
            validate_nat_trans(bad), "nattrans")


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_interleaving_raises_exactly_on_what_its_check_rejects(family, seed):
    rng = random.Random(seed)
    x, field = _rand_interleaving(rng, family)
    # a scaled phi stays natural but can break the triangles
    c = rng.randrange(2, field.p) if field.p > 2 else 0
    phi = NatTrans(x.m, x.phi.target, [mat_scale(c, t) for t in x.phi.components])
    bad = interleave_module._assemble(x.m, x.n, x.lam, phi.components, x.psi.components)
    report = validate_interleaving(bad)
    assert report is None or report.startswith("triangle")
    _agrees(lambda: Interleaving(x.m, x.n, x.lam, phi, x.psi), bad, report,
            "interleaving")


def test_pack_morphism_refuses_a_morphism_that_does_not_commute():
    w = Window(-1, 4)
    f, g = canonical_pair(Interval(0, 2), Interval(1, 3), 1, w)
    x = Interleaving(interval_to_module(Interval(0, 2), w),
                     interval_to_module(Interval(1, 3), w), lambda_eps(w, 1), f, g)
    one = NatTrans(x.m, x.m, [Matrix.identity(x.m.field, d) for d in x.m.dims])
    half = InterleavingMorphism._trusted(x, x, one, zero_nat(x.n, x.n))
    report = validate_interleaving_morphism(half)
    assert report == "phi square fails at 0"
    with pytest.raises(ValueError, match=re.escape(
            f"invalid interleaving morphism: {report}")):
        InterleavingMorphism(x, x, one, zero_nat(x.n, x.n))
    # pack_morphism trusts its morphism: packing the invalid half gives a
    # transformation that the public NatTrans refuses
    packed = pack_morphism(half)
    with pytest.raises(ValueError, match="invalid nattrans: naturality fails"):
        NatTrans(packed.source, packed.target, packed.components)
    whole = InterleavingMorphism(x, x, one, NatTrans(
        x.n, x.n, [Matrix.identity(x.n.field, d) for d in x.n.dims]))
    assert pack_morphism(whole) == NatTrans(pack(x), pack(x), [
        Matrix.identity(x.m.field, d) for d in pack(x).dims])


def _rand_bars(rng, k):
    return Barcode(_rand_interval(rng, 6) for _ in range(k))


def _rand_pair(rng):
    """Two barcodes and an eps: random ones, the sides of a random essential
    matching, or, one draw in five, k copies of (-inf,+inf) on each side,
    whose certificates need a window of more than eps points."""
    r = rng.random()
    if r < 0.2:
        whole = Barcode([Interval(NEG_INF, POS_INF)] * rng.randint(1, 3))
        return whole, whole, rng.randint(1, 3)
    if r < 0.6:
        s, _ = _rand_essential_matching(rng)
        return s.source, s.target, s.epsilon
    return _rand_bars(rng, rng.randint(0, 4)), _rand_bars(rng, rng.randint(0, 4)), rng.randint(0, 3)


def _rand_window(rng, s: Matching):
    """A window padded by about 2*eps around the matching's finite ends,
    often a point short on a side, and at most eps + 2 points when every
    end is infinite."""
    ends = [e for bar in s.source.intervals + s.target.intervals
            for e in bar.finite_endpoints()]
    eps = s.epsilon
    if not ends:
        lo = rng.randint(-3, 3)
        return Window(lo, lo + rng.randint(0, eps + 1))
    lo = min(ends) - 2 * eps + rng.choice((-1, 0, 0, 1))
    hi = max(ends) + 2 * eps + rng.choice((-1, 0, 0, 1))
    return Window(lo, max(lo, hi))


def _check_matching(got):
    """got, from a trusted path, equals the public construction on its
    fields and passes validate_matching."""
    assert type(got) is Matching and type(got.pairs) is tuple
    assert got == Matching(got.source, got.target, got.pairs, got.epsilon)
    assert validate_matching(got) is None


def _check_certificate(got):
    assert type(got) is DecomposedShoelaceRep and type(got.summands) is tuple
    assert got == DecomposedShoelaceRep(got.window, got.epsilon, got.field, got.summands)
    assert validate_decomposed(got) is None


def _public_certificate(s: Matching, w, variant, field):
    """matching_to_rep as it was written on the public constructor."""
    summands = []
    for (a, b) in s.pairs:
        if variant == "nonessential_Fprime" and short_pair_fails_star(a, b, s.epsilon):
            summands += [(a, None), (None, b)]
        else:
            summands.append((a, b))
    summands += [(bar, None) for bar in s.unmatched_source().elements()]
    summands += [(None, bar) for bar in s.unmatched_target().elements()]
    return DecomposedShoelaceRep(w, s.epsilon, field, sorted(summands, key=_summand_key))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_trusted_matchings_and_certificates_equal_the_public_construction(seed):
    """find_matching, match_or_witness, iter_matchings and rep_to_matching
    build Matchings, and matching_to_rep and canonical() certificates,
    through the trusted paths: each equals the public construction and
    passes its validator, and matching_to_rep refuses exactly when the
    public constructor does, with the same message, on windows that are
    often too small."""
    rng = random.Random(seed)
    bm, bn, eps = _rand_pair(rng)
    essential = rng.random() < 0.5
    found, witness = match_or_witness(bm, bn, eps, essential)
    assert find_matching(bm, bn, eps, essential) == found
    every = list(itertools.islice(iter_matchings(bm, bn, eps, essential), 12))
    assert (found is None) == (not every) == (witness is not None)
    if found is not None:
        assert found == every[0]
    for s in every:
        _check_matching(s)
        assert not (essential and is_essential(s))
        field = FieldSpec(rng.choice((2, 5)))
        w = _rand_window(rng, s) if rng.random() < 0.95 else "x"
        for variant in ("essential_F", "nonessential_Fprime"):
            if variant == "essential_F" and is_essential(s):
                continue
            got = _outcome(matching_to_rep, s, w, variant, field)
            ref = _outcome(_public_certificate, s, w, variant, field)
            assert got[0] == ref[0] and (got[0] == "ok" or got[1] == ref[1]), (got, ref)
            if got[0] == "refused":
                continue
            cert = got[1]
            _check_certificate(cert)
            assert cert == ref[1]
            back = rep_to_matching(cert)
            _check_matching(back)
            if variant == "essential_F":
                assert back == s
            shuffled = list(cert.summands)
            rng.shuffle(shuffled)
            scrambled = DecomposedShoelaceRep(w, s.epsilon, field, shuffled)
            _check_matching(rep_to_matching(scrambled))
            assert rep_to_matching(scrambled) == back
            canon = scrambled.canonical()
            _check_certificate(canon)
            assert canon == cert
