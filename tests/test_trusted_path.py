"""The trusted construction path and the shared shoelace carrier.

precompose, restrict, pack and indicator_sum build their results through
Representation._trusted, skipping the checks of the public constructor.
Each is compared here with a reference built through the public
constructor, over selftest's random prosets and translations and over
window chains with their shoelace_window carriers.  shoelace(p, lam) builds
and checks its carrier once per translation and stores it there.
"""

import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from shoelace.exactlin import FieldSpec, Matrix, mat_mul
from shoelace.interleave import pack, unpack
from shoelace.proset import Translation, chain, proset_from_pairs, shoelace
from shoelace.rep import (
    Representation,
    indicator_sum,
    precompose,
    restrict,
    validate_representation,
)
from shoelace.selftest import _rand_proset, _rand_rep, _rand_translation
from shoelace.zed import Window, lambda_eps, shoelace_window, window_chain

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
    p, lam = window_chain(w)[0], lambda_eps(w, eps)
    return p, lam, [shoelace(p, lam), shoelace_window(w, eps)[0]]


def _check_trusted(got, ref):
    """got, from the trusted path, equals ref, which the public constructor
    built from every related pair, passes every check of the public
    constructor, and is functorial."""
    assert type(got.dims) is tuple
    # ref was given every related pair, so == compares them all
    assert got == ref
    # the trusted builders store the generating edges and nothing else
    assert set(got.maps._given) == set(got.proset.generating_edges)
    assert Representation(got.proset, got.field, got.dims, got.maps._given) == got
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
                         {(i, j): m.maps[(lm[i], lm[j])] for (i, j) in p.related_pairs})
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
                                 {(i, j): v.maps[(off + i, off + j)]
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
            maps[(a, b)] = (x.m if a < n else x.n).maps[(i, j)]
        elif a < n:
            maps[(a, b)] = mat_mul(x.n.maps[(lm[i], j)], x.phi.components[i])
        else:
            maps[(a, b)] = mat_mul(x.m.maps[(lm[i], j)], x.psi.components[i])
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
                             if any(q.rel[a][c] and q.rel[c][b] for a in ends for b in ends)})
        got, positions = indicator_sum(q, supports, field)
        dims = [sum(x in s for s in supports) for x in range(q.n)]
        maps = {}
        for (a, b) in q.related_pairs:
            rows = [[int(positions[a][k] == col) for col in range(dims[a])]
                    for k, s in enumerate(supports) if b in s]
            maps[(a, b)] = Matrix(field, dims[b], dims[a], rows)
        _check_trusted(got, Representation(q, field, dims, maps))


def test_trusted_builders_skip_the_public_constructor(monkeypatch):
    rng = random.Random(3)
    p = _rand_proset(rng, max_n=4)
    lam = _rand_translation(rng, p)
    field = FieldSpec(5)
    m = _rand_rep(rng, p, field)
    x = unpack(_rand_rep(rng, shoelace(p, lam), field))

    def refuse(*args, **kwargs):
        raise AssertionError("public Representation constructor called")

    monkeypatch.setattr(Representation, "__init__", refuse)
    precompose(m, lam)
    restrict(pack(x), "right")
    indicator_sum(shoelace(p, lam), [{0}], field)


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
    assert sa.rel == sb.rel and sa.generating_edges == sb.generating_edges


def test_an_invalid_translation_raises_on_every_call():
    p = chain(3)
    lam = Translation(p, (1, 0, 2))
    for _ in range(3):
        with pytest.raises(ValueError, match="invalid translation"):
            shoelace(p, lam)


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
