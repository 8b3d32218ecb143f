import json
import random

import pytest

from hypothesis import given, settings
import hypothesis.strategies as st

from shoelace.docio import load_document, save_document
from shoelace.exactlin import FieldSpec, Matrix, mat_mul, mat_solve_homogeneous
from shoelace.interleave import Interleaving, pack, unpack
from shoelace.proset import (
    Proset,
    Translation,
    chain,
    compose_translations,
    identity_translation,
    proset_from_pairs,
    shoelace,
)
from shoelace.rep import (
    NatTrans,
    Representation,
    chain_representation,
    direct_sum,
    indicator_module,
    indicator_sum,
    permutation_iso,
    precompose,
    restrict,
    subrelation_transfer,
    validate_nat_trans,
    validate_representation,
    zero_nat,
    zero_representation,
)
from shoelace.selftest import (
    _rand_chain_rep,
    _rand_proset,
    _rand_rep,
    _rand_translation,
)
from shoelace.zed import (
    Interval,
    Window,
    _hom_dimension,
    canonical_pair,
    interval_to_module,
    lambda_eps,
    shoelace_window,
)

F2 = FieldSpec(2)
F5 = FieldSpec(5)


def _ones_chain(n, field):
    """All dims 1, every map [1]: the constant representation of a chain."""
    step = Matrix(field, 1, 1, [[1]])
    return chain_representation(chain(n), field, (1,) * n, [step] * (n - 1))


def _identity(m):
    return NatTrans(m, m, [Matrix.identity(m.field, d) for d in m.dims])


def _whisker(m, lam):
    """The canonical map M -> M(lam), with component M(i <= lam(i)) at i."""
    return NatTrans(m, precompose(m, lam),
                    [m.map(i, lam.mapping[i]) for i in range(m.proset.n)])


def test_constant_chain_rep_is_valid():
    m = _ones_chain(4, F2)
    assert validate_representation(m) is None
    assert sum(m.dims) == 4


def test_stored_composite_zero_reports_triple():
    p = chain(3)
    one = Matrix(F2, 1, 1, [[1]])
    maps = {
        (0, 0): one, (1, 1): one, (2, 2): one,
        (0, 1): one, (1, 2): one,
        (0, 2): Matrix(F2, 1, 1, [[0]]),
    }
    with pytest.raises(ValueError, match="invalid representation: "
                       "composition fails over 0 <= 1 <= 2"):
        Representation(p, F2, (1, 1, 1), maps)


def test_non_identity_diagonal_reported():
    p = chain(2)
    two = Matrix(F5, 1, 1, [[2]])
    one = Matrix(F5, 1, 1, [[1]])
    with pytest.raises(ValueError, match=r"invalid representation: "
                       r"map at \(0, 0\) is not the identity"):
        Representation(p, F5, (1, 1), {(0, 0): two, (1, 1): one, (0, 1): one})


def test_a_retraction_between_isomorphic_points_is_refused():
    # 0 <= 1 <= 0 with F(0,1) F(1,0) the identity of F(1) but F(1,0) F(0,1)
    # not that of F(0): each edge of the class must be checked both ways
    p = proset_from_pairs(2, [(0, 1), (1, 0)])
    maps = {(0, 1): Matrix(F2, 1, 2, [[1, 0]]), (1, 0): Matrix(F2, 2, 1, [[1], [0]])}
    with pytest.raises(ValueError, match=r"composition fails over 0 <= 1 <= 0"):
        Representation(p, F2, (2, 1), maps)


def test_interval_module_is_valid():
    m = interval_to_module(Interval(1, 2), Window(0, 3))
    assert validate_representation(m) is None
    assert m.dims == (0, 1, 1, 0)


def test_representation_constructor_rejects_bad_data():
    p = chain(2)
    one = Matrix(F2, 1, 1, [[1]])
    good = {(0, 0): one, (1, 1): one, (0, 1): one}
    with pytest.raises(ValueError, match="expected 2 dims"):
        Representation(p, F2, (1,), good)
    with pytest.raises(ValueError, match="negative"):
        Representation(p, F2, (1, -1), good)
    with pytest.raises(ValueError, match="missing"):
        Representation(p, F2, (1, 1), {(0, 0): one, (1, 1): one})
    extra = dict(good)
    extra[(1, 0)] = one
    with pytest.raises(ValueError, match="unexpected"):
        Representation(p, F2, (1, 1), extra)
    wrong_field = dict(good)
    wrong_field[(0, 1)] = Matrix(F5, 1, 1, [[1]])
    with pytest.raises(ValueError, match="F_5"):
        Representation(p, F2, (1, 1), wrong_field)
    wrong_shape = dict(good)
    wrong_shape[(0, 1)] = Matrix(F2, 2, 1, [[1], [0]])
    with pytest.raises(ValueError, match="shape"):
        Representation(p, F2, (1, 1), wrong_shape)
    m = Representation(p, F2, (1, 1), good)
    with pytest.raises(AttributeError):
        m.dims = (2, 2)


def test_identity_and_zero_nats_are_natural():
    m = _ones_chain(3, F5)
    assert validate_nat_trans(_identity(m)) is None
    n = zero_representation(chain(3), F5)
    assert validate_nat_trans(zero_nat(m, n)) is None
    assert validate_nat_trans(zero_nat(n, m)) is None


def test_inconsistent_scaling_breaks_naturality():
    m = _ones_chain(2, F5)
    with pytest.raises(ValueError,
                       match="invalid nattrans: naturality fails over 0 <= 1"):
        NatTrans(m, m, (Matrix(F5, 1, 1, [[1]]), Matrix(F5, 1, 1, [[2]])))
    # uniform scaling commutes with everything
    two = Matrix(F5, 1, 1, [[2]])
    assert validate_nat_trans(NatTrans(m, m, (two, two))) is None


def test_nat_trans_constructor_rejects_mismatches():
    m = _ones_chain(2, F2)
    other_proset = _ones_chain(3, F2)
    other_field = _ones_chain(2, F5)
    comps = tuple(Matrix.identity(F2, 1) for _ in range(2))
    with pytest.raises(ValueError, match="different proset"):
        NatTrans(m, other_proset, comps)
    with pytest.raises(ValueError, match="different field"):
        NatTrans(m, other_field, comps)
    with pytest.raises(ValueError, match="expected 2 components"):
        NatTrans(m, m, comps[:1])
    with pytest.raises(ValueError, match="shape"):
        NatTrans(m, m, (Matrix.identity(F2, 1), Matrix.zeros(F2, 2, 1)))
    with pytest.raises(ValueError, match="component 1 is over F_5, not F_2"):
        NatTrans(m, m, (Matrix.identity(F2, 1), Matrix(F5, 1, 1, [[1]])))


def test_chain_representation_rejects_bad_input():
    step = Matrix(F2, 1, 1, [[1]])
    with pytest.raises(ValueError, match="total chain"):
        chain_representation(proset_from_pairs(2, []), F2, (1, 1), [step])
    with pytest.raises(ValueError, match="expected 2 step maps"):
        chain_representation(chain(3), F2, (1, 1, 1), [step])
    with pytest.raises(ValueError, match=r"map at \(0, 1\) has shape 1x1, expected 2x1"):
        chain_representation(chain(2), F2, (1, 2), [step])
    # dims count, then signs, then step fields, before any step is read
    with pytest.raises(ValueError, match="expected 3 dims, got 2"):
        chain_representation(chain(3), F2, (1, 1), [step, step])
    with pytest.raises(ValueError, match="negative dimension"):
        chain_representation(chain(2), F2, (-1, 1), [step])
    with pytest.raises(ValueError, match=r"map at \(0, 1\) is over F_5, not F_2"):
        chain_representation(chain(2), F2, (1, 1), [Matrix(F5, 1, 1, [[1]])])


def test_precompose_with_identity_is_identity():
    m = _ones_chain(3, F2)
    assert precompose(m, identity_translation(chain(3))) == m


def test_precompose_shifts_interval_support():
    w = Window(0, 4)
    m = interval_to_module(Interval(1, 3), w)
    lam = lambda_eps(w, 1)
    shifted = precompose(m, lam)
    assert shifted == interval_to_module(Interval(0, 2), w)


def test_precompose_twice_matches_composed_translation():
    w = Window(0, 4)
    m = interval_to_module(Interval(1, 3), w, F5)
    lam = lambda_eps(w, 2)
    twice = precompose(precompose(m, lam), lam)
    assert twice == precompose(m, compose_translations(lam, lam))


def test_precompose_requires_matching_proset():
    m = _ones_chain(3, F2)
    lam = identity_translation(chain(4))
    with pytest.raises(ValueError, match="not defined"):
        precompose(m, lam)


def test_unit_whisker_interval_example():
    w = Window(0, 3)
    m = interval_to_module(Interval(0, 2), w)
    u = _whisker(m, lambda_eps(w, 1))
    assert validate_nat_trans(u) is None
    assert u.source == m
    assert u.target.dims == (1, 1, 0, 0)
    assert u.components[0] == Matrix.identity(F2, 1)
    assert u.components[1] == Matrix.identity(F2, 1)
    assert u.components[2] == Matrix.zeros(F2, 0, 1)
    assert u.components[3] == Matrix.zeros(F2, 0, 0)


def test_double_unit_equals_composite_of_whiskers():
    w = Window(0, 4)
    m = interval_to_module(Interval(0, 3), w, F5)
    lam = lambda_eps(w, 1)
    u = _whisker(m, lam)
    doubled = _whisker(m, compose_translations(lam, lam))
    # u followed by u reindexed along lam has component u(lam(i)) u(i) at i
    for i in range(m.proset.n):
        assert (mat_mul(u.components[lam.mapping[i]], u.components[i])
                == doubled.components[i])


def _block(mat, rows, cols):
    """Entries of mat in the row range rows and the column range cols."""
    (r0, r1), (c0, c1) = rows, cols
    return tuple(row[c0:c1] for row in mat.entries[r0:r1])


def _assert_summand(total, slices, k, part):
    """Block k of the direct sum total is part, at every point and pair."""
    p = total.proset
    assert [stop - start for (start, stop) in slices[k]] == list(part.dims)
    for (i, j) in p.related_pairs:
        assert (_block(total.map(i, j), slices[k][j], slices[k][i])
                == part.map(i, j).entries)


def test_direct_sum_of_one_is_the_part():
    m = interval_to_module(Interval(0, 1), Window(0, 2))
    total, slices = direct_sum([m])
    assert total == m
    assert slices == [[(0, 1), (0, 1), (0, 0)]]


def test_direct_sum_of_two_intervals():
    w = Window(0, 2)
    a = interval_to_module(Interval(0, 1), w)
    b = interval_to_module(Interval(1, 2), w)
    total, slices = direct_sum([a, b])
    assert validate_representation(total) is None
    assert total.dims == (1, 2, 1)
    assert total.map(0, 1) == Matrix(F2, 2, 1, [[1], [0]])
    assert total.map(1, 2) == Matrix(F2, 1, 2, [[0, 1]])
    assert total.map(0, 2) == Matrix.zeros(F2, 1, 1)
    _assert_summand(total, slices, 0, a)
    _assert_summand(total, slices, 1, b)


def test_empty_direct_sum_is_zero():
    p = chain(3)
    total, slices = direct_sum([], proset=p, field=F2)
    assert total == zero_representation(p, F2)
    assert slices == []
    with pytest.raises(ValueError, match="explicit proset"):
        direct_sum([])


def _reference_indicator_module(proset, support, field):
    """An indicator module built without indicator_sum: dimension 1 on
    support, one shared matrix per edge shape."""
    dims = tuple(1 if k in support else 0 for k in range(proset.n))
    shared = {(1, 1): Matrix.identity(field, 1), (0, 0): Matrix.zeros(field, 0, 0),
              (0, 1): Matrix.zeros(field, 0, 1), (1, 0): Matrix.zeros(field, 1, 0)}
    maps = {(a, b): shared[(dims[b], dims[a])] for (a, b) in proset.generating_edges}
    return Representation(proset, field, dims, maps)


def _rand_convex(rng: random.Random, q: Proset) -> frozenset:
    """The convex hull of a few random points: every c with a <= c <= b
    for some a, b among them (empty for no points)."""
    ends = rng.sample(range(q.n), rng.randint(0, min(q.n, 3)))
    return frozenset(c for c in range(q.n)
                     if any(q.leq(a, c) and q.leq(c, b) for a in ends for b in ends))


def _rand_carrier(rng: random.Random, family: str) -> Proset:
    if family == "chain":
        return chain(rng.randint(1, 8))
    if family == "shoelace":
        p = _rand_proset(rng, max_n=5)
        return shoelace(p, _rand_translation(rng, p))
    lo = rng.randint(-5, 5)
    return shoelace_window(Window(lo, lo + rng.randint(0, 7)), rng.randint(0, 3))


FAMILIES = ["chain", "shoelace", "shoelace_window"]


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_indicator_sum_equals_the_direct_sum_of_indicator_modules(family, seed):
    rng = random.Random(seed)
    q = _rand_carrier(rng, family)
    field = rng.choice((F2, F5))
    supports = [_rand_convex(rng, q) for _ in range(rng.randint(1, 5))]
    total, positions = indicator_sum(q, supports, field)
    ref, slices = direct_sum([_reference_indicator_module(q, s, field) for s in supports],
                             proset=q, field=field)
    assert total.dims == ref.dims
    for key in q.related_pairs:
        assert total.map(*key) == ref.map(*key), key
    assert validate_representation(total) is None
    assert len(positions) == q.n
    for x in range(q.n):
        assert len(positions[x]) == len(supports)
        for k, support in enumerate(supports):
            start, stop = slices[k][x]
            assert stop - start == (x in support)
            assert positions[x][k] == (start if x in support else -1)


@pytest.mark.parametrize("family", FAMILIES)
def test_indicator_sum_of_no_supports_is_zero(family):
    q = _rand_carrier(random.Random(family), family)
    total, positions = indicator_sum(q, [], F2)
    assert total == zero_representation(q, F2) == direct_sum([], proset=q, field=F2)[0]
    assert total.dims == (0,) * q.n
    assert positions == [[] for _ in range(q.n)]


def test_indicator_sum_reads_supports_as_sets_of_points():
    q = chain(3)
    assert indicator_sum(q, [[1, 1, 2]], F2)[0] == indicator_module(q, {1, 2}, F2)
    assert indicator_sum(q, [[1, 1, 2]], F2)[1] == [[-1], [0], [0]]
    with pytest.raises(ValueError, match="support 1 holds 3, not a point"):
        indicator_sum(q, [[0], [3]], F2)


def test_direct_sum_rejects_mixed_parts():
    a = _ones_chain(2, F2)
    with pytest.raises(ValueError, match="different proset"):
        direct_sum([a, _ones_chain(3, F2)])
    with pytest.raises(ValueError, match="different field"):
        direct_sum([a, _ones_chain(2, F5)])


def test_permutation_iso_round_trip():
    w = Window(0, 2)
    parts = [
        interval_to_module(Interval(0, 1), w),
        interval_to_module(Interval(1, 2), w),
        interval_to_module(Interval(0, 2), w),
    ]
    t = permutation_iso(parts, (2, 0, 1))
    assert validate_nat_trans(t) is None
    assert t.source == direct_sum(parts)[0]
    assert t.target == direct_sum([parts[2], parts[0], parts[1]])[0]
    src_slices = direct_sum(parts)[1]
    tgt_slices = direct_sum([parts[2], parts[0], parts[1]])[1]
    for i, c in enumerate(t.components):
        # a permutation matrix: an identity block from each part to its slot
        # and zeros elsewhere, so an isomorphism
        assert sum(map(sum, c.entries)) == c.rows == c.cols
        for slot, k in enumerate((2, 0, 1)):
            assert (_block(c, tgt_slices[slot][i], src_slices[k][i])
                    == Matrix.identity(F2, parts[k].dims[i]).entries)
    trivial = permutation_iso(parts, (0, 1, 2))
    assert trivial == _identity(t.source)
    with pytest.raises(ValueError, match="not a permutation"):
        permutation_iso(parts, (0, 0, 1))


def test_restrict_picks_out_each_copy():
    base = chain(2)
    sh = shoelace(base, Translation(base, (1, 1)))
    one = Matrix(F2, 1, 1, [[1]])
    v = Representation(sh, F2, (1,) * sh.n,
                       {pair: one for pair in sh.related_pairs})
    assert validate_representation(v) is None
    expected = _ones_chain(2, F2)
    assert restrict(v, "left") == expected
    assert restrict(v, "right") == expected
    z = zero_representation(sh, F2)
    assert restrict(z, "left") == zero_representation(base, F2)


def test_restrict_rejects_plain_prosets_and_bad_sides():
    m = _ones_chain(2, F2)
    with pytest.raises(ValueError, match="shoelace carrier"):
        restrict(m, "left")
    base = chain(2)
    sh = shoelace(base, identity_translation(base))
    with pytest.raises(ValueError, match="side"):
        restrict(zero_representation(sh, F2), "up")


def test_subrelation_transfer_drops_missing_pairs():
    m = _rand_chain_rep(random.Random(7), 3, F5)
    q = proset_from_pairs(3, [(0, 1)])
    out = subrelation_transfer(m, q)
    assert out.proset == q
    assert out.dims == m.dims
    assert out.map(0, 1) == m.map(0, 1)
    with pytest.raises(KeyError):
        out.map(1, 2)
    assert validate_representation(out) is None
    with pytest.raises(ValueError, match="not a subrelation"):
        subrelation_transfer(m, proset_from_pairs(3, [(1, 0)]))
    with pytest.raises(ValueError, match="size mismatch"):
        subrelation_transfer(m, chain(4))


def test_generator_mutation_can_stay_valid():
    # flipping a generator map is not always caught: on a 2-point chain the
    # step [1] and the step [0] both give functorial data (the intervals
    # [0,1] versus [0,0] + [1,1]), so the fuzz property below only perturbs
    # composites, where a middle point always witnesses the lie
    p = chain(2)
    one = Matrix(F2, 1, 1, [[1]])
    zero = Matrix(F2, 1, 1, [[0]])
    flipped = Representation(p, F2, (1, 1),
                             {(0, 0): one, (1, 1): one, (0, 1): zero})
    assert validate_representation(flipped) is None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_composite_mutation_is_detected(seed):
    rng = random.Random(seed)
    field = FieldSpec(rng.choice((2, 3, 5, 7)))
    n = rng.randint(3, 5)
    dims = [rng.randint(1, 3) for _ in range(n)]
    steps = [Matrix(field, dims[i + 1], dims[i],
                    [[rng.randrange(field.p) for _ in range(dims[i])]
                     for _ in range(dims[i + 1])])
             for i in range(n - 1)]
    m = chain_representation(chain(n), field, dims, steps)
    assert validate_representation(m) is None
    i = rng.randint(0, n - 3)
    k = rng.randint(i + 2, n - 1)
    bumped = [list(row) for row in m.map(i, k).entries]
    r, c = rng.randrange(dims[k]), rng.randrange(dims[i])
    bumped[r][c] = (bumped[r][c] + 1) % field.p
    maps = _every_pair(m)
    maps[(i, k)] = Matrix(field, dims[k], dims[i], bumped)
    with pytest.raises(ValueError, match="invalid representation: composition fails"):
        Representation(chain(n), field, dims, maps)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_whisker_outputs_are_always_natural(seed):
    rng = random.Random(seed)
    p = _rand_proset(rng, max_n=5)
    field = FieldSpec(rng.choice((2, 5)))
    m = _rand_rep(rng, p, field)
    lam = _rand_translation(rng, p)
    u = _whisker(m, lam)
    assert validate_nat_trans(u) is None
    assert u.source == m
    assert u.target == precompose(m, lam)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_direct_sum_projection_recovers_parts(seed):
    rng = random.Random(seed)
    p = _rand_proset(rng, max_n=4)
    parts = [_rand_rep(rng, p, F5, max_dim=2)
             for _ in range(rng.randint(0, 3))]
    total, slices = direct_sum(parts, proset=p, field=F5)
    assert validate_representation(total) is None
    assert sum(total.dims) == sum(sum(m.dims) for m in parts)
    for k, part in enumerate(parts):
        _assert_summand(total, slices, k, part)


def _every_pair(m):
    """m's maps as a plain dict of every related pair."""
    return {pair: m.map(*pair) for pair in m.proset.related_pairs}


def _validate_all_triples(p, field, dims, maps):
    """Reference functoriality check over maps, a plain dict of every
    related pair: identity on every diagonal and the composition equation
    on every related triple i <= j <= k."""
    for i in range(p.n):
        if maps[(i, i)] != Matrix.identity(field, dims[i]):
            return f"map at ({p.label(i)}, {p.label(i)}) is not the identity"
    for (i, j) in p.related_pairs:
        if i == j or dims[i] == 0:
            continue
        for k in range(p.n):
            if k == j or dims[k] == 0 or not p.leq(j, k):
                continue
            if mat_mul(maps[(j, k)], maps[(i, j)]) != maps[(i, k)]:
                return (f"composition fails over {p.label(i)} <= {p.label(j)}"
                        f" <= {p.label(k)}")
    return None


def _generating_edges_by_definition(p):
    """(j, k), j != k, j <= k, with k <= j or nothing strictly between the
    classes of j and k."""
    def strictly_below(a, b):
        return p.leq(a, b) and not p.leq(b, a)

    return tuple(
        (j, k) for j in range(p.n) for k in range(p.n)
        if j != k and p.leq(j, k)
        and (p.leq(k, j) or not any(strictly_below(j, m) and strictly_below(m, k)
                                  for m in range(p.n))))


def _rand_rep_family(rng, family):
    field = FieldSpec(rng.choice((2, 3, 5)))
    if family == "chain":
        return _rand_chain_rep(rng, rng.randint(1, 8), field)
    if family == "closure":
        return _rand_rep(rng, _rand_proset(rng), field)
    if rng.random() < 0.3:
        # window carriers: at eps 0 every {i, i'} is a two-way pair
        lo = rng.randint(-2, 2)
        sh = shoelace_window(Window(lo, lo + rng.randint(0, 5)),
                                rng.randint(0, 3))
        return _rand_rep(rng, sh, field, max_dim=2)
    # the identity translation makes every {i, i'} a two-way pair
    base = _rand_proset(rng, max_n=5)
    lam = (identity_translation(base) if rng.random() < 0.3
           else _rand_translation(rng, base))
    return pack(unpack(_rand_rep(rng, shoelace(base, lam), field, max_dim=2)))


def _corrupt_one_map(rng, m):
    """m's maps on every related pair, with one entry of one nonempty map
    moved, edge or not, or None."""
    pairs = [(i, j) for (i, j) in m.proset.related_pairs
             if m.dims[i] and m.dims[j]]
    if not pairs:
        return None
    i, j = rng.choice(pairs)
    entries = [list(row) for row in m.map(i, j).entries]
    r, c = rng.randrange(m.dims[j]), rng.randrange(m.dims[i])
    entries[r][c] += rng.randrange(1, m.field.p)
    maps = _every_pair(m)
    maps[(i, j)] = Matrix(m.field, m.dims[j], m.dims[i], entries)
    return maps


@pytest.mark.parametrize("family", ["chain", "closure", "carrier"])
def test_generating_edge_check_agrees_with_all_triples(family):
    outcomes = {"valid": 0, "invalid": 0}
    two_way = 0
    for seed in range(300):
        rng = random.Random(seed)
        m = _rand_rep_family(rng, family)
        p = m.proset
        assert p.generating_edges == _generating_edges_by_definition(p)
        assert proset_from_pairs(p.n, p.generating_edges).up == p.up
        two_way += any(p.leq(k, j) for (j, k) in p.generating_edges)
        assert validate_representation(m) is None
        assert _validate_all_triples(p, m.field, m.dims, _every_pair(m)) is None
        maps = _corrupt_one_map(rng, m)
        if maps is None:
            continue
        want = _validate_all_triples(p, m.field, m.dims, maps) is None
        try:
            Representation(p, m.field, m.dims, maps)
        except ValueError as e:
            assert str(e).startswith("invalid representation: ")
            assert not want
        else:
            assert want
        # the edge check alone, against the pairs that the edges give
        edges = Representation._trusted(
            p, m.field, m.dims, tuple(maps[e] for e in p.generating_edges))
        assert ((validate_representation(edges) is None)
                == (_validate_all_triples(p, m.field, m.dims, _every_pair(edges)) is None))
        outcomes["valid" if want else "invalid"] += 1
    assert min(outcomes.values()) > 0
    assert (two_way > 0) == (family != "chain")


def _packed_pair():
    """pack of the canonical interleaving of [0, 5] and [1, 6] on the eps-3
    carrier of the window [-6, 12]."""
    w = Window(-6, 12)
    i, j = Interval(0, 5), Interval(1, 6)
    f, g = canonical_pair(i, j, 3, w)
    return pack(Interleaving(interval_to_module(i, w), interval_to_module(j, w),
                             lambda_eps(w, 3), f, g))


def test_objects_built_from_edges_store_one_map_per_edge():
    m = _rand_chain_rep(random.Random(3), 40, FieldSpec(2 ** 31 - 1))
    assert len(m.edges) == 39
    w = Window(-6, 12)
    assert len(interval_to_module(Interval(0, 5), w).edges) == w.size - 1
    v = _packed_pair()
    assert len(v.proset.related_pairs) == 658
    assert len(v.edges) == len(v.proset.generating_edges) == 70


def test_a_module_loaded_from_every_pair_stores_one_map_per_edge():
    v = _packed_pair()
    text = save_document("representation", v)
    assert len(json.loads(text)["payload"]["maps"]) == 658
    _, loaded = load_document(text)
    assert loaded == v
    assert len(loaded.edges) == len(loaded.proset.generating_edges) == 70


def test_validating_a_chain_from_its_steps_multiplies_nothing(monkeypatch):
    import shoelace.rep as rep_module

    m = _rand_chain_rep(random.Random(5), 40, FieldSpec(2 ** 31 - 1), max_dim=6)
    calls = []

    def counting_mul(a, b):
        calls.append(1)
        return mat_mul(a, b)

    monkeypatch.setattr(rep_module, "mat_mul", counting_mul)
    assert validate_representation(m) is None
    assert calls == []


def test_long_composite_needs_no_recursion():
    n = 500
    one = Matrix(F5, 1, 1, [[2]])
    m = chain_representation(chain(n), F5, (1,) * n, [one] * (n - 1))
    assert m.map(0, n - 1) == Matrix(F5, 1, 1, [[pow(2, n - 1, 5)]])
    assert m.map(0, 0) == Matrix.identity(F5, 1)
    with pytest.raises(KeyError):
        m.map(1, 0)


def test_equality_compares_the_edge_maps():
    p = chain(3)
    one, zero = Matrix(F2, 1, 1, [[1]]), Matrix(F2, 1, 1, [[0]])
    steps = Representation(p, F2, (1, 1, 1), {(0, 1): one, (1, 2): one})
    full = Representation(p, F2, (1, 1, 1), {pair: one for pair in p.related_pairs})
    assert steps == full and hash(steps) == hash(full)
    assert full.edges == (one, one)
    cut = Representation(p, F2, (1, 1, 1), {(0, 1): one, (1, 2): zero})
    assert steps != cut and cut != steps
    assert cut.map(0, 2) == zero


def _random_path_product(rng, m, i, k):
    """F(i <= k) as the product along a random path of generating edges."""
    p = m.proset
    out = [[] for _ in range(p.n)]
    for (x, y) in p.generating_edges:
        out[x].append(y)
    acc = Matrix.identity(m.field, m.dims[i])
    seen, x = {i}, i
    while x != k:
        # an unseen edge towards k always exists: a cover towards k's class,
        # or the edge to k itself once x is in that class
        y = rng.choice([y for y in out[x] if p.leq(y, k) and y not in seen])
        acc = mat_mul(m.map(x, y), acc)
        seen.add(y)
        x = y
    return acc


def _natural_on_all_pairs(t):
    return all(mat_mul(t.target.map(i, j), t.components[i])
               == mat_mul(t.components[j], t.source.map(i, j))
               for (i, j) in t.source.proset.related_pairs)


def _hom_space_on_all_pairs(m, n):
    shapes = [(n.dims[a], m.dims[a]) for a in range(m.proset.n)]
    constraints = [(n.map(a, b), a, m.map(a, b), b)
                   for (a, b) in m.proset.related_pairs if a != b]
    return mat_solve_homogeneous(m.field, shapes, constraints)


@pytest.mark.parametrize("family", ["chain", "closure", "carrier"])
def test_generating_edges_agree_with_all_pairs(family):
    """Lazy composites, naturality on generating edges and hom dimensions
    from generating edges, each against its all-pairs reference."""
    natural = {True: 0, False: 0}
    for seed in range(80):
        rng = random.Random(seed)
        m = _rand_rep_family(rng, family)
        p = m.proset
        lazy = Representation(p, m.field, m.dims,
                              {e: m.map(*e) for e in p.generating_edges})
        for (i, k) in p.related_pairs:
            assert lazy.map(i, k) == m.map(i, k)
            assert lazy.map(i, k) == _random_path_product(rng, m, i, k)
        n = _rand_rep(rng, p, m.field, max_dim=2)
        dim, basis = _hom_space_on_all_pairs(m, n)
        assert _hom_dimension(m, n) == dim
        for comps in basis[:3]:
            t = NatTrans(m, n, comps)
            assert validate_nat_trans(t) is None
            bad = list(comps)
            a = rng.choice([a for a in range(p.n) if bad[a].rows and bad[a].cols])
            entries = [list(row) for row in bad[a].entries]
            entries[rng.randrange(bad[a].rows)][rng.randrange(bad[a].cols)] += 1
            bad[a] = Matrix(m.field, bad[a].rows, bad[a].cols, entries)
            # the public constructor would refuse the unnatural half
            t = NatTrans._trusted(m, n, tuple(bad))
            got = validate_nat_trans(t) is None
            assert got == _natural_on_all_pairs(t)
            natural[got] += 1
    assert min(natural.values()) > 0
