import math
import random
import re
import sys
import tracemalloc
from collections import Counter

import pytest

from hypothesis import example, given, settings
import hypothesis.strategies as st

from shoelace.docio import load_document, save_document
from shoelace.exactlin import FieldSpec, Matrix
from shoelace.interleave import Interleaving, pack, unpack, validate_interleaving
from shoelace.proset import (
    iso_pairs,
    proset_from_pairs,
    shoelace,
    validate_proset,
)
from shoelace.rep import (
    chain_representation,
    direct_sum,
    precompose,
    restrict,
    subrelation_transfer,
    validate_nat_trans,
    validate_representation,
    zero_nat,
    zero_representation,
)
from shoelace.selftest import _conjugate, _rand_invertible, _rand_translation
from shoelace.zed import (
    Barcode,
    DecomposedShoelaceRep,
    Ext,
    Interval,
    MAX_ENDPOINT,
    MAX_POINT_DIM,
    Matching,
    NEG_INF,
    POS_INF,
    Window,
    barcode,
    canonical_pair,
    condition_star,
    endpoint_distance,
    expand_decomposed,
    find_matching,
    hom_dimension,
    interval_to_module,
    is_essential,
    iter_matchings,
    lambda_eps,
    match_or_witness,
    matching_interleaving,
    matching_to_rep,
    pack_decomposed,
    pair_ok,
    rep_to_matching,
    shoelace_window,
    short_pair_fails_star,
    summand_support,
    support_is_interval,
    validate_decomposed,
    validate_matching,
    window_chain,
)

F2 = FieldSpec(2)
F5 = FieldSpec(5)


def test_endpoint_distance_conventions():
    inf = math.inf
    # equal infinities are at distance 0, not at inf - inf, which is NaN
    assert endpoint_distance(inf, inf) == 0
    assert endpoint_distance(-inf, -inf) == 0
    assert endpoint_distance(inf, -inf) == inf
    assert endpoint_distance(-inf, inf) == inf
    assert endpoint_distance(inf, 5) == inf
    assert endpoint_distance(5, -inf) == inf
    assert endpoint_distance(3, 7) == 4
    assert endpoint_distance(2 ** 60 + 1, 2 ** 60) == 1


def test_ext_parses_and_formats():
    assert Ext(3) == 3
    assert str(NEG_INF) == "-inf" and str(POS_INF) == "+inf"
    assert Ext.of("+inf") is POS_INF and Ext.of("-inf") is NEG_INF
    assert [e.to_json() for e in (NEG_INF, Ext(3), POS_INF)] == ["-inf", 3, "+inf"]
    with pytest.raises(ValueError, match="not an extended integer"):
        Ext.of("infinity")
    with pytest.raises(ValueError, match="not an extended integer"):
        Ext.of(1.5)
    with pytest.raises(ValueError):
        Ext(True)
    # endpoints are compared and shifted as plain values, never as Ext
    for name in ("_key", "__lt__", "__le__", "__gt__", "__ge__", "__add__", "__sub__"):
        assert name not in Ext.__dict__, name
    assert not hasattr(Interval, "sort_key")


def _ref(e):
    """An endpoint's order key under the former Ext: (kind, value), with kind
    -1, 0 or 1 for -inf, finite and +inf."""
    return (-1, 0) if e == "-inf" else (1, 0) if e == "+inf" else (0, e)


def _ref_plain(k):
    return k[0] * math.inf if k[0] else k[1]


def _ref_minus(k, eps):
    return k if k[0] else (0, k[1] - eps)


def _ref_dist(a, b):
    if a[0] or b[0]:
        return (0, 0) if a[0] == b[0] else (1, 0)
    return (0, abs(a[1] - b[1]))


def _ref_short(k, eps):
    (lo, hi) = k
    return lo[0] == hi[0] == 0 and hi[1] - lo[1] < 2 * eps


def _ref_star(i, j, eps):
    (x, y), (s, t) = i, j
    m = _ref_minus
    return m(s, eps) <= x <= m(t, eps) <= y or m(x, eps) <= s <= m(y, eps) <= t


_ENDS = (st.sampled_from(["-inf", "+inf"]) | st.integers(-8, 8)
         | st.integers(2 ** 60, 2 ** 60 + 8))
_BARS = st.tuples(_ENDS, _ENDS).filter(
    lambda e: e[0] != "+inf" and e[1] != "-inf" and _ref(e[0]) <= _ref(e[1]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_BARS, min_size=1, max_size=6), st.integers(0, 4),
       st.integers(-10, 10) | st.integers(2 ** 60, 2 ** 60 + 8))
def test_plain_endpoints_agree_with_the_ext_reference(raw, eps, v):
    """Intervals on plain ends order, shift, measure and match exactly as
    under the former Ext (kind, value) keys, kept here as the reference.
    Ends past 2**53 check that no end is rounded through a float."""
    keys = [(_ref(lo), _ref(hi)) for lo, hi in raw]
    bars = [Interval(lo, hi) for lo, hi in raw]
    assert (sorted(range(len(bars)), key=lambda n: bars[n].ends)
            == sorted(range(len(keys)), key=lambda n: keys[n]))
    for (lo, hi), bar, k in zip(raw, bars, keys):
        assert bar.ends == tuple(map(_ref_plain, k))
        assert bar.shifted(eps).ends == tuple(_ref_plain(_ref_minus(e, eps)) for e in k)
        assert bar.is_short(eps) == _ref_short(k, eps)
        assert bar.contains(v) == (k[0] <= (0, v) <= k[1])
        again = Interval(Ext.of(lo), Ext.of(hi))
        assert again == bar and hash(again) == hash(bar)
    for a, ka in zip(bars, keys):
        for b, kb in zip(bars, keys):
            dists = [_ref_dist(ka[e], kb[e]) for e in (0, 1)]
            for e in (0, 1):
                assert endpoint_distance(a.ends[e], b.ends[e]) == _ref_plain(dists[e])
            star = _ref_star(ka, kb, eps)
            assert condition_star(a, b, eps) == star
            within = all(d <= (0, eps) for d in dists)
            fails = _ref_short(ka, eps) and _ref_short(kb, eps) and not star
            assert pair_ok(a, b, eps) == within
            assert pair_ok(a, b, eps, require_essential=True) == (within and not fails)
            assert (a == b) == (ka == kb)
            if a == b:
                assert hash(a) == hash(b)


def _ref_ext_of(x):
    """Ext.of as it was written before endpoints were parsed plainly."""
    if isinstance(x, Ext):
        return x
    if x in ("-inf", "+inf"):
        return NEG_INF if x == "-inf" else POS_INF
    if isinstance(x, int) and not isinstance(x, bool):
        return Ext(x)
    raise ValueError(f"not an extended integer: {x!r} ({type(x).__name__})")


def _outcome(f, *args):
    """("ok", f(*args)), or ("refused", message) on a ValueError."""
    try:
        return "ok", f(*args)
    except ValueError as e:
        return "refused", str(e)


@settings(max_examples=300, deadline=None)
@given(st.integers(-2 ** 70, 2 ** 70) | st.booleans() | st.floats() | st.text(max_size=5)
       | st.none() | st.sampled_from(["-inf", "+inf", "inf", "-Infinity", NEG_INF,
                                      POS_INF, Ext(3), Ext(-2 ** 61), [1], (0,), b"1"]))
def test_endpoints_parse_exactly_as_ext_of_did(x):
    """zed._endpoint accepts what Ext.of accepted, with the same value, and
    refuses the rest with the same message; Ext.of now goes through it."""
    from shoelace.zed import _endpoint

    def plain(e):
        return e.kind * math.inf if e.kind else e.value

    ref = _outcome(_ref_ext_of, x)
    got = _outcome(_endpoint, x)
    assert got[0] == ref[0]
    if ref[0] == "ok":
        assert got[1] == plain(ref[1]) and type(got[1]) is type(plain(ref[1]))
        assert Ext.of(x) == ref[1]
    else:
        assert got == ref == _outcome(Ext.of, x)


def test_interval_refuses_floats_bools_and_nan():
    """The parse boundary admits ints and the two strings only: a float
    infinity would be a valid plain end, so it must not slip in."""
    for lo, hi in ((math.inf, 3), (1.0, 2), (True, 2), (0, float("nan"))):
        with pytest.raises(ValueError, match="not an extended integer"):
            Interval(lo, hi)
    with pytest.raises(ValueError, match=r"-inf \(float\)"):
        Interval(-math.inf, 3)


def test_endpoints_and_windows_stay_within_the_limit():
    """Ends up to MAX_ENDPOINT meet math.inf without an OverflowError."""
    top = Interval(MAX_ENDPOINT, "+inf")
    assert not top.is_short(1) and not Interval("-inf", -MAX_ENDPOINT).is_short(1)
    assert endpoint_distance(-MAX_ENDPOINT, math.inf) == math.inf
    assert Window(MAX_ENDPOINT - 1, MAX_ENDPOINT).indices(*top.ends) == range(1, 2)
    with pytest.raises(ValueError, match="beyond the limit"):
        Interval(-MAX_ENDPOINT - 1, 0)
    with pytest.raises(ValueError, match="beyond the limit"):
        Window(MAX_ENDPOINT, MAX_ENDPOINT + 1)


def test_finite_ext_hashes_like_its_int():
    assert hash(Ext(3)) == hash(3)
    assert len({Ext(3), 3}) == 1
    assert {Ext(-2): "x"}[-2] == "x"
    assert len({NEG_INF, Ext(0), POS_INF, Ext.of("+inf")}) == 3


def test_interval_shapes_and_refusals():
    assert str(Interval(0, 3)) == "[0,3]"
    assert str(Interval(NEG_INF, 3)) == "(-inf,3]"
    assert str(Interval(0, POS_INF)) == "[0,+inf)"
    assert str(Interval(NEG_INF, POS_INF)) == "(-inf,+inf)"
    with pytest.raises(ValueError, match="cannot start"):
        Interval(POS_INF, POS_INF)
    with pytest.raises(ValueError, match="cannot end"):
        Interval(NEG_INF, NEG_INF)
    with pytest.raises(ValueError, match="empty interval"):
        Interval(3, 0)
    with pytest.raises(AttributeError):
        Interval(0, 1).lo = Ext(2)


def test_interval_length_and_shortness():
    assert Interval(0, 3).length() == 3
    assert Interval(0, POS_INF).length() == math.inf
    assert Interval(NEG_INF, POS_INF).length() == math.inf
    assert Interval(0, 0).is_short(1)
    assert not Interval(0, 0).is_short(0)
    assert not Interval(0, 2).is_short(1)
    assert not Interval(0, POS_INF).is_short(10 ** 6)
    assert Interval(0, 3).contains(0) and Interval(0, 3).contains(3)
    assert not Interval(0, 3).contains(4)
    assert Interval(NEG_INF, 2).contains(-10 ** 9)


def test_interval_canonical_order():
    bars = [
        Interval(0, POS_INF),
        Interval(0, 1),
        Interval(NEG_INF, 5),
        Interval(NEG_INF, POS_INF),
        Interval(-2, 0),
    ]
    b = Barcode(bars)
    assert list(b) == [
        Interval(NEG_INF, 5),
        Interval(NEG_INF, POS_INF),
        Interval(-2, 0),
        Interval(0, 1),
        Interval(0, POS_INF),
    ]


def test_barcode_multiset_semantics():
    a = Barcode([Interval(0, 1), Interval(0, 1), Interval(2, 3)])
    b = Barcode([Interval(2, 3), Interval(0, 1), Interval(0, 1)])
    assert a == b
    assert a.counts()[Interval(0, 1)] == 2
    assert len(a) == 3
    assert Barcode([]) == Barcode([])
    with pytest.raises(ValueError, match="not an interval"):
        Barcode([(0, 1)])


def test_window_basics():
    w = Window(-2, 3)
    assert w.size == 6
    assert w.index(-2) == 0 and w.index(3) == 5
    assert w.value(0) == -2 and w.value(5) == 3
    with pytest.raises(ValueError, match="outside window"):
        w.index(4)
    with pytest.raises(ValueError, match="empty window"):
        Window(1, 0)
    assert Window(0, 1023).size == 1024
    with pytest.raises(ValueError, match="1025 points, more than the limit of 1024"):
        Window(0, 1024)


@pytest.mark.parametrize("lo, hi, bad", [(0.5, 2.5, "0.5"), (True, 3, "True"),
                                         (0, 3.0, "3.0"), (0, "3", "'3'")])
def test_window_refuses_ends_that_are_not_ints(lo, hi, bad):
    with pytest.raises(TypeError, match=f"^window ends must be integers, got {bad}$"):
        Window(lo, hi)


def test_window_chain_labels_and_heights():
    w = Window(-1, 2)
    p = window_chain(w)
    assert p.n == 4
    assert [p.label(i) for i in range(4)] == ["-1", "0", "1", "2"]
    # element i has height w.value(i), and the chain is ordered by it
    assert [w.value(i) for i in range(4)] == [-1, 0, 1, 2]
    assert all(p.leq(i, j) == (w.value(i) <= w.value(j))
               for i in range(4) for j in range(4))


def test_lambda_eps_examples():
    w = Window(0, 5)
    assert lambda_eps(w, 0).mapping == (0, 1, 2, 3, 4, 5)
    assert lambda_eps(w, 2).mapping == (2, 3, 4, 5, 5, 5)
    with pytest.raises(ValueError, match="epsilon must be a nonnegative integer, got -1"):
        lambda_eps(w, -1)


def test_lambda_eps_interior_height_is_uniform():
    w = Window(0, 5)
    t = lambda_eps(w, 2)
    shifts = [w.value(t(i)) - w.value(i) for i in range(w.size)]
    # the shift is 2 away from the clamp, and less at the window top
    assert shifts[:4] == [2] * 4
    assert max(shifts) == 2
    assert shifts[4:] == [1, 0]


def test_shoelace_window_iso_pairs_at_eps_zero():
    sh = shoelace_window(Window(0, 1), 0)
    assert iso_pairs(sh) == frozenset(
        {frozenset({0, 2}), frozenset({1, 3})})


def test_shoelace_window_cross_pairs():
    w = Window(0, 3)
    sh = shoelace_window(w, 2)
    assert validate_proset(sh) is None
    plain_to_primed = {(i, j) for i in range(4) for j in range(4)
                       if sh.leq(i, 4 + j)}
    primed_to_plain = {(i, j) for i in range(4) for j in range(4)
                       if sh.leq(4 + i, j)}
    assert plain_to_primed == {(0, 2), (0, 3), (1, 3)}
    assert primed_to_plain == {(0, 2), (0, 3), (1, 3)}
    assert sh.label(5) == "1'"
    # i <= j' exactly when the heights satisfy w.value(i) + eps <= w.value(j)
    assert plain_to_primed == {(i, j) for i in range(4) for j in range(4)
                               if w.value(i) + 2 <= w.value(j)}
    with pytest.raises(ValueError, match="epsilon must be a nonnegative integer, got -1"):
        shoelace_window(Window(0, 3), -1)


def test_carrier_at_the_window_limit_is_stored_as_bit_rows():
    """2048 points hold one int per row, about 0.6 MiB, where a table of
    bools took about 32 MiB; the generating edges are the same 4092."""
    sh = shoelace_window(Window(0, 1023), 1)
    assert sh.n == 2048
    assert sum(map(sys.getsizeof, sh.up)) < 2 * 2 ** 20
    assert sh.leq(0, 1024 + 1) and not sh.leq(0, 1024) and sh.leq(1024, 2047)
    assert len(sh.generating_edges) == 4092


def test_interval_to_module_support():
    w = Window(0, 3)
    m = interval_to_module(Interval(1, 2), w)
    assert m.dims == (0, 1, 1, 0)
    assert m.map(1, 2) == Matrix.identity(F2, 1)
    assert interval_to_module(Interval(NEG_INF, POS_INF), w).dims == (1, 1, 1, 1)
    assert interval_to_module(Interval(NEG_INF, 1), w).dims == (1, 1, 0, 0)
    with pytest.raises(ValueError, match="outside window"):
        interval_to_module(Interval(5, 9), w)
    with pytest.raises(ValueError, match="refusing a lossy clamp"):
        interval_to_module(Interval(0, 9), w)


def test_barcode_single_bar():
    w = Window(0, 3)
    m = interval_to_module(Interval(0, 3), w)
    assert barcode(m, w) == Barcode([Interval(0, 3)])


def test_barcode_two_bar_example():
    w = Window(0, 2)
    p = window_chain(w)
    m = chain_representation(p, F2, (1, 2, 1),
                             [Matrix(F2, 2, 1, [[1], [0]]),
                              Matrix(F2, 1, 2, [[0, 1]])])
    assert barcode(m, w) == Barcode([Interval(0, 1), Interval(1, 2)])


def test_barcode_boundary_infinite():
    w = Window(0, 3)
    full = interval_to_module(Interval(NEG_INF, POS_INF), w)
    assert barcode(full, w) == Barcode([Interval(0, 3)])
    assert barcode(full, w, boundary="infinite") == Barcode(
        [Interval(NEG_INF, POS_INF)])
    low = interval_to_module(Interval(0, 2), w)
    assert barcode(low, w, boundary="infinite") == Barcode(
        [Interval(NEG_INF, 2)])
    high = interval_to_module(Interval(1, 3), w)
    assert barcode(high, w, boundary="infinite") == Barcode(
        [Interval(1, POS_INF)])


def test_barcode_rejects_bad_arguments():
    w = Window(0, 3)
    m = interval_to_module(Interval(0, 3), w)
    with pytest.raises(ValueError, match="boundary"):
        barcode(m, w, boundary="open")
    with pytest.raises(ValueError, match="points"):
        barcode(m, Window(0, 4))


def test_barcode_scramble_oracle():
    rng = random.Random(3)
    w = Window(0, 2)
    truth = [Interval(0, 1), Interval(0, 1), Interval(1, 2),
             Interval(NEG_INF, POS_INF)]
    parts = [interval_to_module(i, w, F5) for i in truth]
    total, _ = direct_sum(parts, proset=parts[0].proset, field=F5)
    us = [_rand_invertible(rng, F5, d) for d in total.dims]
    scrambled, _ = _conjugate(total, us)
    assert validate_representation(scrambled) is None
    got = barcode(scrambled, w)
    assert got == Barcode([Interval(0, 1), Interval(0, 1), Interval(1, 2),
                           Interval(0, 2)])
    for k in range(w.size):
        covering = sum(1 for bar in got if bar.contains(w.value(k)))
        assert covering == scrambled.dims[k]


def test_condition_star_examples():
    assert condition_star(Interval(0, 1), Interval(1, 2), 1)
    assert not condition_star(Interval(0, 0), Interval(2, 2), 1)
    for i in (Interval(0, 0), Interval(1, 3), Interval(NEG_INF, POS_INF)):
        assert condition_star(i, i, 0)
    # the disjunction is symmetric in the two intervals
    assert condition_star(Interval(1, 2), Interval(0, 1), 1)
    # the pairs an essential matching may not hold: both short, (*) fails
    assert short_pair_fails_star(Interval(0, 0), Interval(2, 2), 1)
    assert not condition_star(Interval(0, 0), Interval(2, 2), 0)
    assert not short_pair_fails_star(Interval(0, 0), Interval(2, 2), 0)
    assert not short_pair_fails_star(Interval(0, 1), Interval(1, 2), 1)


def test_validate_matching_infinite_conventions():
    inf1 = Interval(1, POS_INF)
    inf0 = Interval(0, POS_INF)
    good = Matching(Barcode([inf1]), Barcode([inf0]), [(inf1, inf0)], 1)
    assert validate_matching(good) is None
    long_bar = Interval(1, 10000)
    with pytest.raises(ValueError, match=r"right endpoints differ by \+inf"):
        Matching(Barcode([long_bar]), Barcode([inf0]), [(long_bar, inf0)], 1)


def test_validate_matching_shortness_and_multiset():
    long_bar = Interval(1, 10000)
    with pytest.raises(ValueError, match="not < 2"):
        Matching(Barcode([long_bar]), Barcode([]), [], 1)
    with pytest.raises(ValueError, match=r"length \+inf"):
        Matching(Barcode([Interval(0, POS_INF)]), Barcode([]), [], 3)
    short = Matching(Barcode([Interval(5, 5)]), Barcode([]), [], 1)
    assert validate_matching(short) is None
    i01 = Interval(0, 1)
    with pytest.raises(ValueError, match="source barcode provides"):
        Matching(Barcode([i01]), Barcode([i01, i01]), [(i01, i01), (i01, i01)], 0)
    with pytest.raises(ValueError, match="epsilon"):
        Matching(Barcode([]), Barcode([]), [], -1)


def test_matching_epsilon_zero_degenerate():
    a, b = Interval(0, 1), Interval(2, 3)
    bars = Barcode([a, b])
    exact = Matching(bars, bars, [(a, a), (b, b)], 0)
    assert validate_matching(exact) is None
    with pytest.raises(ValueError, match="not < 0"):
        Matching(bars, bars, [(a, a)], 0)


def test_is_essential_examples():
    i02, i13 = Interval(0, 2), Interval(1, 3)
    exempt = Matching(Barcode([i02]), Barcode([i13]), [(i02, i13)], 1)
    assert is_essential(exempt) == []
    i00, i11 = Interval(0, 0), Interval(1, 1)
    ok = Matching(Barcode([i00]), Barcode([i11]), [(i00, i11)], 1)
    assert is_essential(ok) == []
    bad = Matching(Barcode([i00]), Barcode([i11]), [(i00, i11)], 2)
    assert is_essential(bad) == [(i00, i11)]
    with pytest.raises(ValueError, match="invalid matching"):
        Matching(Barcode([i00]), Barcode([]), [(i00, i11)], 2)


def test_hom_dimension_examples():
    w = Window(0, 4)
    assert hom_dimension(Interval(1, 3), Interval(0, 2), w) == 1
    assert hom_dimension(Interval(0, 1), Interval(2, 3), Window(0, 3)) == 0
    for i in (Interval(0, 2), Interval(0, POS_INF), Interval(NEG_INF, POS_INF)):
        assert hom_dimension(i, i, w) == 1
        assert hom_dimension(i, i, w, F5) == 1


def test_canonical_pair_one_sided_support():
    w = Window(-1, 3)
    f, g = canonical_pair(Interval(0, 1), Interval(1, 2), 1, w)
    assert validate_nat_trans(f) is None
    assert validate_nat_trans(g) is None
    f_support = {w.value(a) for a, c in enumerate(f.components)
                 if not c.is_zero()}
    assert f_support == {0, 1}
    assert all(c.is_zero() for c in g.components)


def test_canonical_pair_two_sided_support():
    w = Window(-1, 4)
    f, g = canonical_pair(Interval(0, 2), Interval(1, 3), 1, w)
    f_support = {w.value(a) for a, c in enumerate(f.components)
                 if not c.is_zero()}
    g_support = {w.value(a) for a, c in enumerate(g.components)
                 if not c.is_zero()}
    assert f_support == {0, 1, 2}
    assert g_support == {1}


def test_canonical_pair_identity_at_eps_zero():
    from shoelace.rep import NatTrans

    w = Window(0, 3)
    i = Interval(1, 2)
    f, g = canonical_pair(i, i, 0, w)
    m = interval_to_module(i, w)
    identity = NatTrans(m, m, [Matrix.identity(m.field, d) for d in m.dims])
    assert f == identity
    assert g == identity


def test_canonical_pair_refusals():
    with pytest.raises(ValueError, match="no headroom"):
        canonical_pair(Interval(0, 4), Interval(0, 4), 2, Window(0, 4))
    with pytest.raises(ValueError, match="not realizable"):
        canonical_pair(Interval(0, 9), Interval(0, 1), 1, Window(0, 4))


def test_star_hom_canonical_equivalence_small_sweep():
    w = Window(-3, 5)
    pool = [Interval(a, b) for a in range(4) for b in range(a, 4)]
    for eps in (0, 1, 2):
        for i in pool:
            for j in pool:
                h1 = hom_dimension(i, j.shifted(eps), w)
                h2 = hom_dimension(j, i.shifted(eps), w)
                star = condition_star(i, j, eps)
                assert star == (h1 > 0 or h2 > 0)
                f, g = canonical_pair(i, j, eps, w)
                assert validate_nat_trans(f) is None
                assert validate_nat_trans(g) is None
                f_nonzero = any(not c.is_zero() for c in f.components)
                g_nonzero = any(not c.is_zero() for c in g.components)
                assert f_nonzero == (h1 > 0)
                assert g_nonzero == (h2 > 0)


def test_matching_to_rep_worked_example():
    i02, i13, i55 = Interval(0, 2), Interval(1, 3), Interval(5, 5)
    s = Matching(Barcode([i02, i55]), Barcode([i13]), [(i02, i13)], 1)
    w = Window(-2, 7)
    l = matching_to_rep(s, w)
    assert l.summands == ((i02, i13), (i55, None))
    assert l.epsilon == 1 and l.window == w
    assert validate_decomposed(l) is None
    empty = matching_to_rep(Matching(Barcode([]), Barcode([]), [], 1), w)
    assert empty.summands == ()


def test_matching_to_rep_fprime_splits_star_violations():
    i00, i11 = Interval(0, 0), Interval(1, 1)
    s = Matching(Barcode([i00]), Barcode([i11]), [(i00, i11)], 2)
    w = Window(-4, 5)
    l = matching_to_rep(s, w, variant="nonessential_Fprime")
    assert l.summands == ((i00, None), (None, i11))
    with pytest.raises(ValueError, match="not essential"):
        matching_to_rep(s, w, variant="essential_F")
    # the certificate's own check refuses the window, one summand at a time
    with pytest.raises(ValueError, match=r"summand 0: endpoint 0 needs 2\*eps = 4 padding"):
        matching_to_rep(s, Window(0, 5), variant="nonessential_Fprime")
    with pytest.raises(ValueError, match="unknown variant"):
        matching_to_rep(s, w, variant="F")
    with pytest.raises(ValueError, match="invalid matching"):
        Matching(Barcode([Interval(0, 9)]), Barcode([]), [], 1)


def test_matching_to_rep_tests_each_pair_once(monkeypatch):
    """nonessential_Fprime decides each split with one Condition (*) test
    per pair; only essential_F asks is_essential, with the same count."""
    import shoelace.zed as zed_mod

    i00, i11, i02, i13 = Interval(0, 0), Interval(1, 1), Interval(0, 2), Interval(1, 3)
    s = Matching(Barcode([i00, i02]), Barcode([i11, i13]), [(i00, i11), (i02, i13)], 2)
    w = Window(-4, 7)
    calls = Counter()
    monkeypatch.setattr(zed_mod, "short_pair_fails_star",
                        _counted(calls, "star", zed_mod.short_pair_fails_star))
    l = matching_to_rep(s, w, "nonessential_Fprime")
    assert calls == {"star": 2}
    assert l.summands == ((i00, None), (i02, i13), (None, i11))
    assert l == DecomposedShoelaceRep(w, 2, F2, l.summands)
    calls.clear()
    with pytest.raises(ValueError, match=re.escape(
            "matching is not essential: pair ([0,0], [1,1]) violates the overlap condition")):
        matching_to_rep(s, w, "essential_F")
    assert calls == {"star": 2}


def test_rep_to_matching_round_trips():
    i02, i13, i55 = Interval(0, 2), Interval(1, 3), Interval(5, 5)
    s = Matching(Barcode([i02, i55]), Barcode([i13]), [(i02, i13)], 1)
    w = Window(-2, 7)
    assert rep_to_matching(matching_to_rep(s, w)) == s
    single = DecomposedShoelaceRep(Window(-2, 5), 1, F2, [(i02, i13)])
    got = rep_to_matching(single)
    assert got == Matching(Barcode([i02]), Barcode([i13]), [(i02, i13)], 1)
    i00, i11 = Interval(0, 0), Interval(1, 1)
    star_violating = Matching(Barcode([i00]), Barcode([i11]), [(i00, i11)], 2)
    back = rep_to_matching(matching_to_rep(
        star_violating, Window(-4, 5), variant="nonessential_Fprime"))
    assert back != star_violating
    assert back == Matching(Barcode([i00]), Barcode([i11]), [], 2)


def test_validate_decomposed_violations():
    w = Window(-4, 9)
    ok_long = DecomposedShoelaceRep(w, 1, F2, [(Interval(0, 6), Interval(1, 5))])
    assert validate_decomposed(ok_long) is None
    for window, eps, summand, message in (
            (w, 1, (None, None), "no sides"),
            (w, 1, (Interval(0, 5), None), "not < 2"),
            (w, 1, (Interval(0, 0), Interval(2, 2)), "differ"),
            (w, 2, (Interval(0, 0), Interval(1, 1)), "overlap condition"),
            (Window(0, 3), 1, (Interval(0, 1), None), "padding")):
        with pytest.raises(ValueError,
                           match=f"invalid decomposed representation: .*{message}"):
            DecomposedShoelaceRep(window, eps, F2, [summand])
    with pytest.raises(ValueError, match="Interval or None"):
        DecomposedShoelaceRep(w, 1, F2, [((0, 1), None)])


@pytest.mark.parametrize("build, message", [
    (lambda: DecomposedShoelaceRep("x", 1, F2, []), "window must be a Window"),
    (lambda: DecomposedShoelaceRep(Window(0, 7), 1, "F2", []), "field must be a FieldSpec"),
    (lambda: DecomposedShoelaceRep(
        Window(-2, 7), 1, F2, [(Interval(0, 2), Interval(1, 3), Interval(5, 5))]),
     r"\(left, right\) pair"),
    (lambda: Matching([Interval(0, 1)], Barcode([]), [], 1), "must be barcodes"),
    (lambda: Matching(Barcode([Interval(0, 2)]), Barcode([Interval(0, 2)]), [(1, 2)], 1),
     "must be two Intervals"),
    (lambda: find_matching([Interval(0, 2)], Barcode([Interval(0, 2)]), 1), "must be barcodes"),
    (lambda: find_matching(Barcode([Interval(0, 2)]), "x", 1), "must be barcodes"),
    (lambda: match_or_witness(None, Barcode([]), 1), "must be barcodes"),
    (lambda: list(iter_matchings(Barcode([]), [Interval(0, 2)], 1)), "must be barcodes"),
    (lambda: rep_to_matching("x"), "not a decomposed representation: 'x'"),
    (lambda: rep_to_matching(Matching(Barcode([]), Barcode([]), [], 1)),
     "not a decomposed representation"),
    (lambda: matching_to_rep("x", Window(-2, 4)), "not a matching: 'x'"),
], ids=["window", "field", "three_sides", "matching_sides", "matching_pairs",
        "find_matching_list", "find_matching_str", "match_or_witness", "iter_matchings",
        "rep_to_matching_str", "rep_to_matching_matching", "matching_to_rep"])
def test_constructors_refuse_frames_of_the_wrong_type(build, message):
    """Checked before validate_decomposed and validate_matching, which
    read the window, field, pairs and barcodes as those types, and by the
    builders that skip those constructors before they read their
    arguments: a ValueError, never an AttributeError from deep inside."""
    with pytest.raises(ValueError, match=message):
        build()


_ONE = Barcode([Interval(0, 1)])


@pytest.mark.parametrize("eps", [-1, 1.5, True], ids=["negative", "float", "bool"])
@pytest.mark.parametrize("call", [
    lambda eps: lambda_eps(Window(0, 3), eps),
    lambda eps: shoelace_window(Window(0, 3), eps),
    lambda eps: canonical_pair(Interval(0, 1), Interval(0, 1), eps, Window(0, 5)),
    lambda eps: list(iter_matchings(_ONE, _ONE, eps)),
    lambda eps: find_matching(_ONE, _ONE, eps),
    lambda eps: match_or_witness(_ONE, _ONE, eps),
    lambda eps: Matching(_ONE, _ONE, [], eps),
    lambda eps: DecomposedShoelaceRep(Window(-4, 9), eps, F2, []),
], ids=["lambda_eps", "shoelace_window", "canonical_pair", "iter_matchings",
        "find_matching", "match_or_witness", "Matching", "DecomposedShoelaceRep"])
def test_every_entry_point_refuses_a_bad_epsilon(call, eps):
    """One rule and one message for eps.  The window caches hold eps 1
    first: True equals 1, and must not be answered from its entry."""
    lambda_eps(Window(0, 3), 1)
    shoelace_window(Window(0, 3), 1)
    canonical_pair(Interval(0, 1), Interval(0, 1), 1, Window(0, 5))
    with pytest.raises(ValueError, match=re.escape(
            f"epsilon must be a nonnegative integer, got {eps!r}")):
        call(eps)


def test_summand_support_and_interval_check():
    w = Window(0, 3)
    assert summand_support((Interval(0, 1), None), w, 1) == frozenset({0, 1})
    assert summand_support((None, Interval(1, 2)), w, 1) == frozenset({5, 6})
    assert summand_support((Interval(0, 1), Interval(1, 2)), w, 1) == frozenset(
        {0, 1, 5, 6})
    p = window_chain(w)
    assert support_is_interval(p, frozenset({0, 1}))
    assert support_is_interval(p, frozenset({2}))
    assert not support_is_interval(p, frozenset())
    assert not support_is_interval(p, frozenset({0, 3}))


def reference_support_is_interval(p, support):
    """The search and triple loop that support_is_interval's masks replace."""
    if not support:
        return False
    start = min(support)
    seen = {start}
    queue = [start]
    while queue:
        x = queue.pop()
        for y in support:
            if y not in seen and (p.leq(x, y) or p.leq(y, x)):
                seen.add(y)
                queue.append(y)
    if seen != support:
        return False
    for a in support:
        for b in support:
            if not p.leq(a, b):
                continue
            for c in range(p.n):
                if c not in support and p.leq(a, c) and p.leq(c, b):
                    return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_support_is_interval_agrees_with_the_loops(seed):
    """On random prosets and their carriers, for random subsets and for the
    elements between random ends, so that both verdicts occur."""
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    p = proset_from_pairs(n, [(rng.randrange(n), rng.randrange(n))
                              for _ in range(rng.randint(0, 2 * n))])
    if rng.random() < 0.5:
        p = shoelace(p, _rand_translation(rng, p))
    if rng.random() < 0.5:
        support = frozenset(x for x in range(p.n) if rng.random() < 0.5)
    else:
        ends = rng.sample(range(p.n), rng.randint(1, min(p.n, 3)))
        support = frozenset(c for c in range(p.n)
                            if any(p.leq(a, c) and p.leq(c, b) for a in ends for b in ends))
    assert support_is_interval(p, support) == reference_support_is_interval(p, support)


def test_expand_summand_is_thin():
    w = Window(-2, 5)
    pair = (Interval(0, 2), Interval(1, 3))
    e = pack_decomposed(DecomposedShoelaceRep(w, 1, F2, [pair]))
    assert validate_representation(e) is None
    assert all(d <= 1 for d in e.dims)
    assert restrict(e, "left") == interval_to_module(Interval(0, 2), w)
    assert restrict(e, "right") == interval_to_module(Interval(1, 3), w)
    support = frozenset(k for k, d in enumerate(e.dims) if d)
    assert support == summand_support(pair, w, 1)
    sh = shoelace_window(w, 1)
    assert support_is_interval(sh, support)
    single = pack_decomposed(
        DecomposedShoelaceRep(Window(-2, 7), 1, F2, [(Interval(5, 5), None)]))
    assert validate_representation(single) is None


def _per_summand_pack(l):
    """The certificate packed summand by summand, each summand's own
    interleaving on its own carrier, then summed on an explicit carrier: the
    reference for pack_decomposed."""
    w, eps, field = l.window, l.epsilon, l.field
    p = window_chain(w)
    lam = lambda_eps(w, eps)
    zero = zero_representation(p, field)
    parts = []
    for a, b in l.summands:
        m = interval_to_module(a, w, field) if a is not None else zero
        n = interval_to_module(b, w, field) if b is not None else zero
        if a is not None and b is not None:
            f, g = canonical_pair(a, b, eps, w, field)
        else:
            f = zero_nat(m, precompose(n, lam))
            g = zero_nat(n, precompose(m, lam))
        parts.append(pack(Interleaving(m, n, lam, f, g)))
    total, _ = direct_sum(parts, proset=shoelace(p, lam), field=field)
    return total


def _rand_bar(rng):
    lo = "-inf" if rng.random() < 0.15 else rng.randint(0, 6)
    if rng.random() < 0.15:
        return Interval(lo, "+inf")
    return Interval(lo, (0 if lo == "-inf" else lo) + rng.randint(0, 5))


def _rand_certificates(rng, field, eps):
    """Certificates of both variants from the first matching and the first
    essential matching of two random barcodes, the right one mostly jittered
    copies of the left one, each on the smallest padded window and on one
    with random room below and above it."""
    left = [_rand_bar(rng) for _ in range(rng.randint(0, 4))]
    right = []
    for bar in left:
        if rng.random() < 0.8:
            lo, hi = (e if math.isinf(e) else e + rng.randint(-eps, eps)
                      for e in bar.ends)
            right.append(Interval._trusted(lo, max(lo, hi)))
    right += [_rand_bar(rng) for _ in range(rng.randint(0, 1))]
    bm, bn = Barcode(left), Barcode(right)
    ends = [e for bar in left + right for e in bar.finite_endpoints()] or [0]
    w = Window(min(ends) - 2 * eps, max(ends) + 2 * eps)
    roomy = Window(w.lo - rng.randint(0, 3), w.hi + rng.randint(0, 4))
    for variant, essential in (("essential_F", True), ("nonessential_Fprime", False)):
        s = find_matching(bm, bn, eps, require_essential=essential)
        if s is not None:
            yield variant, s, matching_to_rep(s, w, variant, field)
            yield variant, s, matching_to_rep(s, roomy, variant, field)


def test_pack_decomposed_matches_per_summand_packs():
    rng = random.Random(5)
    seen = Counter()
    for field in (F2, F5, FieldSpec(2**31 - 1)):
        for eps in range(4):
            empty = Matching(Barcode([]), Barcode([]), [], eps)
            certs = [("empty", empty, matching_to_rep(empty, Window(0, 0), field=field))]
            for _ in range(8):
                certs += _rand_certificates(rng, field, eps)
            for variant, s, l in certs:
                ref = _per_summand_pack(l)
                assert pack_decomposed(l) == ref
                sh = shoelace_window(l.window, eps)
                assert expand_decomposed(l) == subrelation_transfer(ref, sh)
                seen[variant] += 1
                seen["single"] += sum(None in summand for summand in l.summands)
                seen["infinite"] += sum(len(bar.finite_endpoints()) < 2
                                        for bar in list(s.source) + list(s.target))
                seen["split"] += variant == "nonessential_Fprime" and bool(is_essential(s))
    assert min(seen.values()) > 0, seen


def _per_pair_comparison_maps(s, w, field):
    """phi and psi entries between the interval sums of the two barcodes,
    assembled pair by pair: the canonical pair of each matched pair at the
    slots of the first unused equal bars, the reference for
    matching_interleaving.  canonical_pair itself gives the zero blocks of a
    pair that fails (*)."""
    p = window_chain(w)
    lam = lambda_eps(w, s.epsilon).mapping
    src, tgt = list(s.source), list(s.target)
    m, ms = direct_sum([interval_to_module(bar, w, field) for bar in src],
                       proset=p, field=field)
    n, ns = direct_sum([interval_to_module(bar, w, field) for bar in tgt],
                       proset=p, field=field)
    phi = [[[0] * m.dims[i] for _ in range(n.dims[lam[i]])] for i in range(p.n)]
    psi = [[[0] * n.dims[i] for _ in range(m.dims[lam[i]])] for i in range(p.n)]
    free_s, free_t = list(range(len(src))), list(range(len(tgt)))
    for a, b in s.pairs:
        ks = free_s.pop(next(pos for pos, k in enumerate(free_s) if src[k] == a))
        kt = free_t.pop(next(pos for pos, k in enumerate(free_t) if tgt[k] == b))
        f, g = canonical_pair(a, b, s.epsilon, w, field)
        for i in range(p.n):
            for out, t, rows, cols in ((phi, f, ns[kt][lam[i]], ms[ks][i]),
                                       (psi, g, ms[ks][lam[i]], ns[kt][i])):
                for r, row in enumerate(t.components[i].entries):
                    out[i][rows[0] + r][cols[0]:cols[1]] = row
    return phi, psi


def test_matching_interleaving_matches_per_pair_blocks():
    rng = random.Random(6)
    for field in (F2, F5, FieldSpec(2**31 - 1)):
        for eps in range(4):
            for _ in range(8):
                for _variant, s, l in _rand_certificates(rng, field, eps):
                    x = matching_interleaving(s, l.window, field)
                    phi, psi = _per_pair_comparison_maps(s, l.window, field)
                    assert [list(map(list, c.entries)) for c in x.phi.components] == phi
                    assert [list(map(list, c.entries)) for c in x.psi.components] == psi


def _counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_pack_decomposed_packs_once(monkeypatch):
    """One carrier is built, and no interleaving: neither pack nor its
    validation nor a canonical pair runs."""
    import shoelace.interleave as interleave_mod
    import shoelace.zed as zed_mod

    assert not hasattr(zed_mod, "pack")
    calls = Counter()
    for mod, name in ((zed_mod, "shoelace"), (zed_mod, "canonical_pair"),
                      (interleave_mod, "shoelace"), (interleave_mod, "pack"),
                      (interleave_mod, "validate_interleaving")):
        key = f"{mod.__name__.rsplit('.', 1)[1]}.{name}"
        monkeypatch.setattr(mod, name, _counted(calls, key, getattr(mod, name)))
    i02, i13, i55 = Interval(0, 2), Interval(1, 3), Interval(5, 5)
    cert = DecomposedShoelaceRep(Window(-2, 7), 1, F2,
                                 [(i02, i13), (i55, None), (None, i55)])
    pack_decomposed(cert)
    assert calls == {"zed.shoelace": 1}


def test_certificate_is_validated_once_and_expanded_without_pack(monkeypatch):
    """The loader is the one public build and the one check of a
    certificate: matching_to_rep builds it through the trusted path."""
    import shoelace.rep as rep_mod
    import shoelace.zed as zed_mod

    calls = Counter()
    monkeypatch.setattr(DecomposedShoelaceRep, "__init__",
                        _counted(calls, "built", DecomposedShoelaceRep.__init__))
    for name in ("validate_decomposed", "canonical_pair"):
        monkeypatch.setattr(zed_mod, name, _counted(calls, name, getattr(zed_mod, name)))
    monkeypatch.setattr(rep_mod, "subrelation_transfer",
                        _counted(calls, "subrelation_transfer",
                                 rep_mod.subrelation_transfer))
    i02, i13, i55 = Interval(0, 2), Interval(1, 3), Interval(5, 5)
    s = Matching(Barcode([i02, i55]), Barcode([i13, i55]), [(i02, i13)], 1)
    w = Window(-2, 7)
    cert = matching_to_rep(s, w)
    _, loaded = load_document(save_document("decomposed_rep", cert))
    expand_decomposed(loaded)
    assert rep_to_matching(loaded) == s
    # the interleaving of the matching is built from index ranges alone
    matching_interleaving(s, w)
    assert calls == {"built": 1, "validate_decomposed": 1}


def test_a_matching_is_validated_once_and_its_interleaving_built_once(monkeypatch):
    """A Matching is validated once, by the loader: find_matching and
    rep_to_matching build theirs through the trusted path, and is_essential,
    matching_to_rep and matching_interleaving check nothing again.
    matching_interleaving builds each shifted target once and does not go
    through the public Interleaving constructor."""
    import shoelace.interleave as interleave_mod
    import shoelace.zed as zed_mod

    calls = Counter()
    monkeypatch.setattr(Matching, "__init__",
                        _counted(calls, "built", Matching.__init__))
    monkeypatch.setattr(zed_mod, "validate_matching",
                        _counted(calls, "validated", zed_mod.validate_matching))
    monkeypatch.setattr(Interleaving, "__init__",
                        _counted(calls, "Interleaving", Interleaving.__init__))
    for mod in (interleave_mod, zed_mod):
        monkeypatch.setattr(mod, "precompose",
                            _counted(calls, "precompose", mod.precompose))
    i02, i13, i55 = Interval(0, 2), Interval(1, 3), Interval(5, 5)
    found = find_matching(Barcode([i02, i55]), Barcode([i13, i55]), 1,
                          require_essential=True)
    _, s = load_document(save_document("matching", found))
    assert s == found and calls == {"built": 1, "validated": 1}
    assert is_essential(s) == []
    w = Window(-2, 7)
    cert = matching_to_rep(s, w)
    assert calls == {"built": 1, "validated": 1}
    _, loaded = load_document(save_document("decomposed_rep", cert))
    expand_decomposed(loaded)
    back = rep_to_matching(loaded)
    assert back == s and calls == {"built": 1, "validated": 1}
    x = matching_interleaving(back, w)
    assert calls == {"built": 1, "validated": 1, "precompose": 2}
    assert validate_interleaving(x) is None


def test_pack_decomposed_refuses_a_dimension_above_the_limit():
    whole = (Interval("-inf", "+inf"),) * 2
    over = DecomposedShoelaceRep(Window(0, 7), 1, F2, [whole] * (MAX_POINT_DIM + 1))
    with pytest.raises(ValueError, match=(
            f"dimension {MAX_POINT_DIM + 1} at carrier point 0, "
            f"more than the limit of {MAX_POINT_DIM}")):
        pack_decomposed(over)
    at = DecomposedShoelaceRep(Window(0, 1), 1, F2, [whole] * MAX_POINT_DIM)
    assert pack_decomposed(at).dims == (MAX_POINT_DIM,) * 4


def test_expanding_a_full_certificate_stays_small_in_memory():
    # dimension MAX_POINT_DIM at each of 64 carrier points; dense edge
    # blocks of this sum took 69.7 MiB
    whole = (Interval("-inf", "+inf"),) * 2
    l = DecomposedShoelaceRep(Window(0, 31), 1, F2, [whole] * MAX_POINT_DIM)
    tracemalloc.start()
    try:
        v = expand_decomposed(l)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.dims == (MAX_POINT_DIM,) * 64
    assert peak < 8 * 2 ** 20


def _bars(lo, hi):
    """Every bar whose finite endpoints lie in [lo, hi], infinite ends
    included."""
    ends = range(lo, hi + 1)
    return [Interval(a, b) for a in ["-inf", *ends] for b in [*ends, "+inf"]
            if a == "-inf" or b == "+inf" or a <= b]


def test_support_rule_matches_the_general_check():
    """validate_decomposed's closed-form support rule agrees with
    support_is_interval on every summand that passes the endpoint rules, at
    eps 0..5 on windows of 1..eps+2 and 4eps+1..4eps+9 points."""
    verdicts = Counter()
    for eps in range(6):
        for size in set(range(1, eps + 3)) | set(range(4 * eps + 1, 4 * eps + 10)):
            w = Window(0, size - 1)
            sh = shoelace_window(w, eps)
            # a finite endpoint outside [2*eps, size-1-2*eps] fails the padding rule
            bars = _bars(2 * eps, size - 1 - 2 * eps)
            for summand in ([(a, None) for a in bars] + [(None, b) for b in bars]
                            + [(a, b) for a in bars for b in bars]):
                try:
                    DecomposedShoelaceRep(w, eps, F2, [summand])
                    ok = True
                except ValueError as e:
                    if "support is not connected and convex" not in str(e):
                        continue
                    ok = False
                assert ok == support_is_interval(
                    sh, summand_support(summand, w, eps)), (summand, w, eps)
                verdicts[ok] += 1
    assert verdicts == {True: 12594, False: 15}
    both = (Interval("-inf", "+inf"),) * 2
    with pytest.raises(ValueError, match="summand 0: support is not connected"):
        DecomposedShoelaceRep(Window(0, 1), 2, F2, [both, both])


def test_expand_decomposed_restriction_barcodes():
    i02, i13, i55 = Interval(0, 2), Interval(1, 3), Interval(5, 5)
    s = Matching(Barcode([i02, i55]), Barcode([i13]), [(i02, i13)], 1)
    w = Window(-2, 7)
    cert = matching_to_rep(s, w)
    v = expand_decomposed(cert)
    sh = shoelace_window(w, 1)
    assert v.proset == sh
    assert validate_representation(v) is None
    assert barcode(restrict(v, "left"), w) == Barcode([i02, i55])
    assert barcode(restrict(v, "right"), w) == Barcode([i13])
    pv = pack_decomposed(cert)
    x = unpack(pv)
    assert validate_interleaving(x) is None
    with pytest.raises(ValueError, match="invalid decomposed"):
        DecomposedShoelaceRep(w, 1, F2, [(Interval(0, 5), None)])


def test_find_matching_examples():
    a, b = Interval(0, 1), Interval(2, 3)
    bars = Barcode([a, b])
    assert find_matching(bars, bars, 0) == Matching(bars, bars,
                                                    [(a, a), (b, b)], 0)
    left = Barcode([Interval(0, 2)])
    right = Barcode([Interval(1, 3)])
    got = find_matching(left, right, 1)
    assert got == Matching(left, right, [(Interval(0, 2), Interval(1, 3))], 1)
    long_only = Barcode([Interval(0, 9)])
    assert find_matching(long_only, Barcode([]), 0) is None
    assert find_matching(long_only, Barcode([]), 3) is None
    assert find_matching(Barcode([]), long_only, 3) is None


def test_find_matching_essential_flag():
    i00, i11 = Interval(0, 0), Interval(1, 1)
    bm, bn = Barcode([i00]), Barcode([i11])
    loose = find_matching(bm, bn, 2)
    assert loose.pairs == ((i00, i11),)
    strict = find_matching(bm, bn, 2, require_essential=True)
    assert strict.pairs == ()
    assert is_essential(strict) == []


def _small_matching_cases():
    """Seeded barcode pairs of 0-4 bars per side, drawn with repeats from a
    pool of finite and infinite bars, at every eps in 0..3 and with and
    without require_essential."""
    rng = random.Random(20261018)
    pool = [Interval(a, a + rng.randint(0, 3)) for a in range(6)]
    pool += [Interval(rng.randint(0, 2), rng.randint(4, 6)) for _ in range(2)]
    pool += [Interval(NEG_INF, 2), Interval(1, POS_INF), Interval(NEG_INF, POS_INF)]
    for _ in range(800):
        bm = Barcode(rng.choice(pool) for _ in range(rng.randint(0, 4)))
        bn = Barcode(rng.choice(pool) for _ in range(rng.randint(0, 4)))
        for eps in range(4):
            for essential in (False, True):
                yield bm, bn, eps, essential


def test_find_matching_equals_first_exhaustive_matching():
    found = 0
    for bm, bn, eps, essential in _small_matching_cases():
        first = next(iter_matchings(bm, bn, eps, essential), None)
        assert find_matching(bm, bn, eps, essential) == first, (bm, bn, eps, essential)
        found += first is not None
    # of the 6400 cases, both outcomes are well represented
    assert 1000 < found < 5400


def test_hall_witness_on_every_infeasible_small_case():
    for bm, bn, eps, essential in _small_matching_cases():
        witness = match_or_witness(bm, bn, eps, essential)[1]
        feasible = next(iter_matchings(bm, bn, eps, essential), None) is not None
        assert (witness is None) == feasible
        if witness is None:
            continue
        own, other = (bm, bn) if witness.side == "source" else (bn, bm)
        assert not Counter(witness.bars) - own.counts()
        assert all(not bar.is_short(eps) for bar in witness.bars)

        def ok(x, y):
            return (pair_ok(x, y, eps, essential) if witness.side == "source"
                    else pair_ok(y, x, eps, essential))

        partners = tuple(y for y in other if any(ok(x, y) for x in witness.bars))
        assert witness.partners == partners
        assert len(partners) < len(witness.bars)


def _infeasible_family(k):
    """At eps 3: k short bars [i, i+2] against the same bars shifted by 2,
    plus one long bar nothing can match."""
    left = Barcode(Interval(i, i + 2) for i in range(k))
    right = Barcode([Interval(i + 2, i + 4) for i in range(k)] + [Interval(k + 10, k + 30)])
    return left, right


def test_find_matching_infeasible_family():
    left, right = _infeasible_family(9)
    assert find_matching(left, right, 3) is None
    assert find_matching(left, right, 3, require_essential=True) is None
    witness = match_or_witness(left, right, 3)[1]
    assert witness.side == "target"
    assert witness.bars == (Interval(19, 39),) and witness.partners == ()


def test_find_matching_planted_pair_of_200_bars():
    rng = random.Random(7)
    eps = 2
    left, right = [], []
    for _ in range(200):
        a = rng.randint(0, 60)
        bar = (a, a + rng.randint(0, 12))
        lo = bar[0] + rng.randint(-eps, eps)
        right_bar = (lo, max(lo, bar[1] + rng.randint(-eps, eps)))
        if rng.random() < 0.1:
            bar, right_bar = (bar[0], POS_INF), (right_bar[0], POS_INF)
        left.append(Interval(*bar))
        right.append(Interval(*right_bar))
    bm, bn = Barcode(left), Barcode(right)
    s = find_matching(bm, bn, eps)
    assert s is not None and validate_matching(s) is None
    assert match_or_witness(bm, bn, eps)[1] is None


def test_cached_module_maps_are_read_only():
    w = Window(0, 5)
    m = interval_to_module(Interval(1, 3), w)
    before = m.edges
    with pytest.raises(TypeError):
        m.edges[0] = Matrix.zeros(F2, 1, 0)
    again = interval_to_module(Interval(1, 3), w)
    assert again is m and again.edges == before
    assert barcode(again, w) == Barcode([Interval(1, 3)])


def test_iter_matchings_deterministic_enumeration():
    bm = Barcode([Interval(0, 1)])
    bn = Barcode([Interval(0, 1), Interval(1, 2)])
    first = list(iter_matchings(bm, bn, 1))
    second = list(iter_matchings(bm, bn, 1))
    assert first == second
    assert len(first) == 3
    assert first[0].pairs == ((Interval(0, 1), Interval(0, 1)),)
    with pytest.raises(ValueError, match="epsilon must be a nonnegative integer, got -1"):
        list(iter_matchings(bm, bn, -1))


def test_matching_interleaving_blocks():
    i02, i13 = Interval(0, 2), Interval(1, 3)
    s = Matching(Barcode([i02]), Barcode([i13]), [(i02, i13)], 1)
    w = Window(-2, 5)
    x = matching_interleaving(s, w)
    assert validate_interleaving(x) is None
    assert x.m == interval_to_module(i02, w)
    assert x.n == interval_to_module(i13, w)
    f, g = canonical_pair(i02, i13, 1, w)
    assert x.phi == f and x.psi == g


def test_matching_interleaving_star_violation_gives_zero_blocks():
    i00, i11 = Interval(0, 0), Interval(1, 1)
    s = Matching(Barcode([i00]), Barcode([i11]), [(i00, i11)], 2)
    x = matching_interleaving(s, Window(-4, 5))
    assert validate_interleaving(x) is None
    assert all(c.is_zero() for c in x.phi.components)
    assert all(c.is_zero() for c in x.psi.components)


def test_matching_interleaving_refusals():
    i00 = Interval(0, 0)
    with pytest.raises(ValueError, match="invalid matching"):
        Matching(Barcode([Interval(0, 9)]), Barcode([]), [], 1)
    tight = Matching(Barcode([i00]), Barcode([i00]), [(i00, i00)], 1)
    with pytest.raises(ValueError, match="window too small"):
        matching_interleaving(tight, Window(0, 4))


def test_interval_shifted():
    assert Interval(1, 3).shifted(1) == Interval(0, 2)
    assert Interval(NEG_INF, 3).shifted(2) == Interval(NEG_INF, 1)
    assert Interval(0, POS_INF).shifted(2) == Interval(-2, POS_INF)


def test_an_epsilon_beyond_float_range_leaves_infinite_ends_infinite():
    # math.inf - 10**400 would need 10**400 as a float; at 10**300 + 1, just
    # past the endpoint limit, every comparison on these bars comes out alike
    huge, big = 10 ** 400, 10 ** 300 + 1
    ends = ("-inf", -3, 0, 2, "+inf")
    bars = [Interval(a, b) for a in ends[:-1] for b in ends[1:]
            if Interval(a, "+inf").ends[0] <= Interval("-inf", b).ends[1]]
    assert len(bars) == 13
    w = Window(-5, 5)
    for i in bars:
        shifted = i.shifted(huge).ends
        assert shifted == tuple(e if e in (-math.inf, math.inf) else e - huge
                                for e in i.ends)
        assert [e in (-math.inf, math.inf) for e in shifted] == [
            e in (-math.inf, math.inf) for e in i.shifted(big).ends]
        for j in bars:
            for fn in (condition_star, short_pair_fails_star, pair_ok):
                assert fn(i, j, huge) == fn(i, j, big), (fn.__name__, i, j)
            assert pair_ok(i, j, huge, True) == pair_ok(i, j, big, True)
            assert canonical_pair(i, j, huge, w) == canonical_pair(i, j, big, w)
        # an infinite end is never short and lies at distance math.inf
        for far in (i.shifted(huge), i.shifted(big)):
            assert far.length() == i.length()
            assert far.is_short(1) == i.is_short(1)
            assert far.is_short(huge) == i.is_short(huge)
        for k in (0, 1):
            assert endpoint_distance(shifted[k], i.ends[k]) == (
                0 if i.ends[k] in (-math.inf, math.inf) else huge)
    assert endpoint_distance(math.inf, huge) == math.inf
    assert endpoint_distance(-huge, -math.inf) == math.inf
    assert endpoint_distance(-math.inf, huge) == math.inf
    # both outcomes come up, among them pairs with infinite ends only
    star = Counter(condition_star(i, j, huge) for i in bars for j in bars)
    assert star[True] and star[False]
    assert condition_star(Interval("-inf", 0), Interval("-inf", 2), huge)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_barcode_survives_random_scrambles(seed):
    rng = random.Random(seed)
    lo = rng.randint(-3, 3)
    w = Window(lo, lo + rng.randint(1, 4))
    truth = []
    for _ in range(rng.randint(1, 4)):
        a = rng.randint(w.lo, w.hi)
        b = rng.randint(a, w.hi)
        truth.append(Interval(a, b))
    parts = [interval_to_module(i, w, F5) for i in truth]
    total, _ = direct_sum(parts, proset=parts[0].proset, field=F5)
    us = [_rand_invertible(rng, F5, d) for d in total.dims]
    scrambled, _ = _conjugate(total, us)
    assert barcode(scrambled, w) == Barcode(truth)
    for k in range(w.size):
        covering = sum(1 for bar in Barcode(truth) if bar.contains(w.value(k)))
        assert covering == scrambled.dims[k]


# A brute-force reference for the two validators, on plain (lo, hi) tuples
# with -inf and +inf as floats, written without the zed helpers.

_PLAIN_END = st.integers(-3, 8) | st.sampled_from([-math.inf, math.inf])
_PLAIN_BAR = st.tuples(_PLAIN_END, _PLAIN_END).map(lambda t: tuple(sorted(t))).filter(
    lambda t: t[0] < math.inf and t[1] > -math.inf)

# the rule each refusal must name, by the words of its report
_RULE_WORDS = {"draw": "more times than", "pair": "endpoints differ",
               "unmatched": "not < ", "padding": "padding inside",
               "presence": "no sides", "star": "overlap condition",
               "support": "not connected"}


def _plain_interval(t):
    return Interval(*("-inf" if e == -math.inf else "+inf" if e == math.inf else e
                      for e in t))


def _plain_short(t, eps):
    return -math.inf < t[0] and t[1] < math.inf and t[1] - t[0] < 2 * eps


def _plain_pair_fails(a, b, eps):
    return any(a[k] != b[k] and abs(a[k] - b[k]) > eps for k in (0, 1))


def _plain_star(i, j, eps):
    (x, y), (s, t) = i, j
    return s - eps <= x <= t - eps <= y or x - eps <= s <= y - eps <= t


@st.composite
def _plain_pair(draw, eps):
    """A bar and a partner whose finite ends moved by at most eps + 1."""
    a = draw(_PLAIN_BAR)
    moved = [e if abs(e) == math.inf else e + draw(st.integers(-eps - 1, eps + 1))
             for e in a]
    return a, tuple(sorted(moved))


def _assert_refusal_names_a_rule(build, broken):
    if not broken:
        build()
        return
    with pytest.raises(ValueError) as e:
        build()
    assert any(_RULE_WORDS[rule] in str(e.value) for rule in broken), (broken, e.value)


@st.composite
def _matching_inputs(draw):
    eps = draw(st.integers(0, 3))
    pairs = draw(st.lists(_plain_pair(eps), max_size=3))
    src = [a for a, _ in pairs] + draw(st.lists(_PLAIN_BAR, max_size=1))
    tgt = [b for _, b in pairs] + draw(st.lists(_PLAIN_BAR, max_size=1))
    for bars in (src, tgt):
        # now and then a pair draws a bar its barcode does not hold
        if bars and draw(st.integers(0, 5)) == 0:
            bars.pop(draw(st.integers(0, len(bars) - 1)))
    return src, tgt, pairs, eps


@settings(max_examples=400, deadline=None)
@given(_matching_inputs())
def test_matching_accepts_exactly_the_reference_matchings(args):
    """Matching holds the multiset draw, the matched-pair rule and the
    unmatched-bar rule, and nothing else."""
    src, tgt, pairs, eps = args
    broken = set()
    if any(_plain_pair_fails(a, b, eps) for a, b in pairs):
        broken.add("pair")
    for bars, k in ((src, 0), (tgt, 1)):
        left = Counter(bars)
        left.subtract(p[k] for p in pairs)
        if any(n < 0 for n in left.values()):
            broken.add("draw")
        if any(n > 0 and not _plain_short(bar, eps) for bar, n in left.items()):
            broken.add("unmatched")
    _assert_refusal_names_a_rule(lambda: Matching(
        Barcode(map(_plain_interval, src)), Barcode(map(_plain_interval, tgt)),
        [(_plain_interval(a), _plain_interval(b)) for a, b in pairs], eps), broken)


@st.composite
def _decomposed_inputs(draw):
    eps = draw(st.integers(0, 3))
    lo, size = draw(st.integers(-10, 2)), draw(st.integers(1, 24))
    # drop 0 and 1 keep both sides, 2 and 3 drop one, 4 drops both
    summands = [(None if drop in (2, 4) else a, None if drop in (3, 4) else b)
                for (a, b), drop in draw(st.lists(
                    st.tuples(_plain_pair(eps), st.integers(0, 4)), max_size=3))]
    return lo, lo + size - 1, eps, summands


@settings(max_examples=400, deadline=None)
@given(_decomposed_inputs())
# a short pair within eps that fails Condition (*), and the whole line twice
# on a window of eps points
@example((-6, 6, 2, [((0, 0), (1, 1))]))
@example((0, 1, 2, [((-math.inf, math.inf),) * 2]))
def test_decomposed_accepts_exactly_the_reference_summands(args):
    """DecomposedShoelaceRep holds padding, side presence, shortness of a
    single side, the matched-pair rule and Condition (*) for two short
    sides, and the support rule, and nothing else."""
    lo, hi, eps, summands = args
    broken = set()
    for a, b in summands:
        bars = [bar for bar in (a, b) if bar is not None]
        if not bars:
            broken.add("presence")
        if any(not (lo <= e - 2 * eps and e + 2 * eps <= hi)
               for bar in bars for e in bar if abs(e) < math.inf):
            broken.add("padding")
        if len(bars) == 1 and not _plain_short(bars[0], eps):
            broken.add("unmatched")
        if len(bars) == 2:
            if _plain_pair_fails(a, b, eps):
                broken.add("pair")
            if _plain_short(a, eps) and _plain_short(b, eps) and not _plain_star(a, b, eps):
                broken.add("star")
    # what passes the rules above on a window of at most eps points is the
    # whole line on both sides, and no i + eps <= j joins its two copies
    if summands and hi - lo + 1 <= eps:
        broken.add("support")
    _assert_refusal_names_a_rule(lambda: DecomposedShoelaceRep(
        Window(lo, hi), eps, F2,
        [tuple(None if bar is None else _plain_interval(bar) for bar in s)
         for s in summands]), broken)
