"""Seeded self-test suites.

Each suite checks one advertised guarantee end to end on generated inputs,
with exact arithmetic and zero tolerance.  The CLI selftest subcommand and
the acceptance tests both call run_suites, so the command line and the test
suite agree about what was checked.  All randomness derives from one seed,
so reports are reproducible byte for byte.
"""

from __future__ import annotations

import math
import random
import time
import traceback
from typing import Callable, NamedTuple, Optional

from .exactlin import FieldSpec, Matrix, mat_inverse, mat_mul
from .proset import (
    Proset,
    Translation,
    chain,
    compare_translations,
    compose_translations,
    identity_translation,
    induced_translation,
    iso_pairs,
    power_translation,
    proset_from_pairs,
    shoelace,
    validate_proset,
    validate_translation,
)
from .rep import (
    NatTrans,
    Representation,
    chain_representation,
    direct_sum,
    permutation_iso,
    validate_nat_trans,
    validate_representation,
    zero_nat,
    zero_representation,
)
from .interleave import (
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
    validate_interleaving,
    validate_interleaving_morphism,
)
from .zed import (
    Barcode,
    DecomposedShoelaceRep,
    Endpoint,
    Interval,
    Matching,
    NEG_INF,
    POS_INF,
    Window,
    _star_disjuncts,
    barcode,
    canonical_pair,
    condition_star,
    expand_decomposed,
    find_matching,
    hom_dimension,
    interval_to_module,
    is_essential,
    iter_matchings,
    lambda_eps,
    matching_interleaving,
    matching_to_rep,
    pack_decomposed,
    pair_ok,
    rep_to_matching,
    summand_support,
    support_is_interval,
    shoelace_window,
    short_pair_fails_star,
    window_chain,
)


class SuiteResult(NamedTuple):
    name: str
    cases: int
    passed: bool
    failures: int
    first_counterexample: Optional[dict]
    elapsed: float


class _Counterexample(Exception):
    def __init__(self, info: dict):
        super().__init__(str(info))
        self.info = info


def _check(cond: bool, **info):
    if not cond:
        raise _Counterexample({k: str(v) for k, v in info.items()})


# generators


def _rand_proset(rng: random.Random, max_n: int = 7) -> Proset:
    n = rng.randint(1, max_n)
    pairs = [(rng.randrange(n), rng.randrange(n))
             for _ in range(rng.randint(0, 2 * n))]
    return proset_from_pairs(n, pairs)


def _rand_translation(rng: random.Random, p: Proset, tries: int = 40) -> Translation:
    ups = [[j for j in range(p.n) if p.leq(i, j)] for i in range(p.n)]
    for _ in range(tries):
        try:
            return Translation(p, tuple(rng.choice(ups[i]) for i in range(p.n)))
        except ValueError:
            pass
    return identity_translation(p)


def _rand_invertible(rng: random.Random, field: FieldSpec, n: int) -> Matrix:
    lower = [[0] * n for _ in range(n)]
    upper = [[0] * n for _ in range(n)]
    for i in range(n):
        lower[i][i] = rng.randrange(1, field.p) if field.p > 1 else 1
        upper[i][i] = rng.randrange(1, field.p) if field.p > 1 else 1
        for j in range(i):
            lower[i][j] = rng.randrange(field.p)
            upper[j][i] = rng.randrange(field.p)
    prod = mat_mul(Matrix(field, n, n, lower), Matrix(field, n, n, upper))
    perm = list(range(n))
    rng.shuffle(perm)
    return Matrix(field, n, n, [prod.entries[perm[i]] for i in range(n)])


def _rand_chain_rep(rng: random.Random, n: int, field: FieldSpec,
                    max_dim: int = 3) -> Representation:
    dims = [rng.randint(0, max_dim) for _ in range(n)]
    steps = [
        Matrix(field, dims[i + 1], dims[i],
               [[rng.randrange(field.p) for _ in range(dims[i])]
                for _ in range(dims[i + 1])])
        for i in range(n - 1)
    ]
    return chain_representation(chain(n), field, dims, steps)


def _conjugate(m: Representation, us: list[Matrix]) -> tuple[Representation, NatTrans]:
    inv = [mat_inverse(u) for u in us]
    maps = {
        (i, j): mat_mul(us[j], mat_mul(m.map(i, j), inv[i]))
        for (i, j) in m.proset.related_pairs
    }
    m2 = Representation(m.proset, m.field, m.dims, maps)
    return m2, NatTrans(m, m2, us)


def _rand_rep(rng: random.Random, p: Proset, field: FieldSpec,
              max_dim: int = 3) -> Representation:
    # pull a random chain representation back along the down-set level map,
    # then scramble every fiber: functorial by construction, messy to look at
    q = [d.bit_count() - 1 for d in p.down]
    w = _rand_chain_rep(rng, p.n, field, max_dim)
    dims = [w.dims[q[i]] for i in range(p.n)]
    maps = {(i, j): w.map(q[i], q[j]) for (i, j) in p.related_pairs}
    m = Representation(p, field, dims, maps)
    us = [_rand_invertible(rng, field, dims[i]) for i in range(p.n)]
    return _conjugate(m, us)[0]


def _rand_interval(rng: random.Random, max_end: int) -> Interval:
    r = rng.random()
    if r < 0.70:
        x, y = sorted((rng.randint(0, max_end), rng.randint(0, max_end)))
        return Interval(x, y)
    if r < 0.825:
        return Interval(rng.randint(0, max_end), POS_INF)
    if r < 0.95:
        return Interval(NEG_INF, rng.randint(0, max_end))
    return Interval(NEG_INF, POS_INF)


def _jitter(rng: random.Random, e: Endpoint, eps: int) -> Endpoint:
    return e if math.isinf(e) else e + rng.randint(-eps, eps)


def _rand_essential_matching(rng: random.Random, max_eps: int = 3,
                             max_end: int = 6, max_bars: int = 3,
                             need_pair: bool = False) -> tuple[Matching, Window]:
    for _attempt in range(500):
        eps = rng.randint(0, max_eps)
        src: list[Interval] = []
        tgt: list[Interval] = []
        pairs: list[tuple[Interval, Interval]] = []
        for _ in range(rng.randint(1 if need_pair else 0, max_bars)):
            a = _rand_interval(rng, max_end)
            if rng.random() < 0.75:
                b = None
                for _try in range(20):
                    lo = _jitter(rng, a.ends[0], eps)
                    hi = _jitter(rng, a.ends[1], eps)
                    if lo > hi:
                        continue
                    cand = Interval._trusted(lo, hi)
                    if short_pair_fails_star(a, cand, eps):
                        continue
                    b = cand
                    break
                if b is not None:
                    src.append(a)
                    tgt.append(b)
                    pairs.append((a, b))
                    continue
            if a.is_short(eps):
                src.append(a)
        for _ in range(rng.randint(0, 1)):
            b = _rand_interval(rng, max_end)
            if b.is_short(eps):
                tgt.append(b)
        if need_pair and not pairs:
            continue
        try:
            s = Matching(Barcode(src), Barcode(tgt), pairs, eps)
        except ValueError:
            continue
        if is_essential(s):
            continue
        ends = [e for bar in src + tgt for e in bar.finite_endpoints()]
        lo = (min(ends) if ends else 0) - 2 * eps
        hi = (max(ends) if ends else 0) + 2 * eps
        return s, Window(lo, max(hi, lo + 1))
    raise RuntimeError("failed to generate an essential matching")


# suites


def _suite_worked_example(rng: random.Random, cases: int) -> int:
    p = chain(3, ("1", "2", "3"))
    lam = Translation(p, (1, 2, 2))
    sh = shoelace(p, lam)
    _check(sh.n == 6, what="carrier size", got=sh.n, expected=6)
    _check(validate_proset(sh) is None, what="carrier validity",
           report=validate_proset(sh))
    got_pairs = len(sh.related_pairs)
    _check(got_pairs == 20, what="related ordered pairs", got=got_pairs,
           expected=20)
    got_iso = iso_pairs(sh)
    want_iso = frozenset({frozenset({2, 5})})
    _check(got_iso == want_iso, what="iso pairs",
           got=sorted(sorted(s) for s in got_iso), expected="[[2, 5]]")
    return 1


def _suite_shoelace_wellformed(rng: random.Random, cases: int) -> int:
    for k in range(cases):
        p = _rand_proset(rng)
        t = _rand_translation(rng, p)
        sh = shoelace(p, t)
        err = validate_proset(sh)
        _check(err is None, case=k, what="shoelace carrier validity",
               report=err)
        pairs = iso_pairs(sh)
        for i in range(p.n):
            expected = p.leq(t.mapping[i], i)
            actual = frozenset({i, p.n + i}) in pairs
            _check(actual == expected, case=k, element=i,
                   what="iso-pair biconditional",
                   lam_i=t.mapping[i], got=actual, expected=expected)
    return cases


def _suite_shoelace_roundtrip(rng: random.Random, cases: int) -> int:
    for k in range(cases):
        base = _rand_proset(rng, max_n=4)
        lam = _rand_translation(rng, base)
        field = FieldSpec(rng.choice((2, 5)))
        sh = shoelace(base, lam)
        v = _rand_rep(rng, sh, field, max_dim=3)
        x = unpack(v)
        err = validate_interleaving(x)
        _check(err is None, case=k, what="unpack output validity", report=err)
        v2 = pack(x)
        _check(v2 == v, case=k, what="pack(unpack(v)) == v")
        err = validate_representation(v2)
        _check(err is None, case=k, what="pack output functoriality",
               report=err)

        us_m = [_rand_invertible(rng, field, x.m.dims[i])
                for i in range(base.n)]
        us_n = [_rand_invertible(rng, field, x.n.dims[i])
                for i in range(base.n)]
        m2, um = _conjugate(x.m, us_m)
        n2, un = _conjugate(x.n, us_n)
        x2 = transport_interleaving(x, um, un)
        _check(unpack(pack(x2)) == x2, case=k, what="unpack(pack(x)) == x")

        us = [_rand_invertible(rng, field, v.dims[i]) for i in range(sh.n)]
        v3, t = _conjugate(v, us)
        g = unpack_morphism(t)
        err = validate_interleaving_morphism(g)
        _check(err is None, case=k, what="unpacked morphism validity",
               report=err)
        _check(pack_morphism(g) == t, case=k,
               what="pack(unpack(t)) == t at morphism level")
        z = InterleavingMorphism(x, x2, zero_nat(x.m, x2.m),
                                 zero_nat(x.n, x2.n))
        _check(unpack_morphism(pack_morphism(z)) == z, case=k,
               what="unpack(pack(g)) == g at morphism level")
    return cases


def _suite_induced_compositions(rng: random.Random, cases: int) -> int:
    for k in range(cases):
        p = _rand_proset(rng)
        lam = _rand_translation(rng, p)
        sh = shoelace(p, lam)
        k1 = rng.randint(0, 3)
        k2 = rng.randint(0, 3)
        a = power_translation(lam, k1)
        b = power_translation(lam, k2)
        ab = compose_translations(a, b)
        bar_a = induced_translation(sh, a)
        bar_b = induced_translation(sh, b)
        bar_ab = induced_translation(sh, ab)
        for t in (bar_a, bar_b, bar_ab):
            err = validate_translation(t)
            _check(err is None, case=k, what="lift is a translation",
                   report=err)
        _check(compose_translations(bar_a, bar_b) == bar_ab,
               case=k, k1=k1, k2=k2, what="bar(a) bar(b) == bar(ab)")
        can_a = compare_translations(lam, a) in ("leq", "equal")
        can_b = compare_translations(lam, b) in ("leq", "equal")
        if can_a and can_b:
            til_a = induced_translation(sh, a, twist=True)
            til_b = induced_translation(sh, b, twist=True)
            _check(compose_translations(til_a, til_b) == bar_ab,
                   case=k, k1=k1, k2=k2, what="tilde(a) tilde(b) == bar(ab)")
        if can_b:
            til_b = induced_translation(sh, b, twist=True)
            til_ab = induced_translation(sh, ab, twist=True)
            _check(compose_translations(bar_a, til_b) == til_ab,
                   case=k, k1=k1, k2=k2, what="bar(a) tilde(b) == tilde(ab)")
        if can_a:
            til_a = induced_translation(sh, a, twist=True)
            til_ab = induced_translation(sh, ab, twist=True)
            _check(compose_translations(til_a, bar_b) == til_ab,
                   case=k, k1=k1, k2=k2, what="tilde(a) bar(b) == tilde(ab)")
    return cases


def _suite_interleaved_interleavings(rng: random.Random, cases: int) -> int:
    for k in range(cases):
        sigma, w = _rand_essential_matching(rng, need_pair=True)
        eps = sigma.epsilon
        flavor = rng.choice(("scalar", "matching"))
        field = FieldSpec(5) if flavor == "scalar" else FieldSpec(rng.choice((2, 5)))
        a = matching_interleaving(sigma, w, field)
        b = None
        if flavor == "matching":
            for cand in iter_matchings(sigma.source, sigma.target, eps,
                                       require_essential=True):
                if cand != sigma:
                    bb = matching_interleaving(cand, w, field)
                    if bb != a:
                        b = bb
                    break
        if b is None:
            if field.p == 2:
                field = FieldSpec(5)
                a = matching_interleaving(sigma, w, field)
            b = scale_interleaving(a, 4)
        _check(a != b, case=k, what="the two interleavings are distinct")
        err = validate_interleaving(a)
        _check(err is None, case=k, what="first interleaving validity",
               report=err)
        err = validate_interleaving(b)
        _check(err is None, case=k, what="second interleaving validity",
               report=err)
        sq = square_interleave(a, b)
        err = validate_interleaving(sq)
        _check(err is None, case=k, what="square validity", report=err)
        p0 = window_chain(w)
        sh = shoelace(p0, a.lam)
        _check(sq.lam == induced_translation(sh, a.lam, twist=True),
               case=k, what="square runs over the twisted lift")
        un = untwist_square(a, b)
        err = validate_interleaving(un)
        _check(err is None, case=k, what="untwisted square validity",
               report=err)
        lam2 = compose_translations(a.lam, a.lam)
        _check(un.lam == induced_translation(sh, lam2, twist=False),
               case=k, what="untwisted square runs over the plain lift")
    return cases


def _hom_closed_form(i: Interval, j: Interval) -> int:
    # maps between interval modules exist exactly on the overlap staircase
    (x, y), (s, t) = i.ends, j.ends
    return 1 if s <= x <= t <= y else 0


def _sweep_pool() -> list[Interval]:
    pool = [Interval(a, b) for a in range(9) for b in range(a, 9)]
    pool += [Interval(a, POS_INF) for a in range(9)]
    pool += [Interval(NEG_INF, b) for b in range(9)]
    pool.append(Interval(NEG_INF, POS_INF))
    return pool


def _suite_interval_hom_equivalence(rng: random.Random, cases: int) -> int:
    pool = _sweep_pool()
    w = Window(-4, 9)
    field = FieldSpec(2)
    total = 0
    for eps in range(4):
        lam = lambda_eps(w, eps)
        for i in pool:
            for j in pool:
                if total >= cases:
                    return total
                total += 1
                d1, d2 = _star_disjuncts(i, j, eps)
                star = condition_star(i, j, eps)
                _check(star == (d1 or d2), i=i, j=j, eps=eps,
                       what="star is the disjunction")
                js = j.shifted(eps)
                ish = i.shifted(eps)
                h1 = hom_dimension(i, js, w, field)
                h2 = hom_dimension(j, ish, w, field)
                _check((h1 > 0) == d1, i=i, j=j, eps=eps, hom=h1,
                       what="first disjunct == hom nonvanishing", expected=d1)
                _check((h2 > 0) == d2, i=i, j=j, eps=eps, hom=h2,
                       what="second disjunct == hom nonvanishing", expected=d2)
                _check(h1 == _hom_closed_form(i, js), i=i, j=j, eps=eps,
                       hom=h1, what="solver agrees with closed form")
                _check(h2 == _hom_closed_form(j, ish), i=i, j=j, eps=eps,
                       hom=h2, what="solver agrees with closed form")
                f, g = canonical_pair(i, j, eps, w, field)
                err = validate_nat_trans(f)
                _check(err is None, i=i, j=j, eps=eps,
                       what="canonical f naturality", report=err)
                err = validate_nat_trans(g)
                _check(err is None, i=i, j=j, eps=eps,
                       what="canonical g naturality", report=err)
                fz = all(c.is_zero() for c in f.components)
                gz = all(c.is_zero() for c in g.components)
                _check((not fz) == d1, i=i, j=j, eps=eps,
                       what="canonical f nonzero == first disjunct")
                _check((not gz) == d2, i=i, j=j, eps=eps,
                       what="canonical g nonzero == second disjunct")
                if pair_ok(i, j, eps):
                    x = Interleaving(interval_to_module(i, w, field),
                                     interval_to_module(j, w, field),
                                     lam, f, g)
                    err = validate_interleaving(x)
                    _check(err is None, i=i, j=j, eps=eps,
                           what="matched pair gives a valid interleaving",
                           report=err)
    return total


def _suite_barcode_oracle(rng: random.Random, cases: int) -> int:
    for k in range(cases):
        lo = rng.randint(-5, 5)
        w = Window(lo, lo + rng.randint(0, 8))
        field = FieldSpec(rng.choice((2, 5)))
        bars = []
        for _ in range(rng.randint(0, 6)):
            x, y = sorted((rng.randint(w.lo, w.hi), rng.randint(w.lo, w.hi)))
            bars.append(Interval(x, y))
        truth = Barcode(bars)
        p = window_chain(w)
        parts = [interval_to_module(bar, w, field) for bar in bars]
        total, _slices = direct_sum(parts, proset=p, field=field)
        us = [_rand_invertible(rng, field, total.dims[idx])
              for idx in range(p.n)]
        scrambled, _t = _conjugate(total, us)
        got = barcode(scrambled, w)
        _check(got == truth, case=k, window=f"[{w.lo}, {w.hi}]",
               what="extracted barcode equals ground truth",
               got=got, expected=truth)
        counts = got.counts()
        for idx in range(p.n):
            v = w.value(idx)
            covered = sum(c for bar, c in counts.items() if bar.contains(v))
            _check(covered == scrambled.dims[idx], case=k, point=v,
                   what="pointwise dimension conservation",
                   got=covered, expected=scrambled.dims[idx])
    return cases


def _expansion_invariants(l: DecomposedShoelaceRep):
    sh = shoelace_window(l.window, l.epsilon)
    for s in l.summands:
        single = DecomposedShoelaceRep(l.window, l.epsilon, l.field, [s])
        r1 = expand_decomposed(single)
        _check(all(d <= 1 for d in r1.dims), summand=s,
               what="expansion is thin")
        support = frozenset(idx for idx in range(sh.n) if r1.dims[idx] == 1)
        want = summand_support(s, l.window, l.epsilon)
        _check(support == want, summand=s,
               what="expansion support matches the bars")
        _check(support_is_interval(sh, support), summand=s,
               what="support is connected and convex")
        for (aa, bb) in sh.related_pairs:
            if r1.dims[aa] == 1 and r1.dims[bb] == 1:
                _check(r1.map(aa, bb).entries == ((1,),), summand=s,
                       pair=(aa, bb), what="expansion maps are identities")


def _suite_matching_bijection(rng: random.Random, cases: int) -> int:
    executed = 0
    for k in range(cases):
        sigma, w = _rand_essential_matching(rng)
        field = FieldSpec(rng.choice((2, 5)))
        l = matching_to_rep(sigma, w, "essential_F", field)
        _check(l == l.canonical(), case=k, what="F output is in canonical order")
        back = rep_to_matching(l)
        _check(back == sigma, case=k, what="G(F(sigma)) == sigma")
        executed += 1
    for k in range(cases):
        sigma, w = _rand_essential_matching(rng)
        field = FieldSpec(rng.choice((2, 5)))
        l0 = matching_to_rep(sigma, w, "essential_F", field)
        perm = list(l0.summands)
        rng.shuffle(perm)
        l = DecomposedShoelaceRep(w, l0.epsilon, field, perm)
        got = matching_to_rep(rep_to_matching(l), w, "essential_F", field)
        _check(got == l.canonical(), case=k,
               what="F(G(L)) == L up to canonical order")
        _expansion_invariants(l)
        eps = l0.epsilon
        pad = 2 * eps + 2
        try:
            DecomposedShoelaceRep(
                Window(-pad, 3 * eps + pad), eps, field,
                [(Interval(0, 0), Interval(eps + 1, eps + 1))])
            rejected = False
        except ValueError:
            rejected = True
        _check(rejected, case=k, what="endpoint bound violation is rejected")
        executed += 1

    src = Barcode([Interval(0, 0)])
    tgt = Barcode([Interval(1, 1)])
    # valid by construction: the star-violating pair is still a matching
    sigma0 = Matching(src, tgt, [(Interval(0, 0), Interval(1, 1))], 2)
    _check(len(is_essential(sigma0)) == 1,
           what="the pair is flagged as non-essential")
    w0 = Window(-4, 5)
    lp = matching_to_rep(sigma0, w0, "nonessential_Fprime", FieldSpec(2))
    back = rep_to_matching(lp)
    _check(back != sigma0, what="G(F'(sigma)) differs from sigma")
    _check(back == Matching(src, tgt, [], 2),
           what="G(F'(sigma)) unmatches exactly the violating pair")
    executed += 1
    return executed


def _canonical_transport(x: Interleaving, lp: DecomposedShoelaceRep,
                         target: Interleaving) -> Interleaving:
    # permute the unpacked summand order into barcode order; zero summands
    # sort last and contribute nothing, so the permuted sum equals the
    # canonical interval-sum module on the nose
    p0 = target.m.proset
    field = target.m.field
    w = lp.window

    def parts_and_order(side: int):
        parts = [
            interval_to_module(s[side], w, field) if s[side] is not None
            else zero_representation(p0, field)
            for s in lp.summands
        ]
        order = sorted(
            range(len(lp.summands)),
            key=lambda t: ((0, lp.summands[t][side].ends)
                           if lp.summands[t][side] is not None else (1, ())))
        return parts, order

    m_parts, m_order = parts_and_order(0)
    n_parts, n_order = parts_and_order(1)
    um = permutation_iso(m_parts, m_order, proset=p0, field=field)
    un = permutation_iso(n_parts, n_order, proset=p0, field=field)
    _check(um.source == x.m and um.target == target.m,
           what="left transport endpoints line up")
    _check(un.source == x.n and un.target == target.n,
           what="right transport endpoints line up")
    return transport_interleaving(x, um, un)


def _suite_matching_vs_interleaving(rng: random.Random, cases: int) -> int:
    for k in range(cases):
        sigma0, w = _rand_essential_matching(rng, max_eps=2, max_end=6,
                                             max_bars=3, need_pair=True)
        eps = sigma0.epsilon
        field = FieldSpec(rng.choice((2, 5)))
        a = matching_interleaving(sigma0, w, field)
        if field.p == 5 and rng.random() < 0.5:
            a = scale_interleaving(a, rng.choice((2, 3, 4)))
        sigma = find_matching(sigma0.source, sigma0.target, eps)
        _check(sigma is not None, case=k,
               what="search finds a matching when one exists")
        lp = matching_to_rep(sigma, w, "nonessential_Fprime", field)
        v = pack_decomposed(lp)
        x = unpack(v)
        b = _canonical_transport(x, lp, a)
        _check(b.lam == a.lam, case=k, what="transported translation agrees")
        err = validate_interleaving(b)
        _check(err is None, case=k, what="transported interleaving validity",
               report=err)
        sq = square_interleave(a, b)
        err = validate_interleaving(sq)
        _check(err is None, case=k, what="square validity", report=err)
        p0 = window_chain(w)
        sh = shoelace(p0, a.lam)
        _check(sq.lam == induced_translation(sh, a.lam, twist=True),
               case=k, what="square runs over the twisted lift")
    return cases


_SUITES: dict[str, tuple[Callable[[random.Random, int], int], int]] = {
    "worked_example": (_suite_worked_example, 1),
    "shoelace_wellformed": (_suite_shoelace_wellformed, 200),
    "shoelace_roundtrip": (_suite_shoelace_roundtrip, 200),
    "induced_compositions": (_suite_induced_compositions, 100),
    "interleaved_interleavings": (_suite_interleaved_interleavings, 100),
    "interval_hom_equivalence": (_suite_interval_hom_equivalence, 16384),
    "barcode_oracle": (_suite_barcode_oracle, 300),
    "matching_bijection": (_suite_matching_bijection, 200),
    "matching_vs_interleaving": (_suite_matching_vs_interleaving, 50),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int, cases: Optional[int] = None) -> SuiteResult:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(SUITE_NAMES)}")
    if cases is not None and cases < 1:
        raise ValueError(f"cases must be at least 1, got {cases}")
    func, default_cases = _SUITES[name]
    eff = default_cases if cases is None else min(cases, default_cases)
    rng = random.Random(f"{seed}:{name}")
    start = time.perf_counter()
    try:
        ran = func(rng, eff)
        result = SuiteResult(name, ran, True, 0, None,
                             time.perf_counter() - start)
    except _Counterexample as e:
        result = SuiteResult(name, eff, False, 1, e.info,
                             time.perf_counter() - start)
    except Exception:
        info = {"error": traceback.format_exc(limit=8)}
        result = SuiteResult(name, eff, False, 1, info,
                             time.perf_counter() - start)
    return result


def run_suites(seed: int, cases: Optional[int] = None,
               only: Optional[str] = None) -> list[SuiteResult]:
    names = SUITE_NAMES if only is None else (only,)
    return [run_suite(name, seed, cases) for name in names]


def report(results: list[SuiteResult], seed: int) -> dict:
    return {
        "seed": seed,
        "ok": all(r.passed for r in results),
        "suites": [
            {
                "name": r.name,
                "cases": r.cases,
                "passed": r.passed,
                "failures": r.failures,
                "first_counterexample": r.first_counterexample,
            }
            for r in results
        ],
    }
