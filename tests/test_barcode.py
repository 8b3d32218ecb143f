"""barcode against the rank inclusion-exclusion formula it replaced, kept
here as the slow reference, and on modules far larger than the differential
cases reach."""

import json
import math
import operator
import random
import time
from collections import Counter

import pytest

from hypothesis import given, settings
import hypothesis.strategies as st

from shoelace import exactlin, zed
from shoelace.cli import main
from shoelace.docio import save_document
from shoelace.exactlin import FieldSpec, Matrix, mat_rank
from shoelace.proset import proset_from_pairs
from shoelace.rep import Representation, chain_representation, direct_sum
from shoelace.selftest import _conjugate, _rand_invertible
from shoelace.zed import (
    Barcode,
    Interval,
    Matching,
    Window,
    barcode,
    expand_decomposed,
    interval_to_module,
    matching_to_rep,
    window_chain,
)

FIELDS = (FieldSpec(2), FieldSpec(5), FieldSpec(2 ** 31 - 1))


def _rank_barcode(m: Representation, w: Window, boundary: str = "finite") -> Barcode:
    """m[a,b] = r(a,b) - r(a-1,b) - r(a,b+1) + r(a-1,b+1), r the rank of the
    composite map a -> b and zero outside the window: one rank per related
    pair."""
    n = w.size
    ranks = {(a, b): mat_rank(m.map(a, b)) for a in range(n) for b in range(a, n)}

    def r(a: int, b: int) -> int:
        return ranks[(a, b)] if 0 <= a <= b < n else 0

    infinite = boundary == "infinite"
    bars = []
    for a in range(n):
        for b in range(a, n):
            mult = r(a, b) - r(a - 1, b) - r(a, b + 1) + r(a - 1, b + 1)
            assert mult >= 0, (a, b)
            lo = -math.inf if infinite and a == 0 else w.value(a)
            hi = math.inf if infinite and b == n - 1 else w.value(b)
            bars.extend([Interval._trusted(lo, hi)] * mult)
    return Barcode(bars)


def _rand_matrix(rng: random.Random, field: FieldSpec, rows: int, cols: int) -> Matrix:
    """A random matrix whose rank is itself random: a product through an
    inner dimension between 0 and min(rows, cols)."""
    inner = rng.randint(0, min(rows, cols))
    a = [[rng.randrange(field.p) for _ in range(inner)] for _ in range(rows)]
    b = [[rng.randrange(field.p) for _ in range(cols)] for _ in range(inner)]
    return Matrix(field, rows, cols,
                  [[sum(map(operator.mul, row, col)) for col in zip(*b)] if inner
                   else [0] * cols for row in a])


def _rand_steps_module(rng: random.Random, field: FieldSpec, w: Window) -> Representation:
    dims = [rng.choice((0, 1, 2, 3, 4)) for _ in range(w.size)]
    steps = [_rand_matrix(rng, field, dims[k + 1], dims[k]) for k in range(w.size - 1)]
    return chain_representation(window_chain(w), field, dims, steps)


def _scrambled_sum(rng: random.Random, field: FieldSpec, w: Window, bars) -> Representation:
    p = window_chain(w)
    total, _ = direct_sum([interval_to_module(bar, w, field) for bar in bars],
                          proset=p, field=field)
    return _conjugate(total, [_rand_invertible(rng, field, d) for d in total.dims])[0]


def _rand_bars(rng: random.Random, w: Window) -> list[Interval]:
    bars = []
    for _ in range(rng.randint(0, 6)):
        x, y = sorted((rng.randint(w.lo, w.hi), rng.randint(w.lo, w.hi)))
        bars.append(Interval(x, y))
    return bars


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_barcode_matches_the_rank_formula(seed):
    rng = random.Random(seed)
    field = FIELDS[seed % 3]
    lo = rng.randint(-4, 4)
    # n = 1 comes up in about one case of eight
    w = Window(lo, lo + rng.randint(0, 7))
    if rng.random() < 0.5:
        m = _rand_steps_module(rng, field, w)
    else:
        m = _scrambled_sum(rng, field, w, _rand_bars(rng, w))
    for boundary in ("finite", "infinite"):
        assert barcode(m, w, boundary) == _rank_barcode(m, w, boundary)


def test_differential_cases_cover_the_edges():
    """The seeded cases above reach zero-dimensional points, n = 1 and every
    field; this spells the edge cases out."""
    rng = random.Random(11)
    for field in FIELDS:
        w1 = Window(3, 3)
        for d in (0, 1, 3):
            m = chain_representation(window_chain(w1), field, (d,), ())
            assert barcode(m, w1) == _rank_barcode(m, w1) == Barcode([Interval(3, 3)] * d)
            assert barcode(m, w1, "infinite") == Barcode([Interval("-inf", "+inf")] * d)
        w = Window(-2, 4)
        # zero at both ends and in the middle
        bars = [Interval(-1, 0), Interval(2, 3), Interval(-1, 0), Interval(2, 2)]
        m = _scrambled_sum(rng, field, w, bars)
        assert m.dims == (0, 2, 2, 0, 2, 1, 0)
        assert barcode(m, w) == _rank_barcode(m, w) == Barcode(bars)
        assert barcode(m, w, "infinite") == _rank_barcode(m, w, "infinite")
        zero = chain_representation(window_chain(w), field, (0,) * 7,
                                    [Matrix.zeros(field, 0, 0)] * 6)
        assert barcode(zero, w) == Barcode([])


def test_barcode_reads_only_the_steps(monkeypatch):
    rng = random.Random(5)
    w = Window(0, 9)
    bars = _rand_bars(rng, w) + [Interval(0, 9)]
    scrambled = _scrambled_sum(rng, FieldSpec(5), w, bars)
    m = chain_representation(window_chain(w), scrambled.field, scrambled.dims,
                             scrambled.edges)

    def no_map(_self, i, k):
        raise AssertionError(f"barcode read the map at ({i}, {k})")

    def no_rank(_a):
        raise AssertionError("barcode ranked a matrix")

    monkeypatch.setattr(Representation, "map", no_map)
    monkeypatch.setattr(exactlin, "mat_rank", no_rank)
    monkeypatch.setattr(zed, "mat_rank", no_rank, raising=False)
    assert barcode(m, w) == Barcode(bars)
    # no composite map was built and cached
    assert m._known is None


def test_barcode_refuses_a_module_off_the_window_chain():
    f = FieldSpec(2)
    w = Window(0, 2)
    for p in (proset_from_pairs(3, []), proset_from_pairs(3, [(1, 0), (2, 1)]),
              proset_from_pairs(3, [(0, 1), (1, 0), (1, 2)])):
        maps = {e: Matrix.identity(f, 1) for e in p.generating_edges}
        m = Representation(p, f, (1, 1, 1), maps)
        with pytest.raises(ValueError, match="chain of the window"):
            barcode(m, w)
        # nor is it saved as a window module, whose steps are the chain's edges
        with pytest.raises(ValueError, match="chain of the window"):
            save_document("window_module", (w, m))
    with pytest.raises(ValueError, match="points"):
        barcode(interval_to_module(Interval(0, 2), w), Window(0, 3))
    with pytest.raises(ValueError, match="chain of the window"):
        save_document("window_module", (Window(0, 3), interval_to_module(Interval(0, 2), w)))
    # a certificate's expansion lives on the shoelace carrier, 2n points
    bar = Interval(1, 2)
    cert = matching_to_rep(Matching(Barcode([bar]), Barcode([]), [], 1), Window(-2, 5))
    with pytest.raises(ValueError, match="points"):
        barcode(expand_decomposed(cert), Window(-2, 5))


def _rand_invertible_pair(rng: random.Random, p: int, d: int):
    """(U, U^-1) from random row operations, so both come cheaply."""
    ops = [(rng.sample(range(d), 2), rng.randrange(1, p)) for _ in range(3 * d if d > 1 else 0)]
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    inv = [row[:] for row in u]
    for (a, b), c in ops:
        u[b] = [(x + c * y) % p for x, y in zip(u[b], u[a])]
    for (a, b), c in reversed(ops):
        inv[b] = [(x - c * y) % p for x, y in zip(inv[b], inv[a])]
    return u, inv


def _planted_module(rng: random.Random, field: FieldSpec, n: int,
                    count: int) -> tuple[Window, Representation, Barcode]:
    """A window module on 0..n-1 with count planted bars of lengths n/6 to
    n/2, every point in a random basis: step k is U_(k+1) S_k U_k^-1, S_k
    the bar-to-bar selection."""
    phi = (math.sqrt(5) - 1) / 2
    offset = rng.random()
    bars = []
    for k in range(count):
        length = n // 6 + k * (n // 2 - n // 6) // max(count - 1, 1)
        a = int((offset + k * phi) % 1.0 * (n - length))
        bars.append((a, a + length))
    w = Window(0, n - 1)
    alive = [[k for k, (a, b) in enumerate(bars) if a <= i <= b] for i in range(n)]
    dims = [len(ks) for ks in alive]
    p = field.p
    us = [_rand_invertible_pair(rng, p, d) for d in dims]
    steps = []
    for i in range(n - 1):
        pos = {k: c for c, k in enumerate(alive[i + 1])}
        u_next, u_inv = us[i + 1][0], us[i][1]
        sel = [[u_next[r][pos[k]] if k in pos else 0 for k in alive[i]]
               for r in range(dims[i + 1])]
        cols = list(zip(*u_inv))
        steps.append(Matrix(field, dims[i + 1], dims[i],
                            [[sum(map(operator.mul, row, col)) for col in cols]
                             for row in sel]))
    m = chain_representation(window_chain(w), field, dims, steps)
    return w, m, Barcode(Interval(a, b) for a, b in bars)


def test_wide_f2_vectors_match_the_rank_formula():
    """Over F_2 a vector is one int of a bit per coordinate; the differential
    cases above fit one machine word, these take two or more."""
    f2 = FieldSpec(2)
    w, m, planted = _planted_module(random.Random(4), f2, 6, 200)
    assert max(m.dims) > 64
    assert barcode(m, w) == _rank_barcode(m, w) == planted
    assert barcode(m, w, "infinite") == _rank_barcode(m, w, "infinite")
    rng = random.Random(6)
    w = Window(-3, 3)
    # zero in the middle, every other point wider than a word
    dims = (70, 128, 101, 0, 130, 85, 77)
    steps = [_rand_matrix(rng, f2, dims[k + 1], dims[k]) for k in range(w.size - 1)]
    m = chain_representation(window_chain(w), f2, dims, steps)
    for boundary in ("finite", "infinite"):
        assert barcode(m, w, boundary) == _rank_barcode(m, w, boundary)


@pytest.mark.parametrize("field", [FieldSpec(2), FieldSpec(5), FieldSpec(2 ** 31 - 1)],
                         ids=lambda f: str(f.p))
def test_a_100_point_dimension_64_module_barcodes_in_under_two_seconds(field):
    """F_2 sweeps bit vectors, and F_(2^31-1) packs the widest slots."""
    w, m, planted = _planted_module(random.Random(1), field, 100, 120)
    assert 60 <= max(m.dims) <= 66
    t0 = time.perf_counter()
    got = barcode(m, w)
    elapsed = time.perf_counter() - t0
    assert got == planted
    assert elapsed < 2.0, elapsed


def test_cli_barcode_of_a_200_point_module(tmp_path, capsys):
    w, m, planted = _planted_module(random.Random(2), FieldSpec(5), 200, 64)
    assert max(m.dims) >= 30
    path = tmp_path / "m.json"
    path.write_text(save_document("window_module", (w, m)), encoding="utf-8")
    assert main(["barcode", "--module", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)["payload"]["intervals"]
    got = Counter()
    for bar in out:
        got[(bar["lo"], bar["hi"])] += bar["count"]
    assert got == Counter(bar.ends for bar in planted)
