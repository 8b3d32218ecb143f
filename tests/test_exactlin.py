import random
import re
from collections import deque

import pytest

from hypothesis import given, settings
import hypothesis.strategies as st

from shoelace import zed
from shoelace.exactlin import (
    FieldSpec,
    Matrix,
    homogeneous_dimension,
    mat_inverse,
    mat_mul,
    mat_rank,
    mat_scale,
    mat_solve_homogeneous,
)
from shoelace.proset import shoelace
from shoelace.selftest import (
    _conjugate,
    _rand_invertible,
    _rand_proset,
    _rand_rep,
    _rand_translation,
)

from test_barcode import _rand_bars, _rand_matrix, _rand_steps_module, _scrambled_sum

F2 = FieldSpec(2)
F5 = FieldSpec(5)
F7 = FieldSpec(7)


def test_fieldspec_rejects_nonprimes():
    for bad in (0, 1, 4, 6, 9, 2 ** 31):
        with pytest.raises(ValueError):
            FieldSpec(bad)
    FieldSpec(2 ** 31 - 1)


def test_fieldspec_inverse():
    assert F7.inv(3) == 5
    assert (F7.inv(3) * 3) % 7 == 1
    for x in (2, 3, F_BIG.p - 1, -5):
        assert F_BIG.inv(x) * x % F_BIG.p == 1
    with pytest.raises(ZeroDivisionError):
        F7.inv(0)
    with pytest.raises(ZeroDivisionError):
        F7.inv(14)


def test_matrix_reduces_entries_mod_p():
    m = Matrix(F5, 2, 2, [[7, -1], [10, 3]])
    assert m.entries == ((2, 4), (0, 3))
    assert Matrix(F5, 1, 2, [[7, 3]]).entries == ((2, 3),)
    assert Matrix(F5, 1, 2, [[4, 0]]).entries == ((4, 0),)


def test_matrix_shape_mismatch():
    with pytest.raises(ValueError):
        Matrix(F2, 2, 2, [[1, 0]])
    with pytest.raises(ValueError):
        Matrix(F2, 1, 2, [[1]])


def test_empty_shapes():
    a = Matrix.zeros(F2, 0, 3)
    b = Matrix.zeros(F2, 3, 0)
    assert mat_mul(a, b) == Matrix.zeros(F2, 0, 0)
    # summing over the empty middle index gives the zero 3x3 map
    assert mat_mul(b, a) == Matrix.zeros(F2, 3, 3)
    assert mat_rank(a) == 0


def test_rank_frozen_case():
    # second row is 3 times the first over F5
    m = Matrix(F5, 2, 2, [[2, 4], [1, 2]])
    assert mat_rank(m) == 1
    assert mat_rank(Matrix.identity(F5, 3)) == 3
    assert mat_rank(Matrix.zeros(F5, 4, 2)) == 0


def test_inverse_frozen_case():
    # shear is its own inverse over F2
    m = Matrix(F2, 2, 2, [[1, 1], [0, 1]])
    assert mat_inverse(m) == m
    assert mat_mul(m, m) == Matrix.identity(F2, 2)


def test_inverse_rejects_singular():
    with pytest.raises(ValueError):
        mat_inverse(Matrix(F5, 2, 2, [[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        mat_inverse(Matrix(F5, 2, 3, [[1, 0, 0], [0, 1, 0]]))


def test_solver_no_constraints():
    dim, basis = mat_solve_homogeneous(F2, [(1, 2)], [])
    assert dim == 2
    assert len(basis) == 2


def test_solver_two_point_commuting_square():
    # unknowns X0, X1 with X1 * 1 == 1 * X0: a one-parameter family
    one = Matrix(F5, 1, 1, [[1]])
    dim, basis = mat_solve_homogeneous(
        F5, [(1, 1), (1, 1)], [(one, 0, one, 1)])
    assert dim == 1
    (x0, x1) = basis[0]
    assert x0 == x1


def test_solver_zero_map_blocks_flow():
    # 0 * X0 == X1 * 1 forces X1 = 0, leaves X0 free
    zero = Matrix(F5, 1, 1, [[0]])
    one = Matrix(F5, 1, 1, [[1]])
    dim, basis = mat_solve_homogeneous(
        F5, [(1, 1), (1, 1)], [(zero, 0, one, 1)])
    assert dim == 1
    for (x0, x1) in basis:
        assert x1.is_zero()


def _mats(field, rows, cols):
    return st.lists(
        st.lists(st.integers(0, field.p - 1), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ).map(lambda e: Matrix(field, rows, cols, e))


@given(_mats(F5, 2, 3), _mats(F5, 3, 2), _mats(F5, 2, 2))
def test_mul_associative(a, b, c):
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


@given(_mats(F5, 3, 3), _mats(F5, 3, 3))
def test_rank_of_product_bounded(a, b):
    assert mat_rank(mat_mul(a, b)) <= min(mat_rank(a), mat_rank(b))


@given(_mats(F2, 3, 3))
def test_scale_by_one_is_identity(a):
    assert mat_scale(1, a) == a
    assert mat_scale(0, a).is_zero()


@given(st.integers(0, 10 ** 6))
def test_random_invertible_round_trip(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(1, 4)
    lower = [[0] * n for _ in range(n)]
    upper = [[0] * n for _ in range(n)]
    for i in range(n):
        lower[i][i] = rng.randrange(1, 7)
        upper[i][i] = rng.randrange(1, 7)
        for j in range(i):
            lower[i][j] = rng.randrange(7)
            upper[j][i] = rng.randrange(7)
    m = mat_mul(Matrix(F7, n, n, lower), Matrix(F7, n, n, upper))
    inv = mat_inverse(m)
    assert mat_mul(m, inv) == Matrix.identity(F7, n)
    assert mat_mul(inv, m) == Matrix.identity(F7, n)


@settings(max_examples=30)
@given(st.integers(0, 10 ** 6))
def test_solver_basis_satisfies_constraints(seed):
    import random

    rng = random.Random(seed)
    shapes = [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(3)]
    constraints = []
    for _ in range(rng.randint(0, 3)):
        k = rng.randrange(3)
        l = rng.randrange(3)
        a = Matrix(F5, shapes[l][0], shapes[k][0],
                   [[rng.randrange(5) for _ in range(shapes[k][0])]
                    for _ in range(shapes[l][0])])
        b = Matrix(F5, shapes[l][1], shapes[k][1],
                   [[rng.randrange(5) for _ in range(shapes[k][1])]
                    for _ in range(shapes[l][1])])
        constraints.append((a, k, b, l))
    dim, basis = mat_solve_homogeneous(F5, shapes, constraints)
    assert dim == len(basis)
    for sol in basis:
        for (a, k, b, l) in constraints:
            assert mat_mul(a, sol[k]) == mat_mul(sol[l], b)
    # basis vectors are linearly independent as flattened rows
    flat = [
        [e for x in sol for row in x.entries for e in row]
        for sol in basis
    ]
    if flat and flat[0]:
        stacked = Matrix(F5, len(flat), len(flat[0]), flat)
        assert mat_rank(stacked) == dim


@given(st.integers(0, 10 ** 6))
def test_dimension_without_a_basis_is_the_basis_size(seed):
    """homogeneous_dimension shares the solver's elimination and skips the
    basis; on random systems over small fields and F_(2^31-1), with empty
    unknowns, zero maps and unknowns tied to themselves, it counts the basis
    mat_solve_homogeneous builds."""
    import random

    rng = random.Random(seed)
    field = FieldSpec(rng.choice((2, 3, 5, 2 ** 31 - 1)))
    shapes = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(1, 4))]
    constraints = []
    for _ in range(rng.randint(0, 4)):
        k, l = rng.randrange(len(shapes)), rng.randrange(len(shapes))
        zero = rng.random() < 0.2
        a = Matrix(field, shapes[l][0], shapes[k][0],
                   [[0 if zero else rng.randrange(field.p) for _ in range(shapes[k][0])]
                    for _ in range(shapes[l][0])])
        b = Matrix(field, shapes[l][1], shapes[k][1],
                   [[rng.randrange(field.p) for _ in range(shapes[k][1])]
                    for _ in range(shapes[l][1])])
        constraints.append((a, k, b, l))
    dim, basis = mat_solve_homogeneous(field, shapes, constraints)
    assert homogeneous_dimension(field, shapes, constraints) == dim == len(basis)


@pytest.mark.parametrize("entry", [1.5, "1", True, None, [1]])
def test_matrix_takes_only_int_entries(entry):
    with pytest.raises(TypeError, match="matrix entries must be integers"):
        Matrix(F5, 1, 2, [[1, entry]])


@settings(max_examples=60)
@given(st.integers(0, 10 ** 6))
def test_results_built_unchecked_equal_the_public_construction(seed):
    """mat_scale, mat_inverse and the solver basis wrap their entries
    through Matrix._trusted; each result equals the matrix the checking
    public constructor builds from the same entries."""
    import random

    from shoelace.selftest import _rand_invertible

    rng = random.Random(seed)
    field = FieldSpec(rng.choice((2, 3, 5, 7, 2 ** 31 - 1)))

    def rand(rows, cols):
        return Matrix(field, rows, cols, [[rng.randrange(field.p) for _ in range(cols)]
                                          for _ in range(rows)])

    def same_as_public(m):
        ref = Matrix(field, m.rows, m.cols, m.entries)
        assert m == ref and hash(m) == hash(ref)
        assert type(m.entries) is tuple and all(type(r) is tuple for r in m.entries)

    same_as_public(mat_scale(rng.randint(-3 * field.p, 3 * field.p),
                             rand(rng.randint(0, 3), rng.randint(0, 3))))
    same_as_public(mat_inverse(_rand_invertible(rng, field, rng.randint(0, 4))))
    shapes = [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(3)]
    constraints = []
    for _ in range(rng.randint(0, 3)):
        k, l = rng.randrange(3), rng.randrange(3)
        constraints.append((rand(shapes[l][0], shapes[k][0]), k,
                            rand(shapes[l][1], shapes[k][1]), l))
    dim, basis = mat_solve_homogeneous(field, shapes, constraints)
    assert dim == len(basis)
    for sol in basis:
        for x in sol:
            same_as_public(x)


F_BIG = FieldSpec(2 ** 31 - 1)


def _dense_mul(a, b):
    """The reference product: every entry a dot product, no row skipped."""
    p = a.field.p
    return [[sum(a.entries[i][t] * b.entries[t][j] for t in range(a.cols)) % p
             for j in range(b.cols)] for i in range(a.rows)]


@st.composite
def _mixed_products(draw):
    """A product a @ b over F_2, F_5 or F_(2^31-1) whose rows of a mix zero
    rows, unit rows, rows with one nonzero entry other than 1, and dense
    rows; any of the three dimensions may be 0."""
    field = draw(st.sampled_from((F2, F5, F_BIG)))
    m, n, k = (draw(st.integers(0, 5)) for _ in range(3))
    entry = st.integers(0, field.p - 1)
    kinds = ["zero", "dense"] + (["unit", "single"] if n else [])
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(kinds))
        if kind == "dense":
            rows.append(draw(st.lists(entry, min_size=n, max_size=n)))
            continue
        row = [0] * n
        if kind != "zero":
            # a single 2 or p - 1 must still be multiplied; in F_2 they are
            # 0 and 1, a zero row and a unit row
            values = [1] if kind == "unit" else [2 % field.p, field.p - 1]
            row[draw(st.integers(0, n - 1))] = draw(st.sampled_from(values))
        rows.append(row)
    b = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
    return Matrix(field, m, n, rows), Matrix(field, n, k, b)


@settings(max_examples=300)
@given(_mixed_products())
def test_mul_matches_the_dense_product(ab):
    """Zero and unit rows of a copy a row of b; the product still equals
    the dense one and the matrix the public constructor builds."""
    a, b = ab
    got = mat_mul(a, b)
    ref = Matrix(a.field, a.rows, b.cols, _dense_mul(a, b))
    assert (got.rows, got.cols) == (a.rows, b.cols)
    assert got == ref and hash(got) == hash(ref)
    assert type(got.entries) is tuple and all(type(r) is tuple for r in got.entries)


@pytest.mark.parametrize("field", [F2, F5, F_BIG], ids=lambda f: f"F{f.p}")
@pytest.mark.parametrize("shape", [(0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 0, 0)])
def test_mul_of_empty_shapes_is_the_zero_matrix(field, shape):
    m, n, k = shape
    a = Matrix(field, m, n, [[field.p - 1] * n for _ in range(m)])
    b = Matrix(field, n, k, [[1] * k for _ in range(n)])
    assert mat_mul(a, b) == Matrix.zeros(field, m, k)


def test_single_entries_other_than_one_are_multiplied():
    b = Matrix(F5, 2, 2, [[1, 2], [3, 4]])
    a = Matrix(F5, 3, 2, [[2, 0], [0, 4], [0, 1]])
    assert mat_mul(a, b).entries == ((2, 4), (2, 1), (3, 4))
    top = F_BIG.p - 1
    b = Matrix(F_BIG, 1, 2, [[1, top]])
    assert mat_mul(Matrix(F_BIG, 1, 1, [[top]]), b).entries == ((top, 1),)


@st.composite
def _factor(draw, field, rows, cols):
    """A rows x cols factor: the shared zeros or identity, or one built by
    the public constructor, whose row tuples are fresh: zero, identity,
    permutation, unit or zero rows, or dense."""
    square = ["identity", "fresh identity", "permutation"] if rows == cols else []
    kind = draw(st.sampled_from(["zeros", "fresh zeros", "units", "dense"] + square))
    if kind == "zeros":
        return Matrix.zeros(field, rows, cols)
    if kind == "identity":
        return Matrix.identity(field, rows)
    if kind == "dense":
        entry = st.integers(0, field.p - 1)
        entries = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                                min_size=rows, max_size=rows))
    else:
        if kind == "permutation":
            picks = draw(st.permutations(range(rows)))
        elif kind == "units" and cols:
            picks = draw(st.lists(st.integers(-1, cols - 1), min_size=rows, max_size=rows))
        else:
            picks = range(rows) if kind == "fresh identity" else [-1] * rows
        entries = [[int(j == c) for j in range(cols)] for c in picks]
    return Matrix(field, rows, cols, entries)


@st.composite
def _shared_products(draw):
    """Factors a @ b over F_2, F_5 or F_(2^31-1), each square half the time."""
    field = draw(st.sampled_from((F2, F5, F_BIG)))
    n = draw(st.integers(0, 4))
    m, k = (draw(st.one_of(st.just(n), st.integers(0, 4))) for _ in range(2))
    return draw(_factor(field, m, n)), draw(_factor(field, n, k))


@settings(max_examples=400)
@given(_shared_products())
def test_mul_returns_the_factor_it_leaves_unchanged(ab):
    """The product equals the dense one.  It is b itself when it equals b,
    else a itself when b is square and it equals a, else the shared zeros
    when it is zero, and otherwise a new matrix."""
    a, b = ab
    got = mat_mul(a, b)
    ref = Matrix(a.field, a.rows, b.cols, _dense_mul(a, b))
    assert got == ref and hash(got) == hash(ref)
    zero = all(x == 0 for row in ref.entries for x in row)
    assert got.is_zero() is zero
    if ref == b:
        assert got is b
    elif b.rows == b.cols and ref == a:
        assert got is a
    elif zero:
        assert got is Matrix.zeros(a.field, a.rows, b.cols)
    else:
        assert got is not a and got is not b


def test_each_shortcut_of_mul_returns_a_shared_matrix():
    a = Matrix(F5, 2, 3, [[1, 2, 3], [4, 0, 1]])
    # fresh rows: the factors are reused by value, not only by identity
    assert mat_mul(Matrix(F5, 2, 2, [[1, 0], [0, 1]]), a) is a
    assert mat_mul(Matrix.identity(F5, 2), a) is a
    assert mat_mul(a, Matrix(F5, 3, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])) is a
    assert mat_mul(a, Matrix.identity(F5, 3)) is a
    # a 1 x 2 b whose rows a's rows equal is still a new 2 x 2 product
    b = Matrix(F5, 1, 2, [[1, 2]])
    got = mat_mul(Matrix(F5, 2, 1, [[1], [1]]), b)
    assert got.entries == ((1, 2), (1, 2)) and got is not b
    z = Matrix.zeros(F5, 2, 4)
    assert mat_mul(a, Matrix.zeros(F5, 3, 4)) is z
    assert mat_mul(Matrix(F5, 2, 3, [[0, 0, 0], [0, 0, 0]]), Matrix(F5, 3, 4, [[1] * 4] * 3)) is z
    # a dense row whose dot products all vanish is a zero row too
    assert mat_mul(Matrix(F5, 2, 2, [[1, 4], [0, 0]]), Matrix(F5, 2, 4, [[1] * 4] * 2)) is z
    assert Matrix.zeros(FieldSpec(5), 2, 3) is Matrix.zeros(FieldSpec(5), 2, 3)
    assert Matrix.identity(FieldSpec(5), 3) is Matrix.identity(FieldSpec(5), 3)
    assert Matrix.zeros(F5, 2, 3) is not Matrix.zeros(F7, 2, 3)
    assert Matrix.zeros(F5, 2, 3).entries[1] is Matrix.zeros(F2, 5, 3).entries[0]


def test_shared_matrices_refuse_writes_and_their_caches_are_bounded():
    from shoelace import exactlin

    for m in (Matrix.zeros(F5, 2, 3), Matrix.identity(F5, 2)):
        with pytest.raises(AttributeError):
            m.entries = ((9,),)
        with pytest.raises(AttributeError):
            del m.rows
    assert Matrix.zeros(F5, 2, 3).entries == ((0, 0, 0), (0, 0, 0))
    assert Matrix.identity(F5, 2).entries == ((1, 0), (0, 1))
    # 64 matrices of the largest document shape, 256 x 256
    assert exactlin._UNIT_ROWS == 64 * 256
    held = sum(m.rows for m in exactlin._unit_cache.values())
    assert 0 < held == exactlin._unit_rows_held <= exactlin._UNIT_ROWS
    assert list(exactlin._unit_cache) == list(exactlin._unit_order)


def test_units_evicts_its_oldest_entries_first_and_keeps_its_row_bound(monkeypatch):
    """_units against a model of its cache, a list of keys oldest first:
    a hit refreshes nothing, a miss drops the oldest keys until the rows
    held fit the bound, and a 256 x 256 matrix fits among small ones."""
    from shoelace import exactlin
    from shoelace.exactlin import _units

    monkeypatch.setattr(exactlin, "_unit_cache", {})
    monkeypatch.setattr(exactlin, "_unit_order", deque())
    monkeypatch.setattr(exactlin, "_unit_rows_held", 0)
    bound = exactlin._UNIT_ROWS
    big = (F5, 256, tuple(range(256)))
    # r-row zero columns: distinct keys that all share one row object
    calls = [big] + [(F5, 1, (-1,) * r) for r in range(1, 150)] + [big]
    calls += [(F7, 1, (-1,) * r) for r in range(1, 110)] + [big] * 2 + calls[1:40]
    model: list = []
    evicted = []
    for key in calls:
        got = _units(*key)
        assert got.rows == len(key[2]) and got.cols == key[1]
        if key not in model:
            model.append(key)
            while sum(len(k[2]) for k in model) > bound:
                evicted.append(model.pop(0))
        assert list(exactlin._unit_cache) == model == list(exactlin._unit_order)
        assert _units(*key) is got
        held = sum(m.rows for m in exactlin._unit_cache.values())
        assert held == exactlin._unit_rows_held <= bound
    # the hits on big did not keep it from going first
    assert evicted[0] == big and big in model and model[0] != big
    # a matrix of more rows than the bound is built, and not kept
    tall = _units(F5, 1, (-1,) * (bound + 1))
    assert tall.rows == bound + 1 and tall.is_zero()
    assert list(exactlin._unit_cache) == model


@settings(max_examples=300)
@given(st.sampled_from((F2, F5, F_BIG)), st.integers(0, 5), st.data())
def test_units_is_the_dense_zero_one_matrix_and_shared(field, width, data):
    """_units equals the 0/1 matrix built through the public constructor,
    for cols that mix -1, repeats and any order, and a second call, or
    Matrix.zeros and Matrix.identity of its shape, returns the same object."""
    from shoelace.exactlin import _units

    cols = tuple(data.draw(st.lists(st.integers(-1, width - 1), max_size=6)))
    got = _units(field, width, cols)
    ref = Matrix(field, len(cols), width, [[int(j == c) for j in range(width)] for c in cols])
    assert got == ref and hash(got) == hash(ref)
    assert _units(field, width, cols) is got
    assert Matrix.zeros(field, len(cols), width) is _units(field, width, (-1,) * len(cols))
    assert Matrix.identity(field, width) is _units(field, width, tuple(range(width)))


@pytest.mark.parametrize("shape", [(True, 2), (2, False), (2.0, 2), (2, "3"), (None, 0)])
def test_shapes_of_zeros_and_identity_are_ints(shape):
    """A bool shape would share a cache key with 1 or 0 and hand that
    matrix, with a bool shape, to every later caller."""
    with pytest.raises(TypeError, match="matrix shape"):
        Matrix.zeros(F5, *shape)
    with pytest.raises(TypeError, match="matrix shape"):
        Matrix.identity(F5, next(x for x in shape if type(x) is not int))
    assert Matrix.zeros(F5, 1, 2).rows == 1 and type(Matrix.zeros(F5, 1, 2).rows) is int


@pytest.mark.parametrize("rows", [True, 1.0])
def test_constructor_refuses_shapes_that_would_share_a_zeros_key(rows):
    """1.0 and True hash and compare as 1, so a product of such a matrix
    that is zero would take the cached zeros key (F_5, 1, 2) and hand
    its non-int shape to every later Matrix.zeros(F_5, 1, 2)."""
    with pytest.raises(TypeError, match="matrix shape"):
        Matrix(F5, rows, 2, [[0, 0]])
    with pytest.raises(TypeError, match="matrix shape"):
        Matrix(F5, 2, rows, [[0], [0]])
    a = Matrix(F5, 1, 2, [[0, 0]])
    for m in (mat_mul(a, Matrix.identity(F5, 2)), mat_mul(Matrix(F5, 1, 1, [[0]]), a),
              mat_scale(0, a), Matrix.zeros(F5, 1, 2)):
        assert m == Matrix.zeros(F5, 1, 2)
        assert type(m.rows) is int and type(m.cols) is int
    assert type(Matrix.zeros(F5, 1, 2).rows) is int


def test_a_warm_canonical_pair_and_its_checks_build_no_matrix(monkeypatch):
    """Once the interval modules are cached, canonical_pair and its
    naturality checks only take shared identities, zeros and factors."""
    from shoelace.rep import validate_nat_trans

    def run():
        pair = zed.canonical_pair(zed.Interval(0, 2), zed.Interval(1, 3), 1,
                                  zed.Window(-2, 7), F5)
        assert [validate_nat_trans(t) for t in pair] == [None, None]
        return pair

    f, g = run()
    assert not all(c.is_zero() for c in f.components)
    built = _count_built(monkeypatch)
    run()
    assert built == []


def test_a_warm_matching_interleaving_and_its_certificate_build_no_matrix(monkeypatch):
    """Every module, component and edge that a matching's interleaving and
    the expansion of its certificate hold is a 0/1 matrix, so a second run
    takes them all from the shared cache of _units."""
    i02, i13, i55 = zed.Interval(0, 2), zed.Interval(1, 3), zed.Interval(5, 5)
    s = zed.Matching(zed.Barcode([i02, i55]), zed.Barcode([i13]), [(i02, i13)], 1)
    w = zed.Window(-2, 7)

    def run():
        x = zed.matching_interleaving(s, w, F5)
        return x, zed.expand_decomposed(zed.matching_to_rep(s, w, field=F5))

    x, total = run()
    assert not all(c.is_zero() for c in x.phi.components)
    assert sum(total.dims) > 0
    built = _count_built(monkeypatch)
    assert run() == (x, total)
    assert built == []


def _count_built(monkeypatch) -> list:
    """Record the arguments of every later Matrix._trusted call."""
    built = []
    trusted = Matrix._trusted.__func__
    monkeypatch.setattr(Matrix, "_trusted",
                        classmethod(lambda cls, *args: built.append(args) or trusted(cls, *args)))
    return built


# The dense elimination that the sparse kernel replaced: every equation a
# flat row as long as all the unknown entries, cleared column by column.
# It is the reference of the differential tests below.


def _dense_rref(field, rows, width):
    """In-place reduced row echelon form.  Returns (rank, pivot columns)."""
    p = field.p
    pivots = []
    r = 0
    for c in range(width):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] % p != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p != 0:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return r, pivots


def _dense_rank(a):
    return _dense_rref(a.field, [list(r) for r in a.entries], a.cols)[0]


def _dense_inverse(a):
    n = a.rows
    aug = [list(row) + [1 if i == j else 0 for j in range(n)]
           for i, row in enumerate(a.entries)]
    if _dense_rref(a.field, aug, n)[0] != n:
        raise ValueError("matrix is singular")
    return Matrix(a.field, n, n, [row[n:] for row in aug])


def _dense_eliminate(field, shapes, constraints):
    """The offset of each unknown in the flat vector of all their entries,
    then its length; the equation rows in reduced row echelon form; and
    their pivot columns."""
    offsets = [0]
    for (r, c) in shapes:
        offsets.append(offsets[-1] + r * c)
    p = field.p
    eq_rows = []
    for (a, k, b, l) in constraints:
        ck, cl = shapes[k][1], shapes[l][1]
        for i in range(a.rows):
            for j in range(ck):
                row = [0] * offsets[-1]
                for t in range(a.cols):
                    row[offsets[k] + t * ck + j] += a.entries[i][t]
                for t in range(cl):
                    row[offsets[l] + i * cl + t] -= b.entries[t][j]
                eq_rows.append([x % p for x in row])
    _, pivots = _dense_rref(field, eq_rows, offsets[-1]) if eq_rows else (0, [])
    return offsets, eq_rows, pivots


def _dense_dimension(field, shapes, constraints):
    offsets, _, pivots = _dense_eliminate(field, shapes, constraints)
    return offsets[-1] - len(pivots)


def _dense_solve(field, shapes, constraints):
    """The dimension and basis of the dense solver: one basis vector per
    free column of the flat rows, in column order."""
    offsets, eq_rows, pivots = _dense_eliminate(field, shapes, constraints)
    basis = []
    for fv in sorted(set(range(offsets[-1])) - set(pivots)):
        vec = [0] * offsets[-1]
        vec[fv] = 1
        for row, pc in zip(eq_rows, pivots):
            vec[pc] = (-row[fv]) % field.p
        basis.append(tuple(
            Matrix(field, r, c, [vec[offsets[k] + i * c:offsets[k] + (i + 1) * c]
                                 for i in range(r)])
            for k, (r, c) in enumerate(shapes)))
    return len(basis), basis


FIELDS = (F2, F5, F_BIG)


def _rand_entries(rng, field, rows, cols, zero=False):
    """Entries that are 0, 1 or p - 1 half the time, so that systems over
    F_(2^31-1) are rank deficient too."""
    def entry():
        if zero:
            return 0
        if rng.random() < 0.5:
            return rng.choice((0, 1, field.p - 1))
        return rng.randrange(field.p)
    return Matrix(field, rows, cols, [[entry() for _ in range(cols)] for _ in range(rows)])


def _assert_solves_like_dense(field, shapes, constraints):
    dim, basis = mat_solve_homogeneous(field, shapes, constraints)
    assert (dim, basis) == _dense_solve(field, shapes, constraints)
    assert homogeneous_dimension(field, shapes, constraints) == dim


@settings(max_examples=300)
@given(st.integers(0, 10 ** 6))
def test_solver_matches_the_dense_reference(seed):
    """Random systems over F_2, F_5 and F_(2^31-1), unknowns of every
    shape from 0x0 to 5x5, zero maps and unknowns tied to themselves:
    dimension and basis equal the dense solver's entry for entry."""
    rng = random.Random(seed)
    field = rng.choice(FIELDS)
    shapes = [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(rng.randint(0, 4))]
    constraints = []
    for _ in range(rng.randint(0, 4) if shapes else 0):
        k = rng.randrange(len(shapes))
        l = k if rng.random() < 0.25 else rng.randrange(len(shapes))
        a = _rand_entries(rng, field, shapes[l][0], shapes[k][0], zero=rng.random() < 0.15)
        b = _rand_entries(rng, field, shapes[l][1], shapes[k][1], zero=rng.random() < 0.15)
        constraints.append((a, k, b, l))
    _assert_solves_like_dense(field, shapes, constraints)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"F{f.p}")
@pytest.mark.parametrize("shape", [(r, c) for r in range(6) for c in range(6)])
def test_an_unknown_tied_to_itself_solves_like_dense(field, shape):
    rng = random.Random(f"{field.p} {shape}")
    r, c = shape
    for zero in (False, True):
        a = _rand_entries(rng, field, r, r, zero=zero)
        _assert_solves_like_dense(field, [shape], [(a, 0, _rand_entries(rng, field, c, c), 0)])
    _assert_solves_like_dense(field, [shape], [])


def test_a_constraint_on_an_unknown_out_of_range_is_refused():
    # a negative index would name a column of no unknown
    one = Matrix(F2, 1, 1, [[1]])
    for k, l in ((0, 1), (0, -1), (-1, 0)):
        for solve in (homogeneous_dimension, mat_solve_homogeneous):
            with pytest.raises(ValueError, match="of 1 unknowns"):
                solve(F2, [(1, 1)], [(one, k, one, l)])


_ONE2 = Matrix(F2, 1, 1, [[1]])


@pytest.mark.parametrize("shapes, constraint, message", [
    ([(-1, 1)], None, "negative unknown shape -1x1"),
    ([(1, 1)], (_ONE2, 0, _ONE2, 1), "constraint names X_0 and X_1 of 1 unknowns"),
    ([(1, 1)], (Matrix(F5, 1, 1, [[1]]), 0, _ONE2, 0),
     "constraint matrix field does not match the system field"),
    ([(1, 1)], (Matrix(F2, 1, 2, [[1, 0]]), 0, _ONE2, 0), "A is 1x2 but X_0 has 1 rows"),
    ([(1, 1)], (_ONE2, 0, Matrix(F2, 2, 1, [[1], [0]]), 0), "B is 2x1 but X_0 has 1 cols"),
    ([(1, 1)], (Matrix(F2, 2, 1, [[1], [0]]), 0, _ONE2, 0),
     "constraint shape mismatch: A@X_0 is 2x1, X_0@B is 1x1"),
    ([(1, 1)], (_ONE2, 0, Matrix(F2, 1, 2, [[1, 0]]), 0),
     "constraint shape mismatch: A@X_0 is 1x1, X_0@B is 1x2"),
], ids=["negative shape", "missing unknown", "field", "A cols", "B rows",
        "A rows", "B cols"])
def test_a_malformed_system_is_refused_with_its_message(shapes, constraint, message):
    constraints = [] if constraint is None else [constraint]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        homogeneous_dimension(F2, shapes, constraints)


def test_the_empty_system():
    assert mat_solve_homogeneous(F5, [], []) == _dense_solve(F5, [], []) == (0, [])
    assert homogeneous_dimension(F5, [], []) == 0


@settings(max_examples=300)
@given(st.integers(0, 10 ** 6))
def test_rank_and_inverse_match_the_dense_reference(seed):
    """Rank of every shape up to 5x5, and the inverse of square matrices,
    singular ones included: mat_inverse refuses exactly what the dense
    elimination finds singular and otherwise returns the same matrix."""
    rng = random.Random(seed)
    field = rng.choice(FIELDS)
    rows, cols = rng.randint(0, 5), rng.randint(0, 5)
    for a in (_rand_entries(rng, field, rows, cols), _rand_matrix(rng, field, rows, cols)):
        assert mat_rank(a) == _dense_rank(a)
    n = rng.randint(0, 5)
    for a in (_rand_entries(rng, field, n, n), _rand_matrix(rng, field, n, n)):
        try:
            want = _dense_inverse(a)
        except ValueError:
            with pytest.raises(ValueError, match="singular"):
                mat_inverse(a)
        else:
            assert mat_inverse(a) == want


@pytest.mark.parametrize("family", ["window", "carrier"])
def test_hom_dimensions_match_the_dense_reference(family, monkeypatch):
    """Hom dimensions between scrambled window modules, and between
    scrambled modules on shoelace carriers, equal the dense solver's."""
    for seed in range(60):
        rng = random.Random(seed)
        field = rng.choice(FIELDS)
        lo = rng.randint(-3, 3)
        w = zed.Window(lo, lo + rng.randint(0, 4))
        if family == "window":
            steps = _rand_steps_module(rng, field, w)
            m = _scrambled_sum(rng, field, w, _rand_bars(rng, w))
            n = _conjugate(steps, [_rand_invertible(rng, field, d) for d in steps.dims])[0]
        else:
            if rng.random() < 0.5:
                sh = zed.shoelace_window(w, rng.randint(0, 3))
            else:
                base = _rand_proset(rng, max_n=4)
                sh = shoelace(base, _rand_translation(rng, base))
            m, n = (_rand_rep(rng, sh, field, max_dim=2) for _ in range(2))
        got = [zed._hom_dimension(x, y) for x, y in ((m, n), (n, m), (m, m))]
        with monkeypatch.context() as mp:
            mp.setattr(zed, "homogeneous_dimension", _dense_dimension)
            assert got == [zed._hom_dimension(x, y) for x, y in ((m, n), (n, m), (m, m))]
