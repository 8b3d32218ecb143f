import pytest

from hypothesis import given, settings
import hypothesis.strategies as st

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
    with pytest.raises(ZeroDivisionError):
        F7.inv(0)


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
