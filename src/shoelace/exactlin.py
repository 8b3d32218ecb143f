"""Exact linear algebra over prime fields F_p.

All arithmetic is integer arithmetic mod p; there is no floating point in this
package.  Matrices are immutable and hashable so they can sit in dict keys and
be compared for exact equality.  Value, the base of every immutable value type
of the package, lives here too, as every module imports this one.
"""

from __future__ import annotations

import operator
from collections import deque
from functools import lru_cache
from itertools import chain, repeat, starmap, zip_longest
from typing import Iterable, Sequence


def _is_prime(n: int) -> bool:
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


_INT = frozenset((int,))


def check_ints(values: tuple, what: str) -> None:
    """Raise TypeError unless every value is an int and none a bool."""
    if not _INT.issuperset(map(type, values)):
        bad = next(x for x in values if type(x) is not int)
        raise TypeError(f"{what} must be integers, got {bad!r}")


@lru_cache(maxsize=4096)
def _unit_row(width: int, col: int) -> tuple[int, ...]:
    """The row of length width with a 1 at col, or the zero row for col -1;
    rows are tuples, so every matrix that needs one shares it."""
    if col < 0:
        return (0,) * width
    return (0,) * col + (1,) + (0,) * (width - col - 1)


def _fill(obj, *values, cls=None):
    """Set obj's slots, or those cls declares, in order to values, and the
    slots after them, its empty caches, to None; returns obj."""
    for name, value in zip_longest((cls or type(obj)).__slots__, values):
        object.__setattr__(obj, name, value)
    return obj


class Value:
    """Base of the immutable value types.  The fields of a value are its
    public slots, base class first; a slot named _... is a cache and takes
    no part.  Setting or deleting an attribute raises AttributeError.  A
    value equals only a value of its own class with equal fields, hashes
    as the tuple of its fields and reprs as its fields by name; a class
    whose equality is hot, or is not field equality, defines its own."""

    __slots__ = ()

    def __init_subclass__(cls):
        names = tuple(name for klass in reversed(cls.__mro__)
                      for name in klass.__dict__.get("__slots__", ())
                      if not name.startswith("_"))
        get = operator.attrgetter(*names)
        # attrgetter of one name gives the field itself, not a 1-tuple
        cls._names = names
        cls._fields = staticmethod(get if len(names) > 1 else lambda obj: (get(obj),))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self._names, self._fields(self))
        return f"{type(self).__name__}({', '.join(fields)})"


_FIELDS: dict[int, "FieldSpec"] = {}


class FieldSpec(Value):
    """The prime field F_p, for 2 <= p <= 2**31 - 1.  There is one instance
    per p: FieldSpec(p) checks p on first use and returns the shared
    instance after that, so equality and hash are identity's.  The traced
    benchmark counts calls of FieldSpec.__eq__."""

    __slots__ = ("p",)

    def __new__(cls, p: int):
        # 5.0 and True hash and compare as ints, so they must not reach the table
        got = _FIELDS.get(p) if type(p) is int else None
        if got is None:
            if not isinstance(p, int) or isinstance(p, bool):
                raise ValueError(f"field characteristic must be an int, got {p!r}")
            if not (2 <= p <= 2**31 - 1):
                raise ValueError(f"field characteristic {p} out of range [2, 2**31-1]")
            if not _is_prime(p):
                raise ValueError(f"field characteristic {p} is not prime")
            p = int(p)
            got = _FIELDS.setdefault(p, _fill(object.__new__(cls), p))
        return got

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def inv(self, x: int) -> int:
        x %= self.p
        if x == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(x, -1, self.p)


class Matrix(Value):
    """Matrix over a FieldSpec.

    Entries are stored as a tuple of row tuples, already reduced mod p.
    The constructor takes a shape and entries that are ints, and no bools:
    anything else raises TypeError rather than being converted, so no
    product of a bool- or float-shaped matrix lands in the shared zeros.
    A 0xN or Nx0 matrix is legal and represents a map to or from the zero
    space.  Equality, hash and the trusted path are its own, as they are
    hot.
    """

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: FieldSpec, rows: int, cols: int,
                 entries: Iterable[Iterable[int]]):
        check_ints((rows, cols), "matrix shape")
        if rows < 0 or cols < 0:
            raise ValueError(f"negative matrix shape {rows}x{cols}")
        ent = tuple(map(tuple, entries))
        cells = tuple(chain.from_iterable(ent))
        check_ints(cells, "matrix entries")
        p = field.p
        if cells and (min(cells) < 0 or max(cells) >= p):
            ent = tuple(tuple(map(operator.mod, row, repeat(p))) for row in ent)
        if len(ent) != rows or any(len(r) != cols for r in ent):
            raise ValueError(
                f"entries do not form a {rows}x{cols} array: "
                f"got {len(ent)} rows of lengths {[len(r) for r in ent]}")
        _fill(self, field, rows, cols, ent)

    @classmethod
    def _trusted(cls, field: FieldSpec, rows: int, cols: int,
                 entries: tuple[tuple[int, ...], ...]) -> "Matrix":
        """Wrap a tuple of row tuples that is already reduced mod p and of
        shape rows x cols, skipping the checks of the public constructor."""
        out = object.__new__(cls)
        object.__setattr__(out, "field", field)
        object.__setattr__(out, "rows", rows)
        object.__setattr__(out, "cols", cols)
        object.__setattr__(out, "entries", entries)
        return out

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "Matrix":
        """The rows x cols zero matrix, _units(field, cols, (-1,) * rows):
        one shared instance per field and shape, every row the shared zero
        row.  Shapes that are not ints, or are bools, raise TypeError."""
        check_ints((rows, cols), "matrix shape")
        if rows < 0 or cols < 0:
            raise ValueError(f"negative matrix shape {rows}x{cols}")
        return _units(field, cols, (-1,) * rows)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        """The n x n identity, _units(field, n, tuple(range(n))): one
        shared instance per field and size, row i the shared unit row
        _unit_row(n, i).  A size that is not an int, or is a bool, raises
        TypeError."""
        check_ints((n,), "matrix shape")
        if n < 0:
            raise ValueError(f"negative matrix shape {n}x{n}")
        return _units(field, n, tuple(range(n)))

    def is_zero(self) -> bool:
        return not any(map(any, self.entries))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field is other.field and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.field, self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"Matrix(p={self.field.p}, {self.rows}x{self.cols}, {list(map(list, self.entries))})"


# A matrix is immutable and holds no cache, so one instance serves every
# caller.  The cache is bounded by the rows it holds, not by its entries:
# for shapes up to zed.MAX_POINT_DIM = 256, the largest dimension a document
# may hold, a row is at most 256 wide, so 64 * 256 rows hold at most about
# 33 MiB, while a matchings round's 837 small entries (3,175 rows) all fit.
# Lookups hit a plain dict.  Its oldest key would be found by a scan over
# the holes that earlier evictions left at its front, so a deque keeps the
# keys oldest first instead.
_UNIT_ROWS = 64 * 256
_unit_cache: dict[tuple, Matrix] = {}
_unit_order: deque = deque()
_unit_rows_held = 0


def _units(field: FieldSpec, width: int, cols: tuple[int, ...]) -> Matrix:
    """The one builder of 0/1 matrices: the len(cols) x width matrix whose
    row r is the shared _unit_row(width, cols[r]), a zero row where
    cols[r] is -1.  One shared instance per field, width and cols while it
    is cached; zeros, identities, indicator-sum maps and matching blocks
    all come from it.  The cache evicts its oldest entries first, a hit
    refreshing none, so that it never holds more than _UNIT_ROWS rows; a
    matrix of more rows than that is built and not kept."""
    global _unit_rows_held
    key = (field, width, cols)
    got = _unit_cache.get(key)
    if got is None:
        got = Matrix._trusted(field, len(cols), width, tuple(_unit_row(width, c) for c in cols))
        if got.rows <= _UNIT_ROWS:
            _unit_rows_held += got.rows
            while _unit_rows_held > _UNIT_ROWS:
                _unit_rows_held -= _unit_cache.pop(_unit_order.popleft()).rows
            _unit_cache[key] = got
            _unit_order.append(key)
    return got


def _check_same_field(a: Matrix, b: Matrix) -> None:
    if a.field is not b.field:
        raise ValueError(f"field mismatch: F_{a.field.p} vs F_{b.field.p}")


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product a @ b.  A zero row of a gives the shared zero row, and a
    unit row (one 1, all else 0) gives the row of b that its 1 picks, shared
    and already reduced mod p; every other row takes the dot products.

    A product equal to a factor is that factor: b itself when its rows are
    b's rows in order (a is an identity, say), else a itself when b is
    square and its rows are a's.  Otherwise an all-zero product is the
    shared Matrix.zeros.  Rows compare by value, the same row object
    matching at once, so factors built by the public constructor are
    reused too."""
    _check_same_field(a, b)
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch in mat_mul: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    p, n = a.field.p, a.cols
    mul = operator.mul
    bent = b.entries
    zero = _unit_row(b.cols, -1)
    bt = None
    ent = []
    for row in a.entries:
        nz = n - row.count(0)
        if nz == 0:
            ent.append(zero)
        elif nz == 1 and 1 in row:
            ent.append(bent[row.index(1)])
        else:
            if bt is None:
                bt = tuple(zip(*bent)) if bent else ((),) * b.cols
            ent.append(tuple(sum(map(mul, row, col)) % p for col in bt))
    # tuple equality checks the lengths, so equal rows mean equal shapes
    ent = tuple(ent)
    if ent == bent:
        return b
    if b.rows == b.cols and ent == a.entries:
        return a
    if ent.count(zero) == a.rows:
        return _units(a.field, b.cols, (-1,) * a.rows)
    return Matrix._trusted(a.field, a.rows, b.cols, ent)


def mat_scale(c: int, a: Matrix) -> Matrix:
    p = a.field.p
    c %= p
    return Matrix._trusted(a.field, a.rows, a.cols,
                           tuple(tuple((c * x) % p for x in row) for row in a.entries))


def _subtract(p: int, row: dict, f: int, other: dict) -> None:
    """row -= f * other over F_p, in place, keeping only nonzero entries."""
    for col, x in other.items():
        v = (row.get(col, 0) - f * x) % p
        if v:
            row[col] = v
        else:
            del row[col]


def _rref(p: int, rows: Iterable[dict]) -> dict:
    """Reduced row echelon form over F_p of rows given as dicts of their
    nonzero entries, reduced mod p, keyed by columns that order as the
    columns of the dense rows do.  Each row is reduced, in place, until its
    leading column is no pivot's, and becomes a pivot row; then each pivot
    row is cleared at the later pivot columns.  Returns the pivot rows keyed
    by their leading column, each 1 there and 0 at every other pivot column."""
    pivots: dict = {}
    for row in rows:
        lead = min(row, default=None)
        while lead in pivots:
            _subtract(p, row, row[lead], pivots[lead])
            lead = min(row, default=None)
        if row:
            inv = pow(row[lead], -1, p)
            pivots[lead] = row if inv == 1 else {col: x * inv % p for col, x in row.items()}
    # the last pivot row is reduced, and each row cleared against reduced
    # rows only gains entries at columns that are no pivot's
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for col in [col for col in row if col != c and col in pivots]:
            _subtract(p, row, row[col], pivots[col])
    return pivots


def _sparse(row: Sequence[int]) -> dict:
    return {j: x for j, x in enumerate(row) if x}


def mat_rank(a: Matrix) -> int:
    return len(_rref(a.field.p, map(_sparse, a.entries)))


def mat_inverse(a: Matrix) -> Matrix:
    """The inverse of a, read off the reduced rows of [a | 1]; a pivot in
    the right half means a is singular."""
    if a.rows != a.cols:
        raise ValueError(f"cannot invert non-square {a.rows}x{a.cols} matrix")
    n = a.rows
    pivots = _rref(a.field.p, ({**_sparse(row), n + i: 1} for i, row in enumerate(a.entries)))
    if any(c >= n for c in pivots):
        raise ValueError("matrix is singular")
    return Matrix._trusted(a.field, n, n, tuple(tuple(pivots[i].get(n + j, 0) for j in range(n))
                                                for i in range(n)))


def _eliminate(
    field: FieldSpec,
    shapes: Sequence[tuple[int, int]],
    constraints: Sequence[tuple[Matrix, int, Matrix, int]],
) -> dict:
    """The pivot rows of the equations under mat_solve_homogeneous and
    homogeneous_dimension: entry (i, j) of A @ X_k - X_l @ B for each
    constraint, as a dict row in which entry (i, j) of X_k is column
    (k, i, j)."""
    for (r, c) in shapes:
        if r < 0 or c < 0:
            raise ValueError(f"negative unknown shape {r}x{c}")

    def equations():
        for (a, k, b, l) in constraints:
            if not (0 <= k < len(shapes) and 0 <= l < len(shapes)):
                raise ValueError(f"constraint names X_{k} and X_{l} of {len(shapes)} unknowns")
            rk, ck = shapes[k]
            rl, cl = shapes[l]
            if (a.field, b.field) != (field, field):
                raise ValueError("constraint matrix field does not match the system field")
            if a.cols != rk:
                raise ValueError(f"A is {a.rows}x{a.cols} but X_{k} has {rk} rows")
            if b.rows != cl:
                raise ValueError(f"B is {b.rows}x{b.cols} but X_{l} has {cl} cols")
            if a.rows != rl or b.cols != ck:
                raise ValueError(
                    f"constraint shape mismatch: A@X_{k} is {a.rows}x{ck}, "
                    f"X_{l}@B is {rl}x{b.cols}")
            for i, arow in enumerate(a.entries):
                for j in range(ck):
                    row = {(k, t, j): x for t, x in enumerate(arow) if x}
                    _subtract(field.p, row, 1, {(l, i, t): brow[j]
                                                for t, brow in enumerate(b.entries) if brow[j]})
                    yield row

    return _rref(field.p, equations())


def homogeneous_dimension(
    field: FieldSpec,
    shapes: Sequence[tuple[int, int]],
    constraints: Sequence[tuple[Matrix, int, Matrix, int]],
) -> int:
    """The dimension of mat_solve_homogeneous's solution space, without
    building a basis: the number of unknown entries less the rank."""
    pivots = _eliminate(field, shapes, constraints)
    return sum(starmap(operator.mul, shapes)) - len(pivots)


def mat_solve_homogeneous(
    field: FieldSpec,
    shapes: Sequence[tuple[int, int]],
    constraints: Sequence[tuple[Matrix, int, Matrix, int]],
) -> tuple[int, list[tuple[Matrix, ...]]]:
    """Solve a homogeneous linear system over a family of unknown matrices.

    shapes[k] = (rows, cols) of unknown X_k.  Each constraint (A, k, B, l)
    imposes A @ X_k == X_l @ B entrywise.  Returns the solution space
    dimension and a basis, each basis vector a tuple of concrete matrices:
    one per free unknown entry, 1 there, 0 at the other free entries and
    solved at the pivots.

    With no constraints the answer is the full product space and the basis is
    the standard one (one matrix entry set to 1 at a time).
    """
    pivots = _eliminate(field, shapes, constraints)
    free = [(k, i, j) for k, (r, c) in enumerate(shapes)
            for i in range(r) for j in range(c) if (k, i, j) not in pivots]
    basis: list[tuple[Matrix, ...]] = []
    for fv in free:
        vec = {pc: -row.get(fv, 0) % field.p for pc, row in pivots.items()}
        vec[fv] = 1
        basis.append(tuple(
            Matrix._trusted(field, r, c, tuple(tuple(vec.get((k, i, j), 0) for j in range(c))
                                               for i in range(r)))
            for k, (r, c) in enumerate(shapes)))
    return len(free), basis
