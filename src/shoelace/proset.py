"""Finite preordered sets, translations, and the shoelace construction.

A proset here is reflexive and transitive but not required to be
antisymmetric, so distinct elements may be related both ways.  Elements are
the integers 0..n-1 with optional display labels.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress, repeat
from operator import or_
from typing import Iterable, Optional, Sequence

from .exactlin import Value, _fill, check_ints


# bit rows to and from bytes of 0 and 1, one per element, at C speed
_FLAGS = bytes.maketrans(b"01", b"\0\1")
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _flags(x: int, n: int) -> bytes:
    """Bits 0..n-1 of x, bit j as byte j, 0 or 1."""
    return f"{x:0{n}b}"[::-1].encode().translate(_FLAGS)


def _members(x: int, n: int) -> list[int]:
    """The set bits of x below n, lowest first."""
    return list(compress(range(n), _flags(x, n)))


def _row(flags: Sequence) -> int:
    """A non-empty row of truth values as an int, flags[j] at bit j."""
    return int(bytes(map(bool, reversed(flags))).translate(_DIGITS), 2)


class Proset(Value):
    """Finite proset stored as bit rows: up[i] has bit j set when i <= j, and
    down[j], derived on first use, has bit i set then.  The constructor takes
    an n x n table of truth values, as documents write it.  Equality compares
    (n, up, labels) only, so prosets with the same relation and labels are
    interchangeable.  Valid by construction: the constructor raises on
    validate_proset's report."""

    __slots__ = ("n", "up", "labels", "_down", "_pairs", "_edges", "_covers")

    def __init__(self, n: int, rel: Sequence[Sequence[bool]],
                 labels: Optional[Sequence[str]] = None):
        labels = _labels(n, labels)
        table = tuple(map(tuple, rel))
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError(f"relation table is not {n}x{n}")
        _fill(self, n, tuple(map(_row, table)), labels, cls=Proset)
        err = validate_proset(self)
        if err is not None:
            raise ValueError(f"invalid proset: {err}")

    @classmethod
    def _trusted(cls, n: int, up: tuple[int, ...], labels: Optional[Sequence[str]]):
        """Skip validate_proset: up must be n bit rows of a proset."""
        return _fill(object.__new__(cls), n, up, _labels(n, labels), cls=Proset)

    def label(self, i: int) -> str:
        if self.labels is None:
            return str(i)
        return self.labels[i]

    def leq(self, i: int, j: int) -> bool:
        """Whether i <= j."""
        return self.up[i] >> j & 1 == 1

    @property
    def down(self) -> tuple[int, ...]:
        """down[j] has bit i set when i <= j: the columns of up."""
        if self._down is None:
            cols = zip(*(_flags(u, self.n) for u in self.up))
            object.__setattr__(self, "_down", tuple(map(_row, cols)))
        return self._down

    @property
    def related_pairs(self) -> tuple[tuple[int, int], ...]:
        """All ordered pairs (i, j) with i <= j, including every (i, i)."""
        if self._pairs is None:
            pairs = tuple((i, j) for i, u in enumerate(self.up)
                          for j in _members(u, self.n))
            object.__setattr__(self, "_pairs", pairs)
        return self._pairs

    @property
    def generating_edges(self) -> tuple[tuple[int, int], ...]:
        """The pairs (j, k), j != k, j <= k, that generate the relation.

        (j, k) is generating when also k <= j (one iso class), or when no
        element lies strictly between the classes of j and k in the quotient
        order.  Every related pair is a path of generating edges, so
        proset_from_pairs(n, generating_edges) reproduces the relation.
        """
        if self._edges is None:
            n, up, down = self.n, self.up, self.down
            # above[j]: elements strictly above the class of j
            above = [u & ~d for u, d in zip(up, down)]
            edges = []
            for j in range(n):
                beyond = reduce(or_, map(above.__getitem__, _members(above[j], n)), 0)
                gen = (up[j] & down[j] & ~(1 << j)) | (above[j] & ~beyond)
                edges.extend(zip(repeat(j), _members(gen, n)))
            object.__setattr__(self, "_edges", tuple(edges))
        return self._edges

    def path_step(self, i: int, k: int) -> int:
        """The element before k on the fixed path of generating edges from i
        to k, for k strictly above the class of i: the first j >= i whose
        class k's class covers.  Steps go strictly down until they reach
        the class of i, each element of which is one edge from i."""
        if self._covers is None:
            covers: list[list[int]] = [[] for _ in range(self.n)]
            for (a, b) in self.generating_edges:
                if not self.leq(b, a):
                    covers[b].append(a)
            # a tuple, as carriers are shared and nothing mutable may hang off them
            object.__setattr__(self, "_covers", tuple(map(tuple, covers)))
        up_i = self.up[i]
        for j in self._covers[k]:
            if up_i >> j & 1:
                return j
        raise ValueError(f"{self.label(k)} is not strictly above {self.label(i)}")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Proset):
            return NotImplemented
        return (self.n == other.n and self.up == other.up
                and self.labels == other.labels)

    def __hash__(self) -> int:
        return hash((self.n, self.up, self.labels))

    def __repr__(self) -> str:
        return f"Proset(n={self.n})"


def _labels(n: int, labels: Optional[Sequence[str]]) -> Optional[tuple[str, ...]]:
    """The frame that no proset skips: n >= 0, and None or n labels."""
    if n < 0:
        raise ValueError(f"negative size {n}")
    out = None if labels is None else tuple(str(x) for x in labels)
    if out is not None and len(out) != n:
        raise ValueError(f"expected {n} labels, got {len(out)}")
    return out


def chain(n: int, labels: Optional[Sequence[str]] = None) -> Proset:
    """The linear order 0 <= 1 <= ... <= n-1."""
    full = (1 << n) - 1
    return Proset._trusted(n, tuple(full >> i << i for i in range(n)), labels)


def proset_from_pairs(n: int, pairs: Iterable[tuple[int, int]],
                      labels: Optional[Sequence[str]] = None) -> Proset:
    """Smallest proset containing the given pairs: reflexive-transitive closure."""
    up = [1 << i for i in range(n)]
    for (i, j) in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"pair ({i}, {j}) out of range for n={n}")
        up[i] |= 1 << j
    for k in range(n):
        bit, row = 1 << k, up[k]
        up = [u | row if u & bit else u for u in up]
    return Proset._trusted(n, tuple(up), labels)


def validate_proset(p: Proset) -> Optional[str]:
    """None if reflexive and transitive, else a report on the first failure in
    index order.  A row is transitive when the rows of the elements above
    add nothing to it, checked once per row, as isomorphic elements share
    one; the first failing pair (i, j) has the least j whose row adds
    something, and the least element it adds is the witness."""
    n, up = p.n, p.up
    for i in range(n):
        if not up[i] >> i & 1:
            return f"not reflexive: {p.label(i)} !<= {p.label(i)}"
    for row in dict.fromkeys(up):
        above = _members(row, n)
        if reduce(or_, map(up.__getitem__, above), row) != row:
            i, j = up.index(row), next(j for j in above if up[j] & ~row)
            bad = up[j] & ~row
            k = (bad & -bad).bit_length() - 1
            return (f"not transitive: {p.label(i)} <= {p.label(j)} <= "
                    f"{p.label(k)} but {p.label(i)} !<= {p.label(k)}")
    return None


class Translation(Value):
    """An inflationary monotone self-map of a proset.

    The constructor takes mapping entries that are ints, and no bools:
    anything else raises TypeError rather than being converted.
    Valid by construction: the constructor raises on validate_translation's
    report.  A translation holds its shoelace carrier, built by the first
    shoelace(base, t) call and shared by every later one, so the carrier
    lives exactly as long as the translation.
    """

    __slots__ = ("base", "mapping", "_carrier")

    def __init__(self, base: Proset, mapping: Sequence[int]):
        m = tuple(mapping)
        check_ints(m, "mapping entries")
        if len(m) != base.n:
            raise ValueError(f"expected {base.n} mapping entries, got {len(m)}")
        if any(not (0 <= x < base.n) for x in m):
            raise ValueError("mapping entry out of range")
        _fill(self, base, m)
        err = validate_translation(self)
        if err is not None:
            raise ValueError(f"invalid translation: {err}")

    @classmethod
    def _trusted(cls, base: Proset, mapping: tuple[int, ...]) -> "Translation":
        """Wrap a tuple of base.n points, inflationary and monotone, unchecked."""
        return _fill(object.__new__(cls), base, mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def __repr__(self) -> str:
        return f"Translation({self.mapping})"


def identity_translation(p: Proset) -> Translation:
    return Translation._trusted(p, tuple(range(p.n)))


def validate_translation(t: Translation) -> Optional[str]:
    """None if inflationary and monotone, else a report on the first failure
    in index order.  kept[a] is the bit row of the j with a <= image of j,
    so a related pair (i, j) first fails at the lowest bit of
    up[i] & ~kept[image of i]."""
    p, m = t.base, t.mapping
    n, up = p.n, p.up
    for i in range(n):
        if not up[i] >> m[i] & 1:
            return (f"not inflationary: {p.label(i)} !<= "
                    f"{p.label(m[i])} = image of {p.label(i)}")
    kept: dict[int, int] = {}
    for i in range(n):
        a = m[i]
        if a not in kept:
            kept[a] = _row(bytes(map(_flags(up[a], n).__getitem__, m)))
        if bad := up[i] & ~kept[a]:
            j = (bad & -bad).bit_length() - 1
            return (f"not monotone: {p.label(i)} <= {p.label(j)} but "
                    f"{p.label(a)} !<= {p.label(m[j])}")
    return None


def compose_translations(a: Translation, b: Translation) -> Translation:
    """a after b: i |-> a(b(i))."""
    if a.base != b.base:
        raise ValueError("translations live on different prosets")
    return Translation._trusted(a.base, tuple(a.mapping[k] for k in b.mapping))


def power_translation(t: Translation, k: int) -> Translation:
    if k < 0:
        raise ValueError(f"negative power {k}")
    out = identity_translation(t.base)
    for _ in range(k):
        out = compose_translations(t, out)
    return out


def compare_translations(a: Translation, b: Translation) -> str:
    """Pointwise comparison in the base relation.

    Returns "equal", "leq" (a <= b strictly one-way), "geq", or
    "incomparable".  "equal" means both directions hold pointwise, which on a
    proset with 2-cycles is weaker than mapping equality.
    """
    if a.base != b.base:
        raise ValueError("translations live on different prosets")
    ab = all(map(a.base.leq, a.mapping, b.mapping))
    ba = all(map(a.base.leq, b.mapping, a.mapping))
    if ab and ba:
        return "equal"
    if ab:
        return "leq"
    if ba:
        return "geq"
    return "incomparable"


class ShoelaceProset(Proset):
    """Doubled proset carrying an interleaving as a single representation.

    Elements 0..n-1 are the plain copy of the base, n..2n-1 the primed copy.
    Cross relations both ways between i and j' hold exactly when
    lam(i) <= j in the base.

    Equality between two ShoelaceProsets compares base and translation as
    well as the relation: over a non-antisymmetric base, distinct
    translations can induce identical relations, and pack/unpack needs the
    translation.  Comparison against a plain Proset falls back to
    relation equality.  laced builds every carrier, unchecked.  The public
    constructor checks the layout: 2 * base.n points, lam on base, base's
    relation on each copy, and cross blocks that agree.
    """

    __slots__ = ("base", "lam")

    def __init__(self, n: int, rel: Sequence[Sequence[bool]],
                 labels: Optional[Sequence[str]], base: Proset, lam: Translation):
        super().__init__(n, rel, labels)
        b, up, low = base.n, self.up, (1 << base.n) - 1
        # rows i and b + i: base's row in their own copy, one cross row
        if n != 2 * b or lam.base != base or any(
                (u & low, v >> b, u >> b) != (w, w, v & low)
                for u, v, w in zip(up, up[b:], base.up)):
            raise ValueError("relation is not a shoelace layout over the base")
        _fill(self, base, lam)

    def origin(self, k: int) -> tuple[int, bool]:
        """Base element and primed flag for a carrier element."""
        n = self.base.n
        if k < n:
            return (k, False)
        return (k - n, True)

    def __eq__(self, other) -> bool:
        if isinstance(other, ShoelaceProset):
            return (Proset.__eq__(self, other) is True
                    and self.base == other.base
                    and self.lam.mapping == other.lam.mapping)
        if isinstance(other, Proset):
            return Proset.__eq__(self, other)
        return NotImplemented

    __hash__ = Proset.__hash__

    def __repr__(self) -> str:
        return f"ShoelaceProset(base_n={self.base.n}, lam={self.lam.mapping})"


def shoelace(p: Proset, lam: Translation) -> ShoelaceProset:
    """Disjoint union of two copies of p laced together by lam.

    Within each copy the relation is p's own.  Between copies, i <= j' and
    i' <= j both hold exactly when lam(i) <= j.  A translation is valid by
    construction, so the result is a proset; only lam's base is checked.
    The first call stores the carrier on lam, and later calls return it.
    """
    if lam.base != p:
        raise ValueError("translation is not defined on this proset")
    if lam._carrier is None:
        object.__setattr__(lam, "_carrier",
                           laced(p, lam, [p.up[k] for k in lam.mapping]))
    return lam._carrier


def laced(p: Proset, lam: Translation, cross: Sequence[int]) -> ShoelaceProset:
    """The layout of every shoelace carrier: plain copy 0..n-1 and primed
    copy n..2n-1 of p, each with p's relation, and i <= j' and i' <= j both
    exactly when bit j of cross[i] is set: bit rows by a rule that gives a
    proset, unchecked."""
    n = p.n
    up = tuple(u | c << n for u, c in zip(p.up, cross)) + tuple(
        c | u << n for u, c in zip(p.up, cross))
    labels = tuple(p.label(i) for i in range(n)) + tuple(
        p.label(i) + "'" for i in range(n))
    return _fill(ShoelaceProset._trusted(2 * n, up, labels), p, lam)


def iso_pairs(p: Proset) -> frozenset[frozenset[int]]:
    """Unordered pairs {x, y}, x != y, related both ways.

    Always empty on a poset.  On a shoelace carrier, {i, i'} shows up
    exactly when lam(i) <= i in the base.
    """
    return frozenset(frozenset((x, y)) for x in range(p.n)
                     for y in _members(p.up[x] & p.down[x], p.n) if y > x)


def induced_translation(sh: ShoelaceProset, gamma: Translation,
                        twist: bool = False) -> Translation:
    """Lift a base translation gamma to the shoelace carrier.

    Requires sh to be the full shoelace of its translation lam, and gamma to
    commute with lam as a map.  The plain lift sends i -> gamma(i), i' ->
    gamma(i)'.  The twisted lift (twist=True) swaps copies, i -> gamma(i)',
    i' -> gamma(i), and additionally requires lam <= gamma pointwise, else
    the result would not be inflationary across the lacing.  Either lift is
    then valid.
    """
    lam = sh.lam
    if gamma.base != sh.base:
        raise ValueError("gamma is not a translation of the base proset")
    if shoelace(sh.base, lam) != sh:
        raise ValueError("induced translations live on the full shoelace carrier")
    n = sh.base.n
    for i in range(n):
        if lam.mapping[gamma.mapping[i]] != gamma.mapping[lam.mapping[i]]:
            raise ValueError(
                f"gamma does not commute with the lacing translation at "
                f"{sh.base.label(i)}")
    if twist and compare_translations(lam, gamma) not in ("leq", "equal"):
        raise ValueError("twisted lift needs lam <= gamma pointwise")
    if twist:
        mapping = tuple(n + gamma.mapping[i] for i in range(n)) + tuple(
            gamma.mapping[i] for i in range(n))
    else:
        mapping = tuple(gamma.mapping[i] for i in range(n)) + tuple(
            n + gamma.mapping[i] for i in range(n))
    return Translation._trusted(sh, mapping)


class HeightFunction(Value):
    """A monotone height of a proset, values[i] for element i, each read by
    fractions.Fraction (imported on first use, as nothing else in the package
    needs it).  Valid by construction: it raises on validate_height's report."""

    __slots__ = ("proset", "values")

    def __init__(self, proset: Proset, values: Iterable):
        from fractions import Fraction
        _fill(self, proset, tuple(map(Fraction, values)))
        err = validate_height(self)
        if err is not None:
            raise ValueError(f"invalid height: {err}")


def validate_height(h: HeightFunction) -> Optional[str]:
    p = h.proset
    if len(h.values) != p.n:
        return f"expected {p.n} heights, got {len(h.values)}"
    for (i, j) in p.related_pairs:
        if h.values[i] > h.values[j]:
            return (f"not monotone: {p.label(i)} <= {p.label(j)} but "
                    f"height {h.values[i]} > {h.values[j]}")
    return None
