"""Representations of finite prosets and natural transformations between them.

A representation is fixed by its maps on the generating edges of its proset
(Proset.generating_edges), so it stores those alone, as a tuple aligned with
the edges.  Of the other related pairs, a diagonal is the identity and any
other pair is the product along one fixed path of generating edges
(Proset.path_step), built on first use and memoised.
validate_representation checks that the edge maps do not depend on the path.

Every module that zed builds for a certificate or a matching is a sum of
indicator modules of convex supports.  indicator_sum writes such a sum
directly and keeps the summands' positions on it, so each of its maps,
on an edge or not, is read off the supports (_support_map) as a 0/1
matrix from exactlin._units, the one cached builder of unit and zero
rows, with no path product.  direct_sum copies general parts into dense
blocks.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping
from itertools import compress
from typing import Optional, Sequence

from .exactlin import FieldSpec, Matrix, Value, _fill, _units, mat_mul
from .proset import Proset, ShoelaceProset, Translation, chain


class Representation(Value):
    """Functor from a proset to finite-dimensional F_p vector spaces.

    dims[i] is the dimension at element i.  edges[e] is the dims[k] x
    dims[j] matrix of the structure map on the generating edge (j, k) =
    proset.generating_edges[e], and map(i, k) gives that of any related
    pair.  The constructor takes maps keyed by related pairs, which must
    include every generating edge and keep the map-frame rule
    (_check_frame), and keeps the edges.  Valid by construction: after
    those frame checks the constructor raises ValueError on the report of
    validate_representation, its one check of the edges, and on a given
    map off the edges that map(i, k) contradicts.  The private slots take
    no part in equality or hash: _known memoises map, _pos holds an
    indicator sum's positions, and _origin is precompose's record (m, lam)
    on the module it builds.
    """

    __slots__ = ("proset", "field", "dims", "edges", "_known", "_pos", "_origin")

    def __init__(self, proset: Proset, field: FieldSpec,
                 dims: Sequence[int], maps: Mapping[tuple[int, int], Matrix]):
        d = _checked_dims(proset, dims)
        n = proset.n
        extra = sorted((i, j) for (i, j) in maps
                       if not (0 <= i < n and 0 <= j < n and proset.leq(i, j)))
        missing = [e for e in proset.generating_edges if e not in maps]
        if missing or extra:
            raise ValueError(
                f"maps must cover every generating edge and only related "
                f"pairs; missing {missing[:4]}, unexpected {extra[:4]}")
        for (i, j), m in maps.items():
            _check_frame(m, field, d[j], d[i], f"map at ({i}, {j})")
        _fill(self, proset, field, d,
              tuple(map(maps.__getitem__, proset.generating_edges)))
        err = validate_representation(self)
        if err is None:
            # a map with a zero-dimensional end is the one its shape allows
            lab = proset.label
            for (i, k), m in maps.items():
                if d[i] and d[k] and m != self.map(i, k):
                    err = (f"map at ({lab(i)}, {lab(i)}) is not the identity"
                           if i == k else
                           f"composition fails over {lab(i)} <= "
                           f"{lab(proset.path_step(i, k))} <= {lab(k)}")
                    break
        if err is not None:
            raise ValueError(f"invalid representation: {err}")

    @classmethod
    def _trusted(cls, proset: Proset, field: FieldSpec, dims: tuple[int, ...],
                 edges: tuple[Matrix, ...]) -> "Representation":
        """Wrap edge maps valid by construction, skipping the public checks:
        dims a tuple of proset.n ints >= 0, edges a tuple aligned with
        proset.generating_edges, each over field and dims[k] x dims[j] on
        its edge (j, k), and functorial.  For builders that derive a module
        from valid ones."""
        return _fill(object.__new__(cls), proset, field, dims, edges)

    def map(self, i: int, k: int) -> Matrix:
        """The dims[k] x dims[i] matrix of the structure map i <= k: its
        edge map, the identity on the diagonal, and otherwise, for a sum
        written by indicator_sum, the 0/1 matrix read off its supports
        (_support_map), and for any other module the product along the
        fixed path of generating edges (Proset.path_step).  Memoised.
        KeyError when i <= k does not hold."""
        known = self._known
        if known is None:
            known = dict(zip(self.proset.generating_edges, self.edges))
            object.__setattr__(self, "_known", known)
        got = known.get((i, k))
        if got is not None:
            return got
        p = self.proset
        # a bit row has no bit at or above n
        if not (0 <= i < p.n and 0 <= k and p.leq(i, k)):
            raise KeyError((i, k))
        if i == k:
            got = known[(i, k)] = Matrix.identity(self.field, self.dims[i])
            return got
        if self._pos is not None:
            got = known[(i, k)] = _support_map(self.field, self.dims, self._pos, i, k)
            return got
        # a loop, as paths can be as long as the proset; edges are always
        # known, so the walk back stops before it reaches i
        path, x = [], k
        while (i, x) not in known:
            path.append(x)
            x = p.path_step(i, x)
        got = known[(i, x)]
        for y in reversed(path):
            got = known[(i, y)] = mat_mul(known[(x, y)], got)
            x = y
        return got

    def __repr__(self) -> str:
        return f"Representation(p={self.field.p}, dims={self.dims})"


def _checked_dims(proset: Proset, dims: Sequence[int]) -> tuple[int, ...]:
    d = tuple(int(x) for x in dims)
    if len(d) != proset.n:
        raise ValueError(f"expected {proset.n} dims, got {len(d)}")
    if any(x < 0 for x in d):
        raise ValueError("negative dimension")
    return d


def _check_frame(m: Matrix, field: FieldSpec, rows: int, cols: int,
                 where: str) -> None:
    """The map-frame rule: a given map is over field and rows x cols; else
    ValueError, its report led by where."""
    if m.field is not field:
        raise ValueError(f"{where} is over F_{m.field.p}, not F_{field.p}")
    if (m.rows, m.cols) != (rows, cols):
        raise ValueError(
            f"{where} has shape {m.rows}x{m.cols}, expected {rows}x{cols}")


def validate_representation(m: Representation) -> Optional[str]:
    """None if the edge maps are functorial, else a report on the first
    failure.

    Checks F(j,k) F(i,j) = F(i,k) for every related pair i <= j, i != j,
    and generating edge (j, k), except where it holds by definition of
    Representation.map: (i, k) is not an edge and j is the step before k on
    its path from i.  So only edges off the paths cost a product; a chain
    has none.  The equations suffice, by induction on the number of classes
    strictly between j and k: if j <= k is not an edge, some m lies
    strictly between them, both (j, m) and (m, k) have fewer classes between
    them, and so F(j,k) F(i,j) = F(m,k) F(j,m) F(i,j) = F(m,k) F(i,m)
    = F(i,k).
    """
    p = m.proset
    dims = m.dims
    edge = set(p.generating_edges)
    # equations with a zero-dimensional end are vacuous: both sides are the
    # unique empty-shaped matrix
    edges_from: list[list[tuple[int, Matrix]]] = [[] for _ in range(p.n)]
    for (j, k), f in zip(p.generating_edges, m.edges):
        if dims[k] != 0:
            edges_from[j].append((k, f))
    for (i, j) in p.related_pairs:
        if i == j or dims[i] == 0:
            continue
        for k, f in edges_from[j]:
            if k != i and (i, k) not in edge and p.path_step(i, k) == j:
                continue
            if mat_mul(f, m.map(i, j)) != m.map(i, k):
                return (f"composition fails over {p.label(i)} <= {p.label(j)}"
                        f" <= {p.label(k)}")
    return None


def zero_representation(proset: Proset, field: FieldSpec) -> Representation:
    return indicator_sum(proset, (), field)[0]


def indicator_module(proset: Proset, support: Collection[int],
                     field: FieldSpec) -> Representation:
    """Dimension 1 on support, the 1x1 identity on the generating edges
    inside it, zero elsewhere; functorial when support is convex."""
    return indicator_sum(proset, (support,), field)[0]


def indicator_sum(proset: Proset, supports: Sequence[Collection[int]],
                  field: FieldSpec) -> tuple[Representation, list[list[int]]]:
    """Direct sum, in order, of the indicator modules of supports, written
    directly: no per-summand module and no dense block.

    Returns (total, positions) where positions[x][k] is the row of summand
    k at point x, or -1 where x lies outside its support.  The total keeps
    its own copy of the positions, so changing the returned lists leaves
    it unchanged.  Each of its maps, on a generating edge or any other
    related pair, is _support_map's shared exactlin._units matrix, so maps
    with the same rows, in this sum or an earlier one, share one matrix.
    The sum is functorial when every support is convex, and built through
    Representation._trusted, as its shapes hold by construction.
    """
    n = proset.n
    alive: list[list[int]] = [[] for _ in range(n)]
    positions = [[-1] * len(supports) for _ in range(n)]
    for k, support in enumerate(supports):
        for x in support:
            if not 0 <= x < n:
                raise ValueError(f"support {k} holds {x!r}, not a point of "
                                 f"a proset of size {n}")
            if positions[x][k] < 0:
                positions[x][k] = len(alive[x])
                alive[x].append(k)
    dims = tuple(map(len, alive))
    pos = tuple(map(tuple, positions))
    edges = tuple(_support_map(field, dims, pos, a, b) for (a, b) in proset.generating_edges)
    total = Representation._trusted(proset, field, dims, edges)
    object.__setattr__(total, "_pos", pos)
    return total, positions


def _support_map(field: FieldSpec, dims: tuple[int, ...],
                 pos: tuple[tuple[int, ...], ...], i: int, k: int) -> Matrix:
    """The map i <= k of an indicator sum with positions pos (indicator_sum):
    the row at k of each summand alive there, in summand order, is the unit
    row at its position at i, or the zero row where it is not alive at i.
    Within a convex support every map is the identity, so this is the
    product along any path."""
    return _units(field, dims[i], tuple(compress(pos[i], map((-1).__lt__, pos[k]))))


def chain_representation(proset: Proset, field: FieldSpec,
                         dims: Sequence[int],
                         steps: Sequence[Matrix]) -> Representation:
    """Build a representation of a total chain from its consecutive maps.

    steps[i] sends dims[i] to dims[i + 1].  After checks that raise
    ValueError, the steps are the generating maps, so the result is
    functorial by construction and built through Representation._trusted.
    """
    n = proset.n
    if proset.up != chain(n).up:
        raise ValueError("proset is not a total chain in index order")
    d = _checked_dims(proset, dims)
    if len(steps) != max(n - 1, 0):
        raise ValueError(f"expected {n - 1} step maps, got {len(steps)}")
    for i, s in enumerate(steps):
        _check_frame(s, field, d[i + 1], d[i], f"map at ({i}, {i + 1})")
    return Representation._trusted(proset, field, d, tuple(steps))


class NatTrans(Value):
    """Natural transformation: one matrix per element.  Valid by
    construction: after its frame checks, component i keeping the map-frame
    rule (_check_frame) at target.dims[i] x source.dims[i], the constructor
    raises ValueError on the report of validate_nat_trans, its one check."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: Representation, target: Representation,
                 components: Sequence[Matrix]):
        if source.proset != target.proset:
            raise ValueError("source and target live on different prosets")
        if source.field is not target.field:
            raise ValueError("source and target are over different fields")
        comp = tuple(components)
        if len(comp) != source.proset.n:
            raise ValueError(f"expected {source.proset.n} components, got {len(comp)}")
        for i, c in enumerate(comp):
            _check_frame(c, source.field, target.dims[i], source.dims[i],
                         f"component {i}")
        _fill(self, source, target, comp)
        err = validate_nat_trans(self)
        if err is not None:
            raise ValueError(f"invalid nattrans: {err}")

    @classmethod
    def _trusted(cls, source: Representation, target: Representation,
                 components: tuple[Matrix, ...]) -> "NatTrans":
        """Wrap a tuple of components natural by construction, skipping
        the public checks, which they must pass.  For builders that derive
        a transformation from valid ones."""
        return _fill(object.__new__(cls), source, target, components)

    def __repr__(self) -> str:
        return f"NatTrans({[c.rows for c in self.components]}x{[c.cols for c in self.components]})"


def validate_nat_trans(t: NatTrans) -> Optional[str]:
    """None if natural, else a report on the first failing square.

    Source and target are functorial by construction, so the squares of
    the generating edges paste into the square of every related pair.
    """
    p = t.source.proset
    src_dims = t.source.dims
    tgt_dims = t.target.dims
    for (i, j), f, g in zip(p.generating_edges, t.source.edges, t.target.edges):
        # both sides have shape target.dims[j] x source.dims[i]; when either
        # is 0 the equation is vacuous
        if src_dims[i] == 0 or tgt_dims[j] == 0:
            continue
        lhs = mat_mul(g, t.components[i])
        rhs = mat_mul(t.components[j], f)
        if lhs != rhs:
            return (f"naturality fails over {p.label(i)} <= {p.label(j)}")
    return None


def zero_nat(source: Representation, target: Representation) -> NatTrans:
    if source.proset != target.proset or source.field is not target.field:
        raise ValueError("source and target differ in proset or field")
    return NatTrans._trusted(source, target,
                             tuple(Matrix.zeros(source.field, target.dims[i], source.dims[i])
                                   for i in range(source.proset.n)))


def precompose(m: Representation, lam: Translation) -> Representation:
    """The representation M after lam: point i carries M(lam(i)).  Edge
    (i, j) takes M's map at (lam(i), lam(j)), of the shape the new dims ask
    for, so the result is built through Representation._trusted.  It
    records (m, lam) in its _origin slot, which equality ignores: values
    are immutable and this build is deterministic, so a module whose record
    equals (m, lam) equals precompose(m, lam), and the frame check of
    interleave.Interleaving accepts it without building it again."""
    if lam.base != m.proset:
        raise ValueError("translation is not defined on this representation's proset")
    p = m.proset
    dims = tuple(m.dims[lam.mapping[i]] for i in range(p.n))
    lm = lam.mapping
    edges = tuple(m.map(lm[i], lm[j]) for (i, j) in p.generating_edges)
    out = Representation._trusted(p, m.field, dims, edges)
    object.__setattr__(out, "_origin", (m, lam))
    return out


def direct_sum(parts: Sequence[Representation],
               proset: Optional[Proset] = None,
               field: Optional[FieldSpec] = None,
               ) -> tuple[Representation, list[list[tuple[int, int]]]]:
    """Block-diagonal sum of general parts, one dense matrix per generating
    edge.  Returns (total, slices) where slices[k][i] is the (start, stop)
    range of part k inside the total space at element i, built through
    Representation._trusted.  A sum of indicator modules is cheaper through
    indicator_sum.

    proset and field must be given explicitly when parts is empty.
    """
    if parts:
        proset = parts[0].proset if proset is None else proset
        field = parts[0].field if field is None else field
    if proset is None or field is None:
        raise ValueError("empty sum needs an explicit proset and field")
    for k, m in enumerate(parts):
        if m.proset != proset:
            raise ValueError(f"part {k} lives on a different proset")
        if m.field is not field:
            raise ValueError(f"part {k} is over a different field")
    dims = tuple(sum(m.dims[i] for m in parts) for i in range(proset.n))
    slices: list[list[tuple[int, int]]] = []
    offs = [0] * proset.n
    for m in parts:
        row = []
        for i in range(proset.n):
            row.append((offs[i], offs[i] + m.dims[i]))
            offs[i] += m.dims[i]
        slices.append(row)
    edges = []
    for e, (i, j) in enumerate(proset.generating_edges):
        ent = [[0] * dims[i] for _ in range(dims[j])]
        for k, m in enumerate(parts):
            (ri, _), (rj, _) = slices[k][i], slices[k][j]
            block = m.edges[e]
            for r in range(block.rows):
                ent[rj + r][ri:ri + block.cols] = block.entries[r]
        edges.append(Matrix._trusted(field, dims[j], dims[i],
                                     tuple(map(tuple, ent))))
    return Representation._trusted(proset, field, dims, tuple(edges)), slices


def permutation_iso(parts: Sequence[Representation], order: Sequence[int],
                    proset: Optional[Proset] = None,
                    field: Optional[FieldSpec] = None) -> NatTrans:
    """Iso from sum(parts) to sum(parts reordered by order), built
    through NatTrans._trusted.

    order[k] names which original part lands in output slot k; each
    target row is the unit row of the source row it copies.
    """
    if sorted(order) != list(range(len(parts))):
        raise ValueError(f"order {order} is not a permutation of 0..{len(parts) - 1}")
    src, src_slices = direct_sum(parts, proset=proset, field=field)
    tgt, _ = direct_sum([parts[k] for k in order], proset=src.proset, field=src.field)
    return NatTrans._trusted(src, tgt, tuple(
        _units(src.field, src.dims[i],
               tuple(c for k in order for c in range(*src_slices[k][i])))
        for i in range(src.proset.n)))


def restrict(m: Representation, side: str) -> Representation:
    """Restrict a shoelace-carrier representation to one copy of the base.

    side is "left" for the plain copy, "right" for the primed copy.  Each
    copy carries the base's relation, so this is built through _trusted.
    """
    sh = m.proset
    if not isinstance(sh, ShoelaceProset):
        raise ValueError("restrict needs a representation on a shoelace carrier")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    base = sh.base
    off = 0 if side == "left" else base.n
    dims = tuple(m.dims[off + i] for i in range(base.n))
    edges = tuple(m.map(off + i, off + j) for (i, j) in base.generating_edges)
    return Representation._trusted(base, m.field, dims, edges)


def subrelation_transfer(m: Representation, q: Proset) -> Representation:
    """Move m to a coarser proset q whose relation is contained in m's.

    Keeps the maps of pairs that survive; drops the rest.  Functoriality is
    inherited (every q-composite is an m-composite), so this uses _trusted.
    """
    p = m.proset
    if q.n != p.n:
        raise ValueError(f"size mismatch: {q.n} vs {p.n}")
    for (i, j) in q.related_pairs:
        if not p.leq(i, j):
            raise ValueError(
                f"target relation is not a subrelation: ({i}, {j}) missing")
    edges = tuple(m.map(i, j) for (i, j) in q.generating_edges)
    return Representation._trusted(q, m.field, m.dims, edges)
