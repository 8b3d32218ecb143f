"""Interleavings between two representations, and the shoelace pack/unpack
equivalence that stores an interleaving as a single representation of the
doubled proset.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .exactlin import Matrix, Value, _fill, _units, mat_mul, mat_inverse, mat_scale
from .proset import (
    ShoelaceProset,
    Translation,
    compare_translations,
    compose_translations,
    induced_translation,
    shoelace,
)
from .rep import (
    NatTrans,
    Representation,
    precompose,
    restrict,
    validate_nat_trans,
)


class Interleaving(Value):
    """A translation-indexed pair of comparison maps between M and N.

    phi: M -> N(lam) and psi: N -> M(lam).  Valid by construction: after
    the frame checks (shared proset and field, nat trans endpoints) the
    constructor raises ValueError on the report of _triangles, its one
    check, as phi and psi are natural by construction.  A target that
    precompose built records its origin, so phi.target passes when its
    record equals (n, lam), and psi.target when its record equals (m, lam),
    with no module built; any other target is compared with a fresh
    precompose(n, lam) or precompose(m, lam).
    """

    __slots__ = ("m", "n", "lam", "phi", "psi")

    def __init__(self, m: Representation, n: Representation, lam: Translation,
                 phi: NatTrans, psi: NatTrans):
        if lam.base != m.proset:
            raise ValueError("translation is not defined on M's proset")
        if m.proset != n.proset:
            raise ValueError("M and N live on different prosets")
        if m.field is not n.field:
            raise ValueError("M and N are over different fields")
        if phi.source != m or not _is_after(phi.target, n, lam):
            raise ValueError("phi must map M to N after the translation")
        if psi.source != n or not _is_after(psi.target, m, lam):
            raise ValueError("psi must map N to M after the translation")
        _fill(self, m, n, lam, phi, psi)
        err = _triangles(self)
        if err is not None:
            raise ValueError(f"invalid interleaving: {err}")

    def __repr__(self) -> str:
        return f"Interleaving(lam={self.lam.mapping})"


def _is_after(target: Representation, m: Representation,
              lam: Translation) -> bool:
    """Whether target equals precompose(m, lam): at once when precompose
    recorded (m, lam) on it, compared by equality so that a record whose
    parts are equal copies still counts, else by building it."""
    return target._origin == (m, lam) or target == precompose(m, lam)


def _assemble(m: Representation, n: Representation, lam: Translation,
              phi_components: Sequence[Matrix],
              psi_components: Sequence[Matrix]) -> Interleaving:
    """The one trusted path to an Interleaving, for builders whose output
    is valid by construction: no frame checks and no triangles.  N(lam) and
    M(lam) are built once, through precompose's trusted path, as the
    targets of phi and psi, which are built through NatTrans._trusted."""
    return _fill(object.__new__(Interleaving), m, n, lam,
                 NatTrans._trusted(m, precompose(n, lam), tuple(phi_components)),
                 NatTrans._trusted(n, precompose(m, lam), tuple(psi_components)))


class InterleavingMorphism(Value):
    """A pair of nat transes commuting with the comparison maps of two
    interleavings over the same translation, valid by construction: the
    constructor raises ValueError on validate_interleaving_morphism's report."""

    __slots__ = ("source", "target", "gm", "gn")

    def __init__(self, source: Interleaving, target: Interleaving,
                 gm: NatTrans, gn: NatTrans):
        if source.lam != target.lam:
            raise ValueError("interleavings use different translations")
        if gm.source != source.m or gm.target != target.m:
            raise ValueError("gm must map source M to target M")
        if gn.source != source.n or gn.target != target.n:
            raise ValueError("gn must map source N to target N")
        _fill(self, source, target, gm, gn)
        err = validate_interleaving_morphism(self)
        if err is not None:
            raise ValueError(f"invalid interleaving morphism: {err}")

    @classmethod
    def _trusted(cls, source, target, gm, gn) -> "InterleavingMorphism":
        """Wrap a morphism that passes the public checks, unchecked."""
        return _fill(object.__new__(cls), source, target, gm, gn)


def _triangles(x: Interleaving) -> Optional[str]:
    """None if psi(lam(i)) phi(i) = M(i <= lam(lam(i))) and symmetrically
    for N at every i, else a report on the first failing triangle.  A
    triangle with a zero-dimensional end is vacuous and never fails."""
    p = x.m.proset
    lam = x.lam.mapping
    mdims, ndims = x.m.dims, x.n.dims
    phi, psi = x.phi.components, x.psi.components
    for i in range(p.n):
        j = lam[i]
        k = lam[j]
        # equations with a zero-dimensional end are vacuous: both sides are
        # the unique empty-shaped matrix
        if mdims[i] and mdims[k] and mat_mul(psi[j], phi[i]) != x.m.map(i, k):
            return (f"triangle for M fails at {p.label(i)}")
        if ndims[i] and ndims[k] and mat_mul(phi[j], psi[i]) != x.n.map(i, k):
            return (f"triangle for N fails at {p.label(i)}")
    return None


def validate_interleaving(x: Interleaving) -> Optional[str]:
    """None if phi and psi are natural and both triangle equations hold,
    equations with a zero-dimensional end being vacuous.  Every
    Interleaving passes; this is the one full check, for selftest and
    outside callers."""
    err = validate_nat_trans(x.phi)
    if err is not None:
        return f"phi: {err}"
    err = validate_nat_trans(x.psi)
    if err is not None:
        return f"psi: {err}"
    return _triangles(x)


def validate_interleaving_morphism(g: InterleavingMorphism) -> Optional[str]:
    """None if gm and gn (natural by construction) commute with phi, psi.
    A square with a zero-dimensional end is vacuous and never fails."""
    lam = g.source.lam.mapping
    p = g.source.m.proset
    sm, sn = g.source.m.dims, g.source.n.dims
    tm, tn = g.target.m.dims, g.target.n.dims
    for i in range(p.n):
        # equations with a zero-dimensional end are vacuous: the phi square
        # is tn[lam(i)] x sm[i], the psi square tm[lam(i)] x sn[i]
        if sm[i] and tn[lam[i]]:
            lhs = mat_mul(g.target.phi.components[i], g.gm.components[i])
            rhs = mat_mul(g.gn.components[lam[i]], g.source.phi.components[i])
            if lhs != rhs:
                return f"phi square fails at {p.label(i)}"
        if sn[i] and tm[lam[i]]:
            lhs = mat_mul(g.target.psi.components[i], g.gn.components[i])
            rhs = mat_mul(g.gm.components[lam[i]], g.source.psi.components[i])
            if lhs != rhs:
                return f"psi square fails at {p.label(i)}"
    return None


def pack(x: Interleaving) -> Representation:
    """Encode an interleaving as one representation of the shoelace carrier.

    The plain copy carries M, the primed copy carries N.  A cross map into
    the primed copy factors phi through N's own maps, and symmetrically:

        V(i <= j') = N(lam(i) <= j) . phi(i)
        V(i' <= j) = M(lam(i) <= j) . psi(i)

    An edge with a zero-dimensional end is vacuous: it takes the one
    matrix of its shape, the shared zero of exactlin._units, with no
    lookup and no product.  An interleaving is valid by construction, so
    these maps are functorial (the paper's central result) and nothing is
    checked again.  The carrier is the one shoelace(M's proset, lam) stores
    on lam, and the result is built through Representation._trusted.
    """
    sh = shoelace(x.m.proset, x.lam)
    lam = x.lam.mapping
    field = x.m.field
    dims = tuple(x.m.dims) + tuple(x.n.dims)
    edges = []
    for (a, b) in sh.generating_edges:
        if not (dims[a] and dims[b]):
            edges.append(_units(field, dims[a], (-1,) * dims[b]))
            continue
        (i, ip) = sh.origin(a)
        (j, jp) = sh.origin(b)
        if not ip and not jp:
            edges.append(x.m.map(i, j))
        elif ip and jp:
            edges.append(x.n.map(i, j))
        elif not ip:
            edges.append(mat_mul(x.n.map(lam[i], j), x.phi.components[i]))
        else:
            edges.append(mat_mul(x.m.map(lam[i], j), x.psi.components[i]))
    return Representation._trusted(sh, field, dims, tuple(edges))


def unpack(v: Representation) -> Interleaving:
    """Decode a shoelace-carrier representation back into an interleaving.

    Needs the carrier to relate each plain i to (lam(i))', which holds on a
    full shoelace but can fail on carriers restricted to a subrelation;
    those must be transferred back first.  Built through _assemble.
    """
    sh = v.proset
    if not isinstance(sh, ShoelaceProset):
        raise ValueError("unpack needs a representation on a shoelace carrier")
    n0 = sh.base.n
    lam_map = sh.lam.mapping
    for i in range(n0):
        if not sh.leq(i, n0 + lam_map[i]) or not sh.leq(n0 + i, lam_map[i]):
            raise ValueError(
                f"carrier does not relate {sh.label(i)} across the lacing; "
                f"transfer to the full shoelace relation before unpacking")
    return _assemble(restrict(v, "left"), restrict(v, "right"), sh.lam,
                     [v.map(i, n0 + lam_map[i]) for i in range(n0)],
                     [v.map(n0 + i, lam_map[i]) for i in range(n0)])


def pack_morphism(g: InterleavingMorphism) -> NatTrans:
    """Pack a morphism of interleavings as a nat trans of packed modules, through
    NatTrans._trusted: g's squares commute, so it is natural on cross edges."""
    return NatTrans._trusted(pack(g.source), pack(g.target),
                             g.gm.components + g.gn.components)


def unpack_morphism(t: NatTrans) -> InterleavingMorphism:
    """Unpack a natural t through the trusted paths: its parts are natural."""
    sh = t.source.proset
    if not isinstance(sh, ShoelaceProset):
        raise ValueError("unpack_morphism needs a shoelace carrier")
    n0 = sh.base.n
    src = unpack(t.source)
    tgt = unpack(t.target)
    gm = NatTrans._trusted(src.m, tgt.m, tuple(t.components[:n0]))
    gn = NatTrans._trusted(src.n, tgt.n, tuple(t.components[n0:]))
    return InterleavingMorphism._trusted(src, tgt, gm, gn)


def square_interleave(a: Interleaving, b: Interleaving) -> Interleaving:
    """Two interleavings of the same pair become one interleaving of their
    packed modules, over the twisted lift of the shared translation.

    Phi uses a on the plain copy and b's return map on the primed copy; Psi
    uses b on the plain copy and a's return map on the primed copy.
    """
    if a.m != b.m or a.n != b.n:
        raise ValueError("both interleavings must compare the same M and N")
    if a.lam != b.lam:
        raise ValueError("both interleavings must use the same translation")
    v = pack(a)
    return _assemble(v, pack(b), induced_translation(v.proset, a.lam, twist=True),
                     a.phi.components + b.psi.components,
                     b.phi.components + a.psi.components)


def upgrade_interleaving(x: Interleaving, gamma: Translation) -> Interleaving:
    """Relax an interleaving to a larger translation gamma >= lam by pushing
    each comparison map forward along the target's own maps."""
    if gamma.base != x.lam.base:
        raise ValueError("gamma is not a translation of the same proset")
    if compare_translations(x.lam, gamma) not in ("leq", "equal"):
        raise ValueError("upgrade needs lam <= gamma pointwise")
    lam = x.lam.mapping
    g = gamma.mapping
    return _assemble(
        x.m, x.n, gamma,
        [mat_mul(x.n.map(lam[i], g[i]), c) for i, c in enumerate(x.phi.components)],
        [mat_mul(x.m.map(lam[i], g[i]), c) for i, c in enumerate(x.psi.components)])


def untwist_square(a: Interleaving, b: Interleaving) -> Interleaving:
    """Square two interleavings, then relax from the twisted lift to the
    plain lift of lam^2, which dominates it."""
    sq = square_interleave(a, b)
    sh = sq.m.proset
    lam2 = compose_translations(a.lam, a.lam)
    plain = induced_translation(sh, lam2, twist=False)
    return upgrade_interleaving(sq, plain)


def transport_interleaving(x: Interleaving, um: NatTrans, un: NatTrans) -> Interleaving:
    """Conjugate an interleaving along isos um: M -> M2, un: N -> N2.

    Components of the isos must be invertible.  The conjugate of a valid
    interleaving is valid, so it is built through _assemble.
    """
    if um.source != x.m:
        raise ValueError("um must start at M")
    if un.source != x.n:
        raise ValueError("un must start at N")
    lam = x.lam.mapping
    um_inv = tuple(mat_inverse(c) for c in um.components)
    un_inv = tuple(mat_inverse(c) for c in un.components)
    return _assemble(
        um.target, un.target, x.lam,
        [mat_mul(un.components[lam[i]], mat_mul(c, um_inv[i]))
         for i, c in enumerate(x.phi.components)],
        [mat_mul(um.components[lam[i]], mat_mul(c, un_inv[i]))
         for i, c in enumerate(x.psi.components)])


def scale_interleaving(x: Interleaving, c: int) -> Interleaving:
    """Scale phi by c and psi by the inverse of c, preserving the triangles."""
    f = x.m.field
    cc = c % f.p
    if cc == 0:
        raise ValueError("scale factor must be nonzero in the field")
    inv = f.inv(cc)
    return _assemble(x.m, x.n, x.lam,
                     [mat_scale(cc, t) for t in x.phi.components],
                     [mat_scale(inv, t) for t in x.psi.components])
