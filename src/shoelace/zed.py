"""Integer-window specialization: interval modules, barcodes, epsilon-matchings,
Condition (*), and the correspondence between matchings and decomposed
representations of the windowed shoelace.

The infinite chain of integers is handled through finite windows.  The
uniform translation by eps is clamped at the window top so it stays a valid
translation of the finite chain, but the shoelace cross relation uses the
unclamped rule i + eps <= j, matching the restriction of the full integer
shoelace to the window.  Clamping the cross rule instead would create
isomorphisms i = i' near the boundary that the infinite picture does not
have.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import lru_cache, reduce
from itertools import compress
from typing import Iterable, Optional, Union

from .exactlin import FieldSpec, Value, _fill, _units, check_ints, homogeneous_dimension
from .proset import (
    Proset,
    ShoelaceProset,
    Translation,
    chain,
    laced,
    shoelace,
)
from .rep import (
    NatTrans,
    Representation,
    indicator_module,
    indicator_sum,
    precompose,
)
from .interleave import Interleaving, _assemble


class Ext(Value):
    """Endpoint at the parse and format boundary: an integer, or the
    symbolic -inf / +inf.

    Intervals hold their endpoints plainly (see Interval); Ext turns
    argument and document values into endpoints (of) and endpoints back
    into text (str, to_json).  A finite Ext equals its int and hashes like
    it.
    """

    __slots__ = ("kind", "value")

    def __init__(self, value: int):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"finite Ext needs an int, got {value!r}")
        # not _fill: each endpoint a document is written with builds one
        object.__setattr__(self, "kind", 0)
        object.__setattr__(self, "value", value)

    @classmethod
    def _make_inf(cls, kind: int) -> "Ext":
        return _fill(object.__new__(cls), kind, 0)

    @staticmethod
    def of(x: Union["Ext", int, str]) -> "Ext":
        return x if isinstance(x, Ext) else _ext(_endpoint(x))

    def __eq__(self, other) -> bool:
        if isinstance(other, Ext):
            return self.kind == other.kind and self.value == other.value
        if isinstance(other, int):
            return self.kind == 0 and self.value == other
        return NotImplemented

    def __hash__(self) -> int:
        # a finite Ext equals its int, so it must hash like it
        return hash(self.value) if self.kind == 0 else hash((self.kind, self.value))

    def __str__(self) -> str:
        if self.kind < 0:
            return "-inf"
        if self.kind > 0:
            return "+inf"
        return str(self.value)

    def __repr__(self) -> str:
        return f"Ext({self})"

    def to_json(self) -> Union[int, str]:
        return self.value if self.kind == 0 else str(self)


NEG_INF = Ext._make_inf(-1)
POS_INF = Ext._make_inf(1)

Endpoint = Union[int, float]


def _ext(e: Endpoint) -> Ext:
    """The Ext of a plain endpoint, for messages and documents."""
    return NEG_INF if e == -math.inf else POS_INF if e == math.inf else Ext(e)


def _endpoint(x: Union[Ext, int, str]) -> Endpoint:
    """The plain endpoint of an argument or document value: an int (not a
    bool), "-inf", "+inf" or an Ext; anything else is a ValueError.  The
    one parse rule of endpoints, which Interval and Ext.of share."""
    if type(x) is int:
        return x
    if isinstance(x, Ext):
        return x.value if x.kind == 0 else x.kind * math.inf
    if x in ("-inf", "+inf"):
        return -math.inf if x == "-inf" else math.inf
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    # the type tells a JSON -Infinity or 1.0 apart from "-inf" or 1
    raise ValueError(f"not an extended integer: {x!r} ({type(x).__name__})")


def _lowered(e: Endpoint, eps: int) -> Endpoint:
    """e - eps, an infinite e staying as it is: math.inf - eps would turn
    eps into a float, which overflows from 2**1024 on."""
    return e - eps if -math.inf < e < math.inf else e


def _check_epsilon(eps) -> None:
    """The eps rule: eps is a nonnegative int, not a bool; else ValueError.
    Every public entry point that takes eps runs it before eps meets any
    arithmetic or cache."""
    if not isinstance(eps, int) or isinstance(eps, bool) or eps < 0:
        raise ValueError(f"epsilon must be a nonnegative integer, got {eps!r}")


def endpoint_distance(a: Endpoint, b: Endpoint) -> Endpoint:
    """|a - b| on plain endpoints, with |+-inf - (+-inf)| = 0 and math.inf
    whenever exactly one side is infinite or they are opposite infinities.
    An int never meets an infinity in arithmetic, which would turn it into a
    float and overflow beyond float range."""
    if a == b:
        return 0
    if a in (-math.inf, math.inf) or b in (-math.inf, math.inf):
        return math.inf
    return abs(a - b)


class Interval(Value):
    """Closed integer interval, possibly unbounded on either side.

    The four shapes are [x,y], (-inf,y], [x,+inf), and (-inf,+inf); finite
    endpoints are always closed.  The one slot ends = (lo, hi) holds the
    endpoints plainly: ints, with -math.inf and math.inf for the infinite
    ends.  An int compares with a float exactly and math.inf - eps is
    math.inf, so ordering (ends is the sort key), shifting and the overlap
    tests are plain expressions.  Interval(lo, hi) parses each end by
    _endpoint, so no float comes in from outside, and refuses a finite end
    beyond +-MAX_ENDPOINT; lo and hi give the ends back as Ext.  Equality
    and hash are its own, as they are hot.
    """

    __slots__ = ("ends",)

    def __init__(self, lo: Union[Ext, int, str], hi: Union[Ext, int, str]):
        lo, hi = _endpoint(lo), _endpoint(hi)
        if lo == math.inf:
            raise ValueError("interval cannot start at +inf")
        if hi == -math.inf:
            raise ValueError("interval cannot end at -inf")
        if hi < lo:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        if any(MAX_ENDPOINT < abs(e) < math.inf for e in (lo, hi)):
            raise ValueError("an endpoint lies beyond the limit of +-10**300")
        object.__setattr__(self, "ends", (lo, hi))

    @classmethod
    def _trusted(cls, lo: Endpoint, hi: Endpoint) -> "Interval":
        """An interval on plain ends known to satisfy the constructor's
        rules."""
        out = object.__new__(cls)
        object.__setattr__(out, "ends", (lo, hi))
        return out

    @property
    def lo(self) -> Ext:
        return _ext(self.ends[0])

    @property
    def hi(self) -> Ext:
        return _ext(self.ends[1])

    def length(self) -> Endpoint:
        return endpoint_distance(*self.ends)

    def is_short(self, eps: int) -> bool:
        """length() < 2*eps; a bar with an infinite endpoint is never short."""
        lo, hi = self.ends
        return -math.inf < lo and hi < math.inf and hi - lo < 2 * eps

    def contains(self, v: int) -> bool:
        lo, hi = self.ends
        return lo <= v <= hi

    def shifted(self, eps: int) -> "Interval":
        """Both endpoints lowered by eps; infinite endpoints stay put."""
        lo, hi = self.ends
        return Interval._trusted(_lowered(lo, eps), _lowered(hi, eps))

    def finite_endpoints(self) -> tuple[int, ...]:
        return tuple(e for e in self.ends if -math.inf < e < math.inf)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return self.ends == other.ends

    def __hash__(self) -> int:
        return hash(self.ends)

    def __str__(self) -> str:
        lo, hi = self.ends
        left = "(-inf" if lo == -math.inf else f"[{lo}"
        right = "+inf)" if hi == math.inf else f"{hi}]"
        return f"{left},{right}"

    def __repr__(self) -> str:
        return f"Interval({self})"


class Barcode(Value):
    """Multiset of intervals, stored in canonical sorted order."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[Interval]):
        items = tuple(intervals)
        for i in items:
            if not isinstance(i, Interval):
                raise ValueError(f"not an interval: {i!r}")
        items = tuple(sorted(items, key=lambda i: i.ends))
        _fill(self, items)

    def counts(self) -> Counter:
        return Counter(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    def __repr__(self) -> str:
        return f"Barcode({', '.join(str(i) for i in self.intervals)})"


MAX_WINDOW_POINTS = 1024
# Bound on finite endpoints and window values.  An int meeting math.inf in
# arithmetic is converted to float, which raises OverflowError from 2**1024.
MAX_ENDPOINT = 10 ** 300
# Limits the document loaders check before they build anything: the
# dimension at one point (each step of the barcode sweep costs its cube)
# and the bars of one barcode with multiplicity (a count costs no bytes).
MAX_POINT_DIM = 256
MAX_BARCODE_BARS = 4096


class Window(Value):
    """Finite integer range [lo, hi] serving as the carrier for the chain.

    The ends are ints, not bools (TypeError).  Carrier tables grow with the
    square of the width, so a window has at most MAX_WINDOW_POINTS points;
    like a finite endpoint, each value lies within +-MAX_ENDPOINT."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        check_ints((lo, hi), "window ends")
        if lo > hi:
            raise ValueError(f"empty window [{lo}, {hi}]")
        if max(-lo, hi) > MAX_ENDPOINT:
            raise ValueError("a window value lies beyond the limit of +-10**300")
        if hi - lo + 1 > MAX_WINDOW_POINTS:
            raise ValueError(
                f"window [{lo}, {hi}] has {hi - lo + 1} points, "
                f"more than the limit of {MAX_WINDOW_POINTS}")
        _fill(self, lo, hi)

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def index(self, v: int) -> int:
        if not (self.lo <= v <= self.hi):
            raise ValueError(f"value {v} outside window [{self.lo}, {self.hi}]")
        return v - self.lo

    def value(self, i: int) -> int:
        return self.lo + i

    def indices(self, lo: Endpoint, hi: Endpoint) -> range:
        """Indices of the window values v with lo <= v <= hi."""
        return range(max(lo, self.lo) - self.lo, min(hi, self.hi) - self.lo + 1)


def _check_barcodes(source, target) -> None:
    """The sides of a matching are Barcodes; else ValueError."""
    if not (isinstance(source, Barcode) and isinstance(target, Barcode)):
        raise ValueError("the source and target of a matching must be barcodes")


class Matching(Value):
    """An eps-matching: a partial bijection between barcode instances whose
    matched endpoints lie within eps and whose unmatched bars are short.
    Valid by construction: the constructor raises ValueError on an epsilon
    that breaks the eps rule (_check_epsilon), on sides that are not
    barcodes (_check_barcodes) and on a pair that is not two Intervals,
    then on the report of validate_matching, its one check."""

    __slots__ = ("source", "target", "pairs", "epsilon")

    def __init__(self, source: Barcode, target: Barcode,
                 pairs: Iterable[tuple[Interval, Interval]], epsilon: int):
        _check_epsilon(epsilon)
        _check_barcodes(source, target)
        ps = tuple(map(tuple, pairs))
        if not all(len(ab) == 2 and isinstance(ab[0], Interval)
                   and isinstance(ab[1], Interval) for ab in ps):
            raise ValueError("each pair of a matching must be two Intervals")
        _fill(self, source, target, _sorted_pairs(ps), epsilon)
        err = validate_matching(self)
        if err is not None:
            raise ValueError(f"invalid matching: {err}")

    @classmethod
    def _trusted(cls, source: Barcode, target: Barcode,
                 pairs: Iterable[tuple[Interval, Interval]], epsilon: int) -> "Matching":
        """Skip validate_matching: pairs, in any order, must keep its rules
        and epsilon the eps rule."""
        return _fill(object.__new__(cls), source, target, _sorted_pairs(pairs), epsilon)

    def unmatched_source(self) -> Counter:
        return +_leftover(self.source, (a for (a, _) in self.pairs))

    def unmatched_target(self) -> Counter:
        return +_leftover(self.target, (b for (_, b) in self.pairs))

    def __repr__(self) -> str:
        return f"Matching(eps={self.epsilon}, pairs={len(self.pairs)})"


def _sorted_pairs(pairs: Iterable[tuple[Interval, Interval]]) -> tuple:
    """The pairs of a matching in the order it stores them."""
    return tuple(sorted(pairs, key=lambda ab: (ab[0].ends, ab[1].ends)))


class DecomposedShoelaceRep(Value):
    """Certificate that a windowed shoelace representation splits into
    interval-shaped summands, each a (left bar, right bar) pair with at
    least one side present.  Valid by construction: the constructor takes
    any iterable of summands, raises ValueError on a window or field of
    the wrong type, on an epsilon that breaks the eps rule (_check_epsilon)
    and on a summand that is not a pair, then on the report of
    validate_decomposed, its one check."""

    __slots__ = ("window", "epsilon", "field", "summands")

    def __init__(self, window: Window, epsilon: int, field: FieldSpec, summands: Iterable):
        _check_certificate_frame(window, field)
        _check_epsilon(epsilon)
        summands = tuple(map(tuple, summands))
        if any(len(s) != 2 for s in summands):
            raise ValueError("each summand must be a (left, right) pair")
        _fill(self, window, epsilon, field, summands)
        err = validate_decomposed(self)
        if err is not None:
            raise ValueError(f"invalid decomposed representation: {err}")

    @classmethod
    def _trusted(cls, window: Window, epsilon: int, field: FieldSpec,
                 summands: tuple) -> "DecomposedShoelaceRep":
        """Skip validate_decomposed: the tuple of (left, right) summands
        must pass it, and the frame and epsilon the constructor's checks."""
        return _fill(object.__new__(cls), window, epsilon, field, summands)

    def canonical(self) -> "DecomposedShoelaceRep":
        # validity does not depend on the order of the summands
        return DecomposedShoelaceRep._trusted(
            self.window, self.epsilon, self.field,
            tuple(sorted(self.summands, key=_summand_key)))


def _check_certificate_frame(window, field) -> None:
    """The certificate frame: a Window and a FieldSpec; else ValueError."""
    if not isinstance(window, Window):
        raise ValueError(f"window must be a Window, got {window!r}")
    if not isinstance(field, FieldSpec):
        raise ValueError(f"field must be a FieldSpec, got {field!r}")


def _summand_key(s: tuple[Optional[Interval], Optional[Interval]]):
    l, r = s
    return (0 if l is not None else 1, l.ends if l is not None else (),
            0 if r is not None else 1, r.ends if r is not None else ())


@lru_cache(maxsize=1024)
def window_chain(w: Window) -> Proset:
    """The window as a chain proset: element i is w.value(i), its label and height."""
    return chain(w.size, tuple(str(w.value(i)) for i in range(w.size)))


# typed: True equals 1 and would otherwise hit its entry, past the eps rule
@lru_cache(maxsize=1024, typed=True)
def lambda_eps(w: Window, eps: int) -> Translation:
    """Uniform shift by eps, clamped at the window top."""
    _check_epsilon(eps)
    p = window_chain(w)
    return Translation._trusted(p, tuple(min(i + eps, w.size - 1) for i in range(w.size)))


@lru_cache(maxsize=1024, typed=True)
def shoelace_window(w: Window, eps: int) -> ShoelaceProset:
    """Restriction of the doubled integer chain to the window.

    Cross row i holds every j >= i + eps, the unclamped rule, so this is
    exactly the full shoelace of the integers cut down to the window; see
    the module docstring for why this differs from shoelace(window_chain,
    lambda_eps).  Elements i and w.size + i both stand for w.value(i).
    """
    full = (1 << w.size) - 1
    return laced(window_chain(w), lambda_eps(w, eps),
                 [full >> i + eps << i + eps for i in range(w.size)])


@lru_cache(maxsize=8192)
def interval_to_module(i: Interval, w: Window,
                       field: FieldSpec = FieldSpec(2)) -> Representation:
    """Thin representation of the window chain supported on the interval.

    The home of window realizability: finite endpoints must lie inside the
    window, as clamping them silently would change the module, so another
    is refused with ValueError.  Infinite endpoints clamp to the window
    edges by design.
    """
    for e in i.finite_endpoints():
        if not (w.lo <= e <= w.hi):
            raise ValueError(
                f"interval {i} is not realizable: finite endpoint {e} lies "
                f"outside window [{w.lo}, {w.hi}]; refusing a lossy clamp")
    p = window_chain(w)
    return indicator_module(p, w.indices(*i.ends), field)


# typed, as lambda_eps is, so True never shares the entry of 1; 1024 entries,
# as each holds a module of w.size points: an intervals run of the benchmark
# asks for about 450 and selftest for 256
@lru_cache(maxsize=1024, typed=True)
def _interval_after(i: Interval, w: Window, eps: int,
                    field: FieldSpec) -> Representation:
    """precompose(interval_to_module(i, w, field), lambda_eps(w, eps)): the
    interval module shifted by eps, a target of canonical_pair.  Memoised,
    so the module is shared, and it carries precompose's record of its
    origin, which lets interleave.Interleaving accept it at once."""
    return precompose(interval_to_module(i, w, field), lambda_eps(w, eps))


def barcode(m: Representation, w: Window, boundary: str = "finite") -> Barcode:
    """Interval decomposition multiset of a module on the window chain.

    One left-to-right sweep over the steps V_k -> V_(k+1), by the elder
    rule (Zomorodian & Carlsson 2005).  A basis of V_k is kept whose
    vectors carry their birth index, oldest first, so that the vectors
    born at or before a span the image of V_a.  The images of the basis
    under the step are reduced in that order.  A vector whose image lies in
    the span of the images before it ends the bar [birth, k].  The others go
    on as their reduced image e, unscaled, whose first nonzero entry is the
    pivot: basis vector and reducer at once, as scaling by a unit changes
    no span.  Unit vectors born at k + 1, one per coordinate c that is no
    pivot, complete them to a basis of V_(k+1); each is kept as c, its image
    being column c of the next step.  The vectors alive after the last point
    end their bars there.  So r(a, b) - r(a-1, b) - r(a, b+1) + r(a-1, b+1)
    bars run from a to b, r being the rank of V_a -> V_b: the multiplicities
    of the rank inclusion-exclusion formula, at a cost of O(n d^3) for n
    points of dimension at most d.  Images are one int each, so the inner
    loops are big-int arithmetic: over F_2 bit c is coordinate c and a
    reduction is one XOR; over other fields entry c is packed in a slot
    wide enough for a reduction's sums.

    Only the steps, m.edges on the chain, are read, so the module must be
    functorial, as every Representation is by construction.  boundary="infinite"
    reports bars touching the window edges with infinite endpoints instead
    of the edge values.
    """
    if boundary not in ("finite", "infinite"):
        raise ValueError(f"boundary must be 'finite' or 'infinite', got {boundary!r}")
    n = w.size
    if m.proset.n != n:
        raise ValueError(f"module has {m.proset.n} points, window has {n}")
    if m.proset.up != window_chain(w).up:
        raise ValueError("module does not live on the chain of the window")
    p, dims = m.field.p, m.dims
    ends, survivors = _sweep_bits(dims, m.edges) if p == 2 else _sweep_packed(p, dims, m.edges)
    ends.update((birth, n - 1) for birth in survivors)
    ends[(n - 1, n - 1)] += dims[n - 1] - len(survivors)
    infinite = boundary == "infinite"
    bars = []
    for (a, b), mult in ends.items():
        lo = -math.inf if infinite and a == 0 else w.value(a)
        hi = math.inf if infinite and b == n - 1 else w.value(b)
        bars.extend([Interval._trusted(lo, hi)] * mult)
    return Barcode(bars)


def _sweep_bits(dims: tuple[int, ...], edges: Iterable) -> tuple[Counter, list[int]]:
    """barcode's sweep over F_2: the bars ended before the last point, and
    the births of the vectors alive at it.  A vector is one int whose bit c
    is coordinate c; its pivot is its lowest set bit."""
    ends: Counter = Counter()
    # (birth, v) per survivor into V_k, oldest first; taken has their pivots
    alive, taken = [], 0
    for k, step in enumerate(edges):
        bits = range(dims[k + 1])
        # a step into a zero-dimensional point has no rows to transpose
        cols = [sum(map(operator.lshift, col, bits)) for col in zip(*step.entries)] or [0] * dims[k]
        # the XOR of the columns at the set bits of v, read off bin(v) backwards
        images = [(birth, reduce(operator.xor, compress(cols, map(int, bin(v)[:1:-1])), 0))
                  for birth, v in alive]
        images += [(k, cols[c]) for c in range(dims[k]) if not taken >> c & 1]
        # (pivot bit, v) per survivor: v is 0 at the pivots before it
        alive, reducers, taken = [], [], 0
        for birth, u in images:
            for b, r in reducers:
                if u & b:
                    u ^= r
            if not u:
                ends[(birth, k)] += 1
                continue
            b = u & -u
            alive.append((birth, u))
            reducers.append((b, u))
            taken |= b
    return ends, [birth for birth, _ in alive]


def _sweep_packed(p: int, dims: tuple[int, ...], edges: Iterable) -> tuple[Counter, list[int]]:
    """barcode's sweep over F_p, p odd: the bars ended before the last
    point, and the births of the vectors alive at it.  A survivor is the
    list of its entries mod p, and is packed into one int, entry i in the
    bits from i * width on, to be reduced against."""
    mul, lshift = operator.mul, operator.lshift
    # An image adds up at most dims[k] products below p**2 and its reduction
    # at most dims[k+1] more, so an entry read mod p has not carried into
    # the next.
    width = ((2 * max(dims) + 1) * p * p).bit_length()
    mask = (1 << width) - 1
    ends: Counter = Counter()
    # (birth, e) per survivor into V_k, oldest first; taken has their pivots' bits
    alive, taken = [], 0
    for k, step in enumerate(edges):
        shifts = range(0, dims[k + 1] * width, width)
        # a step into a zero-dimensional point has no rows to transpose
        cols = [sum(map(lshift, col, shifts)) for col in zip(*step.entries)] or [0] * dims[k]
        images = [(birth, sum(map(mul, e, cols))) for birth, e in alive]
        images += [(k, cols[c]) for c in range(dims[k]) if not taken >> c & 1]
        # (pivot shift, g, packed e) per survivor: e is 0 at the pivots
        # before it, and g * e is -1 at its own
        alive, reducers, taken = [], [], 0
        for birth, u in images:
            for s, g, r in reducers:
                f = (u >> s & mask) * g % p
                if f:
                    u += f * r
            e = [(u >> s & mask) % p for s in shifts]
            c = next((c for c, x in enumerate(e) if x), -1)
            if c < 0:
                ends[(birth, k)] += 1
                continue
            alive.append((birth, e))
            reducers.append((shifts[c], pow(p - e[c], -1, p), sum(map(lshift, e, shifts))))
            taken |= 1 << c
    return ends, [birth for birth, _ in alive]


def condition_star(i: Interval, j: Interval, eps: int) -> bool:
    """The overlap disjunction: with i = I[x,y] and j = I[s,t], either
    s-eps <= x <= t-eps <= y or x-eps <= s <= y-eps <= t."""
    first, second = _star_disjuncts(i, j, eps)
    return first or second


def _star_disjuncts(i: Interval, j: Interval, eps: int) -> tuple[bool, bool]:
    (x, y), (s, t) = i.ends, j.ends
    return (_lowered(s, eps) <= x <= _lowered(t, eps) <= y,
            _lowered(x, eps) <= s <= _lowered(y, eps) <= t)


def short_pair_fails_star(a: Interval, b: Interval, eps: int) -> bool:
    """Whether a and b are both short at eps and fail Condition (*): the
    pairs an essential matching may not contain, and whose canonical maps
    vanish."""
    return a.is_short(eps) and b.is_short(eps) and not condition_star(a, b, eps)


def _pair_error(a: Interval, b: Interval, eps: int) -> Optional[str]:
    """The matched-pair rule: a and b may be matched at eps only when their
    left ends and their right ends each lie within eps (endpoint_distance).
    None if they do, else which ends differ and by how much."""
    for k, side in enumerate(("left", "right")):
        d = endpoint_distance(a.ends[k], b.ends[k])
        if d > eps:
            return f"{side} endpoints differ by {_ext(d)} > {eps}"
    return None


def _leftover(bars: Barcode, drawn: Iterable[Interval]) -> Counter:
    """The multiset draw: bars less drawn, with a negative count for each
    bar drawn more often than bars holds it."""
    c = bars.counts()
    c.subtract(drawn)
    return c


def _unmatched_error(bar: Interval, eps: int) -> Optional[str]:
    """The unmatched-bar rule: a bar left unmatched, or alone in a summand,
    must be short at eps (Interval.is_short), so never infinite.  None if it
    is, else its length."""
    if bar.is_short(eps):
        return None
    return f"{bar} has length {_ext(bar.length())}, not < {2 * eps}"


def validate_matching(s: Matching) -> Optional[str]:
    """None if s is a valid eps-matching, else the first violation; Matching
    runs it on construction.

    Checks each pair by the matched-pair rule (_pair_error), then each side:
    that the pairs draw from its barcode as a multiset (_leftover) and that
    its unmatched bars are short (_unmatched_error).
    """
    eps = s.epsilon
    for (a, b) in s.pairs:
        err = _pair_error(a, b, eps)
        if err is not None:
            return f"matched pair ({a}, {b}): {err}"
    for side, bars, k in (("source", s.source, 0), ("target", s.target, 1)):
        for bar, n in _leftover(bars, (ab[k] for ab in s.pairs)).items():
            if n < 0:
                return f"pair uses {bar} more times than the {side} barcode provides"
            if n and (err := _unmatched_error(bar, eps)):
                return f"unmatched {side} interval {err}"
    return None


def is_essential(s: Matching) -> list[tuple[Interval, Interval]]:
    """Matched short-short pairs violating Condition (*).  Empty list means
    the matching is essential.  Pairs where either side has length >= 2*eps
    are exempt.  A Matching is valid by construction, so nothing is raised."""
    return [(a, b) for (a, b) in s.pairs
            if short_pair_fails_star(a, b, s.epsilon)]


def hom_dimension(i: Interval, j: Interval, w: Window,
                  field: FieldSpec = FieldSpec(2)) -> int:
    """Dimension of the natural-transformation space between the two
    interval modules."""
    return _hom_dimension(interval_to_module(i, w, field),
                          interval_to_module(j, w, field))


def _hom_dimension(m: Representation, n: Representation) -> int:
    """Dimension of the natural transformations m -> n: the squares of the
    generating edges imply the rest (see validate_nat_trans)."""
    shapes = [(n.dims[a], m.dims[a]) for a in range(m.proset.n)]
    constraints = [(g, a, f, b) for (a, b), f, g
                   in zip(m.proset.generating_edges, m.edges, n.edges)
                   if m.dims[a] and n.dims[b]]
    return homogeneous_dimension(m.field, shapes, constraints)


def _headroom(i: Interval, w: Window, eps: int) -> bool:
    u = i.ends[1]
    return u == math.inf or u < w.hi or u + 2 * eps <= w.hi


def _canonical_ranges(i: Interval, j: Interval, eps: int,
                      w: Window) -> tuple[range, range]:
    """The window indices where the canonical maps f: M(i) -> M(j) shifted
    and g: M(j) -> M(i) shifted are the identity: f on [i.lo, j.hi - eps]
    when the first disjunct of the overlap condition holds, g on
    [j.lo, i.hi - eps] under the second, each empty otherwise.  Both are
    empty for a pair failing Condition (*)."""
    (x, y), (s, t) = i.ends, j.ends
    first, second = _star_disjuncts(i, j, eps)
    return (w.indices(x, _lowered(t, eps)) if first else range(0),
            w.indices(s, _lowered(y, eps)) if second else range(0))


def canonical_pair(i: Interval, j: Interval, eps: int, w: Window,
                   field: FieldSpec = FieldSpec(2)) -> tuple[NatTrans, NatTrans]:
    """The canonical comparison maps f: M(i) -> M(j) shifted, g: M(j) -> M(i)
    shifted, each the identity on its _canonical_ranges range and zero
    elsewhere.  When the corresponding hom space is nonzero this is its
    canonical generator, and the support formula is exactly the matched-pair
    recipe.  Both are natural, so built through NatTrans._trusted.  Their
    targets, M(j) and M(i) shifted, come from _interval_after's bounded
    cache, after the checks below, so an interleaving of the pair accepts
    them without building them again.

    eps must keep the eps rule (lambda_eps) and both intervals be realizable
    on w (interval_to_module).  Beyond that it needs top headroom: a finite
    upper endpoint u is allowed only if u < w.hi or u + 2*eps <= w.hi, else
    the clamp of the shift distorts naturality and the construction is
    refused.
    """
    lambda_eps(w, eps)  # the eps rule, checked first
    m = interval_to_module(i, w, field)
    n = interval_to_module(j, w, field)
    for iv in (i, j):
        if not _headroom(iv, w, eps):
            raise ValueError(
                f"window top {w.hi} leaves no headroom for {iv} at eps={eps}; "
                f"upper endpoint must satisfy u < {w.hi} or u + {2 * eps} <= {w.hi}")
    f_on, g_on = _canonical_ranges(i, j, eps, w)

    def build(src, tgt, on: range):
        # on lies where both src and tgt have dimension 1
        return NatTrans._trusted(src, tgt, tuple(
            _units(field, src.dims[a], (0,) if a in on else (-1,) * tgt.dims[a])
            for a in range(w.size)))

    return (build(m, _interval_after(j, w, eps, field), f_on),
            build(n, _interval_after(i, w, eps, field), g_on))


def _padding_error(bars: Iterable[Interval], w: Window, eps: int) -> Optional[str]:
    """The 2*eps padding rule: every finite endpoint e of the bars has
    w.lo <= e - 2*eps and e + 2*eps <= w.hi.  None if so, else the first e
    that has not."""
    for bar in bars:
        for e in bar.finite_endpoints():
            if not (w.lo <= e - 2 * eps and e + 2 * eps <= w.hi):
                return (f"endpoint {e} needs 2*eps = {2 * eps} "
                        f"padding inside [{w.lo}, {w.hi}]")
    return None


def matching_to_rep(s: Matching, w: Window, variant: str = "essential_F",
                    field: FieldSpec = FieldSpec(2)) -> DecomposedShoelaceRep:
    """Turn a matching into a decomposition certificate.

    essential_F: one two-sided summand per matched pair, a single-sided
    summand per unmatched bar; requires the matching to be essential.
    nonessential_Fprime: matched short-short pairs failing Condition (*) are
    split into two single-sided summands instead.  The summands of a valid
    matching keep every other rule of validate_decomposed, so only the
    frame, the padding and the window size are checked, with its messages.
    """
    if not isinstance(s, Matching):
        raise ValueError(f"not a matching: {s!r}")
    if variant not in ("essential_F", "nonessential_Fprime"):
        raise ValueError(f"unknown variant {variant!r}")
    eps = s.epsilon
    bad = variant == "essential_F" and is_essential(s)
    if bad:
        raise ValueError(
            f"matching is not essential: pair ({bad[0][0]}, {bad[0][1]}) "
            f"violates the overlap condition")
    summands: list[tuple[Optional[Interval], Optional[Interval]]] = []
    for (a, b) in s.pairs:
        if variant == "nonessential_Fprime" and short_pair_fails_star(a, b, eps):
            summands.append((a, None))
            summands.append((None, b))
        else:
            summands.append((a, b))
    summands += [(bar, None) for bar in s.unmatched_source().elements()]
    summands += [(None, bar) for bar in s.unmatched_target().elements()]
    summands.sort(key=_summand_key)
    _check_certificate_frame(w, field)
    for idx, summand in enumerate(summands):
        err = _padding_error([bar for bar in summand if bar is not None], w, eps)
        if err is not None:
            err = f"summand {idx}: {err}"
            break
    else:
        err = _size_error(summands, w, eps)
    if err is not None:
        raise ValueError(f"invalid decomposed representation: {err}")
    return DecomposedShoelaceRep._trusted(w, eps, field, tuple(summands))


def rep_to_matching(l: DecomposedShoelaceRep) -> Matching:
    """Read the matching back off a decomposition certificate: two-sided
    summands become matched pairs, single-sided ones unmatched bars, which
    keep the rules of a matching as the certificate is valid."""
    if not isinstance(l, DecomposedShoelaceRep):
        raise ValueError(f"not a decomposed representation: {l!r}")
    source = Barcode(s[0] for s in l.summands if s[0] is not None)
    target = Barcode(s[1] for s in l.summands if s[1] is not None)
    pairs = [s for s in l.summands if None not in s]
    return Matching._trusted(source, target, pairs, l.epsilon)


def summand_support(s: tuple[Optional[Interval], Optional[Interval]],
                    w: Window, eps: int) -> frozenset[int]:
    """Carrier elements of shoelace_window(w, eps) where the summand's
    expansion is nonzero: the left bar on the plain copy, the right bar on
    the primed copy."""
    return frozenset(off + k for off, bar in ((0, s[0]), (w.size, s[1]))
                     if bar is not None for k in w.indices(*bar.ends))


def support_is_interval(p: Proset, support: frozenset[int]) -> bool:
    """Connected in the comparability graph and convex (closed under
    in-betweenness): the general form of validate_decomposed's support rule.
    Convex means no element outside the support lies both above and below
    support elements."""
    if not support:
        return False
    inside = sum(1 << x for x in support)
    reach = grown = 1 << min(support)
    while grown:
        grown = reduce(operator.or_, (
            p.up[x] | p.down[x] for x in support if grown >> x & 1)) & inside & ~reach
        reach |= grown
    above = reduce(operator.or_, map(p.up.__getitem__, support))
    below = reduce(operator.or_, map(p.down.__getitem__, support))
    return reach == inside and not above & below & ~inside


def _summand_error(a: Optional[Interval], b: Optional[Interval], w: Window,
                   eps: int) -> Optional[str]:
    """The first rule the summand (a, b) breaks, or None: side types, side
    presence, padding (_padding_error), then the unmatched-bar rule for a
    single side, or for two the matched-pair rule and, when both are short,
    Condition (*)."""
    bars = [bar for bar in (a, b) if bar is not None]
    if not all(isinstance(bar, Interval) for bar in bars):
        return f"sides must be an Interval or None, got {(a, b)!r}"
    if not bars:
        return "no sides"
    err = _padding_error(bars, w, eps)
    if err is not None:
        return err
    if len(bars) == 1:
        err = _unmatched_error(bars[0], eps)
        return err and f"single-sided bar {err}"
    err = _pair_error(a, b, eps)
    if err is None and short_pair_fails_star(a, b, eps):
        err = f"short pair ({a}, {b}) fails the overlap condition"
    return err


def validate_decomposed(l: DecomposedShoelaceRep) -> Optional[str]:
    """None if the certificate satisfies all structural rules, else the
    first violation; DecomposedShoelaceRep runs it on construction.

    Checks each summand by _summand_error, then that every support is
    connected and convex (support_is_interval) in closed form: it is,
    unless the window has at most eps points.  Then the padding leaves only
    two-sided (-inf,+inf) pairs, and as i + eps <= j never holds, their
    supports fall apart.
    """
    w, eps = l.window, l.epsilon
    for idx, (a, b) in enumerate(l.summands):
        err = _summand_error(a, b, w, eps)
        if err is not None:
            return f"summand {idx}: {err}"
    return _size_error(l.summands, w, eps)


def _size_error(summands, w: Window, eps: int) -> Optional[str]:
    """The window-size rule, for summands that pass _summand_error: None,
    unless there is one and the window has at most eps points."""
    if summands and w.size <= eps:
        return "summand 0: support is not connected and convex"
    return None


def _indicator_sum(l: DecomposedShoelaceRep, carrier: ShoelaceProset) -> Representation:
    """rep.indicator_sum, in summand order, of the summands' supports on
    carrier, a shoelace of the certificate's window.  A sum with dimension
    above MAX_POINT_DIM at some point is refused before any matrix is
    built, so every result loads back."""
    w, eps = l.window, l.epsilon
    supports = [summand_support(s, w, eps) for s in l.summands]
    dims = Counter(k for support in supports for k in support)
    over = sorted(k for k, d in dims.items() if d > MAX_POINT_DIM)
    if over:
        raise ValueError(
            f"expansion has dimension {dims[over[0]]} at carrier point "
            f"{carrier.label(over[0])}, more than the limit of {MAX_POINT_DIM}")
    return indicator_sum(carrier, supports, l.field)[0]


def pack_decomposed(l: DecomposedShoelaceRep) -> Representation:
    """Whole certificate on the clamped carrier shoelace(chain, lambda_eps),
    where unpack can take it apart again: the indicator sum of
    expand_decomposed on this carrier, written by rep.indicator_sum.  By
    the paper's last theorem it equals, entry for entry, the direct sum of
    the packs of the summands' own interleavings, the canonical pair of
    each two-sided summand.  Like expand_decomposed, it refuses a
    dimension above MAX_POINT_DIM at a point."""
    w = l.window
    return _indicator_sum(l, shoelace(window_chain(w), lambda_eps(w, l.epsilon)))


def expand_decomposed(l: DecomposedShoelaceRep) -> Representation:
    """Whole certificate on the unclamped windowed shoelace carrier: by the
    paper's last theorem, the direct sum in summand order of the indicator
    modules of the summands' supports, which rep.indicator_sum writes
    without building a module per summand; pack_decomposed builds the same
    sum on the clamped carrier.  An expansion with dimension above
    MAX_POINT_DIM at some point is refused before any matrix is built."""
    return _indicator_sum(l, shoelace_window(l.window, l.epsilon))


def matching_interleaving(s: Matching, w: Window,
                          field: FieldSpec = FieldSpec(2)) -> Interleaving:
    """Explicit interleaving between the canonical interval-sum modules of
    the two barcodes, each written by rep.indicator_sum, with one
    canonical-pair block per matched pair: a 1 at each index of the pair's
    _canonical_ranges, zero elsewhere.  Each component is the shared
    exactlin._units matrix of its unit and zero rows, as are the modules'
    edges, and interleave._assemble builds the result.

    Matched short-short pairs that fail the overlap condition contribute
    zero blocks (their canonical maps vanish), so the result is valid for
    any matching, essential or not.
    """
    eps = s.epsilon
    src_bars = list(s.source)
    tgt_bars = list(s.target)
    if (err := _padding_error(src_bars + tgt_bars, w, eps)) is not None:
        raise ValueError(f"window too small: {err}")
    p = window_chain(w)
    lam = lambda_eps(w, eps)
    up = lam.mapping
    m, m_pos = indicator_sum(p, [w.indices(*bar.ends) for bar in src_bars], field)
    n, n_pos = indicator_sum(p, [w.indices(*bar.ends) for bar in tgt_bars], field)
    # phi_cols[a][r]: the column of the 1 in row r of phi at a, or -1
    phi_cols = [[-1] * n.dims[up[a]] for a in range(p.n)]
    psi_cols = [[-1] * m.dims[up[a]] for a in range(p.n)]
    src_free = list(range(len(src_bars)))
    tgt_free = list(range(len(tgt_bars)))

    def take(pool: list[int], bars: list[Interval], bar: Interval) -> int:
        # a Matching draws its pairs from its barcodes, so bar is in pool
        return pool.pop(next(pos for pos, k in enumerate(pool) if bars[k] == bar))

    for (a, b) in s.pairs:
        ks, kt = take(src_free, src_bars, a), take(tgt_free, tgt_bars, b)
        f_on, g_on = _canonical_ranges(a, b, eps, w)
        for idx in f_on:
            phi_cols[idx][n_pos[up[idx]][kt]] = m_pos[idx][ks]
        for idx in g_on:
            psi_cols[idx][m_pos[up[idx]][ks]] = n_pos[idx][kt]
    return _assemble(
        m, n, lam,
        [_units(field, m.dims[a], tuple(phi_cols[a])) for a in range(p.n)],
        [_units(field, n.dims[a], tuple(psi_cols[a])) for a in range(p.n)])


def pair_ok(a: Interval, b: Interval, eps: int,
            require_essential: bool = False) -> bool:
    """Whether a and b may be matched at eps: the matched-pair rule
    (_pair_error) and, under require_essential, Condition (*) when both bars
    are short."""
    return _pair_error(a, b, eps) is None and not (
        require_essential and short_pair_fails_star(a, b, eps))


def iter_matchings(bm: Barcode, bn: Barcode, eps: int,
                   require_essential: bool = False):
    """All valid (optionally essential) eps-matchings between two barcodes,
    distinct as pair-multisets, in a deterministic order that tries matched
    options before leaving a bar unmatched, each valid by construction."""
    _check_epsilon(eps)
    _check_barcodes(bm, bn)
    src = list(bm)
    tgt_counts = Counter(bn)

    seen: set[frozenset] = set()
    pairs: list[tuple[Interval, Interval]] = []

    def emit():
        key = frozenset(Counter(pairs).items())
        if key in seen:
            return None
        seen.add(key)
        return Matching._trusted(bm, bn, pairs, eps)

    def rec(idx: int):
        if idx == len(src):
            for bar, cnt in tgt_counts.items():
                if cnt and not bar.is_short(eps):
                    return
            out = emit()
            if out is not None:
                yield out
            return
        a = src[idx]
        # a Counter keeps the first-seen order of bn, which is sorted
        for b in tgt_counts:
            if tgt_counts[b] == 0:
                continue
            if not pair_ok(a, b, eps, require_essential):
                continue
            tgt_counts[b] -= 1
            pairs.append((a, b))
            yield from rec(idx + 1)
            pairs.pop()
            tgt_counts[b] += 1
        if a.is_short(eps):
            yield from rec(idx + 1)

    yield from rec(0)


class HallWitness(Value):
    """Why no eps-matching exists: bars of one side (with multiplicity), each
    of length >= 2*eps and so unable to stay unmatched, that together have
    fewer admissible partners (bars of the other side, with multiplicity)
    than there are bars.  bars and partners are kept as tuples."""

    __slots__ = ("side", "bars", "partners")

    def __init__(self, side: str, bars: Iterable[Interval], partners: Iterable[Interval]):
        _fill(self, side, tuple(bars), tuple(partners))

    def __str__(self) -> str:
        other = "target" if self.side == "source" else "source"
        text = (f"{len(self.bars)} {self.side} bar(s) of length >= 2*eps "
                f"({', '.join(map(str, self.bars))}) have "
                f"{len(self.partners)} admissible {other} partner(s)")
        if self.partners:
            text += f" ({', '.join(map(str, self.partners))})"
        return text


class _MatchingOracle:
    """Perfect matchings of the diagonal-augmented graph of two barcodes.

    Side 0 holds the source bars 0..n-1 and a diagonal copy n + j of each
    target bar j; side 1 holds the target bars 0..m-1 and a diagonal copy
    m + i of each source bar i.  A bar is joined to the bars of the other
    side that pair_ok admits, to its own copy if it is short, and every copy
    to every copy of the other side; those last edges stay implicit.  A bar
    matched to its own copy is left unmatched, so perfect matchings of the
    graph are the eps-matchings, and removing a matched pair with the two
    copies it owns leaves the graph of the remaining bars.

    Construction builds one perfect matching, or records a HallWitness when
    there is none.
    """

    def __init__(self, bm: Barcode, bn: Barcode, eps: int,
                 require_essential: bool):
        _check_epsilon(eps)
        _check_barcodes(bm, bn)
        src, tgt = bm.intervals, bn.intervals
        n, m = len(src), len(tgt)
        self.bars = (src, tgt)
        self.size = (n, m)
        self.short = tuple([b.is_short(eps) for b in bars] for bars in self.bars)
        self.alive = ([True] * n, [True] * m)
        self.mate = ([-1] * (n + m), [-1] * (m + n))
        # equal target bars share a group; bars are sorted, so groups are runs
        self.group = [0] * m
        starts: list[int] = []
        for j in range(m):
            if not starts or tgt[j] != tgt[starts[-1]]:
                starts.append(j)
            self.group[j] = len(starts) - 1
        starts.append(m)
        self.adj: tuple[list[list[int]], list[list[int]]] = (
            [[] for _ in range(n)], [[] for _ in range(m)])
        lo_keys = [tgt[j].ends[0] for j in starts[:-1]]
        admissible: dict[Interval, list[int]] = {}
        for i, a in enumerate(src):
            if a not in admissible:
                # only groups whose lower end is within eps can qualify; for
                # -inf that is -inf alone, whatever the size of eps
                lo = a.ends[0]
                band = (lo, lo) if lo == -math.inf else (lo - eps, lo + eps)
                first = bisect_left(lo_keys, band[0])
                last = bisect_right(lo_keys, band[1])
                admissible[a] = [j for g in range(first, last)
                                 if pair_ok(a, tgt[starts[g]], eps, require_essential)
                                 for j in range(starts[g], starts[g + 1])]
            self.adj[0][i] = admissible[a]
            for j in admissible[a]:
                self.adj[1][j].append(i)
        self.witness: Optional[HallWitness] = None
        # All source bars go first, then the target bars, while every copy on
        # their own side is still free: a search that then fails reaches only
        # long bars of its own side and their admissible partners, one fewer
        # of them than bars, which is a HallWitness.
        for k in (0, 1):
            for x in range(self.size[k]):
                if self.mate[k][x] < 0:
                    failed = self._augment(k, x)
                    if failed is not None:
                        reached, parent = failed
                        self.witness = HallWitness(
                            ("source", "target")[k],
                            tuple(self.bars[k][y] for y in sorted(reached)),
                            tuple(self.bars[1 - k][y] for y in sorted(parent)
                                  if y >= 0))
                        return
        # every bar is matched now; the free copies pair off among themselves
        spare = [m + i for i in range(n) if self.mate[1][m + i] < 0]
        for x, y in zip([n + j for j in range(m) if self.mate[0][n + j] < 0], spare):
            self.mate[0][x], self.mate[1][y] = y, x

    def _augment(self, k: int, start: int, blocked: int = -1):
        """Alternating search from the free vertex start of side k, never
        entering the other side's vertex blocked.  On reaching a free vertex
        it flips the path and returns None.  Otherwise it returns the side-k
        vertices reached and a dict whose keys are the other side's reached
        vertices (plus blocked)."""
        o = 1 - k
        nk, no = self.size[k], self.size[o]
        adj, short_k, short_o = self.adj[k], self.short[k], self.short[o]
        alive_k, alive_o = self.alive[k], self.alive[o]
        mate_k, mate_o = self.mate[k], self.mate[o]
        parent = {blocked: -1}
        reached = [start]
        stack = [start]
        copies_done = False
        while stack:
            x = stack.pop()
            if x < nk:
                nbrs = [y for y in adj[x] if alive_o[y]]
                if short_k[x]:
                    nbrs.append(no + x)
            else:
                j = x - nk
                nbrs = [j] if short_o[j] else []
                if not copies_done:
                    # the copies are all alike, so one visit covers them
                    copies_done = True
                    nbrs.extend(no + i for i in range(nk) if alive_k[i])
            for y in nbrs:
                if y in parent:
                    continue
                parent[y] = x
                z = mate_o[y]
                if z < 0:
                    while True:
                        x = parent[y]
                        y_next = mate_k[x]
                        mate_k[x], mate_o[y] = y, x
                        if x == start:
                            return None
                        y = y_next
                reached.append(z)
                stack.append(z)
        return reached, parent

    def _reroute(self, a: int, v: int) -> bool:
        """Move the matching onto the edge (a, v) of side-0 bar a if some
        perfect matching uses it: an alternating path from v's mate back to
        a's mate that avoids a and v closes a cycle through the edge."""
        mate0, mate1 = self.mate
        r, l = mate0[a], mate1[v]
        mate1[r] = mate0[l] = -1
        if self._augment(0, l, blocked=v) is None:
            mate0[a], mate1[v] = v, a
            return True
        mate1[r], mate0[l] = a, v
        return False

    def first_matching(self) -> list[tuple[int, int]]:
        """Index pairs of the first matching in the order of iter_matchings.

        Each source bar in turn takes the first of its options (the distinct
        admissible target bars in sort order, then staying unmatched if it
        is short) that lies in some perfect matching of what is left, so the
        search never backtracks."""
        n, m = self.size
        mate0, mate1 = self.mate
        group, alive1 = self.group, self.alive[1]
        pairs = []
        for a in range(n):
            mine = mate0[a]
            chosen = -1
            last = -1
            for j in self.adj[0][a]:
                if not alive1[j] or group[j] == last:
                    continue
                last = group[j]
                if mine < m and group[mine] == last:
                    chosen = mine
                elif self._reroute(a, j):
                    chosen = j
                if chosen >= 0:
                    break
            # a's current mate is one of its options, so when no target was
            # chosen that mate is a's own copy: a stays unmatched
            self.alive[0][a] = False
            if chosen >= 0:
                pairs.append((a, chosen))
                alive1[chosen] = False
                x, y = mate1[m + a], mate0[n + chosen]
                if x != n + chosen:
                    mate0[x], mate1[y] = y, x
        return pairs


def find_matching(bm: Barcode, bn: Barcode, eps: int,
                  require_essential: bool = False) -> Optional[Matching]:
    """First matching in the deterministic order of iter_matchings, or None.

    Runs in polynomial time: a perfect matching of the diagonal-augmented
    bipartite graph (Edelsbrunner & Harer, Computational Topology, ch. VIII)
    decides feasibility, and each source bar then takes its first option
    that some perfect matching of the remaining graph uses, found by one
    alternating-path search per option tried.  match_or_witness gives the
    HallWitness that explains a None.
    """
    return match_or_witness(bm, bn, eps, require_essential)[0]


def match_or_witness(bm: Barcode, bn: Barcode, eps: int,
                     require_essential: bool = False
                     ) -> tuple[Optional[Matching], Optional[HallWitness]]:
    """(find_matching, None) when a matching exists, else (None, a
    HallWitness): a set of bars that must all be matched but have fewer
    admissible partners than bars, which Hall's theorem guarantees on one
    side or the other.  Both come from one search, and the matching is
    valid by construction: the oracle pairs only what pair_ok admits, uses
    each bar once and leaves only short bars unmatched."""
    oracle = _MatchingOracle(bm, bn, eps, require_essential)
    if oracle.witness is not None:
        return None, oracle.witness
    src, tgt = oracle.bars
    return Matching._trusted(
        bm, bn, [(src[a], tgt[b]) for a, b in oracle.first_matching()], eps), None
