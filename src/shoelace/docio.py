"""JSON interchange documents.

Every file is an envelope {"kind", "version", "payload"}.  Loading builds
each object through its type's validating public constructor, and nothing
is checked again, so a document that parses but violates the mathematical
rules raises DocumentValidationError, while a structurally malformed file
raises DocumentFormatError.  Emission writes each value's own tuples in a
fixed key order and canonical array orders, so output is byte-stable.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any

from .exactlin import _INT, FieldSpec, Matrix
from .proset import HeightFunction, Proset, Translation
from .rep import NatTrans, Representation, chain_representation, precompose
from .interleave import Interleaving
from .zed import (
    MAX_BARCODE_BARS,
    MAX_POINT_DIM,
    Barcode,
    DecomposedShoelaceRep,
    Interval,
    Matching,
    Window,
    window_chain,
)

VERSION = "1"
_BITS = frozenset((0, 1))


class DocumentFormatError(Exception):
    """Not a recognizable document: bad JSON, envelope, or payload schema."""


class DocumentValidationError(Exception):
    """Parsed fine but the payload violates the owning module's rules."""


def _need(payload: dict, key: str, kind: str):
    if not isinstance(payload, dict) or key not in payload:
        raise DocumentFormatError(f"{kind} payload is missing '{key}'")
    return payload[key]


def _as_list(x, what: str) -> list:
    if not isinstance(x, list):
        raise DocumentFormatError(f"{what} must be a list, got {type(x).__name__}")
    return x


def _as_int(x, what: str) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise DocumentFormatError(f"{what} must be an integer, got {x!r}")
    return x


def _load_dims(payload: dict, kind: str) -> list[int]:
    dims = [_as_int(d, "dim") for d in _as_list(_need(payload, "dims", kind), "dims")]
    for k, d in enumerate(dims):
        if d > MAX_POINT_DIM:
            raise DocumentValidationError(
                f"{kind} dimension {d} at point {k} is more than the limit "
                f"of {MAX_POINT_DIM}")
    return dims


@contextmanager
def _constructing(kind: str, own: str = "", context: str = "",
                  frame_is_format: bool = False):
    """Raise a constructor's refusal as the loader's: the report r of its
    one check, "invalid <own or kind>: r", becomes "invalid <kind>:
    <context>r", and a frame error "inconsistent <kind>: <message>" (with
    frame_is_format, the DocumentFormatError "bad <kind> payload: ...")."""
    try:
        yield
    except (ValueError, TypeError) as e:
        message, head = str(e), f"invalid {own or kind}: "
        if message.startswith(head):
            raise DocumentValidationError(
                f"invalid {kind}: {context}{message.removeprefix(head)}") from None
        if frame_is_format:
            raise DocumentFormatError(f"bad {kind} payload: {message}") from None
        raise DocumentValidationError(f"inconsistent {kind}: {message}") from None


# per-kind payload builders


def _proset_payload(p: Proset) -> dict:
    return {
        "n": p.n,
        "labels": p.labels,
        "rel": [list(map(int, reversed(f"{u:0{p.n}b}"))) for u in p.up],
    }


def _load_proset(payload: dict) -> Proset:
    n = _as_int(_need(payload, "n", "proset"), "n")
    rel = _as_list(_need(payload, "rel", "proset"), "rel")
    for row in rel:
        # the saver writes 0 and 1; true, 1.0 or "1" would not round-trip
        if not (_INT.issuperset(map(type, _as_list(row, "relation row")))
                and _BITS.issuperset(row)):
            bad = next(x for x in row if type(x) is not int or x not in _BITS)
            raise DocumentFormatError(
                f"bad proset payload: relation entries must be 0 or 1, got {bad!r}")
    labels = payload.get("labels")
    # the saver writes strings; Proset would turn 1 or true into "1" or "True"
    if labels is not None and not all(type(x) is str for x in _as_list(labels, "labels")):
        bad = next(x for x in labels if type(x) is not str)
        raise DocumentFormatError(
            f"bad proset payload: labels must be strings, got {bad!r}")
    with _constructing("proset", frame_is_format=True):
        return Proset(n, rel, labels)


def _translation_payload(t: Translation) -> dict:
    return {"base": _proset_payload(t.base), "mapping": t.mapping}


def _load_translation(payload: dict) -> Translation:
    base = _load_proset(_need(payload, "base", "translation"))
    mapping = _as_list(_need(payload, "mapping", "translation"), "mapping")
    with _constructing("translation", frame_is_format=True):
        return Translation(base, mapping)


def _height_payload(h: HeightFunction) -> dict:
    return {"proset": _proset_payload(h.proset),
            "values": [str(v) for v in h.values]}


def _load_height(payload: dict) -> HeightFunction:
    from fractions import Fraction
    p = _load_proset(_need(payload, "proset", "height"))
    raw = _as_list(_need(payload, "values", "height"), "values")
    # the saver writes str(Fraction(v)); 2, "0.5" or " 2/4 " would not round-trip
    for v in raw:
        try:
            saved = type(v) is str and str(Fraction(v)) == v
        except (ValueError, ZeroDivisionError):
            saved = False
        if not saved:
            raise DocumentFormatError(
                f"bad height values: values must be written as "
                f"str(Fraction(v)), such as \"2\" or \"-1/3\", got {v!r}")
    with _constructing("height"):
        return HeightFunction(p, raw)


def _load_matrix(field: FieldSpec, rows: int, cols: int, entries, what: str) -> Matrix:
    try:
        return Matrix(field, rows, cols, entries)
    except (ValueError, TypeError) as e:
        raise DocumentFormatError(f"bad matrix for {what}: {e}") from None


def _rep_payload(m: Representation) -> dict:
    return {
        "prime": m.field.p,
        "proset": _proset_payload(m.proset),
        "dims": m.dims,
        "maps": [
            {"src": i, "dst": j, "entries": m.map(i, j).entries}
            for (i, j) in m.proset.related_pairs
        ],
    }


def _load_field(payload: dict, kind: str) -> FieldSpec:
    p = _as_int(_need(payload, "prime", kind), "prime")
    try:
        return FieldSpec(p)
    except ValueError as e:
        raise DocumentValidationError(str(e)) from None


def _load_rep(payload: dict) -> Representation:
    field = _load_field(payload, "representation")
    proset = _load_proset(_need(payload, "proset", "representation"))
    dims = _load_dims(payload, "representation")
    raw_maps = _as_list(_need(payload, "maps", "representation"), "maps")
    if len(dims) != proset.n:
        raise DocumentValidationError(
            f"inconsistent representation: expected {proset.n} dims, got {len(dims)}")
    maps = {}
    for item in raw_maps:
        i = _as_int(_need(item, "src", "representation map"), "src")
        j = _as_int(_need(item, "dst", "representation map"), "dst")
        if not (0 <= i < proset.n and 0 <= j < proset.n):
            raise DocumentFormatError(f"map ({i}, {j}) out of range")
        maps[(i, j)] = _load_matrix(field, dims[j], dims[i],
                                    _need(item, "entries", "representation map"),
                                    f"map ({i}, {j})")
    # a document lists every related pair; the Representation keeps the
    # generating edges and checks the other maps against them
    missing = [pair for pair in proset.related_pairs if pair not in maps]
    if missing:
        raise DocumentValidationError(
            f"inconsistent representation: maps must cover exactly the related "
            f"pairs; missing {missing[:4]}")
    with _constructing("representation"):
        return Representation(proset, field, dims, maps)


def _nattrans_payload(t: NatTrans) -> dict:
    return {
        "prime": t.source.field.p,
        "source": _rep_payload(t.source),
        "target": _rep_payload(t.target),
        "components": [c.entries for c in t.components],
    }


def _load_nattrans(payload: dict) -> NatTrans:
    field = _load_field(payload, "nattrans")
    source = _load_rep(_need(payload, "source", "nattrans"))
    target = _load_rep(_need(payload, "target", "nattrans"))
    if source.field != field or target.field != field:
        raise DocumentValidationError("nattrans prime differs from its endpoints")
    raw = _as_list(_need(payload, "components", "nattrans"), "components")
    if len(raw) != source.proset.n:
        raise DocumentFormatError(
            f"expected {source.proset.n} components, got {len(raw)}")
    comps = [
        _load_matrix(field, target.dims[i], source.dims[i], raw[i],
                     f"component {i}")
        for i in range(source.proset.n)
    ]
    with _constructing("nattrans"):
        return NatTrans(source, target, comps)


def _interleaving_payload(x: Interleaving) -> dict:
    return {
        "prime": x.m.field.p,
        "translation": _translation_payload(x.lam),
        "m": _rep_payload(x.m),
        "n": _rep_payload(x.n),
        "phi": [c.entries for c in x.phi.components],
        "psi": [c.entries for c in x.psi.components],
    }


def _load_interleaving(payload: dict) -> Interleaving:
    field = _load_field(payload, "interleaving")
    lam = _load_translation(_need(payload, "translation", "interleaving"))
    m = _load_rep(_need(payload, "m", "interleaving"))
    n = _load_rep(_need(payload, "n", "interleaving"))
    if m.field != field or n.field != field:
        raise DocumentValidationError("interleaving prime differs from its modules")
    if m.proset != lam.base or n.proset != lam.base:
        raise DocumentValidationError(
            "interleaving modules do not live on the translation's proset")
    up = lam.mapping
    raw_phi = _as_list(_need(payload, "phi", "interleaving"), "phi")
    raw_psi = _as_list(_need(payload, "psi", "interleaving"), "psi")
    if len(raw_phi) != lam.base.n or len(raw_psi) != lam.base.n:
        raise DocumentFormatError("wrong number of interleaving components")
    phi_comps = [_load_matrix(field, n.dims[up[i]], m.dims[i], raw_phi[i], f"phi {i}")
                 for i in range(lam.base.n)]
    psi_comps = [_load_matrix(field, m.dims[up[i]], n.dims[i], raw_psi[i], f"psi {i}")
                 for i in range(lam.base.n)]
    with _constructing("interleaving", "nattrans", "phi: "):
        phi = NatTrans(m, precompose(n, lam), phi_comps)
    with _constructing("interleaving", "nattrans", "psi: "):
        psi = NatTrans(n, precompose(m, lam), psi_comps)
    with _constructing("interleaving"):
        return Interleaving(m, n, lam, phi, psi)


def _interval_payload(i: Interval) -> dict:
    return {"lo": i.lo.to_json(), "hi": i.hi.to_json()}


def _load_interval(raw, what: str) -> Interval:
    lo = _need(raw, "lo", what)
    hi = _need(raw, "hi", what)
    try:
        return Interval(lo, hi)
    except (ValueError, TypeError) as e:
        raise DocumentValidationError(f"bad interval in {what}: {e}") from None


def _barcode_payload(b: Barcode) -> dict:
    # a Barcode holds its bars sorted, and counts() keeps that order
    return {"intervals": [{**_interval_payload(bar), "count": count}
                          for bar, count in b.counts().items()]}


def _load_barcode(payload: dict) -> Barcode:
    raw = _as_list(_need(payload, "intervals", "barcode"), "barcode intervals")
    bars = []
    for item in raw:
        count = _as_int(_need(item, "count", "barcode interval"), "count")
        if count < 1:
            raise DocumentValidationError(f"barcode multiplicity {count} < 1")
        if len(bars) + count > MAX_BARCODE_BARS:
            raise DocumentValidationError(
                f"barcode has at least {len(bars) + count} bars, more than "
                f"the limit of {MAX_BARCODE_BARS}")
        bars.extend([_load_interval(item, "barcode")] * count)
    return Barcode(bars)


def _matching_payload(s: Matching) -> dict:
    return {
        "epsilon": s.epsilon,
        "source": _barcode_payload(s.source),
        "target": _barcode_payload(s.target),
        "pairs": [
            {"left": _interval_payload(a), "right": _interval_payload(b)}
            for (a, b) in s.pairs
        ],
    }


def _load_matching(payload: dict) -> Matching:
    eps = _as_int(_need(payload, "epsilon", "matching"), "epsilon")
    source = _load_barcode(_need(payload, "source", "matching"))
    target = _load_barcode(_need(payload, "target", "matching"))
    pairs = []
    for item in _as_list(_need(payload, "pairs", "matching"), "matching pairs"):
        pairs.append((_load_interval(_need(item, "left", "matching pair"),
                                     "matching pair"),
                      _load_interval(_need(item, "right", "matching pair"),
                                     "matching pair")))
    with _constructing("matching"):
        return Matching(source, target, pairs, eps)


def _decomposed_payload(l: DecomposedShoelaceRep) -> dict:
    return {
        "prime": l.field.p,
        "window": {"lo": l.window.lo, "hi": l.window.hi},
        "epsilon": l.epsilon,
        "summands": [
            {"left": _interval_payload(a) if a is not None else None,
             "right": _interval_payload(b) if b is not None else None}
            for (a, b) in l.summands
        ],
    }


def _load_window(raw, what: str) -> Window:
    lo = _as_int(_need(raw, "lo", what), "window lo")
    hi = _as_int(_need(raw, "hi", what), "window hi")
    try:
        return Window(lo, hi)
    except ValueError as e:
        raise DocumentValidationError(str(e)) from None


def _load_decomposed(payload: dict) -> DecomposedShoelaceRep:
    field = _load_field(payload, "decomposed_rep")
    w = _load_window(_need(payload, "window", "decomposed_rep"), "decomposed_rep")
    eps = _as_int(_need(payload, "epsilon", "decomposed_rep"), "epsilon")
    summands = []
    for item in _as_list(_need(payload, "summands", "decomposed_rep"), "summands"):
        left = _need(item, "left", "summand")
        right = _need(item, "right", "summand")
        summands.append((
            _load_interval(left, "summand") if left is not None else None,
            _load_interval(right, "summand") if right is not None else None,
        ))
    with _constructing("decomposed_rep", "decomposed representation"):
        return DecomposedShoelaceRep(w, eps, field, summands)


def _window_module_payload(w: Window, m: Representation) -> dict:
    # the steps are the edges of the window's chain
    if m.proset.up != window_chain(w).up:
        raise ValueError("module does not live on the chain of the window")
    return {
        "prime": m.field.p,
        "window": {"lo": w.lo, "hi": w.hi},
        "dims": m.dims,
        "steps": [s.entries for s in m.edges],
    }


def _load_window_module(payload: dict) -> tuple[Window, Representation]:
    field = _load_field(payload, "window_module")
    w = _load_window(_need(payload, "window", "window_module"), "window_module")
    dims = _load_dims(payload, "window_module")
    raw_steps = _as_list(_need(payload, "steps", "window_module"), "steps")
    if len(dims) != w.size:
        raise DocumentValidationError(
            f"expected {w.size} dims for window [{w.lo}, {w.hi}], got {len(dims)}")
    if len(raw_steps) != w.size - 1:
        raise DocumentFormatError(
            f"expected {w.size - 1} step matrices, got {len(raw_steps)}")
    steps = [
        _load_matrix(field, dims[i + 1], dims[i], raw_steps[i], f"step {i}")
        for i in range(w.size - 1)
    ]
    p = window_chain(w)
    with _constructing("window module"):
        return w, chain_representation(p, field, dims, steps)


_SAVERS = {
    "proset": _proset_payload,
    "translation": _translation_payload,
    "height": _height_payload,
    "representation": _rep_payload,
    "nattrans": _nattrans_payload,
    "interleaving": _interleaving_payload,
    "barcode": _barcode_payload,
    "matching": _matching_payload,
    "decomposed_rep": _decomposed_payload,
    "window_module": lambda obj: _window_module_payload(*obj),
}

_LOADERS = {
    "proset": _load_proset,
    "translation": _load_translation,
    "height": _load_height,
    "representation": _load_rep,
    "nattrans": _load_nattrans,
    "interleaving": _load_interleaving,
    "barcode": _load_barcode,
    "matching": _load_matching,
    "decomposed_rep": _load_decomposed,
    "window_module": _load_window_module,
}

KINDS = tuple(_LOADERS)


def document_dict(kind: str, obj: Any) -> dict:
    if kind not in KINDS:
        raise DocumentFormatError(f"unknown document kind {kind!r}")
    return {"kind": kind, "version": VERSION, "payload": _SAVERS[kind](obj)}


# The writer.  json.dumps(obj, indent=2) runs the pure-Python encoder, one
# generator step per token; _dumps gives the same bytes with Python walking
# only the dict/list skeleton.  Each list or tuple of scalars, and each
# matrix (a list or tuple of non-empty rows of scalars, such as a Matrix's
# own entries), is one call of the C encoder whose item separator already
# holds the newline and indent.  Under ensure_ascii a string never holds a
# literal newline, so the only newlines in its output come from separators,
# and a matrix's row boundaries are exactly the occurrences of
# "],\n<indent>[".

_ARRAYS = frozenset((list, tuple))
_CONTAINERS = _ARRAYS | {dict}
_ENCODERS: list = []


def _encoder(level: int):
    """The C encoder whose items are separated by ",\n" and level indents."""
    while len(_ENCODERS) <= level:
        _ENCODERS.append(json.encoder.c_make_encoder(
            None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
            None, ": ", ",\n" + "  " * len(_ENCODERS), False, False, True))
    return _ENCODERS[level]


def _dumps(obj, level: int = 0) -> str:
    """json.dumps(obj, indent=2), byte for byte, for a JSON tree (dicts with
    str keys, lists or tuples, str, int, float, bool and None) written at
    the given nesting level."""
    kind = type(obj)
    outer, inner = "  " * level, "  " * (level + 1)
    if kind is dict:
        if not obj:
            return "{}"
        key = json.encoder.encode_basestring_ascii
        items = [f"{inner}{key(k)}: {_dumps(v, level + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{outer}}}"
    if kind is not list and kind is not tuple:
        return "".join(_encoder(level)(obj, 0))
    if not obj:
        return "[]"
    kinds = set(map(type, obj))
    if _CONTAINERS.isdisjoint(kinds):
        flat = "".join(_encoder(level + 1)(obj, 0))
        return f"[\n{inner}{flat[1:-1]}\n{outer}]"
    if _ARRAYS.issuperset(kinds) and all(
            row and _CONTAINERS.isdisjoint(map(type, row)) for row in obj):
        cells = "  " * (level + 2)
        flat = "".join(_encoder(level + 2)(obj, 0))[2:-2].replace(
            f"],\n{cells}[", f"\n{inner}],\n{inner}[\n{cells}")
        return f"[\n{inner}[\n{cells}{flat}\n{inner}]\n{outer}]"
    items = [_dumps(x, level + 1) for x in obj]
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{outer}]"


def save_document(kind: str, obj: Any) -> str:
    return _dumps(document_dict(kind, obj)) + "\n"


def load_document(text: str) -> tuple[str, Any]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentFormatError(f"not valid JSON: {e}") from None
    except RecursionError:
        raise DocumentFormatError("not valid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise DocumentFormatError("document must be a JSON object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise DocumentFormatError(f"unknown document kind {kind!r}")
    if doc.get("version") != VERSION:
        raise DocumentFormatError(
            f"unsupported version {doc.get('version')!r}, expected {VERSION!r}")
    if "payload" not in doc:
        raise DocumentFormatError("document is missing its payload")
    return kind, _LOADERS[kind](doc["payload"])
