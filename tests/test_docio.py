import ast
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from shoelace.docio import (
    KINDS,
    DocumentFormatError,
    DocumentValidationError,
    _dumps,
    document_dict,
    load_document,
    save_document,
)
from shoelace.exactlin import FieldSpec, Matrix
from shoelace.interleave import Interleaving
from shoelace.proset import (
    HeightFunction,
    Translation,
    chain,
    proset_from_pairs,
)
from shoelace.rep import NatTrans, chain_representation, zero_nat, precompose
from shoelace.zed import (
    Barcode,
    Interval,
    Matching,
    NEG_INF,
    POS_INF,
    Window,
    canonical_pair,
    interval_to_module,
    lambda_eps,
    matching_to_rep,
    window_chain,
)

F2 = FieldSpec(2)
F5 = FieldSpec(5)


def _examples():
    """One representative object per document kind."""
    w = Window(-1, 4)
    m = interval_to_module(Interval(0, 2), w, F5)
    n = interval_to_module(Interval(1, 3), w, F5)
    f, g = canonical_pair(Interval(0, 2), Interval(1, 3), 1, w, F5)
    lam = lambda_eps(w, 1)
    x = Interleaving(m, n, lam, f, g)
    i02, i13, i55 = Interval(0, 2), Interval(1, 3), Interval(5, 5)
    s = Matching(Barcode([i02, i55]), Barcode([i13]), [(i02, i13)], 1)
    wm = chain_representation(
        window_chain(Window(0, 3)), F5, (1, 0, 2, 2),
        [Matrix(F5, 0, 1, []),
         Matrix(F5, 2, 0, [[], []]),
         Matrix(F5, 2, 2, [[1, 2], [0, 3]])])
    return {
        "proset": proset_from_pairs(3, [(0, 1), (1, 0)], labels=("a", "b", "c")),
        "translation": Translation(chain(3), (1, 2, 2)),
        "height": HeightFunction(chain(3), [0, Fraction(1, 2), 7]),
        "representation": m,
        # the canonical map M -> M(lam), with component M(i <= lam(i)) at i
        "nattrans": NatTrans(m, precompose(m, lam),
                             [m.map(i, lam(i)) for i in range(w.size)]),
        "interleaving": x,
        "barcode": Barcode([Interval(0, 1), Interval(0, 1),
                            Interval(NEG_INF, 3), Interval(2, POS_INF)]),
        "matching": s,
        "decomposed_rep": matching_to_rep(s, Window(-2, 7)),
        "window_module": (Window(0, 3), wm),
    }


def test_every_kind_round_trips():
    examples = _examples()
    assert set(examples) == set(KINDS)
    for kind, obj in examples.items():
        text = save_document(kind, obj)
        assert text == json.dumps(document_dict(kind, obj), indent=2) + "\n"
        got_kind, loaded = load_document(text)
        assert got_kind == kind
        if kind == "window_module":
            assert tuple(loaded) == tuple(obj)
        else:
            assert loaded == obj


def test_output_is_byte_stable():
    for kind, obj in _examples().items():
        text = save_document(kind, obj)
        _, loaded = load_document(text)
        assert save_document(kind, loaded) == text
        assert text.endswith("\n")
        assert json.loads(text)["version"] == "1"


# the writer: _dumps against json.dumps(obj, indent=2)

_AWKWARD = ["", "\n]", "],[", "],\n  [", '"],\n    ["', "\\", "\x00\t", "é", "日本語", "💡"]
_SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(-10 ** 40, 10 ** 40), st.integers(-3, 3),
    st.floats(), st.sampled_from(_AWKWARD), st.text(max_size=6))
# matrices of 0 to 3 columns, so 0-column ones and lists of empty lists
# occur, as lists or as tuples, the way a Matrix holds its entries
_MATRICES = st.integers(0, 3).flatmap(
    lambda cols: st.lists(st.lists(_SCALARS, min_size=cols, max_size=cols), max_size=3))
_MATRICES = _MATRICES | _MATRICES.map(lambda rows: tuple(map(tuple, rows)))
_TREES = st.recursive(
    _SCALARS | _MATRICES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        st.lists(st.lists(kids | _SCALARS, max_size=3), max_size=3),
        st.dictionaries(st.sampled_from(_AWKWARD) | st.text(max_size=4), kids,
                        max_size=3)),
    max_leaves=24)


@settings(max_examples=400)
@given(_TREES)
def test_writer_matches_the_indenting_encoder(obj):
    assert _dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [
    [], {}, [[]], [[], []], [{}], {"a": []}, {"a": {}}, [[[]]], [[[], []]],
    {"a": [[], [[]], {"b": [{}]}]}, [[1, [2]], [3]], [[1, 2], []], [[], [1]],
    [[1, {"x": 2}], ["y"]], [1, [2, 3], [[4]]], [[[1, 2], [3, 4]], [[5, 6]]],
    (), ((),), ((1, 2), (3, 4)), ((1,), [2]), ("a", ("b",)), [(1, 2), ()],
    ["\n]", "],[", "],\n  [", "é日本"], [["],\n    [", "\n]"], ["é", "],["]],
    [True, False, None, -7, 10 ** 40, -10 ** 40, 0.1, -0.0, 1e300,
     float("inf"), float("-inf"), float("nan")],
    "x", 3, None, 2.5, {"é": "],[", "": [[None]]},
], ids=repr)
def test_writer_matches_on_edge_cases(obj):
    assert _dumps(obj) == json.dumps(obj, indent=2)


def test_no_indenting_dumps_is_left_in_the_package():
    """json.dumps with indent= takes the pure-Python encoder; the package
    writes every indented document through docio._dumps."""
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "shoelace").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("dumps", "dump")):
                assert all(k.arg != "indent" for k in node.keywords), path.name


def test_infinite_matching_round_trips():
    inf1, inf0 = Interval(1, POS_INF), Interval(0, POS_INF)
    s = Matching(Barcode([inf1]), Barcode([inf0]), [(inf1, inf0)], 1)
    text = save_document("matching", s)
    assert '"+inf"' in text
    _, loaded = load_document(text)
    assert loaded == s


def test_mutated_documents_raise_only_document_errors():
    """Seeded character edits of a valid document of each kind: loading
    either succeeds or raises one of the two document errors."""
    rng = random.Random(0)
    alphabet = '0123456789-+" {}[],:.eE/infatrulsd\\'
    for kind, obj in sorted(_examples().items()):
        text = json.dumps(document_dict(kind, obj))
        for _ in range(1000):
            chars = list(text)
            for _ in range(rng.randint(1, 3)):
                pos = rng.randrange(len(chars))
                op = rng.random()
                if op < 0.4:
                    chars[pos] = rng.choice(alphabet)
                elif op < 0.7:
                    chars.insert(pos, rng.choice(alphabet))
                else:
                    del chars[pos]
            try:
                load_document("".join(chars))
            except (DocumentFormatError, DocumentValidationError):
                pass


def test_envelope_errors():
    with pytest.raises(DocumentFormatError, match="not valid JSON"):
        load_document("{nope")
    with pytest.raises(DocumentFormatError, match="JSON object"):
        load_document("[1, 2]")
    with pytest.raises(DocumentFormatError, match="unknown document kind"):
        load_document('{"kind": "cheese", "version": "1", "payload": {}}')
    with pytest.raises(DocumentFormatError, match="unsupported version"):
        load_document('{"kind": "proset", "version": "2", "payload": {}}')
    with pytest.raises(DocumentFormatError, match="missing its payload"):
        load_document('{"kind": "proset", "version": "1"}')
    with pytest.raises(DocumentFormatError, match="unknown document kind"):
        document_dict("cheese", None)


def test_deeply_nested_json_is_a_format_error():
    for text in ("[" * 200_000, '{"a": ' * 200_000):
        with pytest.raises(DocumentFormatError, match="nested too deeply"):
            load_document(text)


def _doc(kind, payload):
    return json.dumps({"kind": kind, "version": "1", "payload": payload})


def test_proset_payload_errors():
    with pytest.raises(DocumentFormatError, match="missing 'n'"):
        load_document(_doc("proset", {"rel": []}))
    with pytest.raises(DocumentFormatError, match="bad proset payload"):
        load_document(_doc("proset", {"n": 2, "rel": [[1, 0]], "labels": None}))
    not_transitive = {"n": 3, "labels": None,
                      "rel": [[1, 1, 0], [0, 1, 1], [0, 0, 1]]}
    with pytest.raises(DocumentValidationError, match="invalid proset"):
        load_document(_doc("proset", not_transitive))
    with pytest.raises(DocumentFormatError, match="must be an integer"):
        load_document(_doc("proset", {"n": True, "rel": [[1]]}))


def test_translation_payload_errors():
    base = {"n": 2, "labels": None, "rel": [[1, 1], [0, 1]]}
    with pytest.raises(DocumentFormatError, match="bad translation payload"):
        load_document(_doc("translation", {"base": base, "mapping": [0]}))
    with pytest.raises(DocumentValidationError, match="invalid translation"):
        load_document(_doc("translation", {"base": base, "mapping": [0, 0]}))


@pytest.mark.parametrize("entry", [True, False, 2, -1, 1.0, "1", None, [1]],
                         ids=repr)
def test_proset_relation_entries_are_zero_or_one(entry):
    # the saver writes 0 and 1, so anything else would not round-trip
    rel = [[1, 1], [0, 1]]
    rel[0][1] = entry
    with pytest.raises(DocumentFormatError, match=re.escape(
            f"bad proset payload: relation entries must be 0 or 1, got {entry!r}")):
        load_document(_doc("proset", {"n": 2, "labels": None, "rel": rel}))


@pytest.mark.parametrize("entry", [True, 1.0, 1.5, "1", None], ids=repr)
def test_translation_mapping_entries_are_integers(entry):
    base = {"n": 2, "labels": None, "rel": [[1, 1], [0, 1]]}
    with pytest.raises(DocumentFormatError, match=re.escape(
            f"bad translation payload: mapping entries must be integers, "
            f"got {entry!r}")):
        load_document(_doc("translation", {"base": base, "mapping": [entry, 1]}))


_MATRICES_OF = {
    "representation": lambda payload: [m["entries"] for m in payload["maps"]],
    "nattrans": lambda payload: payload["components"],
    "interleaving": lambda payload: payload["phi"],
    "window_module": lambda payload: payload["steps"],
}


@pytest.mark.parametrize("kind", sorted(_MATRICES_OF))
@pytest.mark.parametrize("entry", [True, 1.0, "1", None], ids=repr)
def test_matrix_entries_are_integers_in_every_kind(kind, entry):
    # through JSON, as document_dict holds a matrix's own tuples
    doc = json.loads(json.dumps(document_dict(kind, _examples()[kind])))
    matrix = next(m for m in _MATRICES_OF[kind](doc["payload"]) if m and m[0])
    matrix[0][0] = entry
    with pytest.raises(DocumentFormatError, match=re.escape(
            f": matrix entries must be integers, got {entry!r}")) as e:
        load_document(json.dumps(doc))
    assert str(e.value).startswith("bad matrix for ")


def test_height_payload_errors():
    base = {"n": 2, "labels": None, "rel": [[1, 1], [0, 1]]}
    with pytest.raises(DocumentFormatError, match="bad height values"):
        load_document(_doc("height", {"proset": base, "values": ["1", "x"]}))
    with pytest.raises(DocumentValidationError, match="invalid height"):
        load_document(_doc("height", {"proset": base, "values": ["1", "0"]}))


@pytest.mark.parametrize("label", [1, True, 1.5, None, ["a"]], ids=repr)
def test_proset_labels_are_strings(label):
    # the saver writes strings; Proset would keep str(label)
    with pytest.raises(DocumentFormatError, match=re.escape(
            f"bad proset payload: labels must be strings, got {label!r}")):
        load_document(_doc("proset", {"n": 2, "labels": ["a", label],
                                      "rel": [[1, 1], [0, 1]]}))
    with pytest.raises(DocumentFormatError, match="labels must be a list"):
        load_document(_doc("proset", {"n": 2, "labels": "ab", "rel": [[1, 1], [0, 1]]}))


@pytest.mark.parametrize("value", [
    0.5, 1.0, True, False, None, [1], 2, "0.5", " 2/4 ", "2/4", "+1", "1/1",
    "-0", "1_0", "", "x", "1/0"], ids=repr)
def test_height_values_are_integers_or_strings(value):
    # the saver writes str(Fraction(v)); 2, 0.5 or "2/4" would come back as
    # "2", "1/2" or "1/2", so only the saved strings load
    base = {"n": 2, "labels": None, "rel": [[1, 1], [0, 1]]}
    with pytest.raises(DocumentFormatError, match=re.escape(
            f"bad height values: values must be written as str(Fraction(v)), "
            f"such as \"2\" or \"-1/3\", got {value!r}")):
        load_document(_doc("height", {"proset": base, "values": [value, "7"]}))


def test_height_values_keep_integers_and_the_saved_strings():
    base = {"n": 3, "labels": ["x", "y", "z"], "rel": [[1, 1, 1], [0, 1, 1], [0, 0, 1]]}
    doc = _doc("height", {"proset": base, "values": ["-2", "-1/3", "7"]})
    kind, h = load_document(doc)
    assert kind == "height" and h.proset.labels == ("x", "y", "z")
    assert h.values == (-2, Fraction(-1, 3), 7)
    assert json.loads(save_document("height", h))["payload"]["values"] == [
        "-2", "-1/3", "7"]


def _monotone(p, values):
    """The reference: values[i] <= values[j] for every related pair."""
    return all(values[i] <= values[j] for (i, j) in p.related_pairs)


@st.composite
def _prosets_with_values(draw, values):
    """A proset on as many points as the drawn values, from random pairs."""
    vals = draw(st.lists(values, min_size=1, max_size=5))
    points = st.integers(0, len(vals) - 1)
    pairs = draw(st.lists(st.tuples(points, points), max_size=2 * len(vals)))
    return proset_from_pairs(len(vals), pairs), vals


_HEIGHT_VALUES = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)


@settings(max_examples=300, deadline=None)
@given(_prosets_with_values(_HEIGHT_VALUES))
def test_a_height_is_exactly_a_monotone_value_list(case):
    p, values = case
    if _monotone(p, values):
        assert HeightFunction(p, values).values == tuple(values)
    else:
        with pytest.raises(ValueError, match="^invalid height: not monotone: "):
            HeightFunction(p, values)
    with pytest.raises(ValueError, match=(
            f"^invalid height: expected {p.n} heights, got {p.n - 1}$")):
        HeightFunction(p, values[1:])


@settings(max_examples=300, deadline=None)
@given(_prosets_with_values(_HEIGHT_VALUES.map(str) | st.sampled_from(
    ["0", "-1", "7", "1/2", "-1/3", "2/4", "+1", "0.5", " 1", "x", "1/0"])))
def test_every_height_document_that_loads_saves_back_byte_for_byte(case):
    p, values = case
    proset = document_dict("proset", p)["payload"]
    text = _dumps({"kind": "height", "version": "1",
                   "payload": {"proset": proset, "values": values}}) + "\n"
    try:
        _, h = load_document(text)
    except DocumentFormatError as e:
        assert str(e).startswith("bad height values: ")
        return
    except DocumentValidationError as e:
        assert str(e).startswith("invalid height: not monotone: ")
        return
    assert save_document("height", h) == text


def test_representation_payload_errors():
    good = document_dict("representation",
                         chain_representation(chain(3), F2, (1, 1, 1),
                                              [Matrix(F2, 1, 1, [[1]])] * 2))
    broken = json.loads(json.dumps(good))
    for item in broken["payload"]["maps"]:
        if item["src"] == 0 and item["dst"] == 2:
            item["entries"] = [[0]]
    with pytest.raises(DocumentValidationError, match="invalid representation"):
        load_document(json.dumps(broken))
    bad_shape = json.loads(json.dumps(good))
    bad_shape["payload"]["maps"][0]["entries"] = [[1, 1]]
    with pytest.raises(DocumentFormatError, match="bad matrix"):
        load_document(json.dumps(bad_shape))
    out_of_range = json.loads(json.dumps(good))
    out_of_range["payload"]["maps"][0]["dst"] = 9
    with pytest.raises(DocumentFormatError, match="out of range"):
        load_document(json.dumps(out_of_range))
    not_prime = json.loads(json.dumps(good))
    not_prime["payload"]["prime"] = 4
    with pytest.raises(DocumentValidationError):
        load_document(json.dumps(not_prime))
    missing_pair = json.loads(json.dumps(good))
    missing_pair["payload"]["maps"] = missing_pair["payload"]["maps"][:-1]
    with pytest.raises(DocumentValidationError, match="inconsistent"):
        load_document(json.dumps(missing_pair))


@pytest.mark.parametrize("drop, zeroed", [((0, 1), None), ((0, 2), (1, 1))],
                         ids=["generating_edge", "non_edge_and_not_functorial"])
def test_representation_document_lacking_a_related_pair(drop, zeroed):
    """Coverage is checked before construction, so neither a missing edge
    nor a broken functor elsewhere takes the report."""
    doc = document_dict("representation",
                        chain_representation(chain(3), F2, (1, 1, 1),
                                             [Matrix(F2, 1, 1, [[1]])] * 2))
    maps = doc["payload"]["maps"]
    maps[:] = [item for item in maps if (item["src"], item["dst"]) != drop]
    for item in maps:
        if (item["src"], item["dst"]) == zeroed:
            item["entries"] = [[0]]
    with pytest.raises(DocumentValidationError, match=re.escape(
            "inconsistent representation: maps must cover exactly the related "
            f"pairs; missing [{drop}]")):
        load_document(json.dumps(doc))


def test_nattrans_payload_errors():
    m = chain_representation(chain(2), F5, (1, 1), [Matrix(F5, 1, 1, [[1]])])
    good = document_dict("nattrans", zero_nat(m, m))
    wrong_prime = json.loads(json.dumps(good))
    wrong_prime["payload"]["prime"] = 3
    with pytest.raises(DocumentValidationError, match="differs from its endpoints"):
        load_document(json.dumps(wrong_prime))
    short = json.loads(json.dumps(good))
    short["payload"]["components"] = short["payload"]["components"][:1]
    with pytest.raises(DocumentFormatError, match="expected 2 components"):
        load_document(json.dumps(short))
    unnatural = json.loads(json.dumps(good))
    unnatural["payload"]["components"] = [[[1]], [[2]]]
    with pytest.raises(DocumentValidationError, match="invalid nattrans"):
        load_document(json.dumps(unnatural))


def test_interleaving_payload_errors():
    w = Window(-1, 4)
    m = interval_to_module(Interval(0, 2), w)
    n = interval_to_module(Interval(1, 3), w)
    lam = lambda_eps(w, 1)
    f, g = canonical_pair(Interval(0, 2), Interval(1, 3), 1, w)
    good = document_dict("interleaving", Interleaving(m, n, lam, f, g))
    # an invalid interleaving cannot be built, so its document is edited
    zeros = json.loads(json.dumps(good))
    for side in ("phi", "psi"):
        zeros["payload"][side] = [[[0] * len(row) for row in c]
                                  for c in zeros["payload"][side]]
    with pytest.raises(DocumentValidationError,
                       match="^invalid interleaving: triangle for M fails at 0$"):
        load_document(json.dumps(zeros))
    unnatural = json.loads(json.dumps(good))
    unnatural["payload"]["phi"][3] = [[0]]
    with pytest.raises(DocumentValidationError, match="^invalid interleaving: "
                       "phi: naturality fails over 1 <= 2$"):
        load_document(json.dumps(unnatural))
    mismatched = json.loads(json.dumps(good))
    mismatched["payload"]["translation"]["base"] = {
        "n": 2, "labels": None, "rel": [[1, 1], [0, 1]]}
    mismatched["payload"]["translation"]["mapping"] = [1, 1]
    with pytest.raises(DocumentValidationError, match="translation's proset"):
        load_document(json.dumps(mismatched))
    short = json.loads(json.dumps(good))
    short["payload"]["phi"] = short["payload"]["phi"][:2]
    with pytest.raises(DocumentFormatError, match="number of interleaving"):
        load_document(json.dumps(short))


def test_barcode_payload_errors():
    with pytest.raises(DocumentValidationError, match="multiplicity"):
        load_document(_doc("barcode",
                           {"intervals": [{"lo": 0, "hi": 1, "count": 0}]}))
    with pytest.raises(DocumentValidationError, match="bad interval"):
        load_document(_doc("barcode",
                           {"intervals": [{"lo": 3, "hi": 0, "count": 1}]}))
    with pytest.raises(DocumentFormatError, match="missing 'count'"):
        load_document(_doc("barcode", {"intervals": [{"lo": 0, "hi": 1}]}))


def test_matching_payload_errors():
    payload = {
        "epsilon": 1,
        "source": {"intervals": []},
        "target": {"intervals": []},
        "pairs": [{"left": {"lo": 0, "hi": 1}, "right": {"lo": 0, "hi": 1}}],
    }
    with pytest.raises(DocumentValidationError, match="invalid matching"):
        load_document(_doc("matching", payload))
    bad_eps = dict(payload, epsilon=True, pairs=[])
    with pytest.raises(DocumentFormatError, match="must be an integer"):
        load_document(_doc("matching", bad_eps))


def test_decomposed_payload_errors():
    payload = {
        "prime": 2,
        "window": {"lo": -4, "hi": 9},
        "epsilon": 1,
        "summands": [{"left": {"lo": 0, "hi": 5}, "right": None}],
    }
    with pytest.raises(DocumentValidationError, match="invalid decomposed_rep"):
        load_document(_doc("decomposed_rep", payload))
    with pytest.raises(DocumentFormatError, match="missing 'right'"):
        load_document(_doc("decomposed_rep", dict(payload, summands=[{
            "left": None}])))


def test_window_module_payload_errors():
    payload = {
        "prime": 2,
        "window": {"lo": 0, "hi": 2},
        "dims": [1, 1],
        "steps": [[[1]], [[1]]],
    }
    with pytest.raises(DocumentValidationError, match="expected 3 dims"):
        load_document(_doc("window_module", payload))
    wrong_steps = dict(payload, dims=[1, 1, 1], steps=[[[1]]])
    with pytest.raises(DocumentFormatError, match="step matrices"):
        load_document(_doc("window_module", wrong_steps))
    bad_window = dict(payload, window={"lo": 2, "hi": 0})
    with pytest.raises(DocumentValidationError, match="empty window"):
        load_document(json.dumps(
            {"kind": "window_module", "version": "1", "payload": bad_window}))


def test_non_list_fields_are_format_errors():
    for kind, payload in (
            ("barcode", {"intervals": None}),
            ("matching", {"epsilon": 1, "source": {"intervals": 3}}),
            ("decomposed_rep", {"prime": 2, "window": {"lo": 0, "hi": 4},
                                "epsilon": 1, "summands": 5}),
            ("window_module", {"prime": 2, "window": {"lo": 0, "hi": 2},
                               "dims": 3, "steps": []}),
            ("window_module", {"prime": 2, "window": {"lo": 0, "hi": 2},
                               "dims": [1, 1, 1], "steps": 4})):
        with pytest.raises(DocumentFormatError, match="must be a list"):
            load_document(_doc(kind, payload))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.sampled_from(
        ["", "x", "-inf", "+inf", "1/2"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["n", "rel", "labels", "base", "mapping", "proset",
                         "values", "prime", "dims", "maps", "src", "dst",
                         "entries", "source", "target", "components",
                         "translation", "m", "phi", "psi", "intervals", "lo",
                         "hi", "count", "epsilon", "pairs", "left", "right",
                         "window", "summands", "steps"]),
        inner, max_size=4),
    max_leaves=8)


def _replaced(node, path, value):
    if not path:
        return value
    out = dict(node) if isinstance(node, dict) else list(node)
    out[path[0]] = _replaced(node[path[0]], path[1:], value)
    return out


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(KINDS)), st.data())
def test_random_payloads_raise_only_document_errors(kind, data):
    """Random payloads keyed by the real field names, and real payloads of
    each kind with one field, at a random depth, replaced by random JSON:
    loading either succeeds or raises one of the two document errors."""
    if data.draw(st.booleans()):
        payload = data.draw(_JSON)
    else:
        # through JSON, as document_dict holds the values' own tuples
        payload = json.loads(json.dumps(document_dict(kind, _examples()[kind])["payload"]))
        path, node = [], payload
        while (isinstance(node, (dict, list)) and node
               and (not path or data.draw(st.booleans()))):
            key = data.draw(st.sampled_from(
                sorted(node) if isinstance(node, dict) else range(len(node))))
            path.append(key)
            node = node[key]
        payload = _replaced(payload, path, data.draw(_JSON))
    try:
        load_document(_doc(kind, payload))
    except (DocumentFormatError, DocumentValidationError):
        pass
