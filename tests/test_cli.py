import hashlib
import json
import time

import pytest

from shoelace import selftest, zed
from shoelace.cli import main
from shoelace.docio import load_document, save_document
from shoelace.exactlin import FieldSpec
from shoelace.interleave import (
    Interleaving,
    scale_interleaving,
    square_interleave,
    untwist_square,
    upgrade_interleaving,
)
from shoelace.proset import (
    Proset,
    Translation,
    chain,
    induced_translation,
    iso_pairs,
    shoelace,
)
from shoelace.rep import chain_representation
from shoelace.exactlin import Matrix
from shoelace.zed import (
    MAX_BARCODE_BARS,
    MAX_POINT_DIM,
    Barcode,
    Interval,
    Matching,
    Window,
    barcode,
    canonical_pair,
    expand_decomposed,
    find_matching,
    interval_to_module,
    is_essential,
    lambda_eps,
    matching_to_rep,
    rep_to_matching,
    window_chain,
)

F2 = FieldSpec(2)
F5 = FieldSpec(5)
W = Window(-1, 4)


def _write(tmp_path, name, kind, obj):
    path = tmp_path / name
    path.write_text(save_document(kind, obj), encoding="utf-8")
    return str(path)


def _overlap(field=F2):
    m = interval_to_module(Interval(0, 2), W, field)
    n = interval_to_module(Interval(1, 3), W, field)
    f, g = canonical_pair(Interval(0, 2), Interval(1, 3), 1, W, field)
    return Interleaving(m, n, lambda_eps(W, 1), f, g)


def test_validate_ok(tmp_path, capsys):
    path = _write(tmp_path, "p.json", "proset", chain(3))
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out == "ok: proset\n"


def test_validate_format_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope", encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_validate_deeply_nested_json_exits_two(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: not valid JSON: nested too deeply\n"


def test_validate_validation_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    doc = {"kind": "proset", "version": "1",
           "payload": {"n": 3, "labels": None,
                       "rel": [[1, 1, 0], [0, 1, 1], [0, 0, 1]]}}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert "invalid proset" in capsys.readouterr().err


def test_validate_a_full_relation_of_600_points(tmp_path, capsys):
    """A 1 MB proset document validates in bitset time, and one removed
    entry is refused with the triple loop's report."""
    from test_proset import reference_validate_proset

    n = 600
    rel = [[1] * n for _ in range(n)]
    path = tmp_path / "full.json"
    path.write_text(json.dumps({"kind": "proset", "version": "1", "payload": {
        "n": n, "labels": None, "rel": rel}}), encoding="utf-8")
    start = time.perf_counter()
    assert main(["validate", str(path)]) == 0
    assert time.perf_counter() - start < 3
    assert capsys.readouterr().out == "ok: proset\n"
    rel[5][123] = 0
    path.write_text(json.dumps({"kind": "proset", "version": "1", "payload": {
        "n": n, "labels": None, "rel": rel}}), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    report = reference_validate_proset(Proset._trusted(
        n, tuple(sum(1 << j for j, x in enumerate(row) if x) for row in rel), None))
    assert report == "not transitive: 5 <= 0 <= 123 but 5 !<= 123"
    assert capsys.readouterr().err == f"error: invalid proset: {report}\n"


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_refuses_a_file_that_is_not_utf8_in_one_line(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"kind": "proset"}'.encode("utf-16-le"))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: not UTF-8 text: invalid start byte at byte 0\n")


def test_shoelace_worked_example(tmp_path, capsys):
    p = chain(3, labels=("1", "2", "3"))
    t = Translation(p, (1, 2, 2))
    out = tmp_path / "carrier.json"
    code = main(["shoelace",
                 "--proset", _write(tmp_path, "p.json", "proset", p),
                 "--translation", _write(tmp_path, "t.json", "translation", t),
                 "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    kind, sh = load_document(out.read_text(encoding="utf-8"))
    assert kind == "proset"
    assert sh.n == 6
    assert sum(u.bit_count() for u in sh.up) == 20
    assert iso_pairs(sh) == frozenset({frozenset({2, 5})})
    assert sh.label(5) == "3'"


def test_shoelace_defaults_to_stdout(tmp_path, capsys):
    p = chain(2)
    t = Translation(p, (1, 1))
    code = main(["shoelace",
                 "--proset", _write(tmp_path, "p.json", "proset", p),
                 "--translation", _write(tmp_path, "t.json", "translation", t)])
    assert code == 0
    kind, sh = load_document(capsys.readouterr().out)
    assert kind == "proset" and sh.n == 4


def test_shoelace_base_mismatch(tmp_path, capsys):
    code = main(["shoelace",
                 "--proset", _write(tmp_path, "p.json", "proset", chain(2)),
                 "--translation", _write(tmp_path, "t.json", "translation",
                                         Translation(chain(3), (1, 2, 2)))])
    assert code == 1
    assert "not over the given proset" in capsys.readouterr().err


def test_induce_plain_and_twist(tmp_path):
    p = chain(3)
    lam = Translation(p, (1, 2, 2))
    lam_path = _write(tmp_path, "lam.json", "translation", lam)
    sh = shoelace(p, lam)
    for flag, twist in ((["--twist"], True), ([], False)):
        out = tmp_path / f"lift{twist}.json"
        code = main(["induce", "--shoelace", lam_path, "--gamma", lam_path,
                     "--out", str(out)] + flag)
        assert code == 0
        _, got = load_document(out.read_text(encoding="utf-8"))
        assert got == induced_translation(sh, lam, twist=twist)


def test_induce_base_mismatch(tmp_path, capsys):
    lam = _write(tmp_path, "lam.json", "translation",
                 Translation(chain(3), (1, 2, 2)))
    gamma = _write(tmp_path, "g.json", "translation",
                   Translation(chain(2), (1, 1)))
    assert main(["induce", "--shoelace", lam, "--gamma", gamma]) == 1
    assert "different prosets" in capsys.readouterr().err


def test_pack_then_unpack_round_trips(tmp_path, capsys):
    x = _overlap()
    x_path = _write(tmp_path, "x.json", "interleaving", x)
    packed = tmp_path / "packed.json"
    assert main(["pack", "--interleaving", x_path, "--out", str(packed)]) == 0
    kind, _v = load_document(packed.read_text(encoding="utf-8"))
    assert kind == "representation"
    lam_path = _write(tmp_path, "lam.json", "translation", lambda_eps(W, 1))
    assert main(["unpack", "--rep", str(packed),
                 "--translation", lam_path]) == 0
    assert capsys.readouterr().out == save_document("interleaving", x)


def test_unpack_rejects_wrong_carrier(tmp_path, capsys):
    m = chain_representation(chain(2), F2, (1, 1), [Matrix(F2, 1, 1, [[1]])])
    code = main(["unpack",
                 "--rep", _write(tmp_path, "m.json", "representation", m),
                 "--translation", _write(tmp_path, "lam.json", "translation",
                                         lambda_eps(W, 1))])
    assert code == 1
    assert "shoelace carrier" in capsys.readouterr().err


def test_square_plain_and_untwisted(tmp_path):
    a = _overlap(F5)
    b = scale_interleaving(a, 4)
    a_path = _write(tmp_path, "a.json", "interleaving", a)
    b_path = _write(tmp_path, "b.json", "interleaving", b)
    for flag, expect in (([], square_interleave(a, b)),
                         (["--untwist"], untwist_square(a, b))):
        out = tmp_path / f"sq{bool(flag)}.json"
        code = main(["square", "--a", a_path, "--b", b_path,
                     "--out", str(out)] + flag)
        assert code == 0
        assert out.read_text(encoding="utf-8") == save_document(
            "interleaving", expect)


def test_square_rejects_mismatched_pair(tmp_path, capsys):
    a_path = _write(tmp_path, "a.json", "interleaving", _overlap())
    m = interval_to_module(Interval(1, 3), W, F2)
    n = interval_to_module(Interval(0, 2), W, F2)
    f, g = canonical_pair(Interval(1, 3), Interval(0, 2), 1, W, F2)
    swapped = Interleaving(m, n, lambda_eps(W, 1), f, g)
    b_path = _write(tmp_path, "b.json", "interleaving", swapped)
    assert main(["square", "--a", a_path, "--b", b_path]) == 1
    assert "same M and N" in capsys.readouterr().err


def test_upgrade_and_refusal(tmp_path, capsys):
    x = _overlap()
    x_path = _write(tmp_path, "x.json", "interleaving", x)
    gamma2 = _write(tmp_path, "g2.json", "translation", lambda_eps(W, 2))
    out = tmp_path / "up.json"
    assert main(["upgrade", "--interleaving", x_path, "--gamma", gamma2,
                 "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == save_document(
        "interleaving", upgrade_interleaving(x, lambda_eps(W, 2)))
    gamma0 = _write(tmp_path, "g0.json", "translation", lambda_eps(W, 0))
    assert main(["upgrade", "--interleaving", x_path, "--gamma", gamma0]) == 1
    assert "lam <= gamma" in capsys.readouterr().err


def test_barcode_boundaries(tmp_path):
    w = Window(0, 2)
    m = chain_representation(window_chain(w), F2, (1, 2, 1),
                             [Matrix(F2, 2, 1, [[1], [0]]),
                              Matrix(F2, 1, 2, [[0, 1]])])
    mod_path = _write(tmp_path, "m.json", "window_module", (w, m))
    for boundary in ("finite", "infinite"):
        out = tmp_path / f"b_{boundary}.json"
        code = main(["barcode", "--module", mod_path,
                     "--boundary", boundary, "--out", str(out)])
        assert code == 0
        assert out.read_text(encoding="utf-8") == save_document(
            "barcode", barcode(m, w, boundary=boundary))
    _, finite = load_document(
        (tmp_path / "b_finite.json").read_text(encoding="utf-8"))
    assert finite == Barcode([Interval(0, 1), Interval(1, 2)])


def test_match_check(tmp_path, capsys):
    i02, i13 = Interval(0, 2), Interval(1, 3)
    ok = Matching(Barcode([i02]), Barcode([i13]), [(i02, i13)], 1)
    assert main(["match-check", "--matching",
                 _write(tmp_path, "s.json", "matching", ok)]) == 0
    assert capsys.readouterr().out == "ok\n"
    i00, i11 = Interval(0, 0), Interval(1, 1)
    loose = Matching(Barcode([i00]), Barcode([i11]), [(i00, i11)], 2)
    assert is_essential(loose)
    path = _write(tmp_path, "loose.json", "matching", loose)
    assert main(["match-check", "--matching", path]) == 0
    assert main(["match-check", "--matching", path, "--essential"]) == 1
    assert "violates the overlap condition" in capsys.readouterr().err


def test_match_to_rep_and_back(tmp_path, capsys):
    i02, i13, i55 = Interval(0, 2), Interval(1, 3), Interval(5, 5)
    s = Matching(Barcode([i02, i55]), Barcode([i13]), [(i02, i13)], 1)
    s_path = _write(tmp_path, "s.json", "matching", s)
    out = tmp_path / "l.json"
    code = main(["match-to-rep", "--matching", s_path, "--window=-2:7",
                 "--prime", "5", "--out", str(out)])
    assert code == 0
    expected = matching_to_rep(s, Window(-2, 7), "essential_F", F5)
    assert out.read_text(encoding="utf-8") == save_document(
        "decomposed_rep", expected)
    back = tmp_path / "back.json"
    assert main(["rep-to-match", "--decomposed", str(out),
                 "--out", str(back)]) == 0
    _, recovered = load_document(back.read_text(encoding="utf-8"))
    assert recovered == s
    expanded = tmp_path / "v.json"
    assert main(["expand", "--decomposed", str(out),
                 "--out", str(expanded)]) == 0
    assert expanded.read_text(encoding="utf-8") == save_document(
        "representation", expand_decomposed(expected))


def test_match_to_rep_fprime_variant(tmp_path):
    i00, i11 = Interval(0, 0), Interval(1, 1)
    star = Matching(Barcode([i00]), Barcode([i11]), [(i00, i11)], 2)
    s_path = _write(tmp_path, "s.json", "matching", star)
    out = tmp_path / "l.json"
    code = main(["match-to-rep", "--matching", s_path, "--window=-4:5",
                 "--variant", "Fprime", "--out", str(out)])
    assert code == 0
    expected = matching_to_rep(star, Window(-4, 5), "nonessential_Fprime")
    assert out.read_text(encoding="utf-8") == save_document(
        "decomposed_rep", expected)


# sha256 of each output of the README pipeline below, fixed before the
# certificate builders were merged; any change to these bytes is a format
# change
GOLDEN_PIPELINE = {
    "s_plain": "e3faf13b38adee3e0ad5340bba027e2e19ce61b594756dad00daa01c684120ac",
    "s_ess": "c0ac489a6b889294a75fbde805beed9cf11fa85bbe7e657fee51cb36af9f2c2f",
    "l_F_2": "64db8fa7f1756973bd585da5382b8cfb58a12b8aabad5c8ffa1db8c23c49adf3",
    "l_F_2147483647": "e8585d2d664ccfef4bcd547372cfdcbe5e578284872dda904cd2d3b73c4d44cc",
    "v_F_2": "2f139bb03dba9c0181b0005a1c8758f3ab8151ef7d937a231950b6a42ccbfdba",
    "v_F_2147483647": "f4de83c1263e14437ba5cbc2ab93ec7274cbcd629687f02f09720429d32e1a13",
    "back_F_2": "c0ac489a6b889294a75fbde805beed9cf11fa85bbe7e657fee51cb36af9f2c2f",
    "back_F_2147483647": "c0ac489a6b889294a75fbde805beed9cf11fa85bbe7e657fee51cb36af9f2c2f",
    "l_Fprime_2": "64db8fa7f1756973bd585da5382b8cfb58a12b8aabad5c8ffa1db8c23c49adf3",
    "l_Fprime_2147483647": "e8585d2d664ccfef4bcd547372cfdcbe5e578284872dda904cd2d3b73c4d44cc",
    "v_Fprime_2": "2f139bb03dba9c0181b0005a1c8758f3ab8151ef7d937a231950b6a42ccbfdba",
    "v_Fprime_2147483647": "f4de83c1263e14437ba5cbc2ab93ec7274cbcd629687f02f09720429d32e1a13",
    "back_Fprime_2": "c0ac489a6b889294a75fbde805beed9cf11fa85bbe7e657fee51cb36af9f2c2f",
    "back_Fprime_2147483647": "c0ac489a6b889294a75fbde805beed9cf11fa85bbe7e657fee51cb36af9f2c2f",
}


def test_readme_pipeline_golden_bytes(tmp_path):
    # infinite bars on both ends, a short pair that satisfies (*) and one,
    # [0,0] with [1,1] at eps 2, that fails it: the essential search leaves
    # that pair unmatched, and Fprime splits it when the plain search pairs it
    left = Barcode([Interval(0, 0), Interval(1, 6), Interval("-inf", 3),
                    Interval(3, "+inf"), Interval(7, 8)])
    right = Barcode([Interval(1, 1), Interval(2, 5), Interval("-inf", 4),
                     Interval(4, "+inf"), Interval(8, 9)])
    a = _write(tmp_path, "a.json", "barcode", left)
    b = _write(tmp_path, "b.json", "barcode", right)
    out = {}

    def run(name, args):
        path = tmp_path / name
        assert main(args + ["--out", str(path)]) == 0
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        return str(path)

    s = {"F": run("s_ess", ["find-matching", "--left", a, "--right", b,
                            "--epsilon", "2", "--essential"]),
         "Fprime": run("s_plain", ["find-matching", "--left", a, "--right", b,
                                   "--epsilon", "2"])}
    for p in (2, 2**31 - 1):
        for variant in ("F", "Fprime"):
            tag = f"{variant}_{p}"
            l_path = run(f"l_{tag}", ["match-to-rep", "--matching", s[variant],
                                      "--window=-4:13", "--variant", variant,
                                      "--prime", str(p)])
            run(f"v_{tag}", ["expand", "--decomposed", l_path])
            run(f"back_{tag}", ["rep-to-match", "--decomposed", l_path])
    assert out == GOLDEN_PIPELINE


def test_match_to_rep_bad_window(tmp_path, capsys):
    i01 = Interval(0, 1)
    s = Matching(Barcode([i01]), Barcode([i01]), [(i01, i01)], 0)
    s_path = _write(tmp_path, "s.json", "matching", s)
    assert main(["match-to-rep", "--matching", s_path, "--window", "4"]) == 2
    assert "window must be LO:HI" in capsys.readouterr().err
    assert main(["match-to-rep", "--matching", s_path,
                 "--window", "a:b"]) == 2
    assert "bad window" in capsys.readouterr().err


def test_validate_rejects_a_wide_window_in_one_line(tmp_path, capsys):
    # small and valid but for its width, which at 3001 points used to cost
    # seconds and hundreds of MiB
    doc = {"kind": "decomposed_rep", "version": "1",
           "payload": {"prime": 2, "window": {"lo": 0, "hi": 1024}, "epsilon": 1,
                       "summands": [{"left": {"lo": 2, "hi": 3},
                                     "right": {"lo": 2, "hi": 3}}]}}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == ("error: window [0, 1024] has 1025 points, "
                   "more than the limit of 1024\n")


@pytest.mark.parametrize("window, dims, steps, message", [
    ({"lo": 0, "hi": 0}, [3000], [],
     "window_module dimension 3000 at point 0"),
    ({"lo": 0, "hi": 1}, [10**6, 0], [[]],
     "window_module dimension 1000000 at point 0"),
])
def test_barcode_rejects_a_huge_dimension_in_one_line(tmp_path, capsys, window,
                                                      dims, steps, message):
    # about 100 bytes each; barcode used to build a dims x dims identity
    doc = {"kind": "window_module", "version": "1",
           "payload": {"prime": 2, "window": window, "dims": dims, "steps": steps}}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    assert main(["barcode", "--module", str(path)]) == 1
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == (
        f"error: {message} is more than the limit of {MAX_POINT_DIM}\n")


def _whole_line_pairs(tmp_path, count, hi):
    """A certificate of count two-sided (-inf,+inf) pairs on window 0:hi at
    eps 1: its expansion has dimension count at every carrier point."""
    whole = {"lo": "-inf", "hi": "+inf"}
    doc = {"kind": "decomposed_rep", "version": "1",
           "payload": {"prime": 2, "window": {"lo": 0, "hi": hi}, "epsilon": 1,
                       "summands": [{"left": whole, "right": whole}] * count}}
    path = tmp_path / f"pairs{count}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_expand_refuses_a_dimension_above_the_limit(tmp_path, capsys):
    over = _whole_line_pairs(tmp_path, MAX_POINT_DIM + 1, 7)
    start = time.perf_counter()
    assert main(["expand", "--decomposed", over]) == 1
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == (
        f"error: expansion has dimension {MAX_POINT_DIM + 1} at carrier point 0, "
        f"more than the limit of {MAX_POINT_DIM}\n")
    # at the limit the expansion loads back; a two-point window keeps its
    # document, which lists a dense map for every related pair, near 8 MB,
    # where window 0:7 would write 127 MB (see the 128-pair test below)
    at = _whole_line_pairs(tmp_path, MAX_POINT_DIM, 1)
    out = str(tmp_path / "v.json")
    assert main(["expand", "--decomposed", at, "--out", out]) == 0
    assert main(["validate", out]) == 0


def test_expand_and_validate_of_128_whole_line_pairs_on_a_wide_window(tmp_path, capsys):
    # the path products of the expansion and the checks of validate are
    # products of unit and zero rows; multiplied densely they took 8.5 s
    # and 14 s on a 2-core host, against 0.6 s each when mat_mul copies rows
    pairs = _whole_line_pairs(tmp_path, 128, 7)
    out = tmp_path / "v.json"
    start = time.perf_counter()
    assert main(["expand", "--decomposed", pairs, "--out", str(out)]) == 0
    middle = time.perf_counter()
    assert main(["validate", str(out)]) == 0
    end = time.perf_counter()
    data = out.read_bytes()
    assert len(data) == 31_865_466
    assert hashlib.sha256(data).hexdigest() == (
        "f28694efdf02cec77f1230bc17cba523785b3a60aa6caf93f88b2d855c3698fc")
    assert capsys.readouterr().out == "ok: representation\n"
    assert middle - start < 4 and end - middle < 4


def test_validate_rejects_a_huge_bar_count_in_one_line(tmp_path, capsys):
    # 100 bytes that used to expand to three million bars
    doc = {"kind": "barcode", "version": "1",
           "payload": {"intervals": [{"lo": 0, "hi": 1, "count": 3_000_000}]}}
    path = tmp_path / "many.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    assert main(["validate", str(path)]) == 1
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == (
        f"error: barcode has at least 3000000 bars, more than the limit of "
        f"{MAX_BARCODE_BARS}\n")


@pytest.mark.parametrize("end, shown", [
    (float("-inf"), "-inf (float)"), (float("nan"), "nan (float)"),
    (1.0, "1.0 (float)"), (True, "True (bool)"), (-10 ** 301, "+-10**300")],
    ids=["-Infinity", "NaN", "1.0", "true", "beyond-the-limit"])
def test_validate_refuses_non_integer_endpoints_in_one_line(tmp_path, capsys,
                                                            end, shown):
    # json writes the floats as -Infinity, NaN and 1.0; none is an endpoint,
    # and a float infinity must not pass for the string "-inf"
    doc = {"kind": "barcode", "version": "1",
           "payload": {"intervals": [{"lo": end, "hi": 5, "count": 1}]}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad interval in barcode: ") and shown in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("entry", ["1", 1.5, True, None])
def test_barcode_refuses_a_step_entry_that_is_not_an_integer(tmp_path, capsys, entry):
    # the saver writes integers, so anything else would not round-trip
    m = chain_representation(chain(2), F2, (1, 1), [Matrix(F2, 1, 1, [[1]])])
    doc = json.loads(save_document("window_module", (Window(0, 1), m)))
    doc["payload"]["steps"][0][0][0] = entry
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["barcode", "--module", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: bad matrix for step 0: matrix entries must be integers, "
        f"got {entry!r}\n")


def test_validate_refuses_labels_that_are_not_strings(tmp_path, capsys):
    # loaded as str(x), these labels would save as ["1", "True"]
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"kind": "proset", "version": "1", "payload": {
        "n": 2, "labels": [1, True], "rel": [[1, 1], [0, 1]]}}), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: bad proset payload: labels must be strings, got 1\n")


def test_validate_refuses_a_height_value_that_is_a_float(tmp_path, capsys):
    # loaded as Fraction(0.5), or 1 as Fraction(1), these values would
    # save as "1/2" and "1"
    path = tmp_path / "h.json"
    for value in (0.5, 1, "2/4"):
        path.write_text(json.dumps({"kind": "height", "version": "1", "payload": {
            "proset": {"n": 2, "labels": None, "rel": [[1, 1], [0, 1]]},
            "values": [value, "1"]}}), encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: bad height values: values must be written as str(Fraction(v)), "
            f"such as \"2\" or \"-1/3\", got {value!r}\n")


def test_find_matching_takes_an_epsilon_beyond_float_range(tmp_path, capsys):
    # an infinite lower end meets eps in the search; eps must not become a float
    whole = _write(tmp_path, "a.json", "barcode", Barcode([Interval("-inf", "+inf")]))
    assert main(["find-matching", "--left", whole, "--right", whole,
                 "--epsilon", str(10 ** 400)]) == 0
    _, s = load_document(capsys.readouterr().out)
    assert s.epsilon == 10 ** 400 and len(s.pairs) == 1


def test_match_to_rep_rejects_a_wide_window_flag(tmp_path, capsys):
    i01 = Interval(0, 1)
    s = Matching(Barcode([i01]), Barcode([i01]), [(i01, i01)], 0)
    s_path = _write(tmp_path, "s.json", "matching", s)
    assert main(["match-to-rep", "--matching", s_path,
                 "--window", "0:100000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad window '0:100000'")
    assert err.count("\n") == 1


def test_match_to_rep_refuses_a_prime_flag_that_is_no_prime(tmp_path, capsys):
    i01 = Interval(0, 1)
    s = Matching(Barcode([i01]), Barcode([i01]), [(i01, i01)], 0)
    s_path = _write(tmp_path, "s.json", "matching", s)
    for prime, why in (("4", "field characteristic 4 is not prime"),
                       ("1", "field characteristic 1 out of range [2, 2**31-1]")):
        assert main(["match-to-rep", "--matching", s_path, "--window", "0:3",
                     "--prime", prime]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: --prime: {why}\n")


def test_find_matching_refuses_a_negative_epsilon_in_one_line(tmp_path, capsys):
    bars = _write(tmp_path, "b.json", "barcode", Barcode([Interval(0, 2)]))
    assert main(["find-matching", "--left", bars, "--right", bars,
                 "--epsilon", "-1"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: --epsilon must be at least 0, got -1\n")


def test_window_flag_needs_equals_for_negative_lo(tmp_path):
    i01 = Interval(0, 1)
    s = Matching(Barcode([i01]), Barcode([i01]), [(i01, i01)], 0)
    s_path = _write(tmp_path, "s.json", "matching", s)
    # argparse reads a bare "-2:7" as an option, so the = form is required
    with pytest.raises(SystemExit) as exc:
        main(["match-to-rep", "--matching", s_path, "--window", "-2:7"])
    assert exc.value.code == 2


def test_find_matching_success_and_failure(tmp_path, capsys):
    left = _write(tmp_path, "l.json", "barcode", Barcode([Interval(0, 2)]))
    right = _write(tmp_path, "r.json", "barcode", Barcode([Interval(1, 3)]))
    assert main(["find-matching", "--left", left, "--right", right,
                 "--epsilon", "1"]) == 0
    expect = find_matching(Barcode([Interval(0, 2)]),
                           Barcode([Interval(1, 3)]), 1)
    assert capsys.readouterr().out == save_document("matching", expect)
    long = _write(tmp_path, "long.json", "barcode", Barcode([Interval(0, 9)]))
    empty = _write(tmp_path, "e.json", "barcode", Barcode([]))
    assert main(["find-matching", "--left", long, "--right", empty,
                 "--epsilon", "0"]) == 1
    assert "no matching at epsilon 0" in capsys.readouterr().err


def test_find_matching_failure_names_a_hall_witness(tmp_path, capsys):
    long = _write(tmp_path, "long.json", "barcode", Barcode([Interval(0, 9)]))
    empty = _write(tmp_path, "e.json", "barcode", Barcode([]))
    assert main(["find-matching", "--left", long, "--right", empty,
                 "--epsilon", "0"]) == 1
    assert capsys.readouterr().err == (
        "no matching at epsilon 0\n"
        "witness: 1 source bar(s) of length >= 2*eps ([0,9]) have 0 "
        "admissible target partner(s)\n")


def test_find_matching_runs_one_search_on_either_path(tmp_path, capsys,
                                                     monkeypatch):
    built = []
    init = zed._MatchingOracle.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(zed._MatchingOracle, "__init__", counting)
    long = _write(tmp_path, "long.json", "barcode",
                  Barcode([Interval(0, 9), Interval(2, 4)]))
    short = _write(tmp_path, "short.json", "barcode", Barcode([Interval(1, 3)]))
    for flags, word in (([], ""), (["--essential"], "essential ")):
        built.clear()
        assert main(["find-matching", "--left", long, "--right", short,
                     "--epsilon", "1", *flags]) == 1
        assert capsys.readouterr() == ("", (
            f"no {word}matching at epsilon 1\n"
            "witness: 1 source bar(s) of length >= 2*eps ([0,9]) have 0 "
            "admissible target partner(s)\n"))
        assert len(built) == 1
    built.clear()
    assert main(["find-matching", "--left", short, "--right", short,
                 "--epsilon", "1"]) == 0
    assert capsys.readouterr().err == ""
    assert len(built) == 1


def test_find_matching_non_list_intervals_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "barcode", "version": "1",
                               "payload": {"intervals": None}}), encoding="utf-8")
    empty = _write(tmp_path, "e.json", "barcode", Barcode([]))
    assert main(["find-matching", "--left", str(bad), "--right", empty,
                 "--epsilon", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: barcode intervals must be a list, got NoneType\n")


def test_find_matching_essential_drops_loose_pairs(tmp_path, capsys):
    left = _write(tmp_path, "l.json", "barcode", Barcode([Interval(0, 0)]))
    right = _write(tmp_path, "r.json", "barcode", Barcode([Interval(1, 1)]))
    assert main(["find-matching", "--left", left, "--right", right,
                 "--epsilon", "2", "--essential"]) == 0
    _, s = load_document(capsys.readouterr().out)
    assert s.pairs == ()
    assert is_essential(s) == []


def test_render_proset(tmp_path, capsys):
    p = chain(3, labels=("1", "2", "3"))
    sh = shoelace(p, Translation(p, (1, 2, 2)))
    path = _write(tmp_path, "sh.json", "proset", sh)
    assert main(["render", "--file", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph hasse {")
    assert '"3\'"' in out
    assert "constraint=false" in out


def test_render_decomposed(tmp_path, capsys):
    i02, i13 = Interval(0, 2), Interval(1, 3)
    s = Matching(Barcode([i02]), Barcode([i13]), [(i02, i13)], 1)
    l = matching_to_rep(s, Window(-2, 7))
    path = _write(tmp_path, "l.json", "decomposed_rep", l)
    assert main(["render", "--file", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph support {")
    assert '"summand 0"' in out


def test_render_rejects_other_kinds(tmp_path, capsys):
    path = _write(tmp_path, "b.json", "barcode", Barcode([Interval(0, 1)]))
    assert main(["render", "--file", path]) == 2
    assert "cannot render a barcode" in capsys.readouterr().err


def test_selftest_is_deterministic(tmp_path):
    argv = ["selftest", "--seed", "7", "--cases", "2"]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    text = first.read_text(encoding="utf-8")
    assert text == second.read_text(encoding="utf-8")
    rep = json.loads(text)
    assert rep["ok"] is True
    assert rep["seed"] == 7
    assert len(rep["suites"]) == 9
    assert rep == selftest.report(selftest.run_suites(7, cases=2), 7)


def test_selftest_timings_leave_stdout_and_the_report_unchanged(tmp_path, capsys):
    argv = ["selftest", "--seed", "7", "--cases", "2"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    timings = tmp_path / "t.json"
    assert main(argv + ["--timings", str(timings)]) == 0
    assert capsys.readouterr().out == plain
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second), "--timings", str(timings)]) == 0
    assert capsys.readouterr().out == ""
    assert first.read_bytes() == second.read_bytes() == plain.encode()
    rows = json.loads(timings.read_text(encoding="utf-8"))
    report = json.loads(plain)
    assert [(r["name"], r["cases"]) for r in rows] == [
        (s["name"], s["cases"]) for s in report["suites"]]
    assert all(list(r) == ["name", "cases", "elapsed_s"] for r in rows)
    assert all(type(r["elapsed_s"]) is float and r["elapsed_s"] >= 0 for r in rows)
    assert main(["selftest", "--suite", "worked_example", "--timings", str(timings)]) == 0
    capsys.readouterr()
    assert [r["name"] for r in json.loads(timings.read_text(encoding="utf-8"))] == [
        "worked_example"]


def test_selftest_single_suite(capsys):
    assert main(["selftest", "--suite", "worked_example"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert [s["name"] for s in rep["suites"]] == ["worked_example"]
    assert rep["suites"][0]["passed"] is True


def test_selftest_seed_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SHOELACE_SEED", "11")
    assert main(["selftest", "--cases", "1",
                 "--suite", "shoelace_wellformed"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 11
    assert main(["selftest", "--cases", "1", "--seed", "5",
                 "--suite", "shoelace_wellformed"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5
    monkeypatch.delenv("SHOELACE_SEED")
    assert main(["selftest", "--cases", "1",
                 "--suite", "shoelace_wellformed"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 42


def test_validate_reports_a_negative_matching_epsilon(tmp_path, capsys):
    i01 = Interval(0, 1)
    doc = json.loads(save_document(
        "matching", Matching(Barcode([i01]), Barcode([i01]), [(i01, i01)], 0)))
    doc["payload"]["epsilon"] = -1
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: inconsistent matching: epsilon must be a nonnegative integer, "
        "got -1\n")


@pytest.mark.parametrize("cases", ["-3", "0"])
def test_selftest_refuses_fewer_than_one_case(cases, capsys):
    assert main(["selftest", "--cases", cases, "--suite", "barcode_oracle"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --cases must be at least 1, got {cases}\n"


@pytest.mark.parametrize("cases", [-3, 0])
def test_run_suite_refuses_fewer_than_one_case(cases):
    with pytest.raises(ValueError, match=f"cases must be at least 1, got {cases}"):
        selftest.run_suite("barcode_oracle", 42, cases)
    with pytest.raises(ValueError, match="cases must be at least 1"):
        selftest.run_suites(42, cases=cases, only="worked_example")


def test_selftest_refuses_a_non_integer_seed_variable(monkeypatch, capsys):
    monkeypatch.setenv("SHOELACE_SEED", "abc")
    assert main(["selftest", "--cases", "1", "--suite", "worked_example"]) == 2
    assert capsys.readouterr().err == (
        "error: SHOELACE_SEED must be an integer, got 'abc'\n")


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--suite", "no_such_suite"])
    assert exc.value.code == 2
