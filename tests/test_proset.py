import pytest

from hypothesis import given
import hypothesis.strategies as st

from shoelace.proset import (
    HeightFunction,
    Proset,
    Translation,
    chain,
    compare_translations,
    compose_translations,
    identity_translation,
    induced_translation,
    iso_pairs,
    power_translation,
    proset_from_pairs,
    shoelace,
    validate_height,
    validate_proset,
    validate_translation,
)


def test_chain_is_valid():
    p = chain(4)
    assert validate_proset(p) is None
    assert p.rel[0][3]
    assert not p.rel[3][0]
    assert len(p.related_pairs) == 10


def test_transitivity_violation_reported():
    rel = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    p = Proset(3, rel)
    report = validate_proset(p)
    assert report is not None
    assert "transitiv" in report


def test_reflexivity_violation_reported():
    p = Proset(2, [[1, 1], [0, 0]])
    report = validate_proset(p)
    assert report is not None
    assert "reflexive" in report


def test_two_cycle_is_a_valid_proset():
    p = proset_from_pairs(2, [(0, 1), (1, 0)])
    assert validate_proset(p) is None
    assert p.rel[0][1] and p.rel[1][0]


def test_closure_fills_in_composites():
    p = proset_from_pairs(3, [(0, 1), (1, 2)])
    assert p.rel[0][2]
    assert validate_proset(p) is None


def test_identity_translation_ok():
    p = chain(3)
    assert validate_translation(identity_translation(p)) is None


def test_worked_translation_ok():
    p = chain(3, ("1", "2", "3"))
    t = Translation(p, (1, 2, 2))
    assert validate_translation(t) is None


def test_deflating_map_rejected():
    p = chain(3)
    t = Translation(p, (0, 1, 1))
    report = validate_translation(t)
    assert report is not None
    assert "inflationary" in report


def test_nonmonotone_map_rejected():
    # relate 0 <= 1 only; send 0 above 1's image
    p = proset_from_pairs(3, [(0, 1), (0, 2), (1, 2)])
    t = Translation(p, (2, 1, 2))
    report = validate_translation(t)
    assert report is not None
    assert "monotone" in report


def test_compose_identity_is_neutral():
    p = chain(4)
    t = Translation(p, (1, 2, 3, 3))
    i = identity_translation(p)
    assert compose_translations(i, t) == t
    assert compose_translations(t, i) == t


def test_compose_clamped_shifts_add():
    p = chain(6)
    shift = lambda e: Translation(p, tuple(min(i + e, 5) for i in range(6)))
    assert compose_translations(shift(1), shift(2)) == shift(3)


def test_compose_worked_example():
    p = chain(3)
    t = Translation(p, (1, 2, 2))
    assert compose_translations(t, t) == Translation(p, (2, 2, 2))
    assert power_translation(t, 2) == Translation(p, (2, 2, 2))
    assert power_translation(t, 0) == identity_translation(p)


def test_compare_identity_is_minimum():
    p = chain(3)
    t = Translation(p, (1, 2, 2))
    assert compare_translations(identity_translation(p), t) == "leq"
    assert compare_translations(t, identity_translation(p)) == "geq"
    assert compare_translations(t, t) == "equal"


def test_compare_incomparable():
    p = proset_from_pairs(4, [(0, 1), (2, 3)])
    t1 = Translation(p, (1, 1, 2, 3))
    t2 = Translation(p, (0, 1, 3, 3))
    assert validate_translation(t1) is None
    assert validate_translation(t2) is None
    assert compare_translations(t1, t2) == "incomparable"


def test_compare_equal_on_two_cycle_despite_different_maps():
    p = proset_from_pairs(2, [(0, 1), (1, 0)])
    swap = Translation(p, (1, 0))
    assert validate_translation(swap) is None
    assert compare_translations(swap, identity_translation(p)) == "equal"
    assert swap.mapping != identity_translation(p).mapping


def test_shoelace_worked_example():
    p = chain(3, ("1", "2", "3"))
    t = Translation(p, (1, 2, 2))
    sh = shoelace(p, t)
    assert sh.n == 6
    assert validate_proset(sh) is None
    assert len(sh.related_pairs) == 20
    assert sh.label(5) == "3'"
    assert iso_pairs(sh) == frozenset({frozenset({2, 5})})


def test_shoelace_identity_translation_duplicates_relation():
    p = proset_from_pairs(3, [(0, 1), (1, 2)])
    sh = shoelace(p, identity_translation(p))
    for i in range(3):
        for j in range(3):
            assert sh.rel[i][3 + j] == p.rel[i][j]
            assert sh.rel[3 + i][j] == p.rel[i][j]
    assert all(frozenset({i, 3 + i}) in iso_pairs(sh) for i in range(3))


def test_shoelace_window_cross_rule():
    p = chain(5)
    t = Translation(p, tuple(min(i + 2, 4) for i in range(5)))
    sh = shoelace(p, t)
    assert sh.rel[0][5 + 2]
    assert not sh.rel[0][5 + 1]


def test_iso_pairs_empty_on_posets():
    assert iso_pairs(chain(4)) == frozenset()


def test_induced_identity_is_identity():
    p = chain(3)
    t = Translation(p, (1, 2, 2))
    sh = shoelace(p, t)
    out = induced_translation(sh, identity_translation(p))
    assert out == identity_translation(sh)


def test_induced_twisted_worked_example():
    p = chain(6)
    lam = Translation(p, tuple(min(i + 1, 5) for i in range(6)))
    sh = shoelace(p, lam)
    til = induced_translation(sh, lam, twist=True)
    assert til.mapping[0] == 6 + 1
    assert til.mapping[6 + 0] == 1
    assert validate_translation(til) is None


def test_twisted_twice_is_untwisted_square():
    p = chain(6)
    lam = Translation(p, tuple(min(i + 1, 5) for i in range(6)))
    sh = shoelace(p, lam)
    til = induced_translation(sh, lam, twist=True)
    lam2 = compose_translations(lam, lam)
    assert compose_translations(til, til) == induced_translation(sh, lam2)


def test_induced_rejects_noncommuting_gamma():
    p = chain(4)
    lam = Translation(p, (1, 2, 3, 3))
    gamma = Translation(p, (0, 1, 3, 3))
    assert validate_translation(gamma) is None
    sh = shoelace(p, lam)
    with pytest.raises(ValueError):
        induced_translation(sh, gamma)


def test_twist_requires_dominating_gamma():
    p = chain(4)
    lam = Translation(p, (2, 3, 3, 3))
    sh = shoelace(p, lam)
    with pytest.raises(ValueError):
        induced_translation(sh, identity_translation(p), twist=True)


def test_height_validation():
    p = chain(3)
    assert validate_height(p, HeightFunction((0, 1, 2))) is None
    report = validate_height(p, HeightFunction((0, 2, 1)))
    assert report is not None and "monotone" in report


@given(st.integers(0, 10 ** 6))
def test_compare_is_a_preorder(seed):
    import random

    from shoelace.selftest import _rand_proset, _rand_translation

    rng = random.Random(seed)
    p = _rand_proset(rng, max_n=5)
    ts = [_rand_translation(rng, p) for _ in range(3)]
    for t in ts:
        assert compare_translations(t, t) == "equal"
    rel = {"leq", "equal"}
    if (compare_translations(ts[0], ts[1]) in rel
            and compare_translations(ts[1], ts[2]) in rel):
        assert compare_translations(ts[0], ts[2]) in rel
