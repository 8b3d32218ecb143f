import random
import re

import pytest

from hypothesis import given
import hypothesis.strategies as st

from shoelace.proset import (
    HeightFunction,
    Proset,
    ShoelaceProset,
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
    assert p.leq(0, 3)
    assert not p.leq(3, 0)
    assert len(p.related_pairs) == 10


def _up(rows):
    """Bit rows of a table: bit j of row i set when rows[i][j] is true."""
    return tuple(sum(1 << j for j, x in enumerate(row) if x) for row in rows)


def table(p):
    """p's relation as the n x n table of bools the public constructor takes."""
    return [[p.leq(i, j) for j in range(p.n)] for i in range(p.n)]


def test_transitivity_violation_reported():
    rel = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    report = validate_proset(Proset._trusted(3, _up(rel), None))
    assert report == "not transitive: 0 <= 1 <= 2 but 0 !<= 2"
    with pytest.raises(ValueError, match=re.escape(f"invalid proset: {report}")):
        Proset(3, rel)


def test_reflexivity_violation_reported():
    rel = [[1, 1], [0, 0]]
    report = validate_proset(Proset._trusted(2, _up(rel), None))
    assert report == "not reflexive: 1 !<= 1"
    with pytest.raises(ValueError, match=re.escape(f"invalid proset: {report}")):
        Proset(2, rel)


def reference_validate_proset(p):
    """The plain triple loop that validate_proset's bitsets replace: the
    first i not <= i, else the first (i, j, k) with i <= j <= k, not i <= k."""
    for i in range(p.n):
        if not p.leq(i, i):
            return f"not reflexive: {p.label(i)} !<= {p.label(i)}"
    for i in range(p.n):
        for j in range(p.n):
            if not p.leq(i, j):
                continue
            for k in range(p.n):
                if p.leq(j, k) and not p.leq(i, k):
                    return (f"not transitive: {p.label(i)} <= {p.label(j)} <= "
                            f"{p.label(k)} but {p.label(i)} !<= {p.label(k)}")
    return None


@given(st.integers(0, 10 ** 6))
def test_validate_proset_agrees_with_the_triple_loop(seed):
    """On random tables, closed ones with a few entries flipped, so that
    valid, non-reflexive and non-transitive tables all occur; the public
    constructor raises exactly the reference report."""
    rng = random.Random(seed)
    n = rng.randint(0, 9)
    rel = table(proset_from_pairs(
        n, [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]))
    for _ in range(rng.randint(0, 3) if n else 0):
        i, j = rng.randrange(n), rng.randrange(n)
        rel[i][j] = not rel[i][j]
    labels = None if rng.random() < 0.5 else [f"x{i}" for i in range(n)]
    p = Proset._trusted(n, _up(rel), None if labels is None else tuple(labels))
    report = reference_validate_proset(p)
    assert validate_proset(p) == report
    if report is None:
        assert Proset(n, rel, labels) == p
    else:
        with pytest.raises(ValueError, match=re.escape(f"invalid proset: {report}")):
            Proset(n, rel, labels)


def test_two_cycle_is_a_valid_proset():
    p = proset_from_pairs(2, [(0, 1), (1, 0)])
    assert validate_proset(p) is None
    assert p.leq(0, 1) and p.leq(1, 0)


def test_closure_fills_in_composites():
    p = proset_from_pairs(3, [(0, 1), (1, 2)])
    assert p.leq(0, 2)
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
    report = validate_translation(Translation._trusted(p, (0, 1, 1)))
    assert report == "not inflationary: 2 !<= 1 = image of 2"
    with pytest.raises(ValueError, match=re.escape(f"invalid translation: {report}")):
        Translation(p, (0, 1, 1))


def test_nonmonotone_map_rejected():
    # 0 <= 1, but 0's image 2 lies above 1's image 1
    p = proset_from_pairs(3, [(0, 1), (0, 2), (1, 2)])
    report = validate_translation(Translation._trusted(p, (2, 1, 2)))
    assert report == "not monotone: 0 <= 1 but 2 !<= 1"
    with pytest.raises(ValueError, match=re.escape(f"invalid translation: {report}")):
        Translation(p, (2, 1, 2))


def reference_validate_translation(t):
    """The loop over related pairs that validate_translation's bitsets
    replace: the first i not <= its image, else the first related (i, j),
    in index order, whose images are not related."""
    p = t.base
    for i in range(p.n):
        if not p.leq(i, t.mapping[i]):
            return (f"not inflationary: {p.label(i)} !<= "
                    f"{p.label(t.mapping[i])} = image of {p.label(i)}")
    for (i, j) in p.related_pairs:
        if not p.leq(t.mapping[i], t.mapping[j]):
            return (f"not monotone: {p.label(i)} <= {p.label(j)} but "
                    f"{p.label(t.mapping[i])} !<= {p.label(t.mapping[j])}")
    return None


@given(st.integers(0, 10 ** 6))
def test_validate_translation_agrees_with_the_pair_loop(seed):
    """On random prosets and maps, mostly into each point's up-set so that
    valid, non-monotone and non-inflationary maps all occur; the public
    constructor raises exactly the reference report."""
    rng = random.Random(seed)
    n = rng.randint(0, 9)
    p = proset_from_pairs(
        n, [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))],
        None if rng.random() < 0.5 else [f"x{i}" for i in range(n)])
    ups = [[j for j in range(n) if p.leq(i, j)] for i in range(n)]
    mapping = tuple(rng.choice(ups[i]) if rng.random() < 0.9 else rng.randrange(n)
                    for i in range(n))
    report = reference_validate_translation(Translation._trusted(p, mapping))
    assert validate_translation(Translation._trusted(p, mapping)) == report
    if report is None:
        assert Translation(p, mapping).mapping == mapping
    else:
        with pytest.raises(ValueError, match=re.escape(f"invalid translation: {report}")):
            Translation(p, mapping)


@pytest.mark.parametrize("entry", [1.5, "1", True, None])
def test_translation_takes_only_int_mapping_entries(entry):
    with pytest.raises(TypeError, match="mapping entries must be integers"):
        Translation(chain(2), (entry, 1))


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
            assert sh.leq(i, 3 + j) == p.leq(i, j)
            assert sh.leq(3 + i, j) == p.leq(i, j)
    assert all(frozenset({i, 3 + i}) in iso_pairs(sh) for i in range(3))


def test_shoelace_window_cross_rule():
    p = chain(5)
    t = Translation(p, tuple(min(i + 2, 4) for i in range(5)))
    sh = shoelace(p, t)
    assert sh.leq(0, 5 + 2)
    assert not sh.leq(0, 5 + 1)


def _discrete(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("n, rel, base, labels", [
    # each copy must carry the base's rows; this one used to be accepted,
    # and restrict then raised KeyError: (0, 1)
    (4, _discrete(4), chain(2), None),
    (3, _discrete(3), chain(2), None),
    (6, _discrete(6), chain(2), None),
    # 0 <= 0' but not 0' <= 0: the cross blocks disagree
    (2, [[1, 1], [0, 1]], chain(1), None),
    # lam lives on another base
    (4, table(shoelace(chain(2), identity_translation(chain(2)))), chain(2), ("a", "b")),
])
def test_shoelace_proset_constructor_checks_the_layout(n, rel, base, labels):
    lam = identity_translation(chain(base.n, labels))
    with pytest.raises(ValueError, match="^relation is not a shoelace layout over the base$"):
        ShoelaceProset(n, rel, None, base, lam)


def test_shoelace_proset_constructor_takes_a_cross_subrelation():
    """The cross relation may be any part of lam's that keeps a proset, such
    as none at all, as long as both blocks agree."""
    p = chain(2)
    rel = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
    sh = ShoelaceProset(4, rel, None, p, identity_translation(p))
    assert sh.up == (0b11, 0b10, 0b1100, 0b1000) and sh.base == p


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


def test_induced_refuses_a_carrier_that_is_not_the_full_shoelace():
    from shoelace.zed import Window, lambda_eps, shoelace_window

    w = Window(0, 4)
    sh = shoelace_window(w, 1)
    # on the window carrier 1 <= 2', but the plain lift sends them to 4 and 4'
    for twist in (False, True):
        with pytest.raises(ValueError, match="full shoelace carrier"):
            induced_translation(sh, lambda_eps(w, 3), twist=twist)


def test_twist_requires_dominating_gamma():
    p = chain(4)
    lam = Translation(p, (2, 3, 3, 3))
    sh = shoelace(p, lam)
    with pytest.raises(ValueError):
        induced_translation(sh, identity_translation(p), twist=True)


def test_height_validation():
    p = chain(3)
    h = HeightFunction(p, (0, "1/2", 2))
    assert h.proset == p and validate_height(h) is None
    with pytest.raises(ValueError, match=(
            r"^invalid height: not monotone: 1 <= 2 but height 2 > 1$")):
        HeightFunction(p, (0, 2, 1))
    with pytest.raises(ValueError, match=r"^invalid height: expected 3 heights, got 2$"):
        HeightFunction(p, (0, 1))


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


def test_rand_translation_draws_as_the_validator_filter_did():
    """selftest._rand_translation tries the constructor on each candidate;
    the reference builds each one unchecked and filters it through
    validate_translation.  Same translation, same RNG state after."""
    from shoelace.selftest import _rand_proset, _rand_translation

    for seed in range(300):
        p = _rand_proset(random.Random(-seed), max_n=6)
        got_rng, ref_rng = random.Random(seed), random.Random(seed)
        got = _rand_translation(got_rng, p)
        ups = [[j for j in range(p.n) if p.leq(i, j)] for i in range(p.n)]
        for _ in range(40):
            ref = Translation._trusted(p, tuple(ref_rng.choice(ups[i]) for i in range(p.n)))
            if validate_translation(ref) is None:
                break
        else:
            ref = identity_translation(p)
        assert got == ref
        assert got_rng.getstate() == ref_rng.getstate()
