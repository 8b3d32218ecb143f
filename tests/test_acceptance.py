"""Acceptance gate.

One test per advertised criterion.  Each runs the matching seeded selftest
suite at the default seed, prints a single PASS or FAIL line, and enforces
the per-criterion wall-clock budget with exact (zero-tolerance) checks
inside the suite itself.  The CLI selftest subcommand runs the same suites,
so passing here means the shipped command passes too.
"""

import hashlib
import json

from shoelace.selftest import SUITE_NAMES, report, run_suite, run_suites

SEED = 42
_RESULTS = {}


def _run(criterion, name, budget):
    assert name in SUITE_NAMES
    if name not in _RESULTS:
        _RESULTS[name] = run_suite(name, SEED)
    r = _RESULTS[name]
    verdict = "PASS" if r.passed and r.elapsed < budget else "FAIL"
    print(f"criterion {criterion}: {verdict} "
          f"({name}, {r.cases} cases, {r.elapsed:.2f}s)")
    assert r.passed, f"criterion {criterion} ({name}): {r.first_counterexample}"
    assert r.elapsed < budget, (
        f"criterion {criterion} ({name}) took {r.elapsed:.2f}s, "
        f"budget {budget}s")
    return r


def test_criterion_1_worked_example():
    r = _run(1, "worked_example", 1.0)
    assert r.cases == 1


def test_criterion_2_shoelace_wellformed():
    r = _run(2, "shoelace_wellformed", 5.0)
    assert r.cases >= 200


def test_criterion_3_shoelace_roundtrip():
    r = _run(3, "shoelace_roundtrip", 20.0)
    assert r.cases >= 200


def test_criterion_4_induced_compositions():
    r = _run(4, "induced_compositions", 5.0)
    assert r.cases >= 100


def test_criterion_5_interleaved_interleavings():
    r = _run(5, "interleaved_interleavings", 20.0)
    assert r.cases >= 100


def test_criterion_6_interval_hom_equivalence():
    r = _run(6, "interval_hom_equivalence", 30.0)
    assert r.cases == 16384


def test_criterion_7_barcode_oracle():
    r = _run(7, "barcode_oracle", 20.0)
    assert r.cases >= 300


def test_criterion_8_matching_bijection():
    r = _run(8, "matching_bijection", 30.0)
    assert r.cases >= 200


def test_criterion_9_matching_vs_interleaving():
    r = _run(9, "matching_vs_interleaving", 15.0)
    assert r.cases >= 50


def _fill_results():
    for name in SUITE_NAMES:
        if name not in _RESULTS:
            _RESULTS[name] = run_suite(name, SEED)


def test_full_suite_under_three_minutes():
    _fill_results()
    total = sum(r.elapsed for r in _RESULTS.values())
    print(f"full suite: {total:.2f}s over {len(_RESULTS)} suites")
    assert set(_RESULTS) == set(SUITE_NAMES)
    assert total < 180.0


def _report_sha256(results, seed):
    """sha256 of the report as `shoelace selftest --out` writes it."""
    text = json.dumps(report(results, seed), indent=2) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_selftest_reports_golden_bytes():
    """The full seed-42 report and a capped seed-7 one are byte-stable."""
    _fill_results()
    assert _report_sha256([_RESULTS[name] for name in SUITE_NAMES], SEED) == (
        "5e4b82b93f7fb86a94bd74fea9ffe1725c553a12d522e52d428bc77a46bfcf50")
    assert _report_sha256(run_suites(7, cases=30), 7) == (
        "d55fc3feb24333b77e67b47d36c3a963a6069ca2a12a82c628f11bb912506f69")
