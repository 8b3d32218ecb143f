"""A speed claim rests on a checked-in BENCH_<label>.json at the repository
root.  Each must name what it compared and, for every workload and every
end-to-end metric of BENCHMARK.json, give both medians and the number of
pairs the change won."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_at_least_one_bench_file_is_checked_in():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_summarises_every_declared_metric(path):
    doc = json.loads(path.read_text())
    for field in ("description", "parent", "change"):
        assert isinstance(doc.get(field), str) and doc[field].strip(), field
    for workload in SPEC["workloads"]:
        cells = doc["summary"][workload["name"]]
        for metric in SPEC["end_to_end"]:
            cell = cells[metric["name"]]
            where = f"{workload['name']}.{metric['name']}"
            for key in ("parent_median", "change_median"):
                assert isinstance(cell[key], (int, float)), f"{where}.{key}"
            wins = cell["change_wins"]
            assert isinstance(wins, int) and not isinstance(wins, bool), where
            assert wins >= 0, where


def _claimed(path):
    return json.loads(path.read_text()).get("claim") is not None


@pytest.mark.parametrize("path", [p for p in BENCH_FILES if _claimed(p)],
                         ids=lambda p: p.name)
def test_claimed_gain_meets_the_rule(path):
    """A claim names a workload and an end-to-end metric.  The change won at
    least nine pairs in ten, its median beats the parent's by more than the
    parent's quartile distance, and every run of both sides has a correct
    result, no failed op and, per seed, one digest."""
    doc = json.loads(path.read_text())
    claim = doc["claim"]
    cell = doc["summary"][claim["workload"]][claim["metric"]]
    runs = [r for r in doc["runs"] if r["workload"] == claim["workload"]]
    seeds = {r["seed"] for r in runs}
    assert len(runs) == 2 * len(seeds) and len(seeds) >= 10
    assert cell["change_wins"] * 10 >= 9 * len(seeds)
    gain = cell["change_median"] - cell["parent_median"]
    if cell["better"] == "lower":
        gain = -gain
    assert gain > cell["parent_q3"] - cell["parent_q1"]
    for r in doc["runs"]:
        assert r["result"]["correct"] is True and r["result"]["failed"] == 0
    for seed in seeds:
        assert len({r["report"]["digest"] for r in runs if r["seed"] == seed}) == 1
