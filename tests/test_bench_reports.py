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
