"""The benchmark's workloads call the package from outside: they read
Interval.lo.value, build intervals from "-inf" and "+inf" strings and check
every op against planted truth.  A break in that contract would surface
only in a bench run, so this runs a few seeded inputs of each in-process
workload and requires that every op pass its checks."""

import importlib
import importlib.util
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
MODULES = ("exactlin", "proset", "rep", "interleave", "zed", "docio")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload, count", [
    ("modules", 4), ("intervals", 16), ("matchings", 12)])
def test_workload_ops_pass_their_checks(workload, count):
    wl = _load_workloads()
    sh = SimpleNamespace(**{m: importlib.import_module(f"shoelace.{m}") for m in MODULES})
    items = getattr(wl, f"gen_{workload}")(random.Random(f"{workload}:1"), count, sh)
    op = getattr(wl, f"op_{workload}")
    for k, item in enumerate(items):
        errors, out = op(sh, item)
        assert errors == [], (k, errors)
        assert out
