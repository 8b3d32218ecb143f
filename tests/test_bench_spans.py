"""The traced benchmark wraps package names listed in bench/spans.py.  A
rename or a deleted name would break only traced runs, so this checks that
every target still resolves in the form the tracer expects."""

import importlib
import importlib.util
from pathlib import Path

from shoelace.exactlin import FieldSpec

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve():
    spans = _load_spans()
    for _name, modname, attr in spans.SPANS:
        target = getattr(importlib.import_module(modname), attr)
        if isinstance(target, type):
            # the tracer wraps the class's own __init__
            assert "__init__" in target.__dict__, attr
        else:
            assert callable(target), attr
    for _name, modname, attr in spans.CACHES:
        assert hasattr(getattr(importlib.import_module(modname), attr),
                       "cache_info"), attr
    # counted directly by Tracer.install
    assert "__eq__" in FieldSpec.__dict__
    assert callable(importlib.import_module("shoelace.zed").endpoint_distance)
