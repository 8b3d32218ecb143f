"""What `import shoelace.cli` loads, and the subcommands whose modules it
leaves to be imported when they run.

Each README pipeline step is a fresh interpreter, so the CLI's start-up is
its import set.  These checks start fresh interpreters: in the test process
itself every module is already imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from shoelace.docio import save_document
from shoelace.zed import Barcode, Interval, Matching, Window, matching_to_rep

SRC = Path(__file__).resolve().parents[1] / "src"

# what the pipeline subcommands do not need: dataclasses pulls in inspect,
# fractions pulls in decimal, and selftest pulls in traceback
HEAVY = {"dataclasses", "inspect", "fractions", "decimal", "traceback",
         "shoelace.selftest", "shoelace.render"}


def _python(*args, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, **kwargs)


def test_importing_the_cli_loads_no_heavy_module():
    code = ("import json, sys; before = set(sys.modules); import shoelace.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    out = _python("-c", code)
    assert out.returncode == 0, out.stderr
    added = set(json.loads(out.stdout))
    assert "shoelace.cli" in added
    assert not added & HEAVY


def test_render_imports_its_module_when_it_runs(tmp_path):
    i02, i13 = Interval(0, 2), Interval(1, 3)
    s = Matching(Barcode([i02]), Barcode([i13]), [(i02, i13)], 1)
    path = tmp_path / "l.json"
    path.write_text(save_document("decomposed_rep", matching_to_rep(s, Window(-2, 7))),
                    encoding="utf-8")
    out = _python("-m", "shoelace.cli", "render", "--file", str(path))
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("digraph support {")


def test_selftest_imports_its_module_when_it_runs(tmp_path):
    out = _python("-m", "shoelace.cli", "selftest", "--suite", "worked_example",
                  "--cases", "1")
    assert out.returncode == 0, out.stderr
    rep = json.loads(out.stdout)
    assert rep["ok"] is True
    assert [s["name"] for s in rep["suites"]] == ["worked_example"]
    bad = _python("-m", "shoelace.cli", "selftest", "--suite", "no_such_suite")
    assert bad.returncode == 2
    assert "invalid choice: 'no_such_suite'" in bad.stderr
    assert "'worked_example'" in bad.stderr


def test_the_package_uses_no_dataclass():
    sources = sorted((SRC / "shoelace").glob("*.py"))
    assert sources
    assert [p.name for p in sources if "dataclass" in p.read_text(encoding="utf-8")] == []
