"""tools/reach.py, the unreached-statement report, at a tiny size."""

import importlib.util
import json
import subprocess
import sys

from conftest import PERFBENCH

REACH = PERFBENCH.parent / "tools" / "reach.py"


def load_reach():
    spec = importlib.util.spec_from_file_location("tools_reach", REACH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ranges_join_consecutive_lines():
    assert load_reach().ranges([3, 4, 5, 9, 11, 12]) == "3-5, 9, 11-12"


def test_statement_lines_skip_blank_and_comment_lines(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("x = 1\n\n# note\ndef f():\n    return x\n")
    assert load_reach().statement_lines(path) == {1, 4, 5}


def test_tiny_run_reports_every_module(tmp_path):
    done = subprocess.run(
        [sys.executable, str(REACH), "--agenda", "2", "--duet", "1"],
        capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    *listed, last = done.stdout.splitlines()
    summary = json.loads(last)
    by_module = summary["unreached_by_module"]
    assert "duetsim/prompts.py" in by_module and "duetsim/data/__init__.py" in by_module
    assert summary["reached"] + summary["unreached"] == summary["statements"]
    assert sum(by_module.values()) == summary["unreached"]
    assert 0 < summary["unreached"] < summary["reached"]
    assert [line.split(":")[0] for line in listed] == \
        [name for name, count in by_module.items() if count]
    # module bodies ran under the trace, the package's __init__ included
    assert by_module["duetsim/__init__.py"] == 0
