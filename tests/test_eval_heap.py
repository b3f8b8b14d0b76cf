"""The evaluate heap tool measures each step of evaluate on agenda records."""

import json
import subprocess
import sys
from pathlib import Path

import duetsim

from conftest import src_env

TOOL = Path(__file__).resolve().parents[1] / "tools" / "eval_heap.py"


def test_twenty_records(tmp_path):
    src = Path(duetsim.__file__).resolve().parents[1]
    out = tmp_path / "BENCH_eval_heap.json"
    done = subprocess.run(
        [sys.executable, str(TOOL), "--src", f"change={src}", "--records", "20",
         "--out", str(out)],
        capture_output=True, text=True, env=src_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    assert list(report["sides"]) == ["change"]
    assert len(report["logs_sha256"]) == 64
    side = report["sides"]["change"]
    assert side["records"] == 20
    assert list(side["steps"]) == ["read_logs", "fulfillment", "diversity", "evaluate"]
    for name, step in side["steps"].items():
        assert 0 <= step["held_mib"] <= step["peak_mib"], (name, step)
    # the whole evaluate holds at least the logs it read
    steps = side["steps"]
    assert 0 < steps["read_logs"]["held_mib"] <= steps["evaluate"]["held_mib"]
