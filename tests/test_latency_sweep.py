"""The latency sweep runs a cell end to end and reports what it measured."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import duetsim
import duetsim.experiment
from duetsim.experiment import ExperimentConfig, _loop_config, run_experiment

from conftest import src_env
from test_cli import CLOSED_PORT, RecordingResponder

TOOL = Path(__file__).resolve().parents[1] / "tools" / "latency_sweep.py"


def test_one_cell(tmp_path, monkeypatch):
    src = Path(duetsim.__file__).resolve().parents[1]
    out = tmp_path / "BENCH_latency.json"
    done = subprocess.run(
        [sys.executable, str(TOOL), "--src", f"change={src}", "--latency-ms", "0",
         "--parallelism", "2", "--dialogues", "2", "--out", str(out)],
        capture_output=True, text=True, env=src_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    assert report["sides"] == ["change"]
    [cell] = report["cells"]
    assert cell["latency_ms"] == 0 and cell["parallelism"] == 2
    run = cell["change"]
    assert sorted(run) == sorted([
        "wall_s", "dialogues_per_s", "processes", "parent_maxrss_mb",
        "largest_worker_maxrss_mb", "run_rss_mb", "failures", "logs_sha256"])
    assert run["failures"] == 0
    # two lanes of one process
    assert (run["processes"], run["largest_worker_maxrss_mb"]) == (1, 0)
    assert run["run_rss_mb"] == run["parent_maxrss_mb"] > 0

    # the same dialogues against the same responder, in this process
    monkeypatch.setattr(duetsim.experiment, "_build_backend",
                        lambda spec, role: RecordingResponder())
    logs = run_experiment(ExperimentConfig(
        simulator="duet", dialogues=2, seed=0, turn_cap=20, parallelism=1,
        loop=_loop_config(max_iterations=3), generator_backend=CLOSED_PORT,
        output_dir=str(tmp_path / "inproc"))) / "logs.jsonl"
    assert run["logs_sha256"] == hashlib.sha256(logs.read_bytes()).hexdigest()
