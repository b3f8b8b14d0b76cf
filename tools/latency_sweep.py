"""Wall time and memory of duet runs over HTTP, by backend latency and parallelism.

    python3 tools/latency_sweep.py --src parent=../parent/src --src change=src \\
        --latency-ms 5,50 --parallelism 1,2,4,8,16 --dialogues 32 \\
        --out BENCH_latency.json

For each latency this starts ``perfbench/fake_server.py`` with that injected
latency. For each parallelism, every ``--src`` runs the same duet dialogues
(seeds from 0, turn cap 20, ``max_iterations`` 3) through ``run_experiment``
in a fresh interpreter with that ``src`` first on ``PYTHONPATH``; the side
that runs first alternates from cell to cell. Each run records:

- ``wall_s`` and ``dialogues_per_s``: ``run_experiment`` alone, without
  interpreter start-up;
- ``processes``: the run's own process plus the worker processes that ran
  a dialogue;
- ``parent_maxrss_mb`` and ``largest_worker_maxrss_mb``: peak resident set
  sizes of the run's process and of its largest worker process (0 without
  one);
- ``run_rss_mb``: the parent's peak plus, per worker process, the largest
  worker's peak. Peaks are summed, and a forked worker counts the pages it
  shares with the parent again, so this bounds the run from above;
- ``failures``, from the manifest, and ``logs_sha256`` of ``logs.jsonl``.

Standard library only. Exits 1 when a run fails or a dialogue fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TURN_CAP = 20
MAX_ITERATIONS = 3

# Runs in the fresh interpreter; argv[1] holds its settings as JSON.
RUN_SCRIPT = r"""
import hashlib, json, os, resource, sys, time
settings = json.loads(sys.argv[1])
import duetsim.loop
from duetsim.experiment import load_config, run_experiment

ran = os.open(settings["pids"], os.O_WRONLY | os.O_APPEND | os.O_CREAT)
run_dialogue = duetsim.loop.run_dialogue

def logged_run_dialogue(*args, **kwargs):  # forked workers inherit it
    os.write(ran, b"%d\n" % os.getpid())
    return run_dialogue(*args, **kwargs)

duetsim.loop.run_dialogue = logged_run_dialogue
config = load_config(None, settings["config"])
start = time.perf_counter()
out = run_experiment(config)
wall = time.perf_counter() - start
with open(settings["pids"], encoding="utf-8") as f:
    workers = len({int(pid) for pid in f.read().split()} - {os.getpid()})
mb = lambda who: resource.getrusage(who).ru_maxrss / 1024  # Linux counts KiB
parent, worker = mb(resource.RUSAGE_SELF), mb(resource.RUSAGE_CHILDREN)
print(json.dumps({
    "wall_s": round(wall, 3),
    "dialogues_per_s": round(config.dialogues / wall, 3),
    "processes": 1 + workers,
    "parent_maxrss_mb": round(parent, 1),
    "largest_worker_maxrss_mb": round(worker, 1),
    "run_rss_mb": round(parent + workers * worker, 1),
    "failures": len(json.loads((out / "manifest.json").read_text())["failures"]),
    "logs_sha256": hashlib.sha256((out / "logs.jsonl").read_bytes()).hexdigest(),
}))
"""


def start_server(latency_ms: float) -> tuple[subprocess.Popen, str]:
    """The fake server with ``latency_ms``, and its base URL."""
    server = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "fake_server.py"),
         "--latency-ms", str(latency_ms)],
        cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    line = server.stdout.readline()
    if not line.startswith("PORT "):
        stop_server(server)
        sys.exit(f"the fake server did not start: {line!r}")
    return server, f"http://127.0.0.1:{int(line.split()[1])}/v1"


def stop_server(server: subprocess.Popen) -> None:
    server.stdin.close()  # the server shuts down at end of file
    server.wait(timeout=30)
    server.stdout.close()


def run_once(src: Path, base_url: str, parallelism: int, dialogues: int,
             work: Path) -> dict:
    """What ``RUN_SCRIPT`` prints for one run, or an ``error`` entry."""
    work.mkdir(parents=True)
    settings = {"pids": str(work / "pids.txt"), "config": {
        "simulator": "duet", "dialogues": dialogues, "seed": 0, "turn_cap": TURN_CAP,
        "parallelism": parallelism, "output_dir": str(work / "run"),
        "loop": {"max_iterations": MAX_ITERATIONS},
        "generator_backend": {"kind": "http", "base_url": base_url, "model": "fake"}}}
    env = dict(os.environ, PYTHONPATH=str(src), NO_PROXY="127.0.0.1",
               no_proxy="127.0.0.1")
    done = subprocess.run([sys.executable, "-c", RUN_SCRIPT, json.dumps(settings)],
                          cwd=work, env=env, capture_output=True, text=True)
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-300:]}"}


def numbers(text: str, kind=int) -> list:
    return [kind(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", required=True, metavar="NAME=PATH",
                        help="a checkout's src directory; repeat to compare")
    parser.add_argument("--latency-ms", type=lambda t: numbers(t, float), default="5,50")
    parser.add_argument("--parallelism", type=numbers, default="1,2,4,8,16")
    parser.add_argument("--dialogues", type=int, default=32)
    parser.add_argument("--out", type=Path, default=Path("BENCH_latency.json"))
    args = parser.parse_args()
    sides = [(name, Path(path).resolve())
             for name, _, path in (src.partition("=") for src in args.src)]

    rows, failed = [], False
    with tempfile.TemporaryDirectory() as tmp:
        for latency in args.latency_ms:
            server, base_url = start_server(latency)
            try:
                for parallelism in args.parallelism:
                    row = {"latency_ms": latency, "parallelism": parallelism}
                    order = sides if len(rows) % 2 == 0 else sides[::-1]
                    for name, src in order:
                        work = Path(tmp) / f"{latency}-{parallelism}-{name}"
                        row[name] = result = run_once(src, base_url, parallelism,
                                                      args.dialogues, work)
                        failed |= "error" in result or result["failures"] > 0
                    rows.append(row)
                    print(json.dumps(row), file=sys.stderr, flush=True)
            finally:
                stop_server(server)

    args.out.write_text(json.dumps({
        "command": " ".join([
            "python3 tools/latency_sweep.py",
            *(f"--src {name}=<{name} src>" for name, _ in sides),
            "--latency-ms", ",".join(f"{latency:g}" for latency in args.latency_ms),
            "--parallelism", ",".join(map(str, args.parallelism)),
            "--dialogues", str(args.dialogues)]),
        "conditions": (f"{args.dialogues} duet dialogues from seed 0, turn cap {TURN_CAP}, "
                       f"max_iterations {MAX_ITERATIONS}, against perfbench/fake_server.py "
                       "on the same host; one run per side and cell, the side run first "
                       "alternating from cell to cell"),
        "hardware": (f"{os.cpu_count()} vCPU, {platform.system()}, "
                     f"Python {platform.python_version()}"),
        "sides": [name for name, _ in sides],
        "cells": rows,
    }, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
