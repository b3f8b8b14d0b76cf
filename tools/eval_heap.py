"""Heap that the evaluate path holds and peaks at, step by step.

    python3 tools/eval_heap.py --src parent=../parent/src --src change=src \\
        --records 5000 --out BENCH_eval_heap.json

Writes ``--records`` agenda records (seeds from 0, turn cap 20, the bundled
world, one worker) once, with the duetsim of the first ``--src``. Then, for
each ``--src``, a fresh interpreter with that ``src`` first on
``PYTHONPATH`` loads the world, evaluates the file once untraced, so that
lazy tables are built, and, under ``tracemalloc``, runs the steps of
``duetsim evaluate`` one at a time: ``read_logs``, ``fulfillment`` of the
logs it read, and ``diversity`` of their ``user_utterances``; then, from a
heap without those logs, the whole ``evaluate`` again. For each step it
records, in MiB above the heap at the step's start, what the step's result
still holds after it (``held_mib``) and the highest the heap rose while it
ran (``peak_mib``). Prints each side's result as a JSON line on stderr and
writes them all to ``--out``. Standard library only. Exits 1 when a run
fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

TURN_CAP = 20

# Runs in the fresh interpreter; argv[1] is the logs file.
MEASURE_SCRIPT = r"""
import gc, json, sys, tracemalloc
from duetsim.acts import read_logs
from duetsim.metrics import diversity, fulfillment, user_utterances
from duetsim.world import load_world

path = sys.argv[1]
ontology, entities = load_world()

def evaluate():
    logs = read_logs([path], ontology)
    return logs, fulfillment(logs, ontology, entities), diversity(user_utterances(logs))

steps = {}

def step(name, call):
    gc.collect()
    start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    result = call()
    held, peak = tracemalloc.get_traced_memory()
    steps[name] = {"held_mib": round((held - start) / 2**20, 3),
                   "peak_mib": round((peak - start) / 2**20, 3)}
    return result

records = len(evaluate()[0])
tracemalloc.start()
logs = step("read_logs", lambda: read_logs([path], ontology))
step("fulfillment", lambda: fulfillment(logs, ontology, entities))
step("diversity", lambda: diversity(user_utterances(logs)))
del logs
step("evaluate", evaluate)
print(json.dumps({"records": records, "steps": steps}))
"""


def write_logs(src: Path, records: int, out_dir: Path) -> Path:
    """logs.jsonl of ``records`` agenda dialogues from seed 0, by ``src``'s duetsim."""
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-m", "duetsim.cli", "simulate", "-n", str(records),
                    "--seed", "0", "--turn-cap", str(TURN_CAP), "--parallelism", "1",
                    "-o", str(out_dir)], env=env, check=True, capture_output=True)
    return out_dir / "logs.jsonl"


def measure(src: Path, logs: Path) -> dict:
    """What ``MEASURE_SCRIPT`` prints for ``src``, or an ``error`` entry."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", MEASURE_SCRIPT, str(logs)],
                          env=env, capture_output=True, text=True)
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-300:]}"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", required=True, metavar="NAME=PATH",
                        help="a checkout's src directory; repeat to compare")
    parser.add_argument("--records", type=int, default=5000)
    parser.add_argument("--out", type=Path, default=Path("BENCH_eval_heap.json"))
    args = parser.parse_args()
    sides = [(name, Path(path).resolve())
             for name, _, path in (src.partition("=") for src in args.src)]

    results, failed = {}, False
    with tempfile.TemporaryDirectory() as tmp:
        logs = write_logs(sides[0][1], args.records, Path(tmp) / "run")
        digest = hashlib.sha256(logs.read_bytes()).hexdigest()
        for name, src in sides:
            results[name] = result = measure(src, logs)
            failed |= "error" in result
            print(json.dumps({name: result}), file=sys.stderr, flush=True)

    args.out.write_text(json.dumps({
        "command": " ".join([
            "python3 tools/eval_heap.py",
            *(f"--src {name}=<{name} src>" for name, _ in sides),
            "--records", str(args.records)]),
        "conditions": (f"{args.records} agenda records from seed 0, turn cap {TURN_CAP}, "
                       "bundled world; tracemalloc, one fresh interpreter per side, "
                       "after one untraced evaluate of the same file"),
        "hardware": (f"{os.cpu_count()} vCPU, {platform.system()}, "
                     f"Python {platform.python_version()}"),
        "logs_sha256": digest,
        "sides": results,
    }, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
