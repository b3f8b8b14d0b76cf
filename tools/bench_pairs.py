"""Run the benchmark in alternating parent/change pairs and summarise them.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload duet-inproc --seeds 1,2,3,4,5,6 --seconds 38 \\
        --claim simulate_dialogues_per_s@duet-inproc \\
        --what "what the change does" --out BENCH_name.json

For each workload and each seed, ``perfbench/run.py --trace 0`` runs once in
each checkout; the side that runs first alternates from pair to pair. Every
run starts from a checkout without ``src/**/__pycache__`` and runs with
``PYTHONDONTWRITEBYTECODE=1``, so both sides compile their sources alike
and ``setup_s`` compares fairly. The output holds every run's last line, the
median, interquartile range and count of each end-to-end metric per side,
and, for ``--claim``, the number of pairs the change won. Standard library
only. Exits 1 when a run fails or reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def drop_bytecode(checkout: Path) -> None:
    for cache in (checkout / "src").rglob("__pycache__"):
        shutil.rmtree(cache)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one benchmark run, or an ``error`` entry."""
    drop_bytecode(checkout)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    try:
        done = subprocess.run(command, cwd=checkout, env=env, capture_output=True,
                              text=True, timeout=3 * seconds + 120)
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    lines = done.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-300:]}"}
    if done.returncode != 0 or last.get("correct") is not True:
        last["error"] = f"exit {done.returncode}"
    return last


def spread(values: list[float]) -> dict:
    iqr = 0.0
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    return {"median": round(statistics.median(values), 4) if values else None,
            "iqr": round(iqr, 4), "n": len(values)}


def value(run: dict, metric: str) -> float | None:
    if "error" in run:
        return None
    return run["metrics"][metric]["value"]


def summarise(runs: list[dict], metrics: list[str]) -> dict:
    summary: dict = {}
    for run in runs:
        summary.setdefault(run["workload"], {})
    for workload, table in summary.items():
        for metric in metrics:
            table[metric] = {}
            for side in SIDES:
                values = [value(r["last_line"], metric) for r in runs
                          if r["workload"] == workload and r["side"] == side]
                table[metric][side] = spread([v for v in values if v is not None])
    return summary


def claim_wins(runs: list[dict], metric: str, workload: str, better: str) -> dict:
    pairs: dict[tuple, dict] = {}
    for run in runs:
        if run["workload"] == workload:
            pairs.setdefault((run["seed"], run["pair"]), {})[run["side"]] = \
                value(run["last_line"], metric)
    wins = 0
    for sides in pairs.values():
        parent, change = sides.get("parent"), sides.get("change")
        if parent is not None and change is not None:
            wins += change < parent if better == "lower" else change > parent
    return {"metric": metric, "workload": workload, "pairs": len(pairs),
            "change_wins": wins}


def hardware() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return (f"{os.cpu_count()} vCPU {model}, {platform.system()}, "
            f"Python {platform.python_version()}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True,
                        help="repeat for several workloads")
    parser.add_argument("--seeds", required=True,
                        help="comma-separated; one pair per seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--claim", default=None, metavar="METRIC@WORKLOAD")
    parser.add_argument("--what", default="")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    contract = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in contract["end_to_end"]]

    runs = []
    for workload in args.workload:
        for pair, seed in enumerate(seeds, start=1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for side in order:
                last = run_once(checkouts[side], workload, seed, args.seconds)
                runs.append({"workload": workload, "seed": seed, "pair": pair,
                             "side": side, "last_line": last})
                print(json.dumps(runs[-1]), file=sys.stderr, flush=True)

    out = {
        "what": args.what,
        "command": (f"PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py --workload <w> "
                    f"--seed <seed> --seconds {args.seconds:g} --trace 0"),
        "conditions": ("parent and change in separate checkouts, src/**/__pycache__ "
                       "deleted before every run, one pair per seed, the side run "
                       "first alternating from pair to pair (odd pairs parent first)"),
        "hardware": hardware(),
    }
    summary = summarise(runs, metrics)
    if args.claim:
        metric, workload = args.claim.split("@")
        better = next(m["better"] for m in contract["end_to_end"] if m["name"] == metric)
        out["claim"] = claim_wins(runs, metric, workload, better)
        parent, change = (summary[workload][metric][side]["median"] for side in SIDES)
        if parent and change is not None:
            out["claim"]["median_change_pct"] = round(100 * (change / parent - 1), 1)
    out["summary"] = summary
    out["runs"] = runs
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 1 if any("error" in r["last_line"] for r in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
