"""The pair runner's summary: the figures a performance claim rests on."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def run(side, pair, rate, workload="duet-inproc", error=False):
    last = {"correct": True, "metrics": {
        "simulate_dialogues_per_s": {"value": rate, "unit": "dialogues/s"},
        "setup_s": {"value": 1000 / rate, "unit": "s"}}}
    if error:
        last = {"error": "exit 1"}
    return {"workload": workload, "seed": pair, "pair": pair, "side": side,
            "last_line": last}


RUNS = [run("parent", 1, 400), run("change", 1, 500),
        run("parent", 2, 420), run("change", 2, 410),
        run("parent", 3, 380), run("change", 3, 1, error=True),
        run("parent", 4, 390), run("change", 4, 480)]


def test_summary_leaves_failed_runs_out():
    table = bench_pairs.summarise(RUNS, ["simulate_dialogues_per_s"])
    rates = table["duet-inproc"]["simulate_dialogues_per_s"]
    assert rates["parent"] == {"median": 395.0, "iqr": 32.5, "n": 4}
    assert rates["change"] == {"median": 480.0, "iqr": 90.0, "n": 3}


@pytest.mark.parametrize("metric,better,wins", [
    ("simulate_dialogues_per_s", "higher", 2),
    ("setup_s", "lower", 2),
])
def test_claim_counts_pairs_the_change_won(metric, better, wins):
    claim = bench_pairs.claim_wins(RUNS, metric, "duet-inproc", better)
    assert claim == {"metric": metric, "workload": "duet-inproc", "pairs": 4,
                     "change_wins": wins}


def test_one_run_has_no_spread():
    assert bench_pairs.spread([3.0]) == {"median": 3.0, "iqr": 0.0, "n": 1}
    assert bench_pairs.spread([]) == {"median": None, "iqr": 0.0, "n": 0}
