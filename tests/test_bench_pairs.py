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


def pairs(parent_rates, change_rates):
    return [run(side, pair, rate) for pair, rates in
            enumerate(zip(parent_rates, change_rates), start=1)
            for side, rate in zip(("parent", "change"), rates)]


def judged(runs, metric="simulate_dialogues_per_s", better="higher"):
    table = bench_pairs.summarise(runs, [metric])["duet-inproc"][metric]
    claim = bench_pairs.claim_wins(runs, metric, "duet-inproc", better)
    return bench_pairs.judge(claim, table, better)


PARENT = [300, 310, 320, 330, 340, 300, 310, 320, 330, 340]  # IQR 25


@pytest.mark.parametrize("change,wins,met", [
    ([p + 40 for p in PARENT], 10, True),
    ([p + 40 for p in PARENT[:9]] + [200], 9, True),
    ([p + 40 for p in PARENT[:8]] + [200, 200], 8, False),  # 8 in 10
    ([p + 40 for p in PARENT[:9]] + [PARENT[9]], 9, True),  # a tie is no win
    ([p + 40 for p in PARENT[:8]] + PARENT[8:], 8, False),  # two ties: 8 in 10
    ([p + 10 for p in PARENT], 10, False),  # every pair, but inside the IQR
])
def test_claim_met_needs_nine_in_ten_and_a_gain_beyond_the_parent_iqr(
        change, wins, met):
    claim = judged(pairs(PARENT, change))
    assert claim["change_wins"] == wins and claim["pairs"] == 10
    assert claim["parent_iqr"] == 25.0
    assert claim["met"] is met


def test_claim_on_a_lower_is_better_metric():
    """setup_s is 1000 / rate in these runs: a faster change is lower."""
    claim = judged(pairs(PARENT, [p + 40 for p in PARENT]), "setup_s", "lower")
    assert claim["change_wins"] == 10 and claim["median_difference"] < 0
    assert claim["met"] is (-claim["median_difference"] > claim["parent_iqr"])


def test_claim_counts_a_failed_run_as_a_lost_pair():
    runs = pairs(PARENT, [p + 40 for p in PARENT])
    runs[-1] = run("change", 10, 1, error=True)
    claim = judged(runs)
    assert (claim["pairs"], claim["change_wins"], claim["met"]) == (10, 9, True)
    assert claim["median_difference"] == 40.0
    assert claim["median_change_pct"] == round(100 * 40 / 320, 1)
