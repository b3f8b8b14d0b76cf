"""`evaluate` output pinned byte for byte on fixed log sets."""

import copy
import hashlib
import json
import re

import pytest

from duetsim.acts import read_logs
from duetsim.cli import ExperimentConfig, run_experiment
from duetsim.errors import LogParseError

from conftest import invoke
from test_read_logs import pinned_runs  # noqa: F401  (a fixture)

# sha256 of `evaluate --format json` on the agenda logs of seeds 0-199
# (turn_cap 20, bundled world), recorded before the evaluate path was
# rewritten. Any change to it means a change in what evaluate reports.
EVALUATE_AGENDA_SEEDS_0_199_SHA256 = (
    "6424bef5cd9528f2d72ea081ed1f44db23d89fd67df859f7dc606ec70a6595ec")
# sha256 of `evaluate` in its default table format on the same logs.
EVALUATE_TABLE_AGENDA_SEEDS_0_199_SHA256 = (
    "37143f51d6cdb5e3a50c2463c1b179477d66da8dff2c0674922a861e72afd05f")
# sha256 of `evaluate --format json` on the duet logs of seeds 0-9 pinned as
# DUET_SEEDS_0_9_SHA256, recorded before tokenize cached each utterance's
# tokens. Their user turns repeat one sentence.
EVALUATE_DUET_SEEDS_0_9_SHA256 = (
    "ccecaf712bd7f72da61e4b66911046dd1d526f4da06ec223b073438f04e48505")


def evaluate_json(path) -> str:
    result = invoke("evaluate", str(path), "--format", "json")
    assert result.exit_code == 0, result.output
    return result.output


def test_agenda_evaluate_pinned(tmp_path):
    out = run_experiment(ExperimentConfig(simulator="agenda", dialogues=200, seed=0,
                                          turn_cap=20, parallelism=1,
                                          output_dir=str(tmp_path / "run")))
    output = evaluate_json(out / "logs.jsonl")
    assert hashlib.sha256(output.encode()).hexdigest() == \
        EVALUATE_AGENDA_SEEDS_0_199_SHA256


def test_agenda_evaluate_table_pinned(tmp_path):
    out = run_experiment(ExperimentConfig(simulator="agenda", dialogues=200, seed=0,
                                          turn_cap=20, parallelism=1,
                                          output_dir=str(tmp_path / "run")))
    result = invoke("evaluate", str(out / "logs.jsonl"))
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == \
        EVALUATE_TABLE_AGENDA_SEEDS_0_199_SHA256


def test_duet_evaluate_pinned(pinned_runs):
    output = evaluate_json(pinned_runs[1])
    assert hashlib.sha256(output.encode()).hexdigest() == \
        EVALUATE_DUET_SEEDS_0_9_SHA256


def _turn(index, speaker, acts, utterance):
    return {"speaker": speaker, "acts": acts, "utterance": utterance,
            "turn_index": index}


# Three logs that reach the branches agenda runs never take.
HAND_BUILT_LOGS = [
    # padded and mixed-case goal and provided values; a matched booking
    {"goal": {"restaurant": {"info": {"name": "Ugly Duckling "},
                             "reqt": ["food", "phone"],
                             "book": {"book day": "Tuesday", "book people": "2"}}},
     "turns": [
         _turn(0, "user", [["inform", "restaurant", "name", "Ugly Duckling "]],
               "Chinese food, please."),
         _turn(1, "system", [["inform", "restaurant", "food", "  CHINESE"],
                             ["inform", "restaurant", "phone", " 01223176749 "]],
               "It serves chinese food."),
         _turn(2, "user", [["book", "restaurant", "book day", "tuesday"]],
               "Book Tuesday for two."),
         _turn(3, "system", [["offer_booked", "restaurant", "ref", "AAAA1111"]],
               "Booked."),
     ],
     "annotations": {"provided": [["restaurant", "food", "  CHINESE"],
                                  ["restaurant", "phone", " 01223176749 "]],
                     "bookings": [{"domain": "restaurant", "ref": "AAAA1111",
                                   "entity_name": "UGLY duckling",
                                   "constraints": {"book day": "tuesday",
                                                   "book people": "2"}}]},
     "termination_reason": "user_bye", "seed": 1},
    # a booking without a reference, then one on the wrong day; a value
    # provided for a domain outside the goal
    {"goal": {"hotel": {"info": {"area": "south", "type": "guesthouse"},
                        "reqt": ["phone"],
                        "book": {"book day": "friday", "book stay": "3"}}},
     "turns": [
         _turn(0, "user", [["inform", "hotel", "area", "south"]],
               "A guesthouse in the south?"),
         _turn(1, "system", [["inform", "hotel", "phone", "01223206905"]],
               "Call 01223206905."),
         _turn(2, "user", [["book", "hotel", "book day", "saturday"]],
               "Reserve Saturday."),
     ],
     "annotations": {"provided": [["hotel", "phone", "01223206905"],
                                  ["restaurant", "postcode", "CB3DG"]],
                     "bookings": [{"domain": "hotel", "ref": "",
                                   "entity_name": "acorn guest house",
                                   "constraints": {"book day": "friday",
                                                   "book stay": "3"}},
                                  {"domain": "hotel", "ref": "BBBB2222",
                                   "entity_name": "acorn guest house",
                                   "constraints": {"book day": "saturday",
                                                   "book stay": "3"}}]},
     "termination_reason": "user_bye", "seed": 2},
    # a provided value in a domain the world does not know; a goal no entity
    # satisfies, with a requested slot never provided
    {"goal": {"restaurant": {"info": {"food": "martian"}, "reqt": ["phone", "address"]}},
     "turns": [
         _turn(0, "user", [["inform", "spaceport", "gate", "9"]],
               "Martian cuisine near gate nine."),
         _turn(1, "system", [["nooffer", "restaurant", "", ""]], "Nothing."),
     ],
     "annotations": {"provided": [["restaurant", "phone", "01223176749"],
                                  ["spaceport", "phone", "123"]],
                     "bookings": []},
     "termination_reason": "turn_cap", "seed": 3},
]

# The user turns hold 19 tokens, all distinct: too few for MSTTR and HD-D,
# and a type-token ratio that never falls for MTLD.
HAND_BUILT_EVALUATE_JSON = """\
{
  "fulfillment": {
    "complete_rate": 0.6666666666666666,
    "success_rate": 0.3333333333333333,
    "precision": 0.5,
    "recall": 0.6666666666666666,
    "f1": 0.5714285714285715,
    "book_rate": 0.5,
    "avg_turns": 3.0
  },
  "diversity": {
    "unigrams": 19,
    "bigrams": 18,
    "trigrams": 17,
    "entropy": 4.247927513443583,
    "conditional_entropy": 0.0,
    "msttr": null,
    "hdd": null,
    "mtld": null
  }
}
"""


def write_logs(path, logs):
    path.write_text("".join(json.dumps({"v": 1, "log": log}, sort_keys=True) + "\n"
                            for log in logs))
    return path


def test_hand_built_evaluate_pinned(tmp_path):
    path = write_logs(tmp_path / "logs.jsonl", HAND_BUILT_LOGS)
    assert evaluate_json(path) == HAND_BUILT_EVALUATE_JSON


def test_goal_in_unknown_domain_is_rejected(tmp_path, ontology):
    """A goal section in a domain the world does not know cannot be scored:
    given the world, it is an error naming its record, as a booking there
    is; without one, the record reads."""
    logs = copy.deepcopy(HAND_BUILT_LOGS)
    logs[2]["goal"]["spaceport"] = {"info": {"gate": "9"}, "reqt": ["phone"]}
    path = write_logs(tmp_path / "logs.jsonl", logs)
    message = f"line 3: {path}: seed 3: unknown domain 'spaceport'"
    with pytest.raises(LogParseError, match=f"^{re.escape(message)}$"):
        read_logs([path], ontology)
    assert "spaceport" in read_logs([path])[2].goal.domains
    result = invoke("evaluate", str(path))
    assert (result.exit_code, result.output) == (2, f"error: {message}\n")
