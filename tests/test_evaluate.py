"""`evaluate` output pinned byte for byte on fixed log sets."""

import hashlib
import json

from click.testing import CliRunner

from duetsim.cli import ExperimentConfig, main, run_experiment

# sha256 of `evaluate --format json` on the agenda logs of seeds 0-199
# (turn_cap 20, bundled world), recorded before the evaluate path was
# rewritten. Any change to it means a change in what evaluate reports.
EVALUATE_AGENDA_SEEDS_0_199_SHA256 = (
    "6424bef5cd9528f2d72ea081ed1f44db23d89fd67df859f7dc606ec70a6595ec")


def evaluate_json(path) -> str:
    result = CliRunner().invoke(main, ["evaluate", str(path), "--format", "json"])
    assert result.exit_code == 0, result.output
    return result.output


def test_agenda_evaluate_pinned(tmp_path):
    out = run_experiment(ExperimentConfig(simulator="agenda", dialogues=200, seed=0,
                                          turn_cap=20, parallelism=1,
                                          output_dir=str(tmp_path / "run")))
    output = evaluate_json(out / "logs.jsonl")
    assert hashlib.sha256(output.encode()).hexdigest() == \
        EVALUATE_AGENDA_SEEDS_0_199_SHA256


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
    # a domain the world does not know; a goal no entity satisfies
    {"goal": {"restaurant": {"info": {"food": "martian"}, "reqt": ["phone"]},
              "spaceport": {"info": {"gate": "9"}, "reqt": ["phone"]}},
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


def test_hand_built_evaluate_pinned(tmp_path):
    path = tmp_path / "logs.jsonl"
    path.write_text("".join(json.dumps({"v": 1, "log": log}, sort_keys=True) + "\n"
                            for log in HAND_BUILT_LOGS))
    assert evaluate_json(path) == HAND_BUILT_EVALUATE_JSON
