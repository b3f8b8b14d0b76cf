"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on the terminal.
"""

import itertools
import json
import os
import random
import string
import time
from contextlib import contextmanager

import pytest

from duetsim.acts import DialogueAct, DialogueContext, parse_act_list, render_act_list
from duetsim.agenda import AgendaUserSimulator
from duetsim.backend import ScriptedBackend
from duetsim.cli import ExperimentConfig, read_logs, run_experiment
from duetsim.errors import DuetSimError
from duetsim.loop import DuetSession, LoopConfig, next_user_turn, run_dialogue
from duetsim.metrics import (
    conditional_bigram_entropy,
    diversity,
    fulfillment,
    hdd,
    msttr,
    mtld,
    render_report,
    shannon_entropy,
    unique_ngrams,
    user_utterances,
)
from duetsim.prompts import (
    DEFAULT_GENERATOR_REQUIREMENTS,
    PromptConfig,
    generator_step_prompt,
)
from duetsim.system import SystemAgent
from duetsim.world import generate_goal

from conftest import act, make_log, make_turns, simple_goal

TOL = 1e-9


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL: {description}", flush=True)
        raise
    print(f"[criterion {number}] PASS: {description}", flush=True)


@contextmanager
def deadline(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


WORDS = ["cat", "dog", "ran", "fast", "blue", "sky", "tree", "bird", "song",
         "hill", "road", "lamp", "book", "rain", "wind", "door", "wall",
         "fish", "moon", "star"]


def varied_stream():
    stream, wi = [], 0
    for i in range(30):
        if i % 3 == 2:
            stream.append("the")
        else:
            stream.append(WORDS[wi])
            wi += 1
    return stream


def test_criterion_1_metric_oracles():
    with criterion(1, "diversity metrics match hand-computed oracles"), \
            deadline(5.0):
        for stream, expected in [
            ([], 0.0), (["a"], 0.0), (["a", "b"], 1.0),
            (["a", "a", "b", "b"], 1.0), (["a", "b", "c", "d"], 2.0),
            (["a", "a", "b"], 0.9182958340544896),
            (["a", "a", "a", "b"], 0.8112781244591328),
        ]:
            assert shannon_entropy(stream) == pytest.approx(expected, abs=TOL)

        for stream, expected in [
            (["a"], 0.0), (["a", "b"], 0.0), (["a", "b", "c"], 0.0),
            (["a", "b", "a", "b", "a"], 0.0),
            (["a", "a", "b", "b"], 2.0 / 3.0),
            (["a", "a", "b", "a", "a", "b"], 0.8),
        ]:
            assert conditional_bigram_entropy(stream) == pytest.approx(
                expected, abs=TOL)

        for stream, segment, expected in [
            (["a", "b", "a", "b"], 2, 1.0),
            (["a", "a", "b", "b"], 2, 0.5),
            (["a", "b", "b", "b"], 2, 0.75),
            (["a", "b", "c"], 2, 1.0),
            (["a", "b"] * 3, 3, 2.0 / 3.0),
            (["a"] * 50, 50, 0.02),
        ]:
            assert msttr(stream, segment) == pytest.approx(expected, abs=TOL)

        for stream, expected in [
            (["a"] * 50 + ["b"] * 50, 0.047619047619047616),
            (["a"] * 42, 0.023809523809523808),
            ([f"t{i}" for i in range(42)], 1.0),
            (["a"] * 84, 1 / 42),
            (["a"] * 49 + ["b"], (1 + (1 - 8 / 50)) / 42),
            ([f"t{i % 2}" for i in range(42)], 0.047619047619047616),
        ]:
            assert hdd(stream) == pytest.approx(expected, abs=TOL)

        # Monte-Carlo fixture: analytic HDD vs direct sampling, 1e-2 tolerance
        stream = ["a"] * 50 + ["b"] * 50
        rng = random.Random(0)
        estimate = sum(len(set(rng.sample(stream, 42))) / 42
                       for _ in range(20000)) / 20000
        assert hdd(stream) == pytest.approx(estimate, abs=1e-2)

        for stream, expected in [
            (varied_stream(), 15.86283185840708),
            (sorted(varied_stream()), 11.25),
            (["a", "a", "a", "a"], 2.0),
            (list("aabbccddeeffgghhiijj"), 2.0),
            (["a", "b"] * 10, 20 / 6),
            (["a", "a", "b", "a", "a", "b"], 6 / 2),
        ]:
            assert mtld(stream) == pytest.approx(expected, abs=TOL)

        for stream, n, expected in [
            (["a", "b", "a", "b"], 1, 2), (["a", "b", "a", "b"], 2, 2),
            (["a", "b", "a", "b"], 3, 2), (["a"], 2, 0),
            (["a", "a", "a"], 2, 1), (list("abcdef"), 3, 4),
        ]:
            assert unique_ngrams(stream, n) == expected


def test_criterion_2_fulfillment_oracles(ontology, entities):
    with criterion(2, "hand-scored fulfillment fixtures reproduce exact values"), \
            deadline(1.0):
        def scored(goal, turns, reason="user_bye"):
            return fulfillment([make_log(goal, turns, reason)],
                               ontology, entities).dialogues[0]

        goal_pr = simple_goal(info={"name": "ugly duckling"}, reqt=("phone",))

        # success
        s = scored(goal_pr, make_turns(
            ("user", [act("request", "restaurant", "phone")], "Phone?"),
            ("system", [act("inform", "restaurant", "phone", "01223176749")],
             "01223176749.")))
        assert (s.complete, s.success, s.precision, s.recall, s.f1) == (
            True, True, 1.0, 1.0, 1.0)

        # complete but not success (wrong value)
        s = scored(goal_pr, make_turns(
            ("user", [act("request", "restaurant", "phone")], "Phone?"),
            ("system", [act("inform", "restaurant", "phone", "000")], "000.")))
        assert (s.complete, s.success, s.precision, s.recall) == (
            True, False, 0.0, 0.0)

        # nooffer failure
        s = scored(simple_goal(info={"food": "martian"}, reqt=("phone",)),
                   make_turns(
                       ("user", [act("inform", "restaurant", "food", "martian")],
                        "Hi."),
                       ("system", [act("nooffer", "restaurant")], "Nothing.")))
        assert (s.complete, s.success, s.recall) == (False, False, 0.0)

        # turn-cap termination, request never answered
        s = scored(goal_pr, make_turns(
            ("user", [act("inform", "restaurant", "name", "ugly duckling")], "Hi."),
            ("system", [act("recommend", "restaurant", "name", "ugly duckling")],
             "Try it.")), reason="turn_cap")
        assert (s.complete, s.success) == (False, False)

        booking_goal = simple_goal(info={"name": "ugly duckling"}, reqt=(),
                                   book={"book day": "tuesday"})
        booked = [("user", [act("inform", "restaurant", "name", "ugly duckling")],
                   "Hi."),
                  ("system", [act("recommend", "restaurant", "name",
                                  "ugly duckling")], "Try it.")]

        # booking mismatch: wrong day booked
        s = scored(booking_goal, make_turns(
            *booked,
            ("user", [act("book", "restaurant", "book day", "wednesday")], "Book."),
            ("system", [act("offer_booked", "restaurant", "ref", "AAAA1111"),
                        act("offer_booked", "restaurant", "name", "ugly duckling")],
             "Done.")))
        assert (s.complete, s.success, s.bookings_matched) == (True, False, 0)

        # booking matched
        s = scored(booking_goal, make_turns(
            *booked,
            ("user", [act("book", "restaurant", "book day", "tuesday")], "Book."),
            ("system", [act("offer_booked", "restaurant", "ref", "AAAA1111"),
                        act("offer_booked", "restaurant", "name", "ugly duckling")],
             "Done.")))
        assert (s.success, s.bookings_matched) == (True, 1)

        # unrequested extra inform: precision 0.5, recall 1.0
        s = scored(goal_pr, make_turns(
            ("user", [act("request", "restaurant", "phone")], "Phone?"),
            ("system", [act("inform", "restaurant", "phone", "01223176749"),
                        act("inform", "restaurant", "postcode", "cb3dg")], "Sure.")))
        assert (s.precision, s.recall) == (0.5, 1.0)
        assert s.f1 == pytest.approx(2 / 3, abs=TOL)

        # partial recall: one of two requests answered
        s = scored(simple_goal(info={"name": "ugly duckling"},
                               reqt=("phone", "address")),
                   make_turns(
                       ("user", [act("request", "restaurant", "phone")], "Phone?"),
                       ("system", [act("inform", "restaurant", "phone",
                                       "01223176749")], "Sure.")))
        assert (s.complete, s.precision, s.recall) == (False, 1.0, 0.5)

        # aggregate book_rate is None when no goal has a booking subtask
        report = fulfillment([make_log(goal_pr, make_turns(
            ("user", [act("request", "restaurant", "phone")], "Phone?"),
            ("system", [act("inform", "restaurant", "phone", "01223176749")],
             "Sure.")))], ontology, entities)
        assert report.book_rate is None


def test_criterion_3_rule_vs_rule(ontology, entities):
    with criterion(3, "agenda vs rule system: success >= 0.90, turns <= 15"), \
            deadline(10.0):
        logs = []
        for seed in range(100):
            goal = generate_goal(seed, ontology, entities)
            logs.append(run_dialogue(goal, AgendaUserSimulator(goal),
                                     SystemAgent(ontology, entities, seed=seed),
                                     max_user_turns=20, seed=seed))
        report = fulfillment(logs, ontology, entities)
        assert report.success_rate >= 0.90, report.success_rate
        assert report.avg_turns <= 15.0, report.avg_turns


def test_criterion_4_loop_state_machine(ontology):
    with criterion(4, "duet loop: iteration count, feedback threading, budgets"):
        goal = simple_goal(info={"name": "ugly duckling"}, reqt=("phone",))
        steps = ["inform", "restaurant", "name", "ugly duckling"]
        nlg = ["I want ugly duckling.", "Hi, I want ugly duckling."]

        plans = [p for k in range(1, 5)
                 for p in itertools.product([True, False], repeat=k)]
        for plan in plans:
            if True in plan:
                max_iterations, expected = 4, plan.index(True) + 1
            else:
                max_iterations, expected = len(plan), len(plan)
            consumed = plan[:expected]
            verdicts = ["ACCEPT" if v else f"REJECT V{i + 1}: issue {i + 1}"
                        for i, v in enumerate(consumed)]
            gen = ScriptedBackend(steps * max_iterations + nlg)
            ver = ScriptedBackend(verdicts)
            session = DuetSession(
                goal=goal, ontology=ontology,
                generator_backend=gen, verifier_backend=ver,
                loop_config=LoopConfig(max_iterations=max_iterations))
            trace, _ = next_user_turn(session, DialogueContext())
            assert trace.iterations == expected
            assert ver.calls == expected
            assert gen.calls == 4 * expected + 2
            for i, accepted in enumerate(consumed[:-1]):
                if not accepted:
                    window = gen.requests[4 * (i + 1):4 * (i + 2)]
                    assert all(f"issue {i + 1}" in r.user_text for r in window)

        # no verifier backend: single iteration, no verdict
        gen = ScriptedBackend(steps + nlg)
        session = DuetSession(goal=goal, ontology=ontology,
                              generator_backend=gen, verifier_backend=None)
        trace, _ = next_user_turn(session, DialogueContext())
        assert trace.iterations == 1
        assert trace.attempts[0][1] is None
        assert gen.calls == 4 + 2


def test_criterion_5_deterministic_replay(tmp_path):
    with criterion(5, "identical config + replay cassette -> byte-identical logs"):
        dialogues = 3
        turn = ["bye", "general", "", "", "ACCEPT", "Goodbye.", "Thanks, bye!"]
        script_path = tmp_path / "script.jsonl"
        with open(script_path, "w") as f:
            for line in turn * dialogues:
                f.write(json.dumps(line) + "\n")
        cassette = tmp_path / "cassette.jsonl"

        def config(mode, out):
            return ExperimentConfig(
                simulator="duet", dialogues=dialogues, seed=0,
                output_dir=str(tmp_path / out),
                generator_backend={"kind": "scripted",
                                   "script_file": str(script_path)},
                cassette={"mode": mode, "path": str(cassette)})

        recorded = run_experiment(config("record", "record")) / "logs.jsonl"
        replay_a = run_experiment(config("replay", "replay_a")) / "logs.jsonl"
        replay_b = run_experiment(config("replay", "replay_b")) / "logs.jsonl"
        assert replay_a.read_bytes() == replay_b.read_bytes()
        assert replay_a.read_bytes() == recorded.read_bytes()


def test_criterion_6_codec_properties():
    with criterion(6, "codec: 10^4 round trips and 10^4 fuzzed parses"):
        rng = random.Random(42)
        intents = ["inform", "request", "book", "bye", "recommend", "nooffer"]
        charset = string.ascii_letters + string.digits + " '\",[]\\:#{}-"

        def rand_text():
            return "".join(rng.choice(charset) for _ in range(rng.randint(0, 12)))

        for _ in range(10_000):
            # parsing normalizes case on intent/domain/slot and strips the
            # value, so round-trip identity holds for normalized acts
            acts = [DialogueAct(rng.choice(intents), rand_text(), rand_text(),
                                rand_text()).normalized()
                    for _ in range(rng.randint(1, 4))]
            assert parse_act_list(render_act_list(acts)) == acts

        for _ in range(10_000):
            raw = "".join(rng.choice(charset) for _ in range(rng.randint(0, 40)))
            try:
                parse_act_list(raw)
            except DuetSimError:
                pass  # structured rejection is fine; any other exception is not


def test_criterion_7_ablation_switches():
    with criterion(7, "omit_goal / omit_history / render_mode prompt variants"):
        goal = simple_goal(info={"name": "ugly duckling"}, reqt=("phone",))
        ctx = DialogueContext(turns=make_turns(
            ("user", [act("inform", "restaurant", "name", "ugly duckling")],
             "Looking for ugly duckling.")))

        def prompt(**kwargs):
            return generator_step_prompt(
                goal, ctx, DEFAULT_GENERATOR_REQUIREMENTS, "intent", {},
                config=PromptConfig(**kwargs)).user_text

        full = prompt()
        assert "GOAL:" in full and "CONVERSATION SO FAR:" in full

        no_goal = prompt(omit_goal=True)
        assert "GOAL:" not in no_goal
        assert "CONVERSATION SO FAR:" in no_goal
        assert "REQUIREMENTS:" in no_goal

        no_history = prompt(omit_history=True)
        assert "CONVERSATION SO FAR:" not in no_history
        assert "GOAL:" in no_history
        assert "REQUIREMENTS:" in no_history

        as_text = prompt(render_mode="utterances")
        as_acts = prompt(render_mode="acts")
        assert "Looking for ugly duckling." in as_text
        assert "[['inform', 'restaurant', 'name', 'ugly duckling']]" in as_acts
        assert "Looking for ugly duckling." not in as_acts


@pytest.mark.live
@pytest.mark.skipif(not os.environ.get("DUETSIM_LIVE_BASE_URL"),
                    reason="set DUETSIM_LIVE_BASE_URL to run the live smoke test")
def test_criterion_8_live_smoke(tmp_path, ontology, entities):
    with criterion(8, "5 live dialogues complete and produce a parseable report"):
        config = ExperimentConfig(
            simulator="duet", dialogues=5, seed=0,
            output_dir=str(tmp_path / "live"),
            generator_backend={
                "kind": "http",
                "base_url": os.environ["DUETSIM_LIVE_BASE_URL"],
                "model": os.environ.get("DUETSIM_LIVE_MODEL", ""),
                "api_key_env": os.environ.get("DUETSIM_LIVE_API_KEY_ENV",
                                              "DUETSIM_LIVE_API_KEY"),
            })
        out_dir = run_experiment(config)
        logs = read_logs([out_dir / "logs.jsonl"])
        assert len(logs) == 5
        report = render_report(fulfillment(logs, ontology, entities),
                               diversity(user_utterances(logs)))
        assert "Goal fulfillment" in report
