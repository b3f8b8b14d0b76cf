import collections
import itertools

import pytest

import duetsim.acts
import duetsim.world

from duetsim.acts import DialogueContext
from duetsim.backend import ScriptedBackend
from duetsim.errors import TurnAborted
from duetsim.loop import (
    ABORT_TURN,
    DuetSession,
    DuetUserSimulator,
    LoopConfig,
    next_user_turn,
    run_dialogue,
)
from duetsim.agenda import AgendaUserSimulator
from duetsim.prompts import PromptConfig
from duetsim.system import SystemAgent
from duetsim.world import generate_goal

from conftest import act, simple_goal

GOAL = simple_goal(info={"name": "ugly duckling"}, reqt=("phone",))

STEPS = ["inform", "restaurant", "name", "ugly duckling"]
NLG = ["I am looking for ugly duckling.", "Hi, can you find ugly duckling for me?"]


def make_session(ontology, verdicts, max_iterations=3,
                 on_exhaustion="use_last_draft"):
    gen_backend = ScriptedBackend(STEPS * max(len(verdicts), 1) + NLG)
    ver_backend = ScriptedBackend(verdicts)
    session = DuetSession(
        goal=GOAL, ontology=ontology,
        generator_backend=gen_backend, verifier_backend=ver_backend,
        loop_config=LoopConfig(max_iterations=max_iterations,
                               on_exhaustion=on_exhaustion))
    return session, gen_backend, ver_backend


@pytest.mark.parametrize("fields,error", [
    ({"max_iterations": 0}, ValueError),
    ({"max_iterations": True}, TypeError),
    ({"max_iterations": 2.0}, TypeError),
    ({"on_exhaustion": "retry"}, ValueError),
])
def test_loop_config_rejects_bad_values(fields, error):
    with pytest.raises(error):
        LoopConfig(**fields)


class TestLoop:
    def test_reject_then_accept(self, ontology):
        session, gen_backend, _ = make_session(
            ontology, ["REJECT V1: malformed", "ACCEPT"])
        trace, _ = next_user_turn(session, DialogueContext())
        assert trace.iterations == 2
        assert all("malformed" in r.user_text for r in gen_backend.requests[4:8])

    def test_accept_first(self, ontology):
        session, gen_backend, _ = make_session(ontology, ["ACCEPT"])
        trace, _ = next_user_turn(session, DialogueContext())
        assert trace.iterations == 1
        assert not any("FEEDBACK" in r.user_text for r in gen_backend.requests)

    def test_exhaustion_uses_last_draft(self, ontology):
        session, _, _ = make_session(ontology, ["REJECT V1: a", "REJECT V2: b",
                                                "REJECT V3: c"])
        trace, _ = next_user_turn(session, DialogueContext())
        assert trace.iterations == 3
        assert all(not v.accepted for _, v in trace.attempts)
        assert trace.final_acts == trace.attempts[-1][0].acts

    def test_exhaustion_abort(self, ontology):
        session, _, _ = make_session(ontology, ["REJECT V1: a"],
                                     max_iterations=1, on_exhaustion=ABORT_TURN)
        with pytest.raises(TurnAborted):
            next_user_turn(session, DialogueContext())

    def test_verifier_disabled_single_iteration(self, ontology):
        gen_backend = ScriptedBackend(STEPS + NLG)
        session = DuetSession(goal=GOAL, ontology=ontology,
                              generator_backend=gen_backend, verifier_backend=None)
        trace, _ = next_user_turn(session, DialogueContext())
        assert trace.iterations == 1
        assert trace.attempts[0][1] is None
        assert gen_backend.calls == 4 + 2  # CoT steps + two NLG calls
        # merged requirement sets reach the single model
        assert "V1" in gen_backend.requests[0].user_text

    @pytest.mark.parametrize("verdict_plan",
                             [p for k in range(1, 5)
                              for p in itertools.product([True, False], repeat=k)])
    def test_exhaustive_verdict_sequences(self, ontology, verdict_plan):
        """Iterations = position of first accept, capped at max_iterations."""
        if True in verdict_plan:
            max_iterations = 4
            expected = verdict_plan.index(True) + 1
        else:
            # all-reject scripts exercise exhaustion at exactly their length
            max_iterations = len(verdict_plan)
            expected = len(verdict_plan)
        # the loop consumes verdicts only until the first accept
        consumed = verdict_plan[:expected]
        verdicts = ["ACCEPT" if v else f"REJECT V{i + 1}: issue {i + 1}"
                    for i, v in enumerate(consumed)]
        session, gen_backend, ver_backend = make_session(
            ontology, verdicts, max_iterations=max_iterations)
        trace, _ = next_user_turn(session, DialogueContext())
        assert trace.iterations == expected
        assert ver_backend.calls == expected
        assert gen_backend.calls == 4 * expected + 2  # CoT steps + two NLG calls
        # feedback from rejection i is threaded into all 4 prompts of i+1
        for i, accepted in enumerate(consumed[:-1]):
            if not accepted:
                window = gen_backend.requests[4 * (i + 1):4 * (i + 2)]
                assert all(f"issue {i + 1}" in r.user_text for r in window)


class TestRunDialogue:
    def test_turn_cap_one(self, ontology, entities):
        goal = generate_goal(0, ontology, entities)
        user = AgendaUserSimulator(goal)
        system = SystemAgent(ontology, entities)
        log = run_dialogue(goal, user, system, max_user_turns=1)
        assert log.termination_reason == "turn_cap"
        user_turns = [t for t in log.turns if t.speaker == "user"]
        system_turns = [t for t in log.turns if t.speaker == "system"]
        assert len(user_turns) == 1
        assert len(system_turns) <= 1

    def test_agenda_dialogue_succeeds(self, ontology, entities):
        goal = generate_goal(3, ontology, entities)
        log = run_dialogue(goal, AgendaUserSimulator(goal),
                           SystemAgent(ontology, entities))
        assert log.termination_reason == "user_bye"
        assert log.error is None
        assert log.annotations.provided  # system informed something

    def test_error_becomes_termination_reason(self, ontology, entities):
        class ExplodingUser:
            def next_turn(self, context):
                raise RuntimeError("boom")

        goal = generate_goal(0, ontology, entities)
        log = run_dialogue(goal, ExplodingUser(), SystemAgent(ontology, entities))
        assert log.termination_reason == "error"
        assert log.error == "RuntimeError: boom"
        assert log.turns == []

    def test_system_error_keeps_the_user_turn(self, ontology, entities):
        class ExplodingSystem:
            def next_turn(self, context):
                raise KeyError("no such entity")

        goal = generate_goal(0, ontology, entities)
        log = run_dialogue(goal, AgendaUserSimulator(goal), ExplodingSystem(),
                           seed=0)
        assert log.termination_reason == "error"
        assert log.error == "KeyError: 'no such entity'"
        assert [t.speaker for t in log.turns] == ["user"]
        assert log.turns[0].acts

    def test_user_reads_the_one_history(self):
        """Both speakers are asked ``next_turn`` with the one history; the
        system finds the user turn it answers, utterance and all, at its end."""
        class RecordingSpeaker:
            def __init__(self, answer):
                self.answer = answer
                self.seen = []

            def next_turn(self, context):
                self.seen.append((context, len(context.turns), context.turns[-1:]))
                return self.answer

        user = RecordingSpeaker(([act("inform", "restaurant", "food", "chinese")],
                                 "I want chinese food."))
        system = RecordingSpeaker(([act("reqmore", "general")], "Anything else?"))
        goal = simple_goal(info={"food": "chinese"}, reqt=("phone",))
        log = run_dialogue(goal, user, system, max_user_turns=3)
        context = user.seen[0][0]
        assert all(seen is context for seen, _, _ in user.seen + system.seen)
        assert [prior for _, prior, _ in user.seen] == [0, 2, 4]
        assert [prior for _, prior, _ in system.seen] == [1, 3, 5]
        for _, prior, (last,) in system.seen:
            assert last is context.turns[prior - 1]
            assert (last.speaker, last.utterance) == ("user", "I want chinese food.")
        assert log.turns == context.turns
        assert [t.turn_index for t in log.turns] == list(range(6))
        assert [t.speaker for t in log.turns] == ["user", "system"] * 3

    @staticmethod
    def scripted_duet(ontology):
        goal = simple_goal(info={"food": "chinese"}, reqt=("phone",))
        turn1 = ["inform", "restaurant", "food", "chinese",
                 "I want chinese food.", "Hi, I'd love some chinese food."]
        turn2 = ["bye", "general", "", "", "Goodbye.", "Thanks, bye!"]
        generator = ScriptedBackend(turn1 + turn2)
        verifier = ScriptedBackend(["ACCEPT", "ACCEPT"])
        session = DuetSession(goal=goal, ontology=ontology,
                              generator_backend=generator,
                              verifier_backend=verifier)
        return goal, session, generator, verifier

    def test_duet_user_in_full_dialogue(self, ontology, entities):
        goal, session, _, _ = self.scripted_duet(ontology)
        log = run_dialogue(goal, DuetUserSimulator(session),
                           SystemAgent(ontology, entities))
        assert log.termination_reason == "user_bye"
        assert log.turns[0].utterance == "Hi, I'd love some chinese food."

    def test_second_duet_turn_sees_both_speakers(self, ontology, entities):
        goal, session, generator, verifier = self.scripted_duet(ontology)
        log = run_dialogue(goal, DuetUserSimulator(session),
                           SystemAgent(ontology, entities))
        user_utterance, system_utterance = (t.utterance for t in log.turns[:2])
        assert system_utterance
        # turn 1 took four step calls and two NLG calls
        second_turn_steps = generator.requests[6:10]
        assert len(second_turn_steps) == 4 and len(verifier.requests) == 2
        for request in second_turn_steps + verifier.requests[1:]:
            assert f"USER: {user_utterance}" in request.user_text
            assert f"SYSTEM: {system_utterance}" in request.user_text

    @pytest.mark.parametrize("render_mode", ["utterances", "acts"])
    def test_prompt_sections_rendered_once(self, ontology, entities,
                                           monkeypatch, render_mode):
        """Over one dialogue the goal is described once, and each history
        line is built once per render mode, however many prompts use it."""
        goal, session, generator, verifier = self.scripted_duet(ontology)
        session.prompt_config = PromptConfig(render_mode=render_mode)
        described = []
        describe_goal = duetsim.world.describe_goal

        def counting_describe_goal(g):
            described.append(g)
            return describe_goal(g)

        lines = collections.Counter()
        turn_line = duetsim.acts._turn_line

        def counting_turn_line(turn, mode):
            lines[turn.turn_index, mode] += 1
            return turn_line(turn, mode)

        monkeypatch.setattr(duetsim.world, "describe_goal", counting_describe_goal)
        monkeypatch.setattr(duetsim.acts, "_turn_line", counting_turn_line)
        log = run_dialogue(goal, DuetUserSimulator(session),
                           SystemAgent(ontology, entities))
        assert log.termination_reason == "user_bye"
        assert len(generator.requests) + len(verifier.requests) == 2 * 7
        assert described == [goal]
        # the second user turn renders the two turns before it
        assert lines == {(i, mode): 1 for i in range(2)
                         for mode in {render_mode, "utterances"}}
