import copy
from dataclasses import fields

import pytest

from duetsim.acts import DialogueAct
from duetsim.agenda import (
    Agenda,
    AgendaUserSimulator,
    agenda_step,
    init_agenda,
    template_nlg,
)
from duetsim.errors import MissingTemplate
from duetsim.loop import run_dialogue
from duetsim.system import SystemAgent
from duetsim.world import generate_goal

from conftest import act, simple_goal


class TestInit:
    def test_stack_order(self):
        goal = simple_goal(info={"food": "chinese"}, reqt=("phone",))
        agenda = init_agenda(goal)
        emitted = [(a.intent, a.slot) for a in reversed(agenda.stack)]
        assert emitted == [("inform", "food"), ("request", "phone"), ("bye", "")]

    def test_booking_between_requests_and_bye(self):
        goal = simple_goal(info={"food": "chinese"}, reqt=("phone",),
                           book={"book day": "tuesday"})
        agenda = init_agenda(goal)
        emitted = [a.intent for a in reversed(agenda.stack)]
        assert emitted == ["inform", "request", "book", "bye"]

    def test_empty_reqt_no_requests(self):
        agenda = init_agenda(simple_goal(info={"food": "chinese"}))
        assert not any(a.intent == "request" for a in agenda.stack)


class TestRules:
    def test_system_request_pushes_matching_inform(self):
        goal = simple_goal(info={"food": "chinese"}, reqt=("phone",))
        agenda = init_agenda(goal)
        acts, agenda = agenda_step(agenda, [])  # pops inform + request
        acts, agenda = agenda_step(agenda, [act("request", "restaurant", "food")])
        assert DialogueAct("inform", "restaurant", "food", "chinese") in acts

    def test_last_request_answered_then_bye(self):
        goal = simple_goal(info={"food": "chinese"}, reqt=("phone",))
        agenda = init_agenda(goal)
        acts, agenda = agenda_step(agenda, [])
        assert {a.intent for a in acts} == {"inform", "request"}
        acts, agenda = agenda_step(
            agenda, [act("inform", "restaurant", "phone", "01223000111")])
        assert [a.intent for a in acts] == ["bye"]

    def test_nooffer_without_relaxable_constraint_gives_up(self):
        goal = simple_goal(reqt=("phone",))
        agenda = init_agenda(goal)
        acts, agenda = agenda_step(agenda, [])  # request popped, none informed
        acts, agenda = agenda_step(agenda, [act("nooffer", "restaurant")])
        assert [a.intent for a in acts] == ["bye"]
        assert agenda.failed

    def test_nooffer_relaxes_once(self):
        goal = simple_goal(info={"food": "chinese", "area": "north"},
                           reqt=("phone",))
        agenda = init_agenda(goal)
        acts, agenda = agenda_step(agenda, [])  # informs area + food
        acts, agenda = agenda_step(agenda, [act("nooffer", "restaurant")])
        assert DialogueAct("inform", "restaurant", "food", "dontcare") in acts
        assert not agenda.failed

    def test_booking_group_emitted_whole(self):
        goal = simple_goal(info={"food": "chinese"},
                           reqt=(),
                           book={"book day": "tuesday", "book people": "4",
                                 "book time": "18:00"})
        agenda = init_agenda(goal)
        acts, agenda = agenda_step(agenda, [])  # inform turn
        acts, agenda = agenda_step(agenda, [])
        assert all(a.intent == "book" for a in acts)
        assert len(acts) == 3

    def test_transition_is_pure(self):
        goal = simple_goal(info={"food": "chinese", "area": "north"},
                           reqt=("phone", "address"),
                           book={"book day": "tuesday"})
        agenda = init_agenda(goal)
        _, agenda = agenda_step(agenda, [])  # informs area + food
        _, agenda = agenda_step(agenda, [])  # requests address + phone
        before = copy.deepcopy(agenda)
        system_acts = [
            act("request", "restaurant", "pricerange"),   # stack
            act("inform", "restaurant", "phone", "01223000111"),  # request_status
            act("nooffer", "restaurant"),                 # relaxed
            act("offer_book", "restaurant"),
            act("offer_booked", "restaurant", "ref", "ABCD1234"),  # booking_done
        ]
        _, updated = agenda_step(agenda, system_acts)
        for f in fields(Agenda):
            assert getattr(agenda, f.name) == getattr(before, f.name), f.name
        # the step did write to every mutable container of its own copy
        for name in ("stack", "request_status", "ask_counts", "informed",
                     "booking_done", "relaxed"):
            assert getattr(updated, name) != getattr(before, name), name

    def test_determinism(self):
        goal = simple_goal(info={"food": "chinese"}, reqt=("phone", "address"))
        a1, a2 = init_agenda(goal), init_agenda(goal)
        sys_acts = [act("request", "restaurant", "area")]
        for _ in range(3):
            acts1, a1 = agenda_step(a1, sys_acts)
            acts2, a2 = agenda_step(a2, sys_acts)
            assert acts1 == acts2


class TestProgress:
    def test_no_livelock_over_100_seeds(self, ontology, entities):
        for seed in range(100):
            goal = generate_goal(seed, ontology, entities)
            log = run_dialogue(goal, AgendaUserSimulator(goal),
                               SystemAgent(ontology, entities, seed=seed),
                               max_user_turns=20, seed=seed)
            assert log.termination_reason == "user_bye", seed

    def test_no_duplicate_informs_without_rerequest(self, ontology, entities):
        for seed in range(30):
            goal = generate_goal(seed, ontology, entities)
            log = run_dialogue(goal, AgendaUserSimulator(goal),
                               SystemAgent(ontology, entities, seed=seed))
            seen = set()
            rerequested = set()
            for turn in log.turns:
                if turn.speaker == "system":
                    for a in turn.acts:
                        if a.intent == "request":
                            rerequested.add((a.domain, a.slot))
                    continue
                for a in turn.acts:
                    if a.intent != "inform":
                        continue
                    key = (a.domain, a.slot, a.value)
                    assert key not in seen or (a.domain, a.slot) in rerequested
                    seen.add(key)


class TestTemplateNLG:
    def test_request_phone(self):
        out = template_nlg([act("request", "restaurant", "phone")])
        assert out == "What is the phone number of the restaurant?"

    def test_inform_food(self):
        out = template_nlg([act("inform", "restaurant", "food", "chinese")])
        assert out == "I am looking for a chinese restaurant."

    def test_missing_template(self):
        with pytest.raises(MissingTemplate):
            template_nlg([act("select", "restaurant", "wingspan", "x")])

    def test_multi_act_joined(self):
        out = template_nlg([act("inform", "restaurant", "food", "thai"),
                            act("request", "restaurant", "phone")])
        assert out == ("I am looking for a thai restaurant. "
                       "What is the phone number of the restaurant?")
