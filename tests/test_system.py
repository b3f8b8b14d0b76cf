import pytest

from duetsim.acts import DialogueAct, DialogueContext
from duetsim.errors import UnbookableDomain
from duetsim.system import (DomainView, SystemAgent, SystemState, rule_policy,
                            system_turn, track)
from duetsim.world import BookingLedger, DomainSchema, Entity, Ontology

from conftest import act

DUCKLING = Entity("restaurant", "r0", {"name": "ugly duckling", "phone": "01223176749"})


def answer(agent, user_acts):
    """The agent's next turn after a history that ends with ``user_acts``."""
    context = DialogueContext()
    context.append("user", user_acts, "")
    return agent.next_turn(context)


class TestPolicy:
    def test_informs_come_from_database(self, ontology, entities):
        acts, _ = system_turn(SystemState(),
                              [act("inform", "restaurant", "name", "ugly duckling"),
                               act("request", "restaurant", "phone")],
                              ontology, entities)
        assert DialogueAct("inform", "restaurant", "phone", "01223176749") in acts

    def test_nooffer_on_zero_matches(self, ontology, entities):
        acts, _ = system_turn(SystemState(),
                              [act("inform", "restaurant", "food", "martian")],
                              ontology, entities)
        assert acts == [DialogueAct("nooffer", "restaurant")]

    def test_request_when_underdetermined(self, ontology, entities):
        acts, _ = system_turn(SystemState(),
                              [act("inform", "restaurant", "pricerange", "moderate")],
                              ontology, entities)
        assert len(acts) == 1
        assert acts[0].intent == "request"
        assert acts[0].domain == "restaurant"

    def test_recommend_when_narrowed(self, ontology, entities):
        acts, _ = system_turn(SystemState(),
                              [act("inform", "restaurant", "name", "ugly duckling")],
                              ontology, entities)
        assert acts == [DialogueAct("recommend", "restaurant", "name",
                                    "ugly duckling")]

    def test_booking_returns_ref_and_name(self, ontology, entities):
        state = SystemState()
        system_turn(state, [act("inform", "restaurant", "name", "ugly duckling")],
                    ontology, entities)
        acts, _ = system_turn(state,
                              [act("book", "restaurant", "book day", "tuesday"),
                               act("book", "restaurant", "book people", "2"),
                               act("book", "restaurant", "book time", "18:00")],
                              ontology, entities)
        slots = {a.slot: a for a in acts}
        assert all(a.intent == "offer_booked" for a in acts)
        assert slots["name"].value == "ugly duckling"
        ref = slots["ref"].value
        assert len(ref) == 8 and ref.isalnum() and ref == ref.upper()

    def test_invalid_booking_slot_gives_nobook(self, ontology, entities):
        state = SystemState()
        system_turn(state, [act("inform", "restaurant", "name", "ugly duckling")],
                    ontology, entities)
        acts, _ = system_turn(state, [act("book", "restaurant", "book stay", "3")],
                              ontology, entities)
        assert acts == [DialogueAct("nobook", "restaurant")]

    def test_unknown_domain_noffer(self, ontology, entities):
        acts, _ = system_turn(SystemState(),
                              [act("inform", "attraction", "area", "centre")],
                              ontology, entities)
        assert acts == [DialogueAct("nooffer", "attraction")]

    def test_dontcare_constraint_ignored_in_query(self, ontology, entities):
        state = SystemState()
        system_turn(state, [act("inform", "restaurant", "food", "martian")],
                    ontology, entities)
        acts, _ = system_turn(state,
                              [act("inform", "restaurant", "food", "dontcare"),
                               act("inform", "restaurant", "name", "ugly duckling")],
                              ontology, entities)
        assert acts[0].intent == "recommend"

    def test_empty_user_turn_reqmore(self, ontology, entities):
        acts, _ = system_turn(SystemState(), [], ontology, entities)
        assert acts == [DialogueAct("reqmore", "general")]

    def test_turn_updates_state_in_place(self, ontology, entities):
        state = SystemState()
        system_turn(state, [act("inform", "restaurant", "food", "chinese")],
                    ontology, entities)
        system_turn(state, [act("inform", "restaurant", "area", "north")],
                    ontology, entities)
        assert state.constraints == {
            "restaurant": {"food": "chinese", "area": "north"}}

    def test_default_ledger_is_seed_0(self, ontology, entities):
        script = [[act("inform", "restaurant", "name", "ugly duckling")],
                  [act("book", "restaurant", "book day", "tuesday")]]
        state = SystemState()
        agent = SystemAgent(ontology, entities, seed=0)
        for user_acts in script:
            assert system_turn(state, user_acts, ontology, entities) == \
                answer(agent, user_acts)


class TestTracker:
    def test_views_in_domain_name_order(self, ontology, entities):
        state = SystemState()
        views = track(state, [act("inform", "restaurant", "name", "ugly duckling"),
                              act("request", "hotel", "phone"),
                              act("book", "restaurant")], ontology, entities)
        assert [(v.domain, v.requests, v.book) for v in views] == [
            ("hotel", ["phone"], None), ("restaurant", [], {})]
        assert [e.get("name") for e in views[1].matches] == ["ugly duckling"]
        assert len(views[0].matches) == sum(e.domain == "hotel" for e in entities)

    def test_request_only_turn_records_nothing(self, ontology, entities):
        state = SystemState({"restaurant": {"food": "chinese"}})
        track(state, [act("request", "restaurant", "phone"),
                      act("request", "hotel", "phone")], ontology, entities)
        assert state.constraints == {"restaurant": {"food": "chinese"}}

    def test_unknown_domain_records_nothing_and_matches_nothing(self, ontology,
                                                                entities):
        state = SystemState()
        views = track(state, [act("inform", "attraction", "area", "centre")],
                      ontology, entities)
        assert views == [DomainView("attraction", [], [], None)]
        assert state.constraints == {}


class TestRulePolicy:
    def test_request_for_a_slot_the_candidate_lacks_gives_nooffer(self, ontology):
        """The duet generator may request any ontology slot, a booking slot
        among them; no entity carries one."""
        views = [DomainView("restaurant", [DUCKLING], ["phone", "book day"], None)]
        assert rule_policy(views, SystemState(), ontology) == [
            DialogueAct("inform", "restaurant", "phone", "01223176749"),
            DialogueAct("nooffer", "restaurant")]

    def test_booking_in_an_unbookable_domain_gives_nobook(self):
        schema = DomainSchema(informable={"area": ("north",)}, requestable=("phone",),
                              bookable={})
        ontology = Ontology({"taxi": schema})
        taxi = Entity("taxi", "t0", {"name": "blue cab", "area": "north"})
        with pytest.raises(UnbookableDomain):
            BookingLedger().book(taxi, {}, ontology)
        views = [DomainView("taxi", [taxi], [], {})]
        assert rule_policy(views, SystemState(), ontology) == [
            DialogueAct("nobook", "taxi")]

    def test_two_domain_turn_answers_in_domain_name_order(self, ontology, entities):
        acts, _ = system_turn(SystemState(),
                              [act("inform", "restaurant", "name", "ugly duckling"),
                               act("inform", "hotel", "name", "acorn guest house")],
                              ontology, entities)
        assert acts == [
            DialogueAct("recommend", "hotel", "name", "acorn guest house"),
            DialogueAct("recommend", "restaurant", "name", "ugly duckling")]


class TestDeterminism:
    def test_same_seed_same_refs(self, ontology, entities):
        script = [[act("inform", "restaurant", "name", "ugly duckling")],
                  [act("book", "restaurant", "book day", "tuesday")]]
        outputs = []
        for _ in range(2):
            agent = SystemAgent(ontology, entities, seed=7)
            outputs.append([answer(agent, user_acts) for user_acts in script])
        assert outputs[0] == outputs[1]

    def test_utterance_matches_acts(self, ontology, entities):
        agent = SystemAgent(ontology, entities)
        acts, utterance = answer(
            agent, [act("inform", "restaurant", "name", "ugly duckling"),
             act("request", "restaurant", "phone")])
        assert "01223176749" in utterance


class TestHonesty:
    def test_all_informed_values_in_database(self, ontology, entities):
        from duetsim.agenda import AgendaUserSimulator
        from duetsim.loop import run_dialogue
        from duetsim.world import generate_goal

        lookup = {}
        for e in entities:
            for slot, value in e.attributes.items():
                lookup.setdefault((e.domain, slot), set()).add(value)
        for seed in range(20):
            goal = generate_goal(seed, ontology, entities)
            log = run_dialogue(goal, AgendaUserSimulator(goal),
                               SystemAgent(ontology, entities, seed=seed))
            for t in log.turns:
                if t.speaker != "system":
                    continue
                for a in t.acts:
                    if a.intent == "inform" and a.value:
                        assert a.value in lookup[(a.domain, a.slot)]
