import random

import pytest
from hypothesis import given, strategies as st

from duetsim.acts import (
    ACTS,
    ActTable,
    DialogueAct,
    DialogueContext,
    DialogueLog,
    DialogueTurn,
    INTENTS,
    LogAnnotations,
    UTTERANCES,
    derive_annotations,
    parse_act_list,
    render_act_list,
    validate_acts,
)
from duetsim.errors import EmptyActList, MalformedAct, NoActFound

from conftest import act, make_log, make_turns, simple_goal


class TestParse:
    def test_table_example(self):
        acts = parse_act_list("[['inform', 'restaurant', 'book day', 'Tuesday']]")
        assert acts == [DialogueAct("inform", "restaurant", "book day", "Tuesday")]

    def test_surrounding_prose_ignored(self):
        acts = parse_act_list("Sure! Here you go: [['bye', 'general', '', '']]")
        assert acts == [DialogueAct("bye", "general")]

    def test_no_acts(self):
        with pytest.raises(NoActFound):
            parse_act_list("no acts here")

    def test_wrong_arity(self):
        with pytest.raises(MalformedAct):
            parse_act_list("[['inform', 'restaurant', 'food']]")

    def test_double_quotes_and_trailing_comma(self):
        acts = parse_act_list('[["request", "restaurant", "phone", "",],]')
        assert acts == [DialogueAct("request", "restaurant", "phone", "")]

    def test_case_normalization(self):
        acts = parse_act_list("[['Inform', 'Restaurant', 'Food', 'Chinese']]")
        assert acts[0].intent == "inform"
        assert acts[0].slot == "food"
        assert acts[0].value == "Chinese"  # values keep their casing

    def test_multiple_acts(self):
        acts = parse_act_list(
            "[['inform', 'restaurant', 'food', 'thai'], "
            "['request', 'restaurant', 'phone', '']]")
        assert len(acts) == 2


class TestNormalized:
    def test_normalized_act_returned_as_is(self):
        a = DialogueAct("inform", "restaurant", "food", "Chinese")
        assert a.normalized() is a

    @pytest.mark.parametrize("raw", [
        DialogueAct(" inform", "restaurant", "food", "Chinese"),
        DialogueAct("Inform", "restaurant", "food", "Chinese"),
        DialogueAct("inform", "Restaurant ", "food", "Chinese"),
        DialogueAct("inform", "restaurant", "FOOD", "Chinese"),
        DialogueAct("inform", "restaurant", "food", " Chinese\t"),
    ])
    def test_padded_or_mixed_case_gives_new_equal_act(self, raw):
        a = raw.normalized()
        assert a is not raw
        assert a == DialogueAct("inform", "restaurant", "food", "Chinese")
        assert a.normalized() is a


class TestRender:
    def test_table_example(self):
        out = render_act_list([DialogueAct("inform", "restaurant", "book day",
                                           "Tuesday")])
        assert out == "[['inform', 'restaurant', 'book day', 'Tuesday']]"

    def test_empty_value_kept(self):
        out = render_act_list([DialogueAct("request", "restaurant", "phone")])
        assert out == "[['request', 'restaurant', 'phone', '']]"

    def test_empty_list(self):
        with pytest.raises(EmptyActList):
            render_act_list([])

    @given(st.lists(
        st.builds(
            DialogueAct,
            intent=st.sampled_from(sorted(INTENTS)),
            domain=st.sampled_from(["restaurant", "hotel", "general", ""]),
            slot=st.sampled_from(["food", "book day", "phone", ""]),
            value=st.text(max_size=20).map(str.strip),
        ),
        min_size=1, max_size=4))
    def test_round_trip(self, acts):
        assert parse_act_list(render_act_list(acts)) == acts


def test_parser_totality_fuzz():
    rng = random.Random(7)
    alphabet = "ab[]'\",\\ \n{}01:x"
    for _ in range(1000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        try:
            parse_act_list(text)
        except (NoActFound, MalformedAct):
            pass


class TestValidate:
    def test_valid_act(self, ontology):
        report = validate_acts([act("inform", "restaurant", "food", "chinese")],
                               ontology)
        assert report.ok

    def test_unknown_domain(self, ontology):
        report = validate_acts([act("inform", "spaceport", "food", "chinese")],
                               ontology)
        assert [v.code for v in report.violations] == ["unknown_domain"]

    def test_value_on_request(self, ontology):
        report = validate_acts([act("request", "restaurant", "phone", "555")],
                               ontology)
        assert [v.code for v in report.violations] == ["value_on_request"]

    def test_unknown_intent_is_violation_not_error(self, ontology):
        report = validate_acts([act("teleport", "restaurant")], ontology)
        assert [v.code for v in report.violations] == ["unknown_intent"]

    def test_unknown_slot(self, ontology):
        report = validate_acts([act("inform", "restaurant", "wingspan", "x")],
                               ontology)
        assert [v.code for v in report.violations] == ["unknown_slot"]


class TestContext:
    def test_empty_renders_empty(self):
        assert DialogueContext().render() == ""

    def test_utterance_mode(self):
        ctx = DialogueContext(turns=make_turns(
            ("user", [act("inform", "restaurant", "food", "thai")], "Thai please."),
            ("system", [act("request", "restaurant", "area")], "Which area?"),
        ))
        assert ctx.render("utterances") == "USER: Thai please.\nSYSTEM: Which area?"

    def test_acts_mode(self):
        ctx = DialogueContext(turns=make_turns(
            ("user", [act("inform", "restaurant", "food", "thai")], "Thai please."),
        ))
        assert ctx.render(ACTS) == "USER: [['inform', 'restaurant', 'food', 'thai']]"

    @staticmethod
    def fresh_render(turns, mode):
        """The history joined from scratch, with no memo."""
        def body(turn):
            if mode == ACTS:
                return str([a.as_list() for a in turn.acts]) if turn.acts else "[]"
            return turn.utterance
        return "\n".join(f"{t.speaker.upper()}: {body(t)}" for t in turns)

    @given(st.lists(st.one_of(
        st.tuples(st.just("append"), st.sampled_from(["user", "system"]),
                  st.lists(st.sampled_from([act("bye", "general"),
                                            act("inform", "hotel", "area", "north"),
                                            act("request", "restaurant", "phone")]),
                           max_size=2),
                  st.text(max_size=12)),
        st.tuples(st.just("render"), st.sampled_from([UTTERANCES, ACTS])),
    ), max_size=16))
    def test_memoised_render_equals_fresh_join(self, ops):
        """Renders interleaved with appends, in both modes, never go stale."""
        ctx = DialogueContext()
        for op, *args in ops:
            if op == "append":
                ctx.append(*args)
            else:
                assert ctx.render(*args) == self.fresh_render(ctx.turns, *args)
        assert ctx.render() == self.fresh_render(ctx.turns, UTTERANCES)
        assert ctx.render(ACTS) == self.fresh_render(ctx.turns, ACTS)

    def test_turns_appended_to_the_list_are_rendered(self):
        ctx = DialogueContext()
        assert ctx.render() == ""
        ctx.turns.extend(make_turns(("user", [act("bye", "general")], "Bye.")))
        assert ctx.render() == "USER: Bye."


class TestLogReplay:
    def test_annotations_rederivable(self):
        goal = simple_goal(info={"food": "chinese"}, reqt=("phone",),
                           book={"book day": "tuesday"})
        turns = make_turns(
            ("user", [act("inform", "restaurant", "food", "chinese")], "u1"),
            ("system", [act("request", "restaurant", "area")], "s1"),
            ("user", [act("request", "restaurant", "phone")], "u2"),
            ("system", [act("inform", "restaurant", "phone", "01223111222")], "s2"),
            ("user", [act("book", "restaurant", "book day", "tuesday")], "u3"),
            ("system", [act("offer_booked", "restaurant", "ref", "ABCD1234"),
                        act("offer_booked", "restaurant", "name", "golden wok")], "s3"),
            ("user", [act("bye", "general")], "u4"),
        )
        log = make_log(goal, turns)
        assert derive_annotations(log.turns) == log.annotations
        assert log.annotations.provided == (
            ("restaurant", "phone", "01223111222"),)
        booking = log.annotations.bookings[0]
        assert booking.ref == "ABCD1234"
        assert booking.entity_name == "golden wok"
        assert dict(booking.constraints) == {"book day": "tuesday"}

    def test_json_round_trip(self):
        goal = simple_goal(info={"food": "chinese"}, reqt=("phone",))
        turns = make_turns(("user", [act("bye", "general")], "bye"))
        log = make_log(goal, turns)
        assert DialogueLog.from_dict(log.to_dict()).to_dict() == log.to_dict()

    def test_equal_acts_shared_within_one_table(self):
        goal = simple_goal(info={"food": "chinese"}, reqt=("phone",))
        turns = make_turns(("user", [act("bye", "general")], "bye"),
                           ("system", [act("bye", "general")], "bye"))
        d = make_log(goal, turns).to_dict()
        table = ActTable()
        first, second = (DialogueLog.from_dict(d, table) for _ in range(2))
        shared = first.turns[0].acts[0]
        assert second.turns[1].acts[0] is shared
        assert DialogueLog.from_dict(d).turns[0].acts[0] is not shared
        assert list(table) == [("bye", "general", "", "")]

    @pytest.mark.parametrize("acts", [
        [["a", "b", "c", "d", "e"]], [5], None,
        [["inform", ["food"], "", ""]],   # unhashable component
        [["inform", "restaurant", "food", 5]],
        ["book"], "book",                 # not one field per letter
        [("inform", "restaurant")],
        [["inform", "restaurant"]], [[]],  # not padded to four components
    ])
    def test_bad_acts_raise_type_error(self, acts):
        d = {"speaker": "user", "acts": acts, "utterance": "u", "turn_index": 0}
        with pytest.raises(TypeError):
            DialogueTurn.from_dict(d, ActTable())

    @pytest.mark.parametrize("field", ["speaker", "utterance"])
    def test_non_string_turn_field_raises_type_error(self, field):
        d = {"speaker": "user", "acts": [], "utterance": "u", "turn_index": 0}
        d[field] = None
        with pytest.raises(TypeError, match=field):
            DialogueTurn.from_dict(d)

    @pytest.mark.parametrize("speaker", ["robot", "USER", ""])
    def test_unknown_speaker_raises_value_error(self, speaker):
        d = {"speaker": speaker, "acts": [], "utterance": "u", "turn_index": 0}
        with pytest.raises(ValueError, match="speaker"):
            DialogueTurn.from_dict(d)

    @pytest.mark.parametrize("provided", [
        [["restaurant", "phone", 5]], [["restaurant", "phone"]], [5],
        ["abc"], {"abc": 1}])          # not one field per letter
    def test_bad_provided_raises_type_error(self, provided):
        with pytest.raises(TypeError, match="provided"):
            LogAnnotations.from_dict({"provided": provided, "bookings": []})

    @pytest.mark.parametrize("constraints", [None, [], ["book day"], "tuesday", 5])
    def test_booking_constraints_not_an_object_raise_type_error(self, constraints):
        booking = {"domain": "restaurant", "ref": "ABCD1234", "entity_name": "x",
                   "constraints": constraints}
        with pytest.raises(TypeError, match="^booking constraints: expected an object"):
            LogAnnotations.from_dict({"provided": [], "bookings": [booking]})
