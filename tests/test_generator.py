import pytest
from hypothesis import example, given, settings, strategies as st

from duetsim.acts import DialogueAct, DialogueContext, validate_acts
from duetsim.backend import CompletionResult, ScriptedBackend
from duetsim.errors import EmptyTranslation, StepParseFailure
from duetsim.generator import (
    generate_acts_cot,
    realize_utterance,
    split_candidates,
)
from duetsim.prompts import DEFAULT_GENERATOR_REQUIREMENTS, STEP_ORDER, Feedback

from conftest import make_turns, act, simple_goal

GOAL = simple_goal(info={"name": "ugly duckling"}, reqt=("phone", "food"))


def gen(backend, ontology, **kwargs):
    return generate_acts_cot(backend, GOAL, DialogueContext(),
                             DEFAULT_GENERATOR_REQUIREMENTS, ontology, **kwargs)


class TestCoT:
    def test_scripted_assembly(self, ontology):
        backend = ScriptedBackend(["request", "restaurant", "phone", ""])
        draft = gen(backend, ontology)
        assert draft.acts == [DialogueAct("request", "restaurant", "phone", "")]
        assert draft.step_transcript == {"intent": "request",
                                         "domain": "restaurant",
                                         "slot": "phone", "value": ""}
        assert backend.calls == 4

    def test_step_retry_then_failure(self, ontology):
        backend = ScriptedBackend(["request", "garbage", "more garbage"])
        with pytest.raises(StepParseFailure) as e:
            gen(backend, ontology)
        assert e.value.step == "domain"
        assert backend.calls == 3

    def test_retry_recovers(self, ontology):
        backend = ScriptedBackend(["??", "inform", "restaurant", "food", "thai"])
        draft = gen(backend, ontology)
        assert draft.acts[0].intent == "inform"
        assert backend.calls == 5

    def test_feedback_in_all_step_prompts(self, ontology):
        backend = ScriptedBackend(["request", "restaurant", "phone", ""])
        fb = Feedback("V3", "do not repeat yourself")
        gen(backend, ontology, feedback=fb)
        assert all(fb.text in r.user_text for r in backend.requests)

    def test_multi_candidate_threading(self, ontology):
        backend = ScriptedBackend(["inform, request", "restaurant",
                                   "food, phone", "thai, "])
        draft = gen(backend, ontology)
        assert draft.acts == [
            DialogueAct("inform", "restaurant", "food", "thai"),
            DialogueAct("request", "restaurant", "phone", ""),
        ]
        assert backend.calls == 4

    def test_outputs_always_validate(self, ontology):
        backend = ScriptedBackend(["bye", "general", "", ""])
        draft = gen(backend, ontology)
        assert validate_acts(draft.acts, ontology).ok

    def test_request_value_normalized_away(self, ontology):
        backend = ScriptedBackend(["request", "restaurant", "phone", "555-1234"])
        draft = gen(backend, ontology)
        assert draft.acts[0].value == ""

    def test_slot_checked_against_every_domain_it_repeats_for(self, ontology):
        """One slot for two domains makes the pair (hotel, food); the slot
        step is retried, and its retry makes a valid draft."""
        backend = ScriptedBackend(["inform, inform", "restaurant, hotel",
                                   "food", "food, area", "thai"])
        draft = gen(backend, ontology)
        assert draft.acts == [DialogueAct("inform", "restaurant", "food", "thai"),
                              DialogueAct("inform", "hotel", "area", "thai")]
        assert validate_acts(draft.acts, ontology).ok
        assert backend.calls == 5


class StepBackend:
    """Answers each chain-of-thought step with its drawn output, the retry
    too, and records the steps asked in order."""

    def __init__(self, outputs):
        self.outputs = dict(zip(STEP_ORDER, outputs))
        self.asked = []

    def complete(self, request):
        # the step instruction reads "Decide the intent ...", "Decide which slot ..."
        step = request.user_text.rsplit("Decide ", 1)[1].split()[1]
        self.asked.append(step)
        return CompletionResult(text=self.outputs[step])


_STEP_TOKENS = {
    "intent": ["inform", "request", "book", "bye", "thank", "greet", "Inform"],
    "domain": ["restaurant", "hotel", "general", "Hotel"],
    "slot": ["food", "stars", "type", "book time", "book stay", "area", "Name"],
    "value": ["thai", "cheap", "2", "Tuesday"],
}
_OTHER_TOKENS = ["", "none", "-", "n/a", "spaceport", "wingspan", "??"]
_ANY_TOKEN = st.sampled_from(sorted({t for ts in _STEP_TOKENS.values() for t in ts}
                                    | set(_OTHER_TOKENS)))


def _step_output(step):
    valid = st.sampled_from(_STEP_TOKENS[step])
    token = st.one_of(valid, valid, _ANY_TOKEN)
    return st.lists(token, min_size=1, max_size=3).map(", ".join)


@settings(max_examples=300)
@example(["inform, inform", "restaurant, hotel", "food", "thai"])
@given(st.tuples(*map(_step_output, STEP_ORDER)).map(list))
def test_every_returned_draft_is_valid(ontology, outputs):
    """The steps check every act the draft will hold, so no check is needed
    after assembly: a draft comes back valid and normal, or the step whose
    retry failed raises."""
    backend = StepBackend(outputs)
    try:
        draft = gen(backend, ontology)
    except StepParseFailure as e:
        assert backend.asked == list(STEP_ORDER[:STEP_ORDER.index(e.step)]) + [e.step] * 2
        assert e.raw == outputs[STEP_ORDER.index(e.step)]
    else:
        assert validate_acts(draft.acts, ontology).ok
        assert all(a.normalized() is a for a in draft.acts)
        assert backend.asked == list(STEP_ORDER)


class TestSplitCandidates:
    def test_single(self):
        assert split_candidates("inform") == ["inform"]

    def test_comma_list(self):
        assert split_candidates("inform, request") == ["inform", "request"]

    def test_bracketed_quoted(self):
        assert split_candidates("['food', 'phone']") == ["food", "phone"]


class TestRealize:
    def test_two_step_pipeline(self):
        backend = ScriptedBackend([
            "The restaurant is booked on Tuesday.",
            "Great news, your Tuesday booking is all set!",
        ])
        utt = realize_utterance(backend,
                                [act("inform", "restaurant", "book day", "Tuesday")],
                                DialogueContext())
        assert utt.plain == "The restaurant is booked on Tuesday."
        assert utt.enhanced == "Great news, your Tuesday booking is all set!"
        assert backend.calls == 2

    def test_empty_translation(self):
        backend = ScriptedBackend(["   ", "unused"])
        with pytest.raises(EmptyTranslation):
            realize_utterance(backend, [act("bye", "general")], DialogueContext())

    def test_blank_rewrite_falls_back_to_plain(self):
        backend = ScriptedBackend(["Plain sentence.", ""])
        utt = realize_utterance(backend, [act("bye", "general")], DialogueContext())
        assert utt.enhanced == "Plain sentence."
