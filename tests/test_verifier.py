import pytest
from hypothesis import given, strategies as st

from duetsim.acts import DialogueContext
from duetsim.backend import ScriptedBackend
from duetsim.errors import UnparseableVerdict
from duetsim.generator import DraftActs
from duetsim.prompts import DEFAULT_VERIFIER_REQUIREMENTS
from duetsim.verifier import UNSPECIFIED_ID, _id_pattern, parse_verdict, verify

from conftest import act, simple_goal

GOAL = simple_goal(info={"food": "chinese"}, reqt=("phone",))
DRAFT = DraftActs(acts=[act("request", "restaurant", "phone")], step_transcript={})
IDS = DEFAULT_VERIFIER_REQUIREMENTS.ids()


def run(responses):
    backend = ScriptedBackend(responses)
    verdict = verify(backend, GOAL, DialogueContext(),
                     DEFAULT_VERIFIER_REQUIREMENTS, DRAFT)
    return verdict, backend


class TestGrammar:
    def test_accept(self):
        verdict, backend = run(["ACCEPT"])
        assert verdict.accepted
        assert verdict.feedback is None
        assert backend.calls == 1

    def test_reject_with_id_and_reason(self):
        verdict, _ = run(["REJECT V3: contradicts the stated booking day"])
        assert not verdict.accepted
        assert verdict.feedback.requirement_id == "V3"
        assert verdict.feedback.text == "contradicts the stated booking day"

    def test_keyword_embedded_in_prose(self):
        verdict, _ = run(["Sure — I would ACCEPT this draft."])
        assert verdict.accepted

    def test_case_insensitive(self):
        verdict, _ = run(["reject v3: bad"])
        assert not verdict.accepted

    def test_both_keywords_resolve_to_reject(self):
        verdict, _ = run(["I cannot accept this, REJECT V1: malformed"])
        assert not verdict.accepted

    def test_unknown_id_maps_to_unspecified(self):
        verdict, _ = run(["REJECT Z9: who knows"])
        assert verdict.feedback.requirement_id == UNSPECIFIED_ID
        assert "who knows" in verdict.feedback.text

    @pytest.mark.parametrize("text,req_id,reason", [
        ("REJECT because V3: contradicts area", "V3", "contradicts area"),
        ("I reject this. V4: too early", "V4", "too early"),
        ("REJECT V4: too early", "V4", "too early"),
        ("Reject: V2 unknown slot", "V2", "unknown slot"),
        ("REJECT, see V10 and V1: malformed", "V1", "malformed"),
    ])
    def test_first_known_id_after_reject(self, text, req_id, reason):
        verdict = parse_verdict(text, IDS)
        assert not verdict.accepted
        assert verdict.feedback.requirement_id == req_id
        assert verdict.feedback.text == reason

    def test_unparseable_after_retry(self):
        backend = ScriptedBackend(["maybe?", "hmm..."])
        with pytest.raises(UnparseableVerdict):
            verify(backend, GOAL, DialogueContext(),
                   DEFAULT_VERIFIER_REQUIREMENTS, DRAFT)
        assert backend.calls == 2

    def test_retry_recovers(self):
        verdict, backend = run(["no idea", "ACCEPT"])
        assert verdict.accepted
        assert backend.calls == 2


def test_id_pattern_compiled_once_per_id_set():
    assert DEFAULT_VERIFIER_REQUIREMENTS.ids() is IDS
    _id_pattern.cache_clear()
    for reply in ("REJECT V3: a", "REJECT: V1 b", "ACCEPT"):
        run([reply])
    assert parse_verdict("REJECT V2: c", set(IDS)).feedback.requirement_id == "V2"
    assert _id_pattern.cache_info().misses == 1


def test_parse_verdict_none_without_keywords():
    assert parse_verdict("nothing to see", IDS) is None


class TestKeywords:
    @pytest.mark.parametrize("text", [
        "This draft is unacceptable",
        "Not acceptable",
        "I cannot accept this draft.",
        "I can't accept it",
        "I do not think I can accept it",
        "It would never be accepted",
        "NOT ACCEPTABLE: the goal is not handled",
        "Rejected: the phone was asked for twice",
    ])
    def test_negated_accept_or_reject_word_rejects(self, text):
        verdict = parse_verdict(text, IDS)
        assert not verdict.accepted
        assert verdict.feedback.requirement_id == UNSPECIFIED_ID
        assert verdict.feedback.text == text.strip()

    @pytest.mark.parametrize("text", [
        "The draft is acceptable.",
        "Accepted.",
        "No problems, ACCEPT",
        "Nothing is missing.\nACCEPT",
    ])
    def test_plain_accept_words_accept(self, text):
        assert parse_verdict(text, IDS).accepted

    @pytest.mark.parametrize("text", ["acceptance pending", "projected budget",
                                      "REJECTV4 bad"])
    def test_keyword_inside_a_longer_word_does_not_count(self, text):
        assert parse_verdict(text, IDS) is None


_filler = st.text(st.sampled_from("abc ACCEPT,.:\n"), max_size=30)
_reject_phrases = st.sampled_from([
    "REJECT", "reject", "Rejected", "REJECT V2: wrong slot", "not acceptable",
    "unacceptable", "cannot accept", "can't accept", "do not accept",
    "would never be accepted", "Non-acceptable"])


@given(before=_filler, phrase=_reject_phrases, after=_filler)
def test_reject_word_or_negated_accept_never_accepts(before, phrase, after):
    verdict = parse_verdict(f"{before} {phrase} {after}", IDS)
    assert verdict is not None and not verdict.accepted


_prose = st.text(st.sampled_from("abc .,\n"), max_size=20)


@given(before=_prose, between=_prose, reason=_prose,
       req_id=st.sampled_from(sorted(IDS)))
def test_known_id_after_reject_is_charged(before, between, reason, req_id):
    verdict = parse_verdict(f"{before} REJECT {between} {req_id}: {reason}", IDS)
    assert verdict.feedback.requirement_id == req_id
    assert verdict.feedback.text == (reason.strip() or "draft rejected")
