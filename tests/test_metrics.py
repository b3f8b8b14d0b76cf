import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from duetsim.errors import EmptyLogSet, ShortStream, ZeroFactors
from duetsim.metrics import (
    conditional_bigram_entropy,
    diversity,
    fulfillment,
    hdd,
    msttr,
    mtld,
    render_report,
    score_dialogue,
    shannon_entropy,
    tokenize,
    unique_ngrams,
    user_utterances,
)

from conftest import act, make_log, make_turns, simple_goal

TOL = 1e-9

WORDS = ["cat", "dog", "ran", "fast", "blue", "sky", "tree", "bird", "song",
         "hill", "road", "lamp", "book", "rain", "wind", "door", "wall",
         "fish", "moon", "star"]


def varied_stream():
    """30 tokens: 20 distinct words with 'the' at every third position."""
    stream, wi = [], 0
    for i in range(30):
        if i % 3 == 2:
            stream.append("the")
        else:
            stream.append(WORDS[wi])
            wi += 1
    return stream


class TestTokenize:
    def test_lowercase_and_punct(self):
        assert tokenize("Hello, World!") == ["hello", "world"]

    def test_inner_punct_kept(self):
        assert tokenize("it's 18:00") == ["it's", "18:00"]

    def test_multiple_utterances(self):
        assert tokenize(["A b.", "C"]) == ["a", "b", "c"]

    def test_empty(self):
        assert tokenize("") == []


class TestNgrams:
    def test_counts(self):
        stream = ["a", "b", "a", "b"]
        assert unique_ngrams(stream, 1) == 2
        assert unique_ngrams(stream, 2) == 2
        assert unique_ngrams(stream, 3) == 2

    def test_short_stream_zero(self):
        assert unique_ngrams(["a"], 2) == 0


class TestEntropy:
    @pytest.mark.parametrize("stream, expected", [
        ([], 0.0),
        (["a"], 0.0),
        (["a", "b"], 1.0),
        (["a", "a", "b", "b"], 1.0),
        (["a", "b", "c", "d"], 2.0),
        (["a", "a", "b"], 0.9182958340544896),
        (["a", "a", "a", "b"], 0.8112781244591328),
    ])
    def test_oracle(self, stream, expected):
        assert shannon_entropy(stream) == pytest.approx(expected, abs=TOL)

    def test_bounded_by_log_types(self):
        rng = random.Random(1)
        for _ in range(50):
            stream = [rng.choice("abcde") for _ in range(rng.randint(1, 60))]
            assert shannon_entropy(stream) <= math.log2(len(set(stream))) + TOL


class TestConditionalEntropy:
    @pytest.mark.parametrize("stream, expected", [
        (["a"], 0.0),
        (["a", "b"], 0.0),
        (["a", "b", "c"], 0.0),
        (["a", "b", "a", "b", "a"], 0.0),
        (["a", "a", "b", "b"], 2.0 / 3.0),
        (["a", "a", "b", "a", "a", "b"], 0.8),
    ])
    def test_oracle(self, stream, expected):
        assert conditional_bigram_entropy(stream) == pytest.approx(expected, abs=TOL)

    def test_never_exceeds_unigram_entropy(self):
        rng = random.Random(2)
        for _ in range(50):
            stream = [rng.choice("abcd") for _ in range(rng.randint(2, 80))]
            assert (conditional_bigram_entropy(stream)
                    <= shannon_entropy(stream) + TOL)


class TestMsttr:
    @pytest.mark.parametrize("stream, segment, expected", [
        (["a", "b", "a", "b"], 2, 1.0),
        (["a", "a", "b", "b"], 2, 0.5),
        (["a", "b", "b", "b"], 2, 0.75),
        (["a", "b", "c"], 2, 1.0),  # trailing partial segment discarded
        (["a", "b"] * 3, 3, 2.0 / 3.0),
        (["a"] * 50, 50, 0.02),
    ])
    def test_oracle(self, stream, segment, expected):
        assert msttr(stream, segment) == pytest.approx(expected, abs=TOL)

    def test_short_stream_raises(self):
        with pytest.raises(ShortStream):
            msttr(["a"] * 49)

    def test_segment_permutation_invariant(self):
        stream = varied_stream()
        swapped = stream[10:20] + stream[0:10] + stream[20:]
        assert msttr(stream, 10) == pytest.approx(msttr(swapped, 10), abs=TOL)


class TestHdd:
    @pytest.mark.parametrize("stream, expected", [
        (["a"] * 50 + ["b"] * 50, 0.047619047619047616),
        (["a"] * 42, 0.023809523809523808),
        ([f"t{i}" for i in range(42)], 1.0),
    ])
    def test_oracle(self, stream, expected):
        assert hdd(stream) == pytest.approx(expected, abs=TOL)

    def test_monte_carlo_agreement(self):
        """Analytic value matches a direct sampling estimate."""
        stream = ["a"] * 50 + ["b"] * 50
        rng = random.Random(0)
        trials = 20000
        total = 0.0
        for _ in range(trials):
            total += len(set(rng.sample(stream, 42))) / 42
        assert hdd(stream) == pytest.approx(total / trials, abs=1e-2)

    def test_order_invariant(self):
        stream = varied_stream() + varied_stream()
        shuffled = list(stream)
        random.Random(3).shuffle(shuffled)
        assert hdd(stream) == pytest.approx(hdd(shuffled), abs=TOL)

    def test_in_unit_interval(self):
        rng = random.Random(4)
        for _ in range(20):
            stream = [rng.choice("abcdefgh") for _ in range(60)]
            assert 0.0 <= hdd(stream) <= 1.0 + TOL

    def test_short_stream_raises(self):
        with pytest.raises(ShortStream):
            hdd(["a"] * 41)

    def test_more_types_scores_higher(self):
        low = ["a"] * 60
        high = [f"t{i % 10}" for i in range(60)]
        assert hdd(high) > hdd(low)

    @given(st.data())
    def test_matches_exact_hypergeometric(self, data):
        sample_size = data.draw(st.integers(1, 60))
        stream = data.draw(st.lists(st.sampled_from(WORDS),
                                    min_size=sample_size, max_size=300))
        total, n = len(stream), sample_size
        exact = sum(1 - Fraction(math.comb(total - c, n), math.comb(total, n))
                    for c in Counter(stream).values()) / n
        assert abs(hdd(stream, sample_size) - float(exact)) <= 1e-12

    def test_import_does_not_load_scipy(self, imported_modules):
        """The HD-D closed form keeps scipy, ~1 s of start-up, out."""
        assert "scipy" not in imported_modules


class TestMtld:
    @pytest.mark.parametrize("stream, expected", [
        (varied_stream(), 15.86283185840708),
        (sorted(varied_stream()), 11.25),
        (["a", "a", "a", "a"], 2.0),
        (list("aabbccddeeffgghhiijj"), 2.0),
        (["a", "b"] * 10, 20 / 6),  # a factor completes every third token
    ])
    def test_oracle(self, stream, expected):
        assert mtld(stream) == pytest.approx(expected, abs=TOL)

    def test_order_sensitivity(self):
        """Unlike HDD, MTLD depends on token order: clumped repeats score lower."""
        stream = varied_stream()
        assert mtld(sorted(stream)) < mtld(stream)

    def test_all_unique_raises_zero_factors(self):
        with pytest.raises(ZeroFactors):
            mtld(["a", "b", "c"])

    def test_bidirectional_palindrome_symmetric(self):
        stream = ["a", "b", "a", "a", "b", "a"]
        assert mtld(stream) == pytest.approx(mtld(list(reversed(stream))), abs=TOL)


class TestDiversityReport:
    def test_short_corpus_none_fields(self):
        report = diversity(["hello there"])
        assert report.msttr is None and report.hdd is None
        assert report.unigrams == 2

    def test_long_corpus_all_populated(self):
        corpus = ["the cat sat on the mat today"] * 20
        report = diversity(corpus)
        assert report.msttr is not None
        assert report.hdd is not None
        assert report.mtld is not None
        assert report.entropy > 0


def success_log():
    goal = simple_goal(info={"name": "ugly duckling"}, reqt=("phone",))
    turns = make_turns(
        ("user", [act("inform", "restaurant", "name", "ugly duckling"),
                  act("request", "restaurant", "phone")], "Phone for ugly duckling?"),
        ("system", [act("inform", "restaurant", "phone", "01223176749")],
         "Its phone number is 01223176749."),
        ("user", [act("bye", "general")], "Thanks, bye."),
    )
    return make_log(goal, turns)


class TestScoreDialogue:
    def test_success(self, ontology, entities):
        s = score_dialogue(success_log(), ontology, entities)
        assert s.complete and s.success
        assert s.precision == 1.0 and s.recall == 1.0 and s.f1 == 1.0

    def test_complete_but_wrong_value(self, ontology, entities):
        goal = simple_goal(info={"name": "ugly duckling"}, reqt=("phone",))
        turns = make_turns(
            ("user", [act("request", "restaurant", "phone")], "Phone?"),
            ("system", [act("inform", "restaurant", "phone", "0000000000")],
             "It is 0000000000."),
        )
        s = score_dialogue(make_log(goal, turns), ontology, entities)
        assert s.complete and not s.success
        assert s.precision == 0.0 and s.recall == 0.0

    def test_nooffer_dialogue_incomplete(self, ontology, entities):
        goal = simple_goal(info={"food": "martian"}, reqt=("phone",))
        turns = make_turns(
            ("user", [act("inform", "restaurant", "food", "martian")], "Martian food?"),
            ("system", [act("nooffer", "restaurant")], "No matches."),
        )
        s = score_dialogue(make_log(goal, turns), ontology, entities)
        assert not s.complete and not s.success
        assert s.recall == 0.0

    def test_turn_cap_scored_by_content(self, ontology, entities):
        goal = simple_goal(info={"name": "ugly duckling"}, reqt=("phone",))
        turns = make_turns(
            ("user", [act("inform", "restaurant", "name", "ugly duckling")], "Hi."),
            ("system", [act("recommend", "restaurant", "name", "ugly duckling")],
             "How about ugly duckling?"),
        )
        s = score_dialogue(make_log(goal, turns, reason="turn_cap"),
                           ontology, entities)
        assert not s.complete
        assert s.turns == 2

    def test_booking_constraint_mismatch(self, ontology, entities):
        goal = simple_goal(info={"name": "ugly duckling"}, reqt=(),
                           book={"book day": "tuesday"})
        turns = make_turns(
            ("user", [act("inform", "restaurant", "name", "ugly duckling")], "Hi."),
            ("system", [act("recommend", "restaurant", "name", "ugly duckling")],
             "How about ugly duckling?"),
            ("user", [act("book", "restaurant", "book day", "wednesday")],
             "Book it for wednesday."),
            ("system", [act("offer_booked", "restaurant", "ref", "AAAA1111"),
                        act("offer_booked", "restaurant", "name", "ugly duckling")],
             "Booked, reference AAAA1111."),
        )
        s = score_dialogue(make_log(goal, turns), ontology, entities)
        assert s.complete and not s.success
        assert s.booking_subtasks == 1 and s.bookings_matched == 0

    def test_booking_matched(self, ontology, entities):
        goal = simple_goal(info={"name": "ugly duckling"}, reqt=(),
                           book={"book day": "tuesday"})
        turns = make_turns(
            ("user", [act("inform", "restaurant", "name", "ugly duckling")], "Hi."),
            ("system", [act("recommend", "restaurant", "name", "ugly duckling")],
             "How about ugly duckling?"),
            ("user", [act("book", "restaurant", "book day", "tuesday")],
             "Book it for tuesday."),
            ("system", [act("offer_booked", "restaurant", "ref", "AAAA1111"),
                        act("offer_booked", "restaurant", "name", "ugly duckling")],
             "Booked, reference AAAA1111."),
        )
        s = score_dialogue(make_log(goal, turns), ontology, entities)
        assert s.success
        assert s.bookings_matched == 1

    def test_unrequested_extra_inform_halves_precision(self, ontology, entities):
        goal = simple_goal(info={"name": "ugly duckling"}, reqt=("phone",))
        turns = make_turns(
            ("user", [act("request", "restaurant", "phone")], "Phone?"),
            ("system", [act("inform", "restaurant", "phone", "01223176749"),
                        act("inform", "restaurant", "postcode", "cb3dg")],
             "01223176749, postcode cb3dg."),
        )
        s = score_dialogue(make_log(goal, turns), ontology, entities)
        assert s.precision == 0.5
        assert s.recall == 1.0
        assert s.f1 == pytest.approx(2 / 3, abs=TOL)
        assert s.success  # extra value is still database-consistent

    def test_partial_recall(self, ontology, entities):
        goal = simple_goal(info={"name": "ugly duckling"},
                           reqt=("phone", "address"))
        turns = make_turns(
            ("user", [act("request", "restaurant", "phone")], "Phone?"),
            ("system", [act("inform", "restaurant", "phone", "01223176749")],
             "It is 01223176749."),
        )
        s = score_dialogue(make_log(goal, turns), ontology, entities)
        assert s.recall == 0.5 and s.precision == 1.0
        assert not s.complete


class TestFulfillment:
    def test_empty_raises(self, ontology, entities):
        with pytest.raises(EmptyLogSet):
            fulfillment([], ontology, entities)

    def test_book_rate_none_without_subtasks(self, ontology, entities):
        report = fulfillment([success_log()], ontology, entities)
        assert report.book_rate is None
        assert report.success_rate == 1.0

    def test_rates_are_means(self, ontology, entities):
        goal = simple_goal(info={"food": "martian"}, reqt=("phone",))
        fail_turns = make_turns(
            ("user", [act("inform", "restaurant", "food", "martian")], "Hi."),
            ("system", [act("nooffer", "restaurant")], "Nothing."),
        )
        report = fulfillment([success_log(), make_log(goal, fail_turns)],
                             ontology, entities)
        assert report.success_rate == 0.5
        assert report.complete_rate == 0.5
        assert report.recall == 0.5
        assert report.avg_turns == 2.5

    def test_user_utterances_extraction(self):
        assert user_utterances([success_log()]) == [
            "Phone for ugly duckling?", "Thanks, bye."]

    def test_render_report_shape(self, ontology, entities):
        report = fulfillment([success_log()], ontology, entities)
        text = render_report(report, diversity(["hi there"]))
        assert "Goal fulfillment" in text
        assert "Utterance diversity" in text
        assert "n/a" in text  # short-corpus metrics and book rate
