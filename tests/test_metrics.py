import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import duetsim.metrics
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


# --- reference implementations: the plain versions the fast ones replaced ---

_PUNCT = ".,;:!?\"'()[]{}<>"


def ref_tokenize(utterances):
    if isinstance(utterances, str):
        utterances = [utterances]
    tokens = []
    for utt in utterances:
        for raw in utt.lower().split():
            tok = raw.strip(_PUNCT)
            if tok:
                tokens.append(tok)
    return tokens


def ref_unique_ngrams(stream, n):
    if len(stream) < n:
        return 0
    return len({tuple(stream[i:i + n]) for i in range(len(stream) - n + 1)})


def ref_shannon_entropy(stream):
    if not stream:
        return 0.0
    counts = Counter(stream)
    total = len(stream)
    return -sum((c / total) * math.log2(c / total) for c in counts.values())


def ref_conditional_bigram_entropy(stream):
    if len(stream) < 2:
        return 0.0
    bigrams = Counter(zip(stream, stream[1:]))
    firsts = Counter(stream[:-1])
    total = len(stream) - 1
    out = 0.0
    for (w1, _), c in bigrams.items():
        p_pair = c / total
        p_cond = c / firsts[w1]
        out -= p_pair * math.log2(p_cond)
    return out


def ref_p_absent(total, count, sample_size):
    p = 1.0
    for i in range(sample_size):
        factor = (total - count - i) / (total - i)
        if factor <= 0.0:
            return 0.0
        p *= factor
    return p


def ref_hdd(stream, sample_size=42):
    total = len(stream)
    if total < sample_size:
        raise ShortStream("short")
    by_count = Counter(Counter(stream).values())
    value = 0.0
    for c, types in by_count.items():
        value += types * (1.0 - ref_p_absent(total, c, sample_size)) / sample_size
    return value


def ref_mtld_one_direction(stream, threshold):
    factors = 0.0
    types = set()
    count = 0
    for token in stream:
        types.add(token)
        count += 1
        if len(types) / count <= threshold:
            factors += 1.0
            types = set()
            count = 0
    if count:
        ttr = len(types) / count
        if ttr < 1.0:
            factors += (1.0 - ttr) / (1.0 - threshold)
    if factors == 0.0:
        raise ZeroFactors("none")
    return len(stream) / factors


def ref_mtld(stream, threshold=0.72):
    forward = ref_mtld_one_direction(stream, threshold)
    backward = ref_mtld_one_direction(list(reversed(stream)), threshold)
    return (forward + backward) / 2.0


def outcome(fn, *args):
    """fn's value, or the class of the error it raised."""
    try:
        return fn(*args)
    except (ShortStream, ZeroFactors) as e:
        return type(e)


# few types, so that n-grams, factors and frequencies repeat
streams = st.lists(st.sampled_from(WORDS[:6] + ["the"]), max_size=400)


class TestAgainstReference:
    """The fast metrics give the very floats of the plain ones (==, not approx)."""

    @given(st.lists(st.text(st.sampled_from("aAbΣσς .,!?'\t\n\u00a0\u2028"),
                            max_size=12), max_size=6))
    def test_tokenize(self, utterances):
        assert tokenize(utterances) == ref_tokenize(utterances)
        for utt in utterances:
            assert tokenize(utt) == ref_tokenize(utt)

    @given(streams, st.integers(1, 4))
    def test_unique_ngrams(self, stream, n):
        assert unique_ngrams(stream, n) == ref_unique_ngrams(stream, n)

    @given(streams)
    def test_entropies(self, stream):
        assert shannon_entropy(stream) == ref_shannon_entropy(stream)
        assert (conditional_bigram_entropy(stream)
                == ref_conditional_bigram_entropy(stream))

    @given(streams, st.integers(1, 60))
    def test_hdd(self, stream, sample_size):
        assert (outcome(hdd, stream, sample_size)
                == outcome(ref_hdd, stream, sample_size))

    @given(streams, st.one_of(st.just(0.72), st.floats(-0.5, 1.5)))
    def test_mtld(self, stream, threshold):
        assert outcome(mtld, stream, threshold) == outcome(ref_mtld, stream, threshold)

    @given(st.lists(st.text(st.sampled_from("ab cd.E"), max_size=40), max_size=30))
    def test_diversity_report(self, utterances):
        stream = ref_tokenize(utterances)

        def ref_or_none(fn):
            value = outcome(fn, stream)
            return value if isinstance(value, float) else None

        assert diversity(utterances).to_dict() == {
            "unigrams": ref_unique_ngrams(stream, 1),
            "bigrams": ref_unique_ngrams(stream, 2),
            "trigrams": ref_unique_ngrams(stream, 3),
            "entropy": ref_shannon_entropy(stream),
            "conditional_entropy": ref_conditional_bigram_entropy(stream),
            "msttr": msttr(stream) if len(stream) >= 50 else None,
            "hdd": ref_or_none(ref_hdd),
            "mtld": ref_or_none(ref_mtld),
        }

    def test_unique_ngrams_needs_positive_n(self):
        with pytest.raises(ValueError):
            unique_ngrams(["a"], 0)


class TestQueriesPerDialogue:
    def test_each_domain_queried_once(self, ontology, entities, monkeypatch):
        calls = []
        query = duetsim.metrics.query_entities

        def counted(entities, ontology, domain, constraints):
            calls.append(domain)
            return query(entities, ontology, domain, constraints)

        monkeypatch.setattr(duetsim.metrics, "query_entities", counted)
        goal = simple_goal(info={"name": "ugly duckling"},
                           reqt=("phone", "address", "postcode"),
                           book={"book day": "tuesday"})
        turns = make_turns(
            ("user", [act("book", "restaurant", "book day", "tuesday")], "Book."),
            ("system", [act("inform", "restaurant", "phone", "01223176749"),
                        act("inform", "restaurant", "address", "61 trumpington street"),
                        act("inform", "restaurant", "postcode", "cb3dg"),
                        act("inform", "hotel", "phone", "01223206905"),
                        act("offer_booked", "restaurant", "ref", "AAAA1111"),
                        act("offer_booked", "restaurant", "name", "ugly duckling")],
             "Done."),
        )
        s = score_dialogue(make_log(goal, turns), ontology, entities)
        assert s.success and s.bookings_matched == 1
        assert sorted(calls) == ["hotel", "restaurant"]
