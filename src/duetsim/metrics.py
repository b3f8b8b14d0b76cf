"""Evaluation: goal-fulfillment scoring over dialogue logs and lexical
diversity over user-utterance corpora.

Fulfillment follows the database as ground truth: a provided value counts
as correct only if some entity satisfying the goal's constraints carries
it. Diversity metrics operate on a lowercased whitespace token stream.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat

from .errors import EmptyLogSet, ShortStream, ZeroFactors
from .world import query_entities

MSTTR_SEGMENT = 50
HDD_SAMPLE = 42
MTLD_THRESHOLD = 0.72

_PUNCT = ".,;:!?\"'()[]{}<>"


# --- tokenization and diversity ---

def tokenize(utterances) -> list[str]:
    """Lowercase, split on whitespace, strip edge punctuation, drop empties."""
    if isinstance(utterances, str):
        utterances = [utterances]
    # a space between utterances keeps their tokens apart
    raw = " ".join(utterances).lower().split()
    return list(filter(None, map(str.strip, raw, repeat(_PUNCT))))


def _ngrams(stream, n: int):
    return zip(*(stream[i:] for i in range(n)))


def unique_ngrams(stream, n: int) -> int:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return len(set(_ngrams(stream, n)))


def _entropy(counts: Counter, total: int) -> float:
    if not total:
        return 0.0
    return -sum((c / total) * math.log2(c / total) for c in counts.values())


def shannon_entropy(stream) -> float:
    """Unigram entropy in bits: -sum p(w) log2 p(w)."""
    return _entropy(Counter(stream), len(stream))


def _conditional_entropy(stream, counts: Counter, bigrams: Counter) -> float:
    """Adjacent-pair entropy from the unigram and bigram counts of stream."""
    if len(stream) < 2:
        return 0.0
    total = len(stream) - 1
    last = stream[-1]
    out = 0.0
    for (w1, _), c in bigrams.items():
        p_pair = c / total
        # every occurrence of w1 starts a pair, except one in last position
        p_cond = c / (counts[w1] - (w1 == last))
        out -= p_pair * math.log2(p_cond)
    return out


def conditional_bigram_entropy(stream) -> float:
    """Adjacent-pair entropy in bits: -sum p(w1,w2) log2 p(w2|w1)."""
    return _conditional_entropy(stream, Counter(stream), Counter(_ngrams(stream, 2)))


def msttr(stream, segment_length: int = MSTTR_SEGMENT) -> float:
    """Mean type-token ratio over consecutive full segments."""
    if len(stream) < segment_length:
        raise ShortStream(f"need at least {segment_length} tokens, got {len(stream)}")
    ratios = []
    for start in range(0, len(stream) - segment_length + 1, segment_length):
        segment = stream[start:start + segment_length]
        ratios.append(len(set(segment)) / segment_length)
    return sum(ratios) / len(ratios)


def _p_absent(total: int, count: int, sample_size: int) -> float:
    """P(X=0) for X ~ Hypergeometric(total, count, sample_size).

    Closed form C(total-count, n) / C(total, n), taken as the product of
    (total-count-i) / (total-i) for i < n; 0 once a factor reaches 0.
    """
    p = 1.0
    for i in range(sample_size):
        factor = (total - count - i) / (total - i)
        if factor <= 0.0:
            return 0.0
        p *= factor
    return p


def hdd(stream, sample_size: int = HDD_SAMPLE, *,
        counts: Counter | None = None) -> float:
    """Hypergeometric lexical diversity over draws of ``sample_size`` tokens.

    ``counts`` may pass ``Counter(stream)`` in when the caller has it.
    """
    total = len(stream)
    if total < sample_size:
        raise ShortStream(f"need at least {sample_size} tokens, got {total}")
    # types sharing a frequency share P(X=0): frequency -> number of types
    by_count = Counter((Counter(stream) if counts is None else counts).values())
    value = 0.0
    for c, types in by_count.items():
        value += types * (1.0 - _p_absent(total, c, sample_size)) / sample_size
    return value


def _mtld_one_direction(stream, threshold: float) -> float:
    factors = 0.0
    types: set[str] = set()
    count = 0
    if threshold >= 1.0:
        # each token's own TTR of 1.0 reaches the threshold: a factor apiece
        factors = float(len(stream))
    else:
        for token in stream:
            count += 1
            # A new type never lowers the TTR, and a segment's first token
            # has TTR 1.0, so only a repeated token can reach the threshold.
            if token not in types:
                types.add(token)
            elif len(types) / count <= threshold:
                factors += 1.0
                types = set()
                count = 0
    if count:
        ttr = len(types) / count
        if ttr < 1.0:
            factors += (1.0 - ttr) / (1.0 - threshold)
    if factors == 0.0:
        raise ZeroFactors("type-token ratio never crossed the threshold")
    return len(stream) / factors


def mtld(stream, threshold: float = MTLD_THRESHOLD) -> float:
    """Bidirectional factor-based lexical diversity (mean of both scans)."""
    forward = _mtld_one_direction(stream, threshold)
    backward = _mtld_one_direction(stream[::-1], threshold)
    return (forward + backward) / 2.0


@dataclass
class DiversityReport:
    unigrams: int
    bigrams: int
    trigrams: int
    entropy: float
    conditional_entropy: float
    msttr: float | None
    hdd: float | None
    mtld: float | None

    def to_dict(self) -> dict:
        return {
            "unigrams": self.unigrams, "bigrams": self.bigrams,
            "trigrams": self.trigrams, "entropy": self.entropy,
            "conditional_entropy": self.conditional_entropy,
            "msttr": self.msttr, "hdd": self.hdd, "mtld": self.mtld,
        }


def diversity(utterances) -> DiversityReport:
    """All diversity metrics over a corpus of user utterances.

    Metrics needing a minimum stream length report None on short corpora
    instead of failing the whole evaluation.
    """
    stream = tokenize(utterances)
    counts = Counter(stream)
    bigrams = Counter(_ngrams(stream, 2))
    try:
        msttr_v = msttr(stream)
    except ShortStream:
        msttr_v = None
    try:
        hdd_v = hdd(stream, counts=counts)
    except ShortStream:
        hdd_v = None
    try:
        mtld_v = mtld(stream)
    except (ZeroFactors, ShortStream):
        mtld_v = None
    return DiversityReport(
        unigrams=len(counts),
        bigrams=len(bigrams),
        trigrams=unique_ngrams(stream, 3),
        entropy=_entropy(counts, len(stream)),
        conditional_entropy=_conditional_entropy(stream, counts, bigrams),
        msttr=msttr_v, hdd=hdd_v, mtld=mtld_v,
    )


# --- goal fulfillment ---

@dataclass
class DialogueScore:
    complete: bool
    success: bool
    precision: float
    recall: float
    f1: float
    booking_subtasks: int
    bookings_matched: int
    turns: int


@dataclass
class FulfillmentReport:
    complete_rate: float
    success_rate: float
    precision: float
    recall: float
    f1: float
    book_rate: float | None  # None when no goal had a booking subtask
    avg_turns: float
    dialogues: list[DialogueScore] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "complete_rate": self.complete_rate,
            "success_rate": self.success_rate,
            "precision": self.precision, "recall": self.recall, "f1": self.f1,
            "book_rate": self.book_rate, "avg_turns": self.avg_turns,
        }


def _harmonic(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if (p + r) else 0.0


def score_dialogue(log, ontology, entities) -> DialogueScore:
    goal = log.goal
    matches = {}  # domain -> entities meeting the goal's constraints there

    def consistent_value(domain: str, slot: str, value: str) -> bool:
        """True if an entity satisfying the goal's constraints carries the value.

        Each domain is queried once, with no constraints if the goal does
        not name it.
        """
        found = matches.get(domain)
        if found is None:
            section = goal.domains.get(domain)
            info = section.info if section is not None else {}
            found = matches[domain] = query_entities(entities, ontology, domain, info)
        if found:
            value = value.strip().lower()
            for entity in found:
                if entity.get(slot).strip().lower() == value:
                    return True
        return False

    requested = {(d, s) for d, g in goal.domains.items() for s in g.reqt}
    provided = {}
    for d, s, v in log.annotations.provided:
        if ontology.has_domain(d) and s in ontology.domains[d].requestable:
            provided[(d, s)] = v

    consistent = {pair: consistent_value(pair[0], pair[1], value)
                  for pair, value in provided.items()}
    tp = {pair for pair in requested & set(provided) if consistent[pair]}
    precision = len(tp) / len(provided) if provided else 0.0
    recall = len(tp) / len(requested) if requested else 1.0

    booking_domains = [d for d, g in goal.domains.items() if g.book is not None]
    booked_domains = {b.domain for b in log.annotations.bookings if b.ref}
    matched = 0
    for domain in booking_domains:
        for b in log.annotations.bookings:
            if b.domain != domain or not b.ref:
                continue
            entity_ok = consistent_value(domain, "name", b.entity_name)
            want = {k: v.lower() for k, v in (goal.domains[domain].book or {}).items()}
            got = {k: v.lower() for k, v in b.constraints}
            if entity_ok and all(got.get(k) == v for k, v in want.items()):
                matched += 1
                break

    complete = (requested <= set(provided)
                and all(d in booked_domains for d in booking_domains))
    success = (complete
               and all(consistent[pair] for pair in provided)
               and matched == len(booking_domains))
    return DialogueScore(
        complete=complete, success=success,
        precision=precision, recall=recall, f1=_harmonic(precision, recall),
        booking_subtasks=len(booking_domains), bookings_matched=matched,
        turns=len(log.turns),
    )


def fulfillment(logs, ontology, entities) -> FulfillmentReport:
    """Aggregate fulfillment metrics over a set of dialogue logs."""
    if not logs:
        raise EmptyLogSet("no logs to evaluate")
    scores = [score_dialogue(log, ontology, entities) for log in logs]
    n = len(scores)
    precision = sum(s.precision for s in scores) / n
    recall = sum(s.recall for s in scores) / n
    subtasks = sum(s.booking_subtasks for s in scores)
    matched = sum(s.bookings_matched for s in scores)
    return FulfillmentReport(
        complete_rate=sum(s.complete for s in scores) / n,
        success_rate=sum(s.success for s in scores) / n,
        precision=precision,
        recall=recall,
        f1=_harmonic(precision, recall),
        book_rate=(matched / subtasks) if subtasks else None,
        avg_turns=sum(s.turns for s in scores) / n,
        dialogues=scores,
    )


def user_utterances(logs) -> list[str]:
    return [t.utterance for log in logs for t in log.turns if t.speaker == "user"]


def render_report(fulfillment_report: FulfillmentReport,
                  diversity_report: DiversityReport) -> str:
    """Human-readable aligned tables, fulfillment then diversity."""
    def fmt(v):
        if v is None:
            return "n/a"
        if isinstance(v, int):
            return str(v)
        return f"{v:.3f}"

    f = fulfillment_report.to_dict()
    d = diversity_report.to_dict()
    lines = ["Goal fulfillment"]
    header = ["Complete", "Success", "Precision", "Recall", "F1", "Book", "Turn"]
    values = [f["complete_rate"], f["success_rate"], f["precision"], f["recall"],
              f["f1"], f["book_rate"], f["avg_turns"]]
    lines.append("  ".join(f"{h:>9}" for h in header))
    lines.append("  ".join(f"{fmt(v):>9}" for v in values))
    lines.append("")
    lines.append("Utterance diversity")
    header = ["Unigrams", "Bigrams", "Trigrams", "Entropy", "CE", "MSTTR",
              "HDD", "MTLD"]
    values = [d["unigrams"], d["bigrams"], d["trigrams"], d["entropy"],
              d["conditional_entropy"], d["msttr"], d["hdd"], d["mtld"]]
    lines.append("  ".join(f"{h:>9}" for h in header))
    lines.append("  ".join(f"{fmt(v):>9}" for v in values))
    return "\n".join(lines)
