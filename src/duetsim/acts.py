"""Core dialogue types and the textual codec for dialogue-act lists.

A dialogue act is a four-tuple (intent, domain, slot, value). Acts travel
between the user simulator and the dialogue system as bracketed quadruple
lists like ``[['inform', 'restaurant', 'book day', 'Tuesday']]``, which is
also the wire form that language models are asked to emit.
"""

from __future__ import annotations

import ast
import warnings
from dataclasses import dataclass, field

from .errors import EmptyActList, MalformedAct, NoActFound

INTENTS = frozenset({
    "inform", "request", "book", "offer_book", "offer_booked", "nooffer",
    "nobook", "recommend", "select", "greet", "bye", "thank", "reqmore",
})

GENERAL_DOMAIN = "general"

# Social intents carry neither slot nor value.
SOCIAL_INTENTS = frozenset({"greet", "bye", "thank"})


@dataclass(frozen=True)
class DialogueAct:
    intent: str
    domain: str = ""
    slot: str = ""
    value: str = ""

    def as_list(self) -> list[str]:
        return [self.intent, self.domain, self.slot, self.value]

    def normalized(self) -> "DialogueAct":
        """Lowercase/trim intent, domain and slot; trim the value only.

        An act that is already normalized is returned as it is.
        """
        intent = self.intent.strip().lower()
        domain = self.domain.strip().lower()
        slot = self.slot.strip().lower()
        value = self.value.strip()
        if (intent == self.intent and domain == self.domain
                and slot == self.slot and value == self.value):
            return self
        return DialogueAct(intent, domain, slot, value)


def _balanced_regions(text: str):
    """Yield balanced ``[...]`` substrings, outermost first, quote-aware."""
    i = 0
    n = len(text)
    while i < n:
        if text[i] != "[":
            i += 1
            continue
        depth = 0
        quote = ""
        j = i
        end = -1
        while j < n:
            ch = text[j]
            if quote:
                if ch == "\\":
                    j += 2
                    continue
                if ch == quote:
                    quote = ""
            elif ch in "'\"":
                quote = ch
            elif ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
                if depth == 0:
                    end = j
                    break
            j += 1
        if end == -1:
            i += 1
            continue
        yield text[i : end + 1]
        i = end + 1


def parse_act_list(text: str) -> list[DialogueAct]:
    """Extract the first bracketed list of quadruples from arbitrary text.

    Surrounding prose is ignored; both quote styles and trailing commas are
    accepted. Raises NoActFound when no candidate list exists, MalformedAct
    when a list element does not have exactly four string components.
    """
    for region in _balanced_regions(text):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # fuzzable input, e.g. bad escapes
                obj = ast.literal_eval(region)
        except (ValueError, SyntaxError):
            continue
        if not isinstance(obj, (list, tuple)) or not obj:
            continue
        if not all(isinstance(e, (list, tuple)) for e in obj):
            continue
        acts = []
        for e in obj:
            if len(e) != 4:
                raise MalformedAct(f"expected 4 components, got {len(e)}: {e!r}")
            if not all(isinstance(c, str) for c in e):
                raise MalformedAct(f"non-string component in {e!r}")
            acts.append(DialogueAct(*e).normalized())
        return acts
    raise NoActFound(f"no act list in {text[:80]!r}")


def render_act_list(acts: list[DialogueAct]) -> str:
    """Render acts in the canonical bracketed quadruple form.

    Exactly the grammar parse_act_list accepts: parse(render(a)) == a for
    every valid, normalized act list.
    """
    if not acts:
        raise EmptyActList("cannot render an empty act list")
    return str([a.as_list() for a in acts])


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_acts(acts, ontology) -> ValidationReport:
    """Check acts against the intent vocabulary and the ontology.

    Violations are data, not errors: an empty report means valid.
    """
    problems = []
    for act in acts:
        a = act.normalized()
        if a.intent not in INTENTS:
            problems.append(Violation("unknown_intent", f"unknown intent {a.intent!r}"))
            continue
        if a.intent in SOCIAL_INTENTS and (a.slot or a.value):
            problems.append(Violation(
                "slot_on_social", f"{a.intent} act must not carry slot/value"))
        if a.intent == "request" and a.value:
            problems.append(Violation(
                "value_on_request", f"request act for {a.slot!r} carries a value"))
        if a.domain and a.domain != GENERAL_DOMAIN:
            if not ontology.has_domain(a.domain):
                problems.append(Violation("unknown_domain", f"unknown domain {a.domain!r}"))
            elif a.slot and a.slot not in ontology.slots(a.domain):
                problems.append(Violation(
                    "unknown_slot", f"unknown slot {a.slot!r} for domain {a.domain!r}"))
    return ValidationReport(tuple(problems))


# --- dialogue structure ---

UTTERANCES = "utterances"
ACTS = "acts"


@dataclass(frozen=True)
class DialogueTurn:
    speaker: str  # "user" | "system"
    acts: tuple[DialogueAct, ...]
    utterance: str
    turn_index: int

    def to_dict(self) -> dict:
        return {
            "speaker": self.speaker,
            "acts": [a.as_list() for a in self.acts],
            "utterance": self.utterance,
            "turn_index": self.turn_index,
        }

    @classmethod
    def from_dict(cls, d: dict, acts: ActTable | None = None) -> "DialogueTurn":
        """``acts`` shares equal acts between the turns read with it."""
        if acts is None:
            acts = ActTable()
        speaker, utterance = d["speaker"], d["utterance"]
        _require_strings("speaker", (speaker,))
        _require_strings("utterance", (utterance,))
        return cls(
            speaker=speaker,
            acts=tuple(map(acts.__getitem__, map(tuple, d["acts"]))),
            utterance=utterance,
            turn_index=d["turn_index"],
        )


def _require_strings(name: str, values) -> None:
    """TypeError unless every value is a str; a log reader reports it."""
    for value in values:
        if not isinstance(value, str):
            raise TypeError(f"{name}: expected a string, got {value!r}")


class ActTable(dict):
    """Act quadruple -> DialogueAct, building each missing act once."""

    def __missing__(self, fields: tuple) -> DialogueAct:
        _require_strings("act component", fields)
        act = self[fields] = DialogueAct(*fields)
        return act


@dataclass
class DialogueContext:
    """The turn history of one dialogue, renderable as utterances or as act
    lists. The dialogue loop owns it; simulators only read it."""

    turns: list[DialogueTurn] = field(default_factory=list)

    def append(self, speaker: str, acts, utterance: str) -> None:
        """Add the next turn, indexed by its position in the history."""
        self.turns.append(DialogueTurn(speaker, tuple(acts), utterance,
                                       len(self.turns)))

    def render(self, mode: str = UTTERANCES) -> str:
        lines = []
        for turn in self.turns:
            who = turn.speaker.upper()
            if mode == ACTS:
                body = render_act_list(list(turn.acts)) if turn.acts else "[]"
            else:
                body = turn.utterance
            lines.append(f"{who}: {body}")
        return "\n".join(lines)


@dataclass(frozen=True)
class BookingRecord:
    domain: str
    ref: str
    entity_name: str
    constraints: tuple[tuple[str, str], ...]  # sorted (slot, value) pairs

    def to_dict(self) -> dict:
        return {
            "domain": self.domain,
            "ref": self.ref,
            "entity_name": self.entity_name,
            "constraints": dict(self.constraints),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BookingRecord":
        return cls(d["domain"], d["ref"], d["entity_name"],
                   tuple(sorted(d["constraints"].items())))


@dataclass(frozen=True)
class LogAnnotations:
    provided: tuple[tuple[str, str, str], ...]  # (domain, slot, value)
    bookings: tuple[BookingRecord, ...]

    def provided_map(self) -> dict[tuple[str, str], str]:
        return {(d, s): v for d, s, v in self.provided}

    def to_dict(self) -> dict:
        return {
            "provided": [list(p) for p in self.provided],
            "bookings": [b.to_dict() for b in self.bookings],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LogAnnotations":
        provided = tuple(map(tuple, d["provided"]))
        for triple in provided:
            if len(triple) != 3:
                raise TypeError(f"provided: expected 3 fields, got {triple!r}")
            _require_strings("provided", triple)
        return cls(
            provided=provided,
            bookings=tuple(BookingRecord.from_dict(b) for b in d["bookings"]),
        )


def derive_annotations(turns) -> LogAnnotations:
    """Recompute outcome annotations by replaying the turns.

    System inform acts contribute provided (domain, slot, value) entries
    (last value wins). User book acts accumulate booking constraints per
    domain; a system turn emitting offer_booked acts (ref plus name) binds
    them into a BookingRecord.
    """
    provided: dict[tuple[str, str], str] = {}
    pending_book: dict[str, dict[str, str]] = {}
    bookings: list[BookingRecord] = []
    for turn in turns:
        if turn.speaker == "user":
            for act in turn.acts:
                if act.intent == "book" and act.slot:
                    pending_book.setdefault(act.domain, {})[act.slot] = act.value
                elif act.intent == "book":
                    pending_book.setdefault(act.domain, {})
        else:
            booked: dict[str, dict[str, str]] = {}
            for act in turn.acts:
                if act.intent == "inform" and act.domain != GENERAL_DOMAIN and act.slot:
                    provided[(act.domain, act.slot)] = act.value
                elif act.intent == "offer_booked" and act.slot in ("ref", "name"):
                    booked.setdefault(act.domain, {})[act.slot] = act.value
            for domain, parts in booked.items():
                constraints = pending_book.get(domain, {})
                bookings.append(BookingRecord(
                    domain=domain,
                    ref=parts.get("ref", ""),
                    entity_name=parts.get("name", ""),
                    constraints=tuple(sorted(constraints.items())),
                ))
    provided_t = tuple(sorted((d, s, v) for (d, s), v in provided.items()))
    return LogAnnotations(provided=provided_t, bookings=tuple(bookings))


TERMINATION_REASONS = ("user_bye", "turn_cap", "error")


@dataclass
class DialogueLog:
    """Complete session record from which every metric is computed."""

    goal: "UserGoal"
    turns: list[DialogueTurn]
    annotations: LogAnnotations
    termination_reason: str
    seed: int | None = None

    def to_dict(self) -> dict:
        return {
            "goal": self.goal.to_dict(),
            "turns": [t.to_dict() for t in self.turns],
            "annotations": self.annotations.to_dict(),
            "termination_reason": self.termination_reason,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict, acts: ActTable | None = None) -> "DialogueLog":
        """``acts`` shares equal acts between the logs read with it."""
        from .world import UserGoal
        if acts is None:
            acts = ActTable()
        return cls(
            goal=UserGoal.from_dict(d["goal"]),
            turns=[DialogueTurn.from_dict(t, acts) for t in d["turns"]],
            annotations=LogAnnotations.from_dict(d["annotations"]),
            termination_reason=d["termination_reason"],
            seed=d.get("seed"),
        )
