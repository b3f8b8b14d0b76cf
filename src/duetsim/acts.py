"""Core dialogue types and the textual codec for dialogue-act lists.

A dialogue act is a four-tuple (intent, domain, slot, value). Acts travel
between the user simulator and the dialogue system as bracketed quadruple
lists like ``[['inform', 'restaurant', 'book day', 'Tuesday']]``, which is
also the wire form that language models are asked to emit. ``template_nlg``
renders acts as text from ``data/templates/nlg.json``, for the agenda user
and the rule-based system alike.

A dialogue log is stored as one JSON record per line, ``{"v": 1, "log":
...}``; ``encode_record`` writes such a line and ``read_logs`` reads them.
"""

from __future__ import annotations

import ast
import json
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

from .errors import (EmptyActList, LogParseError, LogReadError, MalformedAct, MissingTemplate,
                     NoActFound, require_int, require_string, require_strings, require_type)
from .world import DomainGoal, UserGoal

INTENTS = frozenset({
    "inform", "request", "book", "offer_book", "offer_booked", "nooffer",
    "nobook", "recommend", "select", "greet", "bye", "thank", "reqmore",
})

GENERAL_DOMAIN = "general"

# Social intents carry neither slot nor value.
SOCIAL_INTENTS = frozenset({"greet", "bye", "thank"})


@dataclass(frozen=True)
class DialogueAct:
    """An act. Every act the package makes is normal, as ``parse_act_list``
    returns it (``normalized()`` is itself), so no consumer normalizes."""

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


# --- template NLG ---

DONTCARE = "dontcare"


@lru_cache(maxsize=None)
def _nlg_tables() -> dict:
    text = resources.files("duetsim.data.templates").joinpath("nlg.json").read_text()
    return json.loads(text)


def template_nlg(acts, side: str = "user") -> str:
    """Deterministic fill-in NLG; one template per act, joined with " "."""
    table = _nlg_tables()[side]
    pieces = []
    for a in acts:
        intent = a.intent
        if intent == "inform" and a.value == DONTCARE:
            intent = "dontcare"
        template = None
        for key in (f"{intent}|{a.domain}|{a.slot}",
                    f"{intent}|*|{a.slot}",
                    f"{intent}|{a.domain}|*",
                    f"{intent}|*|*"):
            if key in table:
                template = table[key]
                break
        if template is None:
            raise MissingTemplate(f"{side}:{intent}|{a.domain}|{a.slot}")
        pieces.append(template.format(value=a.value, slot=a.slot, domain=a.domain))
    return " ".join(pieces)


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
        acts = ActTable() if acts is None else acts
        speaker, utterance, turn_acts = d["speaker"], d["utterance"], d["acts"]
        if speaker not in ("user", "system"):  # a wrong type is reported first
            require_string("speaker", speaker)
            require_string("utterance", utterance)
            raise ValueError(f"speaker: got {speaker!r}, expected user or system")
        require_string("utterance", utterance)
        # a string act would otherwise be read as one act field per letter
        if not isinstance(turn_acts, list):
            raise TypeError(f"acts: expected a list of lists, got {turn_acts!r}")
        read = []
        for fields in turn_acts:
            if not isinstance(fields, list):
                raise TypeError(f"acts: expected a list of lists, got {turn_acts!r}")
            read.append(acts[tuple(fields)])
        return cls(speaker, tuple(read), utterance,
                   require_int("turn_index", d["turn_index"]))


class ActTable(dict):
    """Act quadruple -> DialogueAct, building each missing act once."""

    def __missing__(self, fields: tuple) -> DialogueAct:
        if len(fields) != 4:
            raise TypeError(f"act: expected 4 components, got {list(fields)!r}")
        require_strings("act component", fields)
        act = self[fields] = DialogueAct(*fields)
        return act


def _turn_line(turn: DialogueTurn, mode: str) -> str:
    """One turn of a rendered history: speaker, then utterance or acts."""
    if mode == ACTS:
        body = render_act_list(list(turn.acts)) if turn.acts else "[]"
    else:
        body = turn.utterance
    return f"{turn.speaker.upper()}: {body}"


@dataclass
class DialogueContext:
    """The turn history of one dialogue, renderable as utterances or as act
    lists. The dialogue loop owns it; simulators only read it.

    ``render`` memoises its text per mode, keyed by the number of turns, and
    extends it with only the turns added since; each prompt builder fills
    its template from it once per call. Turns are only ever added: a turn
    edited or removed in place inside ``turns`` is not seen.
    """

    turns: list[DialogueTurn] = field(default_factory=list)
    # mode -> (number of turns rendered, their text)
    _rendered: dict[str, tuple[int, str]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def append(self, speaker: str, acts, utterance: str) -> None:
        """Add the next turn, indexed by its position in the history."""
        self.turns.append(DialogueTurn(speaker, tuple(acts), utterance,
                                       len(self.turns)))

    def render(self, mode: str = UTTERANCES) -> str:
        count, text = self._rendered.get(mode, (0, ""))
        total = len(self.turns)
        if count != total:
            lines = [_turn_line(t, mode) for t in self.turns[count:]]
            text = "\n".join([text, *lines] if count else lines)
            self._rendered[mode] = (total, text)
        return text


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
        domain, ref, name, constraints = d["domain"], d["ref"], d["entity_name"], d["constraints"]
        require_type("booking constraints", constraints, dict)
        require_strings("booking", (domain, ref, name, *constraints.values()))
        return cls(domain, ref, name, tuple(sorted(constraints.items())))


@dataclass(frozen=True)
class LogAnnotations:
    provided: tuple[tuple[str, str, str], ...]  # (domain, slot, value)
    bookings: tuple[BookingRecord, ...]

    def to_dict(self) -> dict:
        return {
            "provided": [list(p) for p in self.provided],
            "bookings": [b.to_dict() for b in self.bookings],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LogAnnotations":
        provided = []
        for triple in d["provided"]:
            # a string would otherwise be read as one field per letter
            if not isinstance(triple, list):
                raise TypeError(f"provided: expected a list of 3 strings, got {triple!r}")
            triple = tuple(triple)
            if len(triple) != 3:
                raise TypeError(f"provided: expected 3 fields, got {triple!r}")
            require_strings("provided", triple)
            provided.append(triple)
        return cls(tuple(provided), tuple(map(BookingRecord.from_dict, d["bookings"])))


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
DEFAULT_TURN_CAP = 20  # user turns before a dialogue ends with "turn_cap"


@dataclass
class DialogueLog:
    """Complete session record from which every metric is computed."""

    goal: UserGoal
    turns: list[DialogueTurn]
    annotations: LogAnnotations
    termination_reason: str
    seed: int | None = None
    error: str | None = None  # "Class: message"; log schema v1 has no field for it

    def to_dict(self) -> dict:
        return {
            "goal": goal_to_dict(self.goal),
            "turns": [t.to_dict() for t in self.turns],
            "annotations": self.annotations.to_dict(),
            "termination_reason": self.termination_reason,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict, acts: ActTable | None = None) -> "DialogueLog":
        """``acts`` shares equal acts between the logs read with it."""
        acts = ActTable() if acts is None else acts
        reason, seed = d["termination_reason"], d.get("seed")
        if reason not in TERMINATION_REASONS:
            raise ValueError(f"termination_reason: got {reason!r}, expected one "
                             f"of {', '.join(TERMINATION_REASONS)}")
        return cls(goal_from_dict(d["goal"]),
                   [DialogueTurn.from_dict(t, acts) for t in d["turns"]],
                   LogAnnotations.from_dict(d["annotations"]), reason,
                   seed if seed is None else require_int("seed", seed))


# --- log records ---

LOG_SCHEMA_VERSION = 1


def goal_to_dict(goal: UserGoal) -> dict:
    out = {}
    for name, g in goal.domains.items():
        section = {"info": dict(g.info), "reqt": list(g.reqt)}
        if g.book is not None:
            section["book"] = dict(g.book)
        out[name] = section
    return out


def goal_from_dict(d: dict) -> UserGoal:
    """TypeError unless the goal and each of its sections is an object,
    a section's ``info`` and ``book`` are objects and its ``reqt`` is a
    list, and every goal value and requested slot is a string."""
    require_type("goal", d, dict)
    domains = {}
    for name, section in d.items():
        require_type("goal", section, dict)
        info, reqt = section.get("info"), section.get("reqt")
        book = section.get("book", {})
        require_type("goal", info, dict)
        require_type("goal", reqt, list)
        require_type("goal", book, dict)
        require_strings("goal", (*info.values(), *reqt, *book.values()))
        domains[name] = DomainGoal(dict(info), tuple(reqt),
                                   dict(book) if "book" in section else None)
    return UserGoal(domains)


def encode_record(log: DialogueLog) -> str:
    """One log record line: the versioned envelope, keys sorted, newline-ended."""
    record = {"v": LOG_SCHEMA_VERSION, "log": log.to_dict()}
    return json.dumps(record, sort_keys=True) + "\n"


def read_logs(paths, ontology=None) -> list[DialogueLog]:
    """The log records of ``paths``, in order. Given an ontology, a goal
    section or a booking in a domain it does not know is an error that
    names the record."""
    logs = []
    acts = ActTable()  # equal acts of this call share one DialogueAct
    for path in paths:
        try:
            f = open(path, "rb")  # each line is decoded where its errors are caught
        except OSError as e:
            raise LogReadError(f"cannot read log {path}: {e}") from e
        with f:
            for i, line in enumerate(f, start=1):
                try:
                    line = line.decode("utf-8").strip()
                    if not line:
                        continue
                    record = json.loads(line)
                    if (v := require_int("v", record["v"])) != LOG_SCHEMA_VERSION:
                        raise ValueError(f"v: got {v}, expected {LOG_SCHEMA_VERSION}")
                    log = DialogueLog.from_dict(record["log"], acts)
                except (ValueError, KeyError, TypeError) as e:
                    raise LogParseError(i, f"{path}: {e}") from e
                if ontology:
                    for domain in (*log.goal.domains,
                                   *(b.domain for b in log.annotations.bookings)):
                        if not ontology.has_domain(domain):
                            raise LogParseError(i, f"{path}: seed {log.seed}: "
                                                f"unknown domain {domain!r}")
                logs.append(log)
    return logs
