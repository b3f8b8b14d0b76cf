"""Bundled world: ontology, entity database, booking engine and goal sampling.

The shipped world file covers two domains (restaurant, hotel) with enough
entities to make goal sampling, entity search and booking flows all
exercisable offline.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass
from importlib import resources

from .errors import (
    EmptyWorld,
    InvalidBookingSlot,
    ParseError,
    SchemaViolation,
    UnbookableDomain,
    UnknownDomain,
    WorldLoadError,
)

BUNDLED_WORLD = "world.json"


@dataclass(frozen=True)
class DomainSchema:
    informable: dict[str, tuple[str, ...]]  # slot -> candidate values
    requestable: tuple[str, ...]
    bookable: dict[str, tuple[str, ...]]    # slot -> candidate values


@dataclass(frozen=True)
class Ontology:
    domains: dict[str, DomainSchema]

    def has_domain(self, domain: str) -> bool:
        return domain in self.domains

    def slots(self, domain: str) -> set[str]:
        """All known slots of a domain (informable, requestable, bookable)."""
        schema = self.domains[domain]
        return (set(schema.informable) | set(schema.requestable)
                | set(schema.bookable))


@dataclass(frozen=True)
class Entity:
    domain: str
    id: str
    attributes: dict[str, str]

    def get(self, slot: str) -> str:
        return self.attributes.get(slot, "")


class EntityIndex(tuple):
    """An immutable entity sequence, indexed by domain for querying.

    Each domain keeps its entities sorted by id, paired with their attribute
    values already stripped and lowercased, and an inverted index from
    (slot, normalized value) to the positions of the rows carrying it, in
    row order. ``load_world`` returns one; ``query_entities`` and
    ``generate_goal`` index any other sequence on the call.
    """

    def __new__(cls, entities=()):
        self = super().__new__(cls, entities)
        groups: dict[str, list[Entity]] = {}
        for e in self:
            groups.setdefault(e.domain, []).append(e)
        self._rows = {}
        self._postings = {}
        for domain, group in groups.items():
            group.sort(key=lambda e: e.id)
            rows = tuple(
                (e, {s: v.strip().lower() for s, v in e.attributes.items()})
                for e in group)
            postings: dict[tuple[str, str], list[int]] = {}
            for i, (_, attrs) in enumerate(rows):
                for pair in attrs.items():
                    postings.setdefault(pair, []).append(i)
            self._rows[domain] = rows
            self._postings[domain] = {k: tuple(v) for k, v in postings.items()}
        return self

    def rows(self, domain: str) -> tuple[tuple[Entity, dict[str, str]], ...]:
        """(entity, normalized attributes) pairs of a domain, ordered by id."""
        return self._rows.get(domain, ())

    def posting(self, domain: str, slot: str, value: str) -> tuple[int, ...]:
        """Positions in ``rows(domain)`` whose normalized ``slot`` equals the
        already normalized ``value``, ascending."""
        return self._postings.get(domain, {}).get((slot, value), ())


def _index(entities) -> EntityIndex:
    return entities if isinstance(entities, EntityIndex) else EntityIndex(entities)


@dataclass(frozen=True)
class BookingRef:
    code: str
    entity_id: str
    domain: str
    constraints: dict[str, str]


# --- user goals ---

@dataclass(frozen=True)
class DomainGoal:
    info: dict[str, str]
    reqt: tuple[str, ...]
    book: dict[str, str] | None = None


@dataclass(frozen=True)
class UserGoal:
    domains: dict[str, DomainGoal]

    def to_dict(self) -> dict:
        out = {}
        for name, g in self.domains.items():
            section = {"info": dict(g.info), "reqt": list(g.reqt)}
            if g.book is not None:
                section["book"] = dict(g.book)
            out[name] = section
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "UserGoal":
        domains = {}
        for name, section in d.items():
            domains[name] = DomainGoal(
                info=dict(section.get("info", {})),
                reqt=tuple(section.get("reqt", ())),
                book=dict(section["book"]) if "book" in section else None,
            )
        return cls(domains)


_REQT_PHRASES = {
    "phone": "make sure you get its phone number",
    "address": "make sure you get its address",
    "postcode": "make sure you get its postcode",
    "food": "make sure to ask about what food it serves",
}


def describe_goal(goal: UserGoal) -> str:
    """Render a goal as imperative second-person instructions."""
    parts = []
    for domain, g in goal.domains.items():
        if "name" in g.info:
            parts.append(f"You are looking for a particular {domain}. "
                         f"Its name is called {g.info['name']}.")
        else:
            parts.append(f"You are looking for a {domain}.")
        for slot, value in g.info.items():
            if slot == "name":
                continue
            parts.append(f"The {domain} should have {slot} {value}.")
        for slot in g.reqt:
            phrase = _REQT_PHRASES.get(slot, f"make sure you get its {slot}")
            parts.append(f"Once you find the {domain}, {phrase}.")
        if g.book is not None:
            if g.book:
                detail = ", ".join(f"{s} {v}" for s, v in g.book.items())
                parts.append(f"Once you find the {domain}, "
                             f"make sure to book it ({detail}).")
            else:
                parts.append(f"Once you find the {domain}, make sure to book it.")
    return " ".join(parts)


# --- loading and querying ---

def _check(cond: bool, location: str, message: str) -> None:
    if not cond:
        raise SchemaViolation(location, message)


def _parse_world(doc: dict, source: str) -> tuple[Ontology, EntityIndex]:
    _check(isinstance(doc, dict), source, "top level must be an object")
    _check("ontology" in doc, source, "missing 'ontology' section")
    _check("entities" in doc, source, "missing 'entities' section")
    raw_domains = doc["ontology"]
    _check(isinstance(raw_domains, dict) and raw_domains,
           "ontology", "domains map must be a non-empty object")
    domains = {}
    for name, spec in raw_domains.items():
        loc = f"ontology.{name}"
        _check(isinstance(spec, dict), loc, "must be an object")
        informable = {k: tuple(v) for k, v in spec.get("informable", {}).items()}
        for slot, values in informable.items():
            _check(len(values) > 0, f"{loc}.informable.{slot}",
                   "candidate value list must be non-empty")
        bookable = {k: tuple(v) for k, v in spec.get("bookable", {}).items()}
        for slot, values in bookable.items():
            _check(len(values) > 0, f"{loc}.bookable.{slot}",
                   "candidate value list must be non-empty")
        domains[name] = DomainSchema(
            informable=informable,
            requestable=tuple(spec.get("requestable", ())),
            bookable=bookable,
        )
    ontology = Ontology(domains)

    entities = []
    for i, raw in enumerate(doc["entities"]):
        loc = f"entities[{i}]"
        _check(isinstance(raw, dict), loc, "must be an object")
        for key in ("domain", "id", "attributes"):
            _check(key in raw, loc, f"missing '{key}'")
        domain = raw["domain"]
        _check(domain in domains, loc, f"unknown domain {domain!r}")
        schema = domains[domain]
        attrs = {k: str(v) for k, v in raw["attributes"].items()}
        known = set(schema.informable) | set(schema.requestable)
        for slot in attrs:
            _check(slot in known, f"{loc}.attributes",
                   f"slot {slot!r} not in ontology for {domain!r}")
        for slot in set(schema.requestable) | set(schema.informable):
            _check(slot in attrs, f"{loc}.attributes",
                   f"entity missing value for slot {slot!r}")
        entities.append(Entity(domain=domain, id=str(raw["id"]), attributes=attrs))
    return ontology, EntityIndex(entities)


def load_world(path: str | None = None) -> tuple[Ontology, EntityIndex]:
    """Load and validate a world file; None loads the bundled world."""
    source = BUNDLED_WORLD if path is None else str(path)
    try:
        if path is None:
            text = resources.files("duetsim.data").joinpath(BUNDLED_WORLD).read_text()
        else:
            with open(path, encoding="utf-8") as f:
                text = f.read()
    except OSError as e:
        raise WorldLoadError(f"{source}: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{source}: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{source}: {e}") from e
    return _parse_world(doc, source)


def query_entities(entities, ontology: Ontology, domain: str,
                   constraints: dict[str, str]) -> list[Entity]:
    """All entities of a domain matching every constraint, ordered by id.

    Matching is case-insensitive exact equality after stripping whitespace;
    empty constraints return every entity of the domain.
    """
    if not ontology.has_domain(domain):
        raise UnknownDomain(domain)
    index = _index(entities)
    rows = index.rows(domain)
    wanted = [(slot, value.strip().lower()) for slot, value in constraints.items()]
    # Start from the shortest posting of a non-empty value. An empty value
    # has none: it matches entities without the slot, so it is only checked.
    candidates = None
    for slot, value in wanted:
        if value:
            posting = index.posting(domain, slot, value)
            if candidates is None or len(posting) < len(candidates):
                candidates = posting
                if not posting:
                    return []
    if candidates is None:
        candidates = range(len(rows))
    out = []
    for i in candidates:
        entity, attrs = rows[i]
        for slot, value in wanted:
            if attrs.get(slot, "") != value:
                break
        else:
            out.append(entity)
    return out


def generate_goal(seed: int, ontology: Ontology, entities) -> UserGoal:
    """Sample a satisfiable user goal, deterministically from the seed.

    1-2 domains; per domain 1-3 info constraints copied from a real entity
    (so the goal is always satisfiable), 1-3 requestable slots disjoint from
    info, and a booking section with probability 0.5 when the domain is
    bookable.
    """
    index = _index(entities)
    rng = random.Random(seed)
    names = sorted(ontology.domains)
    k = rng.randint(1, min(2, len(names)))
    chosen = rng.sample(names, k)
    goal_domains = {}
    for domain in sorted(chosen):
        schema = ontology.domains[domain]
        pool = [e for e, _ in index.rows(domain)]
        if not pool:
            raise EmptyWorld(f"no entities for domain {domain!r}")
        entity = rng.choice(pool)
        informable = sorted(set(schema.informable) & set(entity.attributes))
        n_info = rng.randint(1, min(3, len(informable)))
        info_slots = rng.sample(informable, n_info)
        info = {s: entity.attributes[s] for s in sorted(info_slots)}
        requestable = sorted(set(schema.requestable) - set(info))
        n_reqt = rng.randint(1, min(3, len(requestable))) if requestable else 0
        reqt = tuple(sorted(rng.sample(requestable, n_reqt))) if n_reqt else ()
        book = None
        if schema.bookable and rng.random() < 0.5:
            book = {s: rng.choice(values)
                    for s, values in sorted(schema.bookable.items())}
        goal_domains[domain] = DomainGoal(info=info, reqt=reqt, book=book)
    return UserGoal(goal_domains)


class BookingLedger:
    """Per-session registry of bookings; reference codes unique per session."""

    def __init__(self, rng: random.Random | None = None):
        self._rng = rng or random.Random(0)
        self._codes: set[str] = set()
        self.bookings: list[BookingRef] = []

    def book(self, entity: Entity, constraints: dict[str, str],
             ontology: Ontology) -> BookingRef:
        schema = ontology.domains.get(entity.domain)
        if schema is None or not schema.bookable:
            raise UnbookableDomain(entity.domain)
        for slot in constraints:
            if slot not in schema.bookable:
                raise InvalidBookingSlot(f"{entity.domain}.{slot}")
        alphabet = string.ascii_uppercase + string.digits
        while True:
            code = "".join(self._rng.choice(alphabet) for _ in range(8))
            if code not in self._codes:
                break
        self._codes.add(code)
        ref = BookingRef(code=code, entity_id=entity.id, domain=entity.domain,
                         constraints=dict(constraints))
        self.bookings.append(ref)
        return ref
