"""Deterministic rule-based dialogue system used as the simulator's counterpart.

``track`` records the user's informs and re-queries the entities;
``rule_policy`` chooses the acts. The policy is priority-ordered and honest:
every informed value comes straight from the current candidate entity, so
logs can be scored against the database as ground truth.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .acts import DONTCARE, GENERAL_DOMAIN, DialogueAct, DialogueContext, template_nlg
from .errors import InvalidBookingSlot, Record, UnbookableDomain
from .world import BookingLedger, Entity, Ontology, query_entities

UNDERDETERMINED = 5  # more matches than this and the system asks for a constraint


class SystemState(Record):
    __slots__ = _fields = ("constraints", "ledger")

    def __init__(self, constraints: dict[str, dict[str, str]] | None = None,
                 ledger: BookingLedger | None = None):
        self.constraints = {} if constraints is None else constraints
        self.ledger = BookingLedger() if ledger is None else ledger


class DomainView(NamedTuple):
    """One domain the user touched this turn, as the tracker sees it."""
    domain: str
    matches: list[Entity]         # meeting the domain's constraints, by id; [] if unknown
    requests: list[str]           # requested slots, in the user's order
    book: dict[str, str] | None   # booking slots, or None: no booking asked


def track(state: SystemState, user_acts, ontology: Ontology,
          entities) -> list[DomainView]:
    """Records the user's informs in ``state.constraints`` and returns a view
    of each domain the user informed, requested or booked in, in name order.
    A domain the ontology lacks gains no constraints and matches nothing."""
    informs: dict[str, dict[str, str]] = {}
    requests: dict[str, list[str]] = {}
    books: dict[str, dict[str, str]] = {}
    for a in user_acts:
        if a.domain == GENERAL_DOMAIN:
            continue
        if a.intent == "inform" and a.slot:
            informs.setdefault(a.domain, {})[a.slot] = a.value
        elif a.intent == "request" and a.slot:
            requests.setdefault(a.domain, []).append(a.slot)
        elif a.intent == "book":
            book = books.setdefault(a.domain, {})
            if a.slot:
                book[a.slot] = a.value

    views = []
    for domain in sorted(informs.keys() | requests.keys() | books.keys()):
        matches = []
        if ontology.has_domain(domain):
            if domain in informs:
                state.constraints.setdefault(domain, {}).update(informs[domain])
            wanted = {s: v for s, v in state.constraints.get(domain, {}).items()
                      if v != DONTCARE}
            matches = query_entities(entities, ontology, domain, wanted)
        views.append(DomainView(domain, matches, requests.get(domain, []),
                                books.get(domain)))
    return views


def rule_policy(views: list[DomainView], state: SystemState,
                ontology: Ontology) -> list[DialogueAct]:
    """The acts answering a turn, view by view: ``nooffer`` when nothing
    matches; else answer the requests and book the first match (in
    ``state.ledger``); else ask for a constraint when more than
    ``UNDERDETERMINED`` match; else recommend the first match. ``reqmore``
    when there is no view."""
    acts: list[DialogueAct] = []
    for domain, matches, requests, book in views:
        if not matches:
            acts.append(DialogueAct("nooffer", domain))
            continue
        candidate = matches[0]
        for slot in requests:
            value = candidate.get(slot)
            acts.append(DialogueAct("inform", domain, slot, value) if value
                        else DialogueAct("nooffer", domain))
        if book is not None:
            try:
                code = state.ledger.book(candidate, book, ontology)
                acts.append(DialogueAct("offer_booked", domain, "ref", code))
                acts.append(DialogueAct("offer_booked", domain, "name",
                                        candidate.get("name")))
            except (UnbookableDomain, InvalidBookingSlot):
                acts.append(DialogueAct("nobook", domain))
        if requests or book is not None:
            continue
        if len(matches) > UNDERDETERMINED:
            informable = sorted(ontology.domains[domain].informable)
            open_slots = [s for s in informable
                          if s not in state.constraints.get(domain, {})
                          and s != "name"]
            if open_slots:
                acts.append(DialogueAct("request", domain, open_slots[0]))
                continue
        acts.append(DialogueAct("recommend", domain, "name", candidate.get("name")))
    return acts or [DialogueAct("reqmore", GENERAL_DOMAIN)]


def system_turn(state: SystemState, user_acts, ontology: Ontology,
                entities) -> tuple[list[DialogueAct], str]:
    """One step: ``track``, ``rule_policy``, then template NLG; updates
    ``state`` in place. A user bye ends the dialogue before the system is
    asked (``run_dialogue``), so it has no rule here."""
    acts = rule_policy(track(state, user_acts, ontology, entities), state, ontology)
    return acts, template_nlg(acts, side="system")


class SystemAgent:
    """Stateful wrapper presenting the speakers' next_turn() to run_dialogue."""

    def __init__(self, ontology: Ontology, entities, seed: int = 0):
        self.ontology = ontology
        self.entities = entities
        self.state = SystemState(ledger=BookingLedger(random.Random(seed)))

    def next_turn(self, context: DialogueContext):
        """Answer the user turn at the end of ``context``."""
        user_acts = context.turns[-1].acts
        return system_turn(self.state, user_acts, self.ontology, self.entities)
