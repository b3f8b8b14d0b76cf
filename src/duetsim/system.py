"""Deterministic rule-based dialogue system used as the simulator's counterpart.

The policy is priority-ordered and honest: every informed value comes
straight from the current candidate entity, so logs can be scored against
the database as ground truth.
"""

from __future__ import annotations

import random

from .acts import DONTCARE, GENERAL_DOMAIN, DialogueAct, template_nlg
from .errors import InvalidBookingSlot, Record, UnbookableDomain
from .world import BookingLedger, Ontology, query_entities

UNDERDETERMINED = 5  # more matches than this and the system asks for a constraint


class SystemState(Record):
    __slots__ = _fields = ("constraints", "ledger")

    def __init__(self, constraints: dict[str, dict[str, str]] | None = None,
                 ledger: BookingLedger | None = None):
        self.constraints = {} if constraints is None else constraints
        self.ledger = BookingLedger() if ledger is None else ledger


def _requery(state: SystemState, domain: str, ontology: Ontology, entities) -> list:
    constraints = {s: v for s, v in state.constraints.get(domain, {}).items()
                   if v != DONTCARE}
    return query_entities(entities, ontology, domain, constraints)


def system_turn(state: SystemState, user_acts, ontology: Ontology,
                entities) -> tuple[list[DialogueAct], str]:
    """One policy step: updates ``state`` in place and returns the system
    acts and their utterance. A user bye ends the dialogue before the system
    is asked (``run_dialogue``), so it has no rule here."""
    acts: list[DialogueAct] = []
    informs: dict[str, dict[str, str]] = {}
    requests: dict[str, list[str]] = {}
    books: dict[str, dict[str, str]] = {}
    for a in user_acts:
        if a.intent == "inform" and a.domain != GENERAL_DOMAIN and a.slot:
            informs.setdefault(a.domain, {})[a.slot] = a.value
        elif a.intent == "request" and a.domain != GENERAL_DOMAIN and a.slot:
            requests.setdefault(a.domain, []).append(a.slot)
        elif a.intent == "book" and a.domain != GENERAL_DOMAIN:
            books.setdefault(a.domain, {})
            if a.slot:
                books[a.domain][a.slot] = a.value

    domains = sorted(set(informs) | set(requests) | set(books))
    for domain in domains:
        if not ontology.has_domain(domain):
            acts.append(DialogueAct("nooffer", domain))
            continue
        # 1. record user informs and re-query
        if domain in informs:
            state.constraints.setdefault(domain, {}).update(informs[domain])
        matches = _requery(state, domain, ontology, entities)

        # 2. nothing matches the accumulated constraints
        if not matches:
            acts.append(DialogueAct("nooffer", domain))
            continue
        candidate = matches[0]

        handled = False
        # 3. answer requested slots from the candidate entity
        for slot in requests.get(domain, ()):
            value = candidate.get(slot)
            if value:
                acts.append(DialogueAct("inform", domain, slot, value))
            else:
                acts.append(DialogueAct("nooffer", domain))
            handled = True

        # 4. book the candidate when the user asked to book
        if domain in books:
            try:
                code = state.ledger.book(candidate, books[domain], ontology)
                acts.append(DialogueAct("offer_booked", domain, "ref", code))
                acts.append(DialogueAct("offer_booked", domain, "name",
                                        candidate.get("name")))
            except (UnbookableDomain, InvalidBookingSlot):
                acts.append(DialogueAct("nobook", domain))
            handled = True

        if handled:
            continue

        # 5. narrow down an underdetermined search
        if len(matches) > UNDERDETERMINED:
            informable = sorted(ontology.domains[domain].informable)
            open_slots = [s for s in informable
                          if s not in state.constraints.get(domain, {})
                          and s != "name"]
            if open_slots:
                acts.append(DialogueAct("request", domain, open_slots[0]))
                continue

        # otherwise put a concrete option on the table
        acts.append(DialogueAct("recommend", domain, "name", candidate.get("name")))

    if not acts:
        acts = [DialogueAct("reqmore", GENERAL_DOMAIN)]
    return acts, template_nlg(acts, side="system")


class SystemAgent:
    """Stateful wrapper presenting the respond() interface to run_dialogue."""

    def __init__(self, ontology: Ontology, entities, seed: int = 0):
        self.ontology = ontology
        self.entities = entities
        self.state = SystemState(ledger=BookingLedger(random.Random(seed)))

    def respond(self, user_acts):
        return system_turn(self.state, user_acts, self.ontology, self.entities)
