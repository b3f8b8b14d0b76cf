"""Agenda-based user simulator: a stack of pending acts driven by rules.

The stack is seeded from the goal with informs on top, then requests, then
booking acts, with bye at the bottom. System turns update the stack before
the user pops its next acts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import lru_cache
from importlib import resources

from .acts import DialogueAct, DialogueContext
from .errors import MissingTemplate
from .world import UserGoal

POP_BUDGET = 2
MAX_ASKS = 3  # total times the user will ask the same request slot

DONTCARE = "dontcare"


@dataclass
class Agenda:
    goal: UserGoal
    stack: list[DialogueAct] = field(default_factory=list)
    # (domain, slot) -> obtained value, or None while pending
    request_status: dict = field(default_factory=dict)
    ask_counts: dict = field(default_factory=dict)
    informed: list = field(default_factory=list)  # (domain, slot) in emit order
    booking_done: dict = field(default_factory=dict)  # domain -> bool
    relaxed: bool = False
    failed: bool = False

    @property
    def done(self) -> bool:
        return not self.stack


def init_agenda(goal: UserGoal) -> Agenda:
    """Seed the stack bottom-up: bye, booking acts, requests, informs."""
    agenda = Agenda(goal=goal)
    agenda.stack.append(DialogueAct("bye", "general"))
    for domain in sorted(goal.domains, reverse=True):
        g = goal.domains[domain]
        if g.book is not None:
            agenda.booking_done[domain] = False
            if g.book:
                for slot in sorted(g.book, reverse=True):
                    agenda.stack.append(DialogueAct("book", domain, slot, g.book[slot]))
            else:
                agenda.stack.append(DialogueAct("book", domain))
    for domain in sorted(goal.domains, reverse=True):
        g = goal.domains[domain]
        for slot in sorted(g.reqt, reverse=True):
            agenda.stack.append(DialogueAct("request", domain, slot))
            agenda.request_status[(domain, slot)] = None
    for domain in sorted(goal.domains, reverse=True):
        g = goal.domains[domain]
        for slot in sorted(g.info, reverse=True):
            agenda.stack.append(DialogueAct("inform", domain, slot, g.info[slot]))
    return agenda


def _push(agenda: Agenda, act: DialogueAct) -> None:
    if act not in agenda.stack:
        agenda.stack.append(act)


def _give_up(agenda: Agenda) -> None:
    agenda.failed = True
    agenda.stack = [DialogueAct("bye", "general")]


def _apply_system_acts(agenda: Agenda, system_acts) -> None:
    goal = agenda.goal
    for act in system_acts:
        a = act.normalized()
        g = goal.domains.get(a.domain)
        if a.intent == "request":
            if g and a.slot in g.info:
                _push(agenda, DialogueAct("inform", a.domain, a.slot, g.info[a.slot]))
            elif g and g.book and a.slot in g.book:
                _push(agenda, DialogueAct("book", a.domain, a.slot, g.book[a.slot]))
            else:
                _push(agenda, DialogueAct("inform", a.domain, a.slot, DONTCARE))
        elif a.intent in ("inform", "recommend", "select"):
            key = (a.domain, a.slot)
            if key in agenda.request_status and agenda.request_status[key] is None:
                agenda.request_status[key] = a.value
                agenda.stack = [x for x in agenda.stack
                                if not (x.intent == "request" and x.domain == a.domain
                                        and x.slot == a.slot)]
        elif a.intent in ("nooffer", "nobook"):
            if not agenda.relaxed and agenda.informed:
                # drop the most recently informed constraint, once
                domain, slot = agenda.informed[-1]
                agenda.relaxed = True
                _push(agenda, DialogueAct("inform", domain, slot, DONTCARE))
            else:
                _give_up(agenda)
        elif a.intent == "offer_book":
            if a.domain in agenda.booking_done and not agenda.booking_done[a.domain]:
                # surface the booking group so it is the next thing emitted
                group = [x for x in agenda.stack
                         if x.intent == "book" and x.domain == a.domain]
                if group:
                    agenda.stack = [x for x in agenda.stack if x not in group]
                    agenda.stack.extend(group)
        elif a.intent == "offer_booked":
            if a.domain in agenda.booking_done:
                agenda.booking_done[a.domain] = True
            agenda.stack = [x for x in agenda.stack
                            if not (x.intent == "book" and x.domain == a.domain)]
    # re-ask answered-nowhere requests that were already emitted
    if agenda.failed:
        return
    for (domain, slot), value in agenda.request_status.items():
        if value is not None:
            continue
        on_stack = any(x.intent == "request" and x.domain == domain and x.slot == slot
                       for x in agenda.stack)
        asked = agenda.ask_counts.get((domain, slot), 0)
        if not on_stack and 0 < asked < MAX_ASKS:
            agenda.stack.insert(len(agenda.stack), DialogueAct("request", domain, slot))


def _pop_turn(agenda: Agenda) -> list[DialogueAct]:
    acts: list[DialogueAct] = []
    while agenda.stack and len(acts) < POP_BUDGET:
        top = agenda.stack[-1]
        if top.intent == "book":
            if acts:
                break
            # a booking is emitted as one complete turn, whole group at once
            group = [x for x in agenda.stack
                     if x.intent == "book" and x.domain == top.domain]
            agenda.stack = [x for x in agenda.stack if x not in group]
            return list(reversed(group))
        if top.intent == "bye" and acts:
            break
        acts.append(agenda.stack.pop())
        if acts[-1].intent == "inform":
            agenda.informed.append((acts[-1].domain, acts[-1].slot))
        elif acts[-1].intent == "request":
            key = (acts[-1].domain, acts[-1].slot)
            agenda.ask_counts[key] = agenda.ask_counts.get(key, 0) + 1
    return acts


def agenda_step(agenda: Agenda, system_acts) -> tuple[list[DialogueAct], Agenda]:
    """Apply system acts to the agenda, then pop the next user turn.

    Pure transition: the input agenda is left untouched. The goal and the
    acts are frozen and shared; only the mutable containers are copied.
    """
    updated = replace(agenda, stack=list(agenda.stack),
                      request_status=dict(agenda.request_status),
                      ask_counts=dict(agenda.ask_counts),
                      informed=list(agenda.informed),
                      booking_done=dict(agenda.booking_done))
    _apply_system_acts(updated, system_acts)
    acts = _pop_turn(updated)
    return acts, updated


# --- template NLG ---

@lru_cache(maxsize=None)
def _nlg_tables() -> dict:
    text = resources.files("duetsim.data.templates").joinpath("nlg.json").read_text()
    return json.loads(text)


def template_nlg(acts, side: str = "user") -> str:
    """Deterministic fill-in NLG; one template per act, joined with " "."""
    table = _nlg_tables()[side]
    pieces = []
    for act in acts:
        a = act.normalized()
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


class AgendaUserSimulator:
    """Rule-based user simulator with template NLG."""

    def __init__(self, goal: UserGoal):
        self.agenda = init_agenda(goal)

    def next_turn(self, context: DialogueContext):
        turns = context.turns
        system_acts = turns[-1].acts if turns and turns[-1].speaker == "system" else ()
        acts, self.agenda = agenda_step(self.agenda, system_acts)
        if not acts:  # exhausted agenda; close politely
            acts = [DialogueAct("bye", "general")]
        return acts, template_nlg(acts, side="user")
