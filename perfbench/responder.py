"""Stateless fake language model shared by both duet workloads.

Every reply is a pure function of the prompt text, never of call order, so
the same dialogue seeds give byte-identical logs whether the simulator runs
in-process or against the HTTP server, serially or on two workers.

* Generator step prompts are answered from the GOAL section and the number
  of ``USER:`` lines in the conversation: the simulated user follows a fixed
  ten-turn plan (greet, per domain one inform turn, one request turn and an
  optional booking turn, thanks as filler, then bye).
* On turns where ``turn % REJECT_EVERY == REJECT_PHASE`` the first draft is a
  premature bye. Once a FEEDBACK section appears in the step prompt the
  right acts are drafted. The verifier prompt carries no feedback, so the
  verdict is decided from the draft acts alone: ACCEPT when they equal the
  planned acts, otherwise REJECT V4.
* NLG replies are fixed sentences. The user utterances, and so the corpus
  the diversity metrics read, then do not depend on the goals drawn, which
  keeps the evaluate cost of a batch independent of its seeds.

Only the standard library is used, so the HTTP server child process starts
without importing duetsim. Parsing is memoised on the parsed text, which
keeps the responder's own cost small next to the framework's.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache

PLAN_TURNS = 10
REJECT_EVERY = 4
REJECT_PHASE = 2

STEP = "step"
VERIFIER = "verifier"
NLG = "nlg"


# One alternative per sentence shape that describe_goal writes.
_GOAL_SENTENCE_RE = re.compile(
    r"You are looking for a (?:particular )?(?P<domain>\w+)\."
    r"|Its name is called (?P<name>[^.]+)\."
    r"|The (?P<info_domain>\w+) should have (?P<info_slot>\w+) (?P<info_value>[^.]+)\."
    r"|Once you find the (?P<book_domain>\w+), make sure to book it"
    r"(?: \((?P<book_detail>[^)]*)\))?\."
    r"|Once you find the (?P<reqt_domain>\w+), make sure "
    r"(?:you get its|to ask about what) (?P<reqt_slot>\w+)")
_BOOK_DETAIL_RE = re.compile(r"(book \w+) ([^,]+)")

_STEP_COLUMNS = (
    ("Decide the intent", 0),
    ("Decide which domain", 1),
    ("Decide which slot", 2),
    ("Decide the value", 3),
)

GREET = ("greet", "general", "", "")
THANK = ("thank", "general", "", "")
BYE = ("bye", "general", "", "")


class UnknownPrompt(ValueError):
    """The prompt matches none of the shapes the responder answers."""


def _section(text: str, header: str, end: str = "\n") -> str:
    """The text between ``header`` and the next ``end``."""
    start = text.find(header)
    if start < 0:
        raise UnknownPrompt(f"missing section {header!r}")
    start += len(header)
    stop = text.find(end, start)
    return text[start:] if stop < 0 else text[start:stop]


@lru_cache(maxsize=4096)
def _literal(text: str):
    return ast.literal_eval(text)


def parse_goal(description: str) -> list[tuple[str, dict]]:
    """Recover (domain, {info, reqt, book}) pairs from a goal description."""
    domains: list[tuple[str, dict]] = []
    for m in _GOAL_SENTENCE_RE.finditer(description):
        if m.group("domain"):
            domains.append((m.group("domain"), {"info": [], "reqt": [], "book": None}))
        elif not domains:
            raise UnknownPrompt(f"goal sentence before any domain: {m.group(0)!r}")
        elif m.group("name"):
            domains[-1][1]["info"].append(("name", m.group("name")))
        elif m.group("info_slot"):
            domains[-1][1]["info"].append((m.group("info_slot"), m.group("info_value")))
        elif m.group("book_domain"):
            detail = m.group("book_detail") or ""
            domains[-1][1]["book"] = _BOOK_DETAIL_RE.findall(detail)
        else:
            domains[-1][1]["reqt"].append(m.group("reqt_slot"))
    if not domains:
        raise UnknownPrompt("goal description names no domain")
    return domains


@lru_cache(maxsize=1024)
def plan(description: str) -> list[list[tuple[str, str, str, str]]]:
    """The user's acts for every turn, always PLAN_TURNS turns long."""
    turns = [[GREET]]
    for domain, g in parse_goal(description):
        if g["info"]:
            turns.append([("inform", domain, s, v) for s, v in g["info"]])
        if g["reqt"]:
            turns.append([("request", domain, s, "") for s in g["reqt"]])
        if g["book"] is not None:
            turns.append([("book", domain, s, v) for s, v in g["book"]]
                         or [("book", domain, "", "")])
    if len(turns) > PLAN_TURNS - 1:
        raise UnknownPrompt(f"goal needs {len(turns)} turns, plan has {PLAN_TURNS}")
    turns.extend([THANK] for _ in range(PLAN_TURNS - 1 - len(turns)))
    turns.append([BYE])
    return turns


def _user_turns_so_far(text: str) -> int:
    conversation = "\n" + _section(text, "CONVERSATION SO FAR:\n", "\n\n")
    return conversation.count("\nUSER: ")


def rejects_first_draft(turn: int) -> bool:
    return turn % REJECT_EVERY == REJECT_PHASE


def expected_acts(text: str) -> list[tuple[str, str, str, str]]:
    """The acts a correct draft for the prompt's current turn holds."""
    turns = plan(_section(text, "GOAL:\n", "\n\n"))
    turn = _user_turns_so_far(text)
    if turn >= len(turns):
        raise UnknownPrompt(f"turn {turn} is past the {len(turns)}-turn plan")
    return turns[turn]


def kind(user_text: str) -> str:
    """Which role a prompt belongs to: step, verifier or nlg."""
    if user_text.startswith("You are simulating"):
        return STEP
    if user_text.startswith("You are auditing"):
        return VERIFIER
    if user_text.startswith(("[EXAMPLE]", "[CONVERSATION]")):
        return NLG
    raise UnknownPrompt(f"unrecognised prompt {user_text[:60]!r}")


def _step_reply(text: str) -> str:
    acts = expected_acts(text)
    turn = _user_turns_so_far(text)
    if rejects_first_draft(turn) and "\nFEEDBACK" not in text:
        acts = [BYE]
    for marker, column in _STEP_COLUMNS:
        if marker in text:
            return ", ".join(a[column] for a in acts)
    raise UnknownPrompt("step prompt without a step instruction")


def _verdict_reply(text: str) -> str:
    draft = _literal(_section(text, "DRAFT ACTS:\n"))
    if draft == [list(a) for a in expected_acts(text)]:
        return "ACCEPT"
    return "REJECT V4: the goal is not fully handled yet."


TRANSLATION = "I would like to go ahead with that."
ENHANCED = "Great, I would like to go ahead with that, please."


def _nlg_reply(text: str) -> str:
    return TRANSLATION if text.startswith("[EXAMPLE]") else ENHANCED


def reply(user_text: str) -> str:
    """The completion text for one prompt."""
    role = kind(user_text)
    if role == STEP:
        return _step_reply(user_text)
    if role == VERIFIER:
        return _verdict_reply(user_text)
    return _nlg_reply(user_text)
