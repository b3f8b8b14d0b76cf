"""Response verification: audit draft acts against requirements.

The verifier issues a single completion and parses the reply against the
ACCEPT / "REJECT <id>: <reason>" grammar. Parsing is deliberately lenient:
models reliably embed the keyword but rarely emit only it.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .acts import UNSPECIFIED_ID, DialogueContext, Feedback, Verdict
from .backend import CompletionRequest
from .errors import UnparseableVerdict
from .prompts import PromptConfig, RequirementSet, verifier_prompt
from .world import UserGoal

VERIFICATION_TEMPERATURE = 0.0

_REJECT_RE = re.compile(
    r"\breject\b(?P<tail>[\s:]*(?:[A-Za-z][A-Za-z0-9_]*)?\s*:?\s*(?P<reason>.*))",
    re.IGNORECASE | re.DOTALL)
# Keywords are whole words: "projected" holds no reject, "acceptance" no
# accept. A negated accept rejects: "unacceptable", "not acceptable",
# "cannot accept", "do not think I can accept" (a negator, at most three
# words, then an accept word, on one line).
_REJECTING_RE = re.compile(
    r"\breject(?:s|ed|ing|ion)?\b"
    r"|\b(?:un|non-?)accept"
    r"|\b(?:not|never|cannot|\w+n['\u2019]t)(?:[^\S\n]+\w+){0,3}?[^\S\n]+"
    r"accept(?:s|ed|ing|able)?\b",
    re.IGNORECASE)
_ACCEPT_RE = re.compile(r"\baccept(?:s|ed|ing|able)?\b", re.IGNORECASE)


@lru_cache(maxsize=32)
def _id_pattern(known_ids: frozenset[str]) -> re.Pattern:
    """The first of ``known_ids`` as a whole word, then the reason after its
    optional colon."""
    ids = "|".join(map(re.escape, sorted(known_ids)))
    return re.compile(rf"\b({ids})\b\s*:?\s*(.*)", re.DOTALL)


def parse_verdict(text: str, known_ids: frozenset[str] | set[str]) -> Verdict | None:
    """Extract a verdict from the raw reply; None when neither keyword appears.

    Keywords count as whole words. A reply holding a reject word, or an
    accept word negated ("not acceptable", "unacceptable", "cannot
    accept"), resolves to reject, so ambiguity fails toward re-generation.
    A REJECT is charged to the first known requirement id that follows it
    as a whole word ("REJECT because V3: ..."), with the text after the
    id's colon as the reason. A REJECT naming no known id, and a negated
    accept, map to the synthetic "unspecified" id with the raw reason
    preserved.
    """
    if _REJECTING_RE.search(text):
        match = _REJECT_RE.search(text)
        named = None
        if match and known_ids:
            named = _id_pattern(frozenset(known_ids)).search(match["tail"])
        if named:
            feedback = Feedback(named[1], named[2].strip() or "draft rejected")
        else:
            reason = match["reason"].strip() if match else ""
            feedback = Feedback(UNSPECIFIED_ID, reason or text.strip())
        return Verdict(feedback, text)
    if _ACCEPT_RE.search(text):
        return Verdict(None, text)
    return None


def verify(backend, goal: UserGoal, context: DialogueContext,
           requirements: RequirementSet, draft,
           config: PromptConfig = PromptConfig()) -> Verdict:
    """One completion plus, on an unparseable reply, a single re-ask."""
    prompt = verifier_prompt(goal, context, requirements, draft.acts, config)
    request = CompletionRequest(user_text=prompt.user_text,
                                temperature=VERIFICATION_TEMPERATURE,
                                max_tokens=128)
    raw = ""
    for _ in range(2):
        raw = backend.complete(request).text
        verdict = parse_verdict(raw, requirements.ids())
        if verdict is not None:
            return verdict
    raise UnparseableVerdict(f"verifier reply unparseable: {raw[:100]!r}")
