"""Chain-of-thought act generation and two-step utterance realization.

Dialogue acts are drafted through four sequential completions (intent,
domain, slot, value), each conditioned on the outputs of the prior steps.
Utterances are then realized in two passes: a literal translation of the
act list followed by a conversational rewrite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .acts import DialogueAct, DialogueContext, INTENTS, SOCIAL_INTENTS
from .backend import CompletionRequest
from .errors import EmptyTranslation, StepParseFailure
from .prompts import (
    Feedback,
    PromptConfig,
    RequirementSet,
    STEP_ORDER,
    act_to_utterance_prompt,
    enhance_utterance_prompt,
    generator_step_prompt,
)
from .world import Ontology, UserGoal

GENERATION_TEMPERATURE = 0.7
NLG_TEMPERATURE = 0.7

_EMPTY_MARKERS = {"", "none", "-", "n/a", "null", "empty"}


@dataclass
class DraftActs:
    acts: list[DialogueAct]
    step_transcript: dict[str, str] = field(default_factory=dict)


@dataclass
class Utterance:
    plain: str
    enhanced: str  # the rewrite, or the plain text when it came back blank


def split_candidates(text: str) -> list[str]:
    """Split a step output into candidate tokens.

    Multiple candidates (comma-separated, possibly bracketed or quoted)
    yield multiple quadruples per turn, one per position.
    """
    cleaned = text.strip()
    if cleaned.startswith("[") and cleaned.endswith("]"):
        cleaned = cleaned[1:-1]
    parts = [p.strip().strip("'\"").strip() for p in cleaned.replace("\n", ",").split(",")]
    return parts


def _valid_step(step: str, candidates: list[str], domains: list[str],
                ontology: Ontology) -> list[str] | None:
    """Normalize candidates for a step; None when the output is unusable."""
    if step in ("intent", "domain"):
        out = [c.lower() for c in candidates if c]
        known = INTENTS if step == "intent" else {*ontology.domains, "general"}
        return out if out and all(c in known for c in out) else None
    if step == "slot":
        out = ["" if c.lower() in _EMPTY_MARKERS else c.lower() for c in candidates]
        for domain, slot in _broadcast(domains, out):  # each pair _assemble builds
            if slot and domain != "general" and slot not in ontology.slots(domain):
                return None
        return out
    # value step accepts anything
    return ["" if c.lower() in _EMPTY_MARKERS else c for c in candidates]


def _broadcast(*columns: list[str]) -> list[tuple[str, ...]]:
    """The rows of the columns, each shorter column repeating its last entry."""
    return [tuple(col[min(i, len(col) - 1)] for col in columns)
            for i in range(max(map(len, columns)))]


def _assemble(columns: dict[str, list[str]]) -> list[DialogueAct]:
    acts = []
    for intent, domain, slot, value in _broadcast(*map(columns.get, STEP_ORDER)):
        # normalize per the act invariants instead of failing the draft
        if intent in SOCIAL_INTENTS:
            slot, value = "", ""
        elif intent == "request":
            value = ""
        # normal: split_candidates trimmed each part, _valid_step lowercased
        acts.append(DialogueAct(intent=intent, domain=domain, slot=slot, value=value))
    # drop exact duplicates produced by column broadcasting
    return list(dict.fromkeys(acts))


def generate_acts_cot(backend, goal: UserGoal, context: DialogueContext,
                      requirements: RequirementSet, ontology: Ontology,
                      feedback: Feedback | None = None,
                      config: PromptConfig = PromptConfig()) -> DraftActs:
    """Draft dialogue acts via the four-step chain of thought.

    Exactly one completion per step on the happy path (4 total); each step
    gets one retry on unparseable output before StepParseFailure. The slot
    step checks every (domain, slot) pair the draft will hold, so a returned
    draft passes ``validate_acts``. Feedback, when present, is threaded into
    every step prompt.
    """
    columns: dict[str, list[str]] = {}
    transcript: dict[str, str] = {}
    for step in STEP_ORDER:
        prompt = generator_step_prompt(goal, context, requirements, step,
                                       partial=dict(transcript),
                                       feedback=feedback, config=config)
        request = CompletionRequest(user_text=prompt.user_text,
                                    temperature=GENERATION_TEMPERATURE,
                                    max_tokens=64)
        parsed = None
        raw = ""
        for _ in range(2):  # one in-step retry
            raw = backend.complete(request).text
            parsed = _valid_step(step, split_candidates(raw),
                                 columns.get("domain", []), ontology)
            if parsed is not None:
                break
        if parsed is None:
            raise StepParseFailure(step, raw)
        columns[step] = parsed
        transcript[step] = raw.strip()

    return DraftActs(acts=_assemble(columns), step_transcript=transcript)


def realize_utterance(backend, acts, context: DialogueContext) -> Utterance:
    """Two-step NLG: literal translation, then conversational rewrite."""
    prompt = act_to_utterance_prompt(acts)
    plain = backend.complete(CompletionRequest(
        user_text=prompt.user_text, temperature=NLG_TEMPERATURE,
        max_tokens=128)).text.strip()
    if not plain:
        raise EmptyTranslation("act translation came back blank")
    prompt = enhance_utterance_prompt(context.render("utterances"), plain)
    enhanced = backend.complete(CompletionRequest(
        user_text=prompt.user_text, temperature=NLG_TEMPERATURE,
        max_tokens=128)).text.strip()
    return Utterance(plain=plain, enhanced=enhanced or plain)
