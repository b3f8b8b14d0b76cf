"""Prompt construction for the generator, the verifier and the NLG steps.

Templates live as editable text files with named placeholders; rendering is
a pure function of its inputs, and rejection feedback, when present, is
always the last section of the prompt.
"""

from __future__ import annotations

import string
from functools import lru_cache
from importlib import resources
from typing import NamedTuple

from .acts import DialogueContext, Feedback, render_act_list
from .errors import EmptyActList, EmptyUtterance, MissingPriorStep, Record, TemplateError
from .world import UserGoal

STEP_ORDER = ("intent", "domain", "slot", "value")

NO_PRIOR_TURNS = "(no prior turns)"


class Requirement(NamedTuple):
    id: str
    text: str


class RequirementSet(Record):
    """Numbered requirements of one kind. Treated as immutable once built:
    the rendered list and the id set are built once, here."""

    _fields = ("kind", "items")
    __slots__ = (*_fields, "_text", "_ids")

    def __init__(self, kind: str, items: tuple[Requirement, ...]):
        ids = [r.id for r in items]
        if not ids:
            raise ValueError("requirement set must be non-empty")
        if len(set(ids)) != len(ids):
            raise ValueError("requirement ids must be unique")
        self.kind = kind  # "generator" | "verifier"
        self.items = items
        self._text = "\n".join(f"{r.id}. {r.text}" for r in items)
        self._ids = frozenset(ids)

    def __hash__(self):
        return hash(self._values())

    def merged(self, other: "RequirementSet") -> "RequirementSet":
        return RequirementSet(self.kind, self.items + other.items)

    def render(self) -> str:
        return self._text

    def ids(self) -> frozenset[str]:
        return self._ids


DEFAULT_GENERATOR_REQUIREMENTS = RequirementSet("generator", (
    Requirement("G1", "Stay consistent with your goal; only mention constraints "
                      "and requests that appear in it."),
    Requirement("G2", "Produce one coherent set of dialogue acts for this turn."),
    Requirement("G3", "Do not request information the assistant has already provided."),
    Requirement("G4", "Inform your constraints before requesting information."),
    Requirement("G5", "End the conversation with a bye act once every part of "
                      "the goal is complete."),
    Requirement("G6", "Output only the requested token(s), nothing else."),
))

DEFAULT_VERIFIER_REQUIREMENTS = RequirementSet("verifier", (
    Requirement("V1", "Every act must be a well-formed [intent, domain, slot, "
                      "value] quadruple."),
    Requirement("V2", "Every domain and slot must exist in the domain schema."),
    Requirement("V3", "The acts must not contradict anything already said in "
                      "the conversation."),
    Requirement("V4", "Do not end the conversation (bye) before the goal is "
                      "fully handled."),
    Requirement("V5", "The acts must not contain meaningless or garbled words."),
))


class PromptText(NamedTuple):
    user_text: str

    @property
    def length(self) -> int:
        return len(self.user_text)


class PromptConfig(NamedTuple):
    """Ablation switches and context rendering mode."""

    omit_goal: bool = False
    omit_history: bool = False
    render_mode: str = "utterances"  # "utterances" | "acts"


@lru_cache(maxsize=None)
def load_template(name: str) -> str:
    return resources.files("duetsim.data.templates").joinpath(f"{name}.txt").read_text()


# A template split into (literal, field) pairs: the text is the literals
# with each field's value after its literal, and the last field may be None.
Frame = tuple[tuple[str, str | None], ...]


@lru_cache(maxsize=None)
def template_frame(name: str) -> Frame:
    """Template ``name`` split once into its literal and field segments.

    Filling the segments gives the text ``str.format`` gives, so a field must
    be a plain name: a positional field, a conversion or a format spec is a
    TemplateError.
    """
    frame = []
    for literal, field, spec, conversion in string.Formatter().parse(load_template(name)):
        if field == "" or spec or conversion:
            raise TemplateError(f"template {name!r} has a field that is not a plain "
                                f"name: {field!r}")
        frame.append((literal, field))
    return tuple(frame)


def _fill(frame: Frame, values: dict[str, str]) -> str:
    """The text of ``frame`` with every field taken from ``values``. Values
    are copied, never parsed, so they may hold braces."""
    parts = []
    for literal, field in frame:
        parts.append(literal)
        if field is not None:
            parts.append(values[field])
    return "".join(parts)


def lint_template(name: str, required: set[str]) -> None:
    """Verify a template exposes exactly the expected placeholders."""
    found = {field for _, field in template_frame(name) if field}
    missing = required - found
    extra = found - required
    if missing:
        raise TemplateError(f"template {name!r} missing placeholders {sorted(missing)}")
    if extra:
        raise TemplateError(f"template {name!r} has unknown placeholders {sorted(extra)}")


TEMPLATE_PLACEHOLDERS = {
    "generator_step": {"goal_section", "context_section", "requirements",
                       "partial_section", "step_instruction", "feedback_section"},
    "verifier": {"goal_section", "context", "requirements", "draft_acts"},
    "act_to_utterance": {"acts"},
    "enhance_utterance": {"conversation", "utterance"},
}


def lint_all_templates() -> None:
    for name, required in TEMPLATE_PLACEHOLDERS.items():
        lint_template(name, required)


def templates_digest() -> str:
    """Digest over all template bodies, for run manifests."""
    import hashlib

    h = hashlib.sha256()
    for name in sorted(TEMPLATE_PLACEHOLDERS):
        h.update(name.encode())
        h.update(load_template(name).encode("utf-8"))
    return h.hexdigest()


_STEP_INSTRUCTIONS = {
    "intent": ("Decide the intent of your next message. Reply with only the "
               "intent token(s), comma-separated if there are several, chosen "
               "from: inform, request, book, bye, thank, greet."),
    "domain": ("Decide which domain each intent refers to. Reply with only the "
               "domain token(s), comma-separated, matching the intents in order."),
    "slot": ("Decide which slot each act refers to. Reply with only the slot "
             "name(s), comma-separated, matching the acts in order; use an "
             "empty entry when an act has no slot."),
    "value": ("Decide the value for each act. Reply with only the value(s), "
              "comma-separated, matching the acts in order; leave an entry "
              "empty for request acts and acts without a value."),
}


def _goal_section(goal: UserGoal, config: PromptConfig) -> str:
    if config.omit_goal:
        return ""
    return f"GOAL:\n{goal.description}\n\n"


def _context_body(context: DialogueContext, config: PromptConfig) -> str:
    rendered = context.render(config.render_mode)
    return rendered if rendered else NO_PRIOR_TURNS


def _context_section(context: DialogueContext, config: PromptConfig) -> str:
    if config.omit_history:
        return ""
    return f"CONVERSATION SO FAR:\n{_context_body(context, config)}\n\n"


def _feedback_section(feedback: Feedback) -> str:
    return ("\nFEEDBACK on your previous draft (requirement "
            f"{feedback.requirement_id} was violated): {feedback.text}")


_PRIOR_STEPS = {step: STEP_ORDER[:i] for i, step in enumerate(STEP_ORDER)}


def generator_step_prompt(goal: UserGoal, context: DialogueContext,
                          requirements: RequirementSet, step: str,
                          partial: dict[str, str],
                          feedback: Feedback | None = None,
                          config: PromptConfig = PromptConfig()) -> PromptText:
    """Prompt for one chain-of-thought step (intent, domain, slot or value).

    ``partial`` must hold exactly the outputs of all prior steps; feedback,
    when given, is appended at the very end of the prompt.
    """
    if step not in _PRIOR_STEPS:
        raise ValueError(f"unknown step {step!r}")
    for prior in _PRIOR_STEPS[step]:
        if prior not in partial:
            raise MissingPriorStep(step, prior)
    if partial:
        lines = "\n".join([f"{s}: {partial[s]}" for s in STEP_ORDER if s in partial])
        partial_section = f"CHOSEN SO FAR:\n{lines}\n\n"
    else:
        partial_section = ""
    return PromptText(user_text=_fill(template_frame("generator_step"), {
        "goal_section": _goal_section(goal, config),
        "context_section": _context_section(context, config),
        "requirements": requirements.render(),
        "partial_section": partial_section,
        "step_instruction": _STEP_INSTRUCTIONS[step],
        "feedback_section": "" if feedback is None else _feedback_section(feedback)}))


def verifier_prompt(goal: UserGoal, context: DialogueContext,
                    requirements: RequirementSet, draft_acts,
                    config: PromptConfig = PromptConfig()) -> PromptText:
    """Prompt asking the verifier to audit draft acts against requirements."""
    return PromptText(user_text=_fill(template_frame("verifier"), {
        "goal_section": _goal_section(goal, config),
        "context": _context_body(context, config),
        "requirements": requirements.render(),
        "draft_acts": render_act_list(list(draft_acts))}))


def act_to_utterance_prompt(acts) -> PromptText:
    """First NLG step: translate an act list into a plain sentence."""
    if not acts:
        raise EmptyActList("no acts to translate")
    return PromptText(user_text=_fill(template_frame("act_to_utterance"), {
        "acts": render_act_list(list(acts))}))


def enhance_utterance_prompt(conversation: str, utterance: str) -> PromptText:
    """Second NLG step: rewrite the plain sentence in conversational form."""
    if not utterance:
        raise EmptyUtterance("utterance must be non-empty")
    return PromptText(user_text=_fill(template_frame("enhance_utterance"), {
        "conversation": conversation, "utterance": utterance}))
