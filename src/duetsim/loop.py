"""Generator-verifier iteration and full-dialogue orchestration.

A user turn loops draft -> verdict until the verifier accepts or the
iteration cap is hit; rejection feedback from iteration i-1 is threaded
into every step prompt of iteration i. NLG runs only on the final acts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .acts import DialogueContext, DialogueLog, derive_annotations
from .errors import TurnAborted
from .generator import DraftActs, Utterance, generate_acts_cot, realize_utterance
from .prompts import (
    DEFAULT_GENERATOR_REQUIREMENTS,
    DEFAULT_VERIFIER_REQUIREMENTS,
    Feedback,
    PromptConfig,
    RequirementSet,
)
from .verifier import Verdict, verify
from .world import Ontology, UserGoal

USE_LAST_DRAFT = "use_last_draft"
ABORT_TURN = "abort_turn"

DEFAULT_TURN_CAP = 20


@dataclass(frozen=True)
class LoopConfig:
    max_iterations: int = 3
    verifier_enabled: bool = True
    on_exhaustion: str = USE_LAST_DRAFT

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.on_exhaustion not in (USE_LAST_DRAFT, ABORT_TURN):
            raise ValueError(f"unknown on_exhaustion {self.on_exhaustion!r}")


@dataclass
class TurnTrace:
    attempts: list[tuple[DraftActs, Verdict | None]] = field(default_factory=list)
    final_acts: list = field(default_factory=list)
    iterations: int = 0


@dataclass
class DuetSession:
    """One simulated user: goal, backends, config and per-turn traces. The
    dialogue history is not kept here; run_dialogue passes it to each turn."""

    goal: UserGoal
    ontology: Ontology
    generator_backend: object
    verifier_backend: object
    loop_config: LoopConfig = LoopConfig()
    prompt_config: PromptConfig = PromptConfig()
    generator_requirements: RequirementSet = DEFAULT_GENERATOR_REQUIREMENTS
    verifier_requirements: RequirementSet = DEFAULT_VERIFIER_REQUIREMENTS
    traces: list[TurnTrace] = field(default_factory=list)

    def __post_init__(self):
        if not self.loop_config.verifier_enabled:
            # without a verifier, the single model sees both requirement sets
            self.generator_requirements = self.generator_requirements.merged(
                self.verifier_requirements)


def next_user_turn(session: DuetSession,
                   context: DialogueContext) -> tuple[TurnTrace, Utterance]:
    """Run the draft/verify loop for one user turn after the history in
    ``context``. The context is only read; its owner appends the turn."""
    cfg = session.loop_config
    trace = TurnTrace()
    feedback: Feedback | None = None
    final: DraftActs | None = None
    for i in range(cfg.max_iterations):
        draft = generate_acts_cot(
            session.generator_backend, session.goal, context,
            session.generator_requirements, session.ontology,
            feedback=feedback, config=session.prompt_config, attempt_index=i)
        if not cfg.verifier_enabled:
            trace.attempts.append((draft, None))
            final = draft
            break
        verdict = verify(session.verifier_backend, session.goal, context,
                         session.verifier_requirements, draft,
                         config=session.prompt_config)
        trace.attempts.append((draft, verdict))
        if verdict.accepted:
            final = draft
            break
        feedback = verdict.feedback
    trace.iterations = len(trace.attempts)

    if final is None:
        if cfg.on_exhaustion == ABORT_TURN:
            raise TurnAborted(f"all {cfg.max_iterations} drafts rejected")
        final = trace.attempts[-1][0]
    trace.final_acts = list(final.acts)

    utterance = realize_utterance(session.generator_backend, final.acts, context)
    session.traces.append(trace)
    return trace, utterance


class DuetUserSimulator:
    """User simulator backed by the generator-verifier loop."""

    def __init__(self, session: DuetSession):
        self.session = session

    def next_turn(self, context: DialogueContext):
        trace, utterance = next_user_turn(self.session, context)
        return list(trace.final_acts), utterance.best()


def run_dialogue(goal: UserGoal, user, system,
                 max_user_turns: int = DEFAULT_TURN_CAP,
                 seed: int | None = None) -> DialogueLog:
    """Alternate user and system turns, starting with the user.

    The simulators are ``user.next_turn(context) -> (acts, utterance)`` and
    ``system.respond(user_acts) -> (acts, utterance)``. This function owns
    the dialogue's one history: it appends both speakers' turns to a
    ``DialogueContext``, hands that context to the user on every turn and
    builds the log from it.

    Terminates on a user bye act, on the turn cap, or on an unrecoverable
    error (which becomes termination_reason "error" rather than raising).
    """
    context = DialogueContext()
    reason = "turn_cap"
    for _ in range(max_user_turns):
        try:
            user_acts, user_utterance = user.next_turn(context)
        except Exception:
            reason = "error"
            break
        context.append("user", user_acts, user_utterance)
        if any(a.intent == "bye" for a in user_acts):
            reason = "user_bye"
            break
        try:
            system_acts, system_utterance = system.respond(user_acts)
        except Exception:
            reason = "error"
            break
        context.append("system", system_acts, system_utterance)
    return DialogueLog(goal=goal, turns=context.turns,
                       annotations=derive_annotations(context.turns),
                       termination_reason=reason, seed=seed)
