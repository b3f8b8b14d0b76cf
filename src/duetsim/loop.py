"""Generator-verifier iteration and full-dialogue orchestration.

A user turn loops draft -> verdict until the verifier accepts or the
iteration cap is hit; rejection feedback from iteration i-1 is threaded
into every step prompt of iteration i. NLG runs only on the final acts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .acts import (DEFAULT_TURN_CAP, DialogueAct, DialogueContext, DialogueLog,
                   derive_annotations)
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


@dataclass(frozen=True)
class LoopConfig:
    max_iterations: int = 3
    on_exhaustion: str = USE_LAST_DRAFT

    def __post_init__(self):
        if not isinstance(self.max_iterations, int) or isinstance(self.max_iterations, bool):
            raise TypeError("max_iterations must be an integer")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.on_exhaustion not in (USE_LAST_DRAFT, ABORT_TURN):
            raise ValueError(f"unknown on_exhaustion {self.on_exhaustion!r}")


@dataclass
class TurnTrace:
    """The drafts of one user turn, in order, each with its verdict (None
    without a verifier). The last draft is the one the turn uses."""

    attempts: list[tuple[DraftActs, Verdict | None]] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.attempts)

    @property
    def final_acts(self) -> list[DialogueAct]:
        return self.attempts[-1][0].acts


@dataclass
class DuetSession:
    """One simulated user: goal, backends and config. The dialogue history
    is not kept here; run_dialogue passes it to each turn.

    A ``verifier_backend`` of None runs the loop without the verifier: each
    turn takes its first draft, and the generator sees both requirement sets.
    """

    goal: UserGoal
    ontology: Ontology
    generator_backend: object
    verifier_backend: object | None
    loop_config: LoopConfig = LoopConfig()
    prompt_config: PromptConfig = PromptConfig()
    generator_requirements: RequirementSet = DEFAULT_GENERATOR_REQUIREMENTS
    verifier_requirements: RequirementSet = DEFAULT_VERIFIER_REQUIREMENTS

    def __post_init__(self):
        if self.verifier_backend is None:
            self.generator_requirements = self.generator_requirements.merged(
                self.verifier_requirements)


def next_user_turn(session: DuetSession,
                   context: DialogueContext) -> tuple[TurnTrace, Utterance]:
    """Run the draft/verify loop for one user turn after the history in
    ``context``. The context is only read; its owner appends the turn."""
    cfg = session.loop_config
    trace = TurnTrace()
    feedback: Feedback | None = None
    for _ in range(cfg.max_iterations):
        draft = generate_acts_cot(
            session.generator_backend, session.goal, context,
            session.generator_requirements, session.ontology,
            feedback=feedback, config=session.prompt_config)
        if session.verifier_backend is None:
            trace.attempts.append((draft, None))
            break
        verdict = verify(session.verifier_backend, session.goal, context,
                         session.verifier_requirements, draft,
                         config=session.prompt_config)
        trace.attempts.append((draft, verdict))
        if verdict.accepted:
            break
        feedback = verdict.feedback
    else:  # every draft was rejected
        if cfg.on_exhaustion == ABORT_TURN:
            raise TurnAborted(f"all {cfg.max_iterations} drafts rejected")

    utterance = realize_utterance(session.generator_backend, trace.final_acts,
                                  context)
    return trace, utterance


class DuetUserSimulator:
    """User simulator backed by the generator-verifier loop."""

    def __init__(self, session: DuetSession):
        self.session = session

    def next_turn(self, context: DialogueContext):
        trace, utterance = next_user_turn(self.session, context)
        return trace.final_acts, utterance.enhanced


def run_dialogue(goal: UserGoal, user, system,
                 max_user_turns: int = DEFAULT_TURN_CAP,
                 seed: int | None = None) -> DialogueLog:
    """Alternate user and system turns, starting with the user.

    The simulators are ``user.next_turn(context) -> (acts, utterance)`` and
    ``system.respond(user_acts) -> (acts, utterance)``. This function owns
    the dialogue's one history: it appends both speakers' turns to a
    ``DialogueContext``, hands that context to the user on every turn and
    builds the log from it.

    Terminates on a user bye act, on the turn cap, or on an exception from
    either simulator. An exception is not raised: the log ends with the
    turns before it, termination_reason "error" and ``error`` set to
    "Class: message". This is the one place a dialogue's error is caught.
    """
    context = DialogueContext()
    reason, error = "turn_cap", None
    try:
        for _ in range(max_user_turns):
            user_acts, user_utterance = user.next_turn(context)
            context.append("user", user_acts, user_utterance)
            if any(a.intent == "bye" for a in user_acts):
                reason = "user_bye"
                break
            system_acts, system_utterance = system.respond(user_acts)
            context.append("system", system_acts, system_utterance)
    except Exception as e:
        reason, error = "error", f"{type(e).__name__}: {e}"
    return DialogueLog(goal=goal, turns=context.turns,
                       annotations=derive_annotations(context.turns),
                       termination_reason=reason, seed=seed, error=error)
