"""Generator-verifier iteration and full-dialogue orchestration.

A user turn loops draft -> verdict until the verifier accepts or the
iteration cap is hit; rejection feedback from iteration i-1 is threaded
into every step prompt of iteration i. NLG runs only on the final acts.
"""

from __future__ import annotations

from .acts import (DEFAULT_TURN_CAP, DialogueContext, DialogueLog, Feedback, TurnTrace,
                   Utterance, derive_annotations)
from .errors import Record, TurnAborted
from .generator import generate_acts_cot, realize_utterance
from .prompts import (
    DEFAULT_GENERATOR_REQUIREMENTS,
    DEFAULT_VERIFIER_REQUIREMENTS,
    PromptConfig,
    RequirementSet,
)
from .verifier import verify
from .world import Ontology, UserGoal

USE_LAST_DRAFT = "use_last_draft"
ABORT_TURN = "abort_turn"


class LoopConfig(Record):
    """Treated as immutable once built."""

    __slots__ = _fields = ("max_iterations", "on_exhaustion")

    def __init__(self, max_iterations: int = 3, on_exhaustion: str = USE_LAST_DRAFT):
        if not isinstance(max_iterations, int) or isinstance(max_iterations, bool):
            raise TypeError("max_iterations must be an integer")
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if on_exhaustion not in (USE_LAST_DRAFT, ABORT_TURN):
            raise ValueError(f"unknown on_exhaustion {on_exhaustion!r}")
        self.max_iterations = max_iterations
        self.on_exhaustion = on_exhaustion

    def __hash__(self):
        return hash(self._values())


class DuetSession(Record):
    """One simulated user: goal, backends and config. The dialogue history
    is not kept here; run_dialogue passes it to each turn.

    A ``verifier_backend`` of None runs the loop without the verifier: each
    turn takes its first draft, and the generator sees both requirement sets.
    """

    __slots__ = _fields = ("goal", "ontology", "generator_backend", "verifier_backend",
                           "loop_config", "prompt_config", "generator_requirements",
                           "verifier_requirements")

    def __init__(self, goal: UserGoal, ontology: Ontology, generator_backend: object,
                 verifier_backend: object | None, loop_config: LoopConfig = LoopConfig(),
                 prompt_config: PromptConfig = PromptConfig(),
                 generator_requirements: RequirementSet = DEFAULT_GENERATOR_REQUIREMENTS,
                 verifier_requirements: RequirementSet = DEFAULT_VERIFIER_REQUIREMENTS):
        if verifier_backend is None:
            generator_requirements = generator_requirements.merged(verifier_requirements)
        self.goal = goal
        self.ontology = ontology
        self.generator_backend = generator_backend
        self.verifier_backend = verifier_backend
        self.loop_config = loop_config
        self.prompt_config = prompt_config
        self.generator_requirements = generator_requirements
        self.verifier_requirements = verifier_requirements


def next_user_turn(session: DuetSession,
                   context: DialogueContext) -> tuple[TurnTrace, Utterance]:
    """Run the draft/verify loop for one user turn after the history in
    ``context``. The context is only read; its owner appends the turn."""
    cfg = session.loop_config
    attempts = []
    feedback: Feedback | None = None
    for _ in range(cfg.max_iterations):
        draft = generate_acts_cot(
            session.generator_backend, session.goal, context,
            session.generator_requirements, session.ontology,
            feedback=feedback, config=session.prompt_config)
        if session.verifier_backend is None:
            attempts.append((draft, None))
            break
        verdict = verify(session.verifier_backend, session.goal, context,
                         session.verifier_requirements, draft,
                         config=session.prompt_config)
        attempts.append((draft, verdict))
        if verdict.accepted:
            break
        feedback = verdict.feedback
    else:  # every draft was rejected
        if cfg.on_exhaustion == ABORT_TURN:
            raise TurnAborted(f"all {cfg.max_iterations} drafts rejected")

    trace = TurnTrace(tuple(attempts))
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

    Both speakers answer ``next_turn(context) -> (acts, utterance)``. This
    function owns the dialogue's one history: it appends each turn to a
    ``DialogueContext``, hands that context to every ``next_turn`` call (so
    the system answers ``context.turns[-1]``) and builds the log from it.

    Terminates on a user bye act, on the turn cap, or on an exception from
    either speaker. An exception is not raised: the log ends with the
    turns before it, termination_reason "error" and ``error`` set to
    "Class: message". This is the one place a dialogue's error is caught.
    """
    context = DialogueContext()
    reason, error = "turn_cap", None
    try:
        for _ in range(max_user_turns):
            context.append("user", *user.next_turn(context))
            if any(a.intent == "bye" for a in context.turns[-1].acts):
                reason = "user_bye"
                break
            context.append("system", *system.next_turn(context))
    except Exception as e:
        reason, error = "error", f"{type(e).__name__}: {e}"
    return DialogueLog(goal=goal, turns=context.turns,
                       annotations=derive_annotations(context.turns),
                       termination_reason=reason, seed=seed, error=error)
