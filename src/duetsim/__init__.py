"""duetsim: a generator/verifier user-simulation framework for
task-oriented dialogue, with an agenda-based baseline, a rule-based system
stub, and a full evaluation engine."""

__version__ = "0.1.0"

from .acts import (
    DialogueAct,
    DialogueContext,
    DialogueLog,
    DialogueTurn,
    parse_act_list,
    render_act_list,
    validate_acts,
)
from .agenda import AgendaUserSimulator, agenda_step, init_agenda, template_nlg
from .backend import (
    BackendConfig,
    CassetteBackend,
    CompletionRequest,
    CompletionResult,
    HTTPBackend,
    ScriptedBackend,
    load_cassette,
)
from .generator import DraftActs, Utterance, generate_acts_cot, realize_utterance
from .loop import DuetSession, DuetUserSimulator, LoopConfig, TurnTrace, next_user_turn, run_dialogue
from .metrics import diversity, fulfillment
from .prompts import (
    DEFAULT_GENERATOR_REQUIREMENTS,
    DEFAULT_VERIFIER_REQUIREMENTS,
    Feedback,
    PromptConfig,
    RequirementSet,
)
from .system import SystemAgent, system_turn
from .verifier import Verdict, verify
from .world import (
    BookingLedger,
    Entity,
    Ontology,
    UserGoal,
    describe_goal,
    generate_goal,
    load_world,
    query_entities,
)

__all__ = [
    "AgendaUserSimulator", "BackendConfig", "BookingLedger", "CassetteBackend",
    "CompletionRequest", "CompletionResult", "DEFAULT_GENERATOR_REQUIREMENTS",
    "DEFAULT_VERIFIER_REQUIREMENTS", "DialogueAct", "DialogueContext",
    "DialogueLog", "DialogueTurn", "DraftActs", "DuetSession",
    "DuetUserSimulator", "Entity", "Feedback", "HTTPBackend", "LoopConfig",
    "Ontology", "PromptConfig", "RequirementSet", "ScriptedBackend",
    "SystemAgent", "TurnTrace", "UserGoal", "Utterance", "Verdict",
    "agenda_step", "describe_goal", "diversity", "fulfillment",
    "generate_acts_cot", "generate_goal", "init_agenda", "load_cassette", "load_world",
    "next_user_turn", "parse_act_list", "query_entities", "realize_utterance",
    "render_act_list", "run_dialogue", "system_turn", "template_nlg",
    "validate_acts", "verify",
]
