"""duetsim: a generator/verifier user-simulation framework for
task-oriented dialogue, with an agenda-based baseline, a rule-based system
stub, and a full evaluation engine.

Every public name, and every submodule, loads on first use (PEP 562): a
caller pays only for the modules it touches.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it is the home of
_EXPORTS = {
    "acts": ("DialogueAct", "DialogueContext", "DialogueLog", "DialogueTurn",
             "parse_act_list", "render_act_list", "template_nlg", "validate_acts"),
    "agenda": ("AgendaUserSimulator", "agenda_step", "init_agenda"),
    "backend": ("BackendConfig", "CassetteBackend", "CompletionRequest",
                "CompletionResult", "HTTPBackend", "ScriptedBackend", "load_cassette"),
    "generator": ("DraftActs", "Utterance", "generate_acts_cot", "realize_utterance"),
    "loop": ("DuetSession", "DuetUserSimulator", "LoopConfig", "TurnTrace",
             "next_user_turn", "run_dialogue"),
    "metrics": ("diversity", "fulfillment"),
    "prompts": ("DEFAULT_GENERATOR_REQUIREMENTS", "DEFAULT_VERIFIER_REQUIREMENTS",
                "Feedback", "PromptConfig", "RequirementSet"),
    "system": ("SystemAgent", "system_turn"),
    "verifier": ("Verdict", "verify"),
    "world": ("BookingLedger", "Entity", "Ontology", "UserGoal", "describe_goal",
              "generate_goal", "load_world", "query_entities"),
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "data", "errors", "experiment"}
_HOMES = {name: home for home, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name, name if name in _SUBMODULES else None)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    value = module if home == name else getattr(module, name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
