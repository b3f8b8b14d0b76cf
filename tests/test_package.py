"""The ``duetsim`` package loads its submodules on first use: each test runs
in a fresh interpreter, so what it loads is what the code under test loaded."""

import json

from conftest import run_fresh

# every public name of the package, by the submodule that defines it
PUBLIC = {
    "acts": ("DialogueAct", "DialogueContext", "DialogueLog", "DialogueTurn",
             "parse_act_list", "render_act_list", "validate_acts"),
    "agenda": ("AgendaUserSimulator", "agenda_step", "init_agenda", "template_nlg"),
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
NAMES = sorted(name for names in PUBLIC.values() for name in names)


def submodules(loaded):
    return {name.split(".")[1] for name in loaded if name.startswith("duetsim.")}


def test_import_loads_no_submodule():
    _, loaded = run_fresh("import duetsim")
    assert "duetsim" in loaded and not submodules(loaded)


def test_setup_path_loads_only_what_it_uses():
    """The benchmark's start-up probe: import, load the world, lint the
    templates."""
    _, loaded = run_fresh(
        "import duetsim\n"
        "from duetsim.world import load_world\nload_world()\n"
        "from duetsim.prompts import lint_all_templates\nlint_all_templates()")
    assert submodules(loaded) == {"acts", "errors", "world", "prompts", "data"}


def test_one_name_loads_its_home():
    _, loaded = run_fresh("from duetsim import fulfillment")
    assert "duetsim.metrics" in loaded
    assert not {"duetsim.loop", "duetsim.backend", "duetsim.cli"} & loaded


def test_every_public_name_is_its_home_modules_object():
    homes = {name: home for home, names in PUBLIC.items() for name in names}
    out, _ = run_fresh(
        "import importlib, json, sys, duetsim\n"
        f"homes = {homes!r}\n"
        "print(json.dumps(sorted(name for name, home in homes.items()\n"
        "    if getattr(duetsim, name) is not\n"
        "    getattr(importlib.import_module(f'duetsim.{home}'), name))))")
    assert json.loads(out) == []


def test_star_import_binds_every_public_name():
    out, _ = run_fresh("import json\nns = {}\nexec('from duetsim import *', ns)\n"
                "print(json.dumps(sorted(k for k in ns if not k.startswith('__'))))")
    assert json.loads(out) == NAMES


def test_every_submodule_is_an_attribute():
    out, _ = run_fresh(
        "import importlib, json, pkgutil, duetsim\n"
        "names = [m.name for m in pkgutil.iter_modules(duetsim.__path__)]\n"
        "print(json.dumps([name for name in names if getattr(duetsim, name)\n"
        "    is not importlib.import_module(f'duetsim.{name}')]))")
    assert json.loads(out) == []


def test_dir_and_unknown_names():
    """``dir`` lists every name that resolves, loaded or not; an unknown
    name, or one a submodule defines but the package does not export, is
    an AttributeError."""
    out, _ = run_fresh(
        "import json, duetsim\n"
        "listed = dir(duetsim)\n"
        "print(json.dumps([listed, [n for n in listed if not hasattr(duetsim, n)],\n"
        "    hasattr(duetsim, 'no_such_name'), hasattr(duetsim, 'read_logs')]))")
    listed, unresolved, unknown, unexported = json.loads(out)
    assert listed == sorted(listed) and unresolved == []
    assert set(NAMES) | set(PUBLIC) | {"cli", "data", "errors", "experiment",
                                        "__version__", "__all__"} <= set(listed)
    assert unknown is False and unexported is False
