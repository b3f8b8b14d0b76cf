"""The ``duetsim`` package loads its submodules on first use: each test runs
in a fresh interpreter, so what it loads is what the code under test loaded.
Its modules import one another in layers, with no cycle."""

import ast
import graphlib
import json
from pathlib import Path

import duetsim
from conftest import run_fresh

# every public name of the package, by the submodule that defines it
PUBLIC = {
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


def package_imports():
    """{module: {(imported module, at module level)}} for every module of
    the package, from each relative import anywhere in its source, also
    inside a function or an ``if``. ``from . import x`` names submodule
    ``x`` if there is one, else the package's ``__init__``."""
    package = Path(duetsim.__file__).parent
    names = {path.stem for path in package.glob("*.py")}
    graph = {}
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = set(tree.body)
        edges = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or not node.level:
                continue
            if node.module:
                targets = [node.module.split(".")[0]]
            else:
                targets = [a.name if a.name in names else "__init__" for a in node.names]
            edges.update((t, node in top) for t in targets if t in names)
        graph[path.stem] = edges
    return graph


def test_modules_import_in_layers():
    """No import cycle; the world and the backends sit on ``errors`` alone,
    the rule-based system needs no user simulator or loop, and ``acts``
    imports everything it uses up front."""
    graph = package_imports()
    targets = {name: {t for t, _ in edges} for name, edges in graph.items()}
    try:
        list(graphlib.TopologicalSorter(targets).static_order())
    except graphlib.CycleError as e:
        raise AssertionError(f"import cycle: {e.args[1]}") from None
    assert targets["world"] == targets["backend"] == {"errors"}
    assert not {"agenda", "loop"} & targets["system"]
    assert all(top for _, top in graph["acts"])


def test_template_nlg_is_one_function_under_each_name():
    """The benchmark harness patches ``template_nlg`` where ``agenda`` and
    ``system`` bind it; both bind the function ``acts`` defines."""
    from duetsim import acts, agenda, system

    assert agenda.template_nlg is system.template_nlg is acts.template_nlg
