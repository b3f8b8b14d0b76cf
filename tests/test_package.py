"""The ``duetsim`` package loads its submodules on first use: each test runs
in a fresh interpreter, so what it loads is what the code under test loaded.
Its modules import one another in layers, with no cycle."""

import ast
import graphlib
import importlib
import json
import pkgutil
import sys
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


def test_setup_path_loads_no_dataclasses_or_ast():
    """The probe's records are NamedTuples and plain classes, and only
    ``parse_act_list`` needs ``ast``. From Python 3.12 on,
    ``importlib.resources`` loads ``inspect`` and with it ``ast``, so there
    only ``dataclasses`` is checked."""
    _, loaded = run_fresh(
        "import duetsim\n"
        "from duetsim.world import load_world\nload_world()\n"
        "from duetsim.prompts import lint_all_templates\nlint_all_templates()")
    assert "dataclasses" not in loaded
    if sys.version_info < (3, 12):
        assert "ast" not in loaded


def test_no_module_loads_dataclasses():
    _, loaded = run_fresh(
        "import importlib, pkgutil, duetsim\n"
        "for m in pkgutil.iter_modules(duetsim.__path__):\n"
        "    importlib.import_module(f'duetsim.{m.name}')")
    assert {"duetsim.cli", "duetsim.loop", "duetsim.verifier"} <= loaded
    assert "dataclasses" not in loaded


def test_every_record_compares_every_field():
    """A plain record's ``==`` and ``hash`` read its ``_fields``: each slot
    but the underscored caches and ``__weakref__``."""
    from duetsim.errors import Record

    for m in pkgutil.iter_modules(duetsim.__path__):
        importlib.import_module(f"duetsim.{m.name}")
    records = Record.__subclasses__()
    assert len(records) == 12
    for cls in records:
        if "__slots__" in vars(cls):
            public = tuple(s for s in cls.__slots__ if not s.startswith("_"))
            assert public == cls._fields, cls.__name__
        else:  # UserGoal keeps a __dict__ for its cached description
            assert cls._fields == ("domains",), cls.__name__


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


def test_turn_trace_records_live_in_acts():
    """The loop's turn trace is defined once, in ``acts`` below the modules
    that build it, which bind the same objects; a verdict stores its
    outcome once, as its feedback."""
    from duetsim import acts, generator, loop, prompts, verifier

    def defined(module):
        """The names a module's top level defines by a class or an assignment."""
        names = set()
        for node in ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        return names

    users = {"Feedback": prompts, "Verdict": verifier, "UNSPECIFIED_ID": verifier,
             "DraftActs": generator, "Utterance": generator, "TurnTrace": loop}
    in_acts = defined(acts)
    for name, user in users.items():
        assert name in in_acts and name not in defined(user), name
        assert getattr(user, name) is getattr(acts, name), name
        if name != "UNSPECIFIED_ID":
            assert issubclass(getattr(acts, name), tuple), name  # a NamedTuple
    assert acts.Verdict._fields == ("feedback", "raw_text")


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
