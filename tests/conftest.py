import contextlib
import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import duetsim

from duetsim.acts import DialogueAct, DialogueLog, DialogueTurn, derive_annotations
from duetsim.world import DomainGoal, UserGoal, load_world


@pytest.fixture(scope="session")
def world():
    return load_world()


@pytest.fixture(scope="session")
def ontology(world):
    return world[0]


@pytest.fixture(scope="session")
def entities(world):
    return world[1]


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """A module of the benchmark harness under perfbench/, loaded by path
    under a private name; the harness itself is only read."""
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def act(intent, domain="", slot="", value=""):
    return DialogueAct(intent, domain, slot, value)


def make_turns(*specs):
    """Build alternating turns from (speaker, [acts], utterance) tuples."""
    turns = []
    for i, (speaker, acts, utterance) in enumerate(specs):
        turns.append(DialogueTurn(speaker=speaker, acts=tuple(acts),
                                  utterance=utterance, turn_index=i))
    return turns


def make_log(goal, turns, reason="user_bye", seed=None):
    return DialogueLog(goal=goal, turns=turns,
                       annotations=derive_annotations(turns),
                       termination_reason=reason, seed=seed)


def simple_goal(info=None, reqt=(), book=None, domain="restaurant"):
    return UserGoal({domain: DomainGoal(info=dict(info or {}),
                                        reqt=tuple(reqt), book=book)})


class Invoked(NamedTuple):
    exit_code: int
    output: str


def invoke(*args) -> Invoked:
    """Run one ``duetsim`` command in this process: its exit code, and its
    stdout and stderr interleaved as they were written."""
    from duetsim.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            main([str(a) for a in args])
        except SystemExit as e:
            return Invoked(e.code, out.getvalue())
    return Invoked(0, out.getvalue())


def run_fresh(code):
    """(What ``code`` prints, the modules it loads) in a fresh interpreter.
    Modules are by dotted name; a loaded submodule's packages are listed
    too, and those the interpreter holds before ``code`` runs (site,
    ``.pth`` files) are left out. ``code`` must exit 0."""
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys\nbefore = set(sys.modules)\n{code}\n"
         "print(' '.join(sorted(set(sys.modules) - before)))"],
        capture_output=True, text=True, env=src_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    printed, _, loaded = done.stdout[:-1].rpartition("\n")
    return printed, set(loaded.split())


@pytest.fixture(scope="session")
def imported_modules():
    """Modules that importing the CLI loads in a fresh interpreter."""
    return run_fresh("import duetsim.cli")[1]


def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH,
    for subprocesses that import duetsim."""
    src = str(Path(duetsim.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
