import importlib.util
import os
import subprocess
import sys
from pathlib import Path

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


def load_perfbench(name):
    """A module of the benchmark harness under perfbench/, loaded by path
    under a private name; the harness itself is only read."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
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


@pytest.fixture(scope="session")
def imported_modules():
    """Modules, by dotted name, that importing the CLI loads in a fresh
    interpreter; a loaded submodule's packages are listed too."""
    src = str(Path(duetsim.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, duetsim.cli; "
         "print(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, env=env, check=True)
    return set(out.stdout.split())
