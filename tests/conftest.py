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
    """Top-level modules that importing the CLI loads in a fresh interpreter."""
    src = str(Path(duetsim.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, duetsim.cli; "
         "print(' '.join(sorted({m.split('.')[0] for m in sys.modules})))"],
        capture_output=True, text=True, env=env, check=True)
    return set(out.stdout.split())
