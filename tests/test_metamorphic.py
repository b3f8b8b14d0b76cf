"""Metamorphic relations of the simulator and of `evaluate`: two related
inputs whose outputs must agree, checked where nothing gives the expected
output itself (Chen et al., ACM Computing Surveys 51(1), 2018, "Metamorphic
Testing: A Review of Challenges and Opportunities")."""

import json
import random
from importlib import resources

import pytest

from duetsim.cli import ExperimentConfig, run_experiment

from conftest import invoke


def agenda_logs(out, seed, dialogues, **config):
    return run_experiment(ExperimentConfig(
        simulator="agenda", dialogues=dialogues, seed=seed, parallelism=1,
        output_dir=str(out), **config)) / "logs.jsonl"


def evaluate_json(*paths, world=None) -> str:
    world_args = () if world is None else ("--world", world)
    result = invoke("evaluate", *paths, "--format", "json", *world_args)
    assert result.exit_code == 0, result.output
    return result.output


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Agenda logs of seeds 0-99, of seeds 100-199, and of seeds 0-99 again
    cut at three user turns: the last share every seed with the first, and
    their recall varies from dialogue to dialogue."""
    out = tmp_path_factory.mktemp("runs")
    return (agenda_logs(out / "a", 0, 100), agenda_logs(out / "b", 100, 100),
            agenda_logs(out / "cut", 0, 100, turn_cap=3))


@pytest.fixture(scope="module")
def shuffled_world(tmp_path_factory):
    """The bundled world with its entity list in another order."""
    doc = json.loads(resources.files("duetsim.data").joinpath("world.json").read_text())
    entities = list(doc["entities"])
    random.Random(0).shuffle(doc["entities"])
    assert doc["entities"] != entities
    path = tmp_path_factory.mktemp("world") / "shuffled.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_file_order_leaves_evaluate_unchanged(runs):
    a, b, cut = runs
    assert evaluate_json(a, b) == evaluate_json(b, a)
    assert evaluate_json(a, cut) == evaluate_json(cut, a)


@pytest.mark.parametrize("order", range(3))
def test_record_order_leaves_evaluate_unchanged(runs, tmp_path, order):
    lines = [line for path in runs for line in path.read_text().splitlines(keepends=True)]
    random.Random(order).shuffle(lines)
    shuffled = tmp_path / "shuffled.jsonl"
    shuffled.write_text("".join(lines))
    assert evaluate_json(shuffled) == evaluate_json(*runs)


def test_entity_order_leaves_agenda_logs_unchanged(tmp_path, shuffled_world):
    logs = agenda_logs(tmp_path / "bundled", 0, 300)
    assert agenda_logs(tmp_path / "shuffled", 0, 300, world=str(shuffled_world)) \
        .read_bytes() == logs.read_bytes()


def test_entity_order_leaves_the_report_unchanged(runs, shuffled_world):
    assert evaluate_json(*runs, world=shuffled_world) == evaluate_json(*runs)
