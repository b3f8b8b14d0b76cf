"""The log reader on real runs: it reproduces each file it reads, and a
record with any one value of the wrong kind is returned or is a
LogParseError, never another exception."""

import hashlib
import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from duetsim.cli import LOG_SCHEMA_VERSION, ExperimentConfig, read_logs, run_experiment
from duetsim.errors import LogParseError

from conftest import src_env
from test_cli import (AGENDA_SEEDS_0_199_SHA256, CLOSED_PORT, DUET_SEEDS_0_9_SHA256,
                      RecordingResponder)


@pytest.fixture(scope="module")
def pinned_runs(tmp_path_factory):
    """logs.jsonl of the pinned agenda run and of the pinned duet run, whose
    replies come from the benchmark's fake model in this process."""
    import duetsim.experiment

    out = tmp_path_factory.mktemp("pinned")
    agenda = run_experiment(ExperimentConfig(
        simulator="agenda", dialogues=200, seed=0, turn_cap=20, parallelism=1,
        output_dir=str(out / "agenda"))) / "logs.jsonl"
    with pytest.MonkeyPatch.context() as patch:
        backend = RecordingResponder()
        patch.setattr(duetsim.experiment, "_build_backend", lambda spec, role: backend)
        duet = run_experiment(ExperimentConfig(
            simulator="duet", dialogues=10, seed=0, turn_cap=20, parallelism=1,
            generator_backend=CLOSED_PORT, output_dir=str(out / "duet"))) / "logs.jsonl"
    assert hashlib.sha256(agenda.read_bytes()).hexdigest() == AGENDA_SEEDS_0_199_SHA256
    assert hashlib.sha256(duet.read_bytes()).hexdigest() == \
        DUET_SEEDS_0_9_SHA256["utterances", "duet"][0]
    return agenda, duet


def encode(log) -> str:
    """A log as ``run_experiment`` writes it."""
    return json.dumps({"v": LOG_SCHEMA_VERSION, "log": log.to_dict()}, sort_keys=True) + "\n"


def test_records_read_back_byte_for_byte(pinned_runs, ontology):
    lines = [path.read_text().splitlines(keepends=True) for path in pinned_runs]
    logs = read_logs(pinned_runs, ontology)
    assert [encode(log) for log in logs] == lines[0] + lines[1]


def test_equal_acts_are_one_object_across_files(pinned_runs):
    logs = read_logs(pinned_runs)
    agenda, duet = ([a for log in part for turn in log.turns for a in turn.acts]
                    for part in (logs[:200], logs[200:]))
    assert set(agenda) & set(duet)  # some act is in both files
    assert len({id(a) for a in agenda + duet}) == len(set(agenda + duet))


def goal_values(log):
    """The names, values and requested slots of a log's goal, and each
    section's tuple of requested slots."""
    for name, section in log.goal.domains.items():
        yield name
        yield section.reqt
        yield from section.reqt
        for fields in (section.info, section.book or {}):
            yield from fields
            yield from fields.values()


def annotation_values(log):
    """A log's provided triples and their fields, and the fields of its
    bookings but the ref, which is one booking's."""
    for triple in log.annotations.provided:
        yield triple
        yield from triple
    for booking in log.annotations.bookings:
        yield booking.domain
        yield booking.entity_name
        for pair in booking.constraints:
            yield from pair


RECORD_VALUES = {
    "utterance": lambda log: (turn.utterance for turn in log.turns),
    "acts": lambda log: (turn.acts for turn in log.turns),
    "goal": goal_values,
    "annotations": annotation_values,
}


@pytest.mark.parametrize("field", list(RECORD_VALUES))
def test_equal_turn_values_are_one_object_across_files(pinned_runs, field):
    """Equal utterances, act tuples, goal strings and annotation strings
    and triples of the records one ``read_logs`` call reads are one object."""
    logs = read_logs(pinned_runs)
    agenda, duet = ([value for log in part for value in RECORD_VALUES[field](log)]
                    for part in (logs[:200], logs[200:]))
    assert set(agenda) & set(duet)  # some value is in both files
    assert len({id(v) for v in agenda + duet}) == len(set(agenda + duet))


def test_logged_acts_are_normal(pinned_runs):
    """The agenda, the system and template NLG take the package's own acts
    as they are, so every act both simulators log must already be normal."""
    logs = read_logs(pinned_runs)
    acts = {a for log in logs for turn in log.turns for a in turn.acts}
    assert [a for a in acts if a.normalized() is not a] == []


# Run in a fresh interpreter: a library user runs an experiment and reads
# logs without the CLI.
LIBRARY_PATH = """
import sys
from duetsim.acts import read_logs
from duetsim.experiment import load_config, run_experiment

pinned, config_path = sys.argv[1:]
assert [log.seed for log in read_logs([pinned])] == list(range(200))
assert load_config(None, {}).simulator == "agenda"
assert "yaml" not in sys.modules
out = run_experiment(load_config(config_path, {}))
assert "yaml" in sys.modules
assert [log.seed for log in read_logs([out / "logs.jsonl"])] == [5, 6]
"""


def test_library_path_loads_yaml_only_for_a_config(pinned_runs, tmp_path):
    """``duetsim.experiment`` and ``duetsim.acts`` run and read without
    PyYAML until a config file is read."""
    config = tmp_path / "exp.yaml"
    config.write_text(f"dialogues: 2\nseed: 5\noutput_dir: {tmp_path / 'run'}\n")
    out = subprocess.run([sys.executable, "-c", LIBRARY_PATH, str(pinned_runs[0]),
                          str(config)], capture_output=True, text=True, env=src_env(),
                         timeout=60)
    assert out.returncode == 0, out.stderr


def kind(value) -> str:
    """The JSON type of a decoded value."""
    if value is None or isinstance(value, (bool, str, list, dict)):
        return type(value).__name__
    return "number"


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10)
VALUES_BY_KIND = {
    "NoneType": st.none(),
    "bool": st.booleans(),
    "number": st.integers() | st.floats(allow_nan=False),
    "str": st.sampled_from(["", "user", "system", "restaurant", "error"])
    | st.text(max_size=8),
    "list": st.lists(json_values, max_size=4),
    "dict": st.dictionaries(st.text(max_size=8), json_values, max_size=4),
}


def paths(value, path=()):
    """The path of ``value`` and of every value nested in it."""
    yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield from paths(inner, (*path, key))


def replaced(record, path, new):
    """A copy of ``record`` whose value at ``path`` is ``new``."""
    if not path:
        return new
    record = json.loads(json.dumps(record))
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return record


@pytest.fixture(scope="module")
def real_records(pinned_runs):
    """An agenda record holding a booking and a duet record, each with its
    value paths grouped by field: list positions are one field, so a field
    nested in every turn is drawn as often as the record's seed."""
    agenda, duet = ([json.loads(line) for line in path.read_text().splitlines()]
                    for path in pinned_runs)
    booked = next(r for r in agenda if r["log"]["annotations"]["bookings"])
    out = []
    for record in (booked, duet[0]):
        fields = {}
        for path in paths(record):
            field = tuple("*" if isinstance(key, int) else key for key in path)
            fields.setdefault(field, []).append(path)
        out.append((record, [fields[f] for f in sorted(fields)]))
    return out


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_value_of_another_kind_is_read_or_a_log_parse_error(
        real_records, ontology, tmp_path, data):
    record, fields = data.draw(st.sampled_from(real_records))
    path = data.draw(st.sampled_from(data.draw(st.sampled_from(fields))))
    old = record
    for key in path:
        old = old[key]
    other = data.draw(st.sampled_from(sorted(VALUES_BY_KIND.keys() - {kind(old)})))
    new = data.draw(VALUES_BY_KIND[other])
    log = tmp_path / "log.jsonl"
    log.write_text(json.dumps(replaced(record, path, new)) + "\n")
    for world in (None, ontology):
        try:
            read_logs([log], world)
        except LogParseError as e:
            assert e.line_number == 1
