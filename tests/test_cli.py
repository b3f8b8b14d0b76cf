import gc
import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import weakref

import pytest
import yaml

from duetsim.acts import DialogueLog
from duetsim.backend import CompletionResult
from duetsim.cli import (
    ExperimentConfig,
    load_config,
    read_logs,
    run_experiment,
)
from duetsim.errors import ConfigError, EmptyWorld, LogParseError, WorkerFailed
from duetsim.experiment import _DialogueRunner

from conftest import PERFBENCH, invoke, load_perfbench, run_fresh, src_env


@pytest.fixture
def no_goal_for_seed_3(monkeypatch):
    """``generate_goal`` raises EmptyWorld for seed 3, as for a world
    without hotels."""
    import duetsim.world
    from duetsim.errors import EmptyWorld

    generate_goal = duetsim.world.generate_goal

    def failing_generate_goal(seed, *args):
        if seed == 3:
            raise EmptyWorld("no entities for domain 'hotel'")
        return generate_goal(seed, *args)

    monkeypatch.setattr(duetsim.world, "generate_goal", failing_generate_goal)


@pytest.fixture
def deadline():
    """The test fails with TimeoutError once it has run 60 s, so a run that
    stalls fails rather than hangs. A forked worker inherits the handler
    but not the alarm."""
    def expire(signum, frame):
        raise TimeoutError("the test ran past its 60 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def no_handler_threads():
    """For tests that fork workers: a forked child gets a copy of every lock
    another thread holds, so no HTTP handler thread left by an earlier test
    may be alive."""
    handlers = [t.name for t in threading.enumerate()
                if "process_request_thread" in t.name]
    assert handlers == []


class TestConfig:
    def test_defaults(self):
        config = load_config(None, {})
        assert config.simulator == "agenda"
        assert config.dialogues == 100

    def test_yaml_plus_overrides(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump({"dialogues": 5, "seed": 3}))
        config = load_config(str(path), {"seed": 9})
        assert config.dialogues == 5
        assert config.seed == 9  # flag wins over file

    def test_env_interpolation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RUN_DIR", "/tmp/exp7")
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump({"output_dir": "${RUN_DIR}/out"}))
        config = load_config(str(path), {})
        assert config.output_dir == "/tmp/exp7/out"

    def test_unset_env_becomes_empty(self, tmp_path, monkeypatch):
        monkeypatch.delenv("NO_SUCH_VAR", raising=False)
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump({"output_dir": "x${NO_SUCH_VAR}y"}))
        assert load_config(str(path), {}).output_dir == "xy"

    @pytest.mark.parametrize("overrides", [
        {"simulator": "quantum"},
        {"dialogues": 0},
        {"turn_cap": 0},
        {"parallelism": 0},
        {"context_mode": "telepathy"},
        {"simulator": "duet"},  # duet without a generator backend
    ])
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ConfigError):
            load_config(None, overrides)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/no/such/config.yaml", {})

    def test_unknown_field(self, tmp_path):
        """The config's fields are the keys a file may hold, and the only
        keywords the constructor takes."""
        with pytest.raises(TypeError):
            ExperimentConfig(bogus=1)
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump({"seed": 1, "bogus": 1}))
        with pytest.raises(ConfigError) as e:
            load_config(str(path), {})
        assert str(e.value) == "config field 'bogus': unknown field"

    def test_bad_yaml(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("a: [unclosed")
        with pytest.raises(ConfigError):
            load_config(str(path), {})

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump({"dialouges": 3}))
        with pytest.raises(ConfigError) as e:
            load_config(str(path), {})
        assert e.value.field == "dialouges"

    def test_non_mapping_yaml_rejected(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("- dialogues\n- 3\n")
        with pytest.raises(ConfigError):
            load_config(str(path), {})

    def test_default_parallelism_by_simulator(self):
        assert load_config(None, {}).workers() == 1
        duet = ExperimentConfig(simulator="duet",
                                generator_backend={"kind": "http"})
        assert duet.workers() == 4

    def test_explicit_parallelism_honoured(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump({"parallelism": 3}))
        assert load_config(str(path), {}).workers() == 3
        assert load_config(None, {"parallelism": 2}).workers() == 2

    @pytest.mark.parametrize("simulator,parallelism,dialogues,workers", [
        ("agenda", 3, 1, 1), ("agenda", 3, 2, 2), ("agenda", 2, 250, 2),
        ("duet", None, 2, 2), ("duet", None, 6, 4)])
    def test_workers_capped_at_dialogues(self, simulator, parallelism,
                                         dialogues, workers):
        """A pool starts every worker up front, so none is left idle."""
        config = ExperimentConfig(simulator=simulator, parallelism=parallelism,
                                  dialogues=dialogues,
                                  generator_backend={"kind": "http"})
        assert config.workers() == workers

    @pytest.mark.parametrize("fields", [
        {"generator_backend": {"kind": "scripted"}},
        {"verifier_backend": {"kind": "scripted"}},
    ], ids=["scripted_generator", "scripted_verifier"])
    def test_call_order_backends_use_one_worker(self, fields):
        """A scripted backend answers in call order."""
        config = ExperimentConfig(
            simulator="duet", parallelism=4,
            **{"generator_backend": {"kind": "http"}, **fields})
        assert config.workers() == 1

    def test_unused_scripted_verifier_sets_no_worker_count(self, tmp_path):
        """duet-no-verifier builds and calls only the generator's backend."""
        config = ExperimentConfig(
            simulator="duet-no-verifier", parallelism=4, dialogues=8,
            generator_backend={"kind": "http", "base_url": "http://127.0.0.1:9"},
            verifier_backend={"kind": "scripted",
                              "script_file": str(tmp_path / "absent.jsonl")})
        assert config.workers() == 4
        backends = _DialogueRunner(config).backends
        assert [type(b).__name__ for b in backends] == ["HTTPBackend"]

    @pytest.mark.parametrize("mode", ["record", "replay"])
    def test_cassette_runs_use_parallelism(self, mode):
        """A cassette keys each reply by dialogue, so it sets no worker count."""
        for parallelism, workers in ((None, 4), (3, 3)):
            config = ExperimentConfig(
                simulator="duet", parallelism=parallelism,
                generator_backend={"kind": "http"},
                cassette={"mode": mode, "path": "cassette.jsonl"})
            assert config.workers() == workers


class TestReadLogs:
    def run_small(self, tmp_path, n=3):
        config = ExperimentConfig(simulator="agenda", dialogues=n,
                                  output_dir=str(tmp_path / "run"))
        return run_experiment(config) / "logs.jsonl"

    def test_round_trip(self, tmp_path):
        log_path = self.run_small(tmp_path)
        logs = read_logs([log_path])
        assert len(logs) == 3
        assert all(log.turns for log in logs)

    def test_corrupt_line_reports_line_number(self, tmp_path):
        log_path = self.run_small(tmp_path, n=2)
        with open(log_path, "a") as f:
            f.write("{not json\n")
        with pytest.raises(LogParseError) as e:
            read_logs([log_path])
        assert e.value.line_number == 3

    def test_blank_lines_skipped(self, tmp_path):
        log_path = self.run_small(tmp_path, n=1)
        with open(log_path, "a") as f:
            f.write("\n\n")
        assert len(read_logs([log_path])) == 1


def booked(log, constraints):
    """Append a restaurant booking with ``constraints`` to ``log``."""
    log["annotations"]["bookings"].append(
        {"domain": "restaurant", "ref": "ABCD1234", "entity_name": "x",
         "constraints": constraints})


class TestCommands:
    def invoke(self, *args):
        return invoke(*args)

    def test_simulate_then_evaluate(self, tmp_path):
        out = tmp_path / "run"
        result = self.invoke("simulate", "-n", "4", "-o", str(out),
                             "--simulator", "agenda")
        assert result.exit_code == 0, result.output
        assert (out / "logs.jsonl").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["dialogues"] == 4
        assert manifest["templates_digest"]
        assert manifest["failures"] == []

        result = self.invoke("evaluate", str(out / "logs.jsonl"),
                             "--format", "json")
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert 0.0 <= report["fulfillment"]["success_rate"] <= 1.0

    def test_evaluate_table_format(self, tmp_path):
        out = tmp_path / "run"
        assert self.invoke("simulate", "-n", "2", "-o", str(out)).exit_code == 0
        result = self.invoke("evaluate", str(out / "logs.jsonl"))
        assert result.exit_code == 0
        assert "Goal fulfillment" in result.output

    def test_config_error_exit_1(self):
        result = self.invoke("simulate", "-n", "0")
        assert result.exit_code == 1
        assert "error:" in result.output

    def test_runtime_error_exit_2(self, tmp_path):
        bad = tmp_path / "empty.jsonl"
        bad.write_text("")
        result = self.invoke("evaluate", str(bad))
        assert result.exit_code == 2
        assert result.output == "error: no logs to evaluate\n"

    def test_corrupt_log_exit_2(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{nope\n")
        result = self.invoke("evaluate", str(bad))
        assert result.exit_code == 2

    def corrupt_second_record(self, tmp_path, corrupt, part="log"):
        """A two-record log whose second record ``corrupt`` has edited: the
        record's ``part``, or the whole record when ``part`` is None."""
        out = tmp_path / "run"
        assert self.invoke("simulate", "-n", "2", "-o", str(out)).exit_code == 0
        lines = (out / "logs.jsonl").read_text().splitlines()
        record = json.loads(lines[1])
        corrupt(record[part] if part else record)
        bad = tmp_path / "bad.jsonl"
        bad.write_text(lines[0] + "\n" + json.dumps(record) + "\n")
        return bad

    @pytest.mark.parametrize("field,corrupt", [
        ("utterance", lambda log: log["turns"][0].update(utterance=None)),
        ("provided", lambda log: log["annotations"]["provided"].append(
            ["restaurant", "phone", 5])),
        ("goal", lambda log: [section["info"].update(dict.fromkeys(section["info"], 5))
                              for section in log["goal"].values()]),
        ("booking", lambda log: log["annotations"]["bookings"].append(
            {"domain": "restaurant", "ref": "ABCD1234", "entity_name": "x",
             "constraints": {"book people": 5}})),
        ("goal", lambda log: log["goal"].update(dict.fromkeys(log["goal"], 5))),
        ("goal", lambda log: log["goal"].update(dict.fromkeys(log["goal"], {}))),
        ("goal", lambda log: [section.update(info=["abc"])
                              for section in log["goal"].values()]),
        ("goal", lambda log: [section.update(info=["ab"])
                              for section in log["goal"].values()]),
        ("goal", lambda log: [section.update(reqt="phone")
                              for section in log["goal"].values()]),
        ("goal", lambda log: [section.update(book=[])
                              for section in log["goal"].values()]),
        ("termination_reason", lambda log: log.update(termination_reason=5)),
        ("termination_reason", lambda log: log.update(termination_reason="crash")),
        ("seed", lambda log: log.update(seed="x")),
        ("seed", lambda log: log.update(seed=True)),
        ("turn_index", lambda log: log["turns"][0].update(turn_index="0")),
        ("turn_index", lambda log: log["turns"][0].update(turn_index=False)),
        ("acts", lambda log: log["turns"][0].update(acts=["book"])),
        ("acts", lambda log: log["turns"][0].update(acts="book")),
        ("speaker", lambda log: log["turns"][0].update(speaker="robot")),
        ("booking constraints", lambda log: booked(log, None)),
        ("booking constraints", lambda log: booked(log, ["book day"])),
        ("booking constraints", lambda log: booked(log, "tuesday")),
        ("provided", lambda log: log["annotations"]["provided"].append("abc")),
        ("act", lambda log: log["turns"][0].update(acts=[["inform", "restaurant"]])),
        ("act", lambda log: log["turns"][0].update(acts=[["inform", "restaurant", "food",
                                                         "thai", "x"]])),
    ], ids=["utterance_null", "provided_value_int", "goal_info_int",
            "booking_constraint_int", "goal_section_int", "goal_section_empty",
            "goal_info_list", "goal_info_pair_list", "goal_reqt_str", "goal_book_list",
            "termination_reason_int", "termination_reason_unknown",
            "seed_str", "seed_bool", "turn_index_str", "turn_index_bool",
            "act_str", "acts_str", "speaker_unknown", "booking_constraints_null",
            "booking_constraints_list", "booking_constraints_str", "provided_str",
            "act_two_components", "act_five_components"])
    def test_non_string_log_field_exit_2(self, tmp_path, field, corrupt):
        bad = self.corrupt_second_record(tmp_path, corrupt)
        result = self.invoke("evaluate", str(bad))
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"error: line 2: {bad}: {field}:")
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("corrupt,message", [
        (lambda record: record.update(v=2), "v: got 2, expected 1"),
        (lambda record: record.update(v=True), "v: expected an integer, got True"),
        (lambda record: record.pop("v"), "'v'"),
    ], ids=["v2", "v_bool", "no_v"])
    def test_other_log_version_exit_2(self, tmp_path, corrupt, message):
        bad = self.corrupt_second_record(tmp_path, corrupt, part=None)
        result = self.invoke("evaluate", str(bad))
        assert result.exit_code == 2, result.output
        assert result.output == f"error: line 2: {bad}: {message}\n"

    def test_non_utf8_log_exit_2(self, tmp_path):
        marked = self.corrupt_second_record(
            tmp_path, lambda log: log["turns"][0].update(utterance="@"))
        bad = tmp_path / "latin1.jsonl"  # the utterance holds a Latin-1 e-acute
        bad.write_bytes(marked.read_bytes().replace(b'"@"', b'"\xe9"'))
        result = self.invoke("evaluate", str(bad))
        assert result.exit_code == 2, result.output
        assert result.output.startswith(
            f"error: line 2: {bad}: 'utf-8' codec can't decode byte 0xe9")
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("name", ["", "missing.jsonl"], ids=["directory", "missing"])
    def test_unopenable_log_exit_2(self, tmp_path, name):
        path = tmp_path / name
        result = self.invoke("evaluate", str(path))
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"error: cannot read log {path}: ")
        assert "Traceback" not in result.output

    def test_unknown_booking_domain_exit_2(self, tmp_path):
        def book_spaceport(log):
            log["goal"]["spaceport"] = {"info": {}, "reqt": [], "book": {}}
            log["annotations"]["bookings"].append(
                {"domain": "spaceport", "ref": "ABCD1234", "entity_name": "x",
                 "constraints": {}})

        bad = self.corrupt_second_record(tmp_path, book_spaceport)
        result = self.invoke("evaluate", str(bad))
        assert result.exit_code == 2, result.output
        assert result.output == \
            f"error: line 2: {bad}: seed 1: unknown domain 'spaceport'\n"

    def test_goals_listing(self):
        result = self.invoke("goals", "--count", "3", "--seed", "5")
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("[goal seed=5]")
        assert "looking for" in lines[0]

    def test_goals_bad_count(self):
        assert self.invoke("goals", "--count", "0").exit_code == 1

    def test_unknown_config_field_exit_1(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump({"dialouges": 3}))
        result = self.invoke("simulate", "-c", str(path))
        assert result.exit_code == 1
        assert "dialouges" in result.output

    @pytest.mark.parametrize("content",
                             [None, '"ok"\n{not json\n', '"ok"\n{"a": 1}\n'])
    def test_bad_script_file_exit_1(self, tmp_path, content):
        script = tmp_path / "script.jsonl"
        if content is not None:
            script.write_text(content)
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump({
            "simulator": "duet", "dialogues": 1,
            "output_dir": str(tmp_path / "run"),
            "generator_backend": {"kind": "scripted",
                                  "script_file": str(script)}}))
        result = self.invoke("simulate", "-c", str(path))
        assert result.exit_code == 1, result.output
        assert "generator_backend.script_file" in result.output
        if content is not None:
            assert "line 2" in result.output

    def test_verifier_enabled_key_exit_1(self, tmp_path):
        """duet-no-verifier is the one switch that turns the verifier off."""
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump({"loop": {"verifier_enabled": False}}))
        with pytest.raises(ConfigError) as e:
            load_config(str(path), {})
        assert e.value.field == "loop.verifier_enabled"
        result = self.invoke("simulate", "-c", str(path))
        assert result.exit_code == 1, result.output
        assert result.output == \
            "error: config field 'loop.verifier_enabled': unknown field\n"

    @pytest.mark.parametrize("field,value", [
        ("seed", "abc"),
        ("generator_backend", "http"),
        ("cassette", [1]),
        ("turn_cap", 2.5),
        ("world", 123456),  # open() takes an int for a file descriptor
        ("omit_goal", "no"),
        ("omit_history", 1),
        ("dialogues", True),
        ("parallelism", 1.5),
        ("output_dir", 7),
        ("verifier_backend", ["http"]),
        ("loop", {"max_iterations": 2.5}),
        ("loop", False),  # the cases from here on were read as the default loop
        ("loop", []),
        ("loop", None),
        ("loop", [1]),
        ("loop", {"max_iterations": "3"}),
    ])
    def test_mistyped_config_field_exit_1(self, tmp_path, field, value):
        """A config value of the wrong type is a configuration error that
        names the field, or the key of a block, before anything runs."""
        doc = {"simulator": "duet", "dialogues": 1,
               "output_dir": str(tmp_path / "run"),
               "generator_backend": {"kind": "http", "retries": 0,
                                     "base_url": "http://127.0.0.1:9"}}
        doc[field] = value
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(doc))
        result = self.invoke("simulate", "-c", str(path))
        assert result.exit_code == 1, result.output
        if isinstance(value, dict):
            field += "." + next(iter(value))
        assert f"error: config field '{field}': must be " in result.output
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("spec", [
        {"base_url": "localhost:8000", "timeout": 0},
        {"base_url": "http://127.0.0.1:9", "timeout": math.nan},
        {"base_url": "http://127.0.0.1:9", "timeout": math.inf},
        {"base_url": "http://127.0.0.1:9", "backoff_base": -1.0},
        {"base_url": "http://127.0.0.1:9", "backoff_base": math.nan},
        # beyond what a socket timeout takes: every dialogue failed with
        # OverflowError, and the run exited 0
        {"base_url": "http://127.0.0.1:9", "timeout": 1e12, "retries": 0},
        {"base_url": "http://127.0.0.1:9", "backoff_base": 86401},
    ], ids=["no_scheme_zero_timeout", "timeout_nan", "timeout_inf", "backoff_negative",
            "backoff_nan", "timeout_beyond_a_day", "backoff_beyond_a_day"])
    def test_bad_http_backend_config_exit_1(self, tmp_path, spec):
        """An http backend value out of range fails the run before any
        dialogue, rather than every dialogue failing in it."""
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump({
            "simulator": "duet", "dialogues": 1,
            "output_dir": str(tmp_path / "run"),
            "generator_backend": {"kind": "http", **spec}}))
        result = self.invoke("simulate", "-c", str(path))
        assert result.exit_code == 1, result.output
        assert "generator_backend" in result.output
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("field,doc", [
        ("generator_backend.api_key",
         {"generator_backend": {"kind": "http", "base_url": "http://127.0.0.1:9",
                                "retries": 0, "api_key": "sk-literal-secret"}}),
        ("generator_backend.timout",
         {"generator_backend": {"base_url": "http://127.0.0.1:9", "retries": 0,
                                "timout": 5}}),
        ("generator_backend.base_url",
         {"generator_backend": {"kind": "scripted", "script_file": "SCRIPT",
                                "base_url": "http://127.0.0.1:9"}}),
        ("verifier_backend.modle",
         {"generator_backend": {"kind": "scripted", "script_file": "SCRIPT"},
          "verifier_backend": {"kind": "http", "base_url": "http://127.0.0.1:9",
                               "modle": "m"}}),
        ("cassette.pth",
         {"generator_backend": {"kind": "scripted", "script_file": "SCRIPT"},
          "cassette": {"mode": "off", "pth": "x"}}),
    ], ids=["literal_api_key", "http_typo", "scripted_http_key",
            "verifier_typo", "cassette_typo"])
    def test_unknown_backend_or_cassette_key_exit_1(self, tmp_path, field, doc):
        """A key a backend spec or the cassette block does not use is a
        configuration error, before anything runs; a literal API key is
        refused without being echoed."""
        script = tmp_path / "script.jsonl"
        script.write_text('"ok"\n')
        doc = json.loads(json.dumps(doc).replace("SCRIPT", str(script)))
        doc.update(simulator="duet", dialogues=1,
                   output_dir=str(tmp_path / "run"))
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(doc))
        result = self.invoke("simulate", "-c", str(path))
        assert result.exit_code == 1, result.output
        assert result.output == f"error: config field '{field}': unknown field\n"
        assert not (tmp_path / "run").exists()

    # An http spec that validates, and a file descriptor no test holds open:
    # open() takes an int for one.
    HTTP = {"base_url": "http://127.0.0.1:9", "retries": 0}
    NOT_A_PATH = 987654

    @pytest.mark.parametrize("field,doc,message", [
        ("cassette.path", {"cassette": {"mode": "record", "path": NOT_A_PATH}},
         "must be a string, not int"),
        ("generator_backend.script_file",
         {"generator_backend": {"kind": "scripted", "script_file": NOT_A_PATH}},
         "must be a string, not int"),
        ("generator_backend.retries", {"generator_backend": {**HTTP, "retries": True}},
         "must be an integer, not bool"),
        ("generator_backend.retries", {"generator_backend": {**HTTP, "retries": 1.0}},
         "must be an integer, not float"),
        ("generator_backend.timeout", {"generator_backend": {**HTTP, "timeout": True}},
         "must be a number, not bool"),
        ("generator_backend.timeout", {"generator_backend": {**HTTP, "timeout": "30"}},
         "must be a number, not str"),
        ("generator_backend.api_key_env",
         {"generator_backend": {**HTTP, "api_key_env": 7}}, "must be a string, not int"),
        ("generator_backend.model", {"generator_backend": {**HTTP, "model": 5}},
         "must be a string, not int"),
        ("verifier_backend.backoff_base",
         {"simulator": "duet-no-verifier",
          "verifier_backend": {**HTTP, "backoff_base": "0.5"}},
         "must be a number, not str"),
        ("generator_backend.backoff_base",
         {"generator_backend": {**HTTP, "backoff_base": "5e-1"}},
         "must be a number, not str (YAML reads an exponent as a number only "
         "with a dot and a signed exponent, as in 5.0e-1 or 1.0e+12)"),
    ], ids=["cassette_path", "script_file", "retries_bool", "retries_float",
            "timeout_bool", "timeout_str", "api_key_env", "model",
            "unused_verifier_backoff", "backoff_exponent"])
    def test_mistyped_backend_or_cassette_value_exit_1(self, tmp_path, field,
                                                       doc, message):
        """A value of the wrong type in a backend spec or the cassette block
        is a configuration error that names the dotted field, before
        anything runs; a number is never a bool or a string."""
        doc = {"simulator": "duet", "dialogues": 1, "generator_backend": self.HTTP,
               "output_dir": str(tmp_path / "run"), **doc}
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(doc))
        result = self.invoke("simulate", "-c", str(path))
        assert result.exit_code == 1, result.output
        assert result.output == f"error: config field '{field}': {message}\n"
        assert not (tmp_path / "run").exists()

    def test_bare_off_cassette_mode_names_the_value(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("simulator: duet\n"
                        "generator_backend: {base_url: 'http://127.0.0.1:9'}\n"
                        "cassette: {mode: off}\n")
        result = self.invoke("simulate", "-c", str(path))
        assert result.exit_code == 1, result.output
        assert result.output == (
            "error: config field 'cassette.mode': must be record, replay or off, "
            "got False (YAML reads a bare off as false; quote it)\n")

    @pytest.mark.parametrize("content,message", [
        (b"[1]\n", "expected an object, got [1]"),
        (b'"x"\n', "expected an object, got 'x'"),
        (b'{"digest": "d", "response": 5}\n', "predates per-dialogue keys"),
        (b'{"digest": "d", "request": {"system": "", "user": "u"}, '
         b'"response": "r"}\n', "predates per-dialogue keys"),
        (b"\xff\xfe\n", "'utf-8' codec can't decode"),
    ], ids=["list", "string", "old_bad_response", "old_format", "not_utf8"])
    def test_bad_cassette_exit_2(self, tmp_path, content, message):
        """A cassette line the replay cannot use is one error line naming
        the file and the line, before any dialogue runs."""
        cassette = tmp_path / "cassette.jsonl"
        cassette.write_bytes(content)
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump({
            "simulator": "duet", "output_dir": str(tmp_path / "run"),
            "generator_backend": {"base_url": "http://127.0.0.1:9"},
            "cassette": {"mode": "replay", "path": str(cassette)}}))
        result = self.invoke("simulate", "-c", str(path))
        assert result.exit_code == 2, result.output
        assert len(result.output.splitlines()) == 1, result.output
        assert result.output.startswith(f"error: cassette {cassette} line 1: ")
        assert message in result.output
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("output_dir", ["file", "file/sub", "run"])
    def test_unusable_output_dir_exit_1(self, tmp_path, output_dir):
        """An output directory that cannot be made, or a logs file that
        cannot be opened in it, is an error line before any dialogue runs."""
        (tmp_path / "file").write_text("")
        (tmp_path / "run" / "logs.jsonl").mkdir(parents=True)
        result = self.invoke("simulate", "-n", "2", "-o", str(tmp_path / output_dir))
        assert result.exit_code == 1, result.output
        assert result.output.startswith(
            f"error: config field 'output_dir': {tmp_path / output_dir}: ")
        assert "Traceback" not in result.output

    def test_unwritable_cassette_exit_2(self, tmp_path):
        cassette = tmp_path / "absent" / "cassette.jsonl"
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump({
            "simulator": "duet", "output_dir": str(tmp_path / "run"),
            "generator_backend": {"base_url": "http://127.0.0.1:9"},
            "cassette": {"mode": "record", "path": str(cassette)}}))
        result = self.invoke("simulate", "-c", str(path))
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"error: cannot write cassette {cassette}: ")

    @pytest.mark.usefixtures("no_goal_for_seed_3")
    def test_goal_sampling_error_exit_2(self, tmp_path):
        """A goal that cannot be drawn is not a failed dialogue: it stops
        the run."""
        result = self.invoke("simulate", "-n", "5", "-o", str(tmp_path / "run"))
        assert result.exit_code == 2, result.output
        assert result.output == "error: no entities for domain 'hotel'\n"

    @pytest.mark.usefixtures("no_handler_threads", "no_goal_for_seed_3")
    def test_goal_sampling_error_same_at_any_parallelism(self, tmp_path,
                                                         fake_server_url):
        """An error a worker process or a lane raises is reported as the
        same one line as in this process, once the records of the seeds
        before it are written. Forked workers inherit the patch."""
        duet = tmp_path / "duet.yaml"
        duet.write_text(yaml.safe_dump({
            "simulator": "duet", "turn_cap": 4,
            "generator_backend": {"base_url": fake_server_url, "model": "fake"}}))
        outputs = []
        for config in ([], ["-c", str(duet)]):
            for parallelism in ("1", "2"):
                out = tmp_path / f"{len(config)}-{parallelism}"
                result = self.invoke("simulate", *config, "-n", "5", "--parallelism",
                                     parallelism, "-o", str(out))
                assert result.exit_code == 2, result.output
                outputs.append(result.output)
                logs = (out / "logs.jsonl").read_text().splitlines()
                assert [json.loads(line)["log"]["seed"] for line in logs] == [0, 1, 2]
        assert outputs == ["error: no entities for domain 'hotel'\n"] * 4

    @pytest.mark.parametrize("field,doc", [
        ("generator_backend.kind",
         {"simulator": "agenda", "generator_backend": {"kind": "htp"}}),
        ("cassette.pth",
         {"simulator": "agenda", "cassette": {"mode": "record", "pth": "x"}}),
        ("verifier_backend.timout",
         {"simulator": "duet-no-verifier",
          "generator_backend": {"kind": "scripted", "script_file": "SCRIPT"},
          "verifier_backend": {"base_url": "http://127.0.0.1:9", "timout": 5}}),
    ], ids=["agenda_backend_kind", "agenda_cassette_typo",
            "unused_verifier_typo"])
    def test_block_the_run_does_not_build_is_checked(self, tmp_path, field,
                                                     doc):
        script = tmp_path / "script.jsonl"
        script.write_text('"ok"\n')
        doc = json.loads(json.dumps(doc).replace("SCRIPT", str(script)))
        doc.update(dialogues=1, output_dir=str(tmp_path / "run"))
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(doc))
        result = self.invoke("simulate", "-c", str(path))
        assert result.exit_code == 1, result.output
        assert result.output.startswith(f"error: config field '{field}': ")
        assert not (tmp_path / "run").exists()

    @pytest.mark.usefixtures("no_handler_threads")
    @pytest.mark.parametrize("fault", ["dies", "unpicklable"])
    def test_worker_failure_exit_2(self, tmp_path, monkeypatch, fault):
        """A dead worker process, or a result it cannot send back, is one
        error line and exit 2. Forked workers inherit the patches below."""
        import duetsim.experiment
        import duetsim.loop

        if fault == "dies":
            run_dialogue = duetsim.loop.run_dialogue
            test_pid = os.getpid()

            def dying_run_dialogue(*args, **kwargs):
                if kwargs["seed"] == 7 and os.getpid() != test_pid:
                    os._exit(1)
                return run_dialogue(*args, **kwargs)

            monkeypatch.setattr(duetsim.loop, "run_dialogue", dying_run_dialogue)
        else:
            run_one = duetsim.experiment._DialogueRunner.__call__

            def unpicklable_run_one(self, seed):
                line, *rest = run_one(self, seed)
                return (threading.Lock() if seed == 7 else line), *rest

            monkeypatch.setattr(duetsim.experiment._DialogueRunner, "__call__",
                                unpicklable_run_one)
        result = self.invoke("simulate", "-n", "20", "--parallelism", "2",
                             "-o", str(tmp_path / "run"))
        assert result.exit_code == 2, result.output
        assert len(result.output.splitlines()) == 1, result.output
        assert result.output.startswith("error: a worker")

    def test_missing_world_exit_2(self, tmp_path):
        missing = str(tmp_path / "absent.json")
        out = tmp_path / "run"
        assert self.invoke("simulate", "-n", "2", "-o", str(out)).exit_code == 0
        for args in (["goals", "--world", missing],
                     ["simulate", "-n", "2", "-o", str(tmp_path / "x"),
                      "--world", missing],
                     ["evaluate", str(out / "logs.jsonl"), "--world", missing]):
            result = self.invoke(*args)
            assert result.exit_code == 2, (args, result.output)
            assert "error:" in result.output


class TestDeterminism:
    def test_same_seed_same_logs(self, tmp_path):
        paths = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = invoke("simulate", "-n", "5", "--seed", "11", "-o", str(out))
            assert result.exit_code == 0, result.output
            paths.append(out / "logs.jsonl")
        assert paths[0].read_bytes() == paths[1].read_bytes()


SIMULATE_FLAGS = ("--config", "-c", "--simulator", "--world", "--dialogues", "-n",
                  "--seed", "--turn-cap", "--parallelism", "--output-dir", "-o",
                  "--context-mode", "--omit-goal", "--omit-history")


class TestCommandLine:
    def test_help_lists_every_command(self):
        result = invoke("--help")
        assert result.exit_code == 0, result.output
        for command in ("simulate", "evaluate", "goals"):
            assert command in result.output

    @pytest.mark.parametrize("command,flags", [
        ("simulate", SIMULATE_FLAGS),
        ("evaluate", ("LOG_PATHS", "--world", "--format")),
        ("goals", ("--seed", "--count", "--world")),
    ])
    def test_command_help_lists_every_flag(self, command, flags):
        result = invoke(command, "--help")
        assert result.exit_code == 0, result.output
        listed = set(re.findall(r"(?<![\w-])-[-\w]+|LOG_PATHS", result.output))
        assert listed == {"--help", *flags}

    @pytest.mark.parametrize("args", [
        ["bogus"],
        [],
        ["evaluate"],
        ["simulate", "-n", "abc"],
        ["simulate", "--simulator", "bogus"],
        ["goals", "--cou", "2"],
        ["goals", "-h"],
    ], ids=["unknown_command", "no_command", "no_log_paths", "dialogues_not_int",
            "unknown_simulator", "abbreviated_flag", "short_help"])
    def test_usage_error_exit_2(self, tmp_path, monkeypatch, args):
        """A usage error is exit 2 with a usage line; no flag may be
        abbreviated, and only ``--help`` asks for help."""
        monkeypatch.chdir(tmp_path)
        result = invoke(*args)
        assert result.exit_code == 2, result.output
        assert result.output.startswith("usage: duetsim")
        assert list(tmp_path.iterdir()) == []

    def test_log_paths_may_follow_options(self, tmp_path):
        paths = []
        for seed in ("0", "5"):
            out = tmp_path / seed
            assert invoke("simulate", "-n", "3", "--seed", seed, "-o", out).exit_code == 0
            paths.append(out / "logs.jsonl")
        intermixed = invoke("evaluate", paths[0], "--format", "json", paths[1])
        assert intermixed.exit_code == 0, intermixed.output
        assert intermixed == invoke("evaluate", *paths, "--format", "json")
        assert intermixed != invoke("evaluate", paths[0], "--format", "json")

    def test_interrupt_prints_aborted_exit_1(self, monkeypatch):
        import duetsim.cli

        def interrupted(config):
            raise KeyboardInterrupt

        monkeypatch.setattr(duetsim.cli, "run_experiment", interrupted)
        assert invoke("simulate", "-n", "1") == (1, "\nAborted!\n")

    def test_closed_stdout_exit_1_without_traceback(self):
        """Output to a reader that has gone (``duetsim goals | head -1``)
        ends the command with exit 1 and no traceback."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "duetsim.cli", "goals", "--count", "3000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=src_env())
        assert proc.stdout.readline().startswith("[goal seed=0] ")
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in stderr and "Exception ignored" not in stderr, stderr


class RecordingResponder:
    """In-process backend answering with the benchmark's stateless fake
    model; it keeps every prompt it is sent, in order. Calls from several
    lanes take turns: the fake model parses with ``ast``, which CPython 3.11
    does not guard across threads ("SystemError: AST constructor recursion
    depth mismatch")."""

    turn = threading.Lock()  # one for every instance

    def __init__(self):
        self.responder = load_perfbench("responder")
        self.prompts = []

    def complete(self, request):
        self.prompts.append((request.system_text, request.user_text))
        with self.turn:
            return CompletionResult(text=self.responder.reply(request.user_text))


class VaryingResponder(RecordingResponder):
    """A RecordingResponder whose translations and rewrites differ on every
    call, as a sampling model's do."""

    def complete(self, request):
        result = super().complete(request)
        if self.responder.kind(request.user_text) == self.responder.NLG:
            result = CompletionResult(text=f"{result.text} ({len(self.prompts)})")
        return result


# sha256 of agenda logs.jsonl for seeds 0-199, turn_cap 20, bundled world,
# recorded before the agenda, world and metrics hot paths were rewritten.
# Any change to it means a change in agenda behaviour.
AGENDA_SEEDS_0_199_SHA256 = (
    "49ff18977a64cc0f958ee44656c5107716a1cd83daade87a1c64a4e9a6fa4373")


@pytest.mark.usefixtures("no_handler_threads")
@pytest.mark.parametrize("parallelism", [1, 2, 3])
def test_agenda_logs_pinned(tmp_path, parallelism):
    config = ExperimentConfig(simulator="agenda", dialogues=200, seed=0,
                              turn_cap=20, parallelism=parallelism,
                              output_dir=str(tmp_path / "run"))
    data = (run_experiment(config) / "logs.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == AGENDA_SEEDS_0_199_SHA256


def test_agenda_logs_pinned_without_fork(tmp_path, monkeypatch):
    """Where fork is missing, spawned workers rebuild the run from the config."""
    import multiprocessing

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    config = ExperimentConfig(simulator="agenda", dialogues=200, seed=0,
                              turn_cap=20, parallelism=2,
                              output_dir=str(tmp_path / "run"))
    data = (run_experiment(config) / "logs.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == AGENDA_SEEDS_0_199_SHA256


@pytest.mark.usefixtures("no_handler_threads")
def test_failed_dialogue_same_at_any_parallelism(tmp_path, monkeypatch):
    """A dialogue whose system raises gives the same error log, in seed
    order, and the same failure entry on one worker and on worker
    processes. Forked workers inherit the patch below."""
    import duetsim.experiment

    system_agent = duetsim.experiment.SystemAgent

    def failing_system_agent(ontology, entities, seed):
        agent = system_agent(ontology, entities, seed=seed)
        if seed == 13:
            def next_turn(context):
                raise RuntimeError("no dialogue for seed 13")
            agent.next_turn = next_turn
        return agent

    monkeypatch.setattr(duetsim.experiment, "SystemAgent", failing_system_agent)
    runs = []
    for parallelism in (1, 2):
        out = run_experiment(ExperimentConfig(
            simulator="agenda", dialogues=40, seed=0, parallelism=parallelism,
            output_dir=str(tmp_path / str(parallelism))))
        manifest = json.loads((out / "manifest.json").read_text())
        runs.append(((out / "logs.jsonl").read_bytes(), manifest["failures"]))
    assert runs[0] == runs[1]
    data, failures = runs[0]
    assert failures == [{"seed": 13, "error": "RuntimeError: no dialogue for seed 13"}]
    logs = [json.loads(line)["log"] for line in data.splitlines()]
    assert [log["seed"] for log in logs] == list(range(40))
    assert [log["termination_reason"] == "error" for log in logs].index(True) == 13
    assert [turn["speaker"] for turn in logs[13]["turns"]] == ["user"]
    assert "error" not in logs[13]  # log schema v1 has no field for it


@pytest.mark.usefixtures("no_handler_threads")
@pytest.mark.parametrize("parallelism", [1, 2])
def test_written_logs_are_released(tmp_path, monkeypatch, parallelism):
    """A log is dropped once written, not kept until the run ends. Two
    agenda workers are processes, so no log lives in this one at all."""
    import duetsim.loop

    alive = {}
    run_dialogue = duetsim.loop.run_dialogue
    to_dict = DialogueLog.to_dict
    ran = tmp_path / "ran.txt"

    def tracked_run_dialogue(*args, **kwargs):
        log = run_dialogue(*args, **kwargs)
        alive[log.seed] = weakref.ref(log)
        return log

    def checked_to_dict(log):
        gc.collect()
        assert not [s for s, ref in alive.items() if s < log.seed and ref()]
        return to_dict(log)

    def logged_run_dialogue(*args, **kwargs):
        with open(ran, "a", encoding="utf-8") as f:
            f.write(f"{kwargs['seed']} {os.getpid()}\n")
        return run_dialogue(*args, **kwargs)

    if parallelism == 1:
        monkeypatch.setattr(duetsim.loop, "run_dialogue", tracked_run_dialogue)
        monkeypatch.setattr(DialogueLog, "to_dict", checked_to_dict)
    else:
        monkeypatch.setattr(duetsim.loop, "run_dialogue", logged_run_dialogue)
    config = ExperimentConfig(simulator="agenda", dialogues=30,
                              parallelism=parallelism,
                              output_dir=str(tmp_path / "run"))
    run_experiment(config)
    if parallelism == 1:
        assert len(alive) == 30
    else:
        entries = [line.split() for line in ran.read_text().splitlines()]
        assert sorted(int(seed) for seed, _ in entries) == list(range(30))
        assert all(int(pid) != os.getpid() for _, pid in entries)


@pytest.mark.usefixtures("no_handler_threads")
@pytest.mark.parametrize("ending", ["completes", "raises", "dies", "exits_0", "write_fails"])
def test_no_worker_outlives_the_run(tmp_path, monkeypatch, request, ending):
    """Every worker process is gone when ``run_experiment`` returns or
    raises, and records stream without a helper thread in this process. A
    worker that exits with status 0 before it sends its chunk fails the
    run too, rather than leaving it waiting. Forked workers inherit the
    patches below."""
    import multiprocessing

    import duetsim.experiment
    import duetsim.loop

    out = tmp_path / "run"
    expected = None
    if ending == "raises":
        request.getfixturevalue("no_goal_for_seed_3")
        expected = EmptyWorld
    elif ending in ("dies", "exits_0"):
        run_dialogue = duetsim.loop.run_dialogue
        test_pid = os.getpid()

        def dying_run_dialogue(*args, **kwargs):
            if kwargs["seed"] == 7 and os.getpid() != test_pid:
                os._exit(1 if ending == "dies" else 0)
            return run_dialogue(*args, **kwargs)

        monkeypatch.setattr(duetsim.loop, "run_dialogue", dying_run_dialogue)
        expected = WorkerFailed
    elif ending == "write_fails":
        if not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        out.mkdir()
        (out / "logs.jsonl").symlink_to("/dev/full")  # the first flush fails
        expected = OSError
    threads = threading.active_count()
    streamed = []
    records = duetsim.experiment._records

    def counted_records(*args):
        for record in records(*args):
            streamed.append(threading.active_count())
            yield record

    monkeypatch.setattr(duetsim.experiment, "_records", counted_records)
    config = ExperimentConfig(simulator="agenda", dialogues=40, parallelism=2,
                              output_dir=str(out))
    if expected is None:
        run_experiment(config)
        assert len(streamed) == 40
    else:
        with pytest.raises(expected):
            run_experiment(config)
    assert streamed == [threads] * len(streamed)
    assert multiprocessing.active_children() == []


@pytest.mark.usefixtures("no_handler_threads")
def test_workers_claim_chunks_as_they_free_up(tmp_path, monkeypatch):
    """A slow dialogue holds up only the worker that runs it: the other
    worker claims the chunks that follow, and the logs are those of one
    worker. Forked workers inherit the patch below."""
    import time

    import duetsim.loop

    config = dict(simulator="agenda", dialogues=40)
    alone = run_experiment(ExperimentConfig(parallelism=1, output_dir=str(tmp_path / "1"),
                                            **config))
    run_dialogue = duetsim.loop.run_dialogue
    ran = tmp_path / "ran.txt"

    def slow_run_dialogue(*args, **kwargs):
        if kwargs["seed"] == 0:
            time.sleep(0.3)
        with open(ran, "a", encoding="utf-8") as f:
            f.write(f"{kwargs['seed']} {os.getpid()}\n")
        return run_dialogue(*args, **kwargs)

    monkeypatch.setattr(duetsim.loop, "run_dialogue", slow_run_dialogue)
    out = run_experiment(ExperimentConfig(parallelism=2, output_dir=str(tmp_path / "2"),
                                          **config))
    assert (out / "logs.jsonl").read_bytes() == (alone / "logs.jsonl").read_bytes()
    pids = dict(line.split() for line in ran.read_text().splitlines())
    assert sorted(map(int, pids)) == list(range(40))
    slow = list(pids.values()).count(pids["0"])
    assert slow < 20, f"the worker that ran seed 0 ran {slow} of 40 dialogues"


@pytest.mark.usefixtures("deadline")
def test_workers_wait_for_a_slow_chunk_to_be_written(tmp_path, monkeypatch):
    """Behind a slow dialogue the other worker runs only the chunks the
    window leaves it, so this process holds a bounded number of records;
    the logs are those of one worker, and a stalled window fails at the
    deadline. Forked workers inherit the patch below."""
    import time

    import duetsim.experiment
    import duetsim.loop

    config = dict(simulator="agenda", dialogues=80)
    alone = run_experiment(ExperimentConfig(parallelism=1, output_dir=str(tmp_path / "1"),
                                            **config))
    run_dialogue = duetsim.loop.run_dialogue
    ran = tmp_path / "ran.txt"

    def slow_run_dialogue(*args, **kwargs):
        if kwargs["seed"] == 0:
            time.sleep(0.5)
        with open(ran, "a", encoding="utf-8") as f:
            f.write(f"{kwargs['seed']} {os.getpid()}\n")
        return run_dialogue(*args, **kwargs)

    records = duetsim.experiment._records
    ran_before_first = []

    def watched_records(*args):
        for record in records(*args):
            if not ran_before_first:  # seed 0's chunk arrived
                ran_before_first.extend(ran.read_text().splitlines())
            yield record

    monkeypatch.setattr(duetsim.loop, "run_dialogue", slow_run_dialogue)
    monkeypatch.setattr(duetsim.experiment, "_records", watched_records)
    out = run_experiment(ExperimentConfig(parallelism=2, output_dir=str(tmp_path / "2"),
                                          **config))
    assert (out / "logs.jsonl").read_bytes() == (alone / "logs.jsonl").read_bytes()
    pids = dict(line.split() for line in ran_before_first)
    other = [seed for seed, pid in pids.items() if pid != pids["0"]]
    # chunks of 4 seeds; every other chunk in the window but seed 0's
    allowed = (duetsim.experiment.WINDOW_PER_WORKER * 2 - 1) * 4
    assert 0 < len(other) <= allowed, f"{len(other)} dialogues ran ahead of seed 0's chunk"


def _record_read_slowly(seed):
    import time

    time.sleep(0.3)
    return str(seed)


class _SlowToRead:
    """A record that this process takes 0.3 s to unpickle."""

    def __init__(self, seed):
        self.seed = seed

    def __reduce__(self):
        return _record_read_slowly, (self.seed,)


def _fails_at_seed_3(seed):
    import time

    if seed == 0:
        time.sleep(0.5)  # the other worker's records arrive first
    if seed == 3:
        raise EmptyWorld("no entities for domain 'hotel'")
    return _SlowToRead(seed) if seed == 1 else str(seed)


@pytest.mark.usefixtures("no_handler_threads", "deadline")
def test_error_is_raised_at_its_seed_after_its_worker_ends():
    """Seeds 1 and 3 go to one worker, which ends after it sends the error
    of seed 3 while this process still reads seed 1's record; the chunk
    this process then deals to it is lost. The error is still raised at
    seed 3, after the records before it, as at one worker."""
    from contextlib import closing

    from duetsim.experiment import _records

    got = []
    with pytest.raises(EmptyWorld), closing(_records(_fails_at_seed_3, range(5), 2)) as records:
        for record in records:
            got.append(record)
    assert got == ["0", "1", "2"]


@pytest.mark.usefixtures("no_handler_threads")
def test_parallel_run_builds_no_chunk_list():
    """Each worker cuts the chunk it claims from the seed range, so a run of
    a million seeds costs this process no list of its 250,000 chunks (about
    30 MiB). Two worker processes."""
    import multiprocessing
    import tracemalloc
    from contextlib import closing
    from itertools import islice

    from duetsim.experiment import _records

    tracemalloc.start()
    try:
        with closing(_records(str, range(10**6), 2)) as records:
            first = list(islice(records, 8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == [str(seed) for seed in range(8)]
    assert peak < 5 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert multiprocessing.active_children() == []


def test_parallel_run_loads_no_shared_memory(tmp_path):
    """Worker processes get their chunks over their pipes, so a parallel
    run builds no shared counter or lock and loads none of their modules."""
    out = tmp_path / "run"
    printed, loaded = run_fresh(
        "from duetsim.experiment import ExperimentConfig, run_experiment\n"
        f"out = run_experiment(ExperimentConfig(dialogues=8, parallelism=2, "
        f"output_dir={str(out)!r}))\n"
        "print(len((out / 'logs.jsonl').read_text().splitlines()))")
    assert printed == "8"
    assert "multiprocessing.popen_fork" in loaded or "multiprocessing.popen_spawn_posix" in loaded
    assert not {"ctypes", "mmap", "multiprocessing.sharedctypes", "multiprocessing.heap",
                "multiprocessing.synchronize"} & loaded


# A backend spec that validates; no test below sends a request to it.
CLOSED_PORT = {"kind": "http", "base_url": "http://127.0.0.1:9"}


@pytest.mark.usefixtures("no_handler_threads")
def test_cassette_replay_reproduces_recording(tmp_path, monkeypatch):
    """A cassette run uses the workers ``parallelism`` asks for: a recording
    calls a backend, so it runs on lanes of this process, and a replay on
    worker processes. Replies that vary per call replay exactly at any
    parallelism. Forked workers inherit the patches below."""
    import duetsim.experiment
    import duetsim.loop

    ran = tmp_path / "ran.txt"
    run_dialogue = duetsim.loop.run_dialogue

    def logged_run_dialogue(*args, **kwargs):
        with open(ran, "a", encoding="utf-8") as f:
            f.write(f"{os.getpid()} {threading.get_ident()}\n")
        return run_dialogue(*args, **kwargs)

    monkeypatch.setattr(duetsim.loop, "run_dialogue", logged_run_dialogue)
    dialogues = 12
    cassette = {"mode": "record", "path": str(tmp_path / "cassette.jsonl")}
    with monkeypatch.context() as patch:
        patch.setattr(duetsim.experiment, "_build_backend",
                      lambda spec, role: VaryingResponder())
        recorded = run_experiment(ExperimentConfig(
            simulator="duet", dialogues=dialogues, output_dir=str(tmp_path / "record"),
            generator_backend=CLOSED_PORT, cassette=cassette))
    entries = [line.split() for line in ran.read_text().splitlines()]
    assert {int(pid) for pid, _ in entries} == {os.getpid()}
    assert threading.get_ident() not in {int(thread) for _, thread in entries}

    for parallelism in (1, None, 4):
        ran.unlink()
        out = run_experiment(ExperimentConfig(
            simulator="duet", dialogues=dialogues, parallelism=parallelism,
            output_dir=str(tmp_path / f"replay-{parallelism}"),
            generator_backend=CLOSED_PORT,
            cassette=dict(cassette, mode="replay")))
        assert json.loads((out / "manifest.json").read_text())["failures"] == []
        assert (out / "logs.jsonl").read_bytes() == \
            (recorded / "logs.jsonl").read_bytes()
        pids = [int(line.split()[0]) for line in ran.read_text().splitlines()]
        assert len(pids) == dialogues
        assert (os.getpid() in pids) == (parallelism == 1)


def test_each_seed_replays_alone(tmp_path, monkeypatch):
    """Replaying one seed of a cassette gives that seed's recorded log line,
    even when the model's replies vary per call and another dialogue sent
    the same request first."""
    import duetsim.experiment

    cassette = {"mode": "record", "path": str(tmp_path / "cassette.jsonl")}
    with monkeypatch.context() as patch:
        patch.setattr(duetsim.experiment, "_build_backend",
                      lambda spec, role: VaryingResponder())
        recorded = run_experiment(ExperimentConfig(
            simulator="duet", dialogues=6, parallelism=1,
            output_dir=str(tmp_path / "record"),
            generator_backend=CLOSED_PORT, cassette=cassette))
    lines = (recorded / "logs.jsonl").read_bytes().splitlines(keepends=True)
    for seed in range(6):
        out = run_experiment(ExperimentConfig(
            simulator="duet", dialogues=1, seed=seed,
            output_dir=str(tmp_path / f"seed-{seed}"),
            generator_backend=CLOSED_PORT, cassette=dict(cassette, mode="replay")))
        assert (out / "logs.jsonl").read_bytes() == lines[seed]


def test_recording_again_replaces_the_cassette(tmp_path, monkeypatch):
    """A second recording to a path replaces the first, so its replay gives
    the second run's logs."""
    import duetsim.experiment

    cassette = {"mode": "record", "path": str(tmp_path / "cassette.jsonl")}
    for name, backend in (("first", RecordingResponder),
                          ("second", VaryingResponder)):
        with monkeypatch.context() as patch:
            patch.setattr(duetsim.experiment, "_build_backend",
                          lambda spec, role: backend())
            recorded = run_experiment(ExperimentConfig(
                simulator="duet", dialogues=3, parallelism=1,
                output_dir=str(tmp_path / name),
                generator_backend=CLOSED_PORT, cassette=cassette))
    out = run_experiment(ExperimentConfig(
        simulator="duet", dialogues=3, parallelism=1,
        output_dir=str(tmp_path / "replay"), generator_backend=CLOSED_PORT,
        cassette=dict(cassette, mode="replay")))
    assert (out / "logs.jsonl").read_bytes() == \
        (recorded / "logs.jsonl").read_bytes()
    assert (out / "logs.jsonl").read_bytes() != \
        (tmp_path / "first" / "logs.jsonl").read_bytes()


def test_run_experiment_validates_its_config(tmp_path):
    """A config built in code gets the checks ``load_config`` makes."""
    out = tmp_path / "run"
    with pytest.raises(ConfigError, match="generator_backend.kind"):
        run_experiment(ExperimentConfig(
            simulator="agenda", dialogues=2, output_dir=str(out),
            generator_backend={"kind": "htp"},
            cassette={"mode": "record", "pth": "x"}))
    assert not out.exists()


def test_readme_configs_are_accepted(tmp_path, monkeypatch):
    """Every YAML example in the README loads and builds its run, as
    ``simulate -c`` would before the first dialogue."""
    monkeypatch.setenv("LLM_BASE_URL", "http://127.0.0.1:9/v1")
    readme = (PERFBENCH.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```yaml\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    for number, block in enumerate(blocks):
        path = tmp_path / f"readme-{number}.yaml"
        path.write_text(block)
        _DialogueRunner(load_config(str(path), {}))


def readme_config(tmp_path, name, **fields):
    """The README's YAML example with ``fields`` set, written to a file whose
    path is returned; ``${VAR}`` references are kept for ``simulate``."""
    readme = (PERFBENCH.parent / "README.md").read_text(encoding="utf-8")
    doc = yaml.safe_load(re.search(r"^```yaml\n(.*?)^```", readme, re.M | re.S)[1])
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump({**doc, **fields}))
    return str(path)


@pytest.mark.usefixtures("no_handler_threads")
@pytest.mark.parametrize("parallelism", ["1", "2"])
def test_readme_config_replays_offline(tmp_path, monkeypatch, fake_server_url,
                                       parallelism):
    """A replay builds no backend, so the README's config replays with the
    endpoint's variable unset and gives the recorded logs."""
    cassette = {"mode": "record", "path": str(tmp_path / "cassette.jsonl")}
    logs = []
    for mode in ("record", "replay"):
        if mode == "record":
            monkeypatch.setenv("LLM_BASE_URL", fake_server_url)
        else:
            monkeypatch.delenv("LLM_BASE_URL")
        config = readme_config(tmp_path, mode, dialogues=4,
                               cassette=dict(cassette, mode=mode))
        out = tmp_path / mode
        result = invoke("simulate", "-c", config, "-o", str(out),
                        "--parallelism", parallelism)
        assert result.exit_code == 0, result.output
        assert json.loads((out / "manifest.json").read_text())["failures"] == []
        logs.append((out / "logs.jsonl").read_bytes())
    assert logs[0] == logs[1]


@pytest.mark.usefixtures("no_handler_threads")
def test_scripted_recording_replays_without_its_script(tmp_path, monkeypatch):
    """A replay reads no script file and is not held to the one worker a
    scripted backend needs: it runs in worker processes and gives the
    recorded logs after the scripts are gone. The generator and the
    verifier were recorded apart, and one replay answers both. Forked
    workers inherit the patch below."""
    import duetsim.experiment
    import duetsim.loop

    backend = RecordingResponder()
    with monkeypatch.context() as patch:
        patch.setattr(duetsim.experiment, "_build_backend", lambda spec, role: backend)
        reference = run_experiment(ExperimentConfig(
            simulator="duet", dialogues=4, parallelism=1,
            output_dir=str(tmp_path / "reference"), generator_backend=CLOSED_PORT))
    scripts = {role: tmp_path / f"{role}.jsonl" for role in ("generator", "verifier")}
    responder = backend.responder
    for _, user in backend.prompts:
        role = "verifier" if responder.kind(user) == responder.VERIFIER else "generator"
        with open(scripts[role], "a", encoding="utf-8") as f:
            f.write(json.dumps(responder.reply(user)) + "\n")
    cassette = {"mode": "record", "path": str(tmp_path / "cassette.jsonl")}
    config = dict(simulator="duet", dialogues=4, parallelism=2, **{
        f"{role}_backend": {"kind": "scripted", "script_file": str(path)}
        for role, path in scripts.items()})
    recorded = run_experiment(ExperimentConfig(
        output_dir=str(tmp_path / "record"), cassette=cassette, **config))
    assert (recorded / "logs.jsonl").read_bytes() == \
        (reference / "logs.jsonl").read_bytes()
    for path in scripts.values():
        path.unlink()

    ran = tmp_path / "ran.txt"
    run_dialogue = duetsim.loop.run_dialogue

    def logged_run_dialogue(*args, **kwargs):
        with open(ran, "a", encoding="utf-8") as f:
            f.write(f"{os.getpid()}\n")
        return run_dialogue(*args, **kwargs)

    monkeypatch.setattr(duetsim.loop, "run_dialogue", logged_run_dialogue)
    out = run_experiment(ExperimentConfig(
        output_dir=str(tmp_path / "replay"), cassette=dict(cassette, mode="replay"),
        **config))
    assert json.loads((out / "manifest.json").read_text())["failures"] == []
    assert (out / "logs.jsonl").read_bytes() == (recorded / "logs.jsonl").read_bytes()
    pids = [int(pid) for pid in ran.read_text().split()]
    assert len(pids) == 4 and os.getpid() not in pids


@pytest.mark.usefixtures("no_handler_threads")
@pytest.mark.parametrize("simulator", ["agenda", "duet-replay"])
def test_parallel_run_is_built_once(tmp_path, monkeypatch, simulator):
    """A parallel run loads its world and its cassette once, in the calling
    process; forked workers inherit what it built and run every dialogue.
    They inherit the patches below too, so a load there would be seen."""
    import duetsim.backend
    import duetsim.experiment
    import duetsim.loop

    cassette = {"mode": "record", "path": str(tmp_path / "cassette.jsonl")}
    fields = {"simulator": "agenda"}
    if simulator == "duet-replay":
        with monkeypatch.context() as patch:
            patch.setattr(duetsim.experiment, "_build_backend",
                          lambda spec, role: VaryingResponder())
            run_experiment(ExperimentConfig(
                simulator="duet", dialogues=8, parallelism=1, cassette=cassette,
                output_dir=str(tmp_path / "record"), generator_backend=CLOSED_PORT))
        fields = {"simulator": "duet", "generator_backend": CLOSED_PORT,
                  "cassette": dict(cassette, mode="replay")}

    calls = tmp_path / "calls.txt"

    def logged(name, function):
        def call(*args, **kwargs):
            with open(calls, "a", encoding="utf-8") as f:
                f.write(f"{name} {os.getpid()}\n")
            return function(*args, **kwargs)
        return call

    for owner, name in ((duetsim.experiment, "load_world"),
                        (duetsim.backend, "load_cassette"),
                        (duetsim.loop, "run_dialogue")):
        monkeypatch.setattr(owner, name, logged(name, getattr(owner, name)))
    out = run_experiment(ExperimentConfig(
        dialogues=8, parallelism=2, output_dir=str(tmp_path / "run"), **fields))
    assert json.loads((out / "manifest.json").read_text())["failures"] == []
    entries = [line.split() for line in calls.read_text().splitlines()]
    built = [entry for entry in entries if entry[0] != "run_dialogue"]
    loads = ["load_world"] + (["load_cassette"] if simulator == "duet-replay" else [])
    assert built == [[name, str(os.getpid())] for name in loads]
    ran = [int(pid) for name, pid in entries if name == "run_dialogue"]
    assert len(ran) == 8 and os.getpid() not in ran


def test_import_does_not_load_process_pool(imported_modules):
    """Only parallel runs pay for importing multiprocessing, and no run
    uses a thread pool."""
    assert not {"multiprocessing", "concurrent.futures.process",
                "concurrent.futures.thread"} & imported_modules


def test_import_does_not_load_the_loop_or_the_backends(imported_modules):
    """``evaluate`` and ``goals`` need no simulator loop, prompt or backend;
    ``simulate`` loads them when it builds its config."""
    assert not {"duetsim.loop", "duetsim.generator", "duetsim.verifier",
                "duetsim.prompts", "duetsim.backend"} & imported_modules


def test_import_does_not_load_http_hashing_or_yaml(imported_modules):
    """Only an http backend loads the HTTP/TLS stack, only a cassette or a
    manifest hashes, and only a config file loads PyYAML."""
    assert not {"http.client", "ssl", "email.parser", "urllib.request",
                "hashlib", "base64", "yaml"} & imported_modules


@pytest.mark.skipif(sys.version_info >= (3, 12),
                    reason="from Python 3.12 importlib.resources._common imports inspect")
def test_cli_import_loads_no_inspect(imported_modules):
    """Before Python 3.12 nothing the CLI imports loads ``inspect``."""
    assert "inspect" not in imported_modules


# Run in a fresh interpreter that has imported only the CLI, so every module
# the code below needs is loaded by the code that uses it.
COLD_PATHS = """
import sys
import duetsim.cli
from duetsim.backend import (BackendConfig, CompletionRequest, HTTPBackend,
                             request_digest)
from duetsim.cli import load_config
from duetsim.errors import ConfigError, RetriesExhausted
from duetsim.prompts import templates_digest

assert "http.client" not in sys.modules
backend = HTTPBackend(BackendConfig(base_url="http://127.0.0.1:9", model="m",
                                    retries=0))
try:
    backend.complete(CompletionRequest("hello"))
except RetriesExhausted as e:
    assert isinstance(e.__cause__, OSError), repr(e.__cause__)
else:
    raise AssertionError("no RetriesExhausted")

assert "yaml" not in sys.modules
try:
    load_config(sys.argv[1], {})
except ConfigError as e:
    assert "invalid YAML" in str(e), e
else:
    raise AssertionError("no ConfigError")

print(request_digest(CompletionRequest("hello", system_text="be brief",
                                       temperature=0.2, max_tokens=8,
                                       stop_sequences=("\\n",))))
print(templates_digest())
"""


def test_cold_error_paths_and_digests(tmp_path, monkeypatch):
    """Error paths and digests work in a process that has not loaded the
    modules they use; the digests are the ones recorded before those
    modules were imported lazily, so cassettes and manifests still match."""
    for name in ("http_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    config = tmp_path / "exp.yaml"
    config.write_text("a: [unclosed")
    out = subprocess.run([sys.executable, "-c", COLD_PATHS, str(config)],
                         capture_output=True, text=True, env=src_env(),
                         timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [
        "d47bf2c04558c7bba3a1cb0ac3d6031b6ff87755ddcf7bb7e493e0796e78fcea",
        "68c7ee04eccc2ffdc7069b50788a38b4fbac46ab1cd279060c9b4d111ead5c72"]


def test_one_dialogue_runs_in_this_process(tmp_path, monkeypatch):
    """With one dialogue, ``parallelism`` starts no worker processes."""
    import duetsim.loop

    ran = []
    run_dialogue = duetsim.loop.run_dialogue

    def tracked_run_dialogue(*args, **kwargs):
        ran.append(os.getpid())
        return run_dialogue(*args, **kwargs)

    monkeypatch.setattr(duetsim.loop, "run_dialogue", tracked_run_dialogue)
    run_experiment(ExperimentConfig(simulator="agenda", dialogues=1,
                                    parallelism=3,
                                    output_dir=str(tmp_path / "run")))
    assert ran == [os.getpid()]


def test_scripted_verifier_runs_one_dialogue_at_a_time(tmp_path, monkeypatch):
    """A scripted verifier answers in call order, so a run with one uses a
    single worker whatever the generator is and ``parallelism`` says."""
    import duetsim.loop

    script = tmp_path / "verifier.jsonl"
    script.write_text('"ACCEPT"\n')
    ran = set()
    run_dialogue = duetsim.loop.run_dialogue

    def tracked_run_dialogue(*args, **kwargs):
        ran.add((os.getpid(), threading.get_ident()))
        return run_dialogue(*args, **kwargs)

    monkeypatch.setattr(duetsim.loop, "run_dialogue", tracked_run_dialogue)
    out = run_experiment(ExperimentConfig(
        simulator="duet", dialogues=8, parallelism=4,
        output_dir=str(tmp_path / "run"),
        generator_backend={"kind": "http", "base_url": "http://127.0.0.1:9",
                           "retries": 0},
        verifier_backend={"kind": "scripted", "script_file": str(script)}))
    assert ran == {(os.getpid(), threading.get_ident())}
    logs = [json.loads(line)["log"] for line in
            (out / "logs.jsonl").read_text().splitlines()]
    assert [(log["seed"], log["termination_reason"]) for log in logs] == \
        [(seed, "error") for seed in range(8)]  # the generator is unreachable
    failures = json.loads((out / "manifest.json").read_text())["failures"]
    assert [failure["seed"] for failure in failures] == list(range(8))
    assert all(failure["error"].startswith("RetriesExhausted: ")
               for failure in failures)



# sha256 of duet logs.jsonl for seeds 0-9 and of every prompt sent, against
# perfbench/responder.py, recorded before the dialogue state was slimmed
# down. Any change to them means a change in duet behaviour.
DUET_SEEDS_0_9_SHA256 = {
    ("utterances", "duet"): (
        "245b5e30ef8f9e1b3dd844594d5d20c55508e677160fa595558863576adc8cd4",
        "24217a23caffea255ed7a413562475ac305e8a1670ba741be637bd7c80483cd9"),
    ("utterances", "duet-no-verifier"): (
        "dd7549096ae15e0a46ccc35234272b9fd78ffd4ec0fb671a9f7a4e04ef678cb6",
        "536732eb8a422d3c37903919b3d0ba0d668ace89770610fd923d2d34f7d97984"),
    ("acts", "duet"): (
        "245b5e30ef8f9e1b3dd844594d5d20c55508e677160fa595558863576adc8cd4",
        "7450ce5bed2356c356f34c4fb92b007a8e9c7787159536badc34e0a7f690191a"),
    ("acts", "duet-no-verifier"): (
        "dd7549096ae15e0a46ccc35234272b9fd78ffd4ec0fb671a9f7a4e04ef678cb6",
        "3a93ef4d3fdccd93b7403cc7ee0f0deaef22e86e88a65919abd4b4301bc161a2"),
}

# sha256 of the cassette that a duet run of seeds 0-9 records against
# perfbench/fake_server.py; see test_parallel_http_cassette_pinned.
DUET_CASSETTE_SEEDS_0_9_SHA256 = (
    "c87a014bc05765533ce1f5f707de76ac72dbf114c7266fb6e6f75b547d0e7183")


@pytest.mark.parametrize("parallelism", [1, 2, 4])
def test_parallel_http_duet_logs_pinned(tmp_path, fake_server_url, parallelism):
    """Duet dialogues over HTTP give the same logs on one worker and on
    lanes."""
    out = run_experiment(ExperimentConfig(
        simulator="duet", dialogues=10, seed=0, turn_cap=20,
        parallelism=parallelism, output_dir=str(tmp_path / "run"),
        generator_backend={"kind": "http", "base_url": fake_server_url,
                           "model": "fake"}))
    assert json.loads((out / "manifest.json").read_text())["failures"] == []
    data = (out / "logs.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == \
        DUET_SEEDS_0_9_SHA256["utterances", "duet"][0]


@pytest.mark.usefixtures("no_handler_threads")
@pytest.mark.parametrize("parallelism,start_methods", [
    (1, None), (2, None), (2, ["spawn"])], ids=["1", "2", "2-spawn"])
def test_parallel_http_cassette_pinned(tmp_path, monkeypatch, fake_server_url,
                                       parallelism, start_methods):
    """A cassette recorded over HTTP is the same file on one worker and on
    lanes. Its replay at that parallelism, on worker processes forked or
    spawned, gives the recorded logs, and so does the replay of each seed
    alone."""
    import multiprocessing

    if start_methods:
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: start_methods)
    cassette = {"mode": "record", "path": str(tmp_path / "cassette.jsonl")}

    def run(name, mode, base_url=fake_server_url, seed=0, dialogues=10):
        out = run_experiment(ExperimentConfig(
            simulator="duet", dialogues=dialogues, seed=seed, turn_cap=20,
            parallelism=parallelism, output_dir=str(tmp_path / name),
            generator_backend={"kind": "http", "base_url": base_url,
                               "model": "fake"},
            cassette=dict(cassette, mode=mode)))
        assert json.loads((out / "manifest.json").read_text())["failures"] == []
        return (out / "logs.jsonl").read_bytes()

    recorded = run("record", "record")
    assert hashlib.sha256(recorded).hexdigest() == \
        DUET_SEEDS_0_9_SHA256["utterances", "duet"][0]
    data = (tmp_path / "cassette.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == DUET_CASSETTE_SEEDS_0_9_SHA256
    # the replays point at a closed port: a request they sent would fail
    assert run("replay", "replay", CLOSED_PORT["base_url"]) == recorded
    lines = recorded.splitlines(keepends=True)
    for seed in range(10):
        assert run(f"seed-{seed}", "replay", CLOSED_PORT["base_url"],
                   seed=seed, dialogues=1) == lines[seed]


def test_lanes_wait_for_a_slow_dialogue_to_be_written(tmp_path, monkeypatch):
    """Behind a first dialogue that blocks, the other lane starts only the
    dialogues the window leaves it, so this process holds a bounded number
    of records; the logs are those of one worker."""
    import time

    import duetsim.experiment
    import duetsim.loop

    monkeypatch.setattr(duetsim.experiment, "_build_backend",
                        lambda spec, role: RecordingResponder())
    config = dict(simulator="duet", dialogues=40, turn_cap=4, generator_backend=CLOSED_PORT)
    alone = run_experiment(ExperimentConfig(parallelism=1, output_dir=str(tmp_path / "1"),
                                            **config))
    run_dialogue = duetsim.loop.run_dialogue
    window = duetsim.experiment.WINDOW_PER_WORKER * 2  # dialogues, for two lanes
    started, ahead = [], []
    release = threading.Event()

    def blocking_run_dialogue(*args, **kwargs):
        started.append(kwargs["seed"])
        if kwargs["seed"] == 0:
            deadline = time.monotonic() + 10
            while len(started) < window and time.monotonic() < deadline:
                release.wait(0.01)
            release.wait(0.2)  # time for the other lane to start one more
            ahead.extend(started)
        return run_dialogue(*args, **kwargs)

    monkeypatch.setattr(duetsim.loop, "run_dialogue", blocking_run_dialogue)
    out = run_experiment(ExperimentConfig(parallelism=2, output_dir=str(tmp_path / "2"),
                                          **config))
    assert sorted(ahead) == list(range(window))
    assert sorted(started) == list(range(40))
    assert (out / "logs.jsonl").read_bytes() == (alone / "logs.jsonl").read_bytes()


def test_many_lanes_start_each_seed_once(tmp_path, monkeypatch):
    """Eight lanes on two CPUs, switching threads as often as the
    interpreter allows, start every seed exactly once and write the logs of
    one worker."""
    import duetsim.experiment
    import duetsim.loop

    monkeypatch.setattr(duetsim.experiment, "_build_backend",
                        lambda spec, role: RecordingResponder())
    config = dict(simulator="duet", dialogues=40, turn_cap=4, generator_backend=CLOSED_PORT)
    alone = run_experiment(ExperimentConfig(parallelism=1, output_dir=str(tmp_path / "1"),
                                            **config))
    run_dialogue = duetsim.loop.run_dialogue
    started = []

    def counted_run_dialogue(*args, **kwargs):
        started.append(kwargs["seed"])
        return run_dialogue(*args, **kwargs)

    monkeypatch.setattr(duetsim.loop, "run_dialogue", counted_run_dialogue)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = run_experiment(ExperimentConfig(parallelism=8, output_dir=str(tmp_path / "8"),
                                              **config))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(started) == list(range(40))
    assert (out / "logs.jsonl").read_bytes() == (alone / "logs.jsonl").read_bytes()


@pytest.mark.parametrize("ending", ["completes", "raises", "write_fails"])
def test_no_lane_outlives_the_run(tmp_path, monkeypatch, ending):
    """Every lane has ended when ``run_experiment`` returns or raises, so a
    later fork copies none. A dialogue still in flight when the run fails
    ends at its next backend call, not at its last."""
    import time

    import duetsim.experiment

    calls = []

    class SlowResponder(RecordingResponder):
        def complete(self, request):
            calls.append(request)
            time.sleep(0.02)
            return super().complete(request)

    monkeypatch.setattr(duetsim.experiment, "_build_backend",
                        lambda spec, role: SlowResponder())
    out = tmp_path / "run"
    expected = None
    if ending == "raises":
        generate_goal = duetsim.world.generate_goal

        def failing_generate_goal(seed, *args):
            if seed == 0:
                raise EmptyWorld("no entities for domain 'hotel'")
            return generate_goal(seed, *args)

        monkeypatch.setattr(duetsim.world, "generate_goal", failing_generate_goal)
        expected = EmptyWorld
    elif ending == "write_fails":
        if not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        out.mkdir()
        (out / "logs.jsonl").symlink_to("/dev/full")  # the first flush fails
        expected = OSError
    config = ExperimentConfig(simulator="duet", dialogues=4, parallelism=2, turn_cap=2,
                              output_dir=str(out), generator_backend=CLOSED_PORT)
    if expected is None:
        run_experiment(config)
        assert len((out / "logs.jsonl").read_text().splitlines()) == 4
    else:
        with pytest.raises(expected):
            run_experiment(config)
    assert [thread for thread in threading.enumerate() if thread.name == "duetsim-lane"] == []
    if ending == "raises":
        # seed 1's first user turn alone makes at least 7 calls
        assert len(calls) < 7, f"{len(calls)} calls after seed 0 failed the run"


def test_http_run_loads_no_process_or_thread_pool(tmp_path, fake_server_url):
    """An http run on four lanes, in a fresh interpreter, imports neither
    multiprocessing nor concurrent.futures."""
    printed, loaded = run_fresh(
        "import json\n"
        "from duetsim.experiment import ExperimentConfig, run_experiment\n"
        "out = run_experiment(ExperimentConfig(\n"
        "    simulator='duet', dialogues=4, parallelism=4, turn_cap=4,\n"
        f"    output_dir={str(tmp_path / 'run')!r},\n"
        f"    generator_backend={{'base_url': {fake_server_url!r}, 'model': 'fake'}}))\n"
        "print(json.loads((out / 'manifest.json').read_text())['failures'])")
    assert printed == "[]"
    assert not {"multiprocessing", "concurrent.futures"} & loaded


@pytest.mark.parametrize("context_mode", ["utterances", "acts"])
@pytest.mark.parametrize("simulator", ["duet", "duet-no-verifier"])
def test_duet_logs_pinned(tmp_path, monkeypatch, context_mode, simulator):
    import duetsim.experiment

    backend = RecordingResponder()
    monkeypatch.setattr(duetsim.experiment, "_build_backend", lambda spec, role: backend)
    config = ExperimentConfig(simulator=simulator, dialogues=10, seed=0,
                              turn_cap=20, parallelism=1,
                              context_mode=context_mode,
                              generator_backend=CLOSED_PORT,
                              output_dir=str(tmp_path / "run"))
    data = (run_experiment(config) / "logs.jsonl").read_bytes()
    prompts = json.dumps(backend.prompts).encode("utf-8")
    digests = (hashlib.sha256(data).hexdigest(),
               hashlib.sha256(prompts).hexdigest())
    assert digests == DUET_SEEDS_0_9_SHA256[context_mode, simulator]
