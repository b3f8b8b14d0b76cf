import gc
import hashlib
import json
import os
import threading
import weakref

import pytest
import yaml
from click.testing import CliRunner

from duetsim.acts import DialogueLog
from duetsim.cli import (
    ExperimentConfig,
    load_config,
    main,
    read_logs,
    run_experiment,
)
from duetsim.errors import ConfigError, LogParseError


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


class TestCommands:
    def invoke(self, *args):
        return CliRunner().invoke(main, list(args))

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

    def test_corrupt_log_exit_2(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{nope\n")
        result = self.invoke("evaluate", str(bad))
        assert result.exit_code == 2

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

    def test_bad_http_backend_config_exit_1(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump({
            "simulator": "duet", "dialogues": 1,
            "output_dir": str(tmp_path / "run"),
            "generator_backend": {"kind": "http", "base_url": "localhost:8000",
                                  "timeout": 0}}))
        result = self.invoke("simulate", "-c", str(path))
        assert result.exit_code == 1, result.output
        assert "generator_backend" in result.output

    @pytest.mark.parametrize("fault", ["dies", "unpicklable"])
    def test_worker_failure_exit_2(self, tmp_path, monkeypatch, fault):
        """A dead worker process, or a result it cannot send back, is one
        error line and exit 2. Forked workers inherit the patches below."""
        import duetsim.cli
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
            run_one = duetsim.cli._DialogueRunner.__call__

            def unpicklable_run_one(self, seed):
                line, failure = run_one(self, seed)
                return (threading.Lock() if seed == 7 else line), failure

            monkeypatch.setattr(duetsim.cli._DialogueRunner, "__call__",
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
        runner = CliRunner()
        paths = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = runner.invoke(main, ["simulate", "-n", "5", "--seed", "11",
                                          "-o", str(out)])
            assert result.exit_code == 0, result.output
            paths.append(out / "logs.jsonl")
        assert paths[0].read_bytes() == paths[1].read_bytes()


# sha256 of agenda logs.jsonl for seeds 0-199, turn_cap 20, bundled world,
# recorded before the agenda, world and metrics hot paths were rewritten.
# Any change to it means a change in agenda behaviour.
AGENDA_SEEDS_0_199_SHA256 = (
    "49ff18977a64cc0f958ee44656c5107716a1cd83daade87a1c64a4e9a6fa4373")


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


def test_failed_dialogue_same_at_any_parallelism(tmp_path, monkeypatch):
    """A dialogue that raises gives the same error log, in seed order, and
    the same failure entry on one worker and on worker processes."""
    import duetsim.loop

    run_dialogue = duetsim.loop.run_dialogue

    def failing_run_dialogue(*args, **kwargs):
        if kwargs["seed"] == 13:
            raise RuntimeError("no dialogue for seed 13")
        return run_dialogue(*args, **kwargs)

    monkeypatch.setattr(duetsim.loop, "run_dialogue", failing_run_dialogue)
    runs = []
    for parallelism in (1, 2):
        out = run_experiment(ExperimentConfig(
            simulator="agenda", dialogues=40, seed=0, parallelism=parallelism,
            output_dir=str(tmp_path / str(parallelism))))
        manifest = json.loads((out / "manifest.json").read_text())
        runs.append(((out / "logs.jsonl").read_bytes(), manifest["failures"]))
    assert runs[0] == runs[1]
    data, failures = runs[0]
    assert failures == [{"seed": 13, "error": "no dialogue for seed 13"}]
    logs = [json.loads(line)["log"] for line in data.splitlines()]
    assert [log["seed"] for log in logs] == list(range(40))
    assert [log["termination_reason"] == "error" for log in logs].index(True) == 13
    assert logs[13]["turns"] == []


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


def test_written_duet_logs_are_released(tmp_path, monkeypatch):
    """Duet runs stay on threads, where a log is dropped once written.
    Replaying a cassette behind an HTTP backend spec makes the run parallel
    without any request reaching the endpoint."""
    import duetsim.cli
    import duetsim.loop

    dialogues = 12
    turn = ["bye", "general", "", "", "ACCEPT", "Goodbye.", "Thanks, bye!"]
    script = tmp_path / "script.jsonl"
    script.write_text("".join(json.dumps(line) + "\n" for line in turn * dialogues))
    cassette = {"mode": "record", "path": str(tmp_path / "cassette.jsonl")}
    run_experiment(ExperimentConfig(
        simulator="duet", dialogues=dialogues, output_dir=str(tmp_path / "record"),
        generator_backend={"kind": "scripted", "script_file": str(script)},
        cassette=cassette))

    alive = {}
    run_dialogue = duetsim.loop.run_dialogue
    records = duetsim.cli._records

    def tracked_run_dialogue(*args, **kwargs):
        log = run_dialogue(*args, **kwargs)
        alive[log.seed] = weakref.ref(log)
        return log

    def checked_records(*args):
        for line, failure in records(*args):
            seed = json.loads(line)["log"]["seed"]
            gc.collect()
            assert not [s for s, ref in alive.items() if s < seed and ref()]
            yield line, failure

    monkeypatch.setattr(duetsim.loop, "run_dialogue", tracked_run_dialogue)
    monkeypatch.setattr(duetsim.cli, "_records", checked_records)
    out = run_experiment(ExperimentConfig(
        simulator="duet", dialogues=dialogues, parallelism=2,
        output_dir=str(tmp_path / "replay"),
        generator_backend={"kind": "http", "base_url": "http://127.0.0.1:9"},
        cassette=dict(cassette, mode="replay")))
    assert len(alive) == dialogues
    assert json.loads((out / "manifest.json").read_text())["failures"] == []
    assert (out / "logs.jsonl").read_bytes() == \
        (tmp_path / "record" / "logs.jsonl").read_bytes()


def test_import_does_not_load_process_pool(imported_modules):
    """Only parallel agenda runs pay for importing multiprocessing."""
    assert not {"multiprocessing", "concurrent.futures.process"} & imported_modules

