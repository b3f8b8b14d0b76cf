"""Command-line harness: simulate N dialogues, evaluate logs, list goals.

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import json
import os
import re
import time
from contextlib import closing, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import click

from . import __version__
from .acts import ActTable, DialogueLog, require_int, require_string
from .agenda import AgendaUserSimulator
from .backend import (BackendConfig, CassetteBackend, HTTPBackend, ScriptedBackend,
                      load_cassette)
from .errors import (
    CassetteIOError,
    ConfigError,
    DuetSimError,
    EmptyLogSet,
    LogParseError,
    LogReadError,
    WorkerFailed,
    WorldError,
)
from .loop import DEFAULT_TURN_CAP, DuetSession, DuetUserSimulator, LoopConfig
from .metrics import diversity, fulfillment, render_report, user_utterances
from .prompts import PromptConfig, lint_all_templates, templates_digest
from .system import SystemAgent
from .world import describe_goal, generate_goal, load_world

LOG_SCHEMA_VERSION = 1

SIMULATOR_KINDS = ("duet", "duet-no-verifier", "agenda")

MAX_CHUNK = 32  # dialogues per hand-off to a worker process

# The type each config field must have; world and parallelism may be null.
_FIELD_TYPES = {
    "simulator": str, "world": str, "output_dir": str, "context_mode": str,
    "dialogues": int, "seed": int, "turn_cap": int, "parallelism": int,
    "omit_goal": bool, "omit_history": bool,
    "generator_backend": dict, "verifier_backend": dict, "cassette": dict,
}
_NULLABLE_FIELDS = ("world", "parallelism")
_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number",
               bool: "true or false", dict: "a mapping"}

# The keys a backend spec of each kind may hold, and a cassette block, with
# the type of each; float stands for any number.
_BACKEND_FIELDS = {
    "http": {"kind": str, "base_url": str, "model": str, "api_key_env": str,
             "timeout": float, "retries": int, "backoff_base": float},
    "scripted": {"kind": str, "script_file": str},
}
_CASSETTE_FIELDS = {"mode": str, "path": str}


def _check_type(name: str, value, kind: type) -> None:
    # bool is a subclass of int, but `seed: true` is not a seed
    if not isinstance(value, (int, float) if kind is float else kind) or (
            kind in (int, float) and isinstance(value, bool)):
        raise ConfigError(name, f"must be {_TYPE_NAMES[kind]}, "
                                f"not {type(value).__name__}")


def _check_block(block: dict, types: dict, prefix: str) -> None:
    for key, value in block.items():
        if key not in types:
            raise ConfigError(prefix + key, "unknown field")
        _check_type(prefix + key, value, types[key])


@dataclass
class ExperimentConfig:
    simulator: str = "agenda"
    world: str | None = None
    dialogues: int = 100
    seed: int = 0
    turn_cap: int = DEFAULT_TURN_CAP
    parallelism: int | None = None  # None: see workers()
    output_dir: str = "runs/latest"
    context_mode: str = "utterances"
    omit_goal: bool = False
    omit_history: bool = False
    loop: LoopConfig = field(default_factory=LoopConfig)
    generator_backend: dict = field(default_factory=dict)
    verifier_backend: dict = field(default_factory=dict)
    cassette: dict = field(default_factory=dict)

    def validate(self) -> None:
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if value is None and name in _NULLABLE_FIELDS:
                continue
            _check_type(name, value, kind)
        if self.simulator not in SIMULATOR_KINDS:
            raise ConfigError("simulator", f"must be one of {SIMULATOR_KINDS}")
        if self.dialogues < 1:
            raise ConfigError("dialogues", "must be >= 1")
        if self.turn_cap < 1:
            raise ConfigError("turn_cap", "must be >= 1")
        if self.parallelism is not None and self.parallelism < 1:
            raise ConfigError("parallelism", "must be >= 1")
        if self.context_mode not in ("utterances", "acts"):
            raise ConfigError("context_mode", "must be 'utterances' or 'acts'")
        if self.simulator.startswith("duet") and not self.generator_backend:
            raise ConfigError("generator_backend",
                              "required for duet simulators")
        # Every block is checked, also one this run does not build.
        for role in ("generator_backend", "verifier_backend"):
            spec = getattr(self, role)
            kind = spec.get("kind", "http")
            if not isinstance(kind, str) or kind not in _BACKEND_FIELDS:
                raise ConfigError(f"{role}.kind", f"unknown backend kind {kind!r}")
            _check_block(spec, _BACKEND_FIELDS[kind], f"{role}.")
        mode = self.cassette.get("mode", "off")
        if mode not in ("record", "replay", "off"):
            hint = " (YAML reads a bare off as false; quote it)" if mode is False else ""
            raise ConfigError("cassette.mode",
                              f"must be record, replay or off, got {mode!r}{hint}")
        _check_block(self.cassette, _CASSETTE_FIELDS, "cassette.")
        if mode != "off" and not self.cassette.get("path"):
            raise ConfigError("cassette.path", "required when cassette is enabled")

    def backend_specs(self) -> list[tuple[str, dict]]:
        """(field, spec) of each backend the run builds and calls: none for
        agenda or a replay; else the generator's and, for a duet run whose
        verifier spec differs from it, the verifier's."""
        if self.simulator == "agenda" or self.cassette.get("mode") == "replay":
            return []
        specs = [("generator_backend", self.generator_backend)]
        verifier = self.verifier_backend or self.generator_backend
        if self.simulator == "duet" and verifier != self.generator_backend:
            specs.append(("verifier_backend", verifier))
        return specs

    def workers(self) -> int:
        """Workers: 1 for a run that calls a scripted backend, which answers
        in call order; else ``parallelism``, or 1 for agenda and 4 for
        (backend-bound) duet runs, but never more than the dialogues. More
        than one means worker processes, started up front."""
        if any(spec.get("kind") == "scripted" for _, spec in self.backend_specs()):
            return 1
        if self.parallelism is not None:
            workers = self.parallelism
        else:
            workers = 1 if self.simulator == "agenda" else 4
        return min(workers, self.dialogues)


_ENV_RE = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")


def _interpolate_env(obj):
    """Replace ${VAR} with the environment value, recursively."""
    if isinstance(obj, str):
        return _ENV_RE.sub(lambda m: os.environ.get(m.group(1), ""), obj)
    if isinstance(obj, dict):
        return {k: _interpolate_env(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_interpolate_env(v) for v in obj]
    return obj


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    doc = {}
    if path:
        import yaml  # only a config file needs PyYAML

        try:
            with open(path, encoding="utf-8") as f:
                doc = yaml.safe_load(f) or {}
        except OSError as e:
            raise ConfigError("config", str(e)) from e
        except yaml.YAMLError as e:
            raise ConfigError("config", f"invalid YAML: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError("config", "top level must be a mapping")
    doc = _interpolate_env(doc)
    doc.update({k: v for k, v in overrides.items() if v is not None})
    for key in doc:
        if key not in ExperimentConfig.__dataclass_fields__:
            raise ConfigError(key, "unknown field")
    loop_doc = doc.pop("loop", {}) or {}
    config = ExperimentConfig(**doc)
    try:
        config.loop = LoopConfig(**loop_doc)
    except (TypeError, ValueError) as e:
        raise ConfigError("loop", str(e)) from e
    config.validate()
    return config


def _build_backend(spec: dict, role: str):
    """The backend a spec that ``ExperimentConfig.validate`` accepted names."""
    if spec.get("kind", "http") == "scripted":
        path = spec.get("script_file")
        if not path:
            raise ConfigError(f"{role}.script_file", "required for scripted backend")
        responses = []
        try:
            with open(path, "rb") as f:
                for number, line in enumerate(f, start=1):
                    if line.strip():
                        responses.append(require_string("response", json.loads(line.decode())))
        except OSError as e:
            raise ConfigError(f"{role}.script_file", str(e)) from e
        except (TypeError, ValueError) as e:  # not UTF-8, not JSON, not a string
            raise ConfigError(f"{role}.script_file", f"{path} line {number}: {e}") from e
        return ScriptedBackend(responses)
    if "base_url" not in spec:
        raise ConfigError(f"{role}.base_url", "missing")
    try:
        return HTTPBackend(BackendConfig(**{k: v for k, v in spec.items() if k != "kind"}))
    except ValueError as e:
        raise ConfigError(role, str(e)) from e


class _DialogueRunner:
    """Runs one dialogue per seed. The one place that builds a run, once and
    only what its dialogues call: the world and, for a duet run, the prompt
    config and either its backends or, in a replay, the cassette replies."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.ontology, self.entities = load_world(config.world)
        # run_experiment closes the backends
        self.backends = tuple(_build_backend(spec, role)
                              for role, spec in config.backend_specs())
        self.replies = None
        if config.simulator == "agenda":
            return
        if config.cassette.get("mode") == "replay":  # calls no backend
            self.replies = load_cassette(config.cassette["path"])
        self.prompt_config = PromptConfig(omit_goal=config.omit_goal,
                                          omit_history=config.omit_history,
                                          render_mode=config.context_mode)

    def __reduce__(self):
        """Pickled, as for a spawned worker, the run is rebuilt from its config."""
        return _DialogueRunner, (self.config,)

    def __call__(self, seed: int) -> tuple[str, dict | None, str]:
        """(record line, failure entry or None, cassette lines recorded)."""
        from .loop import run_dialogue

        config = self.config
        goal = generate_goal(seed, self.ontology, self.entities)
        cassettes = ()
        # One replay answers both roles: their requests differ in temperature,
        # so no digest is both roles'.
        if self.replies is not None:
            cassettes = (CassetteBackend(seed, replies=self.replies),)
        elif config.cassette.get("mode") == "record":
            cassettes = tuple(CassetteBackend(seed, inner=b) for b in self.backends)
        if config.simulator == "agenda":
            user = AgendaUserSimulator(goal)
        else:
            clients = cassettes or self.backends
            user = DuetUserSimulator(DuetSession(
                goal=goal, ontology=self.ontology, generator_backend=clients[0],
                verifier_backend=clients[-1] if config.simulator == "duet" else None,
                loop_config=config.loop, prompt_config=self.prompt_config))
        log = run_dialogue(goal, user,
                           SystemAgent(self.ontology, self.entities, seed=seed),
                           max_user_turns=config.turn_cap, seed=seed)
        failure = {"seed": seed, "error": log.error} if log.error else None
        record = {"v": LOG_SCHEMA_VERSION, "log": log.to_dict()}
        return (json.dumps(record, sort_keys=True) + "\n", failure,
                "".join(line for cassette in cassettes for line in cassette.lines))


_worker_runner: _DialogueRunner | None = None  # set in each worker process


def _init_worker(runner: _DialogueRunner) -> None:
    global _worker_runner
    _worker_runner = runner


def _run_in_worker(seed: int) -> tuple[str, dict | None, str]:
    return _worker_runner(seed)


def _records(runner: _DialogueRunner, seeds: range, workers: int):
    """What ``runner`` returns for each seed, in seed order. More than one
    worker means worker processes, which inherit ``runner`` when forked and
    rebuild it from its config when spawned."""
    if workers == 1:
        yield from map(runner, seeds)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # A forked worker starts from this interpreter; spawn and forkserver
    # import duetsim again in each worker, about 0.1 s per pool.
    fork = "fork" in multiprocessing.get_all_start_methods()
    # Contiguous chunks spread the hand-off cost over many dialogues and keep
    # few futures pending; several chunks per worker even out the finish.
    chunk = max(1, min(MAX_CHUNK, len(seeds) // (4 * workers)))
    pool = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork" if fork else "spawn"),
        initializer=_init_worker, initargs=(runner,))
    try:
        yield from pool.map(_run_in_worker, seeds, chunksize=chunk)
    except BrokenProcessPool as e:
        raise WorkerFailed(f"a worker process died: {e}") from e
    except DuetSimError:  # reported as at one worker, e.g. a goal not drawn
        raise
    except Exception as e:  # raised by a worker, e.g. pickling its result
        raise WorkerFailed(f"a worker failed: {type(e).__name__}: {e}") from e
    finally:
        pool.shutdown(cancel_futures=True)


def _open_cassette(cassette: dict):
    """The cassette file a recording writes, emptied; else a null context."""
    if cassette.get("mode") != "record":
        return nullcontext()
    try:
        return open(cassette["path"], "w", encoding="utf-8")
    except OSError as e:
        raise CassetteIOError(f"cannot write cassette {cassette['path']}: {e}") from e


def run_experiment(config: ExperimentConfig) -> Path:
    """Run the configured dialogues; write logs, manifest and, if recording, the cassette."""
    config.validate()
    runner = _DialogueRunner(config)
    lint_all_templates()

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "logs.jsonl"

    seeds = range(config.seed, config.seed + config.dialogues)
    started = time.time()
    failures = []
    try:
        with open(log_path, "w", encoding="utf-8") as log_file, \
                _open_cassette(config.cassette) as cassette_file, \
                closing(_records(runner, seeds, config.workers())) as records:
            # Records arrive in seed order and each is dropped once written.
            for line, failure, cassette_lines in records:
                if failure:
                    failures.append(failure)
                log_file.write(line)
                log_file.flush()
                if cassette_lines:
                    cassette_file.write(cassette_lines)
                    cassette_file.flush()
    finally:
        for backend in runner.backends:
            if isinstance(backend, HTTPBackend):
                backend.close()

    manifest = {
        "config": {
            "simulator": config.simulator, "world": config.world,
            "dialogues": config.dialogues, "seed": config.seed,
            "turn_cap": config.turn_cap, "context_mode": config.context_mode,
            "omit_goal": config.omit_goal, "omit_history": config.omit_history,
            "loop": {"max_iterations": config.loop.max_iterations,
                     "on_exhaustion": config.loop.on_exhaustion},
        },
        "version": __version__,
        "templates_digest": templates_digest(),
        "started": started,
        "duration_s": time.time() - started,
        "failures": failures,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
    return out_dir


def read_logs(paths, ontology=None) -> list[DialogueLog]:
    """The log records of ``paths``, in order. Given an ontology, a booking
    in a domain it does not know is an error that names the record."""
    logs = []
    acts = ActTable()  # equal acts of this call share one DialogueAct
    for path in paths:
        try:
            f = open(path, "rb")  # each line is decoded where its errors are caught
        except OSError as e:
            raise LogReadError(f"cannot read log {path}: {e}") from e
        with f:
            for i, line in enumerate(f, start=1):
                try:
                    line = line.decode("utf-8").strip()
                    if not line:
                        continue
                    record = json.loads(line)
                    if (v := require_int("v", record["v"])) != LOG_SCHEMA_VERSION:
                        raise ValueError(f"v: got {v}, expected {LOG_SCHEMA_VERSION}")
                    log = DialogueLog.from_dict(record["log"], acts)
                except (ValueError, KeyError, TypeError) as e:
                    raise LogParseError(i, f"{path}: {e}") from e
                for booking in log.annotations.bookings if ontology else ():
                    if not ontology.has_domain(booking.domain):
                        raise LogParseError(i, f"{path}: seed {log.seed}: "
                                            f"unknown domain {booking.domain!r}")
                logs.append(log)
    return logs


# --- click entry points ---

@click.group()
def main():
    """User-simulation harness for task-oriented dialogue."""


def _fail(error: DuetSimError, code: int):
    click.echo(f"error: {error}", err=True)
    raise SystemExit(code)


@main.command()
@click.option("--config", "-c", "config_path", type=click.Path(), default=None,
              help="YAML experiment config; flags override its fields.")
@click.option("--simulator", type=click.Choice(SIMULATOR_KINDS), default=None)
@click.option("--world", type=click.Path(), default=None)
@click.option("--dialogues", "-n", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--turn-cap", type=int, default=None)
@click.option("--parallelism", type=int, default=None,
              help="Worker processes. Default: 1 for agenda runs, 4 for "
                   "duet runs. A duet run that calls a scripted backend "
                   "always uses 1; a replay calls none.")
@click.option("--output-dir", "-o", type=click.Path(), default=None)
@click.option("--context-mode", type=click.Choice(["utterances", "acts"]),
              default=None)
@click.option("--omit-goal", is_flag=True, default=None)
@click.option("--omit-history", is_flag=True, default=None)
def simulate(config_path, **overrides):
    """Run an experiment and write logs plus a manifest."""
    try:
        out_dir = run_experiment(load_config(config_path, overrides))
    except ConfigError as e:
        _fail(e, 1)
    except DuetSimError as e:
        _fail(e, 2)
    click.echo(str(out_dir))


@main.command()
@click.argument("log_paths", nargs=-1, required=True, type=click.Path())
@click.option("--world", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["table", "json"]),
              default="table")
def evaluate(log_paths, world, fmt):
    """Compute fulfillment and diversity reports over log files."""
    try:
        ontology, entities = load_world(world)
        logs = read_logs(log_paths, ontology)
        if not logs:
            raise EmptyLogSet("no log records found")
        f_report = fulfillment(logs, ontology, entities)
        d_report = diversity(user_utterances(logs))
    except (LogParseError, LogReadError, EmptyLogSet, WorldError) as e:
        _fail(e, 2)
    if fmt == "json":
        click.echo(json.dumps({"fulfillment": f_report.to_dict(),
                               "diversity": d_report.to_dict()}, indent=2))
    else:
        click.echo(render_report(f_report, d_report))


@main.command()
@click.option("--seed", type=int, default=0)
@click.option("--count", type=int, default=1)
@click.option("--world", type=click.Path(), default=None)
def goals(seed, count, world):
    """Print randomly generated user goals in human-readable form."""
    if count < 1:
        _fail(ConfigError("count", "must be >= 1"), 1)
    try:
        ontology, entities = load_world(world)
    except WorldError as e:
        _fail(e, 2)
    for s in range(seed, seed + count):
        goal = generate_goal(s, ontology, entities)
        click.echo(f"[goal seed={s}] {describe_goal(goal)}")


if __name__ == "__main__":
    main()
