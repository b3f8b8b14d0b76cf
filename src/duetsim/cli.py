"""Command-line harness: simulate N dialogues, evaluate logs, list goals.

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import json
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path

import click
import yaml

from . import __version__
from .acts import DialogueLog
from .agenda import AgendaUserSimulator
from .backend import BackendConfig, CassetteBackend, HTTPBackend, ScriptedBackend
from .errors import (
    ConfigError,
    DuetSimError,
    EmptyLogSet,
    LogParseError,
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

    def workers(self) -> int:
        """Workers: the configured value, else 1 for agenda runs and 4 for
        duet runs (backend-bound). More than one agenda worker means worker
        processes, since agenda runs are CPU-bound; duet workers are threads."""
        if self.parallelism is not None:
            return self.parallelism
        return 1 if self.simulator == "agenda" else 4


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
            raise ConfigError(str(key), "unknown field")
    loop_doc = doc.pop("loop", {}) or {}
    config = ExperimentConfig(**doc)
    try:
        config.loop = LoopConfig(**loop_doc)
    except (TypeError, ValueError) as e:
        raise ConfigError("loop", str(e)) from e
    config.validate()
    return config


def _build_backend(spec: dict, role: str):
    kind = spec.get("kind", "http")
    if kind == "scripted":
        path = spec.get("script_file")
        if not path:
            raise ConfigError(f"{role}.script_file", "required for scripted backend")
        responses = []
        try:
            with open(path, encoding="utf-8") as f:
                for number, line in enumerate(f, start=1):
                    if line.strip():
                        response = json.loads(line)
                        if not isinstance(response, str):
                            raise ConfigError(
                                f"{role}.script_file",
                                f"{path} line {number}: expected a JSON string, "
                                f"got {type(response).__name__}")
                        responses.append(response)
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"{role}.script_file", str(e)) from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"{role}.script_file",
                              f"{path} line {number}: {e}") from e
        return ScriptedBackend(responses)
    if kind == "http":
        try:
            return HTTPBackend(BackendConfig(
                base_url=spec["base_url"],
                model=spec.get("model", ""),
                api_key_env=spec.get("api_key_env", ""),
                timeout=float(spec.get("timeout", 30.0)),
                retries=int(spec.get("retries", 2)),
                backoff_base=float(spec.get("backoff_base", 0.5)),
            ))
        except KeyError as e:
            raise ConfigError(f"{role}.{e.args[0]}", "missing") from e
        except (TypeError, ValueError) as e:
            raise ConfigError(role, str(e)) from e
    raise ConfigError(f"{role}.kind", f"unknown backend kind {kind!r}")


def _wrap_cassette(backend, cassette: dict):
    mode = cassette.get("mode", "off")
    if mode == "off":
        return backend
    if mode not in ("record", "replay"):
        raise ConfigError("cassette.mode", "must be record, replay or off")
    path = cassette.get("path")
    if not path:
        raise ConfigError("cassette.path", "required when cassette is enabled")
    inner = backend if mode == "record" else None
    return CassetteBackend(path=path, mode=mode, inner=inner)


def build_simulator_factory(config: ExperimentConfig, ontology, entities):
    """Returns (factory(goal) -> user simulator, sequential_required, backends)."""
    if config.simulator == "agenda":
        return (lambda goal: AgendaUserSimulator(goal)), False, ()

    gen_backend = _build_backend(config.generator_backend, "generator_backend")
    ver_spec = config.verifier_backend or config.generator_backend
    same = ver_spec is config.generator_backend or ver_spec == config.generator_backend
    ver_backend = gen_backend if same else _build_backend(ver_spec, "verifier_backend")
    backends = (gen_backend, ver_backend)
    sequential = isinstance(gen_backend, ScriptedBackend)
    cassette_mode = config.cassette.get("mode", "off")
    gen_backend = _wrap_cassette(gen_backend, config.cassette)
    ver_backend = gen_backend if same else _wrap_cassette(ver_backend, config.cassette)
    if cassette_mode == "record":
        sequential = True  # keep the cassette append order reproducible

    prompt_config = PromptConfig(omit_goal=config.omit_goal,
                                 omit_history=config.omit_history,
                                 render_mode=config.context_mode)
    loop_config = config.loop
    if config.simulator == "duet-no-verifier":
        loop_config = LoopConfig(max_iterations=loop_config.max_iterations,
                                 verifier_enabled=False,
                                 on_exhaustion=loop_config.on_exhaustion)

    def factory(goal):
        session = DuetSession(goal=goal, ontology=ontology,
                              generator_backend=gen_backend,
                              verifier_backend=ver_backend,
                              loop_config=loop_config,
                              prompt_config=prompt_config)
        return DuetUserSimulator(session)

    return factory, sequential, backends


class _DialogueRunner:
    """Runs one dialogue per seed; each process that runs dialogues builds one."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.ontology, self.entities = load_world(config.world)
        self.factory, self.sequential, self.backends = build_simulator_factory(
            config, self.ontology, self.entities)

    def __call__(self, seed: int) -> tuple[str, dict | None]:
        """(record line, failure entry or None); a failed dialogue gets an error log."""
        from .loop import run_dialogue

        try:
            goal = generate_goal(seed, self.ontology, self.entities)
            user = self.factory(goal)
            system = SystemAgent(self.ontology, self.entities, seed=seed)
            log = run_dialogue(goal, user, system,
                               max_user_turns=self.config.turn_cap, seed=seed)
            failure = None
        except Exception as e:
            log = _error_log(seed, self.ontology, self.entities)
            failure = {"seed": seed, "error": str(e)}
        record = {"v": LOG_SCHEMA_VERSION, "log": log.to_dict()}
        return json.dumps(record, sort_keys=True) + "\n", failure


_worker_runner: _DialogueRunner | None = None  # set in each worker process


def _init_worker(config: ExperimentConfig) -> None:
    global _worker_runner
    _worker_runner = _DialogueRunner(config)


def _run_in_worker(seed: int) -> tuple[str, dict | None]:
    return _worker_runner(seed)


def _records(runner: _DialogueRunner, seeds: range, workers: int):
    """(record line, failure entry or None) for each seed, in seed order.

    Parallel agenda dialogues are CPU-bound, so they run in worker processes;
    duet dialogues wait on the backend and share its connections and
    cassette, so they run on threads.
    """
    if workers == 1:
        yield from map(runner, seeds)
    elif runner.config.simulator != "agenda":
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(runner, seeds)
    else:
        yield from _records_from_processes(runner.config, seeds, workers)


def _records_from_processes(config: ExperimentConfig, seeds: range, workers: int):
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
        initializer=_init_worker, initargs=(config,))
    try:
        yield from pool.map(_run_in_worker, seeds, chunksize=chunk)
    except BrokenProcessPool as e:
        raise WorkerFailed(f"a worker process died: {e}") from e
    except Exception as e:  # raised by a worker, e.g. pickling its result
        raise WorkerFailed(f"a worker failed: {type(e).__name__}: {e}") from e
    finally:
        pool.shutdown(cancel_futures=True)


def run_experiment(config: ExperimentConfig) -> Path:
    """Run the configured number of dialogues and write logs plus manifest."""
    runner = _DialogueRunner(config)
    lint_all_templates()

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "logs.jsonl"

    seeds = range(config.seed, config.seed + config.dialogues)
    started = time.time()
    failures = []
    workers = 1 if runner.sequential else config.workers()
    try:
        with open(log_path, "w", encoding="utf-8") as log_file, \
                closing(_records(runner, seeds, workers)) as records:
            # Records arrive in seed order and each is dropped once written.
            for line, failure in records:
                if failure:
                    failures.append(failure)
                log_file.write(line)
                log_file.flush()
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
                     "verifier_enabled": config.loop.verifier_enabled,
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


def _error_log(seed, ontology, entities) -> DialogueLog:
    from .acts import LogAnnotations
    goal = generate_goal(seed, ontology, entities)
    return DialogueLog(goal=goal, turns=[],
                       annotations=LogAnnotations((), ()),
                       termination_reason="error", seed=seed)


def read_logs(paths) -> list[DialogueLog]:
    logs = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            for i, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    logs.append(DialogueLog.from_dict(record["log"]))
                except (json.JSONDecodeError, KeyError, TypeError) as e:
                    raise LogParseError(i, f"{path}: {e}") from e
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
              help="Workers: processes for agenda runs, threads for duet "
                   "runs. Default: 1 for agenda runs, 4 for duet runs; an "
                   "explicit value is always used.")
@click.option("--output-dir", "-o", type=click.Path(), default=None)
@click.option("--context-mode", type=click.Choice(["utterances", "acts"]),
              default=None)
@click.option("--omit-goal", is_flag=True, default=None)
@click.option("--omit-history", is_flag=True, default=None)
def simulate(config_path, **overrides):
    """Run an experiment and write logs plus a manifest."""
    try:
        config = load_config(config_path, overrides)
    except (ConfigError, TypeError) as e:
        _fail(e if isinstance(e, ConfigError) else ConfigError("config", str(e)), 1)
    try:
        out_dir = run_experiment(config)
    except ConfigError as e:
        _fail(e, 1)
    except DuetSimError as e:
        _fail(e, 2)
    click.echo(str(out_dir))


@main.command()
@click.argument("log_paths", nargs=-1, required=True, type=click.Path(exists=True))
@click.option("--world", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["table", "json"]),
              default="table")
def evaluate(log_paths, world, fmt):
    """Compute fulfillment and diversity reports over log files."""
    try:
        logs = read_logs(log_paths)
        if not logs:
            raise EmptyLogSet("no log records found")
        ontology, entities = load_world(world)
        f_report = fulfillment(logs, ontology, entities)
        d_report = diversity(user_utterances(logs))
    except (LogParseError, EmptyLogSet, WorldError) as e:
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
