"""Command-line harness: simulate N dialogues, evaluate logs, list goals.

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import json
import os
import re
import time
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path

import click

from . import __version__
from .acts import ActTable, DialogueLog, require_int
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

# The type each config field must have; world and parallelism may be null.
_FIELD_TYPES = {
    "simulator": str, "world": str, "output_dir": str, "context_mode": str,
    "dialogues": int, "seed": int, "turn_cap": int, "parallelism": int,
    "omit_goal": bool, "omit_history": bool,
    "generator_backend": dict, "verifier_backend": dict, "cassette": dict,
}
_NULLABLE_FIELDS = ("world", "parallelism")
_TYPE_NAMES = {str: "a string", int: "an integer", bool: "true or false",
              dict: "a mapping"}


# The keys a backend spec of each kind may hold, and a cassette block.
_BACKEND_FIELDS = {
    "http": ("kind", *BackendConfig.__dataclass_fields__),
    "scripted": ("kind", "script_file"),
}
_CASSETTE_FIELDS = ("mode", "path")


def _reject_unknown(block: dict, allowed, prefix: str = "") -> None:
    for key in block:
        if key not in allowed:
            raise ConfigError(f"{prefix}{key}", "unknown field")


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
            # bool is a subclass of int, but `seed: true` is not a seed
            if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
                raise ConfigError(name, f"must be {_TYPE_NAMES[kind]}, "
                                        f"not {type(value).__name__}")
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
            if spec:
                kind = spec.get("kind", "http")
                if not isinstance(kind, str) or kind not in _BACKEND_FIELDS:
                    raise ConfigError(f"{role}.kind", f"unknown backend kind {kind!r}")
                _reject_unknown(spec, _BACKEND_FIELDS[kind], f"{role}.")
        _reject_unknown(self.cassette, _CASSETTE_FIELDS, "cassette.")
        mode = self.cassette.get("mode", "off")
        if mode not in ("record", "replay", "off"):
            hint = " (YAML reads a bare off as false; quote it)" if mode is False else ""
            raise ConfigError("cassette.mode",
                              f"must be record, replay or off, got {mode!r}{hint}")
        if mode != "off" and not self.cassette.get("path"):
            raise ConfigError("cassette.path", "required when cassette is enabled")

    def workers(self) -> int:
        """Workers: 1 for a duet run with a scripted generator or verifier
        backend or with a cassette, since each answers in call order; else
        the configured value, or 1 for agenda runs and 4 for duet runs
        (backend-bound), but never more than there are dialogues. More than
        one worker means worker processes, all started up front."""
        if self.simulator != "agenda" and (
                "scripted" in (self.generator_backend.get("kind"),
                               self.verifier_backend.get("kind"))
                or self.cassette.get("mode") in ("record", "replay")):
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
    _reject_unknown(doc, ExperimentConfig.__dataclass_fields__)
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


def _wrap_cassette(backend, cassette: dict):
    """``backend`` behind the cassette block ``ExperimentConfig.validate``
    accepted, or as it is when the cassette is off."""
    mode = cassette.get("mode", "off")
    if mode == "off":
        return backend
    inner = backend if mode == "record" else None
    return CassetteBackend(path=cassette["path"], mode=mode, inner=inner)


def build_simulator_factory(config: ExperimentConfig, ontology):
    """Returns (factory(goal) -> user simulator, backends)."""
    if config.simulator == "agenda":
        return (lambda goal: AgendaUserSimulator(goal)), ()

    verifier = config.simulator == "duet"  # the one switch for the verifier
    specs = [("generator_backend", config.generator_backend)]
    ver_spec = config.verifier_backend or config.generator_backend
    if verifier and ver_spec != config.generator_backend:
        specs.append(("verifier_backend", ver_spec))
    backends = tuple(_build_backend(spec, role) for role, spec in specs)
    clients = [_wrap_cassette(backend, config.cassette) for backend in backends]
    gen_backend = clients[0]
    ver_backend = clients[-1] if verifier else None

    prompt_config = PromptConfig(omit_goal=config.omit_goal,
                                 omit_history=config.omit_history,
                                 render_mode=config.context_mode)

    def factory(goal):
        session = DuetSession(goal=goal, ontology=ontology,
                              generator_backend=gen_backend,
                              verifier_backend=ver_backend,
                              loop_config=config.loop,
                              prompt_config=prompt_config)
        return DuetUserSimulator(session)

    return factory, backends


class _DialogueRunner:
    """Runs one dialogue per seed; each process that runs dialogues builds one."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.ontology, self.entities = load_world(config.world)
        self.factory, self.backends = build_simulator_factory(config, self.ontology)

    def __call__(self, seed: int) -> tuple[str, dict | None]:
        """(record line, failure entry or None); the failure is the log's error."""
        from .loop import run_dialogue

        goal = generate_goal(seed, self.ontology, self.entities)
        log = run_dialogue(goal, self.factory(goal),
                           SystemAgent(self.ontology, self.entities, seed=seed),
                           max_user_turns=self.config.turn_cap, seed=seed)
        failure = {"seed": seed, "error": log.error} if log.error else None
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

    More than one worker means worker processes, each of which builds its
    own world, simulators and backends from the config.
    """
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
        initializer=_init_worker, initargs=(runner.config,))
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
    try:
        with open(log_path, "w", encoding="utf-8") as log_file, \
                closing(_records(runner, seeds, config.workers())) as records:
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
        with open(path, encoding="utf-8") as f:
            for i, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    if require_int("v", record["v"]) != LOG_SCHEMA_VERSION:
                        raise ValueError(f"v: got {record['v']}, "
                                         f"expected {LOG_SCHEMA_VERSION}")
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
                   "duet runs. A duet run with a scripted backend or a "
                   "cassette always uses 1.")
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
@click.argument("log_paths", nargs=-1, required=True, type=click.Path(exists=True))
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
