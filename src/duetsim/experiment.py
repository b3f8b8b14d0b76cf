"""Experiments: the config of a run, its checks, and the run itself.

``load_config`` reads a YAML config (PyYAML is imported only then) and
``run_experiment`` simulates its dialogues, writing ``logs.jsonl``,
``manifest.json`` and, if recording, the cassette. When ``workers()`` > 1,
a run that calls backends waits on them, so it runs its dialogues on that
many threads of this process ("lanes", see ``_lanes``); any other run
computes, so it uses worker processes: this process deals them chunks of
seeds over one pipe each, and each sends its records back on its pipe (see
``_records``). Either way this process writes the records in seed order.
``duetsim.cli`` calls it.
The loop, the backends and the prompts load only when a config or a run is
built, so importing this module (and the CLI) loads none of them.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from contextlib import closing, nullcontext
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__, world
from .acts import DEFAULT_TURN_CAP, encode_record
from .agenda import AgendaUserSimulator
from .errors import (CassetteIOError, ConfigError, DuetSimError, Record, WorkerFailed,
                     require_string)
from .system import SystemAgent
from .world import load_world

if TYPE_CHECKING:
    from .loop import LoopConfig

SIMULATOR_KINDS = ("duet", "duet-no-verifier", "agenda")

MAX_CHUNK = 4  # dialogues per hand-off from a worker process
DEALT_PER_WORKER = 2  # chunks a worker process holds: one running, one queued
# Hand-offs started and not yet written, per worker: chunks of a worker
# process, dialogues of a lane.
WINDOW_PER_WORKER = 4

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
_LOOP_FIELDS = {"max_iterations": int, "on_exhaustion": str}  # LoopConfig's


def _is_exponent(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return "e" in text.lower()


def _check_type(name: str, value, kind: type) -> None:
    # bool is a subclass of int, but `seed: true` is not a seed
    if not isinstance(value, (int, float) if kind is float else kind) or (
            kind in (int, float) and isinstance(value, bool)):
        hint = (" (YAML reads an exponent as a number only with a dot and a signed "
                "exponent, as in 5.0e-1 or 1.0e+12)"
                if kind is float and isinstance(value, str) and _is_exponent(value)
                else "")
        raise ConfigError(name, f"must be {_TYPE_NAMES[kind]}, "
                                f"not {type(value).__name__}{hint}")


def _check_block(block: dict, types: dict, prefix: str) -> None:
    for key, value in block.items():
        if key not in types:
            raise ConfigError(prefix + key, "unknown field")
        _check_type(prefix + key, value, types[key])


def _loop_config(**fields) -> LoopConfig:
    # the first config loads the loop, and with it the generator, the
    # verifier, the prompts and the backends
    from .loop import LoopConfig

    return LoopConfig(**fields)


class ExperimentConfig(Record):
    # the fields, which are also the keys a config file may hold
    __slots__ = _fields = ("simulator", "world", "dialogues", "seed", "turn_cap",
                           "parallelism", "output_dir", "context_mode", "omit_goal",
                           "omit_history", "loop", "generator_backend", "verifier_backend",
                           "cassette")

    def __init__(self, simulator: str = "agenda", world: str | None = None,
                 dialogues: int = 100, seed: int = 0, turn_cap: int = DEFAULT_TURN_CAP,
                 parallelism: int | None = None, output_dir: str = "runs/latest",
                 context_mode: str = "utterances", omit_goal: bool = False,
                 omit_history: bool = False, loop: LoopConfig | None = None,
                 generator_backend: dict | None = None, verifier_backend: dict | None = None,
                 cassette: dict | None = None):
        self.simulator = simulator
        self.world = world
        self.dialogues = dialogues
        self.seed = seed
        self.turn_cap = turn_cap
        self.parallelism = parallelism  # None: see workers()
        self.output_dir = output_dir
        self.context_mode = context_mode
        self.omit_goal = omit_goal
        self.omit_history = omit_history
        self.loop = _loop_config() if loop is None else loop
        self.generator_backend = {} if generator_backend is None else generator_backend
        self.verifier_backend = {} if verifier_backend is None else verifier_backend
        self.cassette = {} if cassette is None else cassette

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
        than one means lanes, threads of this process, for a run that calls
        backends (``backend_specs()``), and worker processes for any other,
        started up front either way."""
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
        if key not in ExperimentConfig._fields:
            raise ConfigError(key, "unknown field")
    loop_doc = doc.pop("loop", {})
    _check_type("loop", loop_doc, dict)
    _check_block(loop_doc, _LOOP_FIELDS, "loop.")
    config = ExperimentConfig(**doc)
    try:
        config.loop = _loop_config(**loop_doc)
    except ValueError as e:
        raise ConfigError("loop", str(e)) from e
    config.validate()
    return config


def _build_backend(spec: dict, role: str):
    """The backend a spec that ``ExperimentConfig.validate`` accepted names."""
    from .backend import BackendConfig, HTTPBackend, ScriptedBackend

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


class _StopCheck:
    """A lane's backend: once ``stopped`` is set it raises instead of calling
    ``backend``, so a dialogue still in flight when the run stops ends at its
    next call."""

    def __init__(self, backend, stopped: threading.Event):
        self.backend = backend
        self.stopped = stopped

    def complete(self, request):
        if self.stopped.is_set():
            raise WorkerFailed("the run stopped")
        return self.backend.complete(request)


class _DialogueRunner:
    """Runs one dialogue per seed. The one place that builds a run, once and
    only what its dialogues call: the world and, for a duet run, the prompt
    config and either its backends or, in a replay, the cassette replies."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.ontology, self.entities = load_world(config.world)
        self.backends = self.clients = tuple(_build_backend(spec, role)
                                             for role, spec in config.backend_specs())
        self.replies = None
        if config.simulator == "agenda":
            return
        from .backend import load_cassette
        from .prompts import PromptConfig

        if config.cassette.get("mode") == "replay":  # calls no backend
            self.replies = load_cassette(config.cassette["path"])
        self.prompt_config = PromptConfig(omit_goal=config.omit_goal,
                                          omit_history=config.omit_history,
                                          render_mode=config.context_mode)

    def __reduce__(self):
        """Pickled, as for a spawned worker, the run is rebuilt from its config."""
        return _DialogueRunner, (self.config,)

    def lane(self, stopped: threading.Event) -> _DialogueRunner:
        """A runner for a lane: it shares this run's world and prompt config
        and calls backends of its own from ``_build_backend``, since an
        ``HTTPBackend`` holds one socket; they fail once ``stopped`` is set."""
        lane = object.__new__(_DialogueRunner)  # copy.copy would rebuild it, by __reduce__
        vars(lane).update(vars(self))
        lane.backends = tuple(_build_backend(spec, role)
                              for role, spec in self.config.backend_specs())
        lane.clients = tuple(_StopCheck(backend, stopped) for backend in lane.backends)
        return lane

    def close(self) -> None:
        """Close the sockets of the HTTP backends this runner built."""
        from .backend import HTTPBackend

        for backend in self.backends:
            if isinstance(backend, HTTPBackend):
                backend.close()

    def __call__(self, seed: int) -> tuple[str, dict | None, str]:
        """(record line, failure entry or None, cassette lines recorded)."""
        from .backend import CassetteBackend
        from .loop import DuetSession, DuetUserSimulator, run_dialogue

        config = self.config
        # looked up on its module at each call, where a caller may patch it
        goal = world.generate_goal(seed, self.ontology, self.entities)
        cassettes = ()
        # One replay answers both roles: their requests differ in temperature,
        # so no digest is both roles'.
        if self.replies is not None:
            cassettes = (CassetteBackend(seed, replies=self.replies),)
        elif config.cassette.get("mode") == "record":
            cassettes = tuple(CassetteBackend(seed, inner=b) for b in self.clients)
        if config.simulator == "agenda":
            user = AgendaUserSimulator(goal)
        else:
            clients = cassettes or self.clients
            user = DuetUserSimulator(DuetSession(
                goal=goal, ontology=self.ontology, generator_backend=clients[0],
                verifier_backend=clients[-1] if config.simulator == "duet" else None,
                loop_config=config.loop, prompt_config=self.prompt_config))
        log = run_dialogue(goal, user,
                           SystemAgent(self.ontology, self.entities, seed=seed),
                           max_user_turns=config.turn_cap, seed=seed)
        failure = {"seed": seed, "error": log.error} if log.error else None
        return (encode_record(log), failure,
                "".join(line for cassette in cassettes for line in cassette.lines))


def _work(runner: _DialogueRunner, seeds: range, size: int, pipe) -> None:
    """A worker process: receive the index of a chunk on ``pipe``, cut its
    ``size`` seeds from ``seeds`` and send back ``(index, records)``, until
    the pipe closes. The first chunk that raises is sent as ``(index,
    error)`` instead, which ends the worker."""
    with pipe:
        while True:
            try:
                index = pipe.recv()
            except EOFError:  # the parent closed its end: the run is over
                return
            chunk = seeds[index * size:(index + 1) * size]
            try:
                pipe.send((index, [runner(seed) for seed in chunk]))
            except Exception as e:
                # A package error reads as at one worker, e.g. a goal not
                # drawn; another, e.g. a record that cannot be pickled, is
                # the worker's failure.
                if not isinstance(e, DuetSimError):
                    e = WorkerFailed(f"a worker failed: {type(e).__name__}: {e}")
                pipe.send((index, e))
                return


def _records(runner: _DialogueRunner, seeds: range, workers: int):
    """What ``runner`` returns for each seed, in seed order. More than one
    worker means worker processes, for a run that computes rather than
    waits on backends (a run that waits uses ``_lanes``); they inherit
    ``runner`` when forked and rebuild it from its config when spawned. The
    seeds are cut into chunks of at most ``MAX_CHUNK``, and this process
    deals their indices to the workers over one pipe each, ``DEALT_PER_WORKER``
    at a time, so a worker has its next chunk at hand when it finishes one
    and a slow dialogue holds up one worker only. A worker cuts the chunk
    from the seed range and sends its records back on the same pipe. This
    process holds the chunks that arrive before an earlier one, and yields
    each record once every earlier one has been yielded. It deals a chunk
    only while fewer than ``WINDOW_PER_WORKER`` chunks per worker are dealt
    and not yet yielded, so what it holds stays bounded behind a slow
    dialogue. A worker that ends before its last message fails the run."""
    if workers == 1:
        yield from map(runner, seeds)
        return
    import multiprocessing
    from multiprocessing.connection import wait

    # A forked worker starts from this interpreter; a spawned one imports
    # duetsim again, about 0.1 s per worker.
    fork = "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if fork else "spawn")
    # Several chunks per worker even out the finish.
    size = max(1, min(MAX_CHUNK, len(seeds) // (4 * workers)))
    chunks = -(-len(seeds) // size)  # how many; each worker cuts its own
    pipes = {}  # this process's end of a worker's pipe -> the worker
    dealt = {}  # a pipe -> how many chunks are dealt on it and not sent back
    try:
        for _ in range(workers):
            mine, theirs = context.Pipe()
            worker = context.Process(target=_work, daemon=True,
                                     args=(runner, seeds, size, theirs))
            worker.start()
            theirs.close()  # so the pipe closes when the worker ends
            pipes[mine] = worker
            dealt[mine] = 0
        arrived = {}  # chunk index -> its records or error, until yielded
        undealt = 0  # the next chunk to deal
        for index in range(chunks):
            # chunks before index are yielded; deal up to the window's end
            window_end = min(chunks, index + WINDOW_PER_WORKER * workers)
            while True:
                while pipes and undealt < window_end:
                    pipe = min(pipes, key=dealt.get)  # the idlest worker
                    if dealt[pipe] == DEALT_PER_WORKER:
                        break
                    try:
                        pipe.send(undealt)
                    except OSError:
                        # The worker has ended. Its pipe holds its last
                        # message, an error at an earlier chunk, or its end,
                        # which the wait below reads.
                        pass
                    dealt[pipe] += 1
                    undealt += 1
                if index in arrived:
                    break
                for pipe in wait(list(pipes)):
                    try:
                        message = pipe.recv()
                    except (EOFError, ConnectionResetError):
                        # The worker ended before its last message; what it
                        # had not read of its pipe resets the connection.
                        worker = pipes[pipe]
                        worker.join()
                        raise WorkerFailed("a worker process ended with exit code "
                                           f"{worker.exitcode} before it was done") from None
                    dealt[pipe] -= 1
                    if isinstance(message[1], DuetSimError):  # its last message
                        pipes.pop(pipe).join()
                        del dealt[pipe]
                        pipe.close()
                    arrived[message[0]] = message[1]
            outcome = arrived.pop(index)
            if isinstance(outcome, DuetSimError):
                raise outcome
            yield from outcome
    finally:
        for pipe, worker in pipes.items():
            worker.terminate()
            pipe.close()
        for worker in pipes.values():
            worker.join()


def _lanes(runner: _DialogueRunner, seeds: range, workers: int):
    """What ``runner`` returns for each seed, in seed order, from ``workers``
    threads of this process ("lanes"). A run that waits on backend calls
    needs no more: a thread blocked on a socket releases the interpreter
    lock. Each lane runs ``runner.lane``, with backends of its own, and
    starts the next seed only while fewer than ``WINDOW_PER_WORKER``
    dialogues per lane are started and not yet yielded, so what this process
    holds stays bounded behind a slow dialogue. What a lane's runner raises
    is raised at its seed, once every earlier record is yielded, as at one
    worker. However this generator ends, the lanes are stopped (a dialogue
    in flight ends at its next backend call) and joined first."""
    stopped = threading.Event()
    runners = [runner.lane(stopped) for _ in range(workers)]
    changed = threading.Condition()  # guards the three below
    started = written = 0
    arrived = {}  # seed index -> its record or what its runner raised, until yielded

    def run_lane(lane: _DialogueRunner) -> None:
        nonlocal started
        while True:
            with changed:
                while not stopped.is_set() and started < len(seeds) \
                        and started - written >= WINDOW_PER_WORKER * workers:
                    changed.wait()
                if stopped.is_set() or started == len(seeds):
                    return
                index = started
                started += 1
            try:
                outcome = lane(seeds[index])
            except BaseException as e:  # re-raised at its seed, in this generator
                outcome = e
            with changed:
                arrived[index] = outcome
                changed.notify_all()
            if isinstance(outcome, BaseException):
                return

    threads = []
    try:
        for lane in runners:
            thread = threading.Thread(target=run_lane, args=(lane,), name="duetsim-lane",
                                      daemon=True)
            thread.start()
            threads.append(thread)
        for index in range(len(seeds)):
            with changed:
                while index not in arrived:
                    changed.wait()
                outcome = arrived.pop(index)
            if isinstance(outcome, BaseException):
                raise outcome
            yield outcome
            with changed:
                written += 1
                changed.notify_all()
    finally:
        stopped.set()
        with changed:
            changed.notify_all()
        for thread in threads:
            thread.join()
        for lane in runners:
            lane.close()


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
    from .prompts import lint_all_templates, templates_digest

    config.validate()
    runner = _DialogueRunner(config)
    lint_all_templates()

    out_dir = Path(config.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        log_file = open(out_dir / "logs.jsonl", "w", encoding="utf-8")
    except OSError as e:
        raise ConfigError("output_dir", f"{out_dir}: {e.strerror or e}") from e

    seeds = range(config.seed, config.seed + config.dialogues)
    workers = config.workers()
    records = (_lanes if workers > 1 and config.backend_specs() else _records)(
        runner, seeds, workers)
    started = time.time()
    failures = []
    try:
        with log_file, _open_cassette(config.cassette) as cassette_file, closing(records):
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
        runner.close()

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
