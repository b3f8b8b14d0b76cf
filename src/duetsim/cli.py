"""Command-line harness: simulate N dialogues, evaluate logs, list goals.

Exit codes: 0 success, 1 configuration error, 2 runtime failure or a
command-line usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# ExperimentConfig and LOG_SCHEMA_VERSION are here for perfbench/run.py, which reads them.
from .acts import LOG_SCHEMA_VERSION, read_logs
from .errors import (ConfigError, DuetSimError, EmptyLogSet, LogParseError, LogReadError,
                     WorldError)
from .experiment import SIMULATOR_KINDS, ExperimentConfig, load_config, run_experiment
from .metrics import diversity, fulfillment, render_report, user_utterances
from .world import describe_goal, generate_goal, load_world


def _fail(error: DuetSimError, code: int):
    print(f"error: {error}", file=sys.stderr)
    raise SystemExit(code)


def simulate(args):
    """Run an experiment and write logs plus a manifest."""
    overrides = vars(args)
    config_path = overrides.pop("config_path")
    try:
        out_dir = run_experiment(load_config(config_path, overrides))
    except ConfigError as e:
        _fail(e, 1)
    except DuetSimError as e:
        _fail(e, 2)
    print(out_dir)


def evaluate(args):
    """Compute fulfillment and diversity reports over log files."""
    try:
        ontology, entities = load_world(args.world)
        logs = read_logs(args.log_paths, ontology)
        f_report = fulfillment(logs, ontology, entities)
        d_report = diversity(user_utterances(logs))
    except (LogParseError, LogReadError, EmptyLogSet, WorldError) as e:
        _fail(e, 2)
    if args.fmt == "json":
        print(json.dumps({"fulfillment": f_report.to_dict(),
                          "diversity": d_report.to_dict()}, indent=2))
    else:
        print(render_report(f_report, d_report))


def goals(args):
    """Print randomly generated user goals in human-readable form."""
    if args.count < 1:
        _fail(ConfigError("count", "must be >= 1"), 1)
    try:
        ontology, entities = load_world(args.world)
    except WorldError as e:
        _fail(e, 2)
    for s in range(args.seed, args.seed + args.count):
        goal = generate_goal(s, ontology, entities)
        print(f"[goal seed={s}] {describe_goal(goal)}")


_COMMANDS = {run.__name__: run for run in (simulate, evaluate, goals)}


def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser, and each command's parser by name."""
    def parser(make=argparse.ArgumentParser, **kwargs):  # --help only; no abbreviated flags
        made = make(add_help=False, allow_abbrev=False, **kwargs)
        made.add_argument("--help", action="help", help="Show this message and exit.")
        return made

    top = parser(prog="duetsim", description="User-simulation harness for task-oriented dialogue.")
    commands = top.add_subparsers(metavar="COMMAND", required=True)
    sim, ev, gl = (parser(commands.add_parser, name=name, help=run.__doc__,
                          description=run.__doc__) for name, run in _COMMANDS.items())
    sim.add_argument("--config", "-c", dest="config_path",
                     help="YAML experiment config; flags override its fields.")
    sim.add_argument("--simulator", choices=SIMULATOR_KINDS)
    sim.add_argument("--world")
    sim.add_argument("--dialogues", "-n", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--turn-cap", type=int)
    sim.add_argument("--parallelism", type=int,
                     help="Dialogues run at once: on threads of this process "
                          "for a run that calls an http backend, else on "
                          "worker processes. Default: 1 for agenda runs, 4 for "
                          "duet runs. A duet run that calls a scripted backend "
                          "always uses 1; a replay calls none.")
    sim.add_argument("--output-dir", "-o")
    sim.add_argument("--context-mode", choices=["utterances", "acts"])
    sim.add_argument("--omit-goal", action="store_true", default=None)
    sim.add_argument("--omit-history", action="store_true", default=None)
    ev.add_argument("log_paths", nargs="+", metavar="LOG_PATHS")
    ev.add_argument("--world")
    ev.add_argument("--format", dest="fmt", choices=["table", "json"], default="table")
    gl.add_argument("--seed", type=int, default=0)
    gl.add_argument("--count", type=int, default=1)
    gl.add_argument("--world")
    return top, commands.choices


def main(argv: list[str] | None = None) -> None:
    """Run the command ``argv`` names (default: ``sys.argv[1:]``)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    top, commands = _parsers()
    if not argv or argv[0] not in commands:
        top.parse_args(argv[:1])  # prints the help or a usage error, and exits
    # log paths may follow options: `evaluate a.jsonl --format json b.jsonl`
    args = commands[argv[0]].parse_intermixed_args(argv[1:])
    try:
        _COMMANDS[argv[0]](args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        raise SystemExit(1) from None
    except BrokenPipeError:
        # the reader is gone: drop the output still buffered, without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(1) from None


if __name__ == "__main__":
    main()
