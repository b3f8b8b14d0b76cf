"""Command-line harness: simulate N dialogues, evaluate logs, list goals.

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import json

import click

# ExperimentConfig and LOG_SCHEMA_VERSION are here for perfbench/run.py, which reads them.
from .acts import LOG_SCHEMA_VERSION, read_logs
from .errors import (ConfigError, DuetSimError, EmptyLogSet, LogParseError, LogReadError,
                     WorldError)
from .experiment import SIMULATOR_KINDS, ExperimentConfig, load_config, run_experiment
from .metrics import diversity, fulfillment, render_report, user_utterances
from .world import describe_goal, generate_goal, load_world


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
