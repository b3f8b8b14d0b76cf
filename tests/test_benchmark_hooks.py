"""The benchmark harness reaches into duetsim by name: it builds the duet
workload from the loop's public classes and patches a tracer onto every
layer boundary. A renamed hook fails here, not only in a benchmark run."""

import sys

import duetsim
import duetsim.cli
import duetsim.experiment

from conftest import load_perfbench


def test_tracer_hooks_install_and_trace(tmp_path, monkeypatch, ontology, entities):
    for name in ("responder", "tracer"):  # run.py imports them by these names
        monkeypatch.setitem(sys.modules, name, load_perfbench(name))
    run = load_perfbench("run")
    originals = (duetsim.agenda.agenda_step, duetsim.system.system_turn,
                 duetsim.loop.next_user_turn, duetsim.loop.run_dialogue)

    tracer = sys.modules["tracer"].Tracer()
    run.install_tracer(tracer, duetsim)
    try:
        goal = duetsim.world.generate_goal(0, ontology, entities)
        agenda_log = duetsim.loop.run_dialogue(
            goal, duetsim.agenda.AgendaUserSimulator(goal),
            duetsim.system.SystemAgent(ontology, entities, seed=0), seed=0)
        workload = run.DuetInprocWorkload(duetsim, (ontology, entities), tmp_path)
        workload.batch = 1
        workload.simulate(0, tmp_path / "duet")
    finally:
        tracer.uninstall()

    assert agenda_log.termination_reason == "user_bye"
    duet_log = duetsim.cli.read_logs([tmp_path / "duet" / "logs.jsonl"])[0]
    assert duet_log.termination_reason == "user_bye"
    spans = tracer.durations()
    for name in ("world.generate_goal", "agenda.agenda_step", "system.system_turn",
                 "world.query_entities@system", "loop.run_dialogue",
                 "loop.next_user_turn", "generator.generate_acts_cot",
                 "verifier.verify", "generator.realize_utterance",
                 "prompts.generator_step", "prompts.verifier", "backend.complete"):
        assert spans.get(name), name
    assert (duetsim.agenda.agenda_step, duetsim.system.system_turn,
            duetsim.loop.next_user_turn, duetsim.loop.run_dialogue) == originals


def test_cli_names_are_their_homes_objects():
    """The harness reads and patches these names on ``duetsim.cli``; each
    must be the object its home module defines, so that the harness runs
    and times the code a library caller runs."""
    homes = {"run_experiment": duetsim.experiment, "ExperimentConfig": duetsim.experiment,
             "load_config": duetsim.experiment, "LOG_SCHEMA_VERSION": duetsim.acts,
             "read_logs": duetsim.acts, "generate_goal": duetsim.world}
    for name, home in homes.items():
        assert getattr(duetsim.cli, name) is getattr(home, name), name
