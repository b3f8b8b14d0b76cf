"""duetsim benchmark: simulate, then evaluate the logs just written.

Run from the root of a checkout:

    python3 perfbench/run.py --workload agenda --seed 1 --seconds 38 --trace 0

Workloads (all closed loops: a worker starts its next dialogue only when
the previous one has finished):

* ``agenda`` -- agenda simulator against the rule-based system through
  ``cli.run_experiment`` with two worker threads. CPU-bound.
* ``duet-inproc`` -- generator-verifier loop on one thread against the
  stateless fake responder in-process, zero latency. Measures what the
  framework itself costs per backend call.
* ``duet-http`` -- the same responder behind a chat-completions server in a
  child process with a fixed injected latency, driven by
  ``cli.run_experiment`` from a ``kind: http`` config with two workers.
  Backend-bound.

Each run measures batches of dialogues until ``--seconds`` after it started;
set-up probes in fresh interpreters, spread evenly over the same time, count
against it too. Batch ``i`` uses dialogue seeds ``seed * 10**6 + i * batch``
onwards; batch 0 is the warm-up and the input of the correctness checks and
of the count metrics, so those repeat exactly for a seed. Every reported
figure is an average over the run: a throughput is total work over total
time, ``setup_s`` the mean of the probes. The host's speed switches between
states for seconds at a time, and a median or a fastest sample follows
whichever state a run happened to catch. With ``--trace 1`` odd batches run
untraced and even batches traced; the per-layer metrics come from the traced
batches and the tracing overhead from the pair.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the ``end_to_end`` metrics of BENCHMARK.json, or
its ``per_layer`` metrics with ``--trace 1``). A failed check prints
``correct: false`` and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import responder
from tracer import ERROR, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SEED_STRIDE = 1_000_000
SETUP_REPEATS = 11
MIN_BATCHES = 6  # the evaluate window of duet-http fills at batch 3
EVAL_MIN_RECORDS = 24  # smaller corpora make the evaluate rate depend on content
TURN_CAP = 20
PARALLELISM = 2
MAX_ITERATIONS = 3
HTTP_LATENCY_MS = 5.0
MIN_SUCCESS_RATE = 0.90
MIN_CALLS_PER_USER_TURN = 7.0


class CheckFailed(Exception):
    """An output of the program is wrong."""


def die(message: str):
    """Exit without a result: the benchmark itself cannot run."""
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def rate(done_and_seconds) -> float:
    """Work per second over every timed section: total work / total time."""
    done, seconds = done_and_seconds
    return done / seconds


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


# --- set-up time, measured in fresh interpreters ---

def _probe(*options: str) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *options, str(BENCH_DIR / "setup_probe.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise CheckFailed(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return proc


def probe_setup() -> dict:
    """Set-up times of one fresh interpreter."""
    return json.loads(_probe().stdout)


def import_scipy_ms() -> float:
    """Cumulative import time of scipy.stats, from ``-X importtime``."""
    for line in _probe("-X", "importtime").stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "scipy.stats":
            return int(fields[1]) / 1000.0
    return 0.0


# --- workloads ---

class Workload:
    def __init__(self, duetsim, world, work: Path):
        self.d = duetsim
        self.ontology, self.entities = world
        self.work = work

    def simulate(self, first_seed: int, out_dir: Path) -> set[int]:
        """Run one batch into out_dir/logs.jsonl; returns the failed seeds."""
        raise NotImplementedError

    def check(self, first_seed: int, logs_bytes: bytes) -> None:
        """Raise CheckFailed unless batch 0 run again gives the same bytes."""
        again = self.work / "check"
        self.simulate(first_seed, again)
        if (again / "logs.jsonl").read_bytes() != logs_bytes:
            raise CheckFailed(f"{self.name} logs differ between two runs of the same seeds")

    def backend_counts(self) -> tuple[dict, int]:
        """Cumulative (calls by role, prompt characters) sent to the backend."""
        return {}, 0

    def server_stats(self) -> dict:
        """Cumulative counters of the HTTP server; empty without one."""
        return {}

    def close(self) -> None:
        pass

    def _run_experiment(self, config) -> set[int]:
        out = self.d.cli.run_experiment(config)
        manifest = json.loads((out / "manifest.json").read_text())
        return {f["seed"] for f in manifest["failures"]}


class AgendaWorkload(Workload):
    name = "agenda"
    batch = 250
    eval_repeats = 3

    def simulate(self, first_seed, out_dir):
        return self._run_experiment(self.d.cli.ExperimentConfig(
            simulator="agenda", dialogues=self.batch, seed=first_seed,
            turn_cap=TURN_CAP, parallelism=PARALLELISM, output_dir=str(out_dir)))


class FakeBackend:
    """In-process backend answering with the fake responder, zero latency."""

    def __init__(self, result_type):
        self.result_type = result_type
        self.calls = {responder.STEP: 0, responder.VERIFIER: 0, responder.NLG: 0}
        self.prompt_chars = 0

    def complete(self, request):
        self.calls[responder.kind(request.user_text)] += 1
        self.prompt_chars += len(request.system_text) + len(request.user_text)
        return self.result_type(text=responder.reply(request.user_text))


class DuetInprocWorkload(Workload):
    name = "duet-inproc"
    batch = 50
    eval_repeats = 5

    def __init__(self, duetsim, world, work):
        super().__init__(duetsim, world, work)
        self.backend = FakeBackend(duetsim.backend.CompletionResult)

    def simulate(self, first_seed, out_dir):
        """Drive the public loop functions; write run_experiment's records."""
        d = self.d
        loop_config = d.loop.LoopConfig(max_iterations=MAX_ITERATIONS)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "logs.jsonl", "w", encoding="utf-8") as f:
            for seed in range(first_seed, first_seed + self.batch):
                goal = d.world.generate_goal(seed, self.ontology, self.entities)
                session = d.loop.DuetSession(
                    goal=goal, ontology=self.ontology,
                    generator_backend=self.backend, verifier_backend=self.backend,
                    loop_config=loop_config)
                log = d.loop.run_dialogue(
                    goal, d.loop.DuetUserSimulator(session),
                    d.system.SystemAgent(self.ontology, self.entities, seed=seed),
                    max_user_turns=TURN_CAP, seed=seed)
                record = {"v": d.cli.LOG_SCHEMA_VERSION, "log": log.to_dict()}
                f.write(json.dumps(record, sort_keys=True) + "\n")
        return set()

    def backend_counts(self):
        return dict(self.backend.calls), self.backend.prompt_chars


class DuetHTTPWorkload(Workload):
    name = "duet-http"
    batch = 6
    eval_repeats = 20

    def __init__(self, duetsim, world, work):
        super().__init__(duetsim, world, work)
        os.environ["NO_PROXY"] = "127.0.0.1"  # for requests and urllib alike
        self.server = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "fake_server.py"),
             "--latency-ms", str(HTTP_LATENCY_MS)],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.server.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise CheckFailed(f"fake server did not start: {line!r}")
        self.base = f"http://127.0.0.1:{int(line.split()[1])}"
        self.config_path = work / "duet-http.yaml"
        self.config_path.write_text(
            "simulator: duet\n"
            f"turn_cap: {TURN_CAP}\n"
            f"parallelism: {PARALLELISM}\n"
            "generator_backend:\n"
            "  kind: http\n"
            f"  base_url: {self.base}/v1\n"
            "  model: fake\n"
            "loop:\n"
            f"  max_iterations: {MAX_ITERATIONS}\n")

    def simulate(self, first_seed, out_dir):
        config = self.d.cli.load_config(str(self.config_path), {
            "dialogues": self.batch, "seed": first_seed, "output_dir": str(out_dir)})
        return self._run_experiment(config)

    def check(self, first_seed, logs_bytes):
        inproc = DuetInprocWorkload(self.d, (self.ontology, self.entities), self.work)
        inproc.batch = self.batch
        again = self.work / "check-inproc"
        inproc.simulate(first_seed, again)
        if (again / "logs.jsonl").read_bytes() != logs_bytes:
            raise CheckFailed("duet-http and duet-inproc logs differ for the same seeds")
        if inproc.backend_counts() != self.backend_counts():
            raise CheckFailed("duet-http and duet-inproc sent different prompts")

    def server_stats(self):
        with urllib.request.urlopen(f"{self.base}/stats", timeout=30) as resp:
            return json.loads(resp.read())

    def backend_counts(self):
        stats = self.server_stats()
        return stats["calls"], stats["prompt_chars"]

    def close(self):
        self.server.stdin.close()  # the server shuts down at end of file
        try:
            self.server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()


WORKLOADS = {w.name: w for w in (AgendaWorkload, DuetInprocWorkload, DuetHTTPWorkload)}


# --- tracing ---

def install_tracer(tracer, d) -> None:
    """Patch every layer boundary at the name its caller looks up."""
    seed_kw = lambda args, kwargs: kwargs.get("seed")  # noqa: E731
    seed_arg = lambda args, kwargs: args[0]  # noqa: E731
    log_seed = lambda args, kwargs: args[0].seed  # noqa: E731
    prompt_chars = lambda prompt: prompt.length  # noqa: E731
    for owner in (d.cli, d.world):
        tracer.patch(owner, "generate_goal", "world.generate_goal", dialogue=seed_arg)
    tracer.patch(d.system, "query_entities", "world.query_entities@system")
    tracer.patch(d.metrics, "query_entities", "world.query_entities@metrics")
    tracer.patch(d.agenda, "agenda_step", "agenda.agenda_step")
    tracer.patch(d.agenda, "template_nlg", "agenda.template_nlg@agenda")
    tracer.patch(d.system, "template_nlg", "agenda.template_nlg@system")
    tracer.patch(d.system, "system_turn", "system.system_turn")
    tracer.patch(d.loop, "derive_annotations", "acts.derive_annotations")
    tracer.patch(d.acts.DialogueLog, "to_dict", "acts.log_to_dict")
    tracer.patch(d.acts.DialogueLog, "from_dict", "acts.log_from_dict")
    tracer.patch(d.acts.DialogueContext, "render", "acts.context_render", value=len)
    tracer.patch(d.generator, "generator_step_prompt", "prompts.generator_step",
                 value=prompt_chars)
    tracer.patch(d.verifier, "verifier_prompt", "prompts.verifier", value=prompt_chars)
    tracer.patch(d.generator, "act_to_utterance_prompt", "prompts.act_to_utterance",
                 value=prompt_chars)
    tracer.patch(d.generator, "enhance_utterance_prompt", "prompts.enhance_utterance",
                 value=prompt_chars)
    tracer.patch(d.loop, "generate_acts_cot", "generator.generate_acts_cot")
    tracer.patch(d.loop, "realize_utterance", "generator.realize_utterance")
    tracer.patch(d.loop, "verify", "verifier.verify", value=lambda v: int(v.accepted))
    tracer.patch(d.loop, "next_user_turn", "loop.next_user_turn")
    tracer.patch(d.loop, "run_dialogue", "loop.run_dialogue", dialogue=seed_kw)
    tracer.patch(d.backend.HTTPBackend, "complete", "backend.complete")
    tracer.patch(FakeBackend, "complete", "backend.complete")
    tracer.patch(d.metrics, "fulfillment", "metrics.fulfillment")
    tracer.patch(d.metrics, "score_dialogue", "metrics.score_dialogue", dialogue=log_seed)
    tracer.patch(d.metrics, "diversity", "metrics.diversity")
    tracer.patch(d.metrics, "hdd", "metrics.hdd")
    tracer.patch(d.cli, "read_logs", "cli.read_logs")
    tracer.patch(d.cli, "run_experiment", "cli.run_experiment")


_BACKEND_ROLE = {"generator.generate_acts_cot": "step", "verifier.verify": "verifier",
                 "generator.realize_utterance": "nlg"}


def layer_metrics(spans: dict, dialogues: int, user_turns: int, evaluated: int,
                  http: dict) -> dict:
    """Per-layer metrics from traced spans: name -> [(dur, self, value, parent)].

    Simulate-side counts are per simulated dialogue or user turn, evaluate-side
    counts per evaluated record.
    """
    us, ms = 1e-3, 1e-6

    def durations(name, scale, own=False):
        return [(s if own else t) * scale for t, s, _, _ in spans.get(name, ())]

    def count(name):
        return len(spans.get(name, ()))

    def per(n, base):
        return n / base if base else 0.0

    def mean_value(name):
        values = [v for _, _, v, _ in spans.get(name, ())]
        return statistics.fmean(values) if values else 0.0

    out = {}

    def timing(metric, name, scale, own=False, p99=True, calls=None, base=dialogues):
        values = durations(name, scale, own)
        out[f"{metric}.p50"] = percentile(values, 0.50)
        if p99:
            out[f"{metric}.p99"] = percentile(values, 0.99)
        if calls:
            out[calls] = per(count(name), base)

    timing("world.generate_goal_us", "world.generate_goal", us,
           calls="world.generate_goal.calls_per_dialogue")
    timing("world.query_entities_system_us", "world.query_entities@system", us,
           calls="world.query_entities_system.calls_per_dialogue")
    timing("world.query_entities_metrics_us", "world.query_entities@metrics", us,
           calls="world.query_entities_metrics.calls_per_dialogue", base=evaluated)
    timing("agenda.agenda_step_us", "agenda.agenda_step", us,
           calls="agenda.agenda_step.calls_per_dialogue")
    timing("agenda.template_nlg_agenda_us", "agenda.template_nlg@agenda", us, p99=False,
           calls="agenda.template_nlg_agenda.calls_per_dialogue")
    timing("agenda.template_nlg_system_us", "agenda.template_nlg@system", us, p99=False,
           calls="agenda.template_nlg_system.calls_per_dialogue")
    timing("system.system_turn_self_us", "system.system_turn", us, own=True,
           calls="system.system_turn.calls_per_dialogue")
    timing("acts.derive_annotations_us", "acts.derive_annotations", us, p99=False)
    timing("acts.log_to_dict_us", "acts.log_to_dict", us, p99=False)
    timing("acts.log_from_dict_us", "acts.log_from_dict", us, p99=False)
    timing("acts.context_render_us", "acts.context_render", us, p99=False)
    out["acts.context_render_chars"] = mean_value("acts.context_render")
    out["acts.context_render.calls_per_user_turn"] = per(count("acts.context_render"),
                                                         user_turns)
    for kind in ("generator_step", "verifier", "act_to_utterance", "enhance_utterance"):
        timing(f"prompts.{kind}_us", f"prompts.{kind}", us, p99=False)
        out[f"prompts.{kind}_chars"] = mean_value(f"prompts.{kind}")
    timing("generator.generate_acts_cot_self_us", "generator.generate_acts_cot", us,
           own=True, p99=False)
    timing("generator.realize_utterance_self_us", "generator.realize_utterance", us,
           own=True, p99=False)
    timing("verifier.verify_self_us", "verifier.verify", us, own=True, p99=False)
    timing("loop.next_user_turn_ms", "loop.next_user_turn", ms)
    timing("loop.run_dialogue_ms", "loop.run_dialogue", ms)

    role_calls = {"step": 0, "verifier": 0, "nlg": 0}
    failed_calls = 0
    for _, _, value, parent in spans.get("backend.complete", ()):
        role_calls[_BACKEND_ROLE[parent]] += 1
        failed_calls += value == ERROR
    for role, n in role_calls.items():
        out[f"backend.{role}_calls_per_user_turn"] = per(n, user_turns)
    out["generator.step_retries_per_user_turn"] = per(
        role_calls["step"] - count("prompts.generator_step"), user_turns)
    out["verifier.reasks_per_user_turn"] = per(
        role_calls["verifier"] - count("prompts.verifier"), user_turns)
    out["verifier.accept_ratio"] = mean_value("verifier.verify")
    out["loop.drafts_per_user_turn"] = per(count("generator.generate_acts_cot"),
                                           count("loop.next_user_turn"))
    timing("backend.wait_ms", "backend.complete", ms)
    overhead = [t * ms - HTTP_LATENCY_MS for t in durations("backend.complete", 1)] \
        if http else []
    out["backend.http_overhead_ms.p50"] = percentile(overhead, 0.50)
    out["backend.http_overhead_ms.p99"] = percentile(overhead, 0.99)
    out["backend.served_latency_ms.p50"] = percentile(http.get("served_ms", []), 0.50)
    out["backend.served_latency_ms.p99"] = percentile(http.get("served_ms", []), 0.99)
    out["backend.retries"] = http.get("requests", 0) - count("backend.complete") \
        if http else 0
    out["backend.failed_calls"] = failed_calls

    timing("metrics.fulfillment_ms", "metrics.fulfillment", ms, p99=False)
    timing("metrics.score_dialogue_us", "metrics.score_dialogue", us, p99=False)
    timing("metrics.diversity_ms", "metrics.diversity", ms, p99=False)
    timing("metrics.hdd_ms", "metrics.hdd", ms, p99=False)
    timing("cli.read_logs_ms", "cli.read_logs", ms, p99=False)
    timing("cli.run_experiment_ms", "cli.run_experiment", ms, p99=False)
    return out


# --- the run ---

def evaluate(d, log_paths: list[Path], ontology, entities):
    """The evaluate path: read the logs, score fulfillment and diversity."""
    logs = d.cli.read_logs([str(p) for p in log_paths])
    report = d.metrics.fulfillment(logs, ontology, entities)
    d.metrics.diversity(d.metrics.user_utterances(logs))
    return logs, report


def check_logs(workload, logs, report, failed: set[int], result: dict) -> None:
    """Count the batch into result; raise CheckFailed on a wrong output."""
    errors = sorted({log.seed for log in logs if log.termination_reason == "error"} | failed)
    result["attempted"] += len(logs)
    result["failed"] += len(errors)
    if errors:
        raise CheckFailed(f"{len(errors)} dialogues failed, first seed {errors[0]}")
    if workload.name == "agenda":
        if report.success_rate < MIN_SUCCESS_RATE:
            raise CheckFailed(f"agenda success_rate {report.success_rate:.3f} "
                              f"< {MIN_SUCCESS_RATE}")
    elif any(log.termination_reason != "user_bye" for log in logs):
        raise CheckFailed("a duet dialogue did not end with user_bye")


def user_turn_count(logs) -> int:
    return sum(1 for log in logs for t in log.turns if t.speaker == "user")


def run(workload_name: str, seed: int, seconds: float, trace: bool, work: Path,
        started: float, result: dict) -> None:
    """Measure one workload until `seconds` after `started`.

    Fills result["metrics"] (the count metrics as soon as they are known),
    raises CheckFailed on a wrong output.
    """
    import duetsim  # noqa: F401  (loads every submodule used below)
    import duetsim.cli
    d = duetsim
    if Path(d.__file__).resolve().parent != SRC / "duetsim":
        die(f"imported duetsim from {d.__file__}, not from {SRC}")

    world = d.world.load_world()
    workload = WORKLOADS[workload_name](d, world, work)
    tracer = Tracer()
    base = seed * SEED_STRIDE
    metrics = result["metrics"]
    deadline = started + seconds
    probes = []

    def run_due_probes():
        """Set-up probes run at even intervals over the run, inside its time."""
        while len(probes) < SETUP_REPEATS and \
                time.perf_counter() - started >= seconds * len(probes) / SETUP_REPEATS:
            probes.append(probe_setup())

    try:
        if trace:
            metrics["setup.import_scipy_ms"] = import_scipy_ms()
        # batch 0: warm-up, correctness checks and the count metrics
        first = work / "batch-0"
        calls_before, chars_before = workload.backend_counts()
        failed = workload.simulate(base, first)
        calls_after, chars_after = workload.backend_counts()
        logs_bytes = (first / "logs.jsonl").read_bytes()
        logs, report = evaluate(d, [first / "logs.jsonl"], *world)
        check_logs(workload, logs, report, failed, result)
        turns0 = user_turn_count(logs)
        calls0 = sum(calls_after.values()) - sum(calls_before.values())
        metrics["backend_calls_per_user_turn"] = calls0 / turns0
        metrics["prompt_chars_per_user_turn"] = (chars_after - chars_before) / turns0
        if workload.name != "agenda" and \
                metrics["backend_calls_per_user_turn"] < MIN_CALLS_PER_USER_TURN:
            raise CheckFailed(f"{metrics['backend_calls_per_user_turn']:.2f} backend "
                              f"calls per user turn < {MIN_CALLS_PER_USER_TURN}")
        workload.check(base, logs_bytes)

        # evaluate the logs of the last `window` batches: at least EVAL_MIN_RECORDS
        window = math.ceil(EVAL_MIN_RECORDS / workload.batch)
        # dialogues and seconds of the simulate phase, untraced and traced;
        # records and seconds of the evaluate phase
        simulated = {False: [0, 0.0], True: [0, 0.0]}
        evaluated_total = [0, 0.0]
        untraced_batches = eval_samples = 0
        traced_dialogues = traced_turns = traced_evaluated = 0
        http = {"requests": 0, "served_ms": []} if workload.name == "duet-http" else {}
        i = 1
        iteration_s = 0.0  # start no batch that would end after the deadline
        while i <= MIN_BATCHES or time.perf_counter() + iteration_s < deadline:
            iteration_started = time.perf_counter()
            run_due_probes()
            traced = trace and i % 2 == 0
            out = work / f"batch-{i % window}"
            recent = [work / f"batch-{j % window}" / "logs.jsonl"
                      for j in range(max(0, i - window + 1), i + 1)]
            if traced:
                install_tracer(tracer, d)
                stats_before = workload.server_stats()
            logs = report = None  # time each batch from a collected heap
            gc.collect()
            t0 = time.perf_counter()
            failed = workload.simulate(base + i * workload.batch, out)
            simulate_s = time.perf_counter() - t0
            # the evaluate rate is sampled once the window holds EVAL_MIN_RECORDS
            sampled = not traced and len(recent) == window
            eval_s = []
            gc.collect()
            for _ in range(workload.eval_repeats if sampled else 1):
                logs = report = None
                t0 = time.perf_counter()
                logs, report = evaluate(d, recent, *world)
                eval_s.append(time.perf_counter() - t0)
            evaluated = len(logs)
            logs = logs[-workload.batch:]  # this batch's records come last
            if traced:
                tracer.uninstall()
                traced_dialogues += len(logs)
                traced_turns += user_turn_count(logs)
                traced_evaluated += evaluated
                if http:
                    stats = workload.server_stats()
                    http["served_ms"] += stats["served_ms"][len(stats_before["served_ms"]):]
                    http["requests"] += stats["requests"] - stats_before["requests"]
            check_logs(workload, logs, report, failed, result)
            simulated[traced][0] += len(logs)
            simulated[traced][1] += simulate_s
            untraced_batches += not traced
            if sampled:
                eval_samples += len(eval_s)
                evaluated_total[0] += evaluated * len(eval_s)
                evaluated_total[1] += sum(eval_s)
            i += 1
            iteration_s = time.perf_counter() - iteration_started
        while len(probes) < SETUP_REPEATS:
            probes.append(probe_setup())
    finally:
        tracer.uninstall()
        workload.close()

    setup = {key: statistics.fmean(p[key] for p in probes) for key in probes[0]}
    metrics.update({
        "setup_s": setup["setup_s"],
        "simulate_dialogues_per_s": rate(simulated[False]),
        "evaluate_dialogues_per_s": rate(evaluated_total),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    result["batches"] = i - 1
    result["samples"] = {"setup probes": len(probes), "untraced batches": untraced_batches,
                         "evaluate repeats": eval_samples}
    if trace:
        metrics.update({f"setup.{k}": v for k, v in setup.items() if k != "setup_s"})
        metrics.update(layer_metrics(tracer.durations(), traced_dialogues,
                                     traced_turns, traced_evaluated, http))
        untraced = metrics["simulate_dialogues_per_s"]
        traced_rate = rate(simulated[True])
        metrics["tracing.untraced_dialogues_per_s"] = untraced
        metrics["tracing.traced_dialogues_per_s"] = traced_rate
        metrics["tracing.overhead_pct"] = (untraced / traced_rate - 1.0) * 100.0
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        spans_path = traces / f"{workload_name}.spans.jsonl.gz"
        result["spans"] = tracer.write(spans_path)
        result["spans_path"] = str(spans_path.relative_to(ROOT))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not (SRC / "duetsim" / "__init__.py").is_file():
        die(f"no duetsim sources under {SRC}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the cleanup below

    work = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    result = {"attempted": 0, "failed": 0, "metrics": {}}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    try:
        run(args.workload, args.seed, args.seconds, bool(args.trace), work, started,
            result)
    except CheckFailed as e:
        # what was measured before the check failed, failed dialogues included
        result["metrics"]["failed_dialogue_ratio"] = \
            result["failed"] / max(result["attempted"], 1)
        print(f"check failed: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(result["attempted"], 1),
                          "failed": result["failed"],
                          "metrics": {name: {"value": value, "unit": units[name]}
                                      for name, value in result["metrics"].items()}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["metrics"]["failed_dialogue_ratio"] = result["failed"] / result["attempted"]

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    shown = spec["end_to_end"] + [m for m in spec["per_layer"]
                                  if m["name"] in result["metrics"]]
    missing = [m["name"] for m in listed if m["name"] not in result["metrics"]]
    if missing:
        die(f"benchmark computed no value for {missing}")
    print(f"workload {args.workload}  seed {args.seed}  batches {result['batches']}  "
          f"dialogues {result['attempted']}  trace {args.trace}  wall "
          f"{time.perf_counter() - started:.1f} s")
    print("measured " + ", ".join(f"{n} {k}" for k, n in result["samples"].items()))
    if args.workload == "duet-http":
        print(f"injected backend latency {HTTP_LATENCY_MS} ms per call")
    if "spans" in result:
        print(f"spans {result['spans']} written to {result['spans_path']}")
    for m in shown:
        value = result["metrics"].get(m["name"])
        if value is not None:
            print(f"  {m['name']:<48} {value:>14.4f} {m['unit']}")
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
