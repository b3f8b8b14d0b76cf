"""List the statements of src/duetsim that pinned-seed runs never reach.

    python3 tools/reach.py [--agenda 200] [--duet 40] [--seed 0]

Runs the ``duetsim`` command line in this process, under the standard
library's ``trace``, on pinned-seed batches:

* ``simulate``: agenda; duet and duet-no-verifier; duet in both context
  modes; duet with omit-goal and with omit-history; a duet cassette
  recording and its replay, which must give the recorded logs;
* ``evaluate`` over every batch's logs, as a table and as json;
* ``goals``;
* the README's first "Library use" example, run as written, which reads
  its names through ``from duetsim import ...``.

Duet batches call ``perfbench/fake_server.py``, the benchmark's fake model
(it answers with ``perfbench/responder.py``), on 127.0.0.1 with no latency;
neither file is changed. That model answers from the goal and the history,
so omit-goal and omit-history dialogues end in error at their first call.
Every batch runs on one worker, so no dialogue runs in a process the trace
does not see.

Prints, per module, the line ranges of the statements no batch reached, and
ends with one JSON line of counts. A statement is a line that starts
bytecode, as ``python -m trace --missing`` counts them. Standard library
only. Exits 1 when a command fails.
"""

from __future__ import annotations

import argparse
import contextlib
import dis
import io
import json
import os
import subprocess
import sys
import tempfile
import trace
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "duetsim"
FAKE_SERVER = ROOT / "perfbench" / "fake_server.py"
README = ROOT / "README.md"

# (batch name, simulate flags) of the duet batches run against the fake model
DUET_BATCHES = (
    ("duet", ("--simulator", "duet")),
    ("duet-acts", ("--simulator", "duet", "--context-mode", "acts")),
    ("duet-no-verifier", ("--simulator", "duet-no-verifier")),
    ("omit-goal", ("--simulator", "duet", "--omit-goal")),
    ("omit-history", ("--simulator", "duet", "--omit-history")),
)


class CommandFailed(Exception):
    pass


def statement_lines(path: Path) -> set[int]:
    """The lines that start bytecode in any code object of ``path``."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as ``3-5, 9``."""
    out: list[list[int]] = []
    for line in lines:
        if out and line == out[-1][1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def cli(*args) -> str:
    """Run one ``duetsim`` command; its stdout, or CommandFailed."""
    from duetsim.cli import main

    args = [str(a) for a in args]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            main(args)
    except SystemExit as e:
        if e.code:
            raise CommandFailed(f"duetsim {' '.join(args)}: exit {e.code}") from e
    return out.getvalue()


def run_batches(work: Path, base_url: str, agenda: int, duet: int, seed: int) -> None:
    """Every batch of the module docstring, writing under ``work``."""
    def config(name: str, extra: str = "") -> Path:
        path = work / f"{name}.yaml"
        path.write_text("generator_backend:\n  kind: http\n"
                        f"  base_url: {base_url}\n  model: fake\n{extra}")
        return path

    def simulate(name: str, count: int, *flags) -> Path:
        cli("simulate", "-n", count, "--seed", seed, "--parallelism", 1,
            "-o", work / name, *flags)
        return work / name / "logs.jsonl"

    logs = [simulate("agenda", agenda, "--simulator", "agenda")]
    for name, flags in DUET_BATCHES:
        logs.append(simulate(name, duet, "-c", config(name), *flags))
    cassette = work / "cassette.jsonl"
    for mode in ("record", "replay"):
        block = f"cassette:\n  mode: {mode}\n  path: {cassette}\n"
        logs.append(simulate(mode, duet, "-c", config(mode, block), "--simulator", "duet"))
    if logs[-1].read_bytes() != logs[-2].read_bytes():
        raise CommandFailed("the replay's logs differ from the recording's")
    for fmt in ("table", "json"):
        cli("evaluate", *logs, "--format", fmt)
    cli("goals", "--seed", seed, "--count", 3)
    library_use()


def library_use() -> None:
    """The README's first "Library use" example."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, str(README), "exec"), {})


@contextlib.contextmanager
def fake_server():
    """Base URL of the fake chat server, running until the block ends."""
    server = subprocess.Popen([sys.executable, str(FAKE_SERVER), "--latency-ms", "0"],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        line = server.stdout.readline()
        if not line.startswith("PORT "):
            raise CommandFailed(f"fake server did not start: {line!r}")
        yield f"http://127.0.0.1:{int(line.split()[1])}/v1"
    finally:
        server.stdin.close()  # the server shuts down at end of file
        server.wait(timeout=10)
        server.stdout.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--agenda", type=int, default=200, help="agenda dialogues")
    parser.add_argument("--duet", type=int, default=40, help="dialogues per duet batch")
    parser.add_argument("--seed", type=int, default=0, help="first seed of every batch")
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    for name in ("http_proxy", "https_proxy", "all_proxy"):  # the server is local
        os.environ.pop(name, None)
        os.environ.pop(name.upper(), None)

    # No ignoredirs: trace caches that verdict by bare module name, so an
    # ignored stdlib __init__ would hide duetsim/__init__.py too.
    tracer = trace.Trace(count=1, trace=0)
    with tempfile.TemporaryDirectory() as work, fake_server() as base_url:
        try:
            tracer.runfunc(run_batches, Path(work), base_url,
                           args.agenda, args.duet, args.seed)
        except CommandFailed as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    reached = set(tracer.results().counts)  # (file name, line)

    unreached_by_module = {}
    statements = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = statement_lines(path)
        statements += len(lines)
        missing = sorted(line for line in lines if (str(path), line) not in reached)
        name = path.relative_to(SRC).as_posix()
        unreached_by_module[name] = len(missing)
        if missing:
            print(f"{name}: {len(missing)} of {len(lines)} unreached: {ranges(missing)}")
    unreached = sum(unreached_by_module.values())
    print(json.dumps({"statements": statements, "reached": statements - unreached,
                      "unreached": unreached, "unreached_by_module": unreached_by_module,
                      "agenda": args.agenda, "duet": args.duet, "seed": args.seed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
