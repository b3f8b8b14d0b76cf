"""Time HTTPBackend.complete per call against the benchmark's fake server.

    python3 tools/call_cost.py [--src ../parent/src] [--latency-ms 5] \\
        [--calls 300] [--repeats 5]

Starts ``perfbench/fake_server.py`` (read, not changed) on 127.0.0.1 with
the given injected latency and builds one ``HTTPBackend`` from the duetsim
package under ``--src`` (default: this checkout's ``src``), so two commits
can be compared with the same server. After 50 warm-up calls it makes
``--calls`` sequential calls, at parallelism 1, with one 2,000-character NLG
prompt, and repeats that ``--repeats`` times. Prints one JSON line: per
repeat and as the median of the repeats, the wall time and the client's CPU
time (``time.process_time``) per call, in microseconds. Standard library
only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROMPT = "[EXAMPLE]\n" + "The user asks for a cheap restaurant in the centre. " * 38


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--latency-ms", type=float, default=5.0)
    parser.add_argument("--calls", type=int, default=300)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from duetsim.backend import BackendConfig, CompletionRequest, HTTPBackend

    server = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "fake_server.py"),
         "--latency-ms", str(args.latency_ms)],
        cwd=ROOT / "perfbench", stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        port = int(server.stdout.readline().split()[1])
        backend = HTTPBackend(BackendConfig(base_url=f"http://127.0.0.1:{port}/v1",
                                            model="fake", retries=0))
        request = CompletionRequest(user_text=PROMPT[:2000])
        for _ in range(50):
            backend.complete(request)
        wall, cpu = [], []
        for _ in range(args.repeats):
            wall_start, cpu_start = time.perf_counter(), time.process_time()
            for _ in range(args.calls):
                backend.complete(request)
            wall.append((time.perf_counter() - wall_start) / args.calls * 1e6)
            cpu.append((time.process_time() - cpu_start) / args.calls * 1e6)
        backend.close()
    finally:
        server.stdin.close()
        server.wait(timeout=30)
    print(json.dumps({
        "src": str(args.src), "latency_ms": args.latency_ms, "calls": args.calls,
        "wall_us": [round(v, 1) for v in wall],
        "cpu_us": [round(v, 1) for v in cpu],
        "median_wall_us": round(statistics.median(wall), 1),
        "median_cpu_us": round(statistics.median(cpu), 1)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
