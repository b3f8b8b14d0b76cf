"""Chat-completions server on 127.0.0.1 that answers with the fake responder.

Run as ``python3 perfbench/fake_server.py --latency-ms 5``. It binds a port
the OS chooses, prints ``PORT <n>`` on its first stdout line and serves until
its stdin reaches end of file, so it also stops when its parent dies. Every completion sleeps the injected latency before it is
answered. ``GET /stats`` returns cumulative counts: requests, calls by role,
prompt characters and the latency each call was actually served with.

Nagle's algorithm is disabled on every connection: the response goes out as
a header write and a body write, and with Nagle on, the second write waits
for the client's delayed ACK on every call.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import responder


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.calls = {responder.STEP: 0, responder.VERIFIER: 0, responder.NLG: 0}
        self.prompt_chars = 0
        self.served_ms: list[float] = []

    def to_dict(self) -> dict:
        with self.lock:
            return {"requests": self.requests, "calls": dict(self.calls),
                    "prompt_chars": self.prompt_chars,
                    "served_ms": list(self.served_ms)}


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    server: "FakeServer"

    def log_message(self, format, *args):  # keep stderr quiet
        pass

    def _send_json(self, status: int, doc: dict) -> None:
        body = json.dumps(doc).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path != "/stats":
            self._send_json(404, {"error": "not found"})
            return
        self._send_json(200, self.server.stats.to_dict())

    def do_POST(self):
        started = time.perf_counter()
        stats = self.server.stats
        with stats.lock:
            stats.requests += 1
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if not self.path.endswith("/chat/completions"):
            self._send_json(404, {"error": "not found"})
            return
        messages = json.loads(body)["messages"]
        user_text = next(m["content"] for m in messages if m["role"] == "user")
        chars = sum(len(m["content"]) for m in messages)
        try:
            text = responder.reply(user_text)
            role = responder.kind(user_text)
        except (responder.UnknownPrompt, ValueError, SyntaxError) as e:
            self._send_json(400, {"error": str(e)})
            return
        time.sleep(self.server.latency_s)
        self._send_json(200, {"choices": [{"message": {"role": "assistant",
                                                      "content": text}}]})
        served_ms = (time.perf_counter() - started) * 1000.0
        with stats.lock:
            stats.calls[role] += 1
            stats.prompt_chars += chars
            stats.served_ms.append(served_ms)


class FakeServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, latency_s: float):
        super().__init__(("127.0.0.1", 0), Handler)
        self.latency_s = latency_s
        self.stats = Stats()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--latency-ms", type=float, required=True)
    args = parser.parse_args()
    server = FakeServer(args.latency_ms / 1000.0)
    print(f"PORT {server.server_address[1]}", flush=True)
    threading.Thread(target=lambda: (sys.stdin.read(), server.shutdown()),
                     daemon=True).start()
    server.serve_forever()


if __name__ == "__main__":
    main()
