import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from duetsim.backend import (
    BackendConfig,
    CassetteBackend,
    CompletionRequest,
    CompletionResult,
    HTTPBackend,
    ScriptedBackend,
    request_digest,
)
from duetsim.errors import (
    CassetteMiss,
    EndpointError,
    MalformedResponse,
    RetriesExhausted,
    ScriptExhausted,
    Timeout,
)


def req(text="hello"):
    return CompletionRequest(user_text=text)


class TestScripted:
    def test_serves_in_order(self):
        backend = ScriptedBackend(["A", "B"])
        assert backend.complete(req()).text == "A"
        assert backend.complete(req()).text == "B"

    def test_exhausted(self):
        backend = ScriptedBackend(["A"])
        backend.complete(req())
        with pytest.raises(ScriptExhausted):
            backend.complete(req())

    def test_records_requests(self):
        backend = ScriptedBackend(["A"])
        backend.complete(req("specific prompt"))
        assert backend.requests[0].user_text == "specific prompt"


class TestRequestValidation:
    def test_empty_user_text_rejected(self):
        with pytest.raises(ValueError):
            CompletionRequest(user_text="")

    def test_retry_bound(self):
        with pytest.raises(ValueError):
            BackendConfig(base_url="http://x", model="m", retries=6)

    @pytest.mark.parametrize("url", ["example.com/v1", "ftp://x", "http://"])
    def test_base_url_must_be_http(self, url):
        with pytest.raises(ValueError):
            BackendConfig(base_url=url, model="m")

    def test_digest_stable(self):
        a = request_digest(req("same"))
        b = request_digest(CompletionRequest(user_text="same"))
        assert a == b
        assert a != request_digest(req("different"))


OK_BODY = {"choices": [{"message": {"content": "hi"}}],
           "usage": {"prompt_tokens": 3, "completion_tokens": 1}}


def _ok(text="hi"):
    return 200, dict(OK_BODY, choices=[{"message": {"content": text}}])


class _Handler(BaseHTTPRequestHandler):
    """Serves the server's scripted outcomes in order, then 200s.

    An outcome is ``(status, body)`` (a dict body is sent as JSON, bytes as
    they are), ``"drop"`` (close without answering), ``"close"`` (answer
    with ``Connection: close``), ``"vanish"`` (answer as if keeping the
    connection alive, then close it) or ``("stall", seconds)``.
    """
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):
        pass

    def do_POST(self):
        server = self.server
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        with server.lock:
            server.requests.append((self.command, self.path, dict(self.headers), body))
            outcome = server.outcomes.pop(0) if server.outcomes else _ok()
        if outcome == "drop":
            self.close_connection = True
            return
        if isinstance(outcome, tuple) and outcome[0] == "stall":
            time.sleep(outcome[1])
            outcome = _ok()
        status, payload = _ok() if isinstance(outcome, str) else outcome
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if outcome == "close":
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)
        if outcome in ("close", "vanish"):
            self.close_connection = True

    def do_CONNECT(self):
        with self.server.lock:
            self.server.requests.append((self.command, self.path, dict(self.headers), b""))
        self.send_error(407)


class _Server(ThreadingHTTPServer):
    def __init__(self, outcomes=()):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.lock = threading.Lock()
        self.outcomes = list(outcomes)
        self.requests = []
        self.connections = 0
        self.handlers = []  # one thread per connection

    def process_request(self, request, client_address):
        thread = threading.Thread(target=self.process_request_thread,
                                  args=(request, client_address), daemon=True)
        self.handlers.append(thread)
        thread.start()

    def get_request(self):
        conn = super().get_request()
        with self.lock:
            self.connections += 1
        return conn

    def handle_error(self, request, client_address):
        pass  # a stalled handler writing to a socket the client gave up on

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server_address[1]}"


@pytest.fixture
def serve():
    """serve(outcomes) -> a running loopback server. After the test each
    server is shut down and its handler threads joined, so none outlives
    the test; clients from ``client`` are closed before that."""
    servers = []

    def start(outcomes=()):
        server = _Server(outcomes)
        thread = threading.Thread(target=server.serve_forever, args=(0.05,),
                                  daemon=True)
        thread.start()
        servers.append((server, thread))
        return server

    yield start
    threads = []
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        threads += [thread, *server.handlers]
    for thread in threads:
        thread.join(timeout=10)
    assert not [t.name for t in threads if t.is_alive()]


@pytest.fixture
def client(serve):
    """client(base_url, ...) -> an HTTPBackend, closed after the test."""
    made = []

    def make(base_url, retries=2, timeout=5.0, **kwargs):
        config = BackendConfig(base_url=base_url, model="m", retries=retries,
                               backoff_base=0.0, timeout=timeout, **kwargs)
        made.append(HTTPBackend(config, sleep=lambda s: None))
        return made[-1]

    yield make
    for b in made:
        b.close()


@pytest.fixture(autouse=True)
def without_proxy_env(monkeypatch):
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


class TestHTTP:
    @pytest.fixture
    def backend(self, serve, client):
        """backend(outcomes, retries) -> (backend, server) on a new server."""
        def make(outcomes, retries=2, **kwargs):
            server = serve(outcomes)
            return client(server.url + "/v1", retries, **kwargs), server

        return make

    def test_success(self, backend):
        b, server = backend([_ok("yo")])
        result = b.complete(req())
        assert result.text == "yo"
        assert result.prompt_tokens == 3
        assert result.completion_tokens == 1
        assert result.latency > 0
        method, path, headers, body = server.requests[0]
        assert (method, path) == ("POST", "/v1/chat/completions")
        assert json.loads(body)["messages"] == [{"role": "user", "content": "hello"}]

    def test_retries_then_succeeds(self, backend):
        b, server = backend([(500, b"boom"), (429, b"slow down"), _ok()])
        assert b.complete(req()).text == "hi"
        assert len(server.requests) == 3

    def test_retries_exhausted(self, backend):
        b, server = backend(["drop"] * 3, retries=2)
        with pytest.raises(RetriesExhausted) as e:
            b.complete(req())
        assert isinstance(e.value.__cause__, ConnectionError)
        assert len(server.requests) == 3

    def test_client_error_not_retried(self, backend):
        b, server = backend([(401, b"bad key")])
        with pytest.raises(EndpointError) as e:
            b.complete(req())
        assert e.value.status == 401
        assert e.value.body == "bad key"
        assert len(server.requests) == 1

    @pytest.mark.parametrize("payload", [
        b"<html>bad gateway</html>",           # not JSON
        b"\xff\xfe{}",                          # not UTF-8
        {"choices": []},                        # empty choices
        {"object": "chat.completion"},          # no choices
        ["not", "an", "object"],                # not a JSON object
        {"choices": [{"message": {"content": None}}]},  # content not a string
        {"choices": [{"text": "legacy shape"}]},         # no message
    ])
    def test_malformed_body_typed_and_not_retried(self, backend, payload):
        b, server = backend([(200, payload)])
        with pytest.raises(MalformedResponse):
            b.complete(req())
        assert len(server.requests) == 1

    def test_one_connection_per_thread(self, backend):
        b, server = backend([])
        for _ in range(3):
            b.complete(req())
        assert server.connections == 1

        def work():
            for _ in range(2):
                b.complete(req())

        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert len(server.requests) == 7
        assert server.connections == 3  # the main thread's and one per worker

    @pytest.mark.parametrize("outcome", ["close", "vanish"])
    def test_closed_connection_replaced_without_retry(self, backend, outcome):
        b, server = backend([outcome, outcome], retries=0)
        for _ in range(3):
            assert b.complete(req()).text == "hi"
        assert len(server.requests) == 3
        assert server.connections == 3

    def test_stall_beyond_timeout(self, backend):
        b, server = backend([("stall", 1.0)] * 2, retries=1, timeout=0.2)
        with pytest.raises(RetriesExhausted) as e:
            b.complete(req())
        assert isinstance(e.value.__cause__, Timeout)
        assert len(server.requests) == 2

    def test_base_url_query_kept(self, serve, client):
        server = serve()
        client(server.url + "/openai/?api-version=1").complete(req())
        assert server.requests[0][1] == "/openai/chat/completions?api-version=1"

    def test_api_key_header(self, backend, monkeypatch):
        monkeypatch.setenv("TEST_LLM_KEY", "sk-test")
        b, server = backend([], api_key_env="TEST_LLM_KEY")
        b.complete(req())
        assert server.requests[0][2]["Authorization"] == "Bearer sk-test"

    def test_http_proxy(self, serve, client, monkeypatch):
        proxy = serve()
        monkeypatch.setenv("http_proxy", proxy.url.replace("//", "//u%40x:p@"))
        assert client("http://llm.invalid:8080/v1").complete(req()).text == "hi"
        method, path, headers, _ = proxy.requests[0]
        assert path == "http://llm.invalid:8080/v1/chat/completions"
        assert headers["Host"] == "llm.invalid:8080"
        assert headers["Proxy-Authorization"] == "Basic dUB4OnA="  # u@x:p

    def test_https_proxy_tunnels(self, serve, client, monkeypatch):
        proxy = serve()
        monkeypatch.setenv("https_proxy", proxy.url.replace("//", "//u:p@"))
        with pytest.raises(RetriesExhausted):
            client("https://llm.invalid/v1", retries=0).complete(req())
        method, path, headers, _ = proxy.requests[0]
        assert (method, path) == ("CONNECT", "llm.invalid:443")
        assert headers["Proxy-Authorization"] == "Basic dTpw"  # u:p

    def test_no_proxy_bypasses(self, serve, client, monkeypatch):
        proxy, target = serve(), serve()
        monkeypatch.setenv("http_proxy", proxy.url)
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        client(target.url + "/v1").complete(req())
        assert proxy.requests == []
        assert target.requests[0][1] == "/v1/chat/completions"

    def test_close_closes_every_connection(self, backend):
        b, server = backend([])
        b.complete(req())
        conn = b._local.conn
        b.close()
        assert conn.sock is None
        assert b.complete(req()).text == "hi"  # reconnects
        assert server.connections == 2

    def test_import_does_not_load_requests(self, imported_modules):
        assert not {"requests", "urllib3"} & imported_modules


class TestCassette:
    def test_record_then_replay(self, tmp_path):
        path = str(tmp_path / "tape.jsonl")
        inner = ScriptedBackend(["one", "two"])
        recorder = CassetteBackend(path=path, mode="record", inner=inner)
        recorder.complete(req("p1"))
        recorder.complete(req("p2"))

        replayer = CassetteBackend(path=path, mode="replay")
        assert replayer.complete(req("p2")).text == "two"
        assert replayer.complete(req("p1")).text == "one"
        assert inner.calls == 2  # replay made no live calls

    def test_miss(self, tmp_path):
        path = tmp_path / "tape.jsonl"
        path.write_text("")
        replayer = CassetteBackend(path=str(path), mode="replay")
        with pytest.raises(CassetteMiss):
            replayer.complete(req("unseen"))

    def test_repeated_identical_requests(self, tmp_path):
        path = str(tmp_path / "tape.jsonl")
        recorder = CassetteBackend(path=path, mode="record",
                                   inner=ScriptedBackend(["first", "second"]))
        recorder.complete(req("same"))
        recorder.complete(req("same"))
        replayer = CassetteBackend(path=path, mode="replay")
        assert replayer.complete(req("same")).text == "first"
        assert replayer.complete(req("same")).text == "second"

    def test_cassette_lines_are_json(self, tmp_path):
        path = str(tmp_path / "tape.jsonl")
        recorder = CassetteBackend(path=path, mode="record",
                                   inner=ScriptedBackend(["x"]))
        recorder.complete(req("p"))
        with open(path) as f:
            record = json.loads(f.readline())
        assert set(record) == {"digest", "request", "response"}
