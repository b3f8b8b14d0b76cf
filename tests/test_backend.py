import json
import math
import ssl
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from duetsim.backend import (
    BackendConfig,
    CassetteBackend,
    CompletionRequest,
    CompletionResult,
    HTTPBackend,
    ScriptedBackend,
    load_cassette,
    request_digest,
)
from duetsim.errors import (
    CassetteIOError,
    CassetteMiss,
    ConfigError,
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

    @pytest.mark.parametrize("field,value", [
        ("timeout", 0), ("timeout", math.nan), ("timeout", math.inf),
        ("backoff_base", -1.0), ("backoff_base", math.nan), ("backoff_base", math.inf),
        ("timeout", 86400.5), ("backoff_base", 1e12),
    ])
    def test_timing_values_must_be_finite_and_in_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            BackendConfig(base_url="http://x", model="m", **{field: value})

    def test_timing_values_up_to_a_day(self):
        config = BackendConfig(base_url="http://x", timeout=86400, backoff_base=86400)
        assert (config.timeout, config.backoff_base) == (86400, 86400)

    @pytest.mark.parametrize("url", ["example.com/v1", "ftp://x", "http://",
                                     "http://x/a b", "http://x/\u20ac", "http://x/\tv1"])
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
    connection alive, then close it), ``("stall", seconds)`` or
    ``("raw", data, close)`` (write ``data`` as the whole reply, then close
    the connection if ``close``).
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
        if isinstance(outcome, tuple) and outcome[0] == "raw":
            self.wfile.write(outcome[1])
            self.close_connection = outcome[2]
            return
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


DATA = Path(__file__).parent / "data"
# Self-signed for IP 127.0.0.1, valid 2000-2100.
CERT, KEY = DATA / "localhost-cert.pem", DATA / "localhost-key.pem"


class _Server(ThreadingHTTPServer):
    def __init__(self, outcomes=(), tls=False):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.scheme = "http"
        if tls:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(CERT, KEY)
            self.socket = context.wrap_socket(self.socket, server_side=True)
            self.scheme = "https"
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
        return f"{self.scheme}://127.0.0.1:{self.server_address[1]}"


@pytest.fixture
def serve():
    """serve(outcomes) -> a running loopback server. After the test each
    server is shut down and its handler threads joined, so none outlives
    the test; clients from ``client`` are closed before that."""
    servers = []

    def start(outcomes=(), tls=False):
        server = _Server(outcomes, tls)
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


@pytest.fixture
def backend(serve, client):
    """backend(outcomes, retries) -> (backend, server) on a new server."""
    def make(outcomes, retries=2, **kwargs):
        server = serve(outcomes)
        return client(server.url + "/v1", retries, **kwargs), server

    return make


class TestHTTP:
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

    @pytest.mark.parametrize("count,kept", [
        (0, 0), (12, 12), ("12", None), (True, None), (False, None), (1.5, None),
        (12.0, None), (-1, None), ([1], None), ({"n": 1}, None), (None, None)])
    def test_token_counts_kept_only_as_non_negative_ints(self, backend, count, kept):
        b, _ = backend([(200, dict(OK_BODY, usage={"prompt_tokens": count,
                                                   "completion_tokens": count}))])
        result = b.complete(req())
        assert (result.prompt_tokens, result.completion_tokens) == (kept, kept)
        assert type(result.prompt_tokens) is type(kept)

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
        """A backend, used from the one thread that owns it, keeps one
        keep-alive connection."""
        b, server = backend([])
        for _ in range(3):
            b.complete(req())
        assert len(server.requests) == 3
        assert server.connections == 1

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

    def test_api_key_with_line_break_not_sent(self, backend, monkeypatch):
        monkeypatch.setenv("TEST_LLM_KEY", "sk-test\r\nX-Injected: 1")
        b, server = backend([], api_key_env="TEST_LLM_KEY")
        with pytest.raises(ConfigError, match=r"\$TEST_LLM_KEY holds a line break"):
            b.complete(req())
        assert server.requests == []

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
        b.close()
        # the server's handler for the connection ends when it reads the close
        server.handlers[0].join(timeout=5)
        assert not server.handlers[0].is_alive()
        assert b.complete(req()).text == "hi"  # reconnects
        assert server.connections == 2

    def test_import_does_not_load_requests(self, imported_modules):
        assert not {"requests", "urllib3"} & imported_modules

    def test_host_and_accept_encoding_headers(self, serve, client, monkeypatch):
        """Host names the port only when it is not the scheme's default."""
        server, proxy = serve(), serve()
        client(server.url + "/v1").complete(req())
        monkeypatch.setenv("http_proxy", proxy.url)
        client("http://llm.invalid/v1").complete(req())
        direct, proxied = server.requests[0][2], proxy.requests[0][2]
        assert direct["Host"] == f"127.0.0.1:{server.server_address[1]}"
        assert proxied["Host"] == "llm.invalid"
        assert direct["Accept-Encoding"] == proxied["Accept-Encoding"] == "identity"


BODY = json.dumps(OK_BODY).encode()


def _sized(head=b"", length=len(BODY)):
    """A raw 200 reply with ``head`` lines, Content-Length ``length`` and BODY."""
    return b"HTTP/1.1 200 OK\r\n%sContent-Length: %d\r\n\r\n%s" % (head, length, BODY)


class TestReplyFraming:
    """The reply framings an endpoint may use, each served raw."""

    def test_chunked(self, backend):
        """Chunk extensions and the trailer are read past, so the
        connection serves the next call."""
        chunks = b"".join(b"%x;ext=1\r\n%s\r\n" % (len(part), part)
                          for part in (BODY[:10], BODY[10:]))
        b, server = backend([("raw", b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                                     + chunks + b"0\r\nX-Trailer: t\r\n\r\n", False)])
        assert [b.complete(req()).text for _ in range(2)] == ["hi", "hi"]
        assert server.connections == 1

    def test_http10_without_length_read_to_end(self, backend):
        b, server = backend([("raw", b"HTTP/1.0 200 OK\r\n\r\n" + BODY, True)])
        assert [b.complete(req()).text for _ in range(2)] == ["hi", "hi"]
        assert server.connections == 2

    def test_connection_close_header(self, backend):
        """The server keeps the connection open after saying it closes it;
        the next call still opens connection 2."""
        b, server = backend([("raw", _sized(b"Connection: close\r\n"), False)])
        assert [b.complete(req()).text for _ in range(2)] == ["hi", "hi"]
        assert server.connections == 2

    def test_interim_reply_skipped(self, backend):
        b, server = backend([("raw", b"HTTP/1.1 100 Continue\r\n\r\n" + _sized(), False)])
        assert [b.complete(req()).text for _ in range(2)] == ["hi", "hi"]
        assert server.connections == 1

    def test_short_body_retried(self, backend):
        b, server = backend([("raw", _sized(length=len(BODY) + 5), True)] * 3, retries=2)
        with pytest.raises(RetriesExhausted):
            b.complete(req())
        assert len(server.requests) == 3

    def test_false_length_read_as_bytes_arrive(self, backend):
        """A length far beyond the body is not allocated before reading."""
        b, server = backend([("raw", _sized(length=10 ** 14), True)], retries=0)
        with pytest.raises(RetriesExhausted):
            b.complete(req())

    @pytest.mark.parametrize("reply", [
        b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 70000 + b"\r\n\r\n",
        b"HTTP/1.1 200 OK\r\n" + b"X-Many: y\r\n" * 101 + b"\r\n",
        b"HTCPCP/1.0 418 I'm a teapot\r\n\r\n",
        b"HTTP/1.1 OK\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: ten\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
    ], ids=["long_header_line", "too_many_headers", "bad_protocol", "no_status_code",
            "bad_chunk_size", "bad_length", "negative_length"])
    def test_framing_fault_is_a_transport_error(self, backend, reply):
        """A reply that breaks framing fails the attempt at once, with the
        connection still open: no wait for the timeout, no ValueError."""
        b, server = backend([("raw", reply, False)], retries=0, timeout=3.0)
        with pytest.raises(RetriesExhausted) as e:
            b.complete(req())
        assert not isinstance(e.value.__cause__, (Timeout, ValueError))
        assert len(server.requests) == 1

    @pytest.fixture
    def endpoint(self, backend):
        """One server and client for every example of a property test."""
        return backend([], retries=0, timeout=3.0)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.sampled_from([
        b"HTTP/1.1 200 OK\r\n", b"HTTP/1.0 503 Busy\r\n", b"HTTP/1.1 100 Continue\r\n",
        b"HTTP/1.1 2000\r\n", b"Content-Length: 4\r\n", b"Content-Length: x\r\n",
        b"Transfer-Encoding: chunked\r\n", b"Connection: close\r\n", b"\r\n",
        b"4\r\n", b"0\r\n", b"-4;x\r\n", b"null", b'{"choices": []}', BODY,
        b"\xff\xfe", b"\n"]), max_size=8))
    def test_any_reply_is_typed(self, endpoint, pieces):
        """Whatever the endpoint writes before it closes, ``complete``
        returns a result or raises a typed error."""
        b, server = endpoint
        server.outcomes.append(("raw", b"".join(pieces), True))
        try:
            b.complete(req())
        except (EndpointError, MalformedResponse):
            pass
        except RetriesExhausted as e:
            assert not isinstance(e.__cause__, (Timeout, ValueError))


class TestHTTPS:
    def test_verified_against_ssl_cert_file(self, serve, client, monkeypatch):
        monkeypatch.setenv("SSL_CERT_FILE", str(CERT))
        server = serve(tls=True)
        b = client(server.url + "/v1")
        assert [b.complete(req()).text for _ in range(2)] == ["hi", "hi"]
        assert server.connections == 1

    def test_unknown_certificate_refused(self, serve, client, monkeypatch):
        for name in ("SSL_CERT_FILE", "SSL_CERT_DIR"):
            monkeypatch.delenv(name, raising=False)
        server = serve(tls=True)
        with pytest.raises(RetriesExhausted) as e:
            client(server.url + "/v1", retries=0).complete(req())
        assert isinstance(e.value.__cause__, ssl.SSLCertVerificationError)


def record(seed, responses, *prompts):
    """The cassette lines of one dialogue that sends ``prompts`` in order."""
    recorder = CassetteBackend(seed, inner=ScriptedBackend(responses))
    for prompt in prompts:
        recorder.complete(req(prompt))
    return recorder.lines


def tape(tmp_path, *lines):
    path = tmp_path / "tape.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    return str(path)


class TestCassette:
    def test_record_then_replay(self, tmp_path):
        inner = ScriptedBackend(["one", "two"])
        recorder = CassetteBackend(3, inner=inner)
        recorder.complete(req("p1"))
        recorder.complete(req("p2"))

        replies = load_cassette(tape(tmp_path, *recorder.lines))
        replayer = CassetteBackend(3, replies=replies)
        assert replayer.complete(req("p2")).text == "two"
        assert replayer.complete(req("p1")).text == "one"
        assert inner.calls == 2  # replay made no live calls

    def test_miss(self, tmp_path):
        replies = load_cassette(tape(tmp_path, *record(0, ["x"], "seen")))
        with pytest.raises(CassetteMiss):
            CassetteBackend(0, replies=replies).complete(req("unseen"))
        with pytest.raises(CassetteMiss):  # another dialogue's reply
            CassetteBackend(1, replies=replies).complete(req("seen"))

    def test_repeated_identical_requests(self, tmp_path):
        """A request that recurs in a dialogue gets its replies in recorded
        order, whatever other dialogues recorded for it."""
        replies = load_cassette(tape(
            tmp_path, *record(0, ["other"], "same"),
            *record(1, ["first", "second"], "same", "same")))
        replayer = CassetteBackend(1, replies=replies)
        assert replayer.complete(req("same")).text == "first"
        assert replayer.complete(req("same")).text == "second"
        with pytest.raises(CassetteMiss):
            replayer.complete(req("same"))
        assert CassetteBackend(0, replies=replies).complete(req("same")).text == "other"

    def test_cassette_lines_are_json(self):
        lines = record(7, ["x", "y"], "p", "p")
        assert all(line.endswith("\n") for line in lines)
        records = [json.loads(line) for line in lines]
        assert [list(r) for r in records] == [["seed", "digest", "n", "request", "response"]] * 2
        assert [(r["seed"], r["n"], r["response"]) for r in records] == [(7, 0, "x"), (7, 1, "y")]
        assert records[0]["digest"] == request_digest(req("p"))
        assert records[0]["request"] == {"system": "", "user": "p"}

    @pytest.mark.parametrize("kwargs", [{}, {"inner": ScriptedBackend([]), "replies": {}}])
    def test_needs_inner_or_replies(self, kwargs):
        with pytest.raises(ValueError):
            CassetteBackend(0, **kwargs)


GOOD_LINE = {"seed": 0, "digest": "d", "n": 0, "response": "r"}


class TestLoadCassette:
    def test_extra_keys_ignored(self, tmp_path):
        line = json.dumps(dict(GOOD_LINE, latency=0.5, request={})) + "\n\n"
        assert load_cassette(tape(tmp_path, line)) == {(0, "d", 0): "r"}

    @pytest.mark.parametrize("line,message", [
        ("[1]", "expected an object"),
        ('"x"', "expected an object"),
        ("{not json", "Expecting property name"),
        ('{"digest": "d", "response": 5}', "predates per-dialogue keys"),
        (json.dumps(dict(GOOD_LINE, response=5)), "expected a string, got 5"),
        (json.dumps(dict(GOOD_LINE, seed="0")), "seed: expected an integer"),
        (json.dumps(dict(GOOD_LINE, n=True)), "n: expected an integer"),
        (json.dumps({"seed": 0, "digest": "d", "response": "r"}), "n: expected an integer, got None"),
    ], ids=["list", "string", "not_json", "old_format", "response_int",
            "seed_str", "n_bool", "no_n"])
    def test_bad_line_names_path_and_line(self, tmp_path, line, message):
        path = tape(tmp_path, json.dumps(GOOD_LINE) + "\n", line + "\n")
        with pytest.raises(CassetteIOError) as e:
            load_cassette(path)
        assert str(e.value).startswith(f"cassette {path} line 2: ")
        assert message in str(e.value)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "tape.jsonl"
        path.write_bytes(json.dumps(GOOD_LINE).encode() + b"\n\xff\xfe\n")
        with pytest.raises(CassetteIOError, match=r"line 2: 'utf-8' codec"):
            load_cassette(str(path))

    def test_repeated_key(self, tmp_path):
        """Two recordings joined into one file are not one cassette."""
        line = json.dumps(GOOD_LINE) + "\n"
        with pytest.raises(CassetteIOError, match="line 2: repeats the key"):
            load_cassette(tape(tmp_path, line, line))

    def test_missing_file(self, tmp_path):
        with pytest.raises(CassetteIOError, match="cannot read cassette"):
            load_cassette(str(tmp_path / "absent.jsonl"))

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
        | st.text(max_size=5),
        lambda children: st.lists(children, max_size=3) | st.dictionaries(
            st.sampled_from(["seed", "digest", "n", "response", "request", "x"]),
            children, max_size=5)))
    def test_any_json_line_loads_or_is_typed(self, tmp_path, value):
        path = tape(tmp_path, json.dumps(value) + "\n")
        try:
            replies = load_cassette(path)
        except CassetteIOError as e:
            assert f"cassette {path} line 1: " in str(e)
        else:
            assert replies == {(value["seed"], value["digest"], value["n"]): value["response"]}
