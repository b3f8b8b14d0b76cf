"""Completion backends: live chat-completions HTTP, scripted, record/replay.

Every prompt in the framework flows through the single ``complete`` entry
point, so any backend that satisfies the Backend protocol (an object with
``complete(request) -> CompletionResult``) can drive a simulation.

The socket and TLS modules and hashing are imported inside the code that
uses them, so a run without an http backend or a cassette does not load them.
"""

from __future__ import annotations

import json
import os
import time
import urllib.parse
from typing import NamedTuple

from .errors import (
    CassetteIOError,
    CassetteMiss,
    ConfigError,
    EndpointError,
    MalformedResponse,
    Record,
    RetriesExhausted,
    ScriptExhausted,
    Timeout,
    require_int,
    require_strings,
)

RETRYABLE_STATUS = {429, 500, 502, 503, 504}
# The longest timeout or backoff base, a day: far beyond any useful wait,
# and well inside what a socket timeout and time.sleep accept.
MAX_WAIT_S = 86400


class CompletionRequest(Record):
    """One prompt for a backend. Treated as immutable once built."""

    __slots__ = _fields = ("user_text", "system_text", "temperature", "max_tokens",
                           "stop_sequences")

    def __init__(self, user_text: str, system_text: str = "", temperature: float = 0.7,
                 max_tokens: int = 256, stop_sequences: tuple[str, ...] = ()):
        if not user_text:
            raise ValueError("user_text must be non-empty")
        self.user_text = user_text
        self.system_text = system_text
        self.temperature = temperature
        self.max_tokens = max_tokens
        self.stop_sequences = stop_sequences


    def __hash__(self):
        return hash(self._values())


class CompletionResult(NamedTuple):
    text: str
    prompt_tokens: int | None = None
    completion_tokens: int | None = None
    latency: float = 0.0


class BackendConfig(Record):
    __slots__ = _fields = ("base_url", "model", "api_key_env", "timeout", "retries",
                           "backoff_base")

    def __init__(self, base_url: str, model: str = "", api_key_env: str = "",
                 timeout: float = 30.0, retries: int = 2, backoff_base: float = 0.5):
        if not 0 < timeout <= MAX_WAIT_S:  # also false for NaN
            raise ValueError(f"timeout must be above 0 and at most {MAX_WAIT_S} s, "
                             f"got {timeout}")
        if not 0 <= backoff_base <= MAX_WAIT_S:
            raise ValueError(f"backoff_base must be 0 to {MAX_WAIT_S} s, "
                             f"got {backoff_base}")
        if not 0 <= retries <= 5:
            raise ValueError("retries must be between 0 and 5")
        url = urllib.parse.urlsplit(base_url)
        # it is sent as it is, in a request line that ends at a space
        if url.scheme not in ("http", "https") or not url.hostname or " " in base_url \
                or not (base_url.isascii() and base_url.isprintable()):
            raise ValueError(f"base_url {base_url!r} is not an http(s) URL")
        self.base_url = base_url
        self.model = model
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base


def request_digest(request: CompletionRequest) -> str:
    """Stable cross-process digest of a request's semantic content."""
    import hashlib

    canonical = json.dumps({
        "system": request.system_text,
        "user": request.user_text,
        "temperature": request.temperature,
        "max_tokens": request.max_tokens,
        "stop": list(request.stop_sequences),
    }, sort_keys=True, ensure_ascii=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ScriptedBackend:
    """Deterministic backend serving a fixed list of responses in order.

    Records every request it sees, which lets tests assert on the exact
    prompts a component issued.
    """

    def __init__(self, responses):
        self._responses = list(responses)
        self._cursor = 0
        self.requests: list[CompletionRequest] = []

    def complete(self, request: CompletionRequest) -> CompletionResult:
        self.requests.append(request)
        if self._cursor >= len(self._responses):
            raise ScriptExhausted(
                f"script exhausted after {len(self._responses)} responses")
        text = self._responses[self._cursor]
        self._cursor += 1
        return CompletionResult(text=text)

    @property
    def calls(self) -> int:
        return self._cursor


class HTTPBackend:
    """Chat-completions-compatible HTTP backend with retry and backoff.

    Transient failures (connection errors, timeouts, 429, 5xx) are retried
    up to ``config.retries`` times with exponential backoff; other 4xx
    responses and malformed bodies fail immediately.

    The backend speaks HTTP/1.1 on one kept socket, so it is not shared
    between threads: each lane of a parallel run, a thread, builds its own
    (see ``duetsim.experiment._lanes``). A request is
    one write; a reply that breaks its framing is a transport error. The
    socket is closed and forgotten after a transport error or a reply that
    ends it; one the server closed while it sat idle is replaced without
    spending a retry. ``http_proxy``, ``https_proxy`` and ``no_proxy`` are
    read from the environment when the backend is built, and TLS is
    verified against the system trust store. ``close`` closes the socket.
    """

    def __init__(self, config: BackendConfig, sleep=time.sleep):
        self.config = config
        self._sleep = sleep
        self._sock = self._reader = None

        url = urllib.parse.urlsplit(config.base_url)
        self._https = url.scheme == "https"
        default_port = 443 if self._https else 80
        self._address = (url.hostname, url.port or default_port)
        host = f"[{url.hostname}]" if ":" in url.hostname else url.hostname
        self._authority = f"{host}:{self._address[1]}"  # what CONNECT names
        self._host = host if self._address[1] == default_port else self._authority
        self._ssl_context = None
        if self._https:
            import ssl

            self._ssl_context = ssl.create_default_context()
        self._target = url.path.rstrip("/") + "/chat/completions" + \
            (f"?{url.query}" if url.query else "")
        self._proxy, proxy_headers = resolve_proxy(url)
        self._proxy_lines = "".join(f"{name}: {value}\r\n"
                                    for name, value in proxy_headers.items())
        if self._proxy and not self._https:
            self._target = f"http://{url.netloc.rpartition('@')[2]}{self._target}"

    def _head(self, length: int) -> bytes:
        """The request line and headers of a request with a ``length``-byte body."""
        key = os.environ.get(self.config.api_key_env) if self.config.api_key_env else None
        if key and ("\r" in key or "\n" in key):  # it would end the header
            raise ConfigError("api_key_env", f"${self.config.api_key_env} holds a line break")
        return (f"POST {self._target} HTTP/1.1\r\nHost: {self._host}\r\n"
                f"Accept-Encoding: identity\r\nContent-Length: {length}\r\n"
                "Content-Type: application/json\r\nUser-Agent: duetsim\r\n"
                + (f"Authorization: Bearer {key}\r\n" if key else "")
                + ("" if self._https else self._proxy_lines) + "\r\n").encode("latin-1")

    def complete(self, request: CompletionRequest) -> CompletionResult:
        messages = []
        if request.system_text:
            messages.append({"role": "system", "content": request.system_text})
        messages.append({"role": "user", "content": request.user_text})
        payload = {
            "model": self.config.model,
            "messages": messages,
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        if request.stop_sequences:
            payload["stop"] = list(request.stop_sequences)
        body = json.dumps(payload).encode("utf-8")
        message = self._head(len(body)) + body

        last_error: Exception | None = None
        for attempt in range(self.config.retries + 1):
            if attempt:
                self._sleep(self.config.backoff_base * (2 ** (attempt - 1)))
            start = time.monotonic()
            try:
                status, data = self._post(message)
            except TimeoutError as e:
                last_error = Timeout(str(e) or "timed out")
                continue
            except OSError as e:  # BadReply included
                last_error = e
                continue
            if status in RETRYABLE_STATUS:
                last_error = EndpointError(status, data.decode("utf-8", "replace"))
                continue
            if status >= 400:
                raise EndpointError(status, data.decode("utf-8", "replace"))
            text, usage = parse_completion(data)
            return CompletionResult(
                text=text,
                prompt_tokens=_token_count(usage.get("prompt_tokens")),
                completion_tokens=_token_count(usage.get("completion_tokens")),
                latency=time.monotonic() - start,
            )
        raise RetriesExhausted(
            f"{self.config.retries + 1} attempts failed; last: {last_error}"
        ) from last_error

    def _post(self, message: bytes) -> tuple[int, bytes]:
        """Send a request on the kept socket; returns (status, body)."""
        if self._sock is not None:
            try:
                return self._exchange(message)
            except ConnectionError:
                pass  # closed by the server while idle: resend on a new one
        self._connect()
        return self._exchange(message)

    def _connect(self) -> None:
        import socket

        sock = socket.create_connection(self._proxy or self._address, self.config.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._https and self._proxy:  # a tunnel through the proxy
                sock.sendall((f"CONNECT {self._authority} HTTP/1.1\r\nHost: {self._authority}"
                              f"\r\n{self._proxy_lines}\r\n").encode("latin-1"))
                with sock.makefile("rb") as reader:
                    status = _read_head(reader)[0]
                if not 200 <= status < 300:
                    raise OSError(f"proxy refused the tunnel with status {status}")
            if self._https:
                sock = self._ssl_context.wrap_socket(sock, server_hostname=self._address[0])
        except BaseException:
            sock.close()
            raise
        self._sock, self._reader = sock, sock.makefile("rb")

    def _exchange(self, message: bytes) -> tuple[int, bytes]:
        try:
            self._sock.sendall(message)
            status, ends, data = _read_reply(self._reader)
        except BaseException:
            self.close()
            raise
        if ends:
            self.close()
        return status, data

    def close(self) -> None:
        """Close the socket, if one is open; a later call reconnects."""
        if self._sock is not None:
            self._reader.close()
            self._sock.close()
            self._sock = self._reader = None


# A reply's limits, as in http.client: bytes in a header line, lines in a head.
MAX_LINE = 65536
MAX_HEADERS = 100


class BadReply(OSError):
    """A reply that breaks HTTP/1.1 framing: a transport error, retried."""


def _read_fields(reader) -> dict[bytes, bytes]:
    """{lower-cased name: value} of the header lines up to a blank line."""
    fields = {}
    for _ in range(MAX_HEADERS + 1):
        line = reader.readline(MAX_LINE + 1)
        if line in (b"\r\n", b"\n"):
            return fields
        if not line.endswith(b"\n") or len(line) > MAX_LINE:
            raise BadReply(f"header line cut short or over {MAX_LINE} bytes")
        name, _, value = line.partition(b":")
        fields[name.strip().lower()] = value.strip()
    raise BadReply(f"more than {MAX_HEADERS} header lines")


def _read_head(reader) -> tuple[int, bool, dict[bytes, bytes]]:
    """(status, whether it is HTTP/1.0, headers) of the next reply that is
    not a 1xx interim one."""
    status = 0
    while status < 200:
        line = reader.readline(MAX_LINE + 1)
        if not line:
            raise ConnectionResetError("connection closed before a reply")
        version, _, rest = line.partition(b" ")
        status = int(rest[:3]) if rest[:3].isdigit() else 0
        if status < 100 or rest[3:4].strip() or not version.startswith(b"HTTP/") \
                or len(line) > MAX_LINE:
            raise BadReply(f"bad status line {line[:80]!r}")
        headers = _read_fields(reader)
    return status, version == b"HTTP/1.0", headers


def _read_reply(reader) -> tuple[int, bool, bytes]:
    """(status, whether the connection ends with it, body) of one reply."""
    status, http10, headers = _read_head(reader)
    connection = headers.get(b"connection", b"").lower()
    ends = b"close" in connection or (http10 and b"keep-alive" not in connection)
    if headers.get(b"transfer-encoding", b"").lower() == b"chunked":
        return status, ends, _read_chunked(reader)
    length = headers.get(b"content-length")
    if length is None:
        return status, True, reader.read()
    if not length.isdigit():
        raise BadReply(f"bad Content-Length {length[:80]!r}")
    return status, ends, _read_exact(reader, int(length))


def _read_chunked(reader) -> bytes:
    """A chunked body; chunk extensions and the trailer are read past."""
    parts = []
    while True:
        line = reader.readline(MAX_LINE + 1)
        size = line.partition(b";")[0].strip()
        if not size or size.strip(b"0123456789abcdefABCDEF") or len(line) > MAX_LINE:
            raise BadReply(f"bad chunk size line {line[:80]!r}")
        if not int(size, 16):
            _read_fields(reader)
            return b"".join(parts)
        parts.append(_read_exact(reader, int(size, 16) + 2)[:-2])  # less its CRLF


def _read_exact(reader, size: int) -> bytes:
    """The next ``size`` bytes, read at most 1 MiB at a time, so a false
    length takes memory only as bytes arrive."""
    parts = []
    while size > 0:
        parts.append(reader.read(min(size, 1 << 20)))
        if not parts[-1]:
            raise BadReply("reply body ended early")
        size -= len(parts[-1])
    return b"".join(parts)


def resolve_proxy(url) -> tuple[tuple[str, int] | None, dict[str, str]]:
    """((host, port) of the proxy for ``url`` or None, headers for the proxy).

    Reads ``<scheme>_proxy`` and ``no_proxy`` from the environment.
    """
    import base64
    import urllib.request

    proxy = urllib.request.getproxies().get(url.scheme)
    if not proxy or urllib.request.proxy_bypass(url.netloc.rpartition("@")[2]):
        return None, {}
    if "://" not in proxy:
        proxy = "http://" + proxy
    proxy_url = urllib.parse.urlsplit(proxy)
    if proxy_url.scheme != "http" or not proxy_url.hostname:
        raise ValueError(f"unsupported proxy URL {proxy!r}: expected http://host:port")
    headers = {}
    if proxy_url.username is not None:
        credentials = (f"{urllib.parse.unquote(proxy_url.username)}:"
                       f"{urllib.parse.unquote(proxy_url.password or '')}")
        token = base64.b64encode(credentials.encode("utf-8")).decode("ascii")
        headers["Proxy-Authorization"] = f"Basic {token}"
    return (proxy_url.hostname, proxy_url.port or 80), headers


def parse_completion(data: bytes) -> tuple[str, dict]:
    """(content of the first choice, usage) from a chat-completions body."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise MalformedResponse(f"body is not UTF-8: {e}") from e
    except json.JSONDecodeError as e:
        raise MalformedResponse(f"body is not JSON: {e}") from e
    choices = doc.get("choices") if isinstance(doc, dict) else None
    if not isinstance(choices, list) or not choices:
        raise MalformedResponse("body has no choices")
    try:
        content = choices[0]["message"]["content"]
    except (KeyError, TypeError):
        content = None
    if not isinstance(content, str):
        raise MalformedResponse("choices[0].message.content is not a string")
    usage = doc.get("usage")
    return content, usage if isinstance(usage, dict) else {}


def _token_count(value) -> int | None:
    """A usage count as sent if it is a non-negative int (not a bool), else None."""
    return value if type(value) is int and value >= 0 else None


def load_cassette(path: str) -> dict[tuple[int, str, int], str]:
    """{(seed, digest, n): response} of a cassette file, whose other keys
    are ignored; a line that cannot be read is a CassetteIOError."""
    replies = {}
    try:
        with open(path, "rb") as f:
            for number, raw in enumerate(f, start=1):
                if not raw.strip():
                    continue
                try:  # a ValueError is also bad UTF-8 or bad JSON
                    record = json.loads(raw.decode("utf-8"))
                    if not isinstance(record, dict):
                        raise TypeError(f"expected an object, got {record!r:.80}")
                    if "seed" not in record and "digest" in record:
                        raise ValueError("no seed: the cassette predates "
                                         "per-dialogue keys; record it again")
                    key = (require_int("seed", record.get("seed")), record.get("digest"),
                           require_int("n", record.get("n")))
                    require_strings("digest and response", (key[1], record.get("response")))
                    if key in replies:
                        raise ValueError(f"repeats the key of an earlier line, {key}")
                except (TypeError, ValueError) as e:
                    raise CassetteIOError(f"cassette {path} line {number}: {e}") from e
                replies[key] = record["response"]
    except OSError as e:
        raise CassetteIOError(f"cannot read cassette {path}: {e}") from e
    return replies


class CassetteBackend:
    """One dialogue's record or replay of its backend calls, keyed by
    (dialogue seed, request digest, n), where n counts the dialogue's earlier
    requests with that digest. With ``inner`` it forwards each request and
    keeps its cassette line in ``lines``; with ``replies`` from
    ``load_cassette`` it answers from them. It reads and writes no file."""

    def __init__(self, seed: int, inner=None, replies=None):
        if (inner is None) == (replies is None):
            raise ValueError("give inner to record or replies to replay")
        self.seed = seed
        self.inner = inner
        self.replies = replies
        self.lines: list[str] = []  # JSON lines, each ending in a newline
        self._seen: dict[str, int] = {}  # digest -> requests answered

    def complete(self, request: CompletionRequest) -> CompletionResult:
        digest = request_digest(request)
        n = self._seen.get(digest, 0)
        if self.inner is None:
            if (self.seed, digest, n) not in self.replies:
                raise CassetteMiss(f"no recorded reply for seed {self.seed}, "
                                   f"digest {digest}, n {n}")
            result = CompletionResult(text=self.replies[self.seed, digest, n])
        else:
            result = self.inner.complete(request)
            self.lines.append(json.dumps({
                "seed": self.seed, "digest": digest, "n": n,
                "request": {"system": request.system_text, "user": request.user_text},
                "response": result.text}) + "\n")
        self._seen[digest] = n + 1
        return result
