"""Completion backends: live chat-completions HTTP, scripted, record/replay.

Every prompt in the framework flows through the single ``complete`` entry
point, so any backend that satisfies the Backend protocol (an object with
``complete(request) -> CompletionResult``) can drive a simulation.

The HTTP/TLS stack and hashing are imported inside the code that uses them,
so a run without an http backend or a cassette does not load them.
"""

from __future__ import annotations

import json
import os
import time
import urllib.parse
from dataclasses import dataclass

from .errors import (
    CassetteIOError,
    CassetteMiss,
    EndpointError,
    MalformedResponse,
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


@dataclass(frozen=True)
class CompletionRequest:
    user_text: str
    system_text: str = ""
    temperature: float = 0.7
    max_tokens: int = 256
    stop_sequences: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.user_text:
            raise ValueError("user_text must be non-empty")


@dataclass
class CompletionResult:
    text: str
    prompt_tokens: int | None = None
    completion_tokens: int | None = None
    latency: float = 0.0


@dataclass
class BackendConfig:
    base_url: str
    model: str = ""
    api_key_env: str = ""
    timeout: float = 30.0
    retries: int = 2
    backoff_base: float = 0.5

    def __post_init__(self):
        if not 0 < self.timeout <= MAX_WAIT_S:  # also false for NaN
            raise ValueError(f"timeout must be above 0 and at most {MAX_WAIT_S} s, "
                             f"got {self.timeout}")
        if not 0 <= self.backoff_base <= MAX_WAIT_S:
            raise ValueError(f"backoff_base must be 0 to {MAX_WAIT_S} s, "
                             f"got {self.backoff_base}")
        if not 0 <= self.retries <= 5:
            raise ValueError("retries must be between 0 and 5")
        url = urllib.parse.urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"base_url {self.base_url!r} is not an http(s) URL")


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

    The backend keeps one keep-alive connection, so it is not shared
    between threads: each worker process runs its own copy. The connection is
    closed and forgotten after a transport error or a response that ends it;
    one the server closed while it sat idle is replaced without spending a
    retry. ``http_proxy``, ``https_proxy`` and ``no_proxy`` are read from
    the environment when the backend is built, and TLS is verified against
    the system trust store. ``close`` closes the connection.
    """

    def __init__(self, config: BackendConfig, sleep=time.sleep):
        self.config = config
        self._sleep = sleep
        self._conn: http.client.HTTPConnection | None = None

        url = urllib.parse.urlsplit(config.base_url)
        self._https = url.scheme == "https"
        self._address = (url.hostname, url.port or (443 if self._https else 80))
        self._ssl_context = None
        if self._https:
            import ssl

            self._ssl_context = ssl.create_default_context()
        self._target = url.path.rstrip("/") + "/chat/completions" + \
            (f"?{url.query}" if url.query else "")
        self._proxy, self._proxy_headers = resolve_proxy(url)
        if self._proxy and not self._https:
            self._target = f"http://{url.netloc.rpartition('@')[2]}{self._target}"

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json", "User-Agent": "duetsim"}
        key = os.environ.get(self.config.api_key_env) if self.config.api_key_env else None
        if key:
            headers["Authorization"] = f"Bearer {key}"
        if not self._https:
            headers.update(self._proxy_headers)
        return headers

    def complete(self, request: CompletionRequest) -> CompletionResult:
        import http.client  # bound here for the except clause below

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
        headers = self._headers()

        last_error: Exception | None = None
        for attempt in range(self.config.retries + 1):
            if attempt:
                self._sleep(self.config.backoff_base * (2 ** (attempt - 1)))
            start = time.monotonic()
            try:
                status, data = self._post(body, headers)
            except TimeoutError as e:
                last_error = Timeout(str(e) or "timed out")
                continue
            except (OSError, http.client.HTTPException) as e:
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
                prompt_tokens=usage.get("prompt_tokens"),
                completion_tokens=usage.get("completion_tokens"),
                latency=time.monotonic() - start,
            )
        raise RetriesExhausted(
            f"{self.config.retries + 1} attempts failed; last: {last_error}"
        ) from last_error

    def _post(self, body: bytes, headers: dict) -> tuple[int, bytes]:
        """POST on the kept connection; returns (status, body)."""
        conn = self._conn
        if conn is not None:
            try:
                return self._exchange(conn, body, headers)
            except ConnectionError:
                pass  # closed by the server while idle: resend on a new one
        conn = self._connect()
        return self._exchange(conn, body, headers)

    def _connect(self) -> http.client.HTTPConnection:
        import http.client

        host, port = self._proxy or self._address
        if self._https:
            conn = http.client.HTTPSConnection(host, port, timeout=self.config.timeout,
                                               context=self._ssl_context)
            if self._proxy:
                conn.set_tunnel(*self._address, headers=self._proxy_headers)
        else:
            conn = http.client.HTTPConnection(host, port, timeout=self.config.timeout)
        self._conn = conn
        return conn

    def _exchange(self, conn, body: bytes, headers: dict) -> tuple[int, bytes]:
        try:
            conn.request("POST", self._target, body, headers)
            resp = conn.getresponse()
            data = resp.read()
        except BaseException:
            self.close()
            raise
        if resp.will_close:
            self.close()
        return resp.status, data

    def close(self) -> None:
        """Close the connection, if one is open; a later call reconnects."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None


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
