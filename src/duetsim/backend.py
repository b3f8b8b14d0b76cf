"""Completion backends: live chat-completions HTTP, scripted, record/replay.

Every prompt in the framework flows through the single ``complete`` entry
point, so any backend that satisfies the Backend protocol (an object with
``complete(request) -> CompletionResult``) can drive a simulation.
"""

from __future__ import annotations

import base64
import hashlib
import http.client
import json
import os
import ssl
import threading
import time
import urllib.parse
import urllib.request
from dataclasses import dataclass

from .errors import (
    CassetteIOError,
    CassetteMiss,
    EndpointError,
    MalformedResponse,
    RetriesExhausted,
    ScriptExhausted,
    Timeout,
)

RETRYABLE_STATUS = {429, 500, 502, 503, 504}


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
    model: str
    api_key_env: str = ""
    timeout: float = 30.0
    retries: int = 2
    backoff_base: float = 0.5

    def __post_init__(self):
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if not 0 <= self.retries <= 5:
            raise ValueError("retries must be between 0 and 5")
        url = urllib.parse.urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"base_url {self.base_url!r} is not an http(s) URL")


def request_digest(request: CompletionRequest) -> str:
    """Stable cross-process digest of a request's semantic content."""
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
        self._lock = threading.Lock()
        self.requests: list[CompletionRequest] = []

    def complete(self, request: CompletionRequest) -> CompletionResult:
        with self._lock:
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

    Each thread that calls ``complete`` keeps one keep-alive connection of
    its own. A connection is closed and forgotten after a transport error or
    a response that ends it; one the server closed while it sat idle is
    replaced without spending a retry. ``http_proxy``, ``https_proxy`` and
    ``no_proxy`` are read from the environment when the backend is built,
    and TLS is verified against the system trust store. ``close`` closes
    every connection still open.
    """

    def __init__(self, config: BackendConfig, sleep=time.sleep):
        self.config = config
        self._sleep = sleep
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open: set[http.client.HTTPConnection] = set()

        url = urllib.parse.urlsplit(config.base_url)
        self._https = url.scheme == "https"
        self._address = (url.hostname, url.port or (443 if self._https else 80))
        self._ssl_context = ssl.create_default_context() if self._https else None
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
        """POST on this thread's connection; returns (status, body)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            try:
                return self._exchange(conn, body, headers)
            except ConnectionError:
                pass  # closed by the server while idle: resend on a new one
        conn = self._connect()
        return self._exchange(conn, body, headers)

    def _connect(self) -> http.client.HTTPConnection:
        host, port = self._proxy or self._address
        if self._https:
            conn = http.client.HTTPSConnection(host, port, timeout=self.config.timeout,
                                               context=self._ssl_context)
            if self._proxy:
                conn.set_tunnel(*self._address, headers=self._proxy_headers)
        else:
            conn = http.client.HTTPConnection(host, port, timeout=self.config.timeout)
        self._local.conn = conn
        with self._lock:
            self._open.add(conn)
        return conn

    def _exchange(self, conn, body: bytes, headers: dict) -> tuple[int, bytes]:
        try:
            conn.request("POST", self._target, body, headers)
            resp = conn.getresponse()
            data = resp.read()
        except BaseException:
            self._discard(conn)
            raise
        if resp.will_close:
            self._discard(conn)
        return resp.status, data

    def _discard(self, conn) -> None:
        conn.close()
        self._local.conn = None
        with self._lock:
            self._open.discard(conn)

    def close(self) -> None:
        """Close every connection, including those of threads that have
        exited; a later call reconnects."""
        with self._lock:
            conns = list(self._open)
        for conn in conns:
            conn.close()


def resolve_proxy(url) -> tuple[tuple[str, int] | None, dict[str, str]]:
    """((host, port) of the proxy for ``url`` or None, headers for the proxy).

    Reads ``<scheme>_proxy`` and ``no_proxy`` from the environment.
    """
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


class CassetteBackend:
    """Record/replay wrapper around any backend.

    Record mode forwards to the inner backend and appends (digest, request,
    response) records to the cassette file. Replay mode serves responses by
    request digest without touching the inner backend and fails on a miss.
    Repeated identical requests replay in recorded order.
    """

    def __init__(self, path: str, mode: str, inner=None):
        if mode not in ("record", "replay"):
            raise ValueError(f"unknown cassette mode {mode!r}")
        if mode == "record" and inner is None:
            raise ValueError("record mode requires an inner backend")
        self.path = path
        self.mode = mode
        self.inner = inner
        self._lock = threading.Lock()
        self._responses: dict[str, list[str]] = {}
        self._served: dict[str, int] = {}
        if mode == "replay":
            self._load()

    def _load(self) -> None:
        try:
            with open(self.path, encoding="utf-8") as f:
                for line in f:
                    line = line.strip()
                    if not line:
                        continue
                    record = json.loads(line)
                    self._responses.setdefault(record["digest"], []).append(
                        record["response"])
        except OSError as e:
            raise CassetteIOError(f"cannot read cassette {self.path}: {e}") from e
        except (json.JSONDecodeError, KeyError) as e:
            raise CassetteIOError(f"corrupt cassette {self.path}: {e}") from e

    def complete(self, request: CompletionRequest) -> CompletionResult:
        digest = request_digest(request)
        if self.mode == "replay":
            with self._lock:
                recorded = self._responses.get(digest)
                if not recorded:
                    raise CassetteMiss(digest)
                index = self._served.get(digest, 0)
                text = recorded[min(index, len(recorded) - 1)]
                self._served[digest] = index + 1
            return CompletionResult(text=text)
        result = self.inner.complete(request)
        record = {
            "digest": digest,
            "request": {"system": request.system_text, "user": request.user_text},
            "response": result.text,
        }
        with self._lock:
            try:
                with open(self.path, "a", encoding="utf-8") as f:
                    f.write(json.dumps(record) + "\n")
            except OSError as e:
                raise CassetteIOError(f"cannot write cassette {self.path}: {e}") from e
        return result
