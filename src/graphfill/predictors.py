"""Pluggable prediction backends with batching and bounded retry.

Two built-in backends: a remote chat-completions client (OpenAI-compatible
wire format, credentials from the environment only) and a deterministic
local mock that averages the previous estimate with the neighbor mean.
``predict_batch`` renders each task's prompt, dispatches with bounded
concurrency, parses the completion, retries failures up to a cap, and
falls back to temporal persistence when the cap is exhausted.
"""
import base64
import http.client
import json
import math
import os
import socket
import threading
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from urllib.request import getproxies, proxy_bypass  # urllib's proxy environment rules

import numpy as np

from .graphs import _reject_infinite
from .prompts import CompletionParseError, NodeTask, build_prompt, parse_completion, prompt_groups
from .prompts import prompt_lengths, round_fixed

API_KEY_ENV = "OPENAI_API_KEY"
ENDPOINT_ENV = "OPENAI_BASE_URL"


class TransportError(RuntimeError):
    """Backend transport failure: HTTP error, timeout, or malformed body.

    ``status`` is the HTTP status of an error response (None for any other
    failure), and ``retry_after`` its ``Retry-After`` header in seconds, when
    the response sent one as a number.
    """

    def __init__(self, message: str, status: int | None = None, retry_after: float | None = None):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


@dataclass(frozen=True)
class PredictorConfig:
    backend: str = "mock"
    endpoint_url: str = ""
    model_name: str = ""
    temperature: float = 0.0
    max_retries: int = 2
    request_timeout: float = 30.0
    max_concurrency: int = 4
    multi_task_prompt: bool = False

    def __post_init__(self):
        _reject_infinite(self)
        if self.backend not in ("mock", "remote"):
            raise ValueError(f"backend must be 'mock' or 'remote', got {self.backend!r}")
        if not self.temperature >= 0.0:
            raise ValueError("temperature must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not self.request_timeout > 0.0:
            raise ValueError("request_timeout must be positive")
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")

    def resolved_endpoint(self) -> str:
        return self.endpoint_url or os.environ.get(ENDPOINT_ENV, "")


def validate_predictor_config(cfg: PredictorConfig) -> None:
    """Fail fast on unusable remote configuration, before any network call."""
    if cfg.backend == "remote":
        endpoint = cfg.resolved_endpoint()
        if not endpoint:
            raise ValueError(
                f"remote backend needs an endpoint URL (config endpoint_url or ${ENDPOINT_ENV})"
            )
        if urllib.parse.urlsplit(endpoint).scheme not in ("http", "https"):
            raise ValueError(f"remote endpoint {endpoint!r} must be an http:// or https:// URL")
        if not os.environ.get(API_KEY_ENV):
            raise ValueError(f"remote backend needs credentials in ${API_KEY_ENV}")


@dataclass(frozen=True)
class PredictionResult:
    """One task's prediction and the exchange it came from.

    ``prompt`` is the user text sent for the task's group and
    ``completion`` the group's last completion; each is None when it was
    not received (no call made, or the last attempt hit a transport error).
    """
    node: int
    t: int
    value: float
    attempts: int
    backend_latency: float = 0.0
    fallback: bool = False
    prompt: str | None = None
    completion: str | None = None


def mock_predict(task: NodeTask) -> float:
    """Deterministic offline prediction: average of memory and neighborhood.

    With neighbors present, returns ``0.5 * previous + 0.5 * mean(neighbors)``
    rounded to the task's precision; otherwise the previous value persists.
    """
    if task.neighbor_values:
        value = 0.5 * task.previous + 0.5 * (sum(task.neighbor_values) / len(task.neighbor_values))
    else:
        value = task.previous
    return round(value, task.precision)


def mock_step(layout, t: int, previous, processed, precision: int, multi_task_prompt: bool):
    """The mock ``(values, tokens)`` :func:`predict_batch` gives ``layout.nodes`` at ``t``; None if not finite."""
    # Column 0 and the padding read 0.0: each row sums from 0.0 left to right, as sum() does. An overflowing
    # sum is as silent as sum()'s, and its value is sent down the text path.
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.cumsum(np.append(processed, 0.0)[layout.index], axis=1)[:, -1]
        raw = 0.5 * previous + 0.5 * (sums / layout.counts)
    if not np.isfinite(raw).all():
        return None
    values = round_fixed(raw, precision)
    header, contexts, answers = prompt_lengths(layout, t, previous, processed, values, precision)
    if multi_task_prompt and values.size:  # one prompt; the completion puts one answer per line
        contexts, answers = contexts.sum(keepdims=True), answers.sum(keepdims=True) + values.size - 1
    return values, int(((header + contexts + 3) // 4).sum() + ((answers + 3) // 4).sum())  # ceil(length / 4)


def _mock_backend(system_text: str, user_text: str, tasks) -> str:
    del system_text, user_text
    return "\n".join(f"{mock_predict(task):.{task.precision}f}" for task in tasks)


def _retry_after(value: str | None) -> float | None:
    """A ``Retry-After`` header in seconds; None when absent or not a number (an HTTP date is not read)."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if 0.0 <= seconds < math.inf else None


class RemoteBackend:
    """A run's chat-completions client: keep-alive connections to one endpoint.

    :func:`bind_backend` builds one per run. The endpoint, the headers (the
    API key read once) and the proxy decision are worked out here; no
    connection opens before the first call. Idle connections wait on a LIFO
    stack of at most ``cfg.max_concurrency``. Each call takes one, or opens
    one, and gives it back unless the server announced a close or the
    exchange failed; a failed connection is closed, never reused. Whoever
    bound the backend calls :meth:`close` when the run ends.

    Proxies follow urllib's environment rules (``http_proxy``,
    ``https_proxy``, ``no_proxy``): an HTTPS endpoint is reached through a
    ``CONNECT`` tunnel, and an HTTP endpoint by sending the absolute URL to
    the proxy.
    """

    def __init__(self, cfg: PredictorConfig):
        self.cfg = cfg
        self.url = cfg.resolved_endpoint().rstrip("/") + "/chat/completions"
        parts = urllib.parse.urlsplit(self.url)
        origin = parts.netloc.rpartition("@")[2]
        self._headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV, "")
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        self._connection_class = http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
        self._address, self._tunnel, self._tunnel_headers = origin, None, None
        self._target = urllib.parse.urlunsplit(("", "", parts.path, parts.query, ""))
        proxy = getproxies().get(parts.scheme)
        if proxy and not proxy_bypass(origin):
            proxy = urllib.parse.urlsplit(proxy if "//" in proxy else "//" + proxy)
            auth = {}
            if proxy.username and proxy.password:
                user_pass = f"{urllib.parse.unquote(proxy.username)}:{urllib.parse.unquote(proxy.password)}"
                auth["Proxy-Authorization"] = "Basic " + base64.b64encode(user_pass.encode()).decode("ascii")
            self._address = proxy.netloc.rpartition("@")[2]
            if parts.scheme == "https":
                self._tunnel, self._tunnel_headers = origin, auth
            else:
                self._target = self.url
                self._headers.update(auth)
        self._idle = []
        self._lock = threading.Lock()

    def __call__(self, system_text: str, user_text: str, tasks) -> str:
        del tasks
        return remote_complete(system_text, user_text, self.cfg, self)  # looked up per attempt, so wrappers see it

    def post(self, body: bytes) -> bytes:
        """POST ``body`` to the endpoint; the whole response body of a 2xx reply.

        A request that fails on a reused connection before any response byte
        arrives (the server dropped the idle connection) is sent once more, on
        a fresh connection.

        Raises:
            TransportError: on timeout, connection failure, or a status
                outside 2xx (with ``status`` and ``retry_after`` set).
        """
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        reused = conn is not None
        try:
            try:
                if conn is None:
                    conn = self._connect()
                resp = self._exchange(conn, body)
            except (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError):
                if not reused:
                    raise
                conn.close()
                conn = self._connect()
                resp = self._exchange(conn, body)
            data = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            if conn is not None:
                conn.close()
            raise TransportError(f"request to {self.url} failed: {exc}") from exc
        with self._lock:
            keep = not resp.will_close and len(self._idle) < self.cfg.max_concurrency
            if keep:
                self._idle.append(conn)
        if not keep:
            conn.close()
        if not 200 <= resp.status < 300:
            excerpt = data[:200].decode("utf-8", "replace")
            raise TransportError(f"HTTP {resp.status} from {self.url}: {excerpt}", resp.status,
                                 _retry_after(resp.getheader("Retry-After")))
        return data

    def close(self) -> None:
        """Close the idle connections; a later call opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _connect(self):
        conn = self._connection_class(self._address, timeout=self.cfg.request_timeout)
        if self._tunnel is not None:
            conn.set_tunnel(self._tunnel, headers=self._tunnel_headers)
        return conn

    def _exchange(self, conn, body: bytes):
        conn.request("POST", self._target, body, self._headers)
        # A server that writes its headers and its body in two sends without TCP_NODELAY (Python's
        # http.server does) holds the body under Nagle until the headers are acknowledged. On a reused
        # connection Linux delays that ACK by about 40 ms; quickack, which the kernel clears again by
        # itself, makes this reply's ACK immediate.
        quickack = getattr(socket, "TCP_QUICKACK", None)
        if quickack is not None:
            conn.sock.setsockopt(socket.IPPROTO_TCP, quickack, 1)
        return conn.getresponse()


def remote_complete(system_text: str, user_text: str, cfg: PredictorConfig, client: RemoteBackend | None = None) -> str:
    """One chat-completions call; returns the first choice's text content.

    ``client`` is the run's :class:`RemoteBackend`, whose idle connection the
    call may reuse. Without one the call opens its own connection and closes
    it before returning.

    Raises:
        TransportError: on timeout, connection failure, HTTP status outside
            2xx, or a response body without ``choices[0].message.content``.
            Retrying lives upstream in :func:`predict_batch`.
    """
    body = {
        "model": cfg.model_name,
        "temperature": cfg.temperature,
        "messages": [
            {"role": "system", "content": system_text},
            {"role": "user", "content": user_text},
        ],
    }
    own = client is None
    if own:
        client = RemoteBackend(cfg)
    try:
        data = client.post(json.dumps(body).encode())
    finally:
        if own:
            client.close()
    try:
        content = json.loads(data)["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise TransportError(f"malformed response body from {client.url}: {exc}") from exc
    if not isinstance(content, str):
        raise TransportError(f"non-text completion content from {client.url}")
    return content


def estimate_tokens(text: str) -> int:
    """Crude token estimate from character length (~4 chars per token)."""
    return math.ceil(len(text) / 4)


def bind_backend(cfg: PredictorConfig, backend=None):
    """The callable ``predict_batch`` dispatches to, or None for the built-in mock.

    ``backend`` when given; otherwise None for the mock, which is pure
    Python and runs inline and untimed (a pool would only add overhead,
    and timing would make mock transcripts nondeterministic), or a new
    :class:`RemoteBackend` once ``validate_predictor_config`` accepts
    ``cfg``. A run binds once and passes the result to every step, so the
    check runs once and the steps share its connections. A result that is
    not the ``backend`` passed in is a remote client the caller must close.
    """
    if backend is not None or cfg.backend == "mock":
        return backend
    validate_predictor_config(cfg)
    return RemoteBackend(cfg)


def _attempt_group(tasks, cfg: PredictorConfig, backend) -> list:
    """Up to ``max_retries + 1`` attempts at one prompt covering ``tasks``.

    ``backend`` is what :func:`bind_backend` returned (None: the built-in
    mock, untimed). The parsed count must match ``len(tasks)``; once every
    attempt has failed, each task keeps its previous value, flagged as a
    fallback. One result per task, backend time split evenly across them.
    After an HTTP 429 or 503 with ``Retry-After``, the next attempt waits
    that long, at most ``request_timeout``; every other failure is retried
    at once. The wait is not backend time.
    """
    call = _mock_backend if backend is None else backend
    pair = build_prompt(tasks)
    elapsed_ms = 0.0
    completion = values = None
    for attempts in range(1, cfg.max_retries + 2):
        start = time.perf_counter()
        pause = 0.0
        try:
            completion = call(pair.system_text, pair.user_text, tasks)
            values = parse_completion(completion, expected_count=len(tasks), precision=tasks[0].precision)
        except TransportError as exc:
            completion = None
            if exc.status in (429, 503) and exc.retry_after is not None:  # the server asked for a pause
                pause = min(exc.retry_after, cfg.request_timeout)
        except CompletionParseError:
            pass
        if backend is not None:
            elapsed_ms += (time.perf_counter() - start) * 1000.0
        if values is not None:
            break
        if pause and attempts <= cfg.max_retries:
            time.sleep(pause)
    fallback = values is None
    if fallback:
        values = [task.previous for task in tasks]
    latency = elapsed_ms / len(tasks)
    return [
        PredictionResult(task.node, task.t, value, attempts, latency, fallback, pair.user_text, completion)
        for task, value in zip(tasks, values)
    ]


def predict_batch(tasks, cfg: PredictorConfig, backend=None) -> list:
    """Predict one value per task, preserving input order.

    Args:
        tasks: Nonempty list of tasks sharing one time index.
        cfg: Backend selection, retry cap, and concurrency bound. The
            bound applies to the remote backend and to a caller-supplied
            one; the built-in mock runs inline.
        backend: Optional callable ``(system_text, user_text, tasks) -> str``
            overriding the configured backend (used by tests and stubs, and
            by a run, which passes the one :func:`bind_backend` returned).
            Without one, a remote configuration is bound for this batch and
            its connections are closed before returning.

    Each task consumes at most ``max_retries + 1`` backend calls; a task
    still failing after that yields its previous value, flagged as a
    fallback. Transport errors count as failed attempts; they never abort
    the batch.
    """
    tasks = list(tasks)
    if not tasks:
        raise ValueError("tasks must be nonempty")
    t0 = tasks[0].t
    if any(task.t != t0 for task in tasks):
        raise ValueError("all tasks in a batch must share the same time index")

    bound = bind_backend(cfg, backend)
    try:
        groups = prompt_groups(tasks, cfg.multi_task_prompt)
        if bound is not None and len(groups) > 1 and cfg.max_concurrency > 1:  # remote or caller-supplied: may wait
            with ThreadPoolExecutor(max_workers=min(cfg.max_concurrency, len(groups))) as pool:
                outs = list(pool.map(lambda group: _attempt_group(group, cfg, bound), groups))
        else:
            outs = [_attempt_group(group, cfg, bound) for group in groups]
    finally:
        if bound is not backend:  # a remote client bound for this batch alone
            bound.close()
    return [result for out in outs for result in out]
